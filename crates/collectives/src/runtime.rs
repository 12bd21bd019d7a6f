//! Rank runtime: the crate's stand-in for MPI, over pluggable transports.
//!
//! [`run_cluster`] spawns one OS thread per rank and gives each a [`Comm`]
//! for the world communicator. Point-to-point messages travel over a
//! [`Transport`] backend (an *eager* protocol: a send never waits for a
//! matching receive, so collectives written against this runtime are
//! deadlock-free as long as every posted receive is eventually matched).
//! The backend delivers each message into the destination rank's mailbox,
//! where it waits until a receive takes it. Tag matching follows MPI semantics: a receive names
//! `(source, communicator, tag)`, whatever order messages arrive in.
//!
//! Two backends exist (see [`crate::transport`]): in-process threads that
//! deliver into each other's mailboxes with `Arc`-shared zero-copy payloads
//! (the default), and real TCP sockets
//! ([`ClusterBuilder::transport`] or `DCNN_TRANSPORT=tcp`). For ranks as
//! separate OS processes, [`try_run_tcp_rank_with`] is the per-process
//! entry point (driven by the `dcnn-launch` binary via `DCNN_RANK` /
//! `DCNN_WORLD` / `DCNN_RENDEZVOUS`).
//!
//! [`Comm::split`] creates sub-communicators the way `MPI_Comm_split` does;
//! DIMD's group-based shuffle (paper §4.1, Figure 9) is built on it.
//!
//! ## Nonblocking collectives
//!
//! [`Comm::launch`] starts a [`CollectiveOp`] (an allreduce, reduce-scatter
//! or allgather described as a value) as a *cursor* over its steps, parked
//! in the rank's table at the first receive whose message has not arrived,
//! and returns a [`PendingReduce`] handle. No thread runs it: every call
//! into the runtime advances the parked cursors (`runtime/launch.rs`), so a
//! rank runs one thread, plus a socket reader per peer on TCP. Each launch
//! has its own derived bucket communicator, so several reductions can be in
//! flight without their messages cross-matching. The bucketed
//! overlap-aware trainer loop is built on this.
//!
//! ## Deadlock watchdog
//!
//! A wait that stays blocked past the cluster's receive timeout
//! ([`ClusterBuilder::recv_timeout`], default 60 s, overridable with the
//! `DCNN_RECV_TIMEOUT_MS` environment variable) does not die with a bare
//! timeout panic. Instead, a blocked receive publishes its descriptor
//! `(rank, sources, comm, tag)`, every parked cursor's (bucket, label, step
//! and awaited `(peer, tag)`) and a snapshot of its stash keys (what waits
//! in its mailbox) into a shared diagnostics registry
//! (`runtime/watchdog.rs`); the first rank to time out assembles
//! the cross-rank wait-for graph, runs cycle detection, and panics with a
//! readable report naming every blocked rank and cursor, what it waits for,
//! what it has stashed, and the deadlock cycle if one exists. All other
//! timing-out ranks panic with the same (memoized) report.
//!
//! ## Tracing and counters
//!
//! [`ClusterBuilder::trace`] (or `DCNN_TRACE=1`) turns on per-rank event
//! recording (see [`crate::trace`]); the runtime always keeps cheap per-rank
//! counters — bytes/messages sent and received, time spent blocked in
//! receives, stash high-water mark, async launches and their in-flight
//! high-water mark, the completed launches' bytes × time in flight, time
//! spent draining async reduces, and per-phase timings
//! via [`Comm::phase`] — returned as [`CommStats`] in [`ClusterRun::stats`]
//! and queryable mid-run with [`Comm::stats`].

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::config::RuntimeConfig;
use crate::trace::{write_trace_json, TraceEvent, TraceEventKind};
use crate::transport::local::local_fabric;
use crate::transport::tcp::TcpTransport;
use crate::transport::{Transport, TransportKind, WireMsg};

pub use crate::transport::Payload;

mod launch;
mod router;
mod watchdog;

use launch::{BusyClock, Table};
pub use launch::{CollectiveOp, PendingReduce};
use watchdog::RankDiag;

/// A structured communication failure, returned as a value: the receive
/// that finds its peer dead returns it, and every collective, launch and
/// wait above that receive hands it up with `?` — through
/// [`PendingReduce::wait`] for a launched bucket, whose cursor met the dead
/// peer — to the process edge, where [`try_run_tcp_rank_with`] returns it. Its
/// `Display` is the one-line report a dying rank prints: `rank 2: peer
/// rank 1 is dead (...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive could never complete because the link to the peer it
    /// needed died (torn socket, killed process, frame corruption).
    PeerDead {
        /// The surviving rank reporting the failure.
        rank: usize,
        /// The dead peer's global rank.
        peer: usize,
        /// The transport's failure cause (the underlying I/O error).
        cause: String,
        /// Innermost [`Comm::phase`] label on the failing thread — the
        /// algorithm phase ("ring_rs", "bcast", …) the receive belonged to;
        /// for a launched bucket, its algorithm's name.
        phase: Option<String>,
        /// The launched bucket (launch sequence number) whose cursor hit
        /// the dead peer; `None` for a blocking receive.
        bucket: Option<u64>,
        /// The gradient segment that sealed the bucket, when labeled.
        label: Option<String>,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerDead { rank, peer, cause, phase, bucket, label } => {
                write!(f, "rank {rank}: peer rank {peer} is dead ({cause})")?;
                if let Some(p) = phase {
                    write!(f, " during {p}")?;
                }
                if let Some(b) = bucket {
                    write!(f, " [bucket {b}")?;
                    if let Some(l) = label {
                        write!(f, ", sealed by {l}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CommError {}

thread_local! {
    /// Innermost-to-outermost [`Comm::phase`] labels active on this thread.
    /// Thread-local because a rank's communicator handles may live on more
    /// than one thread (a `Comm` is `Send`), and a peer-death report must
    /// name the phase of the thread that was actually blocked.
    static PHASE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// State shared by every rank of one cluster run: configuration, the
/// diagnostics registry, and the sinks results are flushed into.
struct ClusterShared {
    epoch: Instant,
    recv_timeout: Duration,
    trace_on: bool,
    /// True when the world spans OS processes: the diagnostics registry
    /// only sees this process's ranks, so deadlock reports must say so
    /// instead of claiming remote ranks are "not blocked".
    cross_process: bool,
    diags: Vec<Mutex<RankDiag>>,
    /// Memoized deadlock report: built once by the first rank to time out,
    /// then reused by every other rank so all panics carry the same text.
    report: Mutex<Option<Arc<String>>>,
    trace_sink: Mutex<Vec<TraceEvent>>,
    stats_sink: Mutex<Vec<CommStats>>,
}

impl ClusterShared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The rank's transport endpoint, parked cursors, counters and trace
/// buffer, shared by every [`Comm`] handle of the rank (world, splits and
/// async buckets), like an MPI profiling layer.
struct RankLocal {
    rank: usize,
    shared: Arc<ClusterShared>,
    /// The message fabric (threads or TCP), addressed by global rank; its
    /// mailbox is where every receive of the rank waits.
    transport: Arc<dyn Transport>,
    /// The launched collectives, parked between calls into the runtime.
    parked: Table,
    bytes_sent: AtomicU64,
    msgs_sent: AtomicU64,
    bytes_recvd: AtomicU64,
    msgs_recvd: AtomicU64,
    recv_wait_ns: AtomicU64,
    recv_blocks: AtomicU64,
    /// Async collectives launched via [`Comm::launch`].
    async_launched: AtomicU64,
    /// Most launches at once not yet seen to complete (parked cursors) —
    /// proof of overlap when ≥ 2.
    async_inflight_hwm: AtomicU64,
    /// Time the rank thread spent in [`PendingReduce::wait`].
    bucket_wait_ns: AtomicU64,
    /// Time at least one launched collective was unfinished.
    async_busy: Mutex<BusyClock>,
    /// Payload bytes fed through [`Comm::reduce_scatter`].
    scatter_bytes: AtomicU64,
    /// Wall time spent inside blocking [`Comm::reduce_scatter`] calls.
    scatter_wait_ns: AtomicU64,
    /// Payload bytes fed through [`Comm::allgather_f32`].
    gather_bytes: AtomicU64,
    /// Wall time spent inside blocking [`Comm::allgather_f32`] calls.
    gather_wait_ns: AtomicU64,
    /// Bytes sent to each peer, indexed by global rank (`link_sent[rank]`
    /// counts loopback self-sends). The per-link view of `bytes_sent`, for
    /// cross-checking real link utilization against the simulator's.
    link_sent: Vec<AtomicU64>,
    /// Async collectives completed (each one launch-to-done span).
    async_done: AtomicU64,
    /// Σ payload bytes × nanoseconds in flight over the completed async
    /// collectives, saturating.
    async_byte_ns: AtomicU64,
    /// Earliest launch and latest completion of a completed async
    /// collective, in nanoseconds since cluster start (`u64::MAX` / 0
    /// until one completes).
    async_first_launch_ns: AtomicU64,
    async_last_done_ns: AtomicU64,
    /// Inclusive per-phase wall time: `(label, ns, entries)`.
    phases: Mutex<Vec<(&'static str, u64, u64)>>,
    events: Mutex<Vec<TraceEvent>>,
}

impl RankLocal {
    fn new(transport: Arc<dyn Transport>, shared: Arc<ClusterShared>) -> Self {
        let world = shared.diags.len();
        RankLocal {
            rank: transport.rank(),
            shared,
            transport,
            parked: Table::default(),
            bytes_sent: AtomicU64::new(0),
            msgs_sent: AtomicU64::new(0),
            bytes_recvd: AtomicU64::new(0),
            msgs_recvd: AtomicU64::new(0),
            recv_wait_ns: AtomicU64::new(0),
            recv_blocks: AtomicU64::new(0),
            async_launched: AtomicU64::new(0),
            async_inflight_hwm: AtomicU64::new(0),
            bucket_wait_ns: AtomicU64::new(0),
            async_busy: Mutex::default(),
            scatter_bytes: AtomicU64::new(0),
            scatter_wait_ns: AtomicU64::new(0),
            gather_bytes: AtomicU64::new(0),
            gather_wait_ns: AtomicU64::new(0),
            link_sent: (0..world).map(|_| AtomicU64::new(0)).collect(),
            async_done: AtomicU64::new(0),
            async_byte_ns: AtomicU64::new(0),
            async_first_launch_ns: AtomicU64::new(u64::MAX),
            async_last_done_ns: AtomicU64::new(0),
            phases: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn trace(&self, kind: TraceEventKind, comm_id: u64, tag: u32, peer: Option<usize>, bytes: usize) {
        if !self.shared.trace_on {
            return;
        }
        self.events.lock().expect("trace buffer").push(TraceEvent {
            t_ns: self.shared.now_ns(),
            rank: self.rank,
            kind,
            comm_id,
            tag,
            peer,
            bytes,
        });
    }

    fn add_phase(&self, label: &'static str, ns: u64) {
        let mut phases = self.phases.lock().expect("phase table");
        if let Some(p) = phases.iter_mut().find(|p| p.0 == label) {
            p.1 += ns;
            p.2 += 1;
        } else {
            phases.push((label, ns, 1));
        }
    }

    fn snapshot(&self) -> CommStats {
        CommStats {
            bytes_sent: self.bytes_sent.load(Relaxed),
            msgs_sent: self.msgs_sent.load(Relaxed),
            bytes_recvd: self.bytes_recvd.load(Relaxed),
            msgs_recvd: self.msgs_recvd.load(Relaxed),
            recv_wait_ns: self.recv_wait_ns.load(Relaxed),
            recv_blocks: self.recv_blocks.load(Relaxed),
            stash_hwm: self.transport.mailbox().high_water_mark(),
            async_launched: self.async_launched.load(Relaxed),
            async_inflight_hwm: self.async_inflight_hwm.load(Relaxed),
            bucket_wait_ns: self.bucket_wait_ns.load(Relaxed),
            async_busy_ns: self.async_busy.lock().expect("busy clock").read(self.shared.now_ns()),
            scatter_bytes: self.scatter_bytes.load(Relaxed),
            scatter_wait_ns: self.scatter_wait_ns.load(Relaxed),
            gather_bytes: self.gather_bytes.load(Relaxed),
            gather_wait_ns: self.gather_wait_ns.load(Relaxed),
            link_bytes_sent: self.link_sent.iter().map(|a| a.load(Relaxed)).collect(),
            async_done: self.async_done.load(Relaxed),
            async_byte_ns: self.async_byte_ns.load(Relaxed),
            async_window_ns: self
                .async_last_done_ns
                .load(Relaxed)
                .saturating_sub(self.async_first_launch_ns.load(Relaxed)),
            phase_ns: self
                .phases
                .lock()
                .expect("phase table")
                .iter()
                .map(|&(l, ns, n)| (l.to_string(), ns, n))
                .collect(),
        }
    }

    /// Flush this rank's trace events and final counters into the shared
    /// sinks (called once, after the rank closure returns).
    fn flush(&self) {
        if self.shared.trace_on {
            let mut events = self.events.lock().expect("trace buffer");
            self.shared.trace_sink.lock().expect("trace sink").append(&mut events);
        }
        self.shared.stats_sink.lock().expect("stats sink")[self.rank] = self.snapshot();
    }
}

/// Snapshot of one rank's communication counters.
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    /// Bytes this rank pushed onto the wire (all communicators).
    pub bytes_sent: u64,
    /// Messages this rank pushed onto the wire.
    pub msgs_sent: u64,
    /// Bytes delivered to receives on this rank.
    pub bytes_recvd: u64,
    /// Messages delivered to receives on this rank.
    pub msgs_recvd: u64,
    /// Total nanoseconds receives spent waiting for data.
    pub recv_wait_ns: u64,
    /// Receives that stalled at least one poll interval without data.
    pub recv_blocks: u64,
    /// Most messages delivered to this rank but not yet received, at once
    /// — every early arrival counts, whatever order it is received in.
    pub stash_hwm: u64,
    /// Async collectives launched via [`Comm::launch`].
    pub async_launched: u64,
    /// High-water mark of async reduces in flight at once; ≥ 2 proves
    /// bucket reductions actually overlapped.
    pub async_inflight_hwm: u64,
    /// Nanoseconds the launching thread spent in [`PendingReduce::wait`] —
    /// communication *not* hidden by compute.
    pub bucket_wait_ns: u64,
    /// Nanoseconds during which at least one collective launched via
    /// [`Comm::launch`] was unfinished — the union of their launch →
    /// completion (or abandonment) windows, so buckets in flight together
    /// count once: the time communication was pending, not time spent on
    /// it.
    pub async_busy_ns: u64,
    /// Payload bytes fed through a reduce-scatter: every reduce-scatter
    /// [`CollectiveOp`] (blocking or launched, whatever the algorithm) and
    /// every direct [`Comm::reduce_scatter`] call.
    pub scatter_bytes: u64,
    /// Nanoseconds spent inside those reduce-scatters.
    pub scatter_wait_ns: u64,
    /// Payload bytes fed through [`Comm::allgather_f32`].
    pub gather_bytes: u64,
    /// Nanoseconds spent inside [`Comm::allgather_f32`].
    pub gather_wait_ns: u64,
    /// Bytes this rank sent to each peer, indexed by global rank (the entry
    /// at this rank's own index counts loopback self-sends). Sums to
    /// `bytes_sent`; the per-link resolution is what the real-vs-simnet
    /// cross-check compares against [`dcnn_simnet`]'s `link_bytes`.
    pub link_bytes_sent: Vec<u64>,
    /// Async collectives completed, each one launch-to-done span.
    pub async_done: u64,
    /// Σ payload bytes × nanoseconds in flight over those spans
    /// (saturating at `u64::MAX`).
    pub async_byte_ns: u64,
    /// Nanoseconds from the earliest span's launch to the latest one's
    /// completion; 0 before one completes.
    pub async_window_ns: u64,
    /// Inclusive wall time per [`Comm::phase`] label: `(label, ns, entries)`.
    /// Nested phases both accumulate, so times are inclusive.
    pub phase_ns: Vec<(String, u64, u64)>,
}

impl CommStats {
    /// Seconds the launching thread spent draining async bucket reduces.
    pub fn bucket_wait_secs(&self) -> f64 {
        self.bucket_wait_ns as f64 / 1e9
    }

    /// Nanoseconds accumulated under `label`, 0 if never entered.
    pub fn phase(&self, label: &str) -> u64 {
        self.phase_ns.iter().find(|p| p.0 == label).map_or(0, |p| p.1)
    }

    /// Per-peer bytes sent since the `earlier` snapshot (element-wise
    /// saturating difference; a peer index `earlier` had not seen yet
    /// counts from zero). The epoch-delta view of `link_bytes_sent`.
    pub fn link_bytes_delta(&self, earlier: &CommStats) -> Vec<u64> {
        self.link_bytes_sent
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(earlier.link_bytes_sent.get(i).copied().unwrap_or(0)))
            .collect()
    }

    /// The busiest outgoing link's byte count, ignoring loopback
    /// self-sends at `me`. 0 when this rank never sent to a real peer.
    pub fn link_bytes_max(me: usize, links: &[u64]) -> u64 {
        links.iter().enumerate().filter(|&(i, _)| i != me).map(|(_, &b)| b).max().unwrap_or(0)
    }

    /// Imbalance of outgoing link traffic: busiest link ÷ mean over peer
    /// links (loopback excluded). `1.0` is perfectly even; `0.0` when no
    /// peer traffic was sent. Algorithms with rooted trees (multicolor,
    /// ring-to-root) show > 1; symmetric rings sit at ~1.
    pub fn link_imbalance(me: usize, links: &[u64]) -> f64 {
        let peers: Vec<u64> =
            links.iter().enumerate().filter(|&(i, _)| i != me).map(|(_, &b)| b).collect();
        let total: u64 = peers.iter().sum();
        if peers.is_empty() || total == 0 {
            return 0.0;
        }
        let mean = total as f64 / peers.len() as f64;
        *peers.iter().max().expect("non-empty") as f64 / mean
    }

    /// Time-averaged bytes in flight across the completed async
    /// collectives: Σ(bytes × duration) over the window from the earliest
    /// launch to the latest completion (`repro comm` prints it). Returns 0
    /// when the window is empty or instantaneous.
    pub fn inflight_bytes_avg(&self) -> u64 {
        self.async_byte_ns.checked_div(self.async_window_ns).unwrap_or(0)
    }
}

/// Measures one labeled phase; created by [`Comm::phase`], records on drop.
/// While alive, the label sits on the thread's phase stack so a peer-death
/// report can name the algorithm phase the failing receive belonged to.
pub struct PhaseGuard {
    local: Arc<RankLocal>,
    label: &'static str,
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        PHASE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        self.local.add_phase(self.label, self.start.elapsed().as_nanos() as u64);
    }
}

/// A communicator handle: a group of ranks that can exchange messages and
/// run collectives. Cheap to clone-like via [`Comm::split`]. A `Comm` is
/// owned by one rank; it is `Send` but not `Sync` — threads of one rank
/// each get their own handle, as MPI communicators work.
pub struct Comm {
    global_rank: usize,
    /// Global ranks of the group members, in group-rank order.
    group: Arc<Vec<usize>>,
    /// This rank's index within `group`.
    my_index: usize,
    comm_id: u64,
    split_count: Cell<u64>,
    /// Async launches on this communicator, numbering derived bucket
    /// communicators (symmetric across ranks by collective-call order).
    async_seq: Cell<u64>,
    /// The rank's transport endpoint, parked cursors, counters and trace
    /// buffer, shared across all communicator handles on the rank (parent,
    /// splits and buckets).
    local: Arc<RankLocal>,
}

/// Reserved tag namespace for runtime-internal collectives (split, barrier).
const TAG_INTERNAL: u32 = 0xFFFF_0000;

impl Comm {
    /// Rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Rank within the world communicator.
    pub fn global_rank(&self) -> usize {
        self.global_rank
    }

    /// Global ranks of the members of this communicator.
    pub fn group(&self) -> &[usize] {
        &self.group
    }

    /// Name of the transport backend carrying this communicator's messages
    /// ("threads", "tcp") — for diagnostics and smoke tests.
    pub fn transport_backend(&self) -> &'static str {
        self.local.transport.backend()
    }

    /// Total bytes this rank has sent (across all communicator handles).
    pub fn bytes_sent(&self) -> u64 {
        self.local.bytes_sent.load(Relaxed)
    }

    /// Total messages this rank has sent (across all communicator handles).
    pub fn msgs_sent(&self) -> u64 {
        self.local.msgs_sent.load(Relaxed)
    }

    /// Snapshot of this rank's communication counters (shared across all of
    /// the rank's communicator handles). Diff two snapshots to attribute
    /// traffic and blocked time to a region, e.g. one training epoch.
    pub fn stats(&self) -> CommStats {
        self.local.snapshot()
    }

    /// Start a labeled timing phase; the elapsed wall time is added to this
    /// rank's [`CommStats::phase_ns`] when the returned guard drops. Phases
    /// may nest (times are inclusive).
    pub fn phase(&self, label: &'static str) -> PhaseGuard {
        PHASE_STACK.with(|s| s.borrow_mut().push(label));
        PhaseGuard { local: Arc::clone(&self.local), label, start: Instant::now() }
    }

    /// Send `payload` to group rank `dst` with `tag`. Never blocks.
    pub fn send(&self, dst: usize, tag: u32, payload: Payload) {
        assert!(tag < TAG_INTERNAL, "tag {tag:#x} is reserved for the runtime");
        self.send_raw(dst, tag, payload)
    }

    fn send_raw(&self, dst: usize, tag: u32, payload: Payload) {
        let gdst = self.group[dst];
        self.local.bytes_sent.fetch_add(payload.len_bytes() as u64, Relaxed);
        self.local.link_sent[gdst].fetch_add(payload.len_bytes() as u64, Relaxed);
        self.local.msgs_sent.fetch_add(1, Relaxed);
        self.local.trace(TraceEventKind::Send, self.comm_id, tag, Some(gdst), payload.len_bytes());
        self.local.transport.send(
            gdst,
            WireMsg { src: self.global_rank, comm_id: self.comm_id, tag, payload },
        );
    }

    /// Receive the next message from group rank `src` with `tag`, or the
    /// [`CommError`] naming `src` once it is dead with nothing left queued.
    pub fn recv(&self, src: usize, tag: u32) -> Result<Payload, CommError> {
        assert!(tag < TAG_INTERNAL, "tag {tag:#x} is reserved for the runtime");
        self.recv_raw(src, tag)
    }

    /// Receive from any group member (`MPI_ANY_SOURCE`). Returns the sender's
    /// group rank and the payload. Used by asynchronous SGD's parameter
    /// server, which serves whichever worker finishes first.
    pub fn recv_any(&self, tag: u32) -> Result<(usize, Payload), CommError> {
        assert!(tag < TAG_INTERNAL, "tag {tag:#x} is reserved for the runtime");
        let (gsrc, payload) = self.recv_from_sources(&self.group, true, tag, None, true)?.expect("blocking");
        let grank = self
            .group
            .iter()
            .position(|&g| g == gsrc)
            .expect("source is a group member");
        Ok((grank, payload))
    }

    fn recv_raw(&self, src: usize, tag: u32) -> Result<Payload, CommError> {
        Ok(self.recv_from_sources(&[self.group[src]], false, tag, None, true)?.expect("blocking").1)
    }

    /// Send an `f32` slice, copied once into a buffer from the transport's
    /// [`crate::transport::BufPool`].
    pub fn send_f32(&self, dst: usize, tag: u32, data: &[f32]) {
        self.send(dst, tag, Payload::f32(self.local.transport.pool().copy_of(data)));
    }

    /// Hand a received payload's buffer back to the transport's pool once
    /// its elements are used (nothing happens while another holder shares
    /// it).
    pub(crate) fn recycle(&self, payload: Payload) {
        self.local.transport.pool().recycle(payload);
    }

    /// Send an already-shared `f32` buffer without copying it; the threaded
    /// backend delivers the sender's allocation to the receiver (zero-copy,
    /// as RDMA would), TCP frames it at the socket boundary only.
    pub fn send_shared_f32(&self, dst: usize, tag: u32, data: std::sync::Arc<Vec<f32>>) {
        self.send(dst, tag, Payload::shared_f32(data));
    }

    /// Convenience: receive an `f32` vector, panicking with the report if
    /// `src` is dead. Product code receives with [`Comm::recv`].
    pub fn recv_f32(&self, src: usize, tag: u32) -> Vec<f32> {
        self.recv(src, tag).unwrap_or_else(|e| panic!("{e}")).into_f32()
    }

    /// Convenience: send bytes.
    pub fn send_bytes(&self, dst: usize, tag: u32, data: Vec<u8>) {
        self.send(dst, tag, Payload::bytes(data));
    }

    /// Convenience: receive bytes, panicking with the report if `src` is
    /// dead. Product code receives with [`Comm::recv`].
    pub fn recv_bytes(&self, src: usize, tag: u32) -> Vec<u8> {
        self.recv(src, tag).unwrap_or_else(|e| panic!("{e}")).into_bytes()
    }

    /// [`Comm::try_barrier`], panicking with the report if a peer is dead.
    pub fn barrier(&self) {
        self.try_barrier().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Dissemination barrier over this communicator (⌈log₂ n⌉ rounds), or
    /// the [`CommError`] of a dead peer.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let _phase = self.phase("barrier");
        let mut step = 1usize;
        let mut round = 0u32;
        while step < n {
            let to = (self.my_index + step) % n;
            // `step < n` always holds here, so no modulo of `step` is
            // needed before the subtraction.
            let from = (self.my_index + n - step) % n;
            self.send_raw(to, TAG_INTERNAL + 1 + round, Payload::bytes(Vec::new()));
            self.recv_raw(from, TAG_INTERNAL + 1 + round)?;
            step <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Blocking counts-based ring reduce-scatter: `counts[r]` contiguous
    /// elements of `buf`, in rank order, form the chunk owned by rank `r`;
    /// on return this rank's chunk holds the elementwise sum over all ranks
    /// and the other chunks hold partial sums. The accumulation order of an
    /// element depends only on its owning rank, so for a fixed owner map the
    /// owned bits are independent of how a payload is bucketed. It is
    /// [`RingReduceScatter`](crate::RingReduceScatter)'s reduce-scatter
    /// [`CollectiveOp`], run once, so it moves the `scatter_*` counters in
    /// [`CommStats`] where every reduce-scatter does. Collective; panics
    /// with the report if a peer is dead.
    pub fn reduce_scatter(&self, buf: &mut [f32], counts: &[usize]) {
        CollectiveOp::reduce_scatter(Arc::new(crate::RingReduceScatter), counts.to_vec())
            .run(self, buf)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Comm::try_allgather_f32`], panicking with the report if a peer is
    /// dead.
    pub fn allgather_f32(&self, buf: &mut [f32], counts: &[usize]) {
        self.try_allgather_f32(buf, counts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocking counts-based ring allgather of `f32` chunks: each rank
    /// contributes its owned chunk (layout as in [`Comm::reduce_scatter`]);
    /// on return every rank holds the full buffer. Pure forwarding, no
    /// arithmetic. It is the allgather [`CollectiveOp`], run once, so it
    /// adds to the `gather_*` counters in [`CommStats`]. Collective.
    pub fn try_allgather_f32(&self, buf: &mut [f32], counts: &[usize]) -> Result<(), CommError> {
        CollectiveOp::allgather(counts.to_vec()).run(self, buf)
    }

    /// Split into sub-communicators, like `MPI_Comm_split`: ranks passing the
    /// same `color` form a group, ordered by `(key, rank)`. Must be called by
    /// every member of this communicator; panics with the report if a peer
    /// is dead.
    pub fn split(&self, color: u64, key: i64) -> Comm {
        let n = self.size();
        let me = self.my_index;
        let gen = self.split_count.get();
        self.split_count.set(gen + 1);
        let tag_up = TAG_INTERNAL + 100;
        let tag_down = TAG_INTERNAL + 101;

        // Gather (color, key) at group rank 0, broadcast the table back.
        let table: Vec<(u64, i64)>;
        if me == 0 {
            let mut t = vec![(0, 0); n];
            t[0] = (color, key);
            for (src, slot) in t.iter_mut().enumerate().skip(1) {
                let p = self.recv_raw(src, tag_up).unwrap_or_else(|e| panic!("{e}"));
                let b = p.as_bytes();
                let c = u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
                let k = i64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
                *slot = (c, k);
            }
            table = t;
            let mut flat = Vec::with_capacity(n * 16);
            for &(c, k) in &table {
                flat.extend_from_slice(&c.to_le_bytes());
                flat.extend_from_slice(&k.to_le_bytes());
            }
            // One shared buffer fans out to every destination: each send
            // clones an `Arc`, not the table bytes.
            let flat = Payload::bytes(flat);
            for dst in 1..n {
                self.send_raw(dst, tag_down, flat.clone());
            }
        } else {
            let mut b = Vec::with_capacity(16);
            b.extend_from_slice(&color.to_le_bytes());
            b.extend_from_slice(&key.to_le_bytes());
            self.send_raw(0, tag_up, Payload::bytes(b));
            let p = self.recv_raw(0, tag_down).unwrap_or_else(|e| panic!("{e}"));
            table = p
                .as_bytes()
                .chunks_exact(16)
                .map(|c| {
                    (
                        u64::from_le_bytes(c[0..8].try_into().expect("8")),
                        i64::from_le_bytes(c[8..16].try_into().expect("8")),
                    )
                })
                .collect();
        }

        // Members with my color, sorted by (key, group rank), mapped to
        // global ranks.
        let mut members: Vec<(i64, usize)> = table
            .iter()
            .enumerate()
            .filter(|(_, &(c, _))| c == color)
            .map(|(r, &(_, k))| (k, r))
            .collect();
        members.sort_unstable();
        let group: Vec<usize> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let my_index = group
            .iter()
            .position(|&g| g == self.global_rank)
            .expect("caller is a member of its own color group");

        // Deterministic child communicator id, identical across members.
        let mut h = self.comm_id ^ 0x51_7c_c1_b7_27_22_0a_95;
        for &(c, k) in &table {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(c ^ k as u64);
        }
        h = h.wrapping_mul(0x100000001b3).wrapping_add(color);
        h = h.wrapping_mul(0x100000001b3).wrapping_add(gen);

        Comm {
            global_rank: self.global_rank,
            group: Arc::new(group),
            my_index,
            comm_id: h,
            split_count: Cell::new(0),
            async_seq: Cell::new(0),
            local: Arc::clone(&self.local),
        }
    }
}

/// Everything one cluster run produced: per-rank results (rank order),
/// per-rank counters, and — when tracing was on — the merged event stream.
pub struct ClusterRun<R> {
    /// The value each rank's closure returned, in rank order.
    pub results: Vec<R>,
    /// Final per-rank communication counters, in rank order.
    pub stats: Vec<CommStats>,
    /// Merged trace events sorted by timestamp; empty unless tracing was
    /// enabled via [`ClusterBuilder::trace`] or `DCNN_TRACE`.
    pub events: Vec<TraceEvent>,
}

/// Configures and launches a rank cluster; [`run_cluster`] is the shorthand
/// for the all-defaults case.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    n: usize,
    trace: Option<bool>,
    recv_timeout: Option<Duration>,
    transport: Option<TransportKind>,
    config: Option<RuntimeConfig>,
}

/// Build a rank's world communicator on `transport`, run `f`, flush the
/// rank's counters and trace events into `shared`'s sinks, and tear the
/// transport down. The single code path under both the threaded cluster
/// and the per-process TCP runtime.
///
/// When `f` fails the rank returns at once, with no teardown: a shutdown
/// would say BYE, which a peer's reader takes for a graceful close — a peer
/// blocked on this rank would then wait out the watchdog instead of seeing
/// the link die.
fn rank_main<R, E>(
    transport: Arc<dyn Transport>,
    shared: Arc<ClusterShared>,
    f: impl FnOnce(&Comm) -> Result<R, E>,
) -> Result<R, E> {
    let rank = transport.rank();
    let n = transport.world_size();
    let local = Arc::new(RankLocal::new(Arc::clone(&transport), shared));
    let comm = Comm {
        global_rank: rank,
        group: Arc::new((0..n).collect()),
        my_index: rank,
        comm_id: 0,
        split_count: Cell::new(0),
        async_seq: Cell::new(0),
        local: Arc::clone(&local),
    };
    let r = f(&comm)?;
    local.flush();
    drop(comm);
    transport.shutdown();
    Ok(r)
}

/// Parse the `DCNN_*` environment, panicking with the parser's readable
/// error (naming the variable and value) on a malformed entry — the
/// entry-point behavior when no explicit [`RuntimeConfig`] was supplied.
fn runtime_config_from_env() -> RuntimeConfig {
    RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}"))
}

fn new_cluster_shared(
    n: usize,
    trace_on: bool,
    recv_timeout: Duration,
    cross_process: bool,
) -> Arc<ClusterShared> {
    Arc::new(ClusterShared {
        epoch: Instant::now(),
        recv_timeout,
        trace_on,
        cross_process,
        diags: (0..n).map(|_| Mutex::new(RankDiag::default())).collect(),
        report: Mutex::new(None),
        trace_sink: Mutex::new(Vec::new()),
        stats_sink: Mutex::new(vec![CommStats::default(); n]),
    })
}

impl ClusterBuilder {
    /// A cluster of `n` ranks with default tracing (off unless `DCNN_TRACE`
    /// or `DCNN_TRACE_JSON` is set), the default receive timeout (60 s
    /// unless `DCNN_RECV_TIMEOUT_MS` is set) and the default transport
    /// (in-process threads unless `DCNN_TRANSPORT=tcp`).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one rank");
        ClusterBuilder { n, trace: None, recv_timeout: None, transport: None, config: None }
    }

    /// Use `config` instead of parsing the process environment. Explicit
    /// builder overrides ([`trace`](Self::trace),
    /// [`recv_timeout`](Self::recv_timeout),
    /// [`transport`](Self::transport)) still win over the config's fields.
    pub fn configure(mut self, config: RuntimeConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Force event tracing on or off, overriding `DCNN_TRACE`.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    /// How long a receive may block before the deadlock watchdog fires,
    /// overriding `DCNN_RECV_TIMEOUT_MS`. Tests provoke deadlocks with a
    /// short timeout here.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    /// Select the message fabric, overriding `DCNN_TRANSPORT`. With
    /// [`TransportKind::Tcp`] the ranks are still threads of this process
    /// but every message crosses a real localhost socket — framing, CRC,
    /// connection setup and all (the rendezvous address comes from
    /// `DCNN_RENDEZVOUS`, defaulting to an ephemeral localhost port).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = Some(kind);
        self
    }

    /// Spawn the rank threads, run `f` on each with its world [`Comm`], and
    /// collect results, counters and trace events. If `DCNN_TRACE_JSON`
    /// names a file, the merged event stream is also written there as JSON
    /// lines.
    ///
    /// # Panics
    /// Propagates the first rank panic with its original payload (so a
    /// watchdog deadlock report survives to the caller), after all rank
    /// threads have been joined.
    pub fn run<R, F>(self, f: F) -> ClusterRun<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        let n = self.n;
        let cfg = self.config.unwrap_or_else(runtime_config_from_env);
        let json_path = cfg.trace_json.clone();
        let trace_on = self.trace.unwrap_or_else(|| cfg.trace_or_default());
        let recv_timeout = self.recv_timeout.unwrap_or_else(|| cfg.recv_timeout_or_default());
        let kind = self.transport.unwrap_or_else(|| cfg.transport_or_default());
        let shared = new_cluster_shared(n, trace_on, recv_timeout, false);

        // Per-rank transport seeds, built up front so rank threads only
        // finish local establishment. TCP mode pre-binds the rendezvous
        // listener (DCNN_RENDEZVOUS, else an ephemeral localhost port) and
        // hands it to rank 0's thread.
        let connect_timeout = cfg.connect_timeout_or_default();
        let fault = cfg.fault;
        let mut local_seeds: Vec<Option<crate::transport::local::LocalTransport>> = Vec::new();
        let mut tcp_host: Mutex<Option<std::net::TcpListener>> = Mutex::new(None);
        let mut tcp_addr = String::new();
        match kind {
            TransportKind::Threads => {
                local_seeds = local_fabric(n).into_iter().map(Some).collect();
            }
            TransportKind::Tcp => {
                let bind =
                    cfg.rendezvous.clone().unwrap_or_else(|| "127.0.0.1:0".to_string());
                let listener = std::net::TcpListener::bind(&bind)
                    .unwrap_or_else(|e| panic!("bind rendezvous {bind}: {e}"));
                tcp_addr = listener.local_addr().expect("rendezvous addr").to_string();
                tcp_host = Mutex::new(Some(listener));
            }
        }

        let results = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let seed = match kind {
                    TransportKind::Threads => {
                        Some(local_seeds[rank].take().expect("seed unclaimed"))
                    }
                    TransportKind::Tcp => None,
                };
                let shared = Arc::clone(&shared);
                let f = &f;
                let tcp_host = &tcp_host;
                let tcp_addr = &tcp_addr;
                handles.push(scope.spawn(move || {
                    let transport: Arc<dyn Transport> = match seed {
                        Some(local) => Arc::new(local),
                        None => {
                            let t = if rank == 0 {
                                let listener = tcp_host
                                    .lock()
                                    .expect("host listener")
                                    .take()
                                    .expect("host listener unclaimed");
                                TcpTransport::host(listener, n, connect_timeout)
                            } else {
                                TcpTransport::connect(tcp_addr, rank, n, connect_timeout)
                            };
                            let t = t.unwrap_or_else(|e| {
                                panic!("rank {rank}: tcp fabric setup failed: {e}")
                            });
                            apply_link_fault(&t, rank, fault);
                            Arc::new(t)
                        }
                    };
                    let Ok(r) = rank_main(transport, shared, |c| Ok::<_, Infallible>(f(c)));
                    r
                }));
            }
            // Join everything before propagating any panic (so a deadlock
            // report from rank k isn't lost to rank 0's join).
            let joined: Vec<std::thread::Result<R>> =
                handles.into_iter().map(|h| h.join()).collect();
            let mut results = Vec::with_capacity(n);
            let mut first_panic = None;
            for j in joined {
                match j {
                    Ok(r) => results.push(r),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            results
        });

        let stats = std::mem::take(&mut *shared.stats_sink.lock().expect("stats sink"));
        let mut events = std::mem::take(&mut *shared.trace_sink.lock().expect("trace sink"));
        events.sort_by_key(|e| e.t_ns);
        if let Some(path) = &json_path {
            if let Err(e) = write_trace_json(std::path::Path::new(path), &events) {
                eprintln!("DCNN_TRACE_JSON: failed to write {path}: {e}");
            }
        }
        ClusterRun { results, stats, events }
    }
}

/// Everything one rank of a multi-process TCP run produced.
pub struct ProcessRun<R> {
    /// What the rank closure returned.
    pub result: R,
    /// This rank's final communication counters.
    pub stats: CommStats,
    /// This rank's trace events (empty unless tracing was enabled).
    pub events: Vec<TraceEvent>,
}

/// Apply the link-severing half of a [`crate::config::FaultSpec`] right
/// after the fabric comes up: `drop-link=from:to` makes rank `from` shut
/// down its socket to rank `to`, so both ends observe a bare EOF (the same
/// signature a killed process leaves). Kill faults are the trainer's job —
/// they need step counting — so they are ignored here.
fn apply_link_fault(t: &TcpTransport, rank: usize, fault: Option<crate::config::FaultSpec>) {
    if let Some(crate::config::FaultSpec::DropLink { from, to }) = fault {
        if rank == from {
            t.sever_link(to);
        }
    }
}

/// Per-process entry point for the multi-process TCP runtime: join the
/// fabric `cfg` describes, run `f` with this rank's world [`Comm`], and
/// return the result with this rank's counters and trace events. The
/// config must carry `rank`, `world` and `rendezvous` (the `DCNN_RANK` /
/// `DCNN_WORLD` / `DCNN_RENDEZVOUS` triple); everything else falls back to
/// the runtime's defaults.
///
/// Rank 0 binds and hosts the rendezvous address; every other rank dials it
/// (retrying with backoff, since sibling processes start at different
/// times). The deadlock watchdog stays armed, but its report only has
/// visibility into this process's rank. If `trace_json` (`DCNN_TRACE_JSON`)
/// is `path`, this rank's events are written to `path.rank<N>` as JSON
/// lines — one file per process, mergeable offline by sorting on `t_ns`.
/// The `dcnn-launch` binary spawns N local processes wired this way; see
/// the README's transport section.
///
/// A dead peer comes back as the `Err(CommError)` that `f` returned, after
/// `f` has printed or recorded what it needs to; callers (the `dcnn-launch`
/// child, bin entry points) report it and map it to a nonzero exit. The
/// rank skips its teardown then (see `rank_main`), so peers blocked on it
/// see its link die rather than close. Setup failures and genuine bugs
/// panic.
pub fn try_run_tcp_rank_with<R>(
    cfg: &RuntimeConfig,
    f: impl FnOnce(&Comm) -> Result<R, CommError>,
) -> Result<ProcessRun<R>, CommError> {
    let need = |field: Option<usize>, var: &str| {
        field.unwrap_or_else(|| panic!("{var} must be set for the TCP process runtime"))
    };
    let rank = need(cfg.rank, "DCNN_RANK");
    let world = need(cfg.world, "DCNN_WORLD");
    let rendezvous = cfg
        .rendezvous
        .clone()
        .unwrap_or_else(|| panic!("DCNN_RENDEZVOUS must be set for the TCP process runtime"));
    assert!(world > 0 && rank < world, "rank {rank} out of range for world {world}");

    let json_path = cfg.trace_json.clone();
    let trace_on = cfg.trace_or_default();
    let recv_timeout = cfg.recv_timeout_or_default();
    let shared = new_cluster_shared(world, trace_on, recv_timeout, true);

    let transport =
        TcpTransport::establish(rank, world, &rendezvous, cfg.connect_timeout_or_default())
        .unwrap_or_else(|e| panic!("rank {rank}: tcp fabric setup failed: {e}"));
    apply_link_fault(&transport, rank, cfg.fault);
    let result = rank_main(Arc::new(transport), Arc::clone(&shared), f)?;

    let stats =
        std::mem::take(&mut shared.stats_sink.lock().expect("stats sink")[rank]);
    let mut events = std::mem::take(&mut *shared.trace_sink.lock().expect("trace sink"));
    events.sort_by_key(|e| e.t_ns);
    if let Some(path) = &json_path {
        let per_rank = format!("{path}.rank{rank}");
        if let Err(e) = write_trace_json(std::path::Path::new(&per_rank), &events) {
            eprintln!("DCNN_TRACE_JSON: failed to write {per_rank}: {e}");
        }
    }
    Ok(ProcessRun { result, stats, events })
}

/// Spawn `n` rank threads, run `f` on each with its world [`Comm`], and
/// return the per-rank results in rank order. See [`ClusterBuilder`] for
/// tracing, counters and watchdog configuration.
///
/// # Panics
/// Propagates any rank panic with its original payload (after all threads
/// have been joined).
pub fn run_cluster<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    ClusterBuilder::new(n).run(f).results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_and_sizes() {
        let out = run_cluster(4, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f32(1, 7, &[1.0, 2.0, 3.0]);
                c.recv_f32(1, 8)
            } else {
                let v = c.recv_f32(0, 7);
                c.send_f32(0, 8, &v.iter().map(|x| x * 2.0).collect::<Vec<_>>());
                v
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn tag_matching_reorders() {
        let out = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_bytes(1, 1, vec![1]);
                c.send_bytes(1, 2, vec![2]);
                Vec::new()
            } else {
                // Receive in the opposite order of sending.
                let b2 = c.recv_bytes(0, 2);
                let b1 = c.recv_bytes(0, 1);
                vec![b1[0], b2[0]]
            }
        });
        assert_eq!(out[1], vec![1, 2]);
    }

    #[test]
    fn same_tag_preserves_fifo() {
        let out = run_cluster(2, |c| {
            if c.rank() == 0 {
                for i in 0..10u8 {
                    c.send_bytes(1, 3, vec![i]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| c.recv_bytes(0, 3)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn barrier_completes() {
        for n in [1, 2, 3, 5, 8] {
            run_cluster(n, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
            });
        }
    }

    #[test]
    fn split_by_parity() {
        let out = run_cluster(6, |c| {
            let sub = c.split((c.rank() % 2) as u64, c.rank() as i64);
            (sub.rank(), sub.size(), sub.group().to_vec())
        });
        assert_eq!(out[0], (0, 3, vec![0, 2, 4]));
        assert_eq!(out[3], (1, 3, vec![1, 3, 5]));
        assert_eq!(out[5], (2, 3, vec![1, 3, 5]));
    }

    #[test]
    fn split_key_reorders() {
        let out = run_cluster(4, |c| {
            // Reverse order via key.
            let sub = c.split(0, -(c.rank() as i64));
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn subcomm_messaging_is_isolated() {
        let out = run_cluster(4, |c| {
            let sub = c.split((c.rank() % 2) as u64, 0);
            // Exchange within the subgroup while the parent also talks.
            if sub.rank() == 0 {
                sub.send_bytes(1, 5, vec![c.rank() as u8]);
                c.barrier();
                0
            } else {
                let v = sub.recv_bytes(0, 5);
                c.barrier();
                v[0] as usize
            }
        });
        assert_eq!(out[2], 0); // rank 2 got byte from rank 0
        assert_eq!(out[3], 1); // rank 3 got byte from rank 1
    }

    #[test]
    fn nested_split() {
        let out = run_cluster(8, |c| {
            let half = c.split((c.rank() / 4) as u64, 0);
            let quarter = half.split((half.rank() / 2) as u64, 0);
            quarter.barrier();
            (half.size(), quarter.size(), quarter.group().to_vec())
        });
        assert_eq!(out[0].0, 4);
        assert_eq!(out[0].1, 2);
        assert_eq!(out[6].2, vec![6, 7]);
    }

    #[test]
    fn bytes_sent_accounting() {
        let out = run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_f32(1, 0, &[0.0; 100]);
            } else {
                let _ = c.recv_f32(0, 0);
            }
            c.bytes_sent()
        });
        assert_eq!(out[0], 400);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn per_link_counters_attribute_every_sent_byte() {
        let out = run_cluster(3, |c| {
            let before = c.stats();
            if c.rank() == 0 {
                c.send_f32(1, 0, &[0.0; 100]); // 400 bytes to rank 1
                c.send_f32(2, 0, &[0.0; 300]); // 1200 bytes to rank 2
            } else {
                let _ = c.recv_f32(0, 0);
            }
            (before, c.stats())
        });
        let (before, after) = &out[0];
        let links = after.link_bytes_delta(before);
        assert_eq!(links, vec![0, 400, 1200]);
        // Every byte in the aggregate counter is attributed to some link.
        assert_eq!(links.iter().sum::<u64>(), after.bytes_sent - before.bytes_sent);
        assert_eq!(CommStats::link_bytes_max(0, &links), 1200);
        let imb = CommStats::link_imbalance(0, &links);
        assert!((imb - 1.5).abs() < 1e-9, "1200 / mean(800) = 1.5, got {imb}");
        // Idle ranks: no peer traffic at all.
        let (b2, a2) = &out[2];
        let idle = a2.link_bytes_delta(b2);
        assert_eq!(CommStats::link_bytes_max(2, &idle), 0);
        assert_eq!(CommStats::link_imbalance(2, &idle), 0.0);
    }

    #[test]
    fn recv_any_serves_first_arrival() {
        let out = run_cluster(4, |c| {
            if c.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..3 {
                    let (src, p) = c.recv_any(9).expect("no peer dies");
                    seen.push((src, p.into_bytes()[0]));
                }
                seen.sort_unstable();
                seen
            } else {
                c.send_bytes(0, 9, vec![c.rank() as u8 * 2]);
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![(1, 2), (2, 4), (3, 6)]);
    }

    #[test]
    fn recv_any_serves_queued_messages_in_arrival_order() {
        // On threads a send has delivered before it returns, so the token
        // chain 3 -> 2 -> 1 fixes the arrival order at rank 0, and rank 1's
        // go (after its own send) means all three are queued before rank 0
        // takes any: it must pick by arrival, not by group rank.
        let go = std::sync::Barrier::new(2);
        let out = run_cluster(4, |c| match c.rank() {
            0 => {
                go.wait();
                (0..3).map(|_| c.recv_any(9).expect("no peer dies").0).collect()
            }
            r => {
                if r < 3 {
                    let _ = c.recv_bytes(r + 1, 10);
                }
                c.send_bytes(0, 9, vec![r as u8]);
                if r > 1 {
                    c.send_bytes(r - 1, 10, Vec::new());
                } else {
                    go.wait();
                }
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![3, 2, 1]);
    }

    #[test]
    fn recv_any_stashes_unrelated_tags() {
        let out = run_cluster(2, |c| {
            if c.rank() == 0 {
                // First a message with a different tag arrives; recv_any for
                // tag 5 must skip over it without losing it.
                let (src, p) = c.recv_any(5).expect("no peer dies");
                let other = c.recv_bytes(1, 6);
                (src, p.into_bytes()[0], other[0])
            } else {
                c.send_bytes(0, 6, vec![66]);
                c.send_bytes(0, 5, vec![55]);
                (0, 0, 0)
            }
        });
        assert_eq!(out[0], (1, 55, 66));
    }

    #[test]
    fn recv_any_in_subcommunicator() {
        let out = run_cluster(4, |c| {
            let sub = c.split((c.rank() % 2) as u64, c.rank() as i64);
            if sub.rank() == 0 {
                let (src, p) = sub.recv_any(3).expect("no peer dies");
                (src, p.into_bytes()[0])
            } else {
                sub.send_bytes(0, 3, vec![c.rank() as u8]);
                (99, 99)
            }
        });
        assert_eq!(out[0], (1, 2)); // rank 2 is sub-rank 1 of the even group
        assert_eq!(out[1], (1, 3));
    }

    #[test]
    #[should_panic]
    fn reserved_tag_rejected() {
        run_cluster(2, |c| {
            if c.rank() == 0 {
                c.send_bytes(1, TAG_INTERNAL + 5, vec![]);
            }
        });
    }

    #[test]
    fn stats_count_both_directions() {
        let run = ClusterBuilder::new(2).run(|c| {
            if c.rank() == 0 {
                c.send_f32(1, 0, &[0.0; 64]);
            } else {
                let _ = c.recv_f32(0, 0);
            }
        });
        assert_eq!(run.stats[0].bytes_sent, 256);
        assert_eq!(run.stats[1].bytes_recvd, 256);
        assert_eq!(run.stats[1].msgs_recvd, 1);
        assert_eq!(run.stats[0].msgs_sent, 1);
    }

    #[test]
    fn stash_high_water_mark_tracks_reordering() {
        let run = ClusterBuilder::new(2).run(|c| {
            if c.rank() == 0 {
                for t in 0..4u32 {
                    c.send_bytes(1, t, vec![t as u8]);
                }
            } else {
                // Receive in reverse tag order: all four arrivals wait in the
                // mailbox before tag 3, the last sent, can be taken.
                for t in (0..4u32).rev() {
                    let _ = c.recv_bytes(0, t);
                }
            }
        });
        assert_eq!(run.stats[1].stash_hwm, 4);
        assert_eq!(run.stats[0].stash_hwm, 0);
    }

    #[test]
    fn phase_timings_accumulate() {
        let run = ClusterBuilder::new(1).run(|c| {
            {
                let _p = c.phase("spin");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _p = c.phase("spin");
                std::thread::sleep(Duration::from_millis(2));
            }
            c.stats().phase("spin")
        });
        let in_run = run.results[0];
        assert!(in_run >= 3_000_000, "phase time too small: {in_run}ns");
        assert_eq!(run.stats[0].phase("spin"), in_run);
        let entry = run.stats[0].phase_ns.iter().find(|p| p.0 == "spin").expect("spin phase");
        assert_eq!(entry.2, 2); // entered twice
    }

    #[test]
    fn trace_records_send_recv_pairs() {
        let run = ClusterBuilder::new(2).trace(true).run(|c| {
            if c.rank() == 0 {
                c.send_bytes(1, 4, vec![1, 2, 3]);
            } else {
                let _ = c.recv_bytes(0, 4);
            }
        });
        use crate::trace::TraceEventKind as K;
        let send = run
            .events
            .iter()
            .find(|e| e.kind == K::Send)
            .expect("send event");
        assert_eq!((send.rank, send.peer, send.tag, send.bytes), (0, Some(1), 4, 3));
        let recv = run
            .events
            .iter()
            .find(|e| e.kind == K::Recv)
            .expect("recv event");
        assert_eq!((recv.rank, recv.peer, recv.tag, recv.bytes), (1, Some(0), 4, 3));
        // Sorted by time: the send happens before its delivery.
        let si = run.events.iter().position(|e| e.kind == K::Send).expect("send");
        let ri = run.events.iter().position(|e| e.kind == K::Recv).expect("recv");
        assert!(si < ri);
    }

    #[test]
    fn trace_off_records_nothing() {
        let run = ClusterBuilder::new(2).trace(false).run(|c| {
            if c.rank() == 0 {
                c.send_bytes(1, 4, vec![9]);
            } else {
                let _ = c.recv_bytes(0, 4);
            }
        });
        assert!(run.events.is_empty());
    }

    #[test]
    fn async_allreduce_matches_blocking_bitwise() {
        use crate::algorithms::{Allreduce, RecursiveDoubling};
        let seed = |r: usize| -> Vec<f32> {
            (0..97).map(|i| ((r * 97 + i) as f32).sin() * 3.0).collect()
        };
        let blocking = run_cluster(4, |c| {
            let mut buf = seed(c.rank());
            RecursiveDoubling.run(c, &mut buf);
            buf
        });
        let nonblocking = run_cluster(4, |c| {
            let op = CollectiveOp::allreduce(Arc::new(RecursiveDoubling));
            c.launch(op, seed(c.rank())).wait().expect("no peer dies")
        });
        for (b, nb) in blocking.iter().zip(&nonblocking) {
            let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            let nb_bits: Vec<u32> = nb.iter().map(|x| x.to_bits()).collect();
            assert_eq!(b_bits, nb_bits);
        }
    }

    #[test]
    fn concurrent_buckets_stay_isolated() {
        use crate::algorithms::{Allreduce, MultiColor};
        // Buckets big enough that all three launches land before the first
        // reduce can finish — the in-flight high-water mark must show
        // genuine overlap.
        let run = ClusterBuilder::new(4).run(|c| {
            let algo: Arc<dyn Allreduce + Send + Sync> = Arc::new(MultiColor::new(2));
            let pending: Vec<PendingReduce> = (0..3u64)
                .map(|b| {
                    let len = 16_384 + 512 * b as usize;
                    let buf = vec![(c.rank() as f32 + 1.0) * (b as f32 + 1.0); len];
                    c.launch(CollectiveOp::allreduce(Arc::clone(&algo)), buf)
                })
                .collect();
            pending.into_iter().map(|p| p.wait().expect("no peer dies")).collect::<Vec<_>>()
        });
        for out in &run.results {
            for (b, buf) in out.iter().enumerate() {
                let expect = (1.0 + 2.0 + 3.0 + 4.0) * (b as f32 + 1.0);
                assert_eq!(buf.len(), 16_384 + 512 * b);
                assert!(
                    buf.iter().all(|&x| x == expect),
                    "bucket {b}: got {:?}, want {expect}",
                    &buf[..4]
                );
            }
        }
        for s in &run.stats {
            assert_eq!(s.async_launched, 3);
            assert!(s.async_inflight_hwm >= 2, "no overlap: hwm {}", s.async_inflight_hwm);
            assert!(s.async_busy_ns > 0);
        }
    }

    #[test]
    fn try_complete_polls_to_completion() {
        use crate::algorithms::PipelinedRing;
        let out = run_cluster(2, |c| {
            let op = CollectiveOp::allreduce(Arc::new(PipelinedRing::default()));
            let mut p = c.launch(op, vec![c.rank() as f32 + 1.0; 8]);
            while !p.try_complete() {
                std::thread::yield_now();
            }
            p.wait().expect("no peer dies")
        });
        assert!(out.iter().all(|b| b.iter().all(|&x| x == 3.0)));
    }

    #[test]
    fn async_reduce_on_subcommunicator() {
        use crate::algorithms::RecursiveDoubling;
        let out = run_cluster(4, |c| {
            let sub = c.split((c.rank() % 2) as u64, c.rank() as i64);
            sub.launch(CollectiveOp::allreduce(Arc::new(RecursiveDoubling)), vec![c.rank() as f32; 4])
                .wait()
                .expect("no peer dies")
        });
        assert_eq!(out[0][0], 2.0); // ranks 0 + 2
        assert_eq!(out[1][0], 4.0); // ranks 1 + 3
    }

    #[test]
    fn async_overlaps_with_main_thread_traffic() {
        use crate::algorithms::RecursiveDoubling;
        // The rank keeps exchanging point-to-point messages while a bucket
        // is in flight — its blocking receives advance the parked cursor,
        // and neither may steal the other's messages.
        let out = run_cluster(2, |c| {
            let op = CollectiveOp::allreduce(Arc::new(RecursiveDoubling));
            let pending = c.launch(op, vec![c.rank() as f32 + 1.0; 4096]);
            let peer = 1 - c.rank();
            let mut acc = 0u64;
            for i in 0..50u8 {
                c.send_bytes(peer, 11, vec![i]);
                acc += u64::from(c.recv_bytes(peer, 11)[0]);
            }
            (acc, pending.wait().expect("no peer dies"))
        });
        for (acc, buf) in &out {
            assert_eq!(*acc, (0..50u64).sum::<u64>());
            assert!(buf.iter().all(|&x| x == 3.0));
        }
    }

    #[test]
    fn concurrent_launches_count_their_busy_time_once() {
        use crate::algorithms::RingReduceScatter;
        // Rank 1 launches only after rank 0 has launched both collectives,
        // so on rank 0 neither can finish before both are in flight: their
        // launch → completion windows overlap, and the busy time is their
        // union — at most the first launch → last completion window, where
        // a sum of the windows would exceed it.
        let run = ClusterBuilder::new(2).run(|c| {
            let op = || CollectiveOp::allreduce(Arc::new(RingReduceScatter));
            if c.rank() == 1 {
                c.recv_bytes(0, 12);
            }
            let a = c.launch(op(), vec![1.0; 4096]);
            let b = c.launch(op(), vec![2.0; 4096]);
            if c.rank() == 0 {
                c.send_bytes(1, 12, Vec::new());
            }
            a.wait().expect("no peer dies");
            b.wait().expect("no peer dies");
        });
        let s = &run.stats[0];
        assert_eq!((s.async_done, s.async_inflight_hwm), (2, 2));
        assert!(
            s.async_busy_ns > 0 && s.async_busy_ns <= s.async_window_ns,
            "busy {} ns vs first-launch → last-done window {} ns",
            s.async_busy_ns,
            s.async_window_ns
        );
    }

    #[test]
    fn a_dropped_launch_stops_counting_busy_time() {
        use crate::algorithms::RingReduceScatter;
        // Only rank 0 launches, so its collective can never finish; dropping
        // the handle abandons it and closes its window.
        let out = run_cluster(2, |c| {
            if c.rank() == 1 {
                return (0, 0);
            }
            drop(c.launch(CollectiveOp::allreduce(Arc::new(RingReduceScatter)), vec![1.0; 4096]));
            let before = c.stats().async_busy_ns;
            std::thread::sleep(Duration::from_millis(20));
            (before, c.stats().async_busy_ns)
        });
        assert!(out[0].0 > 0, "the launch opened no window");
        assert_eq!(out[0].0, out[0].1, "a dropped launch kept the rank busy");
    }
}



