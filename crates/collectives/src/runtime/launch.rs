//! The nonblocking half of the runtime: the typed [`CollectiveOp`] request,
//! the cursor a launch parks in the rank's table, and the [`PendingReduce`]
//! handle [`Comm::launch`] returns. Every call into the rank's runtime — a
//! launch, `try_complete`, `wait`, a blocking receive's poll slice —
//! advances the parked cursors: libNBC's progress-on-call (Hoefler,
//! Lumsdaine & Rehm, SC'07), MPI's progress rule. A child of `runtime`
//! because a launch builds the derived bucket [`Comm`] from private parts.

use std::cell::Cell;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use super::watchdog::BlockedRecv;
use super::{Comm, CommError, RankLocal};
use crate::algorithms::Allreduce;
use crate::plan::{self, Step};
use crate::primitives::ring_allgather_steps;
use crate::trace::TraceEventKind;

/// What a [`CollectiveOp`] does to its buffer.
#[derive(Clone)]
enum Kind {
    Allreduce(Arc<dyn Allreduce + Send + Sync>),
    /// The algorithm, the owner map, and this rank's
    /// [`Allreduce::scatter_plan`] under it — `(rank, steps)`, planned on
    /// first run and shared by every clone of the op.
    ReduceScatter(Arc<dyn Allreduce + Send + Sync>, Vec<usize>, Arc<OnceLock<(usize, Arc<[Step]>)>>),
    Allgather(Vec<usize>),
}

/// One collective over an `f32` buffer, described as a value: what to do
/// (allreduce, reduce-scatter or allgather, with the per-rank counts the
/// latter two cut the buffer by), which algorithm does it, and an optional
/// attribution label. The same request runs blocking on the caller's
/// buffer ([`CollectiveOp::run`]) or launched over an owned bucket
/// ([`Comm::launch`]); both run its steps through one interpreter.
#[derive(Clone)]
pub struct CollectiveOp {
    kind: Kind,
    label: Option<Arc<str>>,
}

impl CollectiveOp {
    /// Sum the buffer elementwise across all ranks with `algo`
    /// ([`Allreduce::run`]).
    pub fn allreduce(algo: Arc<dyn Allreduce + Send + Sync>) -> Self {
        CollectiveOp { kind: Kind::Allreduce(algo), label: None }
    }

    /// `algo`'s reduce-scatter ([`Allreduce::scatter_plan`]): only the
    /// chunk this rank owns per `counts` ends fully reduced — bit-identical
    /// to the same chunk after [`Allreduce::run`], the invariant the
    /// trainer's sharded strategy relies on — and the other chunks are
    /// unspecified. The op plans once, on its first run, and its
    /// clones share the plan: keep the op (one per rank) and clone it per
    /// launch to exchange the same buffer shape every step.
    pub fn reduce_scatter(algo: Arc<dyn Allreduce + Send + Sync>, counts: Vec<usize>) -> Self {
        CollectiveOp { kind: Kind::ReduceScatter(algo, counts, Arc::default()), label: None }
    }

    /// Counts-based `f32` allgather ([`Comm::allgather_f32`]).
    pub fn allgather(counts: Vec<usize>) -> Self {
        CollectiveOp { kind: Kind::Allgather(counts), label: None }
    }

    /// Attach a human-readable attribution — the gradient segment that
    /// sealed this bucket. A launched op carries it into deadlock-watchdog
    /// reports (`rank 0 [bucket 3, sealed by conv1.w]`) and
    /// [`super::CommError`]; it has no effect on the collective.
    pub fn labeled(mut self, label: Arc<str>) -> Self {
        self.label = Some(label);
        self
    }

    /// Run the collective on `comm`, blocking, in place on `buf`. A dead
    /// peer leaves `buf` partly reduced and comes back as the error.
    pub fn run(&self, comm: &Comm, buf: &mut [f32]) -> Result<(), CommError> {
        let start = Instant::now();
        let (phase, steps) = self.plan(comm, buf.len());
        {
            let _phase = comm.phase(phase);
            plan::execute(comm, &steps, buf)?;
        }
        self.account(&comm.local, buf.len(), start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// The [`super::CommStats::phase_ns`] label the op's time goes to, and
    /// this rank's steps over a `len`-element buffer on `comm`.
    fn plan(&self, comm: &Comm, len: usize) -> (&'static str, Arc<[Step]>) {
        if let Kind::ReduceScatter(_, counts, _) | Kind::Allgather(counts) = &self.kind {
            assert_eq!(counts.len(), comm.size(), "a reduce-scatter or allgather needs one count per rank");
            assert_eq!(counts.iter().sum::<usize>(), len, "its counts must cover the buffer");
        }
        match &self.kind {
            Kind::Allreduce(algo) => (algo.name(), algo.plan(comm.size(), comm.rank(), len).into()),
            Kind::ReduceScatter(algo, counts, planned) => {
                let (rank, steps) = planned.get_or_init(|| {
                    // Its own phase, so `CommStats` shows how often and for
                    // how long a rank planned.
                    let _phase = comm.phase("scatter-plan");
                    (comm.rank(), algo.scatter_plan(comm.rank(), counts).into())
                });
                assert_eq!(*rank, comm.rank(), "a reduce-scatter op is planned for one rank");
                (algo.name(), Arc::clone(steps))
            }
            Kind::Allgather(counts) => ("allgather", ring_allgather_steps(comm.rank(), counts).into()),
        }
    }

    /// Add one completed run over `len` elements that took `ns` to the
    /// rank's reduce-scatter or allgather counters: the one seam every
    /// sharded exchange passes, whatever the algorithm.
    fn account(&self, local: &RankLocal, len: usize, ns: u64) {
        let (bytes, wait) = match self.kind {
            Kind::Allreduce(_) => return,
            Kind::ReduceScatter(..) => (&local.scatter_bytes, &local.scatter_wait_ns),
            Kind::Allgather(_) => (&local.gather_bytes, &local.gather_wait_ns),
        };
        bytes.fetch_add((len * 4) as u64, Relaxed);
        wait.fetch_add(ns, Relaxed);
    }
}

/// A launched bucket, as its errors and the watchdog's reports name it.
#[derive(Debug, Clone)]
pub(super) struct BucketId {
    /// Launch sequence number on the parent communicator.
    pub(super) seq: u64,
    /// The gradient segment that sealed it ([`CollectiveOp::labeled`]).
    pub(super) label: Option<Arc<str>>,
    /// The algorithm's name: the [`super::CommStats::phase_ns`] label its
    /// launch → completion time goes to, and the phase its errors name.
    pub(super) phase: &'static str,
}

/// A launched collective: the op's steps, how far this rank is through
/// them, the bucket they run over, and who it is — parked in the rank's
/// table between calls into the runtime.
pub(super) struct Cursor {
    op: CollectiveOp,
    /// The derived bucket communicator its messages travel on.
    comm: Comm,
    id: BucketId,
    steps: Arc<[Step]>,
    /// Index of the next step to run.
    at: usize,
    bucket: Vec<f32>,
    /// Nanoseconds since cluster start at launch.
    launch_ns: u64,
    /// Set once: every step done, or the dead peer that stopped it.
    done: Option<Result<(), CommError>>,
}

impl Cursor {
    /// Run the steps as far as the queued messages allow — or, with
    /// `block`, to the end — and finish once none is left or a peer is
    /// dead; true if the cursor moved.
    fn advance(&mut self, block: bool) -> bool {
        let before = self.at;
        let Cursor { comm, id, steps, at, bucket, .. } = self;
        let of = steps.len();
        let res = plan::advance(comm, steps, at, bucket, |at, from, tag| {
            let src = [comm.group[from]];
            Ok(comm.recv_from_sources(&src, false, tag, Some((id, at, of)), block)?.map(|m| m.1))
        });
        match res {
            Ok(false) => self.at != before,
            res => {
                self.finish(res.map(drop));
                true
            }
        }
    }

    /// Record the launch → completion span under the op's phase and the
    /// async counters, and keep `res` for [`PendingReduce::wait`].
    fn finish(&mut self, res: Result<(), CommError>) {
        let local = &self.comm.local;
        let done_ns = local.shared.now_ns();
        let ns = done_ns.saturating_sub(self.launch_ns);
        let bytes = self.bucket.len() * 4;
        local.add_phase(self.id.phase, ns);
        if res.is_ok() {
            self.op.account(local, self.bucket.len(), ns);
        }
        local.async_busy.lock().expect("busy clock").close(done_ns);
        local.trace(TraceEventKind::AsyncDone, self.comm.comm_id, self.id.seq as u32, None, bytes);
        local.async_done.fetch_add(1, Relaxed);
        let byte_ns = (bytes as u64).saturating_mul(ns);
        let _ = local.async_byte_ns.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_add(byte_ns)));
        local.async_first_launch_ns.fetch_min(self.launch_ns, Relaxed);
        local.async_last_done_ns.fetch_max(done_ns, Relaxed);
        self.done = Some(res);
    }
}

impl Drop for Cursor {
    /// An abandoned collective stops being pending when its handle goes.
    /// A clock poisoned by a panic elsewhere is left as it is: a drop
    /// during that unwind must not panic again.
    fn drop(&mut self) {
        let local = &self.comm.local;
        if self.done.is_none() {
            if let Ok(mut clock) = local.async_busy.lock() {
                clock.close(local.shared.now_ns());
            }
        }
    }
}

/// How many launched collectives are unfinished, since when at least one
/// has been, and the nanoseconds of the earlier such stretches: the union
/// of their launch → completion windows, which
/// [`super::CommStats::async_busy_ns`] reports.
#[derive(Default)]
pub(super) struct BusyClock {
    open: u64,
    since_ns: u64,
    closed_ns: u64,
}

impl BusyClock {
    fn open(&mut self, now_ns: u64) {
        if self.open == 0 {
            self.since_ns = now_ns;
        }
        self.open += 1;
    }

    fn close(&mut self, now_ns: u64) {
        self.open -= 1;
        if self.open == 0 {
            self.closed_ns += now_ns.saturating_sub(self.since_ns);
        }
    }

    /// The busy nanoseconds up to `now_ns`, an open stretch included.
    pub(super) fn read(&self, now_ns: u64) -> u64 {
        let open_ns = if self.open > 0 { now_ns.saturating_sub(self.since_ns) } else { 0 };
        self.closed_ns + open_ns
    }
}

/// The rank's parked cursors, in launch order. It holds them weakly: the
/// [`PendingReduce`] owns its cursor, so dropping the handle abandons the
/// collective where it stands.
pub(super) type Table = Mutex<Vec<Weak<Mutex<Cursor>>>>;

impl RankLocal {
    /// Advance every parked cursor as far as the mailbox allows, and return
    /// the mailbox's event count from before the last pass, which moved
    /// none: a waiter that still reads that count has nothing to advance.
    /// A cursor takes a message under the mailbox lock and sums or copies
    /// it outside; its sends run here, on the calling thread.
    pub(super) fn progress(&self) -> u64 {
        let mut table = self.parked.lock().expect("cursor table");
        loop {
            let seen = self.transport.mailbox().lock().events();
            let mut moved = false;
            table.retain(|c| {
                let Some(c) = c.upgrade() else { return false };
                let mut c = c.lock().expect("cursor");
                moved |= c.advance(false);
                c.done.is_none()
            });
            if !moved {
                return seen;
            }
        }
    }

    /// The watchdog's descriptors of the parked cursors: the receive each
    /// is parked at.
    pub(super) fn parked_blocked(&self) -> Vec<BlockedRecv> {
        let table = self.parked.lock().expect("cursor table");
        let parked = table.iter().filter_map(Weak::upgrade);
        parked
            .filter_map(|c| {
                let c = c.lock().expect("cursor");
                let (Step::RecvReduce { from, tag, .. } | Step::RecvCopy { from, tag, .. }) =
                    c.steps.get(c.at)?
                else {
                    return None;
                };
                let (comm_id, tag, since_ns) = (c.comm.comm_id, *tag, c.launch_ns);
                let cursor = Some((c.id.clone(), c.at, c.steps.len()));
                Some(BlockedRecv { sources: vec![c.comm.group[*from]], any_source: false, comm_id, tag, since_ns, cursor })
            })
            .collect()
    }
}

/// Handle to one in-flight nonblocking collective, returned by
/// [`Comm::launch`]; it owns the collective's cursor, so dropping it
/// abandons the collective. Resolve it with [`wait`](PendingReduce::wait)
/// (blocking) or poll it with [`try_complete`](PendingReduce::try_complete).
pub struct PendingReduce {
    cursor: Arc<Mutex<Cursor>>,
}

impl PendingReduce {
    /// Advance the rank's parked cursors, and return true once this
    /// collective has finished — reduced, or failed on a dead peer; never
    /// blocks. After `true`, [`wait`](PendingReduce::wait) returns
    /// immediately.
    pub fn try_complete(&mut self) -> bool {
        let local = Arc::clone(&self.cursor.lock().expect("cursor").comm.local);
        local.progress();
        self.cursor.lock().expect("cursor").done.is_some()
    }

    /// Drive the cursor to the end with blocking receives, as
    /// [`plan::execute`] does (they advance the other parked cursors while
    /// they wait), and return the reduced buffer (every rank's elementwise
    /// sum), or the [`CommError`] its collective hit — attributed with this
    /// bucket's number and label. The time is accounted to
    /// [`super::CommStats::bucket_wait_ns`].
    pub fn wait(self) -> Result<Vec<f32>, CommError> {
        let start = Instant::now();
        let mut guard = self.cursor.lock().expect("cursor");
        let cursor = &mut *guard;
        let local = Arc::clone(&cursor.comm.local);
        if cursor.done.is_none() {
            // This call drives it now; a progress pass must not.
            let mine = Arc::as_ptr(&self.cursor);
            local.parked.lock().expect("cursor table").retain(|c| c.as_ptr() != mine);
            cursor.advance(true);
        }
        local.bucket_wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        let res = cursor.done.clone().expect("a driven cursor is done");
        res.map(|()| std::mem::take(&mut cursor.bucket))
    }
}

impl Comm {
    /// Launch `op` over `bucket` nonblocking: run its leading sends, park
    /// its cursor at the first receive whose message is not queued (after
    /// advancing the other parked cursors), and return its handle. On
    /// [`PendingReduce::wait`] the buffer is exactly what the blocking
    /// [`CollectiveOp::run`] would have left in it.
    ///
    /// Collective: every rank of this communicator must launch the same
    /// sequence of ops (same kinds and algorithms, same bucket lengths, same
    /// order). Each launch runs on its own derived bucket communicator — a
    /// fresh tag space keyed by the launch sequence number — so several
    /// in-flight buckets can never cross-match, on either transport.
    pub fn launch(&self, op: CollectiveOp, bucket: Vec<f32>) -> PendingReduce {
        let seq = self.async_seq.get();
        self.async_seq.set(seq + 1);
        // Deterministic bucket communicator id, identical across members;
        // same FNV-style mixing as `split` but over the launch sequence.
        let mut h = self.comm_id ^ 0xA5B3_55E1_D00D_FEED;
        h = h.wrapping_mul(0x100000001b3).wrapping_add(seq);
        h = h.wrapping_mul(0x100000001b3).wrapping_add(0x9E37);
        let comm = Comm {
            global_rank: self.global_rank,
            group: Arc::clone(&self.group),
            my_index: self.my_index,
            comm_id: h,
            split_count: Cell::new(0),
            async_seq: Cell::new(0),
            local: Arc::clone(&self.local),
        };
        let local = &self.local;
        local.async_launched.fetch_add(1, Relaxed);
        local.trace(TraceEventKind::AsyncLaunch, h, seq as u32, None, bucket.len() * 4);
        let launch_ns = local.shared.now_ns();
        let (phase, steps) = op.plan(&comm, bucket.len());
        let id = BucketId { seq, label: op.label.clone(), phase };
        // Closed by the cursor's `finish`, or by its drop if it never ends.
        local.async_busy.lock().expect("busy clock").open(launch_ns);
        let cursor = Cursor { op, comm, id, steps, at: 0, bucket, launch_ns, done: None };
        let cursor = Arc::new(Mutex::new(cursor));
        let mut table = local.parked.lock().expect("cursor table");
        table.push(Arc::downgrade(&cursor));
        // The table holds every launch not yet seen to complete.
        local.async_inflight_hwm.fetch_max(table.len() as u64, Relaxed);
        drop(table);
        local.progress();
        PendingReduce { cursor }
    }
}
