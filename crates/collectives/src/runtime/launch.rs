//! The nonblocking half of the runtime: the typed [`CollectiveOp`] request,
//! the rank's comm worker pool that runs it off the main thread, and the
//! [`PendingReduce`] handle [`Comm::launch`] returns. A child of `runtime`
//! because a launch builds the derived bucket [`Comm`] from the parent's
//! private parts.

use std::cell::Cell;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use super::{BucketSpan, Comm, ConsumerId, RankLocal};
use crate::algorithms::Allreduce;
use crate::plan::{self, Step};
use crate::trace::TraceEventKind;

/// What a [`CollectiveOp`] does to its buffer.
#[derive(Clone)]
enum Kind {
    Allreduce(Arc<dyn Allreduce + Send + Sync>),
    /// The algorithm, the owner map, and this rank's
    /// [`Allreduce::scatter_plan`] under it — `(rank, steps)`, planned on
    /// first run and shared by every clone of the op.
    ReduceScatter(Arc<dyn Allreduce + Send + Sync>, Vec<usize>, Arc<OnceLock<(usize, Vec<Step>)>>),
    Allgather(Vec<usize>),
}

/// One collective over an `f32` buffer, described as a value: what to do
/// (allreduce, reduce-scatter or allgather, with the per-rank counts the
/// latter two cut the buffer by), which algorithm does it, and an optional
/// attribution label. The same request runs on the caller's thread
/// ([`CollectiveOp::run`]) or on the rank's comm worker ([`Comm::launch`]).
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

    /// `algo`'s reduce-scatter ([`Allreduce::reduce_scatter`]): only the
    /// chunk this rank owns per `counts` ends fully reduced; the other
    /// chunks are unspecified. The op plans once, on its first run, and its
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
    /// reports (`rank 0 [bucket 3, sealed by conv1.w]`), [`super::CommError`]
    /// and the bucket's [`BucketSpan`]; it has no effect on the collective.
    pub fn labeled(mut self, label: Arc<str>) -> Self {
        self.label = Some(label);
        self
    }

    /// Run the collective on `comm`, blocking, in place on `buf`.
    pub fn run(&self, comm: &Comm, buf: &mut [f32]) {
        match &self.kind {
            Kind::Allreduce(algo) => algo.run(comm, buf),
            Kind::ReduceScatter(algo, counts, planned) => {
                assert_eq!(counts.len(), comm.size(), "reduce_scatter needs one count per rank");
                assert_eq!(counts.iter().sum::<usize>(), buf.len(), "reduce_scatter counts must cover the buffer");
                let start = Instant::now();
                let (rank, steps) = planned.get_or_init(|| {
                    // Its own phase, so `CommStats` shows how often and for
                    // how long a rank planned.
                    let _phase = comm.phase("scatter-plan");
                    (comm.rank(), algo.scatter_plan(comm.rank(), counts))
                });
                assert_eq!(*rank, comm.rank(), "a reduce-scatter op is planned for one rank");
                {
                    let _phase = comm.phase(algo.name());
                    plan::execute(comm, steps, buf);
                }
                // The one seam every sharded exchange passes, whatever the
                // algorithm.
                comm.local.scatter_bytes.fetch_add((buf.len() * 4) as u64, Relaxed);
                comm.local.scatter_wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
            }
            Kind::Allgather(counts) => comm.allgather_f32(buf, counts),
        }
    }
}

/// Work item for the comm worker pool: one bucket's blocking collective.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct WorkerState {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

/// A rank's comm worker pool: runs the blocking collective behind each
/// async bucket reduce off the rank's main thread. Threads spawn lazily on
/// the first launch (purely blocking runs pay nothing) and are joined — with
/// any panic payload re-raised, so a watchdog deadlock report survives to
/// the rank thread — when the rank's closure returns.
pub(super) struct CommWorker {
    rank: usize,
    /// Pool size (from [`RuntimeConfig::comm_workers_or_default`], i.e.
    /// `DCNN_COMM_WORKERS`; default 2, minimum 1).
    threads: usize,
    state: Mutex<WorkerState>,
}

impl CommWorker {
    pub(super) fn new(rank: usize, threads: usize) -> Self {
        CommWorker {
            rank,
            threads: threads.max(1),
            state: Mutex::new(WorkerState { tx: None, handles: Vec::new() }),
        }
    }

    fn submit(&self, job: Job) {
        let mut state = self.state.lock().expect("comm worker state");
        if state.tx.is_none() {
            assert!(
                state.handles.is_empty(),
                "rank {}: async launch after comm worker shutdown",
                self.rank
            );
            let (tx, rx) = channel::<Job>();
            let rx = Arc::new(Mutex::new(rx));
            for i in 0..self.threads {
                let rx = Arc::clone(&rx);
                let handle = std::thread::Builder::new()
                    .name(format!("dcnn-comm-{}-{i}", self.rank))
                    .spawn(move || loop {
                        // The queue lock is held only for the dequeue; it is
                        // released before the job runs, so a panicking job
                        // cannot poison it.
                        let job = rx.lock().expect("job queue").recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => return,
                        }
                    })
                    .expect("spawn comm worker thread");
                state.handles.push(handle);
            }
            state.tx = Some(tx);
        }
        if state.tx.as_ref().expect("job sender").send(job).is_err() {
            drop(state);
            // Every worker died before taking the job: join them and
            // re-raise the panic that killed them.
            self.shutdown_and_propagate();
            panic!("rank {}: comm workers exited before accepting the job", self.rank);
        }
    }

    /// Close the job queue, join every worker thread, and re-raise the
    /// first worker panic (if any) on the calling thread. Idempotent.
    pub(super) fn shutdown_and_propagate(&self) {
        let handles = {
            let mut state = self.state.lock().expect("comm worker state");
            state.tx = None;
            std::mem::take(&mut state.handles)
        };
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Handle to one in-flight nonblocking collective, returned by
/// [`Comm::launch`]. Resolve it with [`wait`](PendingReduce::wait) (blocking) or poll it with
/// [`try_complete`](PendingReduce::try_complete).
pub struct PendingReduce {
    rx: Receiver<Vec<f32>>,
    done: Option<Vec<f32>>,
    seq: u64,
    local: Arc<RankLocal>,
    worker: Arc<CommWorker>,
}

impl PendingReduce {
    /// True once the reduced buffer is ready; never blocks. After `true`,
    /// [`wait`](PendingReduce::wait) returns immediately.
    pub fn try_complete(&mut self) -> bool {
        if self.done.is_some() {
            return true;
        }
        match self.rx.try_recv() {
            Ok(buf) => {
                self.done = Some(buf);
                true
            }
            Err(TryRecvError::Empty) => false,
            Err(TryRecvError::Disconnected) => self.worker_died(),
        }
    }

    /// Block until the reduction finishes and return the reduced buffer
    /// (every rank's elementwise sum). Blocked time is accounted to
    /// [`CommStats::bucket_wait_ns`].
    pub fn wait(mut self) -> Vec<f32> {
        if let Some(buf) = self.done.take() {
            return buf;
        }
        let start = Instant::now();
        let res = self.rx.recv();
        self.local.bucket_wait_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        match res {
            Ok(buf) => buf,
            Err(_) => self.worker_died(),
        }
    }

    /// The worker dropped the result channel without sending: it panicked
    /// (e.g. the deadlock watchdog fired inside the bucket's collective).
    /// Join the pool and re-raise its payload so the report reaches the
    /// rank thread.
    fn worker_died(&self) -> ! {
        self.worker.shutdown_and_propagate();
        panic!("bucket {}: comm worker exited without delivering a result", self.seq)
    }
}

impl Comm {
    /// Launch `op` over `bucket` nonblocking on this rank's comm worker,
    /// returning a handle to the in-flight collective. On
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
        let sub = Comm {
            global_rank: self.global_rank,
            group: Arc::clone(&self.group),
            my_index: self.my_index,
            comm_id: h,
            split_count: Cell::new(0),
            async_seq: Cell::new(0),
            local: Arc::clone(&self.local),
            worker: Arc::clone(&self.worker),
            consumer: ConsumerId::Bucket(seq),
            label: op.label.clone(),
        };
        let local = Arc::clone(&self.local);
        local.async_launched.fetch_add(1, Relaxed);
        let inflight = local.async_inflight.fetch_add(1, Relaxed) + 1;
        local.async_inflight_hwm.fetch_max(inflight, Relaxed);
        local.trace(TraceEventKind::AsyncLaunch, h, seq as u32, None, bucket.len() * 4);
        let launch_ns = local.shared.now_ns();
        let (done_tx, done_rx) = channel();
        let job_local = Arc::clone(&local);
        self.worker.submit(Box::new(move || {
            let mut bucket = bucket;
            let start = Instant::now();
            op.run(&sub, &mut bucket);
            job_local.async_comm_ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
            job_local.async_inflight.fetch_sub(1, Relaxed);
            job_local.trace(TraceEventKind::AsyncDone, sub.comm_id, seq as u32, None, bucket.len() * 4);
            job_local.bucket_spans.lock().expect("bucket spans").push(BucketSpan {
                seq,
                bytes: (bucket.len() * 4) as u64,
                launch_ns,
                done_ns: job_local.shared.now_ns(),
                label: op.label.as_deref().unwrap_or("").to_string(),
            });
            let _ = done_tx.send(bucket);
        }));
        PendingReduce {
            rx: done_rx,
            done: None,
            seq,
            local,
            worker: Arc::clone(&self.worker),
        }
    }
}
