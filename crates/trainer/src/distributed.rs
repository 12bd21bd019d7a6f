//! Algorithm 1, executed for real on the threaded runtime.
//!
//! One rank per learner; each learner drives `m` model replicas through a
//! [`DptExecutor`], samples its batch shard from a [`Dimd`] partition,
//! averages gradients across the cluster with the configured allreduce, and
//! steps SGD under the paper's warmup + step-decay schedule. Weights start
//! identical everywhere (same factory seed) and stay identical because every
//! rank applies the same averaged gradient — asserted in tests.

use std::time::Duration;

use dcnn_collectives::primitives::allgather_bytes;
use dcnn_collectives::reduce;
use dcnn_collectives::runtime::{Comm, CommError, CommStats};
use dcnn_collectives::{
    run_cluster, AlgoPolicy, AllreduceAlgo, FaultSpec, OverlapMode, RuntimeConfig,
};
use dcnn_dimd::shuffle::MPI_COUNT_LIMIT;
use dcnn_dimd::{open_source, Dimd, Hello, SynthImageNet, ValSet};
use dcnn_dpt::{DptExecutor, DptStrategy};
use dcnn_tensor::layers::{collect_params, params_into, release_momentum, resident_bytes, Module};
use dcnn_tensor::loss::SoftmaxCrossEntropy;
use dcnn_tensor::optim::{LrSchedule, Sgd, SgdConfig};
use serde::Serialize;

use crate::checkpoint::{Checkpoint, ShardCheckpoint, ShardMeta};
use crate::grad_sync::GradSync;
use crate::shard::ShardMap;

/// Training-run configuration.
#[derive(Clone)]
pub struct TrainConfig {
    /// Learners (nodes).
    pub nodes: usize,
    /// GPUs per learner (m).
    pub gpus_per_node: usize,
    /// Batch per GPU (k).
    pub batch_per_gpu: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Inter-node allreduce policy: pin one algorithm
    /// ([`AlgoPolicy::Fixed`]) or let a measurement-driven tuner pick per
    /// bucket size ([`AlgoPolicy::Auto`]). Set it from `DCNN_ALGO` via
    /// [`TrainConfig::apply_runtime`].
    pub algo: AlgoPolicy,
    /// Data-parallel-table scheduling strategy.
    pub strategy: DptStrategy,
    /// Learning-rate schedule (defaults to the paper's).
    pub lr: LrSchedule,
    /// Network input crop size.
    pub crop: usize,
    /// DIMD codec quality.
    pub quality: u8,
    /// Base seed (model init + per-rank sampling streams).
    pub seed: u64,
    /// Run an in-memory shuffle every this many epochs (0 = never).
    pub shuffle_every_epochs: usize,
    /// Evaluate top-1 validation accuracy after each epoch.
    pub validate: bool,
    /// Quantize gradients to fp16 before the allreduce (extension: halves
    /// the exchanged payload at a bounded precision cost).
    pub fp16_grads: bool,
    /// Donkey prefetch queue depth (0 = decode batches inline).
    pub prefetch_depth: usize,
    /// Parallel decode threads per rank for the prefetch pipeline and the
    /// data-plane client (`DCNN_DATA_DECODE_WORKERS`; delivery order is
    /// identical for any count).
    pub decode_workers: usize,
    /// Comma-separated blob-server addresses (`DCNN_DATA_SERVICE`). When
    /// set, this rank streams its mini-batches from the data-plane service
    /// instead of loading a [`Dimd`] partition in-process; the servers own
    /// the partitions and run the cross-node epoch shuffle.
    pub data_service: Option<String>,
    /// How long the dial to a `data_service` server keeps retrying before
    /// the rank reports it dead (`DCNN_CONNECT_TIMEOUT_MS`, the bound the
    /// rank fabric's own bootstrap uses).
    pub connect_timeout: Duration,
    /// Algorithm 2 segmentation cap (bytes) for the cross-node epoch
    /// shuffle. Defaults to MPI's 32-bit count limit; tests lower it to
    /// force multi-round exchanges.
    pub shuffle_segment_bytes: usize,
    /// Gradient-accumulation micro-steps: each iteration averages this many
    /// sequential micro-batches before the allreduce, multiplying the
    /// effective batch without more device memory (extension).
    pub accum_steps: usize,
    /// Target bucket size in bytes for the overlap-aware gradient exchange:
    /// parameter segments are packed into buckets of roughly this size in
    /// reverse layer order and each bucket's allreduce is launched
    /// nonblocking as it fills. `0` = one fused blocking allreduce (the
    /// classic Algorithm 1 behavior). Set it from `DCNN_BUCKET_BYTES` via
    /// [`TrainConfig::apply_runtime`].
    pub bucket_bytes: usize,
    /// When bucketing is on, how bucket reduces interleave with backprop:
    /// [`OverlapMode::Hooked`] launches each bucket from the backward hook
    /// the moment its gradients are final; [`OverlapMode::Drain`] launches
    /// all buckets after backward completes (the pre-hook behavior). Both
    /// are bitwise identical to the fused blocking exchange at two ranks.
    pub overlap: OverlapMode,
    /// Shard the optimizer state across ranks (`DCNN_SHARD_OPTIM`): each
    /// gradient exchange becomes a reduce-scatter over the canonical
    /// [`ShardMap`], each rank steps only its owned parameter range with a
    /// shard-sized velocity buffer (full-replica momentum tensors are
    /// released), and an allgather rebroadcasts the stepped parameters
    /// before the next forward. The loss trajectory stays **bitwise
    /// identical** to the replicated strategy; only where the optimizer
    /// state lives changes (~`1/nodes` of the replicated footprint).
    pub shard_optim: bool,
    /// Injected fault for failure-path testing (`DCNN_FAULT` via
    /// [`TrainConfig::apply_runtime`]). Arming any fault also turns on
    /// per-step stderr heartbeats (`dcnn-fault: rank R step S …`), which the
    /// kill-one-rank tests use to SIGKILL a rank deterministically
    /// mid-epoch. `None` (the default) costs nothing.
    pub fault: Option<FaultSpec>,
    /// Directory to flush an abort checkpoint + partial epoch row into when
    /// a peer dies mid-epoch (`DCNN_CHECKPOINT_DIR`). `None` = stderr report
    /// only.
    pub checkpoint_dir: Option<String>,
    /// SGD hyper-parameters.
    pub sgd: SgdConfig,
}

impl TrainConfig {
    /// A paper-shaped config with the LR schedule derived from (k, n).
    /// Purely programmatic — nothing is read from the environment; layer
    /// `DCNN_*` overrides on top with [`TrainConfig::apply_runtime`].
    pub fn paper(nodes: usize, gpus_per_node: usize, batch_per_gpu: usize, epochs: usize) -> Self {
        TrainConfig {
            nodes,
            gpus_per_node,
            batch_per_gpu,
            epochs,
            algo: AlgoPolicy::Fixed(AllreduceAlgo::MultiColor(4)),
            strategy: DptStrategy::Optimized,
            lr: LrSchedule::paper(batch_per_gpu, nodes * gpus_per_node),
            crop: 32,
            quality: 70,
            seed: 42,
            shuffle_every_epochs: 1,
            validate: true,
            fp16_grads: false,
            prefetch_depth: 0,
            decode_workers: 1,
            data_service: None,
            connect_timeout: RuntimeConfig::default().connect_timeout_or_default(),
            shuffle_segment_bytes: MPI_COUNT_LIMIT,
            accum_steps: 1,
            bucket_bytes: 0,
            overlap: OverlapMode::Hooked,
            shard_optim: false,
            fault: None,
            checkpoint_dir: None,
            sgd: SgdConfig::default(),
        }
    }

    /// Overlay the training-related fields of a parsed [`RuntimeConfig`]
    /// (only the variables that were actually set): `DCNN_ALGO`,
    /// `DCNN_BUCKET_BYTES`, `DCNN_OVERLAP_MODE`, `DCNN_SHARD_OPTIM`,
    /// `DCNN_FAULT`, `DCNN_CHECKPOINT_DIR`, `DCNN_DATA_PREFETCH_DEPTH`,
    /// `DCNN_DATA_DECODE_WORKERS`, `DCNN_DATA_SERVICE` and
    /// `DCNN_CONNECT_TIMEOUT_MS`.
    pub fn apply_runtime(&mut self, rt: &RuntimeConfig) {
        if let Some(p) = &rt.algo {
            self.algo = p.clone();
        }
        if let Some(b) = rt.bucket_bytes {
            self.bucket_bytes = b;
        }
        if let Some(s) = rt.shard_optim {
            self.shard_optim = s;
        }
        if let Some(d) = rt.data_prefetch_depth {
            self.prefetch_depth = d;
        }
        if let Some(w) = rt.data_decode_workers {
            self.decode_workers = w.max(1);
        }
        if let Some(s) = &rt.data_service {
            self.data_service = Some(s.clone());
        }
        if let Some(t) = rt.connect_timeout {
            self.connect_timeout = t;
        }
        if let Some(m) = rt.overlap_mode {
            self.overlap = m;
        }
        if let Some(f) = rt.fault {
            self.fault = Some(f);
        }
        if let Some(d) = &rt.checkpoint_dir {
            self.checkpoint_dir = Some(d.clone());
        }
    }

    /// [`TrainConfig::paper`] with `rt`'s overrides already applied.
    pub fn from_runtime(
        nodes: usize,
        gpus_per_node: usize,
        batch_per_gpu: usize,
        epochs: usize,
        rt: &RuntimeConfig,
    ) -> Self {
        let mut cfg = Self::paper(nodes, gpus_per_node, batch_per_gpu, epochs);
        cfg.apply_runtime(rt);
        cfg
    }
}

/// Per-epoch training statistics (identical on every rank).
#[derive(Debug, Clone, Serialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Training top-1 accuracy over the epoch.
    pub train_acc: f64,
    /// Validation top-1 accuracy (0 when validation is disabled).
    pub val_acc: f64,
    /// Learning rate used during the epoch (at its start).
    pub lr: f32,
    /// Bytes rank 0 sent during the epoch (gradients, shuffle, control).
    pub comm_bytes: u64,
    /// Messages rank 0 sent during the epoch.
    pub comm_msgs: u64,
    /// Seconds rank 0's receives spent blocked during the epoch.
    pub comm_wait_secs: f64,
    /// Seconds rank 0 spent inside the allreduce during the epoch.
    pub allreduce_secs: f64,
    /// Most messages delivered to rank 0 but not yet received, at once —
    /// every early arrival counts, in order or not (whole run up to this
    /// epoch; a growing value means receives chronically lag sends).
    pub stash_hwm: u64,
    /// Seconds rank 0 spent blocked draining bucket handles this epoch
    /// (zero in fused blocking mode).
    pub bucket_wait_secs: f64,
    /// Fraction of this epoch's asynchronous reduction time hidden behind
    /// other work: `1 - bucket_wait/async_comm`, clamped to `[0, 1]`, maxed
    /// over all ranks (the leading rank is the one that gets to overlap —
    /// its laggard peer drains instantly); zero when no nonblocking reduces
    /// ran.
    pub overlap_frac: f64,
    /// High-water mark of concurrently in-flight bucket reduces, maxed over
    /// all ranks (whole run up to this epoch; ≥ 2 proves genuine overlap —
    /// a rank whose peer runs ahead can drain each bucket instantly, so the
    /// overlap shows on the leading rank, not a fixed one).
    pub async_inflight_hwm: u64,
    /// Bucket size target (bytes) the exchange used during this epoch
    /// (adaptive sizing re-plans it *between* epochs; 0 = fused blocking).
    pub bucket_bytes: u64,
    /// Nonblocking bucket reduces this rank launched during the epoch
    /// (0 in fused blocking mode).
    pub buckets_launched: u64,
    /// Bytes of parameter state (values + gradients) actually resident on
    /// this rank at epoch end, measured from live buffer lengths across all
    /// local replicas.
    pub resident_param_bytes: u64,
    /// Bytes of optimizer state resident on this rank at epoch end: the
    /// replicas' momentum tensors plus the shard-local velocity buffer.
    /// Under `shard_optim` this shrinks to ~`1/nodes` of one replica's
    /// parameter bytes — the strategy's memory win, measured rather than
    /// computed.
    pub resident_opt_bytes: u64,
    /// Bytes on the busiest single outgoing link (per-peer counter) during
    /// the epoch, maxed over all ranks — the root-adjacent hotspot the
    /// multi-color trees exist to spread.
    pub link_bytes_max: u64,
    /// Busiest-link / mean-link ratio of per-peer bytes sent during the
    /// epoch (1.0 = perfectly balanced, ~world-1 = one hot link), maxed
    /// over all ranks; 0 when the epoch sent nothing.
    pub link_imbalance: f64,
    /// The allreduce decision in effect when the epoch ended: the fixed
    /// algorithm's name, `probe` while an auto tuner is still rotating
    /// candidates, or the tuner's frozen per-size decision table
    /// (`<=BYTES:algo` entries joined by `;` — comma-free so the metrics
    /// CSV stays parseable). Identical on every rank (the table is
    /// cluster-agreed before it is ever used).
    pub algo_choices: String,
}

/// Cluster-wide maximum of a per-rank `u64` (for high-water-mark stats).
fn allreduce_max_u64(comm: &Comm, v: u64) -> u64 {
    allgather_bytes(comm, v.to_le_bytes().to_vec())
        .iter()
        .map(|b| u64::from_le_bytes(b[0..8].try_into().expect("8")))
        .max()
        .unwrap_or(v)
}

/// Cluster-wide maximum of a per-rank `f64` (every rank gets the same
/// value, so derived decisions stay identical everywhere).
fn allreduce_max_f64(comm: &Comm, v: f64) -> f64 {
    allgather_bytes(comm, v.to_le_bytes().to_vec())
        .iter()
        .map(|b| f64::from_le_bytes(b[0..8].try_into().expect("8")))
        .fold(v, f64::max)
}

/// Average a per-rank scalar triple `(loss_sum, correct, count)` cluster-wide.
fn allreduce_stats(comm: &Comm, loss: f64, correct: u64, count: u64) -> (f64, u64, u64) {
    let mut buf = Vec::with_capacity(24);
    buf.extend_from_slice(&loss.to_le_bytes());
    buf.extend_from_slice(&correct.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    let all = allgather_bytes(comm, buf);
    let mut l = 0.0;
    let mut c = 0u64;
    let mut n = 0u64;
    for b in all {
        l += f64::from_le_bytes(b[0..8].try_into().expect("8"));
        c += u64::from_le_bytes(b[8..16].try_into().expect("8"));
        n += u64::from_le_bytes(b[16..24].try_into().expect("8"));
    }
    (l, c, n)
}

fn validate(comm: &Comm, exec: &mut DptExecutor, vs: &ValSet, crop: usize) -> f64 {
    let crit = SoftmaxCrossEntropy;
    let n = comm.size();
    let me = comm.rank();
    let mut correct = 0u64;
    let mut count = 0u64;
    let my_indices: Vec<usize> = (0..vs.len()).filter(|i| i % n == me).collect();
    for chunk in my_indices.chunks(16) {
        let (x, labels) = vs.batch(chunk, crop);
        let logits = exec.eval_logits(&x);
        let out = crit.forward(&logits, &labels);
        correct += out.correct as u64;
        count += chunk.len() as u64;
    }
    let (_, c, n_total) = allreduce_stats(comm, 0.0, correct, count);
    if n_total == 0 {
        0.0
    } else {
        c as f64 / n_total as f64
    }
}

/// Run distributed training; returns the per-epoch statistics (identical on
/// all ranks; rank 0's copy is returned).
pub fn train_distributed(
    cfg: &TrainConfig,
    ds: &SynthImageNet,
    factory: impl Fn() -> Box<dyn Module> + Sync,
) -> Vec<EpochStats> {
    assert!(cfg.nodes >= 1 && cfg.gpus_per_node >= 1 && cfg.batch_per_gpu >= 1);
    let mut out = run_cluster(cfg.nodes, |comm| train_on_comm(comm, cfg, ds, &factory));
    out.swap_remove(0)
}

/// Run this rank's share of Algorithm 1 on an existing communicator — the
/// entry point for multi-process runs, where [`crate::train_distributed`]'s
/// own cluster spawning doesn't apply (each OS process joins the fabric via
/// `dcnn_collectives::run_tcp_rank` and brings its own `Comm`). `cfg.nodes`
/// must equal `comm.size()`; every rank must pass identical `cfg`, `ds` and
/// `factory` seeds, exactly as the threaded path arranges implicitly.
pub fn train_on_comm(
    comm: &Comm,
    cfg: &TrainConfig,
    ds: &SynthImageNet,
    factory: &(impl Fn() -> Box<dyn Module> + Sync),
) -> Vec<EpochStats> {
    assert_eq!(
        cfg.nodes,
        comm.size(),
        "cfg.nodes must match the communicator's size"
    );
    run_rank(comm, cfg, ds, factory)
}

fn run_rank(
    comm: &Comm,
    cfg: &TrainConfig,
    ds: &SynthImageNet,
    factory: &(impl Fn() -> Box<dyn Module> + Sync),
) -> Vec<EpochStats> {
    let me = comm.rank();
    let n = comm.size();
    let batch_node = cfg.batch_per_gpu * cfg.gpus_per_node;
    let global_batch = batch_node * n;
    let iterations = (ds.train_len() / global_batch).max(1);
    let sgd = Sgd::new(cfg.sgd.clone());

    // Service mode skips the in-process partition entirely: the blob
    // servers own the DIMD partitions and this rank only streams batches.
    let mut dimd = cfg.data_service.is_none().then(|| {
        Dimd::load_partition(ds, me, n, cfg.quality, cfg.seed ^ (me as u64) << 20)
    });
    // The validation blob (paper §4.1's second DIMD file) lives whole on
    // every learner; evaluation decodes from it, like training does.
    let val = cfg.validate.then(|| ValSet::load(ds, cfg.quality));
    let mut exec = DptExecutor::new(cfg.gpus_per_node, factory);
    let param_total: usize = exec.segments().iter().map(|s| s.len).sum();
    let mut gsync =
        GradSync::with_policy(cfg.algo.clone(), exec.segments(), cfg.bucket_bytes, cfg.fp16_grads);
    // Sharded strategy: every gradient exchange becomes a reduce-scatter
    // over the canonical owner map, this rank keeps its momentum in one
    // shard-sized velocity buffer, and the replicas' full momentum tensors
    // are released — that release is the memory saving the strategy exists
    // for, and `resident_opt_bytes` measures it.
    let shards = cfg.shard_optim.then(|| ShardMap::new(param_total, n));
    let mut velocity: Vec<f32> = Vec::new();
    if let Some(sm) = &shards {
        gsync = gsync.with_shards(sm.clone());
        velocity = vec![0.0f32; sm.owned(me).len()];
        exec.visit_replicas(|m| {
            release_momentum(m);
        });
    }
    // Hooked overlap needs the parallel DPT path to stream segments during
    // backprop and a bucket plan to stream them into; otherwise the drain
    // schedule (launch-after-backward) applies.
    let hooked = cfg.overlap == OverlapMode::Hooked
        && gsync.is_bucketed()
        && cfg.strategy == DptStrategy::Optimized;
    // One accumulation buffer for the whole run: sized from the segment
    // map, reused every iteration instead of reallocating per micro-batch.
    let mut grad = vec![0.0f32; param_total];
    let mut stats = Vec::with_capacity(cfg.epochs);
    let mut progress = PartialEpoch::default();

    // The epoch loop runs under `catch_unwind` so a peer-death panic (a
    // `CommError` unwound out of whichever blocked collective observed the
    // dead link) can be intercepted: flush what this rank still knows — a
    // partial EpochStats row and, with `DCNN_CHECKPOINT_DIR` set, an abort
    // checkpoint — then let the unwind continue to the process boundary.
    // Any other panic passes through untouched.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        train_epochs(TrainState {
            comm,
            cfg,
            iterations,
            batch_node,
            hooked,
            sgd: &sgd,
            dimd: &mut dimd,
            val: &val,
            exec: &mut exec,
            gsync: &mut gsync,
            grad: &mut grad,
            shards: &shards,
            velocity: &mut velocity,
            stats: &mut stats,
            progress: &mut progress,
        })
    }));
    match run {
        Ok(()) => stats,
        Err(payload) => {
            if let Some(e) = payload.downcast_ref::<CommError>() {
                flush_abort_state(comm, cfg, &mut exec, &gsync, &shards, &velocity, &progress, e);
            }
            std::panic::resume_unwind(payload)
        }
    }
}

/// Mid-epoch progress, owned outside the epoch loop so the peer-death
/// abort path can still reach it after the loop unwinds: enough to emit a
/// partial [`EpochStats`] row for the epoch that never completed.
#[derive(Default)]
struct PartialEpoch {
    epoch: usize,
    iters: usize,
    loss_sum: f64,
    correct: u64,
    seen: u64,
    buckets_launched: u64,
    start: CommStats,
}

impl PartialEpoch {
    fn begin(&mut self, epoch: usize, start: CommStats) {
        *self = PartialEpoch { epoch, start, ..PartialEpoch::default() };
    }
}

/// Borrowed training state for the epoch loop, bundled so the unwind
/// boundary in `run_rank` can reclaim the pieces after a failure.
struct TrainState<'a> {
    comm: &'a Comm,
    cfg: &'a TrainConfig,
    iterations: usize,
    batch_node: usize,
    hooked: bool,
    sgd: &'a Sgd,
    dimd: &'a mut Option<Dimd>,
    val: &'a Option<ValSet>,
    exec: &'a mut DptExecutor,
    gsync: &'a mut GradSync,
    grad: &'a mut [f32],
    shards: &'a Option<ShardMap>,
    velocity: &'a mut Vec<f32>,
    stats: &'a mut Vec<EpochStats>,
    progress: &'a mut PartialEpoch,
}

fn train_epochs(st: TrainState<'_>) {
    let TrainState {
        comm,
        cfg,
        iterations,
        batch_node,
        hooked,
        sgd,
        dimd,
        val,
        exec,
        gsync,
        grad,
        shards,
        velocity,
        stats,
        progress,
    } = st;
    let me = comm.rank();
    let n = comm.size();
    let shard_counts = shards.as_ref().map(|sm| sm.counts());
    // Fault-injection arming (`DCNN_FAULT`): `kill_at` is the optimizer
    // step after which THIS rank aborts (the kernel closes its sockets, so
    // peers observe the same bare EOF a SIGKILL leaves); any armed fault
    // also emits per-step heartbeats so external tests can kill a rank at a
    // deterministic point mid-epoch.
    let kill_at = match cfg.fault {
        Some(FaultSpec::KillAfterStep { step, rank }) if rank == me => Some(step),
        _ => None,
    };
    let heartbeat = cfg.fault.is_some();
    let mut global_step = 0usize;

    // One batch source for the whole run, behind the data-plane seam: the
    // in-process partition (optionally fronted by the donkey prefetch
    // pipeline) or a remote blob server when `DCNN_DATA_SERVICE` is set.
    // Both deliver byte-identical batches for identical seeds.
    let hello = Hello {
        rank: me,
        world: n,
        batch: batch_node,
        requests_per_epoch: iterations * cfg.accum_steps.max(1),
        epochs: cfg.epochs,
        shuffle_every: cfg.shuffle_every_epochs,
        segment_bytes: cfg.shuffle_segment_bytes as u64,
    };
    let mut source = open_source(
        comm,
        cfg.data_service.as_deref(),
        || dimd.take().expect("partition present"),
        hello,
        cfg.crop,
        cfg.prefetch_depth,
        cfg.decode_workers,
        cfg.connect_timeout,
    )
    .unwrap_or_else(|e| {
        // Surface an unreachable server through the same structured
        // channel a mid-run death uses.
        let servers = cfg.data_service.as_ref().map_or(1, |s| s.split(',').count());
        std::panic::panic_any(CommError::PeerDead {
            rank: me,
            peer: me % servers,
            cause: format!("data service connect: {e}"),
            phase: Some("data-plane".into()),
            bucket: None,
            label: None,
        })
    });

    for epoch in 0..cfg.epochs {
        progress.begin(epoch, comm.stats());
        source.begin_epoch(epoch);
        for it in 0..iterations {
            let frac_epoch = epoch as f32 + it as f32 / iterations as f32;
            let lr = cfg.lr.lr_at(frac_epoch);
            // Gradient accumulation: average `accum_steps` micro-batches
            // before the exchange in the pre-sized buffer, range by range as
            // each micro-batch reports them: the first copies, the rest add,
            // the last scales by 1/accum and, hooked, hands the range to the
            // bucket scheduler — a bucket's allreduce launches the instant
            // its last range lands.
            let accum = cfg.accum_steps.max(1);
            let inv_accum = 1.0 / accum as f32;
            let mut step_loss = 0.0;
            let mut step_correct = 0u64;
            // One exchange per step, whatever the schedule: the hooked path
            // feeds it from the backward pass, drain and fused report
            // nothing and let `finish` do all of it.
            let mut stream = gsync.begin(comm);
            for micro in 0..accum {
                let (x, labels) = source.next_batch();
                let last = micro + 1 == accum;
                let mut take = |off: usize, vals: &[f32]| {
                    let seg = &mut grad[off..off + vals.len()];
                    if micro == 0 {
                        seg.copy_from_slice(vals);
                    } else {
                        reduce::sum_into(seg, vals);
                    }
                    if last && accum > 1 {
                        reduce::scale(seg, inv_accum);
                    }
                    if last && hooked {
                        stream.segment_ready(&grad[..], off, vals.len());
                    }
                };
                let (l, c) = match cfg.strategy {
                    DptStrategy::Optimized => exec.step_streamed(&x, &labels, &mut take),
                    DptStrategy::Baseline => {
                        let out = exec.step(&x, &labels, DptStrategy::Baseline);
                        take(0, &out.grad);
                        (out.loss, out.correct)
                    }
                };
                step_loss += l / accum as f64;
                step_correct += c as u64;
            }
            // Inter-node average: sum node-averages; the optimizer divides
            // by N as it reads them.
            progress.buckets_launched += stream.finish(&mut grad[..]) as u64;
            let inv_n = 1.0 / n as f32;
            match shards {
                // Replicated: every replica applies the full averaged
                // gradient with full momentum, staying in sync implicitly.
                None => exec.visit_replicas(|m| sgd.step_flat(m, lr, &grad[..], inv_n)),
                // Sharded: the reduce-scatter above fully reduced only this
                // rank's owned range, so step exactly that range (replica 0
                // stands in for the shard — the others resync from the
                // allgather), then rebroadcast the stepped parameters.
                // Per-element arithmetic is identical to the replicated
                // step, so the gathered weights match it bitwise. The
                // gradient is dead once stepped and the next step rewrites
                // all of it, so its buffer carries the allgather: this rank
                // fills its owned range from replica 0, the allgather the
                // rest.
                Some(sm) => {
                    let owned = sm.owned(me);
                    let r0 = exec.replica(0);
                    sgd.step_range_flat(r0, lr, owned.clone(), velocity, &grad[..], inv_n);
                    params_into(r0, owned.clone(), &mut grad[owned]);
                    comm.allgather_f32(grad, shard_counts.as_ref().expect("counts"));
                    exec.set_params_all(grad);
                }
            }
            progress.loss_sum += step_loss;
            progress.correct += step_correct;
            progress.seen += (batch_node * accum) as u64;
            progress.iters += 1;
            if heartbeat {
                eprintln!("dcnn-fault: rank {me} step {global_step} (epoch {epoch} it {it})");
            }
            if kill_at == Some(global_step) {
                eprintln!("dcnn-fault: rank {me}: kill-after-step={global_step}: aborting now");
                std::process::abort();
            }
            global_step += 1;
        }
        let (l, c, cnt) =
            allreduce_stats(comm, progress.loss_sum, progress.correct, progress.seen);
        let val_acc = match val {
            Some(vs) => validate(comm, exec, vs, cfg.crop),
            None => 0.0,
        };
        let spans = comm.take_bucket_spans();
        let mut row =
            epoch_row(cfg, progress, &comm.stats(), gsync, me, measure_residency(exec, velocity));
        row.train_loss = l / (n * iterations) as f64;
        row.train_acc = c as f64 / cnt as f64;
        row.val_acc = val_acc;
        // Tuner epoch boundary: fold the epoch's bucket spans into the
        // measured table, and — on the epoch that closes the probe window —
        // run the cluster agreement round that freezes the decision table.
        // Every rank reaches this point on the same epoch with the same
        // tuner state, so the embedded collective is matched.
        row.algo_choices = gsync.tune_epoch_end(comm, &spans);
        // Cluster maxima: the leading rank is the one that gets to overlap
        // and the busiest link can sit on any rank.
        row.overlap_frac = allreduce_max_f64(comm, row.overlap_frac);
        row.async_inflight_hwm = allreduce_max_u64(comm, row.async_inflight_hwm);
        row.link_bytes_max = allreduce_max_u64(comm, row.link_bytes_max);
        row.link_imbalance = allreduce_max_f64(comm, row.link_imbalance);
        stats.push(row);
        let shuffle_due =
            cfg.shuffle_every_epochs > 0 && (epoch + 1) % cfg.shuffle_every_epochs == 0;
        source.end_epoch(epoch, shuffle_due);
    }
    *dimd = source.finish();
}

/// The [`EpochStats`] row for `progress`'s epoch as this rank alone sees
/// it: every field from local counters (`now` against the epoch's opening
/// snapshot), no communication. The abort path emits it as is; the epoch
/// end then overwrites the fields the cluster agrees on.
fn epoch_row(
    cfg: &TrainConfig,
    progress: &PartialEpoch,
    now: &CommStats,
    gsync: &GradSync,
    me: usize,
    (resident_param_bytes, resident_opt_bytes): (u64, u64),
) -> EpochStats {
    let start = &progress.start;
    let secs = |to: u64, from: u64| to.saturating_sub(from) as f64 / 1e9;
    let async_ns = now.async_comm_ns.saturating_sub(start.async_comm_ns);
    let wait_ns = now.bucket_wait_ns.saturating_sub(start.bucket_wait_ns);
    let links = now.link_bytes_delta(start);
    EpochStats {
        epoch: progress.epoch,
        train_loss: if progress.iters == 0 {
            0.0
        } else {
            progress.loss_sum / progress.iters as f64
        },
        train_acc: if progress.seen == 0 {
            0.0
        } else {
            progress.correct as f64 / progress.seen as f64
        },
        val_acc: 0.0,
        lr: cfg.lr.lr_at(progress.epoch as f32),
        comm_bytes: now.bytes_sent.saturating_sub(start.bytes_sent),
        comm_msgs: now.msgs_sent.saturating_sub(start.msgs_sent),
        comm_wait_secs: secs(now.recv_wait_ns, start.recv_wait_ns),
        allreduce_secs: secs(gsync.allreduce_phase_ns(now), gsync.allreduce_phase_ns(start)),
        stash_hwm: now.stash_hwm,
        bucket_wait_secs: wait_ns as f64 / 1e9,
        overlap_frac: if async_ns == 0 {
            0.0
        } else {
            (1.0 - wait_ns as f64 / async_ns as f64).clamp(0.0, 1.0)
        },
        async_inflight_hwm: now.async_inflight_hwm,
        bucket_bytes: gsync.bucket_bytes() as u64,
        buckets_launched: progress.buckets_launched,
        resident_param_bytes,
        resident_opt_bytes,
        link_bytes_max: CommStats::link_bytes_max(me, &links),
        link_imbalance: CommStats::link_imbalance(me, &links),
        algo_choices: gsync.choices_string(),
    }
}

/// Live parameter + optimizer bytes on this rank, summed over every local
/// replica's tensors plus the shard-local velocity buffer.
fn measure_residency(exec: &mut DptExecutor, velocity: &[f32]) -> (u64, u64) {
    let (mut res_param, mut res_opt) = (0usize, 0usize);
    exec.visit_replicas(|m| {
        let (p, o) = resident_bytes(m);
        res_param += p;
        res_opt += o;
    });
    res_opt += std::mem::size_of_val(velocity);
    (res_param as u64, res_opt as u64)
}

/// A peer died mid-epoch: preserve what this rank can before the unwind
/// continues — a partial [`EpochStats`] row (stderr, plus a JSON file next
/// to the checkpoint) telling the operator where training stood, and an
/// abort checkpoint making the completed steps resumable. Deliberately
/// avoids every collective call: peers are dead or dying, so only local
/// counters go into the row ([`epoch_row`]).
///
/// Under the sharded strategy the abort checkpoint is this rank's
/// [`ShardCheckpoint`] (`DCKS`) — full momentum no longer exists anywhere —
/// and the surviving ranks' shards merge back into a full `DCKP` state via
/// [`Checkpoint::merge`], or restore directly into another sharded run.
#[allow(clippy::too_many_arguments)]
fn flush_abort_state(
    comm: &Comm,
    cfg: &TrainConfig,
    exec: &mut DptExecutor,
    gsync: &GradSync,
    shards: &Option<ShardMap>,
    velocity: &[f32],
    progress: &PartialEpoch,
    err: &CommError,
) {
    let me = comm.rank();
    let row = epoch_row(cfg, progress, &comm.stats(), gsync, me, measure_residency(exec, velocity));
    eprintln!(
        "dcnn: rank {me}: aborting training after {} iteration(s) of epoch {}: {err}",
        progress.iters, progress.epoch
    );
    let json = serde_json::to_string(&row).unwrap_or_default();
    eprintln!("dcnn: rank {me}: partial epoch row: {json}");
    if let Some(dir) = &cfg.checkpoint_dir {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("dcnn: rank {me}: cannot create checkpoint dir {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("abort-rank{me}.ckpt"));
        let written = match shards {
            None => Checkpoint::capture(exec.replica(0), progress.epoch as u32).write_to(&path),
            Some(sm) => {
                let owned = sm.owned(me);
                let params = collect_params(exec.replica(0));
                ShardCheckpoint {
                    epoch: progress.epoch as u32,
                    meta: ShardMeta {
                        rank: me as u32,
                        world: sm.world() as u32,
                        offset: owned.start as u64,
                        total: sm.total() as u64,
                    },
                    params: params[owned].to_vec(),
                    momentum: velocity.to_vec(),
                }
                .write_to(&path)
            }
        };
        match written {
            Ok(()) => eprintln!(
                "dcnn: rank {me}: abort checkpoint written to {}",
                path.display()
            ),
            Err(e) => eprintln!("dcnn: rank {me}: abort checkpoint write failed: {e}"),
        }
        let _ = std::fs::write(dir.join(format!("abort-rank{me}.partial.json")), json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_dimd::SynthConfig;
    use dcnn_models::resnet::ResNetConfig;

    fn tiny_factory() -> Box<dyn Module> {
        ResNetConfig {
            blocks: vec![1],
            base_width: 6,
            bottleneck: false,
            classes: 4,
            input: [3, 16, 16],
            imagenet_stem: false,
        }
        .build(77)
    }

    fn tiny_ds() -> SynthImageNet {
        let mut cfg = SynthConfig::tiny(4);
        cfg.train_per_class = 24;
        cfg.val_per_class = 8;
        cfg.base_hw = 16;
        cfg.noise = 10.0;
        SynthImageNet::new(cfg)
    }

    fn tiny_cfg(nodes: usize, epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::paper(nodes, 2, 4, epochs);
        cfg.crop = 16;
        cfg.lr = LrSchedule {
            init_lr: 0.05,
            base_lr: 0.05,
            warmup_epochs: 1.0,
            step_epochs: 100.0,
            decay: 0.1,
        };
        cfg
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = tiny_ds();
        let stats = train_distributed(&tiny_cfg(2, 5), &ds, tiny_factory);
        assert_eq!(stats.len(), 5);
        let first = stats.first().expect("stats").train_loss;
        let last = stats.last().expect("stats").train_loss;
        assert!(
            last < first * 0.9,
            "loss should fall: {first:.3} → {last:.3}"
        );
    }

    #[test]
    fn accuracy_beats_chance_quickly() {
        let ds = tiny_ds();
        let stats = train_distributed(&tiny_cfg(2, 6), &ds, tiny_factory);
        let best = stats.iter().map(|s| s.val_acc).fold(0.0, f64::max);
        assert!(best > 0.40, "best val acc {best:.2} vs 0.25 chance");
    }

    #[test]
    fn epoch_stats_carry_comm_counters() {
        let ds = tiny_ds();
        let stats = train_distributed(&tiny_cfg(2, 2), &ds, tiny_factory);
        for s in &stats {
            assert!(s.comm_bytes > 0, "epoch {}: no bytes counted", s.epoch);
            assert!(s.comm_msgs > 0, "epoch {}: no messages counted", s.epoch);
            assert!(
                s.allreduce_secs > 0.0,
                "epoch {}: allreduce phase not timed",
                s.epoch
            );
            assert!(s.comm_wait_secs >= 0.0);
        }
    }

    #[test]
    fn node_counts_converge_similarly() {
        // Figures 13–16's key property: optimizations and node count change
        // wall-clock, not the loss trajectory (same global batch here).
        let ds = tiny_ds();
        let mut c1 = tiny_cfg(1, 6);
        c1.batch_per_gpu = 8; // global batch 16
        let mut c2 = tiny_cfg(2, 6);
        c2.batch_per_gpu = 4; // global batch 16
        let s1 = train_distributed(&c1, &ds, tiny_factory);
        let s2 = train_distributed(&c2, &ds, tiny_factory);
        let l1 = s1.last().expect("stats").train_loss;
        let l2 = s2.last().expect("stats").train_loss;
        // The runs draw different sample orders (per-rank RNG streams), so
        // the losses match only up to sampling noise — and a relative band
        // degenerates as both approach zero. Assert the real property: both
        // node counts converge, to within an absolute noise band.
        assert!(l1 < 0.5, "1-node failed to converge: loss {l1:.3}");
        assert!(l2 < 0.5, "2-node failed to converge: loss {l2:.3}");
        assert!(
            (l1 - l2).abs() < 0.3,
            "1-node {l1:.3} vs 2-node {l2:.3} should be similar"
        );
    }

    #[test]
    fn dpt_strategies_train_identically() {
        let ds = tiny_ds();
        let mut cb = tiny_cfg(2, 2);
        cb.strategy = DptStrategy::Baseline;
        cb.validate = false;
        let mut co = tiny_cfg(2, 2);
        co.strategy = DptStrategy::Optimized;
        co.validate = false;
        let sb = train_distributed(&cb, &ds, tiny_factory);
        let so = train_distributed(&co, &ds, tiny_factory);
        for (a, b) in sb.iter().zip(&so) {
            assert!(
                (a.train_loss - b.train_loss).abs() < 1e-6,
                "epoch {}: {} vs {}",
                a.epoch,
                a.train_loss,
                b.train_loss
            );
        }
    }

    #[test]
    fn gradient_accumulation_converges_like_bigger_batches() {
        // accum=2 with batch 2/GPU sees the same images/iteration as batch
        // 4/GPU (sampling order differs, so trajectories aren't identical,
        // but both must train).
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(2, 3);
        cfg.batch_per_gpu = 2;
        cfg.accum_steps = 2;
        cfg.validate = false;
        let stats = train_distributed(&cfg, &ds, tiny_factory);
        let first = stats.first().expect("stats").train_loss;
        let last = stats.last().expect("stats").train_loss;
        assert!(last < first, "accumulated loss {first:.3} → {last:.3}");
        // Images seen per epoch accounts for the accumulation.
        assert!(stats.iter().all(|s| s.train_loss.is_finite()));
    }

    #[test]
    fn prefetching_gives_identical_training() {
        // The donkey pipeline must not change the math: same seeds, same
        // trajectory, with and without it.
        let ds = tiny_ds();
        let mut plain = tiny_cfg(2, 2);
        plain.validate = false;
        let mut pre = tiny_cfg(2, 2);
        pre.validate = false;
        pre.prefetch_depth = 3;
        let a = train_distributed(&plain, &ds, tiny_factory);
        let b = train_distributed(&pre, &ds, tiny_factory);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.train_loss, y.train_loss, "prefetch changed training");
        }
    }

    #[test]
    fn fp16_gradients_still_converge() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(2, 4);
        cfg.fp16_grads = true;
        let stats = train_distributed(&cfg, &ds, tiny_factory);
        let first = stats.first().expect("stats").train_loss;
        let last = stats.last().expect("stats").train_loss;
        assert!(last < first, "fp16 loss {first:.3} → {last:.3}");
        // And stays close to the fp32 trajectory.
        let mut cfg32 = tiny_cfg(2, 4);
        cfg32.fp16_grads = false;
        let stats32 = train_distributed(&cfg32, &ds, tiny_factory);
        let last32 = stats32.last().expect("stats").train_loss;
        assert!(
            (last - last32).abs() < 0.25 * last32.max(last),
            "fp16 {last:.3} vs fp32 {last32:.3}"
        );
    }

    #[test]
    fn bucketed_training_is_bitwise_identical_to_blocking() {
        // Two ranks: every per-element sum is a single f32 addition, which
        // commutes — so any bucketing (and the async engine under it) must
        // reproduce the fused blocking run exactly, not approximately.
        let ds = tiny_ds();
        let mut blocking = tiny_cfg(2, 2);
        blocking.bucket_bytes = 0;
        blocking.validate = false;
        let mut bucketed = blocking.clone();
        bucketed.bucket_bytes = 1024; // many small buckets per iteration
        let sb = train_distributed(&blocking, &ds, tiny_factory);
        let so = train_distributed(&bucketed, &ds, tiny_factory);
        for (a, b) in sb.iter().zip(&so) {
            assert_eq!(
                a.train_loss.to_bits(),
                b.train_loss.to_bits(),
                "epoch {}: blocking {} vs bucketed {}",
                a.epoch,
                a.train_loss,
                b.train_loss
            );
            assert_eq!(a.train_acc.to_bits(), b.train_acc.to_bits());
        }
        // The blocking run never launches async reduces.
        assert_eq!(sb.last().expect("stats").async_inflight_hwm, 0);
        let last = so.last().expect("stats");
        assert!(last.bucket_wait_secs >= 0.0);
        assert!((0.0..=1.0).contains(&last.overlap_frac));
    }

    #[test]
    fn bucketed_training_overlaps_buckets_in_flight() {
        // A wider model gives buckets whose reduces take far longer than
        // the next bucket's launch, so the in-flight high-water mark must
        // observe ≥ 2 concurrent reduces (the overlap the engine exists
        // for). Tiny buckets could drain between launches; ~8 KB ones
        // cannot.
        let wide_factory = || -> Box<dyn Module> {
            ResNetConfig {
                blocks: vec![1],
                base_width: 24,
                bottleneck: false,
                classes: 4,
                input: [3, 16, 16],
                imagenet_stem: false,
            }
            .build(78)
        };
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(2, 1);
        cfg.bucket_bytes = 8 * 1024;
        cfg.validate = false;
        cfg.shuffle_every_epochs = 0;
        let stats = train_distributed(&cfg, &ds, wide_factory);
        let last = stats.last().expect("stats");
        assert!(
            last.async_inflight_hwm >= 2,
            "expected ≥2 buckets in flight, saw {}",
            last.async_inflight_hwm
        );
    }

    #[test]
    fn bucket_spans_are_drained_every_epoch() {
        // The epoch end takes the epoch's spans out of the communicator, so
        // a long bucketed run holds (and `Comm::stats` copies) one epoch's
        // worth at most — not every span since cluster start.
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(2, 3);
        cfg.bucket_bytes = 1024;
        cfg.validate = false;
        let run = dcnn_collectives::ClusterBuilder::new(2)
            .run(|comm| train_on_comm(comm, &cfg, &ds, &tiny_factory));
        for (epochs, stats) in run.results.iter().zip(&run.stats) {
            assert_eq!(stats.async_launched, 3 * epochs[0].buckets_launched);
            assert!(stats.bucket_spans.len() as u64 <= epochs[0].buckets_launched);
        }
    }

    #[test]
    fn drain_mode_training_is_bitwise_identical_to_blocking() {
        // The pre-hook schedule (launch all buckets after backward) must
        // keep working and keep matching the fused run exactly.
        let ds = tiny_ds();
        let mut blocking = tiny_cfg(2, 2);
        blocking.bucket_bytes = 0;
        blocking.validate = false;
        let mut drained = blocking.clone();
        drained.bucket_bytes = 1024;
        drained.overlap = OverlapMode::Drain;
        let sb = train_distributed(&blocking, &ds, tiny_factory);
        let sd = train_distributed(&drained, &ds, tiny_factory);
        for (a, b) in sb.iter().zip(&sd) {
            assert_eq!(
                a.train_loss.to_bits(),
                b.train_loss.to_bits(),
                "epoch {}: blocking {} vs drain {}",
                a.epoch,
                a.train_loss,
                b.train_loss
            );
        }
        assert!(sd.iter().all(|s| s.buckets_launched > 0));
    }

    #[test]
    fn hooked_overlap_matches_blocking_bitwise_for_every_algorithm() {
        // Single-bucket granularity (target larger than the model): the
        // hooked scheduler launches exactly one bucket per iteration, from
        // the backward hook, for each of the six allreduce algorithms — and
        // at two ranks every one must reproduce the fused blocking bits.
        let ds = tiny_ds();
        for algo in AllreduceAlgo::all() {
            let mut blocking = tiny_cfg(2, 1);
            blocking.algo = algo.into();
            blocking.validate = false;
            blocking.shuffle_every_epochs = 0;
            let mut hooked = blocking.clone();
            hooked.bucket_bytes = 64 * 1024 * 1024;
            hooked.overlap = OverlapMode::Hooked;
            let sb = train_distributed(&blocking, &ds, tiny_factory);
            let sh = train_distributed(&hooked, &ds, tiny_factory);
            for (a, b) in sb.iter().zip(&sh) {
                assert_eq!(
                    a.train_loss.to_bits(),
                    b.train_loss.to_bits(),
                    "{:?} epoch {}: blocking {} vs hooked {}",
                    hooked.algo,
                    a.epoch,
                    a.train_loss,
                    b.train_loss
                );
            }
        }
    }

    #[test]
    fn unreachable_data_service_is_peer_dead_at_the_connect_timeout() {
        // Bind, note the port, drop: nothing listens there now.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("reserve a port")
            .to_string();
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(1, 1);
        cfg.validate = false;
        cfg.data_service = Some(addr.clone());
        cfg.connect_timeout = Duration::from_millis(200);
        let start = std::time::Instant::now();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_distributed(&cfg, &ds, tiny_factory)
        }))
        .expect_err("nothing listens there");
        let elapsed = start.elapsed();
        let err = payload.downcast::<CommError>().expect("a structured CommError");
        let CommError::PeerDead { cause, phase, .. } = *err;
        assert!(cause.contains(&addr), "{cause}");
        assert_eq!(phase.as_deref(), Some("data-plane"));
        assert!(elapsed < Duration::from_secs(2), "gave up after {elapsed:?}");
    }

    #[test]
    fn bucketed_fp16_matches_fused_fp16_bitwise() {
        // Quantization is elementwise, so it commutes with bucketing too.
        let ds = tiny_ds();
        let mut fused = tiny_cfg(2, 2);
        fused.fp16_grads = true;
        fused.validate = false;
        let mut bucketed = fused.clone();
        bucketed.bucket_bytes = 2048;
        let sf = train_distributed(&fused, &ds, tiny_factory);
        let sb = train_distributed(&bucketed, &ds, tiny_factory);
        for (a, b) in sf.iter().zip(&sb) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        }
    }

    #[test]
    fn bucketed_training_works_with_accumulation() {
        // Buckets and micro-batch accumulation compose: the buffer-reuse
        // path feeds the same averaged gradient into the bucketed exchange.
        let ds = tiny_ds();
        let mut blocking = tiny_cfg(2, 2);
        blocking.accum_steps = 2;
        blocking.batch_per_gpu = 2;
        blocking.validate = false;
        let mut bucketed = blocking.clone();
        bucketed.bucket_bytes = 1024;
        let sb = train_distributed(&blocking, &ds, tiny_factory);
        let so = train_distributed(&bucketed, &ds, tiny_factory);
        for (a, b) in sb.iter().zip(&so) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        }
    }

    /// Assert two runs took bitwise-identical trajectories (loss, accuracy
    /// and validation accuracy per epoch).
    fn assert_bitwise_trajectory(a: &[EpochStats], b: &[EpochStats], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: epoch counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.train_loss.to_bits(),
                y.train_loss.to_bits(),
                "{what} epoch {}: {} vs {}",
                x.epoch,
                x.train_loss,
                y.train_loss
            );
            assert_eq!(x.train_acc.to_bits(), y.train_acc.to_bits(), "{what} epoch {}", x.epoch);
            assert_eq!(x.val_acc.to_bits(), y.val_acc.to_bits(), "{what} epoch {}", x.epoch);
        }
    }

    #[test]
    fn sharded_training_is_bitwise_identical_every_algorithm() {
        // The strategy seam's core promise: flipping `shard_optim` never
        // changes the loss trajectory, for any of the six allreduce
        // algorithms (their reduce-scatter seam defaults to the full
        // allreduce, so the sharded math is literally the replicated math).
        let ds = tiny_ds();
        for algo in AllreduceAlgo::all() {
            let mut replicated = tiny_cfg(2, 1);
            replicated.algo = algo.into();
            replicated.validate = false;
            replicated.shuffle_every_epochs = 0;
            let mut sharded = replicated.clone();
            sharded.shard_optim = true;
            let sr = train_distributed(&replicated, &ds, tiny_factory);
            let ss = train_distributed(&sharded, &ds, tiny_factory);
            assert_bitwise_trajectory(&sr, &ss, &format!("{algo:?}"));
        }
    }

    #[test]
    fn sharded_four_ranks_matches_replicated_in_every_overlap_mode() {
        // Four ranks with the ring: the reduce-scatter is real (each rank
        // receives only its shard's sums), summation order matters, and the
        // owner-anchored ring keeps fused, drained and hooked sharded runs
        // all bitwise equal to the replicated fused run.
        let ds = tiny_ds();
        let mut replicated = tiny_cfg(4, 2);
        replicated.algo = AllreduceAlgo::RingReduceScatter.into();
        replicated.shuffle_every_epochs = 0;
        let sr = train_distributed(&replicated, &ds, tiny_factory);

        let mut fused = replicated.clone();
        fused.shard_optim = true;
        assert_bitwise_trajectory(
            &sr,
            &train_distributed(&fused, &ds, tiny_factory),
            "fused sharded",
        );

        let mut drained = fused.clone();
        drained.bucket_bytes = 1024;
        drained.overlap = OverlapMode::Drain;
        assert_bitwise_trajectory(
            &sr,
            &train_distributed(&drained, &ds, tiny_factory),
            "drained sharded",
        );

        let mut hooked = fused.clone();
        hooked.bucket_bytes = 1024;
        hooked.overlap = OverlapMode::Hooked;
        assert_bitwise_trajectory(
            &sr,
            &train_distributed(&hooked, &ds, tiny_factory),
            "hooked sharded",
        );
    }

    #[test]
    fn sharded_three_ranks_uneven_shards_match_replicated() {
        // A world size that does not divide the parameter count: shards are
        // uneven, and one may cut through a tensor. Still bitwise.
        let ds = tiny_ds();
        let mut replicated = tiny_cfg(3, 2);
        replicated.algo = AllreduceAlgo::RingReduceScatter.into();
        replicated.validate = false;
        replicated.shuffle_every_epochs = 0;
        let mut sharded = replicated.clone();
        sharded.shard_optim = true;
        let sr = train_distributed(&replicated, &ds, tiny_factory);
        let ss = train_distributed(&sharded, &ds, tiny_factory);
        assert_bitwise_trajectory(&sr, &ss, "three-rank sharded");
    }

    #[test]
    fn sharded_composes_with_fp16_and_accumulation_bitwise() {
        // The extensions stack: fp16 quantization happens before the
        // exchange and accumulation before the scale, so neither interacts
        // with who owns the reduction.
        let ds = tiny_ds();
        let mut replicated = tiny_cfg(2, 2);
        replicated.fp16_grads = true;
        replicated.accum_steps = 2;
        replicated.batch_per_gpu = 2;
        replicated.validate = false;
        let mut sharded = replicated.clone();
        sharded.shard_optim = true;
        let sr = train_distributed(&replicated, &ds, tiny_factory);
        let ss = train_distributed(&sharded, &ds, tiny_factory);
        assert_bitwise_trajectory(&sr, &ss, "fp16+accum sharded");
    }

    #[test]
    fn sharded_run_shrinks_resident_optimizer_state() {
        // The point of the exercise: same bits, ~1/world the optimizer
        // memory. Replicated keeps one full momentum buffer per local
        // replica; sharded keeps a single shard-sized velocity.
        let ds = tiny_ds();
        let mut replicated = tiny_cfg(4, 1);
        replicated.algo = AllreduceAlgo::RingReduceScatter.into();
        replicated.validate = false;
        replicated.shuffle_every_epochs = 0;
        let mut sharded = replicated.clone();
        sharded.shard_optim = true;
        let sr = train_distributed(&replicated, &ds, tiny_factory);
        let ss = train_distributed(&sharded, &ds, tiny_factory);
        assert_bitwise_trajectory(&sr, &ss, "residency run");
        let (rep, shd) = (sr.last().expect("stats"), ss.last().expect("stats"));
        assert!(rep.resident_opt_bytes > 0);
        assert!(
            shd.resident_opt_bytes * 4 <= rep.resident_opt_bytes,
            "sharded opt bytes {} should be ≤ 1/4 of replicated {}",
            shd.resident_opt_bytes,
            rep.resident_opt_bytes
        );
        // Parameter residency (values + grads) is unchanged — sharding
        // moves optimizer state only.
        assert_eq!(shd.resident_param_bytes, rep.resident_param_bytes);
    }

    #[test]
    fn allreduce_choice_does_not_change_training() {
        let ds = tiny_ds();
        let mut c1 = tiny_cfg(2, 2);
        c1.algo = AllreduceAlgo::MultiColor(2).into();
        c1.validate = false;
        let mut c2 = tiny_cfg(2, 2);
        c2.algo = AllreduceAlgo::RingReduceScatter.into();
        c2.validate = false;
        let s1 = train_distributed(&c1, &ds, tiny_factory);
        let s2 = train_distributed(&c2, &ds, tiny_factory);
        for (a, b) in s1.iter().zip(&s2) {
            assert!(
                (a.train_loss - b.train_loss).abs() < 2e-3 * a.train_loss,
                "{} vs {}",
                a.train_loss,
                b.train_loss
            );
        }
    }
    #[test]
    fn auto_policy_two_ranks_matches_fixed_bitwise_even_while_probing() {
        // At world size 2 every algorithm reduces a pair of values with one
        // f32 addition, so the tuner can rotate candidates mid-probe and
        // still produce the exact bits a fixed run does. The decision table
        // must also leave the probe state and freeze real size classes.
        use dcnn_collectives::TunerConfig;
        let ds = tiny_ds();
        let mut fixed = tiny_cfg(2, 4);
        fixed.algo = AllreduceAlgo::PipelinedRing.into();
        fixed.bucket_bytes = 1024;
        fixed.validate = false;
        fixed.shuffle_every_epochs = 0;
        let mut tuned = fixed.clone();
        tuned.algo = AlgoPolicy::Auto(TunerConfig::with_candidates(vec![
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::HalvingDoubling,
        ]));
        let sf = train_distributed(&fixed, &ds, tiny_factory);
        let st = train_distributed(&tuned, &ds, tiny_factory);
        assert_bitwise_trajectory(&sf, &st, "auto vs fixed at 2 ranks");
        assert_eq!(st[0].algo_choices, "probe", "{:?}", st[0].algo_choices);
        let last = &st.last().expect("stats").algo_choices;
        assert!(last.contains("<="), "table never froze: {last:?}");
        assert_eq!(sf.last().expect("stats").algo_choices, "ring");
    }

    /// Rank 0's traffic and loss for one gradient-exchange mode: mode name,
    /// whole-run `(bytes_sent, msgs_sent)`, then per epoch `(comm_bytes,
    /// comm_msgs, buckets_launched, train_loss bits)`.
    type TrafficRow = (&'static str, (u64, u64), [(u64, u64, u64, u64); 2]);

    /// Captured at the commit before the exchange paths were unified, on the
    /// threaded fabric, where byte and message counts are deterministic.
    /// The whole-run totals also cover the collectives between one epoch's
    /// closing snapshot and the next epoch's opening one (tuner agreement,
    /// cluster maxima), which no epoch row counts. The six
    /// `multicolor/*/sharded` rows' byte and message fields were re-captured
    /// when the default reduce-scatter stopped running the whole allreduce
    /// (dead-step elimination); their loss bits did not move.
    #[rustfmt::skip]
    const TRAFFIC_GOLDEN: &[TrafficRow] = &[
        ("ring-reduce-scatter/w2/fused/replicated", (42416, 34), [(21048, 13, 0, 4608632158400617731), (21048, 13, 0, 4607210913014694081)]),
        ("ring-reduce-scatter/w2/fused/sharded", (42416, 34), [(21048, 13, 0, 4608632158400617731), (21048, 13, 0, 4607210913014694081)]),
        ("ring-reduce-scatter/w2/drain/replicated", (42416, 130), [(21048, 61, 30, 4608632158400617731), (21048, 61, 30, 4607210913014694081)]),
        ("ring-reduce-scatter/w2/drain/sharded", (42416, 82), [(21048, 37, 30, 4608632158400617731), (21048, 37, 30, 4607210913014694081)]),
        ("ring-reduce-scatter/w2/hooked/replicated", (42416, 130), [(21048, 61, 30, 4608632158400617731), (21048, 61, 30, 4607210913014694081)]),
        ("ring-reduce-scatter/w2/hooked/sharded", (42416, 82), [(21048, 37, 30, 4608632158400617731), (21048, 37, 30, 4607210913014694081)]),
        ("ring-reduce-scatter/w3/fused/replicated", (38592, 52), [(18848, 18, 0, 4608845318715749144), (18848, 18, 0, 4607345403102038685)]),
        ("ring-reduce-scatter/w3/fused/sharded", (38592, 52), [(18848, 18, 0, 4608845318715749144), (18848, 18, 0, 4607345403102038685)]),
        ("ring-reduce-scatter/w3/drain/replicated", (38592, 180), [(18848, 82, 20, 4608845318711261181), (18848, 82, 20, 4607345403130227696)]),
        ("ring-reduce-scatter/w3/drain/sharded", (38592, 116), [(18848, 50, 20, 4608845318715749144), (18848, 50, 20, 4607345403102038685)]),
        ("ring-reduce-scatter/w3/hooked/replicated", (38592, 180), [(18848, 82, 20, 4608845318711261181), (18848, 82, 20, 4607345403130227696)]),
        ("ring-reduce-scatter/w3/hooked/sharded", (38592, 116), [(18848, 50, 20, 4608845318715749144), (18848, 50, 20, 4607345403102038685)]),
        ("multicolor/w2/fused/replicated", (42416, 34), [(21048, 13, 0, 4608632158400617731), (21048, 13, 0, 4607210913014694081)]),
        ("multicolor/w2/fused/sharded", (42416, 34), [(21048, 13, 0, 4608632158400617731), (21048, 13, 0, 4607210913014694081)]),
        ("multicolor/w2/drain/replicated", (42416, 130), [(21048, 61, 30, 4608632158400617731), (21048, 61, 30, 4607210913014694081)]),
        ("multicolor/w2/drain/sharded", (51440, 118), [(25560, 55, 30, 4608632158400617731), (25560, 55, 30, 4607210913014694081)]),
        ("multicolor/w2/hooked/replicated", (42416, 130), [(21048, 61, 30, 4608632158400617731), (21048, 61, 30, 4607210913014694081)]),
        ("multicolor/w2/hooked/sharded", (51440, 118), [(25560, 55, 30, 4608632158400617731), (25560, 55, 30, 4607210913014694081)]),
        ("multicolor/w3/fused/replicated", (38624, 52), [(18864, 18, 0, 4608845318705986953), (18864, 18, 0, 4607345403100759925)]),
        ("multicolor/w3/fused/sharded", (38592, 52), [(18848, 18, 0, 4608845318705986953), (18848, 18, 0, 4607345403100759925)]),
        ("multicolor/w3/drain/replicated", (38624, 180), [(18864, 82, 20, 4608845318743314549), (18864, 82, 20, 4607345403115794811)]),
        ("multicolor/w3/drain/sharded", (42624, 148), [(20864, 66, 20, 4608845318743314549), (20864, 66, 20, 4607345403115794811)]),
        ("multicolor/w3/hooked/replicated", (38624, 180), [(18864, 82, 20, 4608845318743314549), (18864, 82, 20, 4607345403115794811)]),
        ("multicolor/w3/hooked/sharded", (42624, 148), [(20864, 66, 20, 4608845318743314549), (20864, 66, 20, 4607345403115794811)]),
        ("ring-reduce-scatter/w2/hooked/replicated/fp16", (42416, 130), [(21048, 61, 30, 4608632138296352319), (21048, 61, 30, 4607211123083706365)]),
        ("ring-reduce-scatter/w2/hooked/replicated/accum2", (84368, 250), [(42024, 121, 60, 4608663114122042792), (42024, 121, 60, 4606370365909963915)]),
    ];

    #[test]
    fn exchange_traffic_and_loss_match_the_golden_capture() {
        use dcnn_collectives::ClusterBuilder;
        let ds = tiny_ds();
        // (algorithm, ranks, schedule, sharded, fp16, accumulation steps)
        let mut modes = Vec::new();
        for algo in [AllreduceAlgo::RingReduceScatter, AllreduceAlgo::MultiColor(4)] {
            for nodes in [2, 3] {
                for sched in ["fused", "drain", "hooked"] {
                    modes.extend([false, true].map(|shd| (algo, nodes, sched, shd, false, 1)));
                }
            }
        }
        modes.push((AllreduceAlgo::RingReduceScatter, 2, "hooked", false, true, 1));
        modes.push((AllreduceAlgo::RingReduceScatter, 2, "hooked", false, false, 2));

        let mut actual = Vec::new();
        for (algo, nodes, sched, sharded, fp16, accum) in modes {
            let mut cfg = tiny_cfg(nodes, 2);
            cfg.algo = algo.into();
            // 1 KiB buckets: five per step on the tiny model.
            cfg.bucket_bytes = if sched == "fused" { 0 } else { 1024 };
            cfg.overlap = if sched == "drain" { OverlapMode::Drain } else { OverlapMode::Hooked };
            cfg.shard_optim = sharded;
            cfg.fp16_grads = fp16;
            cfg.accum_steps = accum;
            cfg.batch_per_gpu = 4 / accum;
            cfg.validate = false;
            cfg.shuffle_every_epochs = 0;
            let run = ClusterBuilder::new(nodes)
                .run(|comm| train_on_comm(comm, &cfg, &ds, &tiny_factory));
            let mut name = format!("{algo}/w{nodes}/{sched}/");
            name += if sharded { "sharded" } else { "replicated" };
            name += if fp16 { "/fp16" } else { "" };
            name += if accum > 1 { "/accum2" } else { "" };
            let epochs: Vec<(u64, u64, u64, u64)> = run.results[0]
                .iter()
                .map(|s| (s.comm_bytes, s.comm_msgs, s.buckets_launched, s.train_loss.to_bits()))
                .collect();
            actual.push((name, (run.stats[0].bytes_sent, run.stats[0].msgs_sent), epochs));
        }
        // On a mismatch, print what was captured in the table's own syntax.
        let rendered: String = actual
            .iter()
            .map(|(n, t, e)| format!("        ({n:?}, {t:?}, [{:?}, {:?}]),\n", e[0], e[1]))
            .collect();
        assert_eq!(actual.len(), TRAFFIC_GOLDEN.len(), "captured rows:\n{rendered}");
        for ((name, totals, epochs), golden) in actual.iter().zip(TRAFFIC_GOLDEN) {
            assert_eq!(
                (name.as_str(), *totals, epochs.as_slice()),
                (golden.0, golden.1, &golden.2[..]),
                "captured rows:\n{rendered}"
            );
        }
    }

    #[test]
    fn auto_policy_decisions_agree_across_four_ranks() {
        // The per-rank timings differ; the allgather+max merge must leave
        // every rank with the same table, hence the same choices string in
        // every epoch row — including the probe epochs.
        use dcnn_collectives::TunerConfig;
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(4, 4);
        cfg.algo = AlgoPolicy::Auto(TunerConfig::with_candidates(vec![
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::HalvingDoubling,
        ]));
        cfg.bucket_bytes = 1024;
        cfg.validate = false;
        cfg.shuffle_every_epochs = 0;
        let per_rank = run_cluster(cfg.nodes, |comm| {
            train_on_comm(comm, &cfg, &ds, &tiny_factory)
                .iter()
                .map(|s| s.algo_choices.clone())
                .collect::<Vec<_>>()
        });
        for (r, choices) in per_rank.iter().enumerate() {
            assert_eq!(choices, &per_rank[0], "rank {r} disagrees");
        }
        let last = per_rank[0].last().expect("choices");
        assert!(last.contains("<="), "table never froze: {last:?}");
    }
}

