//! Algorithm 1, executed for real on the threaded runtime.
//!
//! One rank per learner; each learner drives `m` model replicas through a
//! [`DptExecutor`], samples its batch shard from a [`Dimd`] partition,
//! averages gradients across the cluster with the configured allreduce, and
//! steps SGD under the paper's warmup + step-decay schedule. Weights start
//! identical everywhere (same factory seed) and stay identical because every
//! rank applies the same averaged gradient — asserted in tests.

use std::io::Write;
use std::time::Duration;

use dcnn_collectives::primitives::try_allgather_bytes;
use dcnn_collectives::runtime::{Comm, CommError, CommStats};
use dcnn_collectives::{
    run_cluster, AlgoPolicy, AllreduceAlgo, FaultSpec, OverlapMode, RuntimeConfig,
};
use dcnn_dimd::shuffle::MPI_COUNT_LIMIT;
use dcnn_dimd::{open_source, BatchSource, Dimd, Hello, SynthImageNet, ValSet};
use dcnn_dpt::{DptExecutor, DptStrategy};
use dcnn_tensor::layers::{params_into, release_momentum, resident_bytes, FlatSink, Module};
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
    /// ([`AlgoPolicy::Fixed`]) or time candidates once before the first
    /// step and keep the fastest per bucket size ([`AlgoPolicy::Auto`]).
    /// Set it from `DCNN_ALGO` via [`TrainConfig::apply_runtime`].
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
    /// Bytes rank 0 sent during the epoch's steps: the gradient exchange
    /// and, sharded, the parameter allgather. The epoch end's agreement
    /// and the shuffle after it are billed to no row.
    pub comm_bytes: u64,
    /// Messages rank 0 sent during the epoch's steps.
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
    /// Fraction of the time this epoch had a nonblocking reduce pending
    /// that the rank spent on other work instead of waiting for one:
    /// `1 - bucket_wait/async_busy`, where `async_busy` counts concurrent
    /// buckets once ([`CommStats::async_busy_ns`]), clamped to `[0, 1]`,
    /// maxed over all ranks (the leading rank is the one that gets to
    /// overlap — its laggard peer drains instantly); zero when no
    /// nonblocking reduces ran.
    pub overlap_frac: f64,
    /// High-water mark of concurrently in-flight bucket reduces, maxed over
    /// all ranks (whole run up to this epoch; ≥ 2 proves genuine overlap —
    /// a rank whose peer runs ahead can drain each bucket instantly, so the
    /// overlap shows on the leading rank, not a fixed one).
    pub async_inflight_hwm: u64,
    /// Bucket size target (bytes) of the run's exchange (0 = fused
    /// blocking).
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
    /// The allreduce decision the run trained with, made before epoch 0:
    /// the fixed algorithm's name, or an `auto` policy's per-size table
    /// (`<=BYTES:algo` entries joined by `;` — comma-free, so it embeds in
    /// a CSV field). The same in every epoch and on every rank
    /// (the table is cluster-agreed before it is ever used).
    pub algo_choices: String,
}

/// This rank's share of top-1 validation, `(correct, count)`: every `n`-th
/// image from index `me` on. The epoch end sums it cluster-wide.
fn validate(exec: &mut DptExecutor, vs: &ValSet, me: usize, n: usize, crop: usize) -> (u64, u64) {
    let crit = SoftmaxCrossEntropy;
    let (mut correct, mut count) = (0u64, 0u64);
    let my_indices: Vec<usize> = (0..vs.len()).filter(|i| i % n == me).collect();
    for chunk in my_indices.chunks(16) {
        let (x, labels) = vs.batch(chunk, crop);
        let logits = exec.eval_logits(&x);
        correct += crit.forward(&logits, &labels).correct as u64;
        count += chunk.len() as u64;
    }
    (correct, count)
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

/// [`try_train_on_comm`], panicking with the report if a peer dies.
pub fn train_on_comm(
    comm: &Comm,
    cfg: &TrainConfig,
    ds: &SynthImageNet,
    factory: &(impl Fn() -> Box<dyn Module> + Sync),
) -> Vec<EpochStats> {
    try_train_on_comm(comm, cfg, ds, factory).unwrap_or_else(|e| panic!("{e}"))
}

/// Run this rank's share of Algorithm 1 on an existing communicator — the
/// entry point for multi-process runs, where [`crate::train_distributed`]'s
/// own cluster spawning doesn't apply (each OS process joins the fabric via
/// `dcnn_collectives::try_run_tcp_rank_with` and brings its own `Comm`).
/// `cfg.nodes` must equal `comm.size()`; every rank must pass identical
/// `cfg`, `ds` and `factory` seeds, exactly as the threaded path arranges
/// implicitly.
///
/// A dead peer — a rank or the blob server — ends the run with its
/// [`CommError`], after this rank has reported the partial epoch and, with
/// `cfg.checkpoint_dir` set, written its abort checkpoint.
pub fn try_train_on_comm(
    comm: &Comm,
    cfg: &TrainConfig,
    ds: &SynthImageNet,
    factory: &(impl Fn() -> Box<dyn Module> + Sync),
) -> Result<Vec<EpochStats>, CommError> {
    assert_eq!(cfg.nodes, comm.size(), "cfg.nodes must match the communicator's size");
    let mut trainer = Trainer::new(comm, cfg, ds, factory);
    let mut stats = Vec::with_capacity(cfg.epochs);
    let mut run = || {
        trainer.start(ds)?;
        for epoch in 0..cfg.epochs {
            trainer.begin_epoch(epoch)?;
            for _ in 0..trainer.iterations {
                trainer.step()?;
            }
            stats.push(trainer.end_epoch()?);
        }
        trainer.source.take().expect("opened").finish();
        Ok(())
    };
    let run = run();
    // A dead peer ends the loop at whichever collective observed the dead
    // link; flush what this rank still knows before handing the error on.
    if let Err(e) = &run {
        trainer.abort(e);
    }
    run.map(|()| stats)
}

/// Write one fault-injection line to stderr in a single `write_all`, so
/// ranks sharing a stderr never split each other's lines.
fn fault_line(mut line: String) {
    line.push('\n');
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// The current epoch's progress: enough to emit a partial [`EpochStats`]
/// row for an epoch that never completed.
#[derive(Default)]
struct PartialEpoch {
    epoch: usize,
    iters: usize,
    loss_sum: f64,
    correct: u64,
    seen: u64,
    buckets_launched: u64,
    /// The rank's counters when the epoch opened.
    start: CommStats,
}

/// One rank's run of Algorithm 1 as a value the loop steps: the replicas,
/// the gradient exchange, the optimizer state, the batch source and the
/// current epoch's progress. [`try_train_on_comm`] drives it
/// (`start`, then per epoch `begin_epoch`, `step` × iterations,
/// `end_epoch`) and, on a dead peer, calls [`Trainer::abort`].
struct Trainer<'a> {
    comm: &'a Comm,
    cfg: &'a TrainConfig,
    /// Optimizer steps per epoch.
    iterations: usize,
    sgd: Sgd,
    exec: DptExecutor,
    gsync: GradSync,
    /// The sharded strategy's owner map and its per-rank counts.
    shards: Option<(ShardMap, Vec<usize>)>,
    /// This rank's shard of the momentum (empty when replicated).
    velocity: Vec<f32>,
    /// The step's gradient: backprop writes it here (the hooked path
    /// writes into the bucket payloads instead) and the exchange reduces it
    /// in place; under sharding it carries the parameter allgather too.
    grad: Vec<f32>,
    val: Option<ValSet>,
    /// Opened by [`Trainer::start`].
    source: Option<Box<dyn BatchSource + 'a>>,
    progress: PartialEpoch,
}

impl<'a> Trainer<'a> {
    /// Build the replicas, the gradient exchange and (sharded) the owner
    /// map with its shard-sized velocity; no communication.
    fn new(
        comm: &'a Comm,
        cfg: &'a TrainConfig,
        ds: &SynthImageNet,
        factory: &(impl Fn() -> Box<dyn Module> + Sync),
    ) -> Self {
        let n = comm.size();
        let mut exec = DptExecutor::new(cfg.gpus_per_node, factory);
        let param_total: usize = exec.segments().iter().map(|s| s.len).sum();
        let (algo, segments) = (cfg.algo.clone(), exec.segments());
        let mut gsync = GradSync::with_policy(algo, segments, cfg.bucket_bytes, cfg.fp16_grads);
        // Sharded strategy: every gradient exchange becomes a reduce-scatter
        // over the canonical owner map, this rank keeps its momentum in one
        // shard-sized velocity buffer, and the replicas' full momentum
        // tensors are released — that release is the memory saving the
        // strategy exists for, and `resident_opt_bytes` measures it.
        let shards = cfg.shard_optim.then(|| ShardMap::new(param_total, n));
        let mut velocity = Vec::new();
        if let Some(sm) = &shards {
            gsync = gsync.with_shards(sm.clone());
            velocity = vec![0.0f32; sm.owned(comm.rank()).len()];
            exec.visit_replicas(|m| {
                release_momentum(m);
            });
        }
        let global_batch = cfg.batch_per_gpu * cfg.gpus_per_node * n;
        Trainer {
            comm,
            cfg,
            iterations: (ds.train_len() / global_batch).max(1),
            sgd: Sgd::new(cfg.sgd.clone()),
            exec,
            gsync,
            shards: shards.map(|sm| {
                let counts = sm.counts();
                (sm, counts)
            }),
            velocity,
            // One buffer for the whole run, sized from the segment map.
            grad: vec![0.0f32; param_total],
            // The validation blob (paper §4.1's second DIMD file) lives
            // whole on every learner; evaluation decodes from it.
            val: cfg.validate.then(|| ValSet::load(ds, cfg.quality)),
            source: None,
            progress: PartialEpoch::default(),
        }
    }

    /// Open the batch source behind the data-plane seam — the in-process
    /// partition (optionally behind the donkey prefetch pipeline) or, with
    /// `DCNN_DATA_SERVICE`, a remote blob server; both deliver
    /// byte-identical batches for identical seeds — then decide the
    /// algorithm per bucket: a multi-candidate `auto` policy measures and
    /// agrees here, once, before epoch 0's counters open.
    fn start(&mut self, ds: &SynthImageNet) -> Result<(), CommError> {
        let (comm, cfg) = (self.comm, self.cfg);
        let (me, n) = (comm.rank(), comm.size());
        let hello = Hello {
            rank: me,
            world: n,
            batch: cfg.batch_per_gpu * cfg.gpus_per_node,
            requests_per_epoch: self.iterations,
            epochs: cfg.epochs,
            shuffle_every: cfg.shuffle_every_epochs,
            segment_bytes: cfg.shuffle_segment_bytes as u64,
        };
        let seed = cfg.seed ^ (me as u64) << 20;
        let partition = || Dimd::load_partition(ds, me, n, cfg.quality, seed);
        let source = open_source(
            comm,
            cfg.data_service.as_deref(),
            partition,
            hello,
            cfg.crop,
            cfg.prefetch_depth,
            cfg.decode_workers,
            cfg.connect_timeout,
        )
        .map_err(|e| {
            // An unreachable server is the data plane's dead peer, reported
            // like a mid-run death.
            let servers = cfg.data_service.as_ref().map_or(1, |s| s.split(',').count());
            CommError::PeerDead {
                rank: me,
                peer: me % servers,
                cause: format!("data service connect: {e}"),
                phase: Some("data-plane".into()),
                bucket: None,
                label: None,
            }
        })?;
        self.source = Some(source);
        self.gsync.decide(comm)
    }

    /// Open `epoch`: zero its progress, snapshot the counters its row
    /// reports against, and start the source's epoch.
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), CommError> {
        self.progress = PartialEpoch { epoch, start: self.comm.stats(), ..PartialEpoch::default() };
        self.source.as_mut().expect("opened").try_begin_epoch(epoch)
    }

    /// One optimizer step: one batch forward and backward into the
    /// gradient buffer, the exchange, the SGD update, then the
    /// fault-injection hooks.
    fn step(&mut self) -> Result<(), CommError> {
        let (comm, cfg) = (self.comm, self.cfg);
        let (me, n) = (comm.rank(), comm.size());
        let (epoch, it) = (self.progress.epoch, self.progress.iters);
        let lr = cfg.lr.lr_at(epoch as f32 + it as f32 / self.iterations as f32);
        // Hooked overlap needs the parallel DPT path to stream segments
        // during backprop and a bucket plan to stream them into; otherwise
        // the drain schedule (launch-after-backward) applies.
        let hooked = cfg.overlap == OverlapMode::Hooked
            && self.gsync.is_bucketed()
            && cfg.strategy == DptStrategy::Optimized;
        let (x, labels) = self.source.as_mut().expect("opened").try_next_batch()?;
        let grad = &mut self.grad;
        // One exchange per step, whatever the schedule: the hooked path
        // feeds it from the backward pass — backprop writes each gradient
        // into its bucket's payload, and a bucket's allreduce launches the
        // instant its last range is ready — drain and fused backpropagate
        // into the step's buffer and let `finish` do all of it.
        let mut stream = self.gsync.begin(comm);
        let (loss, correct) = match cfg.strategy {
            DptStrategy::Optimized if hooked => self.exec.step_into(&x, &labels, &mut stream),
            DptStrategy::Optimized => {
                self.exec.step_into(&x, &labels, &mut FlatSink::new(grad, |_, _| {}))
            }
            // The paper's unoptimised control keeps its copy.
            DptStrategy::Baseline => {
                let out = self.exec.step(&x, &labels, DptStrategy::Baseline);
                grad.copy_from_slice(&out.grad);
                (out.loss, out.correct)
            }
        };
        // Inter-node average: sum node-averages; the optimizer divides by N
        // as it reads them.
        let inv_n = 1.0 / n as f32;
        match &self.shards {
            // Replicated: every replica applies the full averaged gradient
            // with full momentum, staying in sync implicitly, one bucket at
            // a time as each exchange completes, straight from the bucket's
            // reduced payload (the fused exchange's whole vector at once).
            None => {
                let (exec, sgd) = (&mut self.exec, &self.sgd);
                let launched = stream.try_finish_each(grad, |range, g| {
                    exec.visit_replicas(|m| sgd.step_slice(m, lr, range.clone(), g, inv_n))
                })?;
                self.progress.buckets_launched += launched as u64;
            }
            // Sharded: the reduce-scatter above fully reduced only this
            // rank's owned range, so step exactly that range (replica 0
            // stands in for the shard — the others resync from the
            // allgather), then rebroadcast the stepped parameters.
            // Per-element arithmetic is identical to the replicated step, so
            // the gathered weights match it bitwise. The gradient is dead
            // once stepped and the next step rewrites all of it, so its
            // buffer carries the allgather: the step leaves each owned
            // parameter where it read that element's gradient, the
            // allgather fills the rest, and replica 0 takes back only what
            // it did not step itself.
            Some((sm, counts)) => {
                self.progress.buckets_launched += stream.try_finish(grad)? as u64;
                let owned = sm.owned(me);
                let (r0, velocity) = (self.exec.replica(0), &mut self.velocity);
                self.sgd.step_range_write_back(r0, lr, owned.clone(), velocity, grad, inv_n);
                comm.try_allgather_f32(grad, counts)?;
                self.exec.set_params_all_except(grad, owned);
            }
        }
        let p = &mut self.progress;
        p.loss_sum += loss;
        p.correct += correct as u64;
        p.seen += (cfg.batch_per_gpu * cfg.gpus_per_node) as u64;
        p.iters += 1;
        // Fault injection (`DCNN_FAULT`): any armed fault emits per-step
        // heartbeats so external tests can kill a rank at a deterministic
        // point mid-epoch; `kill-after-step` aborts THIS rank after its
        // step (the kernel closes its sockets, so peers observe the same
        // bare EOF a SIGKILL leaves).
        let global_step = epoch * self.iterations + it;
        if cfg.fault.is_some() {
            fault_line(format!("dcnn-fault: rank {me} step {global_step} (epoch {epoch} it {it})"));
        }
        if let Some(FaultSpec::KillAfterStep { step, rank }) = cfg.fault {
            if (step, rank) == (global_step, me) {
                let abort =
                    format!("dcnn-fault: rank {me}: kill-after-step={global_step}: aborting now");
                fault_line(abort);
                std::process::abort();
            }
        }
        Ok(())
    }

    /// Close the epoch: validate locally, take the row's closing counter
    /// snapshot, agree the cluster-wide values in one allgather, then run
    /// the source's epoch end (the shuffle, when due).
    fn end_epoch(&mut self) -> Result<EpochStats, CommError> {
        let (comm, cfg) = (self.comm, self.cfg);
        let n = comm.size();
        let val = match &self.val {
            Some(vs) => validate(&mut self.exec, vs, comm.rank(), n, cfg.crop),
            None => (0, 0),
        };
        // The row's counters close before the allgather, so they count the
        // epoch's steps and none of the epoch end's own traffic.
        let mut row = self.local_row();
        let p = &self.progress;
        // One fixed record per rank: sums add in rank order and maxima do
        // not depend on order, so every rank gets the same bits. The
        // leading rank is the one that gets to overlap and the busiest
        // link can sit on any rank, hence the maxima.
        let record = [
            p.loss_sum.to_bits(),
            p.correct,
            p.seen,
            val.0,
            val.1,
            row.overlap_frac.to_bits(),
            row.async_inflight_hwm,
            row.link_bytes_max,
            row.link_imbalance.to_bits(),
        ];
        let bytes = record.iter().flat_map(|w| w.to_le_bytes()).collect();
        let (mut loss, mut correct, mut seen, mut val_correct, mut val_count) = (0.0, 0, 0, 0, 0);
        for theirs in try_allgather_bytes(comm, bytes)? {
            let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8"));
            let w: Vec<u64> = theirs.chunks_exact(8).map(word).collect();
            loss += f64::from_bits(w[0]);
            correct += w[1];
            seen += w[2];
            val_correct += w[3];
            val_count += w[4];
            row.overlap_frac = row.overlap_frac.max(f64::from_bits(w[5]));
            row.async_inflight_hwm = row.async_inflight_hwm.max(w[6]);
            row.link_bytes_max = row.link_bytes_max.max(w[7]);
            row.link_imbalance = row.link_imbalance.max(f64::from_bits(w[8]));
        }
        row.train_loss = loss / (n * self.iterations) as f64;
        row.train_acc = correct as f64 / seen as f64;
        row.val_acc = if val_count == 0 { 0.0 } else { val_correct as f64 / val_count as f64 };
        let epoch = self.progress.epoch;
        // Every `shuffle_every_epochs` epochs; never when it is 0.
        let shuffle_due = (epoch + 1).is_multiple_of(cfg.shuffle_every_epochs);
        self.source.as_mut().expect("opened").try_end_epoch(epoch, shuffle_due)?;
        Ok(row)
    }

    /// The [`EpochStats`] row for the current epoch as this rank alone sees
    /// it: every field from local counters (a fresh snapshot against the
    /// epoch's opening one), no communication. The abort path emits it as
    /// is; the epoch end then overwrites the fields the cluster agrees on.
    fn local_row(&mut self) -> EpochStats {
        let (mut resident_param_bytes, mut resident_opt_bytes) = (0usize, 0usize);
        self.exec.visit_replicas(|m| {
            let (p, o) = resident_bytes(m);
            resident_param_bytes += p;
            resident_opt_bytes += o;
        });
        resident_opt_bytes += std::mem::size_of_val(&self.velocity[..]);
        let (progress, gsync, me) = (&self.progress, &self.gsync, self.comm.rank());
        let (now, start) = (&self.comm.stats(), &progress.start);
        let secs = |to: u64, from: u64| to.saturating_sub(from) as f64 / 1e9;
        let busy_ns = now.async_busy_ns.saturating_sub(start.async_busy_ns);
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
            lr: self.cfg.lr.lr_at(progress.epoch as f32),
            comm_bytes: now.bytes_sent.saturating_sub(start.bytes_sent),
            comm_msgs: now.msgs_sent.saturating_sub(start.msgs_sent),
            comm_wait_secs: secs(now.recv_wait_ns, start.recv_wait_ns),
            allreduce_secs: secs(gsync.allreduce_phase_ns(now), gsync.allreduce_phase_ns(start)),
            stash_hwm: now.stash_hwm,
            bucket_wait_secs: wait_ns as f64 / 1e9,
            overlap_frac: if busy_ns == 0 {
                0.0
            } else {
                (1.0 - wait_ns as f64 / busy_ns as f64).clamp(0.0, 1.0)
            },
            async_inflight_hwm: now.async_inflight_hwm,
            bucket_bytes: gsync.bucket_bytes() as u64,
            buckets_launched: progress.buckets_launched,
            resident_param_bytes: resident_param_bytes as u64,
            resident_opt_bytes: resident_opt_bytes as u64,
            link_bytes_max: CommStats::link_bytes_max(me, &links),
            link_imbalance: CommStats::link_imbalance(me, &links),
            algo_choices: gsync.choices_string(),
        }
    }

    /// A peer died: preserve what this rank can before the error goes on to
    /// the process edge — a partial [`EpochStats`] row (stderr, plus a JSON
    /// file next to the checkpoint) telling the operator where training
    /// stood, and an abort checkpoint making the completed steps
    /// resumable. Deliberately avoids every collective call: peers are dead
    /// or dying, so only local counters go into the row
    /// ([`Trainer::local_row`]).
    ///
    /// Under the sharded strategy the abort checkpoint is this rank's
    /// [`ShardCheckpoint`] (`DCKS`) — full momentum no longer exists
    /// anywhere — and the surviving ranks' shards merge back into a full
    /// `DCKP` state via [`Checkpoint::merge`], or restore directly into
    /// another sharded run.
    fn abort(&mut self, err: &CommError) {
        let me = self.comm.rank();
        let row = self.local_row();
        let epoch = self.progress.epoch;
        eprintln!(
            "dcnn: rank {me}: aborting training after {} iteration(s) of epoch {epoch}: {err}",
            self.progress.iters
        );
        let json = serde_json::to_string(&row).unwrap_or_default();
        eprintln!("dcnn: rank {me}: partial epoch row: {json}");
        let Some(dir) = &self.cfg.checkpoint_dir else { return };
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("dcnn: rank {me}: cannot create checkpoint dir {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("abort-rank{me}.ckpt"));
        let written = match &self.shards {
            None => Checkpoint::capture(self.exec.replica(0), epoch as u32).write_to(&path),
            Some((sm, _)) => {
                let owned = sm.owned(me);
                let mut params = vec![0.0f32; owned.len()];
                params_into(self.exec.replica(0), owned.clone(), &mut params);
                ShardCheckpoint {
                    epoch: epoch as u32,
                    meta: ShardMeta {
                        rank: me as u32,
                        world: sm.world() as u32,
                        offset: owned.start as u64,
                        total: sm.total() as u64,
                    },
                    params,
                    momentum: self.velocity.clone(),
                }
                .write_to(&path)
            }
        };
        match written {
            Ok(()) => eprintln!("dcnn: rank {me}: abort checkpoint written to {}", path.display()),
            Err(e) => eprintln!("dcnn: rank {me}: abort checkpoint write failed: {e}"),
        }
        let _ = std::fs::write(dir.join(format!("abort-rank{me}.partial.json")), json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_collectives::{ClusterBuilder, TransportKind};
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
        assert!(last < first * 0.9, "loss should fall: {first:.3} → {last:.3}");
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
            assert!(s.allreduce_secs > 0.0, "epoch {}: allreduce phase not timed", s.epoch);
            assert!(s.comm_wait_secs >= 0.0);
        }
    }

    #[test]
    fn the_epoch_end_is_one_collective() {
        // Replicated, a fixed algorithm, no shuffle: the only allgathers
        // are the epoch ends', and validation adds none of its own.
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(2, 2);
        cfg.algo = AllreduceAlgo::RingReduceScatter.into();
        cfg.validate = true;
        cfg.shuffle_every_epochs = 0;
        let run = ClusterBuilder::new(2).run(|comm| train_on_comm(comm, &cfg, &ds, &tiny_factory));
        let phases = &run.stats[0].phase_ns;
        let gathers = phases.iter().find(|p| p.0 == "allgather").map_or(0, |p| p.2);
        assert_eq!(gathers, 2, "one allgather per epoch expected; phases {phases:?}");
        assert!(run.results[0].iter().all(|s| s.val_acc > 0.0));
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
        assert!((l1 - l2).abs() < 0.3, "1-node {l1:.3} vs 2-node {l2:.3} should be similar");
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
        // Every bucket an epoch launched completes one span, nothing else
        // launches, and the spans' bytes in flight average above zero.
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(2, 3);
        cfg.bucket_bytes = 1024;
        cfg.validate = false;
        let run = dcnn_collectives::ClusterBuilder::new(2)
            .run(|comm| train_on_comm(comm, &cfg, &ds, &tiny_factory));
        for (epochs, stats) in run.results.iter().zip(&run.stats) {
            assert_eq!(stats.async_launched, 3 * epochs[0].buckets_launched);
            assert_eq!(stats.async_done, stats.async_launched);
            assert!(stats.inflight_bytes_avg() > 0);
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
        let err = run_cluster(1, |comm| try_train_on_comm(comm, &cfg, &ds, &tiny_factory))
            .swap_remove(0)
            .expect_err("nothing listens there");
        let elapsed = start.elapsed();
        let CommError::PeerDead { cause, phase, .. } = err;
        assert!(cause.contains(&addr), "{cause}");
        assert_eq!(phase.as_deref(), Some("data-plane"));
        assert!(elapsed < Duration::from_secs(2), "gave up after {elapsed:?}");
    }

    #[test]
    fn severed_link_leaves_abort_checkpoints_that_read_back() {
        // Rank 0 severs its link to rank 1 as the fabric comes up, so both
        // ranks lose the first gradient exchange, before any SGD step: the
        // replicated and the sharded abort states hold the same parameters.
        let ds = tiny_ds();
        let abort = |strategy: &str, shard_optim: bool| {
            let dir = std::env::temp_dir()
                .join(format!("dcnn-abort-test-{}-{strategy}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = tiny_cfg(2, 1);
            cfg.validate = false;
            cfg.shard_optim = shard_optim;
            cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
            let rt = RuntimeConfig {
                fault: Some(FaultSpec::DropLink { from: 0, to: 1 }),
                ..RuntimeConfig::default()
            };
            let run = ClusterBuilder::new(2)
                .transport(TransportKind::Tcp)
                .configure(rt)
                .run(|comm| try_train_on_comm(comm, &cfg, &ds, &tiny_factory));
            for (rank, res) in run.results.into_iter().enumerate() {
                let err = res.expect_err("training over a severed link must fail");
                let CommError::PeerDead { rank: r, peer, .. } = &err;
                assert_eq!((*r, *peer), (rank, 1 - rank), "{strategy}: wrong endpoints in {err}");
                for suffix in ["ckpt", "partial.json"] {
                    let path = dir.join(format!("abort-rank{rank}.{suffix}"));
                    assert!(path.is_file(), "{strategy}: no {}", path.display());
                }
            }
            dir
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let file = |rank: usize| format!("abort-rank{rank}.ckpt");

        let dir = abort("replicated", false);
        let replicated: Vec<Checkpoint> = (0..2)
            .map(|r| Checkpoint::read_from(&dir.join(file(r))).expect("DCKP reads back"))
            .collect();
        assert_eq!(replicated[0], replicated[1], "replicated ranks disagree");
        let _ = std::fs::remove_dir_all(&dir);

        let dir = abort("sharded", true);
        let shards: Vec<ShardCheckpoint> = (0..2)
            .map(|r| ShardCheckpoint::read_from(&dir.join(file(r))).expect("DCKS reads back"))
            .collect();
        let merged = Checkpoint::merge(&shards).expect("the two shards merge");
        assert_eq!(bits(&merged.params), bits(&replicated[0].params));
        let _ = std::fs::remove_dir_all(&dir);
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
    fn sharded_composes_with_fp16_bitwise() {
        // The extensions stack: fp16 quantization happens before the
        // exchange, so it does not interact with who owns the reduction.
        let ds = tiny_ds();
        let mut replicated = tiny_cfg(2, 2);
        replicated.fp16_grads = true;
        replicated.validate = false;
        let mut sharded = replicated.clone();
        sharded.shard_optim = true;
        let sr = train_distributed(&replicated, &ds, tiny_factory);
        let ss = train_distributed(&sharded, &ds, tiny_factory);
        assert_bitwise_trajectory(&sr, &ss, "fp16 sharded");
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
        // f32 addition, so whatever the decision picks produces the exact
        // bits a fixed run does. The table holds real size classes from
        // epoch 0 on.
        let ds = tiny_ds();
        let mut fixed = tiny_cfg(2, 4);
        fixed.algo = AllreduceAlgo::PipelinedRing.into();
        fixed.bucket_bytes = 1024;
        fixed.validate = false;
        fixed.shuffle_every_epochs = 0;
        let mut tuned = fixed.clone();
        tuned.algo =
            AlgoPolicy::Auto(vec![AllreduceAlgo::PipelinedRing, AllreduceAlgo::HalvingDoubling]);
        let sf = train_distributed(&fixed, &ds, tiny_factory);
        let st = train_distributed(&tuned, &ds, tiny_factory);
        assert_bitwise_trajectory(&sf, &st, "auto vs fixed at 2 ranks");
        let last = &st.last().expect("stats").algo_choices;
        assert_eq!(&st[0].algo_choices, last, "the table changed after epoch 0");
        assert!(last.contains("<="), "table never froze: {last:?}");
        assert_eq!(sf.last().expect("stats").algo_choices, "ring");
    }

    #[test]
    fn decided_auto_run_is_the_fixed_run_of_its_table_from_step_zero() {
        // The decision runs before epoch 0 opens its counters, so a decided
        // `auto` run is `Fixed` of its table from the first step: the same
        // bits (at 4 ranks, where the candidates sum in different orders)
        // and the same traffic in every epoch row.
        let ds = tiny_ds();
        let mut tuned = tiny_cfg(4, 2);
        tuned.algo =
            AlgoPolicy::Auto(vec![AllreduceAlgo::PipelinedRing, AllreduceAlgo::HalvingDoubling]);
        let st = train_distributed(&tuned, &ds, tiny_factory);
        // Fused: one bucket, one size class, one `<=BYTES:algo` entry.
        let table = &st[0].algo_choices;
        let (_, chosen) = table.split_once(':').expect("a decided table");
        let mut fixed = tuned.clone();
        fixed.algo = AlgoPolicy::Fixed(chosen.parse().expect("an algorithm"));
        let sf = train_distributed(&fixed, &ds, tiny_factory);
        assert_bitwise_trajectory(&sf, &st, &format!("auto ({table}) vs fixed {chosen}"));
        for (f, t) in sf.iter().zip(&st) {
            let traffic = |s: &EpochStats| (s.comm_bytes, s.comm_msgs);
            assert_eq!(traffic(f), traffic(t), "epoch {}", f.epoch);
            assert_eq!(&t.algo_choices, table, "epoch {}", t.epoch);
        }
    }

    /// Rank 0's traffic and loss for one gradient-exchange mode: mode name,
    /// whole-run `(bytes_sent, msgs_sent)`, then per epoch `(comm_bytes,
    /// comm_msgs, buckets_launched, train_loss bits, val_acc bits)`.
    type TrafficRow = (&'static str, (u64, u64), [(u64, u64, u64, u64, u64); 2]);

    /// Captured at the commit before the exchange paths were unified, on the
    /// threaded fabric, where byte and message counts are deterministic.
    /// The whole-run totals also cover the collectives between one epoch's
    /// closing snapshot and the next epoch's opening one (the epoch end's
    /// allgather), which no epoch row counts. The six
    /// `multicolor/*/sharded` rows' byte and message fields were re-captured
    /// when the default reduce-scatter stopped running the whole allreduce
    /// (dead-step elimination); their loss bits did not move. The `/val`
    /// row (validation on) was captured before the epoch end's six
    /// allgathers became one; then every row's byte and message fields
    /// were re-captured, each moved by exactly what that fold predicts
    /// from the record sizes (an epoch row no longer bills the epoch end's
    /// allgathers), and no loss, accuracy or bucket field moved. The two
    /// `/m1` rows (one replica per rank) were captured after that, before
    /// the one-replica step merged straight into the exchange buffer.
    #[rustfmt::skip]
    const TRAFFIC_GOLDEN: &[TrafficRow] = &[
        ("ring-reduce-scatter/w2/fused/replicated", (42288, 26), [(20976, 12, 0, 4608632158400617731, 0), (20976, 12, 0, 4607210913014694081, 0)]),
        ("ring-reduce-scatter/w2/fused/sharded", (42288, 26), [(20976, 12, 0, 4608632158400617731, 0), (20976, 12, 0, 4607210913014694081, 0)]),
        ("ring-reduce-scatter/w2/drain/replicated", (42288, 122), [(20976, 60, 30, 4608632158400617731, 0), (20976, 60, 30, 4607210913014694081, 0)]),
        ("ring-reduce-scatter/w2/drain/sharded", (42288, 74), [(20976, 36, 30, 4608632158400617731, 0), (20976, 36, 30, 4607210913014694081, 0)]),
        ("ring-reduce-scatter/w2/hooked/replicated", (42288, 122), [(20976, 60, 30, 4608632158400617731, 0), (20976, 60, 30, 4607210913014694081, 0)]),
        ("ring-reduce-scatter/w2/hooked/sharded", (42288, 74), [(20976, 36, 30, 4608632158400617731, 0), (20976, 36, 30, 4607210913014694081, 0)]),
        ("ring-reduce-scatter/w3/fused/replicated", (38272, 36), [(18640, 16, 0, 4608845318715749144, 0), (18640, 16, 0, 4607345403102038685, 0)]),
        ("ring-reduce-scatter/w3/fused/sharded", (38272, 36), [(18640, 16, 0, 4608845318715749144, 0), (18640, 16, 0, 4607345403102038685, 0)]),
        ("ring-reduce-scatter/w3/drain/replicated", (38272, 164), [(18640, 80, 20, 4608845318711261181, 0), (18640, 80, 20, 4607345403130227696, 0)]),
        ("ring-reduce-scatter/w3/drain/sharded", (38272, 100), [(18640, 48, 20, 4608845318715749144, 0), (18640, 48, 20, 4607345403102038685, 0)]),
        ("ring-reduce-scatter/w3/hooked/replicated", (38272, 164), [(18640, 80, 20, 4608845318711261181, 0), (18640, 80, 20, 4607345403130227696, 0)]),
        ("ring-reduce-scatter/w3/hooked/sharded", (38272, 100), [(18640, 48, 20, 4608845318715749144, 0), (18640, 48, 20, 4607345403102038685, 0)]),
        ("multicolor/w2/fused/replicated", (42288, 26), [(20976, 12, 0, 4608632158400617731, 0), (20976, 12, 0, 4607210913014694081, 0)]),
        ("multicolor/w2/fused/sharded", (42288, 26), [(20976, 12, 0, 4608632158400617731, 0), (20976, 12, 0, 4607210913014694081, 0)]),
        ("multicolor/w2/drain/replicated", (42288, 122), [(20976, 60, 30, 4608632158400617731, 0), (20976, 60, 30, 4607210913014694081, 0)]),
        ("multicolor/w2/drain/sharded", (51312, 110), [(25488, 54, 30, 4608632158400617731, 0), (25488, 54, 30, 4607210913014694081, 0)]),
        ("multicolor/w2/hooked/replicated", (42288, 122), [(20976, 60, 30, 4608632158400617731, 0), (20976, 60, 30, 4607210913014694081, 0)]),
        ("multicolor/w2/hooked/sharded", (51312, 110), [(25488, 54, 30, 4608632158400617731, 0), (25488, 54, 30, 4607210913014694081, 0)]),
        ("multicolor/w3/fused/replicated", (38304, 36), [(18656, 16, 0, 4608845318705986953, 0), (18656, 16, 0, 4607345403100759925, 0)]),
        ("multicolor/w3/fused/sharded", (38272, 36), [(18640, 16, 0, 4608845318705986953, 0), (18640, 16, 0, 4607345403100759925, 0)]),
        ("multicolor/w3/drain/replicated", (38304, 164), [(18656, 80, 20, 4608845318743314549, 0), (18656, 80, 20, 4607345403115794811, 0)]),
        ("multicolor/w3/drain/sharded", (42304, 132), [(20656, 64, 20, 4608845318743314549, 0), (20656, 64, 20, 4607345403115794811, 0)]),
        ("multicolor/w3/hooked/replicated", (38304, 164), [(18656, 80, 20, 4608845318743314549, 0), (18656, 80, 20, 4607345403115794811, 0)]),
        ("multicolor/w3/hooked/sharded", (42304, 132), [(20656, 64, 20, 4608845318743314549, 0), (20656, 64, 20, 4607345403115794811, 0)]),
        ("ring-reduce-scatter/w2/hooked/replicated/fp16", (42288, 122), [(20976, 60, 30, 4608632138296352319, 0), (20976, 60, 30, 4607211123083706365, 0)]),
        ("ring-reduce-scatter/w3/hooked/replicated/val", (38272, 164), [(18640, 80, 20, 4608845318711261181, 4602678819172646912), (18640, 80, 20, 4607345403130227696, 4598738169498697728)]),
        ("multicolor/w2/fused/sharded/m1", (42288, 26), [(20976, 12, 0, 4608107045475401115, 0), (20976, 12, 0, 4605621887679148411, 0)]),
        ("ring-reduce-scatter/w3/hooked/replicated/m1", (38272, 164), [(18640, 80, 20, 4608586333762764639, 0), (18640, 80, 20, 4606241119460428355, 0)]),
    ];

    #[test]
    fn exchange_traffic_and_loss_match_the_golden_capture() {
        use dcnn_collectives::ClusterBuilder;
        let ds = tiny_ds();
        // (algorithm, ranks, schedule, sharded, fp16, replicas per rank,
        // validation)
        let (ring, multicolor) = (AllreduceAlgo::RingReduceScatter, AllreduceAlgo::MultiColor(4));
        let mut modes = Vec::new();
        for algo in [ring, multicolor] {
            for nodes in [2, 3] {
                for sched in ["fused", "drain", "hooked"] {
                    let mode = |shd| (algo, nodes, sched, shd, false, 2, false);
                    modes.extend([false, true].map(mode));
                }
            }
        }
        modes.push((ring, 2, "hooked", false, true, 2, false));
        modes.push((ring, 3, "hooked", false, false, 2, true));
        // One replica per rank, as the benchmark's workloads run: the merge
        // has no second replica to add and the sharded step no other
        // replica to rebroadcast to.
        modes.push((multicolor, 2, "fused", true, false, 1, false));
        modes.push((ring, 3, "hooked", false, false, 1, false));

        let mut actual = Vec::new();
        for (algo, nodes, sched, sharded, fp16, gpus, validate) in modes {
            let mut cfg = tiny_cfg(nodes, 2);
            cfg.algo = algo.into();
            // 1 KiB buckets: five per step on the tiny model.
            cfg.bucket_bytes = if sched == "fused" { 0 } else { 1024 };
            cfg.overlap = if sched == "drain" { OverlapMode::Drain } else { OverlapMode::Hooked };
            cfg.shard_optim = sharded;
            cfg.fp16_grads = fp16;
            // Eight images per rank and step, whatever the split.
            cfg.gpus_per_node = gpus;
            cfg.batch_per_gpu = 8 / gpus;
            cfg.validate = validate;
            cfg.shuffle_every_epochs = 0;
            let run = ClusterBuilder::new(nodes)
                .run(|comm| train_on_comm(comm, &cfg, &ds, &tiny_factory));
            let mut name = format!("{algo}/w{nodes}/{sched}/");
            name += if sharded { "sharded" } else { "replicated" };
            name += if fp16 { "/fp16" } else { "" };
            name += if gpus == 1 { "/m1" } else { "" };
            name += if validate { "/val" } else { "" };
            let epochs: Vec<(u64, u64, u64, u64, u64)> = run.results[0]
                .iter()
                .map(|s| {
                    let bits = (s.train_loss.to_bits(), s.val_acc.to_bits());
                    (s.comm_bytes, s.comm_msgs, s.buckets_launched, bits.0, bits.1)
                })
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
        // every epoch row.
        let ds = tiny_ds();
        let mut cfg = tiny_cfg(4, 4);
        cfg.algo =
            AlgoPolicy::Auto(vec![AllreduceAlgo::PipelinedRing, AllreduceAlgo::HalvingDoubling]);
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
