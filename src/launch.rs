//! Registered workloads for `dcnn-launch`, the multi-process runner.
//!
//! A workload is a plain `fn(&Comm) -> Result<Vec<String>, CommError>`: it
//! runs on every rank of a cluster and returns report lines (rank 0's lines
//! are what the launcher prints), or the dead peer that ended it. Keeping workloads transport-agnostic is the point —
//! the same function body runs on the threaded fabric inside one process
//! and across N OS processes over TCP, and because every line is derived
//! from deterministic math, the outputs must match byte-for-byte. The
//! integration tests (`tests/transport_process.rs`) compare exactly that.

use dcnn_collectives::primitives::try_allgather_bytes;
use dcnn_collectives::transport::{crc32_f32, crc32_update};
use dcnn_collectives::{AlgoPolicy, AllreduceAlgo, Comm, CommError, RuntimeConfig};
use dcnn_dimd::{open_source, Dimd, Hello, SynthConfig, SynthImageNet};
use dcnn_tensor::optim::LrSchedule;
use dcnn_trainer::cell::CELL_ENV;
use dcnn_trainer::{try_train_on_comm, CellSpec, EpochStats, TrainConfig};

/// A workload's entry point: this rank's report lines, or the dead peer
/// that ended its run.
type Workload = fn(&Comm) -> Result<Vec<String>, CommError>;

/// Names every registered workload, in registry order.
pub fn workload_names() -> &'static [&'static str] {
    &[
        "allreduce",
        "quickstart-epoch",
        "bucketed-epoch",
        "overlap-epoch",
        "fault-epoch",
        "sharded-epoch",
        "autotune-epoch",
        "data-epoch",
        "data-storm",
        "eval-cell",
    ]
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    match name {
        "allreduce" => Some(allreduce_workload),
        "quickstart-epoch" => Some(quickstart_epoch_workload),
        "bucketed-epoch" => Some(bucketed_epoch_workload),
        "overlap-epoch" => Some(overlap_epoch_workload),
        "fault-epoch" => Some(fault_epoch_workload),
        "sharded-epoch" => Some(sharded_epoch_workload),
        "autotune-epoch" => Some(autotune_epoch_workload),
        "data-epoch" => Some(data_epoch_workload),
        "data-storm" => Some(data_storm_workload),
        "eval-cell" => Some(eval_cell_workload),
        _ => None,
    }
}

/// The `DCNN_*` environment, parsed strictly — a malformed value aborts the
/// workload with a message naming the variable rather than training with a
/// silently ignored override.
fn runtime() -> RuntimeConfig {
    RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Rank `rank`'s deterministic input value at element `i` — the same
/// pattern the allreduce equivalence tests use, so results are comparable
/// across test layers.
pub fn contribution(rank: usize, i: usize, seed: u64) -> f32 {
    let x = (rank as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(i as u64)
        .wrapping_add(seed);
    ((x % 1000) as f32 - 500.0) / 250.0
}

/// Every allreduce algorithm (including multicolor) over deterministic
/// per-rank data. Each rank fingerprints its result buffer; an allgather
/// asserts every rank produced the *bitwise* same sums, then rank 0's
/// report carries one `allreduce <name> ... crc=<hex>` line per algorithm
/// plus the per-rank `bytes_sent`/`msgs_sent` counters accumulated up to
/// that point. Both the crc and the counters are backend-invariant, which
/// is exactly what the thread-vs-TCP smoke comparison checks.
pub fn allreduce_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    const LEN: usize = 260;
    const SEED: u64 = 42;
    let mut lines = Vec::new();
    for algo in AllreduceAlgo::all() {
        let a = algo.build();
        let mut buf: Vec<f32> =
            (0..LEN).map(|i| contribution(comm.rank(), i, SEED)).collect();
        a.try_run(comm, &mut buf)?;
        // CRC-32 over the exact bit patterns: matches only when two
        // results are bitwise identical.
        let crc = !crc32_f32(!0, &buf);
        let all = try_allgather_bytes(comm, crc.to_le_bytes().to_vec())?;
        for (r, b) in all.iter().enumerate() {
            let theirs = u32::from_le_bytes(b.as_slice().try_into().expect("4"));
            assert_eq!(
                theirs,
                crc,
                "{}: rank {} disagrees with rank {r}",
                a.name(),
                comm.rank()
            );
        }
        lines.push(format!("allreduce {} len={LEN} crc={crc:08x}", a.name()));
    }
    // Counter snapshot before the stats exchange itself, gathered so rank
    // 0's report covers every rank.
    let s = comm.stats();
    let mut mine = Vec::with_capacity(16);
    mine.extend_from_slice(&s.bytes_sent.to_le_bytes());
    mine.extend_from_slice(&s.msgs_sent.to_le_bytes());
    for (r, b) in try_allgather_bytes(comm, mine)?.iter().enumerate() {
        let bytes = u64::from_le_bytes(b[0..8].try_into().expect("8"));
        let msgs = u64::from_le_bytes(b[8..16].try_into().expect("8"));
        lines.push(format!("stats rank={r} bytes_sent={bytes} msgs_sent={msgs}"));
    }
    Ok(lines)
}

/// What sets one `*-epoch` workload's training run apart from the others;
/// everything else about the run is shared (see [`train_epochs`]).
struct EpochSpec {
    /// Training images per class of the synthetic set.
    train_per_class: usize,
    /// Validation images per class (generated, never evaluated).
    val_per_class: usize,
    /// Epochs to train.
    epochs: usize,
    /// ResNet `(base_width, init seed)`.
    model: (usize, u64),
    /// Cross-node shuffle cadence in epochs (0 = never).
    shuffle_every: usize,
}

/// The quickstart ResNet: small enough that an epoch is a smoke test.
const QUICKSTART_MODEL: (usize, u64) = (6, 77);
/// A wider ResNet with enough parameters to split into many buckets.
const WIDE_MODEL: (usize, u64) = (24, 78);
/// Network input crop of every `*-epoch` workload.
const EPOCH_CROP: usize = 16;

/// The 4-class 16×16 synthetic set the `*-epoch` workloads train on.
fn epoch_synth(train_per_class: usize, val_per_class: usize) -> SynthConfig {
    let mut synth = SynthConfig::tiny(4);
    synth.train_per_class = train_per_class;
    synth.val_per_class = val_per_class;
    synth.base_hw = 16;
    synth
}

/// The training run every `*-epoch` workload shares: every rank regenerates
/// the same synthetic dataset from the same seed, exactly as separate nodes
/// would, and trains a one-block ResNet for `spec.epochs` epochs under the
/// `DCNN_*` runtime (2 GPUs per node, batch 4 per GPU, constant 0.05
/// learning rate, no validation). `overrides` runs last, for the settings a
/// single workload pins or defaults differently.
fn train_epochs(
    comm: &Comm,
    spec: &EpochSpec,
    overrides: impl FnOnce(&mut TrainConfig, &RuntimeConfig),
) -> Result<Vec<EpochStats>, CommError> {
    let ds = SynthImageNet::new(epoch_synth(spec.train_per_class, spec.val_per_class));
    let rt = runtime();
    let mut cfg = TrainConfig::from_runtime(comm.size(), 2, 4, spec.epochs, &rt);
    cfg.crop = EPOCH_CROP;
    cfg.validate = false;
    cfg.shuffle_every_epochs = spec.shuffle_every;
    cfg.lr = LrSchedule {
        init_lr: 0.05,
        base_lr: 0.05,
        warmup_epochs: 1.0,
        step_epochs: 100.0,
        decay: 0.1,
    };
    overrides(&mut cfg, &rt);
    let (base_width, seed) = spec.model;
    try_train_on_comm(comm, &cfg, &ds, &|| {
        crate::models::resnet::ResNetConfig {
            blocks: vec![1],
            base_width,
            bottleneck: false,
            classes: 4,
            input: [3, 16, 16],
            imagenet_stem: false,
        }
        .build(seed)
    })
}

/// One `epoch N loss=… acc=…` report line per epoch. The loss is printed to
/// full precision: training math is deterministic, so backends and modes
/// that claim equivalence must agree on every bit of it.
fn epoch_lines(stats: &[EpochStats]) -> Vec<String> {
    stats
        .iter()
        .map(|s| format!("epoch {} loss={} acc={:.4}", s.epoch, s.train_loss, s.train_acc))
        .collect()
}

/// One epoch of the quickstart training run (scaled ResNet, DIMD
/// partitions with the cross-node shuffle on, multicolor allreduce) on
/// however many ranks the cluster has.
pub fn quickstart_epoch_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let spec = EpochSpec {
        train_per_class: 24,
        val_per_class: 8,
        epochs: 1,
        model: QUICKSTART_MODEL,
        shuffle_every: 1,
    };
    Ok(epoch_lines(&train_epochs(comm, &spec, |_, _| {})?))
}

/// One epoch of overlap-aware training: a wider ResNet than the quickstart
/// (enough parameters to split into many buckets) trained with whatever
/// `DCNN_BUCKET_BYTES` says — `0`/unset keeps the fused blocking exchange,
/// anything else packs reverse-layer buckets and launches their allreduces
/// nonblocking (from the backward hook by default; `DCNN_OVERLAP_MODE=drain`
/// defers the launches to after backward). The epoch lines carry the loss to
/// full precision; at two ranks every per-element gradient sum is a single
/// f32 addition, so the bucketed run must reproduce the blocking loss
/// *bitwise* and `ci.sh` diffs exactly that. The trailing `inflight_hwm=`
/// line reports the cluster-wide high-water mark of concurrently in-flight
/// bucket reduces — the observable proof that the overlap engine actually
/// overlapped.
pub fn bucketed_epoch_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let spec = EpochSpec {
        train_per_class: 12,
        val_per_class: 4,
        epochs: 1,
        model: WIDE_MODEL,
        shuffle_every: 0,
    };
    let stats = train_epochs(comm, &spec, |_, _| {})?;
    let mut lines = epoch_lines(&stats);
    let hwm = stats.iter().map(|s| s.async_inflight_hwm).max().unwrap_or(0);
    lines.push(format!("inflight_hwm={hwm}"));
    Ok(lines)
}

/// Two epochs of backward-hook overlap training on the wide ResNet. Same
/// model and data as [`bucketed_epoch_workload`] but longer, so the
/// `overlap_frac=` line (cluster-max fraction of async reduce time hidden
/// behind other work, best epoch) is a stable measurement: `ci.sh` runs
/// this workload blocking, drain-bucketed and hook-bucketed, checks the
/// `epoch` lines agree bitwise across all three, and asserts the hooked
/// schedule hides strictly more reduce time than the end-of-backward drain
/// schedule. The trailing `inflight_hwm=` line proves reduces overlapped.
pub fn overlap_epoch_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let spec = EpochSpec {
        train_per_class: 12,
        val_per_class: 4,
        epochs: 2,
        model: WIDE_MODEL,
        shuffle_every: 0,
    };
    let stats = train_epochs(comm, &spec, |_, _| {})?;
    let mut lines = epoch_lines(&stats);
    let overlap = stats.iter().map(|s| s.overlap_frac).fold(0.0, f64::max);
    let hwm = stats.iter().map(|s| s.async_inflight_hwm).max().unwrap_or(0);
    lines.push(format!("overlap_frac={overlap:.6}"));
    lines.push(format!("inflight_hwm={hwm}"));
    Ok(lines)
}

/// Failure-path workload for the fault-injection harness: three epochs of
/// the quickstart model, with `DCNN_FAULT` (parsed through `RuntimeConfig`
/// and overlaid by `TrainConfig::apply_runtime`) arming per-step stderr
/// heartbeats and, for `kill-after-step=N[@R]`, an abort of rank `R` right
/// after its `N`th optimizer step — several steps into epoch 0 for small
/// `N`. A clean run (no fault set) prints the usual epoch lines; a faulted
/// TCP run is expected to die — the victim via `abort()`, every survivor
/// with a structured `PeerDead` report naming it — which is exactly what
/// `tests/transport_process.rs` and the `ci.sh` fault smoke assert on.
pub fn fault_epoch_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let spec = EpochSpec {
        train_per_class: 24,
        val_per_class: 4,
        epochs: 3,
        model: QUICKSTART_MODEL,
        shuffle_every: 0,
    };
    Ok(epoch_lines(&train_epochs(comm, &spec, |_, _| {})?))
}

/// Two epochs of the wide ResNet on the ring-reduce-scatter algorithm,
/// trained with whatever sync strategy `DCNN_SHARD_OPTIM` selects — unset
/// keeps the replicated path (allreduce + full-replica SGD), `1` shards the
/// optimizer (reduce-scatter gradients → shard-local step → allgather
/// parameters). The ring algorithm is forced because its reduce-scatter
/// schedule anchors every element's sum at the owner rank, so the sharded
/// run must reproduce the replicated loss *bitwise* at any world size —
/// `four_process_sharded_epoch_matches_replicated_bitwise` diffs the `epoch`
/// lines of both modes at four ranks. The trailing `resident rank=…` lines
/// gather each rank's measured parameter and optimizer residency: the
/// sharded run's `opt_bytes` must shrink by ~world-size ×, which is the
/// strategy's memory win, measured.
pub fn sharded_epoch_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let spec = EpochSpec {
        train_per_class: 24,
        val_per_class: 4,
        epochs: 2,
        model: WIDE_MODEL,
        shuffle_every: 0,
    };
    let stats = train_epochs(comm, &spec, |cfg, _| {
        cfg.algo = AllreduceAlgo::RingReduceScatter.into();
    })?;
    let mut lines = epoch_lines(&stats);
    // Gather the last epoch's measured residency from every rank so rank
    // 0's report carries the whole cluster's memory picture.
    let last = stats.last().expect("at least one epoch");
    let mut mine = Vec::with_capacity(16);
    mine.extend_from_slice(&last.resident_param_bytes.to_le_bytes());
    mine.extend_from_slice(&last.resident_opt_bytes.to_le_bytes());
    for (r, b) in try_allgather_bytes(comm, mine)?.iter().enumerate() {
        let param = u64::from_le_bytes(b[0..8].try_into().expect("8"));
        let opt = u64::from_le_bytes(b[8..16].try_into().expect("8"));
        lines.push(format!("resident rank={r} param_bytes={param} opt_bytes={opt}"));
    }
    Ok(lines)
}

/// Three epochs of the wide ResNet under the self-tuning collective
/// selector. Unless `DCNN_ALGO` overrides it, the policy is
/// `auto:ring,halving-doubling` — before the first step both candidates are
/// timed on each bucket size class, the measured crossover table is
/// cluster-agreed, and all three epochs train on those per-size choices.
/// `DCNN_BUCKET_BYTES` defaults to 4096 here so there are real buckets to
/// measure. The epoch lines carry the loss to full precision; the trailing
/// `decisions rank=…` lines gather every rank's final decision table, which
/// must be identical on all ranks (the table is agreed before it is used) —
/// `four_process_autotune_epoch_agrees_and_matches_fixed_bitwise` asserts
/// that, plus bitwise-equal losses against a fixed run when the candidate
/// set is pinned to one algorithm.
pub fn autotune_epoch_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let spec = EpochSpec {
        train_per_class: 12,
        val_per_class: 4,
        epochs: 3,
        model: WIDE_MODEL,
        shuffle_every: 0,
    };
    let stats = train_epochs(comm, &spec, |cfg, rt| {
        if rt.algo.is_none() {
            cfg.algo = AlgoPolicy::Auto(vec![
                AllreduceAlgo::PipelinedRing,
                AllreduceAlgo::HalvingDoubling,
            ]);
        }
        if rt.bucket_bytes.is_none() {
            cfg.bucket_bytes = 4096;
        }
    })?;
    let mut lines = epoch_lines(&stats);
    // Gather every rank's final decision table so rank 0's report proves
    // (or disproves) cluster-wide agreement.
    let last = stats.last().expect("at least one epoch");
    for (r, b) in try_allgather_bytes(comm, last.algo_choices.clone().into_bytes())?
        .iter()
        .enumerate()
    {
        let table = String::from_utf8_lossy(b);
        lines.push(format!("decisions rank={r} {table}"));
    }
    Ok(lines)
}

/// One `dcnn-eval` matrix cell on real OS processes: read the [`CellSpec`]
/// the harness handed over in the [`CELL_ENV`] handshake (the default cell
/// when it is unset), measure it on this communicator, cross-check the
/// reduction fingerprint across every rank, and report rank 0's
/// measurement as a single JSON line — the only stdout line, so the
/// harness can parse it straight off `dcnn-launch`'s output.
pub fn eval_cell_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let handshake = std::env::var(CELL_ENV).ok();
    let cell = CellSpec::from_handshake(handshake.as_deref(), comm.size())
        .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()));
    let m = cell
        .measure_on_comm(comm)
        .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()))?;
    for (r, b) in try_allgather_bytes(comm, m.fingerprint.to_le_bytes().to_vec())?
        .iter()
        .enumerate()
    {
        let theirs = u32::from_le_bytes(b.as_slice().try_into().expect("4"));
        assert_eq!(
            theirs,
            m.fingerprint,
            "cell {}: rank {} disagrees with rank {r} on the reduced bits",
            cell.id(),
            comm.rank()
        );
    }
    Ok(vec![m.to_json()])
}

/// The dataset and shuffle parameters shared by the data-plane workloads
/// (`data-epoch`, `data-storm`) and the `dcnn-data-server` binary. The
/// trainers and the servers are separate OS processes that never exchange
/// configuration beyond the [`Hello`] handshake, so both sides derive the
/// dataset, the per-rank partition seeds and the epoch-shuffle parameters
/// from this one function — config skew here is exactly what the server's
/// handshake cross-check exists to catch.
#[derive(Clone)]
pub struct DataPlaneSpec {
    /// Synthetic dataset shape (identical on every participant).
    pub synth: SynthConfig,
    /// DIMD codec quality.
    pub quality: u8,
    /// Base seed; rank `r`'s partition uses `seed ^ (r << 20)`.
    pub seed: u64,
    /// Epochs the job runs.
    pub epochs: usize,
    /// Cross-node shuffle cadence (epochs).
    pub shuffle_every: usize,
    /// Algorithm 2 segmentation cap, deliberately tiny so even this toy
    /// dataset forces multi-round segmented exchanges.
    pub segment_bytes: usize,
    /// Network input crop.
    pub crop: usize,
}

/// The one spec both data-plane workloads and the server binary share.
pub fn data_plane_spec() -> DataPlaneSpec {
    DataPlaneSpec {
        synth: epoch_synth(24, 4),
        quality: 70,
        seed: 42,
        epochs: 2,
        shuffle_every: 1,
        segment_bytes: 2048,
        crop: EPOCH_CROP,
    }
}

/// Load the [`Dimd`] partition for virtual rank `v` of `world` under the
/// data-plane spec — the same call the trainer makes in-process and the
/// blob server makes on behalf of its hosted ranks.
pub fn data_plane_partition(spec: &DataPlaneSpec, ds: &SynthImageNet, v: usize, world: usize) -> Dimd {
    Dimd::load_partition(ds, v, world, spec.quality, spec.seed ^ ((v as u64) << 20))
}

/// Two epochs of quickstart-model training with the cross-node epoch
/// shuffle on (cadence 1) and a deliberately small Algorithm 2 segment cap,
/// so epoch 1's batches depend on a real multi-round segmented alltoallv.
/// With `DCNN_DATA_SERVICE` set, every rank streams its batches from the
/// blob-server fleet instead of loading a partition in-process — and must
/// print byte-identical `epoch` lines, which is the data plane's
/// correctness contract (`tests/data_plane_process.rs` diffs exactly that).
pub fn data_epoch_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let plane = data_plane_spec();
    let spec = EpochSpec {
        train_per_class: plane.synth.train_per_class,
        val_per_class: plane.synth.val_per_class,
        epochs: plane.epochs,
        model: QUICKSTART_MODEL,
        shuffle_every: plane.shuffle_every,
    };
    let stats = train_epochs(comm, &spec, |cfg, _| {
        cfg.quality = plane.quality;
        cfg.seed = plane.seed;
        cfg.shuffle_segment_bytes = plane.segment_bytes;
    })?;
    Ok(epoch_lines(&stats))
}

/// Data-plane soak: every rank is a pure *consumer* — no model, no SGD —
/// that drains its full share of batches for all epochs and fingerprints
/// every byte it saw. With `DCNN_DATA_SERVICE` set the ranks hammer the
/// blob-server fleet concurrently (the many-client storm); without it each
/// rank serves itself in-process from the same partitions. Both modes must
/// emit identical `storm rank=` lines — the service can't lose, duplicate
/// or reorder a batch without changing a crc.
pub fn data_storm_workload(comm: &Comm) -> Result<Vec<String>, CommError> {
    let spec = data_plane_spec();
    let ds = SynthImageNet::new(spec.synth.clone());
    let rt = runtime();
    let n = comm.size();
    let me = comm.rank();
    let batch = 4;
    let iterations = (ds.train_len() / (batch * n)).max(1);
    let hello = Hello {
        rank: me,
        world: n,
        batch,
        requests_per_epoch: iterations,
        epochs: spec.epochs,
        shuffle_every: spec.shuffle_every,
        segment_bytes: spec.segment_bytes as u64,
    };
    let mut source = open_source(
        comm,
        rt.data_service.as_deref(),
        || data_plane_partition(&spec, &ds, me, n),
        hello,
        spec.crop,
        rt.data_prefetch_depth_or_default(),
        rt.data_decode_workers_or_default(),
        rt.connect_timeout_or_default(),
    )
    .unwrap_or_else(|e| panic!("rank {me}: {e}"));

    let mut crc = !0u32;
    let mut batches = 0usize;
    for epoch in 0..spec.epochs {
        source.try_begin_epoch(epoch)?;
        for _ in 0..iterations {
            let (x, labels) = source.try_next_batch()?;
            crc = crc32_f32(crc, x.data());
            for l in &labels {
                crc = crc32_update(crc, &(*l as u64).to_le_bytes());
            }
            batches += 1;
        }
        let shuffle_due =
            spec.shuffle_every > 0 && (epoch + 1) % spec.shuffle_every == 0;
        source.try_end_epoch(epoch, shuffle_due)?;
    }
    source.finish();
    let crc = !crc;

    // Rank 0's report covers every rank: gather (batches, crc) pairs.
    let mut mine = Vec::with_capacity(12);
    mine.extend_from_slice(&(batches as u64).to_le_bytes());
    mine.extend_from_slice(&crc.to_le_bytes());
    Ok(try_allgather_bytes(comm, mine)?
        .iter()
        .enumerate()
        .map(|(r, b)| {
            let n_batches = u64::from_le_bytes(b[0..8].try_into().expect("8"));
            let c = u32::from_le_bytes(b[8..12].try_into().expect("4"));
            format!("storm rank={r} batches={n_batches} crc={c:08x}")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `w`'s lines on each rank of a two-rank threaded cluster.
    fn on_threads(w: Workload) -> Vec<Vec<String>> {
        dcnn_collectives::run_cluster(2, |c| w(c).expect("no peer dies"))
    }

    #[test]
    fn registry_resolves_every_name() {
        for name in workload_names() {
            assert!(workload(name).is_some(), "{name} missing from registry");
        }
        assert!(workload("no-such-workload").is_none());
    }

    #[test]
    fn allreduce_workload_reports_on_threads() {
        let out = on_threads(allreduce_workload);
        let lines = &out[0];
        let algos = AllreduceAlgo::all().len();
        assert_eq!(lines.len(), algos + 2, "{lines:?}");
        assert!(lines[0].starts_with("allreduce "));
        assert!(lines[algos].starts_with("stats rank=0 "));
        // Identical report on every rank (the workload asserts bitwise
        // agreement internally, so the lines must match too).
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn overlap_epoch_workload_reports_on_threads() {
        let out = on_threads(overlap_epoch_workload);
        let lines = &out[0];
        assert_eq!(lines.len(), 4, "{lines:?}"); // two epochs + overlap + hwm
        assert!(lines[0].starts_with("epoch 0 loss="), "{lines:?}");
        assert!(lines[2].starts_with("overlap_frac="), "{lines:?}");
        assert!(lines[3].starts_with("inflight_hwm="), "{lines:?}");
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn sharded_epoch_workload_reports_on_threads() {
        let out = on_threads(sharded_epoch_workload);
        let lines = &out[0];
        assert_eq!(lines.len(), 4, "{lines:?}"); // two epochs + two resident lines
        assert!(lines[0].starts_with("epoch 0 loss="), "{lines:?}");
        assert!(lines[1].starts_with("epoch 1 loss="), "{lines:?}");
        assert!(lines[2].starts_with("resident rank=0 param_bytes="), "{lines:?}");
        assert!(lines[3].starts_with("resident rank=1 param_bytes="), "{lines:?}");
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn autotune_epoch_workload_converges_and_agrees_on_threads() {
        let out = on_threads(autotune_epoch_workload);
        let lines = &out[0];
        assert_eq!(lines.len(), 5, "{lines:?}"); // three epochs + two decisions lines
        assert!(lines[0].starts_with("epoch 0 loss="), "{lines:?}");
        assert!(lines[3].starts_with("decisions rank=0 "), "{lines:?}");
        assert!(lines[4].starts_with("decisions rank=1 "), "{lines:?}");
        // After the two probe epochs the table is frozen: real size-class
        // entries, not the probe placeholder — and identical on every rank.
        let table = |l: &str| l.splitn(3, ' ').nth(2).map(str::to_string).expect("table");
        assert!(table(&lines[3]).contains("<="), "{lines:?}");
        assert_eq!(table(&lines[3]), table(&lines[4]), "ranks disagree: {lines:?}");
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn eval_cell_workload_emits_one_json_measurement_per_rank() {
        let out = on_threads(eval_cell_workload);
        for lines in &out {
            assert_eq!(lines.len(), 1, "{lines:?}");
        }
        let parse = |l: &str| -> dcnn_collectives::CellMeasurement {
            dcnn_collectives::CellMeasurement::from_json(l).expect("measurement JSON")
        };
        let (m0, m1) = (parse(&out[0][0]), parse(&out[1][0]));
        assert!(m0.wall_ns > 0 && m0.bytes > 0);
        assert_eq!(m0.link_bytes_sent.len(), 2);
        // Wall times and link counters are per-rank, but the reduced bits
        // are not — the workload itself asserts cross-rank agreement.
        assert_eq!(m0.fingerprint, m1.fingerprint);
    }

    #[test]
    fn bucketed_epoch_workload_reports_on_threads() {
        let out = on_threads(bucketed_epoch_workload);
        let lines = &out[0];
        assert_eq!(lines.len(), 2, "{lines:?}"); // one epoch + hwm line
        assert!(lines[0].starts_with("epoch 0 loss="), "{lines:?}");
        assert!(lines[1].starts_with("inflight_hwm="), "{lines:?}");
        // Training math is deterministic: every rank reports the same bits.
        assert_eq!(out[0], out[1]);
    }
}
