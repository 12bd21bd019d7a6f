//! Asynchronous SGD — the paper's stated future work (§6: "we would like to
//! explore the use and impact of our optimizations for the case of
//! asynchronous SGD").
//!
//! Rank 0 is a parameter server (the MPI approach the paper's related-work
//! section describes for \[25\]); ranks 1..n are workers. A worker pulls the
//! current weights, computes a gradient on a DIMD-served batch, and pushes
//! it with the weight *version* it was computed from. The server applies
//! whichever gradient arrives first — workers never wait for each other —
//! and can damp stale gradients by `1/(1+staleness)` (the staleness-aware
//! rule of Zhang et al., the paper's reference \[10\]).

use dcnn_collectives::run_cluster;
use dcnn_collectives::runtime::{Comm, CommError, Payload};
use dcnn_dimd::{Dimd, SynthImageNet};
use dcnn_dpt::{DptExecutor, DptStrategy};
use dcnn_tensor::layers::{collect_params, set_grads, set_params, Module};
use dcnn_tensor::optim::{Sgd, SgdConfig};
use serde::Serialize;

const TAG_META: u32 = 0x0D00_0000;
const TAG_GRAD: u32 = 0x0D00_0001;
const TAG_PARAMS: u32 = 0x0D00_0002;
const TAG_VERSION: u32 = 0x0D00_0003;
const TAG_VAL: u32 = 0x0D00_0004;

/// Sentinel version telling a worker to stop.
const STOP: u64 = u64::MAX;

/// Asynchronous-training configuration.
#[derive(Clone)]
pub struct AsyncConfig {
    /// Worker ranks (total ranks = workers + 1 for the server).
    pub workers: usize,
    /// Simulated GPUs per worker.
    pub gpus_per_worker: usize,
    /// Batch per GPU.
    pub batch_per_gpu: usize,
    /// Gradient applications at the server.
    pub steps: usize,
    /// Learning rate (fixed; async runs are short here).
    pub lr: f32,
    /// Damp stale gradients by `1/(1+staleness)`.
    pub staleness_damping: bool,
    /// Input crop.
    pub crop: usize,
    /// DIMD codec quality.
    pub quality: u8,
    /// Seed.
    pub seed: u64,
    /// SGD hyper-parameters (momentum lives on the server).
    pub sgd: SgdConfig,
}

impl AsyncConfig {
    /// A small default: `workers` workers, one GPU each.
    pub fn new(workers: usize, steps: usize) -> Self {
        AsyncConfig {
            workers,
            gpus_per_worker: 1,
            batch_per_gpu: 4,
            steps,
            lr: 0.05,
            staleness_damping: true,
            crop: 16,
            quality: 70,
            seed: 0xA5F1C,
            sgd: SgdConfig::default(),
        }
    }
}

/// Outcome of an asynchronous run (from the server).
#[derive(Debug, Clone, Serialize)]
pub struct AsyncStats {
    /// Worker-reported losses in application order.
    pub losses: Vec<f64>,
    /// Staleness of each applied gradient.
    pub staleness: Vec<u64>,
    /// Final top-1 validation accuracy (server-side evaluation).
    pub val_acc: f64,
}

impl AsyncStats {
    /// Mean loss of the first `k` applications.
    pub fn early_loss(&self, k: usize) -> f64 {
        let k = k.min(self.losses.len()).max(1);
        self.losses[..k].iter().sum::<f64>() / k as f64
    }

    /// Mean loss of the last `k` applications.
    pub fn late_loss(&self, k: usize) -> f64 {
        let k = k.min(self.losses.len()).max(1);
        self.losses[self.losses.len() - k..].iter().sum::<f64>() / k as f64
    }

    /// Largest observed staleness.
    pub fn max_staleness(&self) -> u64 {
        self.staleness.iter().copied().max().unwrap_or(0)
    }
}

fn send_params(comm: &Comm, dst: usize, version: u64, params: &[f32]) {
    comm.send_bytes(dst, TAG_VERSION, version.to_le_bytes().to_vec());
    // Final weights ride along with STOP so workers can validate with them
    // (workers hold the trained BatchNorm running statistics, which the
    // server's master copy never sees — gradients don't carry them).
    comm.send_f32(dst, TAG_PARAMS, params);
}

fn server(
    comm: &Comm,
    cfg: &AsyncConfig,
    mut master: Box<dyn Module>,
) -> Result<AsyncStats, CommError> {
    let sgd = Sgd::new(cfg.sgd.clone());
    let mut version = 0u64;
    let params = collect_params(master.as_mut());
    for w in 1..comm.size() {
        send_params(comm, w, version, &params);
    }
    let mut losses = Vec::with_capacity(cfg.steps);
    let mut staleness = Vec::with_capacity(cfg.steps);
    let mut active = comm.size() - 1;
    while losses.len() < cfg.steps || active > 0 {
        let (src, meta) = comm.recv_any(TAG_META)?;
        let meta = meta.into_bytes();
        let grad_version = u64::from_le_bytes(meta[0..8].try_into().expect("8"));
        let loss = f64::from_le_bytes(meta[8..16].try_into().expect("8"));
        let grad = comm.recv(src, TAG_GRAD)?.into_f32();
        if losses.len() < cfg.steps {
            let stale = version - grad_version;
            let damp = if cfg.staleness_damping { 1.0 / (1.0 + stale as f32) } else { 1.0 };
            set_grads(master.as_mut(), &grad);
            sgd.step(master.as_mut(), cfg.lr * damp);
            version += 1;
            losses.push(loss);
            staleness.push(stale);
        }
        let params = collect_params(master.as_mut());
        if losses.len() < cfg.steps {
            send_params(comm, src, version, &params);
        } else {
            send_params(comm, src, STOP, &params);
            active -= 1;
        }
    }

    // Workers validate their shard of the val set with the final weights
    // (they own trained BN statistics) and report (correct, count).
    let mut correct = 0u64;
    let mut count = 0u64;
    for _ in 1..comm.size() {
        let (_, meta) = comm.recv_any(TAG_VAL)?;
        let meta = meta.into_bytes();
        correct += u64::from_le_bytes(meta[0..8].try_into().expect("8"));
        count += u64::from_le_bytes(meta[8..16].try_into().expect("8"));
    }
    Ok(AsyncStats { losses, staleness, val_acc: correct as f64 / count.max(1) as f64 })
}

fn worker(
    comm: &Comm,
    cfg: &AsyncConfig,
    ds: &SynthImageNet,
    factory: &(impl Fn() -> Box<dyn Module> + Sync),
) -> Result<(), CommError> {
    let me = comm.rank();
    let mut dimd = Dimd::load_partition(
        ds,
        me - 1,
        comm.size() - 1,
        cfg.quality,
        cfg.seed ^ (me as u64) << 24,
    );
    let mut exec = DptExecutor::new(cfg.gpus_per_worker, factory);
    let batch_node = cfg.batch_per_gpu * cfg.gpus_per_worker;
    loop {
        let vbytes = comm.recv(0, TAG_VERSION)?.into_bytes();
        let version = u64::from_le_bytes(vbytes.as_slice().try_into().expect("8"));
        let params = comm.recv(0, TAG_PARAMS)?.into_f32();
        exec.set_params_all(&params);
        if version == STOP {
            break;
        }
        let (x, labels) = dimd.random_batch(batch_node, cfg.crop);
        let out = exec.step(&x, &labels, DptStrategy::Optimized);
        let mut meta = Vec::with_capacity(16);
        meta.extend_from_slice(&version.to_le_bytes());
        meta.extend_from_slice(&out.loss.to_le_bytes());
        comm.send(0, TAG_META, Payload::bytes(meta));
        comm.send(0, TAG_GRAD, Payload::f32(out.grad));
    }

    // Validate a stride of the validation set with the final weights and
    // this worker's trained BN statistics.
    let crit = dcnn_tensor::loss::SoftmaxCrossEntropy;
    let workers = comm.size() - 1;
    let mut correct = 0u64;
    let mut count = 0u64;
    let my_indices: Vec<usize> = (0..ds.val_len()).filter(|i| i % workers == me - 1).collect();
    for chunk in my_indices.chunks(16) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for &i in chunk {
            let img = ds.val_image(i).center_crop(cfg.crop);
            data.extend_from_slice(
                img.to_tensor(&dcnn_dimd::image::IMAGENET_MEAN, &dcnn_dimd::image::IMAGENET_STD)
                    .data(),
            );
            labels.push(ds.val_label(i));
        }
        let x = dcnn_tensor::Tensor::from_vec(data, &[chunk.len(), 3, cfg.crop, cfg.crop]);
        let logits = exec.eval_logits(&x);
        correct += crit.forward(&logits, &labels).correct as u64;
        count += chunk.len() as u64;
    }
    let mut meta = Vec::with_capacity(16);
    meta.extend_from_slice(&correct.to_le_bytes());
    meta.extend_from_slice(&count.to_le_bytes());
    comm.send(0, TAG_VAL, Payload::bytes(meta));
    Ok(())
}

/// Run asynchronous training; returns the server's statistics.
pub fn train_async(
    cfg: &AsyncConfig,
    ds: &SynthImageNet,
    factory: impl Fn() -> Box<dyn Module> + Sync,
) -> AsyncStats {
    assert!(cfg.workers >= 1, "need at least one worker");
    let n = cfg.workers + 1;
    let mut results = run_cluster(n, |comm| {
        if comm.rank() == 0 {
            let mut master = factory();
            // Parameters must start identical everywhere; overwrite with the
            // canonical copy so momentum etc. start clean.
            let p = collect_params(master.as_mut());
            set_params(master.as_mut(), &p);
            server(comm, cfg, master).map(Some)
        } else {
            worker(comm, cfg, ds, &factory).map(|()| None)
        }
    });
    let stats = results.swap_remove(0).unwrap_or_else(|e| panic!("{e}"));
    stats.expect("server stats")
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
            classes: 3,
            input: [3, 16, 16],
            imagenet_stem: false,
        }
        .build(31)
    }

    fn tiny_ds() -> SynthImageNet {
        let mut c = SynthConfig::tiny(3);
        c.train_per_class = 24;
        c.val_per_class = 8;
        c.base_hw = 16;
        c.noise = 10.0;
        SynthImageNet::new(c)
    }

    #[test]
    fn async_training_reduces_loss() {
        let ds = tiny_ds();
        let cfg = AsyncConfig::new(3, 120);
        let stats = train_async(&cfg, &ds, tiny_factory);
        assert_eq!(stats.losses.len(), 120);
        assert!(
            stats.late_loss(20) < stats.early_loss(20),
            "loss {} → {}",
            stats.early_loss(20),
            stats.late_loss(20)
        );
        assert!(stats.val_acc > 1.0 / 3.0, "val acc {}", stats.val_acc);
    }

    #[test]
    fn staleness_is_observed_with_multiple_workers() {
        let ds = tiny_ds();
        let cfg = AsyncConfig::new(4, 60);
        let stats = train_async(&cfg, &ds, tiny_factory);
        // With 4 concurrent workers some gradients must be stale.
        assert!(stats.max_staleness() >= 1, "staleness {:?}", stats.max_staleness());
        // Each worker has at most one gradient in flight, so *typical*
        // staleness is below the worker count (a slow worker can exceed it
        // while the others keep cycling, so the max is not bounded by it).
        let mean = stats.staleness.iter().sum::<u64>() as f64 / stats.staleness.len().max(1) as f64;
        assert!(mean < 2.0 * 4.0, "mean staleness {mean}");
    }

    #[test]
    fn single_worker_async_is_never_stale() {
        let ds = tiny_ds();
        let cfg = AsyncConfig::new(1, 30);
        let stats = train_async(&cfg, &ds, tiny_factory);
        assert_eq!(stats.max_staleness(), 0);
    }

    #[test]
    fn damping_does_not_break_convergence() {
        let ds = tiny_ds();
        for damping in [true, false] {
            let mut cfg = AsyncConfig::new(2, 60);
            cfg.staleness_damping = damping;
            let stats = train_async(&cfg, &ds, tiny_factory);
            assert!(stats.losses.iter().all(|l| l.is_finite()), "damping={damping}");
        }
    }
}
