//! The four training workloads. Each one is a `TrainConfig` set field by
//! field plus a seeded dataset and model, so that no ambient `DCNN_*`
//! variable can change a run; `--seed` feeds the dataset, the trainer and
//! the model initialisation alike.

use std::time::Duration;

use dist_cnn::collectives::{
    AlgoPolicy, AllreduceAlgo, ClusterBuilder, OverlapMode, RuntimeConfig, TransportKind,
};
use dist_cnn::dimd::{SynthConfig, SynthImageNet};
use dist_cnn::models::resnet::ResNetConfig;
use dist_cnn::models::Arch;
use dist_cnn::tensor::optim::LrSchedule;
use dist_cnn::tensor::Module;
use dist_cnn::trainer::TrainConfig;

/// Ranks in every workload: the sandbox has two cores, and rank threads are
/// the only CPU-bound threads (socket and comm-worker threads block on IO).
pub const RANKS: usize = 2;

/// Classes in every synthetic dataset.
const CLASSES: usize = 4;

pub const NAMES: [&str; 4] = ["resnet-compute", "fcnet-comm-tcp", "fcnet-sharded", "decode-data"];

#[derive(Clone)]
pub struct Workload {
    pub name: &'static str,
    pub transport: TransportKind,
    pub cfg: TrainConfig,
    pub synth: SynthConfig,
    /// The network and the `[C, H, W]` input it is built for.
    pub model: (Arch, [usize; 3]),
    /// The last epoch's training loss must stay under this: below chance
    /// level (ln 4 = 1.386) and above the worst seen at seeds 1..=10 (0.33,
    /// 1.01, 0.40 and 0.59 in the order of `NAMES`). The one-epoch smoke
    /// mode has not learnt yet and only has to stay finite.
    pub loss_ceiling: f64,
}

fn constant_lr(lr: f32) -> LrSchedule {
    LrSchedule { init_lr: lr, base_lr: lr, warmup_epochs: 1.0, step_epochs: 1000.0, decay: 0.1 }
}

fn synth(images: usize, hw: usize, seed: u64) -> SynthConfig {
    let mut s = SynthConfig::tiny(CLASSES);
    s.train_per_class = images / CLASSES;
    s.val_per_class = 1;
    s.base_hw = hw;
    s.hw_jitter = 0;
    s.seed = seed;
    s
}

fn base_cfg(batch: usize, epochs: usize, crop: usize, lr: f32, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::paper(RANKS, 1, batch, epochs);
    cfg.algo = AlgoPolicy::Fixed(AllreduceAlgo::MultiColor(4));
    cfg.crop = crop;
    cfg.lr = constant_lr(lr);
    cfg.seed = seed;
    cfg.validate = false;
    cfg.shuffle_every_epochs = 1;
    cfg.prefetch_depth = 0;
    cfg.bucket_bytes = 0;
    cfg
}

/// The AlexNet-style fully connected case: 1 579 236 parameters, a 6.0 MiB
/// gradient behind a few hundred kFLOP of convolution.
fn fcnet() -> (Arch, [usize; 3]) {
    (
        Arch::Seq(vec![
            Arch::Conv { out_c: 8, kernel: 3, stride: 1, pad: 1, bias: true },
            Arch::Relu,
            Arch::Flatten,
            Arch::Fc { out: 1024 },
            Arch::Relu,
            Arch::Fc { out: 1024 },
            Arch::Relu,
            Arch::Fc { out: CLASSES },
        ]),
        [3, 8, 8],
    )
}

/// A basic-block ResNet with a CIFAR stem over `hw` x `hw` inputs.
fn resnet(blocks: Vec<usize>, base_width: usize, hw: usize) -> (Arch, [usize; 3]) {
    let input = [3, hw, hw];
    let cfg = ResNetConfig {
        blocks,
        base_width,
        bottleneck: false,
        classes: CLASSES,
        input,
        imagenet_stem: false,
    };
    (cfg.arch(), input)
}

impl Workload {
    /// The workload called `name` at `seed`. `quick` cuts every repetition
    /// to one epoch (the smoke mode of `run.sh --quick`).
    pub fn by_name(name: &str, seed: u64, quick: bool) -> Option<Workload> {
        let epochs = |full: usize| if quick { 1 } else { full };
        let w = match name {
            // Compute-bound: GEMM, im2col and BN do most of the step, the
            // gradient is 77 KiB and decode is ~1 %.
            "resnet-compute" => Workload {
                name: "resnet-compute",
                transport: TransportKind::Threads,
                cfg: base_cfg(8, epochs(2), 32, 0.05, seed),
                synth: synth(512, 32, seed),
                model: resnet(vec![1, 1, 1], 8, 32),
                loss_ceiling: 1.2,
            },
            // Communication-bound over real loopback sockets: frame encode,
            // CRC, socket IO, reduce kernels and bucket scheduling. The
            // sockets are in-process so that the whole load is one process.
            "fcnet-comm-tcp" => {
                let mut cfg = base_cfg(2, epochs(1), 8, 0.002, seed);
                cfg.bucket_bytes = 262_144;
                cfg.overlap = OverlapMode::Hooked;
                Workload {
                    name: "fcnet-comm-tcp",
                    transport: TransportKind::Tcp,
                    cfg,
                    synth: synth(256, 8, seed),
                    model: fcnet(),
                    loss_ceiling: 1.3,
                }
            }
            // The same model, data, lr and seed as `fcnet-comm-tcp`, but the
            // gradient goes reduce-scatter -> step_range -> allgather over
            // zero-copy in-process payloads: it uses the collectives and the
            // optimizer differently, so a wire/CRC gain must leave it alone.
            "fcnet-sharded" => {
                let mut cfg = base_cfg(2, epochs(2), 8, 0.002, seed);
                cfg.shard_optim = true;
                Workload {
                    name: "fcnet-sharded",
                    transport: TransportKind::Threads,
                    cfg,
                    synth: synth(256, 8, seed),
                    model: fcnet(),
                    loss_ceiling: 1.0,
                }
            }
            // Data-bound: large records decoded inline, cropped small, under
            // a 154-parameter model (width 2, so that compute stays under a
            // third of the step), with the Algorithm 2 shuffle every epoch.
            // Inline decode because with two ranks on two cores there is no
            // spare core for donkey threads; the Prefetcher has a probe.
            "decode-data" => Workload {
                name: "decode-data",
                transport: TransportKind::Threads,
                cfg: base_cfg(8, epochs(32), 16, 0.05, seed),
                synth: synth(256, 128, seed),
                model: resnet(vec![1], 2, 16),
                loss_ceiling: 1.2,
            },
            _ => return None,
        };
        Some(Workload { loss_ceiling: if quick { f64::INFINITY } else { w.loss_ceiling }, ..w })
    }

    pub fn dataset(&self) -> SynthImageNet {
        SynthImageNet::new(self.synth.clone())
    }

    /// A fresh model, initialised from the run's seed.
    pub fn build_model(&self) -> Box<dyn Module> {
        let (arch, input) = &self.model;
        let (mut shape, mut seed) = (*input, self.cfg.seed);
        arch.build(&mut shape, &mut seed)
    }

    /// A two-rank cluster on this workload's transport, configured without
    /// reading the environment. A rank that dies leaves its peer blocked; the
    /// watchdog ends that well inside the driver's per-run limit.
    pub fn cluster(&self) -> ClusterBuilder {
        cluster(self.transport)
    }

    fn global_batch(&self) -> usize {
        self.cfg.batch_per_gpu * self.cfg.gpus_per_node * self.cfg.nodes
    }

    pub fn steps_per_rep(&self) -> usize {
        let images = self.synth.classes * self.synth.train_per_class;
        (images / self.global_batch()).max(1) * self.cfg.epochs
    }

    pub fn images_per_rep(&self) -> usize {
        self.steps_per_rep() * self.global_batch()
    }
}

pub fn cluster(transport: TransportKind) -> ClusterBuilder {
    ClusterBuilder::new(RANKS)
        .configure(RuntimeConfig::default())
        .transport(transport)
        .recv_timeout(Duration::from_secs(30))
}
