//! SGD with momentum and the paper's learning-rate schedule.
//!
//! §5 of the paper: "We followed the warm start learning-rate schedule in
//! [Goyal et al.]. The starting learning rate was fixed at 0.1. This is
//! linearly ramped to `0.1·kn/256`, where k is the batch size per GPU and n
//! is the total number of workers. We use a 90 epoch training regime with
//! the learning rate dropped by a factor of 10 after every 30 epochs."

use std::ops::Range;

use crate::layers::{visit_range, Module, Param, ALL};
use crate::tensor::Tensor;

/// Hyper-parameters for SGD (fb.resnet.torch defaults, which the paper uses).
#[derive(Debug, Clone)]
pub struct SgdConfig {
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { momentum: 0.9, weight_decay: 1e-4 }
    }
}

/// Stochastic gradient descent with classical momentum:
/// `v ← μ·v + g + λ·w`, `w ← w − lr·v`.
#[derive(Debug, Clone, Default)]
pub struct Sgd {
    /// Hyper-parameters.
    pub cfg: SgdConfig,
}

impl Sgd {
    /// Optimizer with the given config.
    pub fn new(cfg: SgdConfig) -> Self {
        Sgd { cfg }
    }

    /// Apply one update at learning rate `lr` to every parameter of `m`,
    /// using the gradients currently stored in the parameters.
    pub fn step(&self, m: &mut dyn Module, lr: f32) {
        self.update(m, lr, None, Grad::Params);
    }

    /// [`Sgd::step`] reading the gradient from `flat` (the
    /// [`crate::layers::collect_grads`] layout) times `k` instead of from
    /// the parameters — the replicated trainer's summed gradient with the
    /// `1/n` average folded in, so scaling, installing and applying it is one
    /// pass. `g = flat[i] * k` is the f32 product `reduce::scale` would have
    /// stored (Rust never fuses it into the add), so the update is bitwise
    /// that of scaling `flat`, installing it and calling [`Sgd::step`].
    ///
    /// # Panics
    /// Panics if `flat` is not exactly the flattened parameter vector's
    /// length.
    pub fn step_flat(&self, m: &mut dyn Module, lr: f32, flat: &[f32], k: f32) {
        self.update(m, lr, None, Grad::Flat(flat, k));
    }

    /// Range-restricted step for the sharded optimizer: update only the
    /// elements of the flattened parameter vector ([`crate::layers::collect_grads`]
    /// layout) inside `owned`, reading/writing momentum from the shard-sized
    /// `velocity` buffer (`velocity[k]` is element `owned.start + k`) instead
    /// of the per-parameter momentum tensors — those stay untouched and may
    /// be released entirely. The per-element arithmetic is identical to
    /// [`Sgd::step`], so the owned elements move bit-for-bit the same way.
    pub fn step_range(
        &self,
        m: &mut dyn Module,
        lr: f32,
        owned: Range<usize>,
        velocity: &mut [f32],
    ) {
        self.update(m, lr, Some((owned, velocity)), Grad::Params);
    }

    /// [`Sgd::step_range`] reading `flat[owned] * k` as the gradient, the
    /// sharded counterpart of [`Sgd::step_flat`].
    pub fn step_range_flat(
        &self,
        m: &mut dyn Module,
        lr: f32,
        owned: Range<usize>,
        velocity: &mut [f32],
        flat: &[f32],
        k: f32,
    ) {
        self.update(m, lr, Some((owned, velocity)), Grad::Flat(flat, k));
    }

    /// The walk behind every entry point: each element of the flattened
    /// parameter vector inside the shard's owned range (all of them without
    /// a shard) goes through [`sgd_update`], its momentum taken from the
    /// shard's velocity buffer or else the parameter's own tensor.
    fn update(
        &self,
        m: &mut dyn Module,
        lr: f32,
        mut shard: Option<(Range<usize>, &mut [f32])>,
        grad: Grad<'_>,
    ) {
        let (mu, wd) = (self.cfg.momentum, self.cfg.weight_decay);
        let total = visit_range(m, shard_range(&shard), |p, local, at| {
            let decay = if p.weight_decay { wd } else { 0.0 };
            let Param { value, grad: own, momentum, .. } = p;
            let (g, k) = match grad {
                Grad::Params => (&own.data()[local.clone()], 1.0),
                Grad::Flat(flat, k) => (&flat[at.clone()], k),
            };
            let v = velocity(&mut shard, momentum, local.clone(), at);
            sgd_update(&mut value.data_mut()[local], v, g, k, mu, decay, lr);
        });
        if let Grad::Flat(flat, _) = grad {
            assert_eq!(flat.len(), total, "flattened gradient length mismatch");
        }
    }
}

/// The flattened range a step walks: the shard's owned range, checked
/// against its velocity buffer, or [`ALL`] without a shard.
fn shard_range(shard: &Option<(Range<usize>, &mut [f32])>) -> Range<usize> {
    match shard {
        Some((owned, velocity)) => {
            assert_eq!(velocity.len(), owned.len(), "velocity buffer must be shard-sized");
            owned.clone()
        }
        None => ALL,
    }
}

/// The momentum for one overlap the walk yields: the shard's velocity
/// buffer at `at` (counted from the owned range's start), or else the
/// parameter's own `momentum` tensor at `local`.
fn velocity<'a>(
    shard: &'a mut Option<(Range<usize>, &mut [f32])>,
    momentum: &'a mut Tensor,
    local: Range<usize>,
    at: Range<usize>,
) -> &'a mut [f32] {
    match shard {
        Some((owned, velocity)) => &mut velocity[at.start - owned.start..at.end - owned.start],
        None => &mut momentum.data_mut()[local],
    }
}

/// Where an update reads its gradient: each parameter's own `p.grad`, or a
/// flattened gradient times a scale.
#[derive(Clone, Copy)]
enum Grad<'a> {
    Params,
    Flat(&'a [f32], f32),
}

/// The one SGD update kernel: `v ← μ·v + g·k + λ·w`, `w ← w − lr·v`,
/// elementwise. `k` is `1.0` for a gradient already at scale (`g · 1.0 == g`
/// exactly), so the stored-gradient and folded-scale paths share it.
fn sgd_update(w: &mut [f32], v: &mut [f32], g: &[f32], k: f32, mu: f32, decay: f32, lr: f32) {
    for ((w, v), &g) in w.iter_mut().zip(v.iter_mut()).zip(g) {
        *v = mu * *v + g * k + decay * *w;
        *w -= lr * *v;
    }
}

/// LARS — layer-wise adaptive rate scaling (You et al., whose 512-KNL
/// ResNet-50 run is the paper's Table 2 comparator; LARS is what made their
/// 32k global batch trainable). Each parameter tensor gets a local rate
/// `trust · ‖w‖ / (‖∇‖ + λ‖w‖ + ε)` multiplying the global LR, so layers
/// with small weights aren't blown away by large-batch gradients.
#[derive(Debug, Clone)]
pub struct Lars {
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay λ.
    pub weight_decay: f32,
    /// Trust coefficient (You et al. use 0.001–0.01).
    pub trust: f32,
    /// Numerical floor.
    pub eps: f32,
}

impl Default for Lars {
    fn default() -> Self {
        Lars { momentum: 0.9, weight_decay: 1e-4, trust: 0.01, eps: 1e-9 }
    }
}

impl Lars {
    /// Apply one LARS update at global learning rate `lr`.
    pub fn step(&self, m: &mut dyn Module, lr: f32) {
        self.update(m, lr, None);
    }

    /// Range-restricted LARS step, the analog of [`Sgd::step_range`].
    ///
    /// The trust ratio is a *whole-tensor* statistic, so every parameter
    /// tensor overlapping `owned` must carry its full, fully reduced
    /// gradient — under a shard map that cuts through tensors the caller
    /// must align shards to parameter boundaries (or allreduce instead of
    /// reduce-scatter) for the norms to be right. Updates are applied only
    /// to the owned elements, with momentum in the shard-sized `velocity`
    /// buffer.
    pub fn step_range(
        &self,
        m: &mut dyn Module,
        lr: f32,
        owned: Range<usize>,
        velocity: &mut [f32],
    ) {
        self.update(m, lr, Some((owned, velocity)));
    }

    /// The walk behind both entry points, as [`Sgd`]'s: momentum from the
    /// shard's velocity buffer or else the parameter's own tensor.
    fn update(&self, m: &mut dyn Module, lr: f32, mut shard: Option<(Range<usize>, &mut [f32])>) {
        let (mu, wd, trust, eps) = (self.momentum, self.weight_decay, self.trust, self.eps);
        visit_range(m, shard_range(&shard), |p, local, at| {
            let wn = norm(p.value.data());
            let gn = norm(p.grad.data());
            let decay = if p.weight_decay { wd } else { 0.0 };
            let local_lr = if wn > 0.0 && gn > 0.0 {
                trust * wn / (gn + decay * wn + eps)
            } else {
                1.0
            };
            let Param { value, grad, momentum, .. } = p;
            let v = velocity(&mut shard, momentum, local.clone(), at);
            let (w, g) = (&mut value.data_mut()[local.clone()], &grad.data()[local]);
            for ((w, v), &g) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                *v = mu * *v + local_lr * lr * (g + decay * *w);
                *w -= *v;
            }
        });
    }
}

fn norm(v: &[f32]) -> f32 {
    v.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt() as f32
}

/// The paper's learning-rate schedule: linear warmup from `init_lr` to
/// `base_lr` over the first `warmup_epochs`, then a step decay by 10× every
/// `step_epochs`.
#[derive(Debug, Clone)]
pub struct LrSchedule {
    /// LR at epoch 0 (the paper fixes 0.1).
    pub init_lr: f32,
    /// Target LR after warmup: `0.1 · k·n / 256`.
    pub base_lr: f32,
    /// Warmup duration in epochs (5 in Goyal et al.).
    pub warmup_epochs: f32,
    /// Decay period (30 in the paper's 90-epoch regime).
    pub step_epochs: f32,
    /// Decay factor per period (0.1).
    pub decay: f32,
}

impl LrSchedule {
    /// The paper's schedule for `batch_per_gpu` (k) and `workers` (n = nodes
    /// × GPUs/node).
    pub fn paper(batch_per_gpu: usize, workers: usize) -> Self {
        LrSchedule {
            init_lr: 0.1,
            base_lr: 0.1 * (batch_per_gpu * workers) as f32 / 256.0,
            warmup_epochs: 5.0,
            step_epochs: 30.0,
            decay: 0.1,
        }
    }

    /// Learning rate at a (fractional) epoch.
    pub fn lr_at(&self, epoch: f32) -> f32 {
        assert!(epoch >= 0.0);
        if epoch < self.warmup_epochs && self.base_lr != self.init_lr {
            let t = epoch / self.warmup_epochs;
            return self.init_lr + (self.base_lr - self.init_lr) * t;
        }
        let drops = (epoch / self.step_epochs).floor() as i32;
        self.base_lr * self.decay.powi(drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Module};
    use crate::loss::SoftmaxCrossEntropy;
    use crate::tensor::Tensor;

    #[test]
    fn momentum_accumulates() {
        let mut l = Linear::new(1, 1, 0);
        l.weight.value = Tensor::from_vec(vec![0.0], &[1, 1]);
        l.bias.value = Tensor::from_vec(vec![0.0], &[1]);
        let sgd = Sgd::new(SgdConfig { momentum: 0.9, weight_decay: 0.0 });
        // Constant gradient 1.0 on the weight.
        l.weight.grad = Tensor::from_vec(vec![1.0], &[1, 1]);
        sgd.step(&mut l, 0.1);
        let w1 = l.weight.value.data()[0];
        assert!((w1 + 0.1).abs() < 1e-6); // v=1, w=-0.1
        l.weight.grad = Tensor::from_vec(vec![1.0], &[1, 1]);
        sgd.step(&mut l, 0.1);
        let w2 = l.weight.value.data()[0];
        // v = 0.9·1 + 1 = 1.9, w = -0.1 - 0.19 = -0.29
        assert!((w2 + 0.29).abs() < 1e-6, "w2 {w2}");
    }

    #[test]
    fn weight_decay_pulls_to_zero() {
        let mut l = Linear::new(1, 1, 0);
        l.weight.value = Tensor::from_vec(vec![10.0], &[1, 1]);
        l.bias.value = Tensor::from_vec(vec![0.0], &[1]);
        let sgd = Sgd::new(SgdConfig { momentum: 0.0, weight_decay: 0.1 });
        // zero gradient: only decay acts.
        sgd.step(&mut l, 1.0);
        assert!((l.weight.value.data()[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn sgd_reduces_loss_on_toy_problem() {
        let mut l = Linear::new(2, 2, 42);
        let sgd = Sgd::new(SgdConfig::default());
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.5], &[4, 2]);
        let labels = [0usize, 1, 1, 0];
        let crit = SoftmaxCrossEntropy;
        let first = crit.forward(&l.forward(&x, true), &labels).loss;
        for _ in 0..200 {
            crate::layers::zero_grads(&mut l);
            let y = l.forward(&x, true);
            let out = crit.forward(&y, &labels);
            let _ = l.backward(&out.grad);
            sgd.step(&mut l, 0.5);
        }
        let last = crit.forward(&l.forward(&x, false), &labels).loss;
        assert!(last < first * 0.2, "loss {first} → {last}");
    }

    #[test]
    fn lars_update_scale_tracks_weight_norm() {
        // With fixed gradients, a layer whose weights are 10× larger gets a
        // ~10× larger update (the defining LARS property); plain SGD gives
        // both the same update.
        let mk = |scale: f32| {
            let mut l = Linear::new(4, 4, 0);
            l.weight.value.scale_(scale / l.weight.value.max_abs().max(1e-9));
            l.weight.grad = Tensor::full(&[4, 4], 0.01);
            l.bias.grad = Tensor::zeros(&[4]);
            let before = l.weight.value.clone();
            Lars { momentum: 0.0, weight_decay: 0.0, ..Lars::default() }.step(&mut l, 1.0);
            let mut delta = before;
            delta.sub_(&l.weight.value);
            delta.max_abs()
        };
        let small = mk(0.1);
        let large = mk(1.0);
        let ratio = large / small;
        assert!((8.0..12.0).contains(&ratio), "update ratio {ratio}");
    }

    #[test]
    fn lars_trains_toy_problem() {
        let mut l = Linear::new(2, 2, 42);
        let lars = Lars::default();
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.5], &[4, 2]);
        let labels = [0usize, 1, 1, 0];
        let crit = SoftmaxCrossEntropy;
        let first = crit.forward(&l.forward(&x, true), &labels).loss;
        for _ in 0..300 {
            crate::layers::zero_grads(&mut l);
            let y = l.forward(&x, true);
            let out = crit.forward(&y, &labels);
            let _ = l.backward(&out.grad);
            lars.step(&mut l, 2.0);
        }
        let last = crit.forward(&l.forward(&x, false), &labels).loss;
        assert!(last < first * 0.5, "LARS loss {first} → {last}");
    }

    #[test]
    fn lars_zero_gradient_is_noop_modulo_momentum() {
        let mut l = Linear::new(3, 3, 1);
        l.weight.grad.zero_();
        l.bias.grad.zero_();
        let before = l.weight.value.clone();
        Lars { momentum: 0.0, weight_decay: 0.0, ..Lars::default() }.step(&mut l, 1.0);
        // local rate falls back to 1.0 but gradient is zero → no movement.
        assert_eq!(l.weight.value, before);
    }

    #[test]
    fn step_range_bitwise_matches_full_step() {
        // Two disjoint shard-local steps with external velocity buffers must
        // move the parameters bit-for-bit like one full step with the
        // per-parameter momentum tensors — including across several steps,
        // with a shard boundary cutting through the weight tensor.
        let mut full = Linear::new(3, 4, 7);
        let mut sharded = Linear::new(3, 4, 7); // same seed → identical init
        let total = crate::layers::param_count(&mut full); // 12 + 4
        let cut = 7usize;
        let mut v_lo = vec![0.0f32; cut];
        let mut v_hi = vec![0.0f32; total - cut];
        let sgd = Sgd::new(SgdConfig { momentum: 0.9, weight_decay: 1e-2 });
        for step in 0..4 {
            let grads: Vec<f32> =
                (0..total).map(|i| ((i * 31 + step * 17) as f32).sin()).collect();
            crate::layers::set_grads(&mut full, &grads);
            crate::layers::set_grads(&mut sharded, &grads);
            sgd.step(&mut full, 0.05);
            sgd.step_range(&mut sharded, 0.05, 0..cut, &mut v_lo);
            sgd.step_range(&mut sharded, 0.05, cut..total, &mut v_hi);
        }
        let a = crate::layers::collect_params(&mut full);
        let b = crate::layers::collect_params(&mut sharded);
        for i in 0..total {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "param {i}");
        }
        // The concatenated shard velocities are the full momentum state.
        let mom = crate::layers::collect_momentum(&mut full);
        let v: Vec<f32> = v_lo.iter().chain(&v_hi).copied().collect();
        for i in 0..total {
            assert_eq!(mom[i].to_bits(), v[i].to_bits(), "velocity {i}");
        }
    }

    #[test]
    fn folded_scale_steps_match_scale_install_step_bitwise() {
        // `step_flat` / `step_range_flat` read `flat[i] * k` where the old
        // trainer scaled `flat` in place, installed it with `set_grads` and
        // stepped: same bits, including a -0.0, a subnormal and a shard cut
        // through the weight tensor.
        let total = crate::layers::param_count(&mut Linear::new(3, 4, 7));
        let k = 1.0 / 3.0f32;
        let sgd = Sgd::new(SgdConfig { momentum: 0.9, weight_decay: 1e-2 });
        let (mut installed, mut folded) = (Linear::new(3, 4, 7), Linear::new(3, 4, 7));
        let (mut shard_installed, mut shard_folded) = (Linear::new(3, 4, 7), Linear::new(3, 4, 7));
        let (mut v_installed, mut v_folded) = (vec![0.0f32; 9], vec![0.0f32; 9]);
        for step in 0..3 {
            let mut flat: Vec<f32> =
                (0..total).map(|i| ((i * 29 + step * 13) as f32).sin() * 7.0).collect();
            flat[0] = -0.0;
            flat[1] = f32::MIN_POSITIVE / 8.0;
            let mut scaled = flat.clone();
            scaled.iter_mut().for_each(|g| *g *= k);
            crate::layers::set_grads(&mut installed, &scaled);
            sgd.step(&mut installed, 0.05);
            sgd.step_flat(&mut folded, 0.05, &flat, k);
            crate::layers::set_grads(&mut shard_installed, &scaled);
            sgd.step_range(&mut shard_installed, 0.05, 5..14, &mut v_installed);
            sgd.step_range_flat(&mut shard_folded, 0.05, 5..14, &mut v_folded, &flat, k);
        }
        let bits = |m: &mut Linear| {
            let mut out: Vec<u32> =
                crate::layers::collect_params(m).iter().map(|x| x.to_bits()).collect();
            out.extend(crate::layers::collect_momentum(m).iter().map(|x| x.to_bits()));
            out
        };
        assert_eq!(bits(&mut installed), bits(&mut folded));
        assert_eq!(bits(&mut shard_installed), bits(&mut shard_folded));
        assert_eq!(
            v_installed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            v_folded.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn step_range_touches_only_owned_elements() {
        let mut l = Linear::new(2, 2, 1);
        let total = crate::layers::param_count(&mut l);
        let grads: Vec<f32> = (0..total).map(|i| i as f32 + 1.0).collect();
        crate::layers::set_grads(&mut l, &grads);
        let before = crate::layers::collect_params(&mut l);
        let mut v = vec![0.0f32; 2];
        Sgd::default().step_range(&mut l, 0.1, 2..4, &mut v);
        let after = crate::layers::collect_params(&mut l);
        for i in 0..total {
            if (2..4).contains(&i) {
                assert_ne!(before[i].to_bits(), after[i].to_bits(), "owned {i} must move");
            } else {
                assert_eq!(before[i].to_bits(), after[i].to_bits(), "unowned {i} must not");
            }
        }
    }

    #[test]
    fn lars_step_range_matches_full_step_on_aligned_shards() {
        // Shards aligned to parameter boundaries (weight | bias): whole-
        // tensor trust ratios are computable on both sides, so the sharded
        // LARS walk is bitwise the full one.
        let mut full = Linear::new(3, 4, 11);
        let mut sharded = Linear::new(3, 4, 11); // same seed → identical init
        let total = crate::layers::param_count(&mut full);
        let weight_len = 12usize;
        let mut v_w = vec![0.0f32; weight_len];
        let mut v_b = vec![0.0f32; total - weight_len];
        let lars = Lars::default();
        for step in 0..3 {
            let grads: Vec<f32> =
                (0..total).map(|i| ((i * 13 + step * 5) as f32).cos() * 0.01).collect();
            crate::layers::set_grads(&mut full, &grads);
            crate::layers::set_grads(&mut sharded, &grads);
            lars.step(&mut full, 0.5);
            lars.step_range(&mut sharded, 0.5, 0..weight_len, &mut v_w);
            lars.step_range(&mut sharded, 0.5, weight_len..total, &mut v_b);
        }
        let a = crate::layers::collect_params(&mut full);
        let b = crate::layers::collect_params(&mut sharded);
        for i in 0..total {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "param {i}");
        }
    }

    #[test]
    fn released_momentum_frees_and_ensure_restores() {
        let mut l = Linear::new(4, 4, 3);
        let total = crate::layers::param_count(&mut l);
        let (p0, o0) = crate::layers::resident_bytes(&mut l);
        assert_eq!(p0, total * 8); // value + grad
        assert_eq!(o0, total * 4); // momentum
        let freed = crate::layers::release_momentum(&mut l);
        assert_eq!(freed, total * 4);
        let (_, o1) = crate::layers::resident_bytes(&mut l);
        assert_eq!(o1, 0);
        crate::layers::ensure_momentum(&mut l);
        let (_, o2) = crate::layers::resident_bytes(&mut l);
        assert_eq!(o2, total * 4);
        crate::layers::set_momentum(&mut l, &vec![1.0f32; total]);
        assert_eq!(crate::layers::collect_momentum(&mut l), vec![1.0f32; total]);
    }

    #[test]
    fn paper_schedule_values() {
        // 256 GPUs × 32 batch/GPU = 8k batch: base LR = 0.1·8192/256 = 3.2.
        let s = LrSchedule::paper(32, 256);
        assert!((s.base_lr - 3.2).abs() < 1e-6);
        assert!((s.lr_at(0.0) - 0.1).abs() < 1e-6);
        // Midway through warmup.
        assert!((s.lr_at(2.5) - (0.1 + (3.2 - 0.1) * 0.5)).abs() < 1e-5);
        // After warmup, before first drop.
        assert!((s.lr_at(10.0) - 3.2).abs() < 1e-6);
        // After each 30-epoch drop.
        assert!((s.lr_at(35.0) - 0.32).abs() < 1e-6);
        assert!((s.lr_at(65.0) - 0.032).abs() < 1e-6);
    }

    #[test]
    fn single_worker_schedule_has_no_warmup_bump() {
        // k·n = 256 → base == init; warmup is flat.
        let s = LrSchedule::paper(64, 4);
        assert!((s.lr_at(0.0) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(3.0) - 0.1).abs() < 1e-7);
    }
}
