//! SGD with momentum and the paper's learning-rate schedule.
//!
//! §5 of the paper: "We followed the warm start learning-rate schedule in
//! [Goyal et al.]. The starting learning rate was fixed at 0.1. This is
//! linearly ramped to `0.1·kn/256`, where k is the batch size per GPU and n
//! is the total number of workers. We use a 90 epoch training regime with
//! the learning rate dropped by a factor of 10 after every 30 epochs."

use std::ops::Range;

use crate::layers::{visit_range, Module, Param, ALL};

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
        self.update(m, lr, ALL, None, Grad::Params);
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
        self.update(m, lr, ALL, None, Grad::Flat(flat, k));
    }

    /// [`Sgd::step_flat`] over the elements of the flattened vector inside
    /// `range` only, reading element `i`'s gradient as
    /// `g[i - range.start] * k`, with each parameter's own momentum. The
    /// replicated trainer steps each bucket from its reduced payload this
    /// way as its exchange completes; stepping any cut of the vector range
    /// by range moves the same bits as one [`Sgd::step_flat`].
    ///
    /// # Panics
    /// Panics if `g` is not `range`-sized or `range` ends past the vector.
    pub fn step_slice(&self, m: &mut dyn Module, lr: f32, range: Range<usize>, g: &[f32], k: f32) {
        assert_eq!(g.len(), range.len(), "gradient slice must be range-sized");
        self.update(m, lr, range, None, Grad::Flat(g, k));
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
        self.update(m, lr, owned, Some(velocity), Grad::Params);
    }

    /// [`Sgd::step_range`] reading `flat[owned] * k` as the gradient that
    /// leaves each stepped value in `flat`, in the slot it just read that
    /// element's gradient from: afterwards `flat[owned]` holds the owned
    /// parameters ([`crate::layers::params_into`] of `owned`) and the rest
    /// of `flat` is untouched. The sharded trainer steps its gradient
    /// buffer into the parameter allgather's buffer this way, without a
    /// second pass over the owned range.
    pub fn step_range_write_back(
        &self,
        m: &mut dyn Module,
        lr: f32,
        owned: Range<usize>,
        velocity: &mut [f32],
        flat: &mut [f32],
        k: f32,
    ) {
        self.update(m, lr, owned, Some(velocity), Grad::WriteBack(flat, k));
    }

    /// The walk behind every entry point: each element of the flattened
    /// parameter vector inside `range` ([`ALL`] for all of them) goes
    /// through [`sgd_update`], its momentum taken from the shard's
    /// `velocity` buffer or else the parameter's own tensor. `velocity`
    /// and a [`Grad::Flat`] slice are indexed from `range.start`.
    fn update(
        &self,
        m: &mut dyn Module,
        lr: f32,
        range: Range<usize>,
        mut velocity: Option<&mut [f32]>,
        mut grad: Grad<'_>,
    ) {
        if let Some(v) = &velocity {
            assert_eq!(v.len(), range.len(), "velocity buffer must be shard-sized");
        }
        let (mu, wd) = (self.cfg.momentum, self.cfg.weight_decay);
        let (start, whole) = (range.start, range == ALL);
        let total = visit_range(m, range, |p, local, at| {
            let decay = if p.weight_decay { wd } else { 0.0 };
            let Param { value, grad: own, momentum, .. } = p;
            let rel = at.start - start..at.end - start;
            let v = match &mut velocity {
                Some(velocity) => &mut velocity[rel.clone()],
                None => &mut momentum.data_mut()[local.clone()],
            };
            let w = &mut value.data_mut()[local.clone()];
            match &mut grad {
                Grad::Params => sgd_update(w, v, &own.data()[local], 1.0, mu, decay, lr),
                Grad::Flat(g, k) => sgd_update(w, v, &g[rel], *k, mu, decay, lr),
                Grad::WriteBack(flat, k) => {
                    sgd_update_write_back(w, v, &mut flat[at], *k, mu, decay, lr)
                }
            }
        });
        let flat_len = match &grad {
            Grad::Flat(flat, _) if whole => Some(flat.len()),
            Grad::WriteBack(flat, _) => Some(flat.len()),
            _ => None,
        };
        if let Some(len) = flat_len {
            assert_eq!(len, total, "flattened gradient length mismatch");
        }
    }
}

/// Where an update reads its gradient: each parameter's own `p.grad`, or a
/// flattened gradient times a scale, optionally overwritten with the
/// stepped values as it is read.
enum Grad<'a> {
    Params,
    Flat(&'a [f32], f32),
    WriteBack(&'a mut [f32], f32),
}

/// The one SGD update: `v ← μ·v + g·k + λ·w`, `w ← w − lr·v`. `k` is `1.0`
/// for a gradient already at scale (`g · 1.0 == g` exactly), so the
/// stored-gradient and folded-scale paths share it.
#[inline(always)]
fn sgd_element(w: &mut f32, v: &mut f32, g: f32, k: f32, mu: f32, decay: f32, lr: f32) {
    *v = mu * *v + g * k + decay * *w;
    *w -= lr * *v;
}

/// [`sgd_element`] over a run of elements.
fn sgd_update(w: &mut [f32], v: &mut [f32], g: &[f32], k: f32, mu: f32, decay: f32, lr: f32) {
    for ((w, v), &g) in w.iter_mut().zip(v.iter_mut()).zip(g) {
        sgd_element(w, v, g, k, mu, decay, lr);
    }
}

/// [`sgd_update`] storing each stepped value over the gradient it read.
fn sgd_update_write_back(
    w: &mut [f32],
    v: &mut [f32],
    g: &mut [f32],
    k: f32,
    mu: f32,
    decay: f32,
    lr: f32,
) {
    for ((w, v), g) in w.iter_mut().zip(v.iter_mut()).zip(g) {
        sgd_element(w, v, *g, k, mu, decay, lr);
        *g = *w;
    }
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
        // `step_flat` / `step_range_write_back` read `flat[i] * k` where the
        // old trainer scaled `flat` in place, installed it with `set_grads`
        // and stepped: same bits, including a -0.0, a subnormal and a shard
        // cut through the weight tensor.
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
            let (w, v) = (&mut shard_folded, &mut v_folded);
            sgd.step_range_write_back(w, 0.05, 5..14, v, &mut flat, k);
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
    fn write_back_step_matches_step_range_and_fills_the_owned_range() {
        // Same parameter and velocity bits as `step_range` over the scaled,
        // installed gradient for several steps (a -0.0 and a subnormal in
        // the gradient, the shard cut through the weight tensor); afterwards
        // `flat[owned]` is the owned parameters and the rest of `flat` is
        // the gradient as it was.
        let total = crate::layers::param_count(&mut Linear::new(3, 4, 7));
        let (k, owned) = (0.5f32, 5..14);
        let sgd = Sgd::new(SgdConfig { momentum: 0.9, weight_decay: 1e-2 });
        let (mut read, mut written) = (Linear::new(3, 4, 7), Linear::new(3, 4, 7));
        let (mut v_read, mut v_written) = (vec![0.0f32; owned.len()], vec![0.0f32; owned.len()]);
        let bits = |x: &[f32]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for step in 0..3 {
            let mut grad: Vec<f32> =
                (0..total).map(|i| ((i * 23 + step * 11) as f32).cos() * 3.0).collect();
            grad[6] = -0.0;
            grad[7] = f32::MIN_POSITIVE / 4.0;
            let scaled: Vec<f32> = grad.iter().map(|g| g * k).collect();
            crate::layers::set_grads(&mut read, &scaled);
            sgd.step_range(&mut read, 0.05, owned.clone(), &mut v_read);
            let mut flat = grad.clone();
            let w = &mut written;
            sgd.step_range_write_back(w, 0.05, owned.clone(), &mut v_written, &mut flat, k);
            assert_eq!(
                bits(&crate::layers::collect_params(&mut read)),
                bits(&crate::layers::collect_params(&mut written)),
                "step {step} parameters"
            );
            assert_eq!(bits(&v_read), bits(&v_written), "step {step} velocity");
            let mut stepped = vec![f32::NAN; owned.len()];
            crate::layers::params_into(&mut written, owned.clone(), &mut stepped);
            assert_eq!(bits(&flat[owned.clone()]), bits(&stepped), "step {step} owned range");
            for i in (0..total).filter(|i| !owned.contains(i)) {
                assert_eq!(flat[i].to_bits(), grad[i].to_bits(), "step {step} flat[{i}] moved");
            }
        }
    }

    #[test]
    fn slice_steps_over_any_cut_match_one_flat_step_bitwise() {
        // Two layers, the first one's bias without weight decay: w1 0..12,
        // b1 12..16, w2 16..24, b2 24..26. The cut splits a weight, ends on
        // a parameter's edge, holds empty ranges, starts inside the bias and
        // crosses into the next weight, and is stepped out of order, as the
        // trainer's buckets complete; parameters and momentum must move as
        // one `step_flat` over the whole vector moves them.
        let model = || {
            let mut first = Linear::new(3, 4, 7);
            first.bias.weight_decay = false;
            crate::nn::Sequential::new().push(first).push(Linear::new(4, 2, 9))
        };
        let (mut whole, mut sliced) = (model(), model());
        let total = crate::layers::param_count(&mut whole);
        assert_eq!(total, 26);
        let cut = [19..26, 12..12, 0..5, 14..19, 26..26, 5..12, 12..14];
        let (k, sgd) = (0.5f32, Sgd::new(SgdConfig { momentum: 0.9, weight_decay: 1e-2 }));
        for step in 0..3 {
            let mut flat: Vec<f32> =
                (0..total).map(|i| ((i * 19 + step * 7) as f32).sin() * 5.0).collect();
            flat[13] = -0.0;
            flat[20] = f32::MIN_POSITIVE / 2.0;
            sgd.step_flat(&mut whole, 0.05, &flat, k);
            for r in cut.iter().cloned() {
                sgd.step_slice(&mut sliced, 0.05, r.clone(), &flat[r], k);
            }
        }
        let bits = |m: &mut crate::nn::Sequential| {
            let mut out: Vec<u32> =
                crate::layers::collect_params(m).iter().map(|x| x.to_bits()).collect();
            out.extend(crate::layers::collect_momentum(m).iter().map(|x| x.to_bits()));
            out
        };
        assert_eq!(bits(&mut whole), bits(&mut sliced));
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
