//! Batch normalization over `[N, C, H, W]` (per-channel statistics), as in
//! Ioffe & Szegedy — the "BN" of the paper's GoogLeNet-BN workload.

use super::{Module, Param};
use crate::gemm::{fold_lanes, LANES};
use crate::tensor::Tensor;

/// 2-D batch normalization with affine transform and running statistics.
pub struct BatchNorm2d {
    /// Scale γ `[C]`.
    pub gamma: Param,
    /// Shift β `[C]`.
    pub beta: Param,
    /// Running mean (eval mode).
    pub running_mean: Tensor,
    /// Running variance (eval mode).
    pub running_var: Tensor,
    channels: usize,
    eps: f32,
    momentum: f32,
    // Training cache.
    saved: Option<Cache>,
}

struct Cache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm2d {
    /// γ=1, β=0, running stats at (0, 1); ε=1e-5, momentum 0.1 (Torch
    /// defaults the paper's models use).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            saved: None,
        }
    }

    fn stats(&self, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let s = x.shape();
        let (n, c, plane) = (s[0], s[1], s[2] * s[3]);
        let count = (n * plane) as f64;
        let mut mean = vec![0.0f64; c];
        for (i, xp) in x.data().chunks(plane).enumerate() {
            mean[i % c] += lane_sum(xp, |v| v as f64);
        }
        for m in mean.iter_mut() {
            *m /= count;
        }
        let mut var = vec![0.0f64; c];
        for (i, xp) in x.data().chunks(plane).enumerate() {
            let m = mean[i % c];
            var[i % c] += lane_sum(xp, |v| {
                let d = v as f64 - m;
                d * d
            });
        }
        for v in var.iter_mut() {
            *v /= count;
        }
        (mean.into_iter().map(|v| v as f32).collect(), var.into_iter().map(|v| v as f32).collect())
    }
}

/// `Σ f(v)` over one plane as `LANES` interleaved f64 partial sums (lane `t`
/// takes the elements at `t mod LANES`) — a vectorisable chain whose result
/// depends on the plane alone.
fn lane_sum(xs: &[f32], f: impl Fn(f32) -> f64) -> f64 {
    lane_sum2(xs, xs, |v, _| f(v))
}

/// [`lane_sum`] over two planes in step: `Σ f(a, b)`.
fn lane_sum2(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let (ac, bc) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = ac.remainder().iter().zip(bc.remainder());
    for (av, bv) in ac.zip(bc) {
        for t in 0..LANES {
            acc[t] += f(av[t], bv[t]);
        }
    }
    for (s, (&av, &bv)) in acc.iter_mut().zip(tail) {
        *s += f(av, bv);
    }
    fold_lanes(acc)
}

impl Module for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let s = x.shape().to_vec();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1], self.channels, "BN channel mismatch");
        let (c, plane) = (s[1], s[2] * s[3]);

        let (mean, var) = if train {
            let (m, v) = self.stats(x);
            // Update running statistics.
            for (rm, &mc) in self.running_mean.data_mut().iter_mut().zip(&m) {
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mc;
            }
            for (rv, &vc) in self.running_var.data_mut().iter_mut().zip(&v) {
                *rv = (1.0 - self.momentum) * *rv + self.momentum * vc;
            }
            (m, v)
        } else {
            (self.running_mean.data().to_vec(), self.running_var.data().to_vec())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        let mut y = Tensor::zeros(&s);
        let planes = y.data_mut().chunks_mut(plane).zip(x.data().chunks(plane)).enumerate();
        if train {
            let mut x_hat = Tensor::zeros(&s);
            for ((i, (yp, xp)), hp) in planes.zip(x_hat.data_mut().chunks_mut(plane)) {
                let ci = i % c;
                let (m, is, gc, bc) = (mean[ci], inv_std[ci], g[ci], b[ci]);
                for ((yv, hv), &xv) in yp.iter_mut().zip(hp).zip(xp) {
                    *hv = (xv - m) * is;
                    *yv = gc * *hv + bc;
                }
            }
            self.saved = Some(Cache { x_hat, inv_std, shape: s });
        } else {
            for (i, (yp, xp)) in planes {
                let ci = i % c;
                let (m, is, gc, bc) = (mean[ci], inv_std[ci], g[ci], b[ci]);
                for (yv, &xv) in yp.iter_mut().zip(xp) {
                    *yv = gc * ((xv - m) * is) + bc;
                }
            }
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cache = self.saved.take().expect("forward(train=true) before backward");
        let s = &cache.shape;
        assert_eq!(grad.shape(), s.as_slice());
        let (n, c, plane) = (s[0], s[1], s[2] * s[3]);
        let count = (n * plane) as f32;

        // Per-channel sums: Σg and Σ(g·x̂).
        let mut sum_g = vec![0.0f64; c];
        let mut sum_gx = vec![0.0f64; c];
        let planes = grad.data().chunks(plane).zip(cache.x_hat.data().chunks(plane));
        for (i, (gp, hp)) in planes.clone().enumerate() {
            sum_g[i % c] += lane_sum(gp, |g| g as f64);
            sum_gx[i % c] += lane_sum2(gp, hp, |g, h| (g * h) as f64);
        }

        for ci in 0..c {
            self.gamma.grad.data_mut()[ci] += sum_gx[ci] as f32;
            self.beta.grad.data_mut()[ci] += sum_g[ci] as f32;
        }

        let g = self.gamma.value.data();
        let mut dx = Tensor::zeros(s);
        for ((i, dp), (gp, hp)) in dx.data_mut().chunks_mut(plane).enumerate().zip(planes) {
            let ci = i % c;
            let k = g[ci] * cache.inv_std[ci];
            let mg = sum_g[ci] as f32 / count;
            let mgx = sum_gx[ci] as f32 / count;
            for ((dv, &gv), &hv) in dp.iter_mut().zip(gp).zip(hp) {
                *dv = k * (gv - mg - hv * mgx);
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&format!("{prefix}gamma"), &mut self.gamma);
        f(&format!("{prefix}beta"), &mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::check_input_gradient;

    #[test]
    fn normalizes_in_train_mode() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], 3.0, 17).map(|v| v + 5.0);
        let y = bn.forward(&x, true);
        // Per-channel mean ≈ 0, var ≈ 1 (γ=1, β=0).
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                for hi in 0..3 {
                    for wi in 0..3 {
                        vals.push(y.at4(ni, ci, hi, wi) as f64);
                    }
                }
            }
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            let v = vals.iter().map(|x| (x - m).powi(2)).sum::<f64>() / vals.len() as f64;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn affine_applies() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value = Tensor::from_vec(vec![2.0], &[1]);
        bn.beta.value = Tensor::from_vec(vec![10.0], &[1]);
        let x = Tensor::randn(&[8, 1, 2, 2], 1.0, 3);
        let y = bn.forward(&x, true);
        let m = y.mean();
        assert!((m - 10.0).abs() < 1e-3, "mean {m}");
    }

    #[test]
    fn running_stats_converge() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn(&[16, 1, 4, 4], 2.0, 5).map(|v| v + 3.0);
        for _ in 0..60 {
            let _ = bn.forward(&x, true);
        }
        assert!((bn.running_mean.data()[0] - 3.0).abs() < 0.2);
        assert!((bn.running_var.data()[0] - 4.0).abs() < 0.8);
        // Eval mode now roughly normalizes the same distribution.
        let y = bn.forward(&x, false);
        assert!(y.mean().abs() < 0.2, "eval mean {}", y.mean());
    }

    #[test]
    fn eval_mode_uses_running_not_batch() {
        let mut bn = BatchNorm2d::new(1);
        // Fresh stats: mean 0, var 1 → eval is identity (γ=1, β=0).
        let x = Tensor::from_vec(vec![100.0, 200.0, 300.0, 400.0], &[4, 1, 1, 1]);
        let y = bn.forward(&x, false);
        assert!(y.allclose(&x, 1e-4, 1e-2), "{:?}", y.data());
    }

    #[test]
    fn input_gradient_checks() {
        let mut bn = BatchNorm2d::new(3);
        bn.gamma.value = Tensor::from_vec(vec![1.5, 0.5, 2.0], &[3]);
        let x = Tensor::randn(&[3, 3, 2, 2], 1.0, 11);
        check_input_gradient(
            &mut bn,
            &x,
            |y| y.data().iter().map(|&v| (v as f64).powi(3) / 3.0).sum::<f64>(),
            |y| y.map(|v| v * v),
            3e-2,
        );
    }

    #[test]
    fn gamma_beta_gradients_numeric() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[2, 2, 3, 3], 1.0, 13);
        let y = bn.forward(&x, true);
        let _ = bn.backward(&y.map(|_| 1.0));
        // dL/dβ with L = Σy is simply the element count per channel.
        let count = (2 * 3 * 3) as f32;
        for ci in 0..2 {
            assert!((bn.beta.grad.data()[ci] - count).abs() < 1e-3);
        }
        // dL/dγ = Σ x̂ ≈ 0 under batch normalization.
        for ci in 0..2 {
            assert!(bn.gamma.grad.data()[ci].abs() < 1e-2);
        }
    }

    /// Forward and backward of training-mode BN in f64 from the definition:
    /// `(y, dx, dγ, dβ)`.
    #[allow(clippy::type_complexity)]
    fn reference(
        x: &Tensor,
        g: &Tensor,
        gamma: &[f32],
        beta: &[f32],
        eps: f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let s = x.shape();
        let (n, c, plane) = (s[0], s[1], s[2] * s[3]);
        let count = (n * plane) as f64;
        let channel = |i: usize| (i / plane) % c;
        let per_channel = |f: &dyn Fn(usize) -> f64| {
            let mut out = vec![0.0f64; c];
            (0..x.len()).for_each(|i| out[channel(i)] += f(i));
            out
        };
        let xd = |i: usize| x.data()[i] as f64;
        let gd = |i: usize| g.data()[i] as f64;
        let mean: Vec<f64> = per_channel(&xd).iter().map(|v| v / count).collect();
        let sq_dev = per_channel(&|i| (xd(i) - mean[channel(i)]).powi(2));
        let var: Vec<f64> = sq_dev.iter().map(|v| v / count).collect();
        let inv_std: Vec<f64> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
        let x_hat = |i: usize| (xd(i) - mean[channel(i)]) * inv_std[channel(i)];
        let dbeta = per_channel(&gd);
        let dgamma = per_channel(&|i| gd(i) * x_hat(i));
        let y = (0..x.len()).map(|i| gamma[channel(i)] as f64 * x_hat(i) + beta[channel(i)] as f64);
        let dx = (0..x.len()).map(|i| {
            let ci = channel(i);
            gamma[ci] as f64
                * inv_std[ci]
                * (gd(i) - dbeta[ci] / count - x_hat(i) * dgamma[ci] / count)
        });
        (y.collect(), dx.collect(), dgamma, dbeta)
    }

    fn assert_close(got: &[f32], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
            assert!((a as f64 - b).abs() <= 1e-5 * b.abs().max(1.0), "{what}[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn matches_f64_reference_on_a_plane_that_is_no_multiple_of_the_lanes() {
        // 7·6 = 42 elements per plane: five full lane groups and a tail of 2.
        let shape = [3, 5, 7, 6];
        let x = Tensor::randn(&shape, 2.0, 23).map(|v| v + 1.5);
        let g = Tensor::randn(&shape, 1.0, 29);
        let mut bn = BatchNorm2d::new(5);
        bn.gamma.value = Tensor::from_vec(vec![1.5, 0.5, 2.0, -1.0, 0.25], &[5]);
        bn.beta.value = Tensor::from_vec(vec![0.0, 1.0, -2.0, 0.5, 3.0], &[5]);
        let (y, dx, dgamma, dbeta) =
            reference(&x, &g, bn.gamma.value.data(), bn.beta.value.data(), bn.eps as f64);
        assert_close(bn.forward(&x, true).data(), &y, "y");
        assert_close(bn.backward(&g).data(), &dx, "dx");
        assert_close(bn.gamma.grad.data(), &dgamma, "dgamma");
        assert_close(bn.beta.grad.data(), &dbeta, "dbeta");
    }

    #[test]
    fn eval_forward_is_the_affine_map_of_the_running_statistics() {
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_vec(vec![2.0, -0.5], &[2]);
        bn.beta.value = Tensor::from_vec(vec![1.0, 3.0], &[2]);
        bn.running_mean = Tensor::from_vec(vec![0.5, -1.0], &[2]);
        bn.running_var = Tensor::from_vec(vec![4.0, 0.25], &[2]);
        let x = Tensor::randn(&[2, 2, 3, 5], 1.0, 31);
        let y = bn.forward(&x, false);
        for (i, (&yv, &xv)) in y.data().iter().zip(x.data()).enumerate() {
            let ci = (i / 15) % 2;
            let (m, v) = (bn.running_mean.data()[ci], bn.running_var.data()[ci]);
            let want = bn.gamma.value.data()[ci] * ((xv - m) * (1.0 / (v + bn.eps).sqrt()))
                + bn.beta.value.data()[ci];
            assert_eq!(yv.to_bits(), want.to_bits(), "y[{i}]");
        }
        assert_eq!(bn.running_mean.data(), &[0.5, -1.0], "eval must not move the statistics");
    }

    #[test]
    fn eval_forward_leaves_the_training_cache_untouched() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, 37);
        let g = Tensor::randn(&[2, 3, 4, 4], 1.0, 41);
        assert!(bn.saved.is_none());
        let _ = bn.forward(&x, false);
        assert!(bn.saved.is_none(), "eval forward must not build a cache");

        let _ = bn.forward(&x, true);
        let mut fresh = BatchNorm2d::new(3);
        let _ = fresh.forward(&x, true);
        // An evaluation pass on other data between forward and backward
        // (validation inside a training step) must not disturb the gradient.
        let _ = bn.forward(&x.map(|v| v * 3.0 - 1.0), false);
        let dx = bn.backward(&g);
        assert_eq!(dx.data(), fresh.backward(&g).data());
    }

    #[test]
    #[should_panic]
    fn channel_mismatch_panics() {
        let mut bn = BatchNorm2d::new(4);
        let _ = bn.forward(&Tensor::zeros(&[1, 3, 2, 2]), true);
    }
}
