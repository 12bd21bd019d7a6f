//! 2-D convolution as three GEMMs that read the image itself, the way the
//! cuDNN implicit-GEMM kernels of the paper's Torch stack never build the
//! unrolled image (`col`, see [`crate::im2col`]). The forward pads each
//! image once ([`ConvGeom::pad_image`]) and training keeps the padded batch
//! for the backward:
//!
//! - forward `y = W · col`: the GEMM tile loads each row of `col` from the
//!   padded image at that tap's start, over an extended grid whose output
//!   rows are a plane row wide; the extra columns are dropped;
//! - weight gradient `gW += g · colᵀ`: the dot-product kernel asks for two
//!   rows of `col` at a time, copied out of the padded image just before use;
//! - input gradient `dx += col2im(Wᵀ · g)`: the product is computed a slab
//!   of rows at a time ([`slab_rows`]) and each slab is added into a padded
//!   gradient image while it is still in L1, slabs in ascending row order —
//!   the order of one whole `col2im` — before that image is copied into `dx`.
//!
//! Every value the kernels read or add is the one the unrolled matrix would
//! hold, in the same order, so each output has the bits of `im2col` →
//! GEMM → `col2im`.

use std::cell::RefCell;

use super::{lay_grad, GradSink, Module, OwnGrads, Param};
use crate::gemm::{
    gemm_acc, gemm_nt_acc, gemm_nt_rows_acc, gemm_strips, gemm_tn_acc, gemm_tn_rows, MR,
};
use crate::im2col::{out_dim, ConvGeom};
use crate::init::he_conv;
use crate::tensor::Tensor;

thread_local! {
    /// The forward's product over the extended grid, before it is compacted
    /// (one per replica thread, reused: conv layers are called every
    /// iteration).
    static WIDE_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The input gradient of one image, padded like the image.
    static GRAD_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// One slab of the input gradient's column matrix ([`slab_rows`]).
    static SLAB_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn with_scratch<R>(
    slot: &'static std::thread::LocalKey<RefCell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    slot.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Values of the input gradient's column matrix computed and scattered at
/// a time: a slab stays in L1 between the two.
const SLAB: usize = 4096;

/// Rows of `col` per slab at `cols` columns: whole `MR`-row register tiles,
/// at least one.
fn slab_rows(cols: usize) -> usize {
    MR * (SLAB / (MR * cols)).max(1)
}

/// 2-D convolution with square-independent kernel, stride and padding.
pub struct Conv2d {
    /// Filter bank `[out_c, in_c, kh, kw]`.
    pub weight: Param,
    /// Optional bias `[out_c]` (omitted when a BatchNorm follows, as in
    /// ResNet and GoogLeNet-BN).
    pub bias: Option<Param>,
    in_c: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    saved: Option<Saved>,
}

/// What `backward` reads of the forward's input.
struct Saved {
    shape: Vec<usize>,
    /// Each image as the weight gradient reads it: zero-padded
    /// ([`ConvGeom::pad_image`]) by the forward, which needed it so too —
    /// or, for a pointwise convolution, as given.
    images: Vec<f32>,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        seed: u64,
    ) -> Self {
        let weight = Param::new(he_conv(out_c, in_c, kernel, kernel, seed));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_c])));
        Conv2d { weight, bias, in_c, out_c, kh: kernel, kw: kernel, stride, pad, saved: None }
    }

    /// Output shape for an input `[n, in_c, h, w]`.
    pub fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(in_shape.len(), 4);
        assert_eq!(in_shape[1], self.in_c, "channel mismatch");
        vec![
            in_shape[0],
            self.out_c,
            out_dim(in_shape[2], self.kh, self.stride, self.pad),
            out_dim(in_shape[3], self.kw, self.stride, self.pad),
        ]
    }

    /// The geometry of one image of an input of shape `s`.
    fn geom(&self, s: &[usize]) -> ConvGeom {
        ConvGeom::new(self.in_c, (s[2], s[3]), (self.kh, self.kw), self.stride, self.pad)
    }

    /// `y = W · col` for one image from its padded image `xp`: over the
    /// extended grid, compacted — or straight into `y` where a plane row is
    /// an output row wide.
    fn forward_padded(&self, geom: &ConvGeom, xp: &[f32], y: &mut [f32]) {
        let (w, strips) = (self.weight.value.data(), geom.strips(xp));
        if strips.n == geom.cols() {
            gemm_strips(y, w, &strips, self.out_c);
        } else {
            with_scratch(&WIDE_SCRATCH, self.out_c * strips.n, |wide| {
                gemm_strips(wide, w, &strips, self.out_c);
                geom.compact(wide, y);
            });
        }
    }

    /// `dx += col2im(Wᵀ · g)` for one image and the `out_c × k2` filter
    /// bank `w`: one slab of rows of `Wᵀ · g` at a time, added into a padded
    /// gradient image while the slab is in L1, then the padded image copied
    /// into `dx` (still zeros).
    fn input_gradient(w: &[f32], geom: &ConvGeom, g: &[f32], dx: &mut [f32]) {
        let (k2, cols) = (geom.taps(), geom.cols());
        let out_c = w.len() / k2;
        let rows_per_slab = slab_rows(cols);
        with_scratch(&SLAB_SCRATCH, rows_per_slab * cols, |slab| {
            with_scratch(&GRAD_SCRATCH, geom.padded_len(), |dxp| {
                dxp.fill(0.0);
                for l in (0..k2).step_by(rows_per_slab) {
                    let rows = l..k2.min(l + rows_per_slab);
                    let slab = &mut slab[..rows.len() * cols];
                    gemm_tn_rows(slab, w, g, rows.clone(), (k2, out_c, cols));
                    geom.scatter_rows(slab, rows, dxp);
                }
                geom.unpad_image(dxp, dx);
            });
        });
    }

    /// 1×1/stride-1/pad-0 convolutions are plain channel-mixing GEMMs over
    /// `[C, H·W]`: the image already *is* `col`. ResNet-50's bottlenecks and
    /// the inception reduce layers make this the most common conv shape.
    fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1 && self.pad == 0
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let geom = self.geom(x.shape());
        let (img, cols) = (geom.image_len(), geom.cols());
        let mut out = Tensor::zeros(&self.out_shape(x.shape()));
        let wdata = self.weight.value.data();
        let images = out.data_mut().chunks_mut(self.out_c * cols).zip(x.data().chunks(img));
        let saved = if self.is_pointwise() {
            // y[oc, hw] = W[oc, ic] · x[ic, hw]
            images.for_each(|(yo, xo)| gemm_acc(yo, wdata, xo, self.out_c, self.in_c, cols));
            if train {
                x.data().to_vec()
            } else {
                Vec::new()
            }
        } else {
            let mut padded = vec![0.0f32; x.shape()[0] * geom.padded_len()];
            for ((yo, xo), xp) in images.zip(padded.chunks_mut(geom.padded_len())) {
                geom.pad_image(xo, xp);
                self.forward_padded(&geom, xp, yo);
            }
            padded
        };
        if let Some(b) = &self.bias {
            for yo in out.data_mut().chunks_mut(self.out_c * cols) {
                for (yc, &bv) in yo.chunks_mut(cols).zip(b.value.data()) {
                    yc.iter_mut().for_each(|v| *v += bv);
                }
            }
        }
        if train {
            self.saved = Some(Saved { shape: x.shape().to_vec(), images: saved });
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_into(grad, 0, &mut OwnGrads(&mut |_, _| {}))
    }

    fn backward_into(&mut self, grad: &Tensor, base: usize, sink: &mut dyn GradSink) -> Tensor {
        let Saved { shape, images } =
            self.saved.take().expect("forward(train=true) before backward");
        let geom = self.geom(&shape);
        assert_eq!(grad.shape(), &self.out_shape(&shape)[..], "grad shape");
        let (k2, img, cols) = (geom.taps(), geom.image_len(), geom.cols());
        let (out_c, oimg, pointwise) = (self.out_c, self.out_c * cols, self.is_pointwise());
        let mut dx = Tensor::zeros(&shape);
        let wdata = self.weight.value.data();
        let per_image = if pointwise { img } else { geom.padded_len() };

        // Per-image work, the weight gradient summed over the batch from
        // zeros in the sink's slot (or `p.grad`).
        lay_grad(sink, base, &mut self.weight.grad, |gw| {
            gw.fill(0.0);
            let inputs = images.chunks(per_image).zip(grad.data().chunks(oimg));
            for (dxo, (xo, go)) in dx.data_mut().chunks_mut(img).zip(inputs) {
                if pointwise {
                    // gW[oc, ic] += g[oc, hw] · xᵀ; dx[ic, hw] = Wᵀ · g.
                    gemm_nt_acc(gw, go, xo, out_c, cols, k2);
                    gemm_tn_acc(dxo, wdata, go, k2, out_c, cols);
                } else {
                    // gW[oc, k2] += g[oc, ohow] · colᵀ, two rows of col at a
                    // time, copied out of the padded image.
                    gemm_nt_rows_acc(gw, go, &geom.col_rows(xo), (out_c, cols, k2));
                    Self::input_gradient(wdata, &geom, go, dxo);
                }
            }
        });
        // A conv feeding a BatchNorm has no bias gradient to sum.
        if let Some(b) = &mut self.bias {
            lay_grad(sink, base + out_c * k2, &mut b.grad, |gb| {
                gb.fill(0.0);
                for go in grad.data().chunks(oimg) {
                    for (b, gc) in gb.iter_mut().zip(go.chunks(cols)) {
                        *b += gc.iter().sum::<f32>();
                    }
                }
            });
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&format!("{prefix}weight"), &mut self.weight);
        if let Some(b) = &mut self.bias {
            f(&format!("{prefix}bias"), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::check_input_gradient;

    /// Direct (definition-level) convolution for cross-checking.
    fn conv_naive(x: &Tensor, w: &Tensor, b: Option<&[f32]>, stride: usize, pad: usize) -> Tensor {
        let (n, ic, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oc, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
        let oh = out_dim(h, kh, stride, pad);
        let ow = out_dim(wd, kw, stride, pad);
        let mut y = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for co in 0..oc {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = b.map(|b| b[co]).unwrap_or(0.0);
                        for ci in 0..ic {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ii = (oi * stride + ki) as isize - pad as isize;
                                    let jj = (oj * stride + kj) as isize - pad as isize;
                                    if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < wd
                                    {
                                        acc += x.at4(ni, ci, ii as usize, jj as usize)
                                            * w.at4(co, ci, ki, kj);
                                    }
                                }
                            }
                        }
                        y.set4(ni, co, oi, oj, acc);
                    }
                }
            }
        }
        y
    }

    #[test]
    fn forward_matches_naive() {
        for (stride, pad, bias) in [(1, 0, false), (1, 1, true), (2, 1, false), (2, 3, true)] {
            let mut conv = Conv2d::new(3, 5, 3, stride, pad, bias, 7);
            let x = Tensor::randn(&[2, 3, 8, 9], 1.0, 21);
            let y = conv.forward(&x, false);
            let b = conv.bias.as_ref().map(|b| b.value.data().to_vec());
            let want = conv_naive(&x, &conv.weight.value, b.as_deref(), stride, pad);
            assert!(y.allclose(&want, 1e-4, 1e-5), "stride={stride} pad={pad} bias={bias}");
        }
    }

    #[test]
    fn out_shape_resnet_stem() {
        let conv = Conv2d::new(3, 64, 7, 2, 3, false, 0);
        assert_eq!(conv.out_shape(&[32, 3, 224, 224]), vec![32, 64, 112, 112]);
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, false, 1);
        conv.weight.value = Tensor::from_vec(vec![1.0, 0.0, 1.0, 1.0], &[2, 2, 1, 1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 1, 2]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), &[1.0, 2.0, 11.0, 22.0]);
    }

    #[test]
    fn input_gradient_checks() {
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, true, 5);
        let x = Tensor::randn(&[2, 2, 6, 5], 1.0, 9);
        // Loss = 0.5 Σ y², so dL/dy = y.
        check_input_gradient(
            &mut conv,
            &x,
            |y| 0.5 * y.data().iter().map(|&v| (v as f64).powi(2)).sum::<f64>(),
            |y| y.clone(),
            2e-2,
        );
    }

    #[test]
    fn weight_gradient_numeric() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, false, 3);
        let x = Tensor::randn(&[1, 1, 5, 5], 1.0, 4);
        let y = conv.forward(&x, true);
        let _ = conv.backward(&y.clone());
        let analytic = conv.weight.grad.clone();
        let eps = 1e-2f32;
        for i in [0usize, 5, 11, 17] {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let lp: f64 =
                conv.forward(&x, false).data().iter().map(|&v| 0.5 * (v as f64).powi(2)).sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let lm: f64 =
                conv.forward(&x, false).data().iter().map(|&v| 0.5 * (v as f64).powi(2)).sum();
            conv.weight.value.data_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = analytic.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * num.abs().max(1.0),
                "w[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn pointwise_fast_path_matches_general_path() {
        // Same weights through a 1×1 conv (fast path) vs the identical
        // mathematical op expressed as a padded 3×3 with zero borders (slow
        // path): forward outputs and all gradients must agree.
        let (ic, oc) = (3, 5);
        let x = Tensor::randn(&[2, ic, 6, 7], 1.0, 11);
        let w1 = crate::init::he_conv(oc, ic, 1, 1, 42);
        let mut fast = Conv2d::new(ic, oc, 1, 1, 0, false, 0);
        fast.weight.value = w1.clone();
        // Embed the 1×1 kernel at the center of a 3×3 kernel of zeros.
        let mut w3 = Tensor::zeros(&[oc, ic, 3, 3]);
        for o in 0..oc {
            for i in 0..ic {
                w3.set4(o, i, 1, 1, w1.at4(o, i, 0, 0));
            }
        }
        let mut slow = Conv2d::new(ic, oc, 3, 1, 1, false, 0);
        slow.weight.value = w3;
        let yf = fast.forward(&x, true);
        let ys = slow.forward(&x, true);
        assert!(yf.allclose(&ys, 1e-4, 1e-5));
        let g = Tensor::randn(yf.shape(), 1.0, 9);
        let dxf = fast.backward(&g);
        let dxs = slow.backward(&g);
        assert!(dxf.allclose(&dxs, 1e-4, 1e-4));
        // The fast path's weight grad equals the center taps of the slow's.
        for o in 0..oc {
            for i in 0..ic {
                let a = fast.weight.grad.at4(o, i, 0, 0);
                let b = slow.weight.grad.at4(o, i, 1, 1);
                assert!((a - b).abs() < 1e-3 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn a_second_backward_overwrites() {
        // Pointwise and 3x3, both with a bias: the second backward sets
        // `p.grad` to its own gradient, whatever the first left there.
        for (k, pad) in [(1, 0), (3, 1)] {
            let mut conv = Conv2d::new(2, 3, k, 1, pad, true, 2);
            let x = Tensor::randn(&[2, 2, 4, 4], 1.0, 3);
            let g = Tensor::randn(&[2, 3, 4, 4], 1.0, 4);
            conv.forward(&x, true);
            conv.backward(&g);
            let mut first = Vec::new();
            conv.visit_params(&mut |p| first.push(p.grad.data().to_vec()));
            conv.forward(&x, true);
            conv.backward(&g);
            let mut second = Vec::new();
            conv.visit_params(&mut |p| second.push(p.grad.data().to_vec()));
            assert_eq!(first, second, "k={k}");
        }
    }

    #[test]
    fn visit_params_order() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, true, 0);
        let mut sizes = Vec::new();
        conv.visit_params(&mut |p| sizes.push(p.len()));
        assert_eq!(sizes, vec![4 * 2 * 3 * 3, 4]);
    }
}
