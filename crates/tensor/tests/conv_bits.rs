//! `Conv2d`, bit for bit, against the convolution it is defined as: the
//! image unrolled by the public `im2col`, multiplied by the public GEMM
//! kernels, and the column gradient scattered back by the public `col2im`.
//!
//! Forward `y`, the input gradient, the weight gradient and the bias
//! gradient must be `to_bits()`-equal for every convolution of the tiny
//! ResNet and for every geometry of a kernel / stride / padding sweep —
//! including where padding meets the `-0.0`s and zeros of the operands and
//! where a zero weight faces an infinity in the image. `ci.sh` runs this
//! file in release too.

use dcnn_tensor::gemm::{gemm_acc, gemm_nt_acc, gemm_tn_acc};
use dcnn_tensor::im2col::{col2im, im2col, out_dim};
use dcnn_tensor::layers::{Conv2d, Module};
use dcnn_tensor::Tensor;

/// One convolution over a batch: `(n, in_c, out_c, h, w, k, stride, pad)`.
type Geometry = (usize, usize, usize, usize, usize, usize, usize, usize);

/// `ResNetConfig::tiny` on 32×32 inputs, as `kernel_bits.rs`'s `TINY_CONVS`
/// lists them: the stem, the three stages' 3×3 convolutions and the two 1×1
/// stride-2 projections, at a batch of two.
const TINY_CONVS: [Geometry; 8] = [
    (2, 3, 8, 32, 32, 3, 1, 1),
    (2, 8, 8, 32, 32, 3, 1, 1),
    (2, 8, 16, 32, 32, 3, 2, 1),
    (2, 16, 16, 16, 16, 3, 1, 1),
    (2, 8, 16, 32, 32, 1, 2, 0),
    (2, 16, 32, 16, 16, 3, 2, 1),
    (2, 32, 32, 8, 8, 3, 1, 1),
    (2, 16, 32, 16, 16, 1, 2, 0),
];

/// `im2col.rs`'s sweep: every `(h, w, k, stride, pad)` with `k` in 1–7,
/// `stride` 1–3 and `pad` 0–3 that `out_dim` accepts. Five filters leave a
/// one-row remainder after the four-row register tiles.
fn sweep() -> impl Iterator<Item = Geometry> {
    let dims = [(5, 3), (4, 9), (6, 7)];
    dims.into_iter()
        .flat_map(|(h, w)| [1, 2, 3, 5, 7].map(|k| (h, w, k)))
        .flat_map(|(h, w, k)| [1, 2, 3].map(|stride| (h, w, k, stride)))
        .flat_map(|(h, w, k, stride)| [0, 1, 2, 3].map(|pad| (h, w, k, stride, pad)))
        .filter(|&(h, w, k, _, pad)| h + 2 * pad >= k && w + 2 * pad >= k)
        .map(|(h, w, k, stride, pad)| (2, 2, 5, h, w, k, stride, pad))
}

/// Seeded values in about `[-2, 2]`: every seventh an exact `0.0`, every
/// eleventh a `-0.0` (a ReLU output, a masked gradient).
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match i % 77 {
                r if r % 7 == 3 => 0.0,
                r if r % 11 == 5 => -0.0,
                _ => ((s % 4001) as f32 - 2000.0) / 1000.0,
            }
        })
        .collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// What one convolution produced: `y`, `dx`, the weight and bias gradients.
struct Outputs {
    y: Vec<f32>,
    dx: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

struct Case {
    geo: Geometry,
    x: Vec<f32>,
    w: Vec<f32>,
    b: Vec<f32>,
    g: Vec<f32>,
}

impl Case {
    fn new(geo: Geometry, seed: u64) -> Case {
        let (n, in_c, out_c, h, w, k, stride, pad) = geo;
        let (oh, ow) = (out_dim(h, k, stride, pad), out_dim(w, k, stride, pad));
        Case {
            geo,
            x: values(n * in_c * h * w, seed),
            w: values(out_c * in_c * k * k, seed + 1),
            b: values(out_c, seed + 2),
            g: values(n * out_c * oh * ow, seed + 3),
        }
    }

    /// The layer under test: one forward and one backward from zeroed
    /// gradients.
    fn conv2d(&self) -> Outputs {
        let (n, in_c, out_c, h, w, k, stride, pad) = self.geo;
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, true, 0);
        conv.weight.value = Tensor::from_vec(self.w.clone(), &[out_c, in_c, k, k]);
        conv.bias.as_mut().expect("bias").value = Tensor::from_vec(self.b.clone(), &[out_c]);
        let x = Tensor::from_vec(self.x.clone(), &[n, in_c, h, w]);
        let y = conv.forward(&x, true);
        let g = Tensor::from_vec(self.g.clone(), y.shape());
        let dx = conv.backward(&g);
        Outputs {
            y: y.data().to_vec(),
            dx: dx.data().to_vec(),
            gw: conv.weight.grad.data().to_vec(),
            gb: conv.bias.as_ref().expect("bias").grad.data().to_vec(),
        }
    }

    /// The materialising definition: `im2col` → `gemm_acc`, `im2col` →
    /// `gemm_nt_acc`, `gemm_tn_acc` → `col2im`, with the batch's weight and
    /// bias gradients summed into zeroed buffers and added to zeroed
    /// gradients, as the layer does.
    fn reference(&self) -> Outputs {
        let (n, in_c, out_c, h, w, k, stride, pad) = self.geo;
        let (oh, ow) = (out_dim(h, k, stride, pad), out_dim(w, k, stride, pad));
        let (k2, cols, img, oimg) = (in_c * k * k, oh * ow, in_c * h * w, out_c * oh * ow);
        let mut y = vec![0.0f32; n * oimg];
        let mut dx = vec![0.0f32; n * img];
        let (mut gw, mut gb) = (vec![0.0f32; out_c * k2], vec![0.0f32; out_c]);
        let mut col = vec![0.0f32; k2 * cols];
        for i in 0..n {
            let (xi, gi) = (&self.x[i * img..][..img], &self.g[i * oimg..][..oimg]);
            im2col(xi, &mut col, in_c, h, w, k, k, stride, pad);
            let yi = &mut y[i * oimg..][..oimg];
            gemm_acc(yi, &self.w, &col, out_c, k2, cols);
            for (yc, &bv) in yi.chunks_mut(cols).zip(&self.b) {
                yc.iter_mut().for_each(|v| *v += bv);
            }
            gemm_nt_acc(&mut gw, gi, &col, out_c, cols, k2);
            let mut gcol = vec![0.0f32; k2 * cols];
            gemm_tn_acc(&mut gcol, &self.w, gi, k2, out_c, cols);
            col2im(&gcol, &mut dx[i * img..][..img], in_c, h, w, k, k, stride, pad);
            for (b, gc) in gb.iter_mut().zip(gi.chunks(cols)) {
                *b += gc.iter().sum::<f32>();
            }
        }
        let into_zeroed = |v: Vec<f32>| -> Vec<f32> {
            let sum: Vec<f32> = v.iter().map(|&x| 0.0 + x).collect();
            sum.iter().map(|&x| 0.0 + x).collect()
        };
        Outputs { y, dx, gw: into_zeroed(gw), gb: into_zeroed(gb) }
    }

    fn check(&self) -> Outputs {
        let (got, want) = (self.conv2d(), self.reference());
        let geo = self.geo;
        assert_eq!(bits(&got.y), bits(&want.y), "forward y at {geo:?}");
        assert_eq!(bits(&got.dx), bits(&want.dx), "input gradient at {geo:?}");
        assert_eq!(bits(&got.gw), bits(&want.gw), "weight gradient at {geo:?}");
        assert_eq!(bits(&got.gb), bits(&want.gb), "bias gradient at {geo:?}");
        got
    }
}

#[test]
fn every_conv_of_the_tiny_resnet_is_bitwise_the_lowered_conv() {
    for (s, &geo) in TINY_CONVS.iter().enumerate() {
        Case::new(geo, 10 * s as u64).check();
    }
}

#[test]
fn every_kernel_stride_and_padding_of_the_sweep_is_bitwise_the_lowered_conv() {
    let mut cases = 0;
    for (s, geo) in sweep().enumerate() {
        Case::new(geo, 1000 + s as u64).check();
        cases += 1;
    }
    assert!(cases > 100, "the sweep covers {cases} geometries");
}

#[test]
fn a_zero_weight_facing_an_infinity_skips_its_term() {
    // Input channel 1 holds infinities and every filter's weights on it are
    // zero (either sign): the AXPY kernels skip those terms, so `y` stays
    // finite where `0·inf` would make it NaN — and both sides must agree.
    for (s, geo) in [(1, 3, 5, 9, 9, 3, 1, 1), (2, 3, 8, 8, 8, 3, 2, 1), (1, 3, 4, 6, 7, 5, 1, 2)]
        .into_iter()
        .enumerate()
    {
        let mut case = Case::new(geo, 500 + s as u64);
        let (_, in_c, out_c, h, w, k, _, _) = geo;
        for img in case.x.chunks_mut(in_c * h * w) {
            for (p, v) in img[h * w..2 * h * w].iter_mut().enumerate() {
                if p % 3 == 0 {
                    *v = if p % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
                }
            }
        }
        for (o, filter) in case.w.chunks_mut(in_c * k * k).enumerate() {
            for (t, v) in filter[k * k..2 * k * k].iter_mut().enumerate() {
                *v = if (o + t) % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let got = case.check();
        assert!(got.y.iter().all(|v| v.is_finite()), "0·inf was computed at {geo:?}");
        assert!(got.gw.iter().any(|v| !v.is_finite()), "the infinities reach the weight gradient");
        assert_eq!(got.y.len() % out_c, 0);
    }
}
