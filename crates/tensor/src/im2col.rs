//! Lowering convolutions to GEMM.
//!
//! `im2col` unrolls every receptive field of one image into a column of a
//! `[C·kh·kw, Hout·Wout]` matrix so convolution becomes `W · col`. `col2im`
//! scatters gradients back, accumulating where receptive fields overlap.

/// Output spatial size of a convolution/pooling dimension.
pub fn out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0);
    assert!(
        input + 2 * pad >= kernel,
        "kernel {kernel} larger than padded input {}",
        input + 2 * pad
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Output columns `oj` of kernel column `kj` whose input column
/// `oj·stride + kj − pad` lies inside `0..w`, as `(lo, hi, first)`: the
/// half-open interval `lo..hi` (empty as `lo == hi`) and the input column of
/// `lo`. Outside it the tap reads padding.
fn valid_cols(kj: usize, w: usize, ow: usize, stride: usize, pad: usize) -> (usize, usize, usize) {
    let lo = pad.saturating_sub(kj).div_ceil(stride).min(ow);
    let hi = if w + pad > kj { ((w + pad - kj - 1) / stride + 1).min(ow) } else { 0 };
    (lo, hi.max(lo), (lo * stride + kj).saturating_sub(pad))
}

/// Unroll one image `x` of shape `[c, h, w]` into `col` of shape
/// `[c·kh·kw, oh·ow]` (row-major, preallocated).
///
/// Each `(channel, ki, kj, oi)` row of `col` is one run of an image row —
/// copied whole at stride 1 — between zeroed edges.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    col: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) {
    let oh = out_dim(h, kh, stride, pad);
    let ow = out_dim(w, kw, stride, pad);
    assert_eq!(x.len(), c * h * w);
    assert_eq!(col.len(), c * kh * kw * oh * ow);
    let mut rows = col.chunks_mut(ow);
    for xc in x.chunks(h * w) {
        for ki in 0..kh {
            for kj in 0..kw {
                let (lo, hi, first) = valid_cols(kj, w, ow, stride, pad);
                for oi in 0..oh {
                    let dst = rows.next().expect("c·kh·kw·oh rows");
                    let ii = oi * stride + ki;
                    if ii < pad || ii >= h + pad || lo == hi {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &xc[(ii - pad) * w + first..];
                    dst[..lo].fill(0.0);
                    dst[hi..].fill(0.0);
                    if stride == 1 {
                        dst[lo..hi].copy_from_slice(&src[..hi - lo]);
                    } else {
                        for (d, &s) in dst[lo..hi].iter_mut().zip(src.iter().step_by(stride)) {
                            *d = s;
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-add `col` (shape `[c·kh·kw, oh·ow]`) back into image gradient
/// `dx` of shape `[c, h, w]` (accumulating; caller zeroes `dx` first), in
/// `(channel, ki, kj, oi, oj)` order.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    col: &[f32],
    dx: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) {
    let oh = out_dim(h, kh, stride, pad);
    let ow = out_dim(w, kw, stride, pad);
    assert_eq!(dx.len(), c * h * w);
    assert_eq!(col.len(), c * kh * kw * oh * ow);
    let mut rows = col.chunks(ow);
    for xc in dx.chunks_mut(h * w) {
        for ki in 0..kh {
            for kj in 0..kw {
                let (lo, hi, first) = valid_cols(kj, w, ow, stride, pad);
                for oi in 0..oh {
                    let src = &rows.next().expect("c·kh·kw·oh rows")[lo..hi];
                    let ii = oi * stride + ki;
                    if ii < pad || ii >= h + pad || lo == hi {
                        continue;
                    }
                    let dst = &mut xc[(ii - pad) * w + first..];
                    if stride == 1 {
                        for (d, &s) in dst[..hi - lo].iter_mut().zip(src) {
                            *d += s;
                        }
                    } else {
                        for (d, &s) in dst.iter_mut().step_by(stride).zip(src) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(224, 7, 2, 3), 112);
        assert_eq!(out_dim(56, 3, 1, 1), 56);
        assert_eq!(out_dim(56, 1, 1, 0), 56);
        assert_eq!(out_dim(56, 3, 2, 1), 28);
        assert_eq!(out_dim(4, 2, 2, 0), 2);
    }

    #[test]
    #[should_panic]
    fn kernel_too_large_panics() {
        let _ = out_dim(2, 5, 1, 0);
    }

    #[test]
    fn identity_kernel_1x1() {
        // 1×1 / stride 1 / pad 0: col equals the image, row per channel.
        let x: Vec<f32> = (0..2 * 3 * 3).map(|i| i as f32).collect();
        let mut col = vec![0.0; 2 * 9];
        im2col(&x, &mut col, 2, 3, 3, 1, 1, 1, 0);
        assert_eq!(col, x);
    }

    #[test]
    fn known_3x3_patch() {
        // 1 channel, 3×3 image, 3×3 kernel, no pad: one output position; the
        // column is the image itself (in kernel order).
        let x: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let mut col = vec![0.0; 9];
        im2col(&x, &mut col, 1, 3, 3, 3, 3, 1, 0);
        assert_eq!(col, x);
    }

    #[test]
    fn padding_zeroes_border() {
        let x = vec![1.0; 4]; // 1×2×2
        let oh = out_dim(2, 3, 1, 1); // = 2
        let mut col = vec![f32::NAN; 9 * oh * oh];
        im2col(&x, &mut col, 1, 2, 2, 3, 3, 1, 1);
        assert!(col.iter().all(|v| !v.is_nan()));
        // Row 0 = kernel offset (0,0): output (0,0) reads x[-1,-1] = 0.
        assert_eq!(col[0], 0.0);
        // Row 4 = kernel center: output (0,0) reads x[0,0] = 1.
        assert_eq!(col[4 * 4], 1.0);
    }

    /// Every geometry of the sweep that `out_dim` accepts, as
    /// `(h, w, k, stride, pad)`: kernels wider than the unpadded image
    /// (`k = 5, 7` on `w = 3`) and taps with no valid column at all
    /// (`k = 7`, `pad = 3`, `w = 3`: `kj = 6` starts past the last pixel).
    fn sweep() -> impl Iterator<Item = (usize, usize, usize, usize, usize)> {
        let dims = [(5, 3), (4, 9), (6, 7)];
        dims.into_iter()
            .flat_map(|(h, w)| [1, 2, 3, 5, 7].map(|k| (h, w, k)))
            .flat_map(|(h, w, k)| [1, 2, 3].map(|stride| (h, w, k, stride)))
            .flat_map(|(h, w, k, stride)| [0, 1, 2, 3].map(|pad| (h, w, k, stride, pad)))
            .filter(|&(h, w, k, _, pad)| h + 2 * pad >= k && w + 2 * pad >= k)
    }

    /// Input pixel under tap `(ki, kj)` of output `(oi, oj)`, or `None` in
    /// the padding — the per-element bounds test the kernels no longer make.
    fn tap(
        (oi, oj): (usize, usize),
        (ki, kj): (usize, usize),
        (h, w): (usize, usize),
        stride: usize,
        pad: usize,
    ) -> Option<usize> {
        let ii = (oi * stride + ki) as isize - pad as isize;
        let jj = (oj * stride + kj) as isize - pad as isize;
        (ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize)
            .then(|| ii as usize * w + jj as usize)
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn im2col_equals_definition_gather_bitwise() {
        let c = 2;
        let mut empty_rows = 0;
        for (h, w, k, stride, pad) in sweep() {
            let (oh, ow) = (out_dim(h, k, stride, pad), out_dim(w, k, stride, pad));
            let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut want = Vec::with_capacity(c * k * k * oh * ow);
            for ci in 0..c {
                for ki in 0..k {
                    for kj in 0..k {
                        empty_rows += (kj >= w + pad) as usize;
                        for oi in 0..oh {
                            for oj in 0..ow {
                                let at = tap((oi, oj), (ki, kj), (h, w), stride, pad);
                                want.push(at.map_or(0.0, |p| x[ci * h * w + p]));
                            }
                        }
                    }
                }
            }
            let mut col = vec![f32::NAN; want.len()];
            im2col(&x, &mut col, c, h, w, k, k, stride, pad);
            assert_eq!(bits(&col), bits(&want), "h={h} w={w} k={k} stride={stride} pad={pad}");
        }
        assert!(empty_rows > 0, "the sweep must reach taps with an empty interval");
    }

    #[test]
    fn col2im_equals_definition_scatter_bitwise() {
        let c = 2;
        for (h, w, k, stride, pad) in sweep() {
            let (oh, ow) = (out_dim(h, k, stride, pad), out_dim(w, k, stride, pad));
            let col: Vec<f32> =
                (0..c * k * k * oh * ow).map(|i| (i as f32 * 0.11).cos() * 3.0).collect();
            // Accumulate onto a non-zero image, in (c, ki, kj, oi, oj) order.
            let dx0: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.7).sin()).collect();
            let mut want = dx0.clone();
            let mut src = col.iter();
            for ci in 0..c {
                for ki in 0..k {
                    for kj in 0..k {
                        for oi in 0..oh {
                            for oj in 0..ow {
                                let v = src.next().expect("col element");
                                if let Some(p) = tap((oi, oj), (ki, kj), (h, w), stride, pad) {
                                    want[ci * h * w + p] += v;
                                }
                            }
                        }
                    }
                }
            }
            let mut dx = dx0;
            col2im(&col, &mut dx, c, h, w, k, k, stride, pad);
            assert_eq!(bits(&dx), bits(&want), "h={h} w={w} k={k} stride={stride} pad={pad}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // which is exactly what the conv backward pass relies on.
        let (c, h, w, kh, kw, stride, pad) = (2, 5, 4, 3, 3, 2, 1);
        let oh = out_dim(h, kh, stride, pad);
        let ow = out_dim(w, kw, stride, pad);
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> =
            (0..c * kh * kw * oh * ow).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut col = vec![0.0; y.len()];
        im2col(&x, &mut col, c, h, w, kh, kw, stride, pad);
        let lhs: f64 = col.iter().zip(&y).map(|(&a, &b)| (a * b) as f64).sum();
        let mut dx = vec![0.0; x.len()];
        col2im(&y, &mut dx, c, h, w, kh, kw, stride, pad);
        let rhs: f64 = x.iter().zip(&dx).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // stride 1, 2×2 kernel on 3×3: center pixel belongs to 4 patches.
        let (c, h, w) = (1, 3, 3);
        let oh = out_dim(h, 2, 1, 0);
        let col = vec![1.0; 4 * oh * oh];
        let mut dx = vec![0.0; 9];
        col2im(&col, &mut dx, c, h, w, 2, 2, 1, 0);
        assert_eq!(dx[4], 4.0); // center
        assert_eq!(dx[0], 1.0); // corner
        assert_eq!(dx[1], 2.0); // edge
    }
}
