//! Convolution geometry: the unrolled image (`col`) and where its values lie.
//!
//! `col` is the `[C·kh·kw, Hout·Wout]` matrix whose column `(oi, oj)` holds
//! the receptive field of output `(oi, oj)`, so convolution is `W · col`.
//! [`im2col`] builds it and [`col2im`] scatters a gradient of it back,
//! accumulating where receptive fields overlap.
//!
//! Both go through one layout, [`ConvGeom::pad_image`]: the image
//! zero-padded and split by row and column phase of the stride, in which
//! row `l = (channel, ki, kj)` of `col` is `oh` runs of `ow` contiguous
//! values, one plane row apart, from a per-row start. A row of `col` is then
//! a copy of its runs ([`ConvGeom::gather_rows`]) and a row of its gradient
//! an add into them ([`ConvGeom::scatter_rows`]), with no edge to test: the
//! padding is in the layout. [`im2col`] and [`col2im`] call the two over
//! all rows; `Conv2d` never builds the whole matrix. Its forward reads
//! `col`'s rows in place ([`ConvGeom::strips`]), its weight gradient copies
//! out two rows at a time ([`ConvGeom::col_rows`]), and its input gradient
//! scatters one slab of rows at a time.

use std::ops::Range;

use crate::gemm::{RowSource, Strips};

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

/// One convolution over one `[c, h, w]` image: the shape of its `col`
/// (`taps() × cols()`), of its padded image, and where in that image each
/// row of `col` starts.
#[derive(Clone, Debug)]
pub(crate) struct ConvGeom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    /// Rows and columns of one phase plane of the padded image.
    hq: usize,
    wq: usize,
    /// Where row `l` of `col` starts in the padded image.
    starts: Vec<usize>,
}

impl ConvGeom {
    pub(crate) fn new(
        c: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
        pad: usize,
    ) -> Self {
        let (oh, ow) = (out_dim(h, kh, stride, pad), out_dim(w, kw, stride, pad));
        let s = stride;
        let (hq, wq) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
        // Tap `(ci, ki, kj)` of output `(oi, oj)` reads plane
        // `(ci, ki % s, kj % s)` at `(oi + ki / s, oj + kj / s)`.
        let starts = (0..c * kh * kw)
            .map(|l| {
                let (ci, ki, kj) = (l / (kh * kw), l % (kh * kw) / kw, l % kw);
                (((ci * s + ki % s) * s + kj % s) * hq + ki / s) * wq + kj / s
            })
            .collect();
        ConvGeom { c, h, w, kh, kw, stride, pad, oh, ow, hq, wq, starts }
    }

    /// Values in one image.
    pub(crate) fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Rows of `col`: one per `(channel, ki, kj)`.
    pub(crate) fn taps(&self) -> usize {
        self.starts.len()
    }

    /// Columns of `col`: one per output position.
    pub(crate) fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Columns of the extended output grid the forward GEMM computes: every
    /// output row is a whole plane row wide (`wq ≥ ow`), and the columns past
    /// `ow` are dropped by [`Self::compact`].
    pub(crate) fn wide_cols(&self) -> usize {
        self.oh * self.wq
    }

    /// Length of [`Self::pad_image`]'s output: the `c·stride²` planes, and
    /// one plane row past the last, which the extended grid's last columns
    /// may read.
    pub(crate) fn padded_len(&self) -> usize {
        (self.c * self.stride * self.stride * self.hq + 1) * self.wq
    }

    /// Call `f(x, at, j0)` for every image row of every plane some tap reads
    /// (a phase below the kernel's size): the image row that starts at `x`
    /// has its pixels `j0, j0 + stride, …` at `at, at + 1, …` of the padded
    /// image. Plane `(ci, pr, pc)` at `(u, v)` holds padded pixel
    /// `(u·stride + pr, v·stride + pc)`.
    fn for_each_plane_row(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (h, w, s, pad, hq, wq) = (self.h, self.w, self.stride, self.pad, self.hq, self.wq);
        // A phase's first plane index that holds an image pixel.
        let first = |p: usize| pad.saturating_sub(p).div_ceil(s);
        for ci in 0..self.c {
            for pr in 0..s.min(self.kh) {
                let u0 = first(pr);
                for pc in 0..s.min(self.kw) {
                    let v0 = first(pc);
                    let (plane, j0) = (((ci * s + pr) * s + pc) * hq * wq, v0 * s + pc - pad);
                    for (du, i) in (u0 * s + pr - pad..h).step_by(s).enumerate() {
                        f((ci * h + i) * w, plane + (u0 + du) * wq + v0, j0);
                    }
                }
            }
        }
    }

    /// The image `x` zero-padded and split by row and column phase into
    /// `xp` ([`Self::padded_len`] long). Row `l` of `col` is then the runs
    /// `xp[starts[l] + oi·wq..][..ow]`, and a padded position holds the
    /// `0.0` that `col` holds there. Planes no tap reads are left zero.
    pub(crate) fn pad_image(&self, x: &[f32], xp: &mut [f32]) {
        assert_eq!(x.len(), self.image_len());
        assert_eq!(xp.len(), self.padded_len());
        xp.fill(0.0);
        let (w, s) = (self.w, self.stride);
        self.for_each_plane_row(|x0, at, j0| {
            let src = &x[x0..x0 + w];
            if s == 1 {
                xp[at..at + w].copy_from_slice(src);
            } else {
                let src = src.get(j0..).unwrap_or_default().iter().step_by(s);
                xp[at..].iter_mut().zip(src).for_each(|(d, &v)| *d = v);
            }
        });
    }

    /// The inverse of [`Self::pad_image`]: copy the image positions of
    /// `xp` into `x`. Pixels in a plane no tap reads are left as they were.
    pub(crate) fn unpad_image(&self, xp: &[f32], x: &mut [f32]) {
        assert_eq!(x.len(), self.image_len());
        assert_eq!(xp.len(), self.padded_len());
        let (w, s) = (self.w, self.stride);
        self.for_each_plane_row(|x0, at, j0| {
            let dst = &mut x[x0..x0 + w];
            if s == 1 {
                dst.copy_from_slice(&xp[at..at + w]);
            } else if let Some(dst) = dst.get_mut(j0..) {
                dst.iter_mut().step_by(s).zip(&xp[at..]).for_each(|(d, &v)| *d = v);
            }
        });
    }

    /// Rows `rows` of `col`, copied out of the padded image `xp` into `col`
    /// (`rows.len()` rows).
    pub(crate) fn gather_rows(&self, xp: &[f32], rows: Range<usize>, col: &mut [f32]) {
        assert_eq!(col.len(), rows.len() * self.cols());
        let ow = self.ow;
        for (&start, row) in self.starts[rows].iter().zip(col.chunks_exact_mut(self.cols())) {
            for (dst, src) in row.chunks_exact_mut(ow).zip(xp[start..].chunks(self.wq)) {
                // Whole 8-value blocks compile to vector moves; a `memcpy`
                // call per run (even an empty one) would cost more than the run.
                let (mut d8, mut s8) = (dst.chunks_exact_mut(8), src[..ow].chunks_exact(8));
                (&mut d8).zip(&mut s8).for_each(|(d, s)| d.copy_from_slice(s));
                let tail = d8.into_remainder();
                if !tail.is_empty() {
                    tail.copy_from_slice(s8.remainder());
                }
            }
        }
    }

    /// Add rows `rows` of a `col` gradient (`rows.len()` rows) into the
    /// padded gradient image `xp`, in `(row, oi, oj)` order: each image
    /// position takes its terms in the order [`col2im`] adds them, and
    /// ascending row ranges taken one after another add in the order of one
    /// whole call.
    pub(crate) fn scatter_rows(&self, col: &[f32], rows: Range<usize>, xp: &mut [f32]) {
        assert_eq!(col.len(), rows.len() * self.cols());
        let ow = self.ow;
        for (&start, row) in self.starts[rows].iter().zip(col.chunks_exact(self.cols())) {
            for (src, dst) in row.chunks_exact(ow).zip(xp[start..].chunks_mut(self.wq)) {
                let (mut d8, mut s8) = (dst[..ow].chunks_exact_mut(8), src.chunks_exact(8));
                for (d, s) in (&mut d8).zip(&mut s8) {
                    for t in 0..8 {
                        d[t] += s[t];
                    }
                }
                d8.into_remainder().iter_mut().zip(s8.remainder()).for_each(|(d, s)| *d += s);
            }
        }
    }

    /// `col` over the extended grid, as the forward GEMM reads it: row `l`
    /// is the [`Self::wide_cols`] values of the padded image `xp` from its
    /// start on. Column `oi·wq + oj` holds `col[l, (oi, oj)]` for every
    /// `oj < ow`.
    pub(crate) fn strips<'a>(&'a self, xp: &'a [f32]) -> Strips<'a, &'a [usize]> {
        assert_eq!(xp.len(), self.padded_len());
        Strips { data: xp, starts: &self.starts, depth: self.taps(), n: self.wide_cols() }
    }

    /// Copy a product over the extended grid (`rows × wide_cols()`) into
    /// `y` (`rows × cols()`), dropping the columns past `ow`.
    pub(crate) fn compact(&self, wide: &[f32], y: &mut [f32]) {
        for (dst, src) in y.chunks_exact_mut(self.ow).zip(wide.chunks_exact(self.wq)) {
            dst.copy_from_slice(&src[..self.ow]);
        }
    }

    /// `col`, stored `taps() × cols()`, as a [`RowSource`] that copies the
    /// rows it is asked for out of the padded image `xp`.
    pub(crate) fn col_rows<'a>(&'a self, xp: &'a [f32]) -> ColRows<'a> {
        assert_eq!(xp.len(), self.padded_len());
        ColRows { geom: self, xp }
    }
}

/// The rows of one image's `col`, copied out of its padded image just
/// before they are used ([`ConvGeom::col_rows`]).
pub(crate) struct ColRows<'a> {
    geom: &'a ConvGeom,
    xp: &'a [f32],
}

impl RowSource for ColRows<'_> {
    fn rows<'a>(&'a self, rows: Range<usize>, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        scratch.resize(rows.len() * self.geom.cols(), 0.0);
        self.geom.gather_rows(self.xp, rows, scratch);
        scratch
    }
}

/// Unroll one image `x` of shape `[c, h, w]` into `col` of shape
/// `[c·kh·kw, oh·ow]` (row-major, preallocated).
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
    let geom = ConvGeom::new(c, (h, w), (kh, kw), stride, pad);
    let mut xp = vec![0.0f32; geom.padded_len()];
    geom.pad_image(x, &mut xp);
    geom.gather_rows(&xp, 0..geom.taps(), col);
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
    let geom = ConvGeom::new(c, (h, w), (kh, kw), stride, pad);
    let mut xp = vec![0.0f32; geom.padded_len()];
    geom.pad_image(dx, &mut xp);
    geom.scatter_rows(col, 0..geom.taps(), &mut xp);
    geom.unpad_image(&xp, dx);
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
