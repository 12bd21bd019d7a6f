//! Module composition: sequential chains, residual blocks (ResNet) and
//! channel-concatenated parallel branches (GoogLeNet inception modules).

use crate::layers::{param_count, GradSink, Module, OwnGrads, Param};
use crate::tensor::Tensor;

/// A chain of modules applied in order.
#[derive(Default)]
pub struct Sequential {
    mods: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Empty chain.
    pub fn new() -> Self {
        Sequential { mods: Vec::new() }
    }

    /// Append a module (builder style).
    pub fn push(mut self, m: impl Module + 'static) -> Self {
        self.mods.push(Box::new(m));
        self
    }

    /// Append a boxed module.
    pub fn push_boxed(mut self, m: Box<dyn Module>) -> Self {
        self.mods.push(m);
        self
    }

    /// Number of modules in the chain.
    pub fn len(&self) -> usize {
        self.mods.len()
    }

    /// Whether the chain is empty (acts as identity).
    pub fn is_empty(&self) -> bool {
        self.mods.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        // The first module reads `x` where it lies; only the empty chain
        // (the identity) has to copy it.
        let Some((first, rest)) = self.mods.split_first_mut() else {
            return x.clone();
        };
        let mut cur = first.forward(x, train);
        for m in rest {
            cur = m.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_into(grad, 0, &mut OwnGrads(&mut |_, _| {}))
    }

    fn backward_hooked(
        &mut self,
        grad: &Tensor,
        base: usize,
        hook: &mut dyn FnMut(usize, &[f32]),
    ) -> Tensor {
        self.backward_into(grad, base, &mut OwnGrads(hook))
    }

    fn backward_into(&mut self, grad: &Tensor, base: usize, sink: &mut dyn GradSink) -> Tensor {
        // Child base offsets follow visit_params order (forward order);
        // backward then walks the chain in reverse, so the last child's
        // parameters are reported first.
        let mut bases = Vec::with_capacity(self.mods.len());
        let mut off = base;
        for m in &mut self.mods {
            bases.push(off);
            off += param_count(m.as_mut());
        }
        let mut mods = self.mods.iter_mut().zip(bases).rev();
        let Some((last, b)) = mods.next() else {
            return grad.clone();
        };
        let mut cur = last.backward_into(grad, b, sink);
        for (m, b) in mods {
            cur = m.backward_into(&cur, b, sink);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for m in &mut self.mods {
            m.visit_params(f);
        }
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        for (i, m) in self.mods.iter_mut().enumerate() {
            m.visit_params_named(&format!("{prefix}{i}."), f);
        }
    }
}

/// A ResNet-style residual block: `y = ReLU(main(x) + shortcut(x))`, where an
/// empty shortcut is the identity.
pub struct Residual {
    main: Sequential,
    shortcut: Sequential,
    relu_mask: Option<Vec<bool>>,
}

impl Residual {
    /// Identity-shortcut residual block.
    pub fn new(main: Sequential) -> Self {
        Residual { main, shortcut: Sequential::new(), relu_mask: None }
    }

    /// Residual block with a projection shortcut (used when the main path
    /// changes shape, e.g. the strided 1×1 downsample convs of ResNet-50).
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Residual { main, shortcut, relu_mask: None }
    }
}

impl Module for Residual {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let main_out = self.main.forward(x, train);
        let short_out = if self.shortcut.is_empty() {
            x.clone()
        } else {
            self.shortcut.forward(x, train)
        };
        assert_eq!(
            main_out.shape(),
            short_out.shape(),
            "residual branch shapes must match"
        );
        let mut y = main_out;
        y.add_(&short_out);
        if train {
            self.relu_mask = Some(y.data().iter().map(|&v| v > 0.0).collect());
        }
        y.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_into(grad, 0, &mut OwnGrads(&mut |_, _| {}))
    }

    fn backward_hooked(
        &mut self,
        grad: &Tensor,
        base: usize,
        hook: &mut dyn FnMut(usize, &[f32]),
    ) -> Tensor {
        self.backward_into(grad, base, &mut OwnGrads(hook))
    }

    fn backward_into(&mut self, grad: &Tensor, base: usize, sink: &mut dyn GradSink) -> Tensor {
        let mask = self.relu_mask.take().expect("forward(train=true) before backward");
        let gated = Tensor::from_vec(
            grad.data()
                .iter()
                .zip(&mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
            grad.shape(),
        );
        // visit_params order is main then shortcut, so the shortcut's
        // parameters live after the main path's in the flat layout.
        let main_len = param_count(&mut self.main);
        let mut dx = self.main.backward_into(&gated, base, sink);
        if self.shortcut.is_empty() {
            dx.add_(&gated);
        } else {
            dx.add_(&self.shortcut.backward_into(&gated, base + main_len, sink));
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        self.shortcut.visit_params(f);
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        self.main.visit_params_named(&format!("{prefix}main."), f);
        self.shortcut.visit_params_named(&format!("{prefix}shortcut."), f);
    }
}

/// Parallel branches whose `[N, C_b, H, W]` outputs are concatenated along
/// the channel axis — the inception module topology of GoogLeNet.
pub struct Concat {
    branches: Vec<Sequential>,
    saved_channels: Option<Vec<usize>>,
}

impl Concat {
    /// Concatenate the outputs of `branches` (all fed the same input).
    pub fn new(branches: Vec<Sequential>) -> Self {
        assert!(!branches.is_empty(), "Concat needs at least one branch");
        Concat { branches, saved_channels: None }
    }
}

impl Module for Concat {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let outs: Vec<Tensor> =
            self.branches.iter_mut().map(|b| b.forward(x, train)).collect();
        let (n, h, w) = (outs[0].shape()[0], outs[0].shape()[2], outs[0].shape()[3]);
        for o in &outs {
            assert_eq!(o.shape()[0], n);
            assert_eq!(o.shape()[2], h, "branch spatial sizes must match");
            assert_eq!(o.shape()[3], w, "branch spatial sizes must match");
        }
        let channels: Vec<usize> = outs.iter().map(|o| o.shape()[1]).collect();
        let c_total: usize = channels.iter().sum();
        let mut y = Tensor::zeros(&[n, c_total, h, w]);
        let plane = h * w;
        for ni in 0..n {
            let mut c_off = 0;
            for (o, &cb) in outs.iter().zip(&channels) {
                let src = &o.data()[ni * cb * plane..(ni + 1) * cb * plane];
                let dst_start = (ni * c_total + c_off) * plane;
                y.data_mut()[dst_start..dst_start + cb * plane].copy_from_slice(src);
                c_off += cb;
            }
        }
        if train {
            self.saved_channels = Some(channels);
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_into(grad, 0, &mut OwnGrads(&mut |_, _| {}))
    }

    fn backward_hooked(
        &mut self,
        grad: &Tensor,
        base: usize,
        hook: &mut dyn FnMut(usize, &[f32]),
    ) -> Tensor {
        self.backward_into(grad, base, &mut OwnGrads(hook))
    }

    fn backward_into(&mut self, grad: &Tensor, base: usize, sink: &mut dyn GradSink) -> Tensor {
        let channels = self.saved_channels.take().expect("forward(train=true) before backward");
        let (n, c_total, h, w) =
            (grad.shape()[0], grad.shape()[1], grad.shape()[2], grad.shape()[3]);
        assert_eq!(c_total, channels.iter().sum::<usize>());
        // Branch base offsets in visit_params order (branch order).
        let mut bases = Vec::with_capacity(self.branches.len());
        let mut off = base;
        for b in &mut self.branches {
            bases.push(off);
            off += param_count(b);
        }
        let plane = h * w;
        let mut dx: Option<Tensor> = None;
        let mut c_off = 0;
        for ((b, &cb), bb) in self.branches.iter_mut().zip(&channels).zip(bases) {
            let mut gb = Tensor::zeros(&[n, cb, h, w]);
            for ni in 0..n {
                let src_start = (ni * c_total + c_off) * plane;
                let dst = &mut gb.data_mut()[ni * cb * plane..(ni + 1) * cb * plane];
                dst.copy_from_slice(&grad.data()[src_start..src_start + cb * plane]);
            }
            let gi = b.backward_into(&gb, bb, sink);
            match &mut dx {
                None => dx = Some(gi),
                Some(acc) => acc.add_(&gi),
            }
            c_off += cb;
        }
        dx.expect("at least one branch")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for b in &mut self.branches {
            b.visit_params(f);
        }
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        for (i, b) in self.branches.iter_mut().enumerate() {
            b.visit_params_named(&format!("{prefix}b{i}."), f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{param_count, param_segments, Conv2d, Linear, ReLU};

    #[test]
    fn sequential_chains_and_backprops() {
        let mut s = Sequential::new().push(Linear::new(4, 8, 1)).push(ReLU::new()).push(Linear::new(8, 2, 2));
        let x = Tensor::randn(&[3, 4], 1.0, 3);
        let y = s.forward(&x, true);
        assert_eq!(y.shape(), &[3, 2]);
        let dx = s.backward(&Tensor::full(&[3, 2], 1.0));
        assert_eq!(dx.shape(), &[3, 4]);
        let mut count = 0;
        s.visit_params(&mut |p| count += p.len());
        assert_eq!(count, 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new();
        let x = Tensor::randn(&[2, 3], 1.0, 0);
        assert_eq!(s.forward(&x, true), x);
        assert_eq!(s.backward(&x), x);
    }

    #[test]
    fn identity_residual_doubles_signal() {
        // main path = empty too: y = relu(x + x) = relu(2x).
        let mut r = Residual::new(Sequential::new());
        let x = Tensor::from_vec(vec![1.0, -1.0], &[1, 1, 1, 2]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[2.0, 0.0]);
        let dx = r.backward(&Tensor::full(&[1, 1, 1, 2], 1.0));
        // Both paths pass the gradient where relu was active.
        assert_eq!(dx.data(), &[2.0, 0.0]);
    }

    #[test]
    fn residual_with_projection_shortcut() {
        let main = Sequential::new().push(Conv2d::new(2, 4, 3, 2, 1, false, 1));
        let shortcut = Sequential::new().push(Conv2d::new(2, 4, 1, 2, 0, false, 2));
        let mut r = Residual::with_shortcut(main, shortcut);
        let x = Tensor::randn(&[2, 2, 8, 8], 1.0, 5);
        let y = r.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
        let dx = r.backward(&Tensor::full(&[2, 4, 4, 4], 0.1));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    #[should_panic]
    fn residual_shape_mismatch_panics() {
        let main = Sequential::new().push(Conv2d::new(2, 4, 3, 2, 1, false, 1));
        let mut r = Residual::new(main); // identity shortcut has wrong shape
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, 5);
        let _ = r.forward(&x, true);
    }

    #[test]
    fn concat_stacks_channels() {
        let b1 = Sequential::new().push(Conv2d::new(1, 2, 1, 1, 0, false, 1));
        let b2 = Sequential::new().push(Conv2d::new(1, 3, 1, 1, 0, false, 2));
        let mut c = Concat::new(vec![b1, b2]);
        let x = Tensor::randn(&[2, 1, 4, 4], 1.0, 3);
        let y = c.forward(&x, true);
        assert_eq!(y.shape(), &[2, 5, 4, 4]);
        let dx = c.backward(&Tensor::full(&[2, 5, 4, 4], 1.0));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn concat_forward_layout() {
        // Identity-ish branches: check channel placement by value.
        let mut w1 = Conv2d::new(1, 1, 1, 1, 0, false, 0);
        w1.weight.value = Tensor::from_vec(vec![2.0], &[1, 1, 1, 1]);
        let mut w2 = Conv2d::new(1, 1, 1, 1, 0, false, 0);
        w2.weight.value = Tensor::from_vec(vec![3.0], &[1, 1, 1, 1]);
        let mut c = Concat::new(vec![
            Sequential::new().push(w1),
            Sequential::new().push(w2),
        ]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[2, 1, 1, 2]);
        let y = c.forward(&x, false);
        assert_eq!(y.shape(), &[2, 2, 1, 2]);
        assert_eq!(y.data(), &[2.0, 2.0, 3.0, 3.0, 2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn segments_tile_flat_layout_with_unique_names() {
        use crate::layers::BatchNorm2d;
        let main = Sequential::new()
            .push(Conv2d::new(2, 2, 3, 1, 1, false, 1))
            .push(BatchNorm2d::new(2))
            .push(ReLU::new());
        let mut m = Sequential::new()
            .push(Conv2d::new(2, 2, 1, 1, 0, true, 0))
            .push(Residual::new(main))
            .push(Concat::new(vec![
                Sequential::new().push(Conv2d::new(2, 1, 1, 1, 0, false, 2)),
                Sequential::new().push(Conv2d::new(2, 3, 1, 1, 0, false, 3)),
            ]));
        let segs = param_segments(&mut m);
        // Contiguous tiling of [0, param_count): each segment starts where
        // the previous ended, in visit_params order.
        let total = param_count(&mut m);
        let mut off = 0;
        for s in &segs {
            assert_eq!(s.offset, off, "segment {} not contiguous", s.name);
            assert!(s.len > 0);
            assert_eq!(s.range(), s.offset..s.offset + s.len);
            off += s.len;
        }
        assert_eq!(off, total);
        let names: std::collections::HashSet<&str> =
            segs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), segs.len(), "duplicate segment names");
        // Structural prefixes: chain index, residual main path, concat branch.
        assert!(names.contains("0.weight"), "{names:?}");
        assert!(names.contains("0.bias"), "{names:?}");
        assert!(names.contains("1.main.0.weight"), "{names:?}");
        assert!(names.contains("1.main.1.gamma"), "{names:?}");
        assert!(names.contains("1.main.1.beta"), "{names:?}");
        assert!(names.contains("2.b0.0.weight"), "{names:?}");
        assert!(names.contains("2.b1.0.weight"), "{names:?}");
    }

    #[test]
    fn segment_order_matches_visit_params() {
        let mut m = Sequential::new()
            .push(Linear::new(4, 8, 1))
            .push(ReLU::new())
            .push(Linear::new(8, 2, 2));
        let segs = param_segments(&mut m);
        let mut lens = Vec::new();
        m.visit_params(&mut |p| lens.push(p.len()));
        assert_eq!(segs.len(), lens.len());
        for (s, l) in segs.iter().zip(&lens) {
            assert_eq!(s.len, *l);
        }
        assert_eq!(
            segs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["0.weight", "0.bias", "2.weight", "2.bias"]
        );
    }

    #[test]
    fn backward_hooked_tiles_params_and_matches_collect_grads() {
        use crate::layers::{collect_grads, BatchNorm2d};
        let build = || {
            let main = Sequential::new()
                .push(Conv2d::new(2, 2, 3, 1, 1, false, 1))
                .push(BatchNorm2d::new(2))
                .push(ReLU::new());
            Sequential::new()
                .push(Conv2d::new(2, 2, 1, 1, 0, true, 0))
                .push(Residual::new(main))
                .push(Concat::new(vec![
                    Sequential::new().push(Conv2d::new(2, 1, 1, 1, 0, false, 2)),
                    Sequential::new().push(Conv2d::new(2, 3, 1, 1, 0, false, 3)),
                ]))
        };
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, 7);
        let g = Tensor::full(&[2, 4, 4, 4], 0.5);

        let mut plain = build();
        let _ = plain.forward(&x, true);
        let dx_plain = plain.backward(&g);
        let flat_plain = collect_grads(&mut plain);

        let mut hooked = build();
        let _ = hooked.forward(&x, true);
        let mut fired: Vec<(usize, Vec<f32>)> = Vec::new();
        let dx_hooked =
            hooked.backward_hooked(&g, 0, &mut |off, data| fired.push((off, data.to_vec())));
        assert_eq!(dx_plain.data(), dx_hooked.data(), "hooked backward changed dx");

        // The fired ranges tile [0, param_count) exactly once.
        let total = param_count(&mut hooked);
        let mut ranges: Vec<(usize, usize)> =
            fired.iter().map(|(off, d)| (*off, d.len())).collect();
        ranges.sort_unstable();
        let mut off = 0;
        for &(start, len) in &ranges {
            assert_eq!(start, off, "hook ranges must tile the flat layout");
            assert!(len > 0);
            off += len;
        }
        assert_eq!(off, total);

        // Every range's values equal the final flattened gradient bitwise:
        // a fired range is complete, no later backward step touches it.
        for (start, data) in &fired {
            for (i, (a, b)) in data.iter().zip(&flat_plain[*start..]).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "grad mismatch at flat[{}]",
                    start + i
                );
            }
        }

        // The chain's last child reports before its first (reverse order).
        assert!(fired[0].0 > fired[fired.len() - 1].0, "backward reports tail layers first");
    }

    /// A parameter whose gradient backward leaves at `-0.0`, taking the
    /// trait's default `backward_into`.
    struct NegZero(Param);

    impl Module for NegZero {
        fn forward(&mut self, x: &Tensor, _: bool) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            self.0.grad.data_mut().fill(-0.0);
            grad.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0);
        }
    }

    #[test]
    fn backward_into_writes_what_zero_backward_and_the_merge_give() {
        use crate::layers::{collect_grads, BatchNorm2d, FlatSink, Flatten};
        // Every leaf that writes its own slots, inside a projection
        // residual and a concat: convs with and without bias, pointwise and
        // 3x3, batch norms, a linear head, and a default-path parameter.
        let build = || {
            let main = Sequential::new()
                .push(Conv2d::new(2, 3, 3, 1, 1, true, 1))
                .push(BatchNorm2d::new(3))
                .push(ReLU::new());
            let shortcut = Sequential::new().push(Conv2d::new(2, 3, 1, 1, 0, false, 2));
            Sequential::new()
                .push(Residual::with_shortcut(main, shortcut))
                .push(Concat::new(vec![
                    Sequential::new().push(Conv2d::new(3, 2, 1, 1, 0, true, 3)),
                    Sequential::new()
                        .push(Conv2d::new(3, 1, 3, 1, 1, false, 4))
                        .push(BatchNorm2d::new(1))
                        .push(NegZero(Param::new(Tensor::zeros(&[2])))),
                ]))
                .push(Flatten::new())
                .push(Linear::new(3 * 4 * 4, 5, 5))
        };
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, 7);
        // Output column 3 gets `-0.0` from both images: its bias sums to 0.
        let mut g = Tensor::randn(&[2, 5], 1.0, 8);
        g.data_mut()[3] = -0.0;
        g.data_mut()[8] = -0.0;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // A fresh model's `p.grad` are zeros.
        let mut plain = build();
        let _ = plain.forward(&x, true);
        let dx_plain = plain.backward(&g);
        let fresh = collect_grads(&mut plain);
        let want: Vec<f32> = fresh.iter().map(|&v| 0.0 + v / 1.0).collect();

        // `backward` sets each `p.grad`: over NaN it leaves the bits it
        // leaves over zeros, for every leaf kind.
        let mut stale = build();
        stale.visit_params(&mut |p| p.grad.data_mut().fill(f32::NAN));
        let _ = stale.forward(&x, true);
        let dx_stale = stale.backward(&g);
        assert_eq!(bits(dx_stale.data()), bits(dx_plain.data()), "dx over NaN p.grad");
        assert_eq!(bits(&collect_grads(&mut stale)), bits(&fresh), "backward over NaN p.grad");

        let mut hooked = build();
        let _ = hooked.forward(&x, true);
        let mut hook_order = Vec::new();
        let _ = hooked.backward_hooked(&g, 0, &mut |off, v| hook_order.push(off..off + v.len()));

        let mut into = build();
        let _ = into.forward(&x, true);
        let mut got = vec![f32::NAN; param_count(&mut into)];
        let mut ready = Vec::new();
        let dx_into =
            into.backward_into(&g, 0, &mut FlatSink::new(&mut got, |_, r| ready.push(r)));

        assert_eq!(bits(dx_into.data()), bits(dx_plain.data()), "dx");
        assert_eq!(bits(&got), bits(&want), "backward_into vs zero + backward + 0.0 + g");
        assert!(want.contains(&0.0), "some gradient is zero");
        assert_eq!(ready, hook_order, "ready ranges in backward_hooked's order");
        let mut tiles = ready.clone();
        tiles.sort_by_key(|r| r.start);
        assert_eq!(tiles[0].start, 0);
        for pair in tiles.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ready ranges tile the buffer");
        }
        assert_eq!(tiles.last().map(|r| r.end), Some(got.len()));
    }

    #[test]
    fn default_backward_hooked_reports_leaf_once() {
        let mut lin = Linear::new(4, 2, 9);
        let x = Tensor::randn(&[3, 4], 1.0, 1);
        let _ = lin.forward(&x, true);
        let mut fired = Vec::new();
        let _ = lin.backward_hooked(
            &Tensor::full(&[3, 2], 1.0),
            100,
            &mut |off, data| fired.push((off, data.len(), data.as_ptr())),
        );
        // One range per parameter, in visit order, offsets counted from
        // `base`, each the parameter's own gradient buffer (lent, not copied).
        let mut params = Vec::new();
        lin.visit_params(&mut |p| params.push((p.len(), p.grad.data().as_ptr())));
        assert_eq!(fired.len(), params.len(), "a leaf reports each parameter once");
        let mut off = 100;
        for (&(at, len, ptr), &(plen, pptr)) in fired.iter().zip(&params) {
            assert_eq!((at, len), (off, plen));
            assert_eq!(ptr, pptr, "the hook must see p.grad itself");
            off += plen;
        }
        assert_eq!(off, 100 + param_count(&mut lin));
    }

    #[test]
    fn concat_backward_sums_branch_input_grads() {
        // Both branches identity convs with weight 1: dx = g1 + g2.
        let mk = || {
            let mut w = Conv2d::new(1, 1, 1, 1, 0, false, 0);
            w.weight.value = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
            Sequential::new().push(w)
        };
        let mut c = Concat::new(vec![mk(), mk()]);
        let x = Tensor::full(&[1, 1, 2, 2], 1.0);
        let _ = c.forward(&x, true);
        let g = Tensor::full(&[1, 2, 2, 2], 1.0);
        let dx = c.backward(&g);
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }
}
