//! Neural-network layers with forward and backward passes.
//!
//! Each layer is a [`Module`]: `forward` caches whatever the gradient needs,
//! `backward` consumes the cache and returns the input gradient, and
//! `visit_params` exposes trainable parameters to the optimizer and to the
//! distributed gradient exchange (the flattened gradient vector is what the
//! paper's `MPI_Allreduce` moves).

mod bn;
mod conv;
mod flatten;
mod linear;
mod pool;
mod relu;

pub use bn::BatchNorm2d;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use relu::ReLU;

use std::ops::Range;

use crate::tensor::Tensor;

/// A trainable parameter: value, gradient and momentum buffer.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient set by [`Module::backward`], overwriting what it held. A
    /// backward into a sink with slots ([`Module::backward_into`]) writes
    /// the gradient there instead, so a one-replica training step leaves
    /// this untouched.
    pub grad: Tensor,
    /// SGD momentum state.
    pub momentum: Tensor,
    /// Whether weight decay applies (true for all params, following the
    /// fb.resnet.torch recipe the paper builds on).
    pub weight_decay: bool,
}

impl Param {
    /// Wrap an initialized value with zeroed gradient/momentum.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        let momentum = Tensor::zeros(value.shape());
        Param { value, grad, momentum, weight_decay: true }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable module.
pub trait Module: Send {
    /// Compute the output; cache intermediates when `train` is true.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagate `grad` (w.r.t. the forward output) back to the input,
    /// setting each parameter's `p.grad` to its gradient along the way: what
    /// `p.grad` held before is overwritten, never added to. A one-replica
    /// training step writes the gradients into its own buffer instead
    /// ([`Module::backward_into`]); this is the path of the tests, the
    /// baseline strategy and the replicas of a multi-replica step.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// [`Module::backward`] with a per-layer completion hook: as soon as a
    /// parameter range of the flattened gradient vector
    /// ([`collect_grads`] layout) is final — no later backward step will
    /// touch it again — `hook(offset, grads)` fires with the range's start
    /// offset (relative to the whole model; `base` is this module's start)
    /// and its gradient values in [`Module::visit_params`] order. The
    /// overlap engine launches gradient buckets from these hooks *during*
    /// backprop instead of after it.
    ///
    /// The default covers any module: run the plain backward, then report
    /// each of the module's own non-empty parameters as its own range, in
    /// visit order, lending the hook `p.grad` itself. Composite modules
    /// (`Sequential`, `Residual`, `Concat`) override this to recurse with
    /// per-child offsets, so leaves report the moment their own backward
    /// finishes. Hooks fire in backward traversal order, which is
    /// deterministic for a fixed module tree — every data-parallel rank
    /// sees the same sequence.
    fn backward_hooked(
        &mut self,
        grad: &Tensor,
        base: usize,
        hook: &mut dyn FnMut(usize, &[f32]),
    ) -> Tensor {
        let dx = self.backward(grad);
        let mut off = base;
        self.visit_params(&mut |p| {
            if !p.is_empty() {
                hook(off, p.grad.data());
            }
            off += p.len();
        });
        dx
    }

    /// [`Module::backward`] into `sink`: each parameter's gradient is
    /// written where [`GradSink::slot`] says for its range of the flattened
    /// vector (`base` is this module's start), or into its own `p.grad`
    /// where the sink has no slot, and [`GradSink::ready`] hears the range
    /// the moment it is final, in [`Module::backward_hooked`]'s order. A
    /// slot is overwritten with the bits `0.0 + g` gives for the gradient
    /// `g` a plain backward sets, so a sink that owns the step's buffer
    /// needs no zero pass and no copy.
    ///
    /// `Linear`, `Conv2d` and `BatchNorm2d` write straight into the slot;
    /// the composites carry the recursion, and their `backward` and
    /// `backward_hooked` are this method into a sink that has no slots. The
    /// default covers any other module: it runs
    /// [`Module::backward_hooked`] and copies `0.0 + g` into the slot as
    /// each range is reported (a generic module may report `-0.0`).
    fn backward_into(&mut self, grad: &Tensor, base: usize, sink: &mut dyn GradSink) -> Tensor {
        self.backward_hooked(grad, base, &mut |off, g| {
            let range = off..off + g.len();
            match sink.slot(range.clone()) {
                Some(slot) => {
                    slot.iter_mut().zip(g).for_each(|(d, &v)| *d = 0.0 + v);
                    sink.ready(range, None);
                }
                None => sink.ready(range, Some(g)),
            }
        })
    }

    /// Visit every trainable parameter (deterministic order).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Visit every trainable parameter with a hierarchical name, in exactly
    /// the order of [`Module::visit_params`] (the flattened-gradient layout
    /// depends on that). Composite modules extend `prefix` per child; leaf
    /// layers name their parameters (`weight`, `bias`, `gamma`, `beta`).
    /// The default numbers the unnamed parameters `p0`, `p1`, ….
    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        let mut i = 0usize;
        self.visit_params(&mut |p| {
            f(&format!("{prefix}p{i}"), p);
            i += 1;
        });
    }
}

/// Where [`Module::backward_into`] puts each parameter's gradient, and who
/// hears when it is final. Ranges index the flattened gradient vector
/// ([`collect_grads`] layout).
pub trait GradSink {
    /// The buffer the gradient of `range` is written into, overwriting what
    /// it holds — or `None`: write it into the parameter's own `p.grad`,
    /// the [`Module::backward`] contract. A sink gives the same answer for
    /// the same range until that range is ready.
    fn slot(&mut self, range: Range<usize>) -> Option<&mut [f32]>;

    /// The gradient of `range` is final: no later backward step touches
    /// it. `own` is the parameter's `p.grad` where [`GradSink::slot`] gave
    /// no buffer, `None` where the values lie in the slot.
    fn ready(&mut self, range: Range<usize>, own: Option<&[f32]>);
}

/// The sink of [`Module::backward`] and [`Module::backward_hooked`]: no
/// slots, so every gradient is written into its own `p.grad`, which the
/// hook is lent with the range's start when it is final.
pub(crate) struct OwnGrads<'h>(pub(crate) &'h mut dyn FnMut(usize, &[f32]));

impl GradSink for OwnGrads<'_> {
    fn slot(&mut self, _: Range<usize>) -> Option<&mut [f32]> {
        None
    }

    fn ready(&mut self, range: Range<usize>, own: Option<&[f32]>) {
        (self.0)(range.start, own.expect("a gradient without a slot is in p.grad"));
    }
}

/// A [`GradSink`] over one flattened gradient buffer: each range is written
/// where it lies in `buf`, and `on_ready(buf, range)` hears it final.
pub struct FlatSink<'a, F> {
    buf: &'a mut [f32],
    on_ready: F,
}

impl<'a, F: FnMut(&[f32], Range<usize>)> FlatSink<'a, F> {
    /// A sink that writes every gradient into `buf` (the whole flattened
    /// vector) and calls `on_ready` as each range is final.
    pub fn new(buf: &'a mut [f32], on_ready: F) -> Self {
        FlatSink { buf, on_ready }
    }
}

impl<F: FnMut(&[f32], Range<usize>)> GradSink for FlatSink<'_, F> {
    fn slot(&mut self, range: Range<usize>) -> Option<&mut [f32]> {
        Some(&mut self.buf[range])
    }

    fn ready(&mut self, range: Range<usize>, _: Option<&[f32]>) {
        (self.on_ready)(self.buf, range);
    }
}

/// How a leaf hands one parameter's gradient to `sink`, `off` being the
/// parameter's flat offset and `grad` its `p.grad`: `lay(dst)` overwrites
/// `dst` with the gradient, starting any sum from `+0.0`, where `dst` is
/// the sink's slot or, where the sink has none, `grad`. Then the sink hears
/// the range is final.
pub(crate) fn lay_grad(
    sink: &mut dyn GradSink,
    off: usize,
    grad: &mut Tensor,
    lay: impl FnOnce(&mut [f32]),
) {
    let range = off..off + grad.len();
    let own = match sink.slot(range.clone()) {
        Some(slot) => {
            lay(slot);
            None
        }
        None => {
            lay(grad.data_mut());
            Some(grad.data())
        }
    };
    if !range.is_empty() {
        sink.ready(range, own);
    }
}

/// One named span of the flattened parameter/gradient vector: the slice
/// `flat[offset .. offset + len]` belongs to the parameter `name`. Segments
/// come out in [`Module::visit_params`] order — forward layer order — so the
/// overlap engine walks them in reverse to reduce early layers first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSegment {
    /// Hierarchical parameter name, e.g. `blocks.3.main.0.weight`.
    pub name: String,
    /// Start index within the flattened vector.
    pub offset: usize,
    /// Number of scalars.
    pub len: usize,
}

impl ParamSegment {
    /// The segment's span as a range over the flattened vector.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// The module's parameter segment map: one entry per parameter, in
/// [`Module::visit_params`] order, with offsets into the flattened
/// gradient/parameter vector ([`collect_grads`] / [`set_grads`] layout).
pub fn param_segments(m: &mut dyn Module) -> Vec<ParamSegment> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    m.visit_params_named("", &mut |name, p| {
        let len = p.len();
        out.push(ParamSegment { name: name.to_string(), offset, len });
        offset += len;
    });
    out
}

/// Total trainable parameter count of a module.
pub fn param_count(m: &mut dyn Module) -> usize {
    let mut n = 0;
    m.visit_params(&mut |p| n += p.len());
    n
}

/// Flatten all parameter gradients into one contiguous buffer — the payload
/// the distributed allreduce operates on (93 MB for GoogLeNet-BN, §5.1).
pub fn collect_grads(m: &mut dyn Module) -> Vec<f32> {
    collect(m, |p| &p.grad)
}

/// One tensor of every parameter, flattened in [`Module::visit_params`]
/// order into a buffer sized once (a first visit counts): growing from
/// empty would copy a large model's vector a dozen times over.
fn collect(m: &mut dyn Module, field: fn(&Param) -> &Tensor) -> Vec<f32> {
    let mut out = Vec::with_capacity(param_count(m));
    m.visit_params(&mut |p| out.extend_from_slice(field(p).data()));
    out
}

/// Write a flattened gradient buffer back into the parameters.
///
/// # Panics
/// Panics if `flat` has the wrong total length.
pub fn set_grads(m: &mut dyn Module, flat: &[f32]) {
    set(m, flat, 0..0, |p| &mut p.grad, "gradient");
}

/// Overwrite one tensor of every parameter from a flattened buffer, the
/// inverse of [`collect`], except the elements at `skip`.
fn set(
    m: &mut dyn Module,
    flat: &[f32],
    skip: Range<usize>,
    field: fn(&mut Param) -> &mut Tensor,
    what: &str,
) {
    let mut copy = |p: &mut Param, local: Range<usize>, at: Range<usize>| {
        field(p).data_mut()[local].copy_from_slice(&flat[at]);
    };
    visit_range(m, 0..skip.start, &mut copy);
    let total = visit_range(m, skip.end..flat.len(), &mut copy);
    assert_eq!(total, flat.len(), "flattened {what} length mismatch");
}

/// The whole flattened vector, as a range for [`visit_range`].
pub(crate) const ALL: Range<usize> = 0..usize::MAX;

/// The flattened-vector layout, walked once: `f(p, local, at)` for every
/// parameter `p` that overlaps `range`, in [`Module::visit_params`] order,
/// where `local` indexes the overlap in `p`'s own tensors and `at` the same
/// elements in the flattened vector. Returns the vector's length.
///
/// # Panics
/// Panics if `range` (other than [`ALL`]) ends past the vector.
pub(crate) fn visit_range(
    m: &mut dyn Module,
    range: Range<usize>,
    mut f: impl FnMut(&mut Param, Range<usize>, Range<usize>),
) -> usize {
    let mut off = 0;
    m.visit_params(&mut |p| {
        let n = p.len();
        let (lo, hi) = (range.start.clamp(off, off + n), range.end.clamp(off, off + n));
        if lo < hi {
            f(p, lo - off..hi - off, lo..hi);
        }
        off += n;
    });
    assert!(
        range == ALL || range.end <= off,
        "range {range:?} exceeds the {off}-element parameter vector"
    );
    off
}

/// Flatten all parameter values (for weight-synchronization checks).
pub fn collect_params(m: &mut dyn Module) -> Vec<f32> {
    collect(m, |p| &p.value)
}

/// Copy the parameter values at `range` of the flattened vector
/// ([`collect_params`] layout) into `out` — one shard of it, without
/// flattening the rest.
///
/// # Panics
/// Panics if `out.len() != range.len()` or `range` ends past the vector.
pub fn params_into(m: &mut dyn Module, range: Range<usize>, out: &mut [f32]) {
    assert_eq!(out.len(), range.len(), "output must be range-sized");
    let start = range.start;
    visit_range(m, range, |p, local, at| {
        out[at.start - start..at.end - start].copy_from_slice(&p.value.data()[local]);
    });
}

/// Flatten the optimizer momentum state (for exact checkpoint/resume).
pub fn collect_momentum(m: &mut dyn Module) -> Vec<f32> {
    collect(m, |p| &p.momentum)
}

/// Restore flattened momentum state.
pub fn set_momentum(m: &mut dyn Module, flat: &[f32]) {
    set(m, flat, 0..0, |p| &mut p.momentum, "momentum");
}

/// Free every per-parameter momentum buffer (shrink to zero elements). The
/// sharded optimizer keeps its momentum in one shard-sized velocity buffer
/// ([`crate::optim::Sgd::step_range`]), so the full-size tensors here are
/// dead weight — releasing them is where the ~`1/world` optimizer-state
/// memory saving comes from. Returns the number of bytes freed.
pub fn release_momentum(m: &mut dyn Module) -> usize {
    let mut freed = 0usize;
    m.visit_params(&mut |p| {
        freed += p.momentum.len() * std::mem::size_of::<f32>();
        p.momentum = Tensor::zeros(&[0]);
    });
    freed
}

/// Reallocate zeroed momentum buffers for any parameter whose buffer was
/// [`release_momentum`]-ed, so [`set_momentum`] can restore a replicated
/// checkpoint into a model that previously ran sharded.
pub fn ensure_momentum(m: &mut dyn Module) {
    m.visit_params(&mut |p| {
        if p.momentum.len() != p.value.len() {
            p.momentum = Tensor::zeros(p.value.shape());
        }
    });
}

/// Actually resident bytes of this module's parameter state, measured from
/// live buffer lengths: `(param_bytes, opt_bytes)` where `param_bytes`
/// covers values + gradients and `opt_bytes` the momentum tensors (zero
/// after [`release_momentum`]). The sharded-vs-replicated memory win is
/// reported from these numbers, not computed from a formula.
pub fn resident_bytes(m: &mut dyn Module) -> (usize, usize) {
    let (mut param, mut opt) = (0usize, 0usize);
    m.visit_params(&mut |p| {
        param += (p.value.len() + p.grad.len()) * std::mem::size_of::<f32>();
        opt += p.momentum.len() * std::mem::size_of::<f32>();
    });
    (param, opt)
}

/// Overwrite parameter values from a flattened buffer.
pub fn set_params(m: &mut dyn Module, flat: &[f32]) {
    set(m, flat, 0..0, |p| &mut p.value, "parameter");
}

/// [`set_params`] everywhere but `skip`, whose values stay as they are.
///
/// # Panics
/// Panics if `flat` has the wrong total length or `skip` ends past it.
pub fn set_params_outside(m: &mut dyn Module, flat: &[f32], skip: Range<usize>) {
    set(m, flat, skip, |p| &mut p.value, "parameter");
}

/// Central-difference numeric gradient checker used by layer tests: compares
/// the analytic input gradient of `m` against finite differences of `lossf`.
#[cfg(test)]
pub(crate) fn check_input_gradient(
    m: &mut dyn Module,
    x: &Tensor,
    lossf: impl Fn(&Tensor) -> f64,
    forward_loss_grad: impl Fn(&Tensor) -> Tensor,
    tol: f32,
) {
    let y = m.forward(x, true);
    let gy = forward_loss_grad(&y);
    let gx = m.backward(&gy);
    let eps = 1e-2f32;
    for i in (0..x.len()).step_by((x.len() / 24).max(1)) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lp = lossf(&m.forward(&xp, true));
        let lm = lossf(&m.forward(&xm, true));
        let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
        let ana = gx.data()[i];
        assert!(
            (num - ana).abs() <= tol * (num.abs().max(ana.abs()).max(1.0)),
            "input grad mismatch at {i}: numeric {num} vs analytic {ana}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_into_copies_exactly_the_range() {
        let mut l = Linear::new(3, 4, 5); // 12 weights + 4 biases
        let all = collect_params(&mut l);
        for range in [0..16, 0..0, 3..12, 7..15, 12..16, 16..16] {
            let mut out = vec![f32::NAN; range.len()];
            params_into(&mut l, range.clone(), &mut out);
            assert_eq!(out, all[range.clone()], "{range:?}");
        }
    }

    #[test]
    fn set_params_outside_leaves_exactly_the_skipped_range() {
        let n = param_count(&mut Linear::new(3, 4, 5)); // 12 weights + 4 biases
        let flat: Vec<f32> = (0..n).map(|i| i as f32 + 0.5).collect();
        for skip in [0..0, 0..16, 3..12, 7..15, 12..16, 16..16] {
            let mut l = Linear::new(3, 4, 5);
            let before = collect_params(&mut l);
            set_params_outside(&mut l, &flat, skip.clone());
            let after = collect_params(&mut l);
            for i in 0..n {
                let want = if skip.contains(&i) { before[i] } else { flat[i] };
                assert_eq!(after[i].to_bits(), want.to_bits(), "{skip:?} element {i}");
            }
        }
    }
}
