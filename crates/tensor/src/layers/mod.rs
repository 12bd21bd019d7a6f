//! Neural-network layers with forward and backward passes.
//!
//! Each layer is a [`Module`]: `forward` caches whatever the gradient needs,
//! `backward` consumes the cache and returns the input gradient, and
//! `visit_params` exposes trainable parameters to the optimizer and to the
//! distributed gradient exchange (the flattened gradient vector is what the
//! paper's `MPI_Allreduce` moves).

mod bn;
mod conv;
mod dropout;
mod flatten;
mod linear;
mod pool;
mod relu;

pub use bn::BatchNorm2d;
pub use conv::Conv2d;
pub use dropout::Dropout;
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
    /// Gradient accumulated by the last backward pass.
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
    /// accumulating parameter gradients along the way.
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

/// Zero all parameter gradients.
pub fn zero_grads(m: &mut dyn Module) {
    m.visit_params(&mut |p| p.grad.zero_());
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
    set(m, flat, |p| &mut p.grad, "gradient");
}

/// Overwrite one tensor of every parameter from a flattened buffer, the
/// inverse of [`collect`].
fn set(m: &mut dyn Module, flat: &[f32], field: fn(&mut Param) -> &mut Tensor, what: &str) {
    let total = visit_range(m, ALL, |p, local, at| {
        field(p).data_mut()[local].copy_from_slice(&flat[at]);
    });
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
    set(m, flat, |p| &mut p.momentum, "momentum");
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
    set(m, flat, |p| &mut p.value, "parameter");
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
}
