//! Real executors for both data-parallel-table designs.
//!
//! One [`DptExecutor`] owns `m` model replicas ("GPUs") initialized
//! identically. `step` runs one training iteration on a node batch under
//! either scheduling strategy and returns the **average gradient over the
//! node batch**, which is what Algorithm 1's inter-node allreduce consumes.
//! A test proves both strategies produce the same gradients — the paper's
//! "none of the optimizations … have any impact on the final accuracy"
//! claim (§5.4), made checkable.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;

use dcnn_tensor::layers::{
    collect_grads, param_segments, set_params, zero_grads, Module, ParamSegment,
};
use dcnn_tensor::loss::SoftmaxCrossEntropy;
use dcnn_tensor::Tensor;

/// Scheduling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DptStrategy {
    /// Stock Torch: stage on GPU1, criterion on GPU1, serialized callbacks.
    Baseline,
    /// Paper redesign: direct shards, per-GPU criterion, parallel.
    Optimized,
}

/// Result of one node-local training iteration.
#[derive(Debug, Clone)]
pub struct IterOutput {
    /// Mean loss over the node batch.
    pub loss: f64,
    /// Average gradient over the node batch, flattened in
    /// [`Module::visit_params`] (forward layer) order.
    pub grad: Vec<f32>,
    /// Top-1 hits in the node batch.
    pub correct: usize,
    /// Segment map over `grad`: one named span per parameter, in forward
    /// layer order (shared with the executor that produced this output).
    pub segments: Arc<Vec<ParamSegment>>,
}

impl IterOutput {
    /// The gradient's segments in **reverse layer order** — the order
    /// backprop finishes them, and the order an overlap-aware exchange
    /// should bucket them (last layer's gradient is ready first).
    pub fn rev_segments(&self) -> impl Iterator<Item = &ParamSegment> {
        self.segments.iter().rev()
    }

    /// The gradient slice belonging to `seg`.
    pub fn grad_segment(&self, seg: &ParamSegment) -> &[f32] {
        &self.grad[seg.range()]
    }
}

/// `m` model replicas driven by one of the two strategies.
pub struct DptExecutor {
    replicas: Vec<Box<dyn Module>>,
    segments: Arc<Vec<ParamSegment>>,
    /// The node-averaged gradient [`DptExecutor::step_streamed`] merges into
    /// and lends out range by range; allocated on the first streamed step.
    merged: Vec<f32>,
}

/// First term of the replica average, `0.0 + g / m`: the sum from zeros,
/// without the zeros (and a `-0.0` gradient still comes out `+0.0`).
fn merge_first(dst: &mut [f32], g: &[f32], m: f32) {
    for (a, &b) in dst.iter_mut().zip(g) {
        *a = 0.0 + b / m;
    }
}

/// Every later term of the replica average, in replica index order.
fn merge_add(dst: &mut [f32], g: &[f32], m: f32) {
    for (a, &b) in dst.iter_mut().zip(g) {
        *a += b / m;
    }
}

impl DptExecutor {
    /// Create `m` replicas via `factory` (which must be deterministic so
    /// replicas start identical, as Algorithm 1 requires).
    pub fn new(m: usize, factory: impl Fn() -> Box<dyn Module>) -> Self {
        assert!(m >= 1);
        let mut replicas: Vec<Box<dyn Module>> = (0..m).map(|_| factory()).collect();
        let segments = Arc::new(param_segments(replicas[0].as_mut()));
        DptExecutor { replicas, segments, merged: Vec::new() }
    }

    /// Number of replicas (simulated GPUs).
    pub fn gpus(&self) -> usize {
        self.replicas.len()
    }

    /// The model's parameter segment map (forward layer order; offsets index
    /// the flattened gradient emitted by [`DptExecutor::step`]).
    pub fn segments(&self) -> &Arc<Vec<ParamSegment>> {
        &self.segments
    }

    /// Overwrite every replica's parameters (weight broadcast).
    pub fn set_params_all(&mut self, flat: &[f32]) {
        for r in &mut self.replicas {
            set_params(r.as_mut(), flat);
        }
    }

    /// Apply `f` to every replica (e.g. optimizer steps — replicas receive
    /// identical gradients, so identical updates keep them in sync).
    pub fn visit_replicas(&mut self, mut f: impl FnMut(&mut dyn Module)) {
        for r in &mut self.replicas {
            f(r.as_mut());
        }
    }

    /// Direct access to one replica. The sharded optimizer steps only
    /// replica 0's owned parameter range, then rebroadcasts via
    /// [`DptExecutor::set_params_all`].
    ///
    /// # Panics
    /// Panics if `i >= self.gpus()`.
    pub fn replica(&mut self, i: usize) -> &mut dyn Module {
        self.replicas[i].as_mut()
    }

    /// Inference on replica 0 (eval mode; used for validation).
    pub fn eval_logits(&mut self, x: &Tensor) -> Tensor {
        self.replicas[0].forward(x, false)
    }

    /// Run one iteration like [`DptExecutor::step`] under
    /// [`DptStrategy::Optimized`], but report the node-averaged gradient
    /// incrementally *during* backprop: `on_segment(offset, grads)` fires
    /// the moment every replica has finished the backward step for one
    /// parameter range of the flattened gradient ([`collect_grads`] layout),
    /// in backward-traversal order — tail-layer ranges first. The overlap
    /// engine seals and launches gradient buckets from this callback while
    /// earlier layers are still backpropagating.
    ///
    /// The ranges tile `[0, param_count)` exactly. This is the one
    /// Optimized body — `step` runs it with a hook that does nothing — so
    /// the reported values and the returned `(mean loss, correct)` pair are
    /// `step`'s: replicas are averaged in replica index order (`0.0 + g / m`,
    /// then `+= g / m`) into one executor-owned buffer that `on_segment`
    /// borrows a range of. One replica runs on the calling thread, its hook
    /// merging straight from the parameter gradients; several run one thread
    /// each, sending each finished range back to this thread to be merged.
    ///
    /// # Panics
    /// Panics unless the batch divides evenly across replicas.
    pub fn step_streamed(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        mut on_segment: impl FnMut(usize, &[f32]),
    ) -> (f64, usize) {
        let m = self.replicas.len();
        let shards = split_batch(x, labels, m);
        let total = self.segments.last().map_or(0, |s| s.offset + s.len);
        if self.merged.len() != total {
            self.merged = vec![0.0; total];
        }
        let merged = &mut self.merged;

        if let ([model], [(x, labels)]) = (&mut self.replicas[..], &shards[..]) {
            zero_grads(model.as_mut());
            let logits = model.forward(x, true);
            let out = SoftmaxCrossEntropy.forward(&logits, labels);
            let _ = model.backward_hooked(&out.grad, 0, &mut |off, vals| {
                let dst = &mut merged[off..off + vals.len()];
                merge_first(dst, vals, 1.0);
                on_segment(off, dst);
            });
            return (0.0 + out.loss, out.correct);
        }

        // One thread per replica, with a channel back to this thread so
        // ranges stream out as they finish.
        let (tx, rx) = mpsc::channel::<(usize, usize, Vec<f32>)>();
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .replicas
                .iter_mut()
                .zip(&shards)
                .enumerate()
                .map(|(g, (model, (xs, shard_labels)))| {
                    let tx = tx.clone();
                    s.spawn(move || {
                        zero_grads(model.as_mut());
                        let logits = model.forward(xs, true);
                        let out = SoftmaxCrossEntropy.forward(&logits, shard_labels);
                        let _ = model.backward_hooked(&out.grad, 0, &mut |off, vals| {
                            let _ = tx.send((g, off, vals.to_vec()));
                        });
                        (out.loss, out.correct)
                    })
                })
                .collect();
            // Drop the original sender so the collector loop ends once every
            // replica thread has finished its backward pass.
            drop(tx);

            // Fire `on_segment` the moment the last replica reports a range.
            // Every replica walks the same module tree, so ranges complete in
            // backward order; averaging runs in replica *index* order.
            let mut slots: HashMap<usize, Vec<Option<Vec<f32>>>> = HashMap::new();
            while let Ok((g, off, vals)) = rx.recv() {
                let entry = slots.entry(off).or_insert_with(|| vec![None; m]);
                entry[g] = Some(vals);
                if entry.iter().all(Option::is_some) {
                    let parts = slots.remove(&off).expect("slot just filled");
                    let n = parts[0].as_ref().expect("all parts present").len();
                    let dst = &mut merged[off..off + n];
                    for (g, p) in parts.iter().enumerate() {
                        let p = p.as_ref().expect("all parts present");
                        if g == 0 {
                            merge_first(dst, p, m as f32);
                        } else {
                            merge_add(dst, p, m as f32);
                        }
                    }
                    on_segment(off, dst);
                }
            }
            assert!(slots.is_empty(), "every replica must report every range");

            for h in handles {
                let (l, c) = h.join().expect("replica thread");
                loss += l / m as f64;
                correct += c;
            }
        });
        (loss, correct)
    }

    /// Run one iteration on a node batch `x: [B, C, H, W]` under `strategy`.
    /// [`DptStrategy::Optimized`] is [`DptExecutor::step_streamed`] with a
    /// hook that does nothing; the merged gradient is moved out, so the next
    /// step allocates a new one.
    ///
    /// # Panics
    /// Panics unless the batch divides evenly across replicas.
    pub fn step(&mut self, x: &Tensor, labels: &[usize], strategy: DptStrategy) -> IterOutput {
        if strategy == DptStrategy::Optimized {
            let (loss, correct) = self.step_streamed(x, labels, |_, _| {});
            let grad = std::mem::take(&mut self.merged);
            return IterOutput { loss, grad, correct, segments: Arc::clone(&self.segments) };
        }
        let b = x.shape()[0];
        let m = self.replicas.len();
        let shard = b / m;
        let crit = SoftmaxCrossEntropy;
        // In the baseline the input split passes through GPU1 (priced by the
        // timeline model); mathematically the shards are identical, which is
        // the point.
        let shards = split_batch(x, labels, m);

        // Forwards run per GPU, but logits are gathered and the criterion is
        // evaluated once over the full batch ("GPU1"), then gradients are
        // scattered back — all serialized.
        let mut logits_all: Option<Tensor> = None;
        for (g, (model, (xs, _))) in self.replicas.iter_mut().zip(&shards).enumerate() {
            zero_grads(model.as_mut());
            let logits = model.forward(xs, true);
            let k = logits.shape()[1];
            match &mut logits_all {
                None => {
                    let mut t = Tensor::zeros(&[b, k]);
                    t.data_mut()[..shard * k].copy_from_slice(logits.data());
                    logits_all = Some(t);
                }
                Some(t) => {
                    t.data_mut()[g * shard * k..(g + 1) * shard * k].copy_from_slice(logits.data())
                }
            }
        }
        let logits_all = logits_all.expect("at least one replica");
        let out = crit.forward(&logits_all, labels);
        let k = logits_all.shape()[1];
        // Scatter loss gradient shards and run backwards serially (the stock
        // design's callback serialization).
        let mut grad: Option<Vec<f32>> = None;
        for (g, model) in self.replicas.iter_mut().enumerate() {
            // Full-batch criterion already divides by B; per-shard backward
            // therefore yields the batch-average directly when summed.
            let gshard = Tensor::from_vec(
                out.grad.data()[g * shard * k..(g + 1) * shard * k].to_vec(),
                &[shard, k],
            );
            let _ = model.backward(&gshard);
            let local = collect_grads(model.as_mut());
            match &mut grad {
                None => grad = Some(local),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(&local) {
                        *a += b;
                    }
                }
            }
        }
        IterOutput {
            loss: out.loss,
            grad: grad.expect("replicas"),
            correct: out.correct,
            segments: Arc::clone(&self.segments),
        }
    }
}

/// Split a node batch into `m` equal per-GPU shards of inputs and labels.
/// One GPU's shard is the batch itself, borrowed; more are copied out.
///
/// # Panics
/// Panics unless the batch divides evenly across the `m` GPUs.
fn split_batch<'a>(
    x: &'a Tensor,
    labels: &'a [usize],
    m: usize,
) -> Vec<(Cow<'a, Tensor>, &'a [usize])> {
    let b = x.shape()[0];
    assert_eq!(b % m, 0, "batch {b} must divide across {m} GPUs");
    assert_eq!(labels.len(), b);
    if m == 1 {
        return vec![(Cow::Borrowed(x), labels)];
    }
    let shard = b / m;
    let sample = x.len() / b;
    let mut shape = x.shape().to_vec();
    shape[0] = shard;
    (0..m)
        .map(|g| {
            let xs = x.data()[g * shard * sample..(g + 1) * shard * sample].to_vec();
            (Cow::Owned(Tensor::from_vec(xs, &shape)), &labels[g * shard..(g + 1) * shard])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_models::resnet::ResNetConfig;

    fn tiny_factory() -> Box<dyn Module> {
        ResNetConfig {
            blocks: vec![1],
            base_width: 4,
            bottleneck: false,
            classes: 5,
            input: [3, 16, 16],
            imagenet_stem: false,
        }
        .build(11)
    }

    fn batch(b: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let x = Tensor::randn(&[b, 3, 16, 16], 1.0, seed);
        let labels = (0..b).map(|i| i % 5).collect();
        (x, labels)
    }

    #[test]
    fn strategies_produce_identical_gradients() {
        // The heart of §4.3/§5.4: the redesign changes scheduling, not math.
        let (x, labels) = batch(8, 3);
        let mut base = DptExecutor::new(4, tiny_factory);
        let mut opt = DptExecutor::new(4, tiny_factory);
        let ob = base.step(&x, &labels, DptStrategy::Baseline);
        let oo = opt.step(&x, &labels, DptStrategy::Optimized);
        assert!((ob.loss - oo.loss).abs() < 1e-9, "{} vs {}", ob.loss, oo.loss);
        assert_eq!(ob.correct, oo.correct);
        for (i, (a, b)) in ob.grad.iter().zip(&oo.grad).enumerate() {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1e-3), "grad[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn single_gpu_equals_monolithic() {
        let (x, labels) = batch(4, 7);
        let mut one = DptExecutor::new(1, tiny_factory);
        let o1 = one.step(&x, &labels, DptStrategy::Optimized);
        // Monolithic reference.
        let mut model = tiny_factory();
        zero_grads(model.as_mut());
        let logits = model.forward(&x, true);
        let out = SoftmaxCrossEntropy.forward(&logits, &labels);
        let _ = model.backward(&out.grad);
        let gref = collect_grads(model.as_mut());
        assert!((o1.loss - out.loss).abs() < 1e-12);
        for (a, b) in o1.grad.iter().zip(&gref) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    /// BN-free model: batch statistics would legitimately differ per shard
    /// count (true on real DataParallelTable too), so shard-count invariance
    /// only holds without BN.
    fn bn_free_factory() -> Box<dyn Module> {
        use dcnn_tensor::layers::{Conv2d, GlobalAvgPool, Linear, ReLU};
        use dcnn_tensor::nn::Sequential;
        Box::new(
            Sequential::new()
                .push(Conv2d::new(3, 6, 3, 2, 1, true, 21))
                .push(ReLU::new())
                .push(GlobalAvgPool::new())
                .push(Linear::new(6, 5, 22)),
        )
    }

    #[test]
    fn gpu_count_does_not_change_gradient_without_bn() {
        let (x, labels) = batch(8, 5);
        let g1 = DptExecutor::new(1, bn_free_factory).step(&x, &labels, DptStrategy::Optimized);
        let g2 = DptExecutor::new(2, bn_free_factory).step(&x, &labels, DptStrategy::Optimized);
        let g4 = DptExecutor::new(4, bn_free_factory).step(&x, &labels, DptStrategy::Optimized);
        for (a, b) in g1.grad.iter().zip(&g2.grad) {
            assert!((a - b).abs() <= 2e-5 * a.abs().max(1e-3));
        }
        for (a, b) in g2.grad.iter().zip(&g4.grad) {
            assert!((a - b).abs() <= 2e-5 * a.abs().max(1e-3));
        }
    }

    #[test]
    #[should_panic]
    fn indivisible_batch_panics() {
        let (x, labels) = batch(6, 1);
        let mut e = DptExecutor::new(4, tiny_factory);
        let _ = e.step(&x, &labels, DptStrategy::Optimized);
    }

    #[test]
    fn iter_output_segments_tile_the_gradient() {
        let (x, labels) = batch(4, 13);
        let mut e = DptExecutor::new(2, tiny_factory);
        let out = e.step(&x, &labels, DptStrategy::Optimized);
        let mut off = 0;
        for s in out.segments.iter() {
            assert_eq!(s.offset, off);
            assert_eq!(out.grad_segment(s).len(), s.len);
            off += s.len;
        }
        assert_eq!(off, out.grad.len(), "segments must cover the whole gradient");
        // The executor hands out the same shared map every step.
        assert!(Arc::ptr_eq(&out.segments, e.segments()));
    }

    #[test]
    fn rev_segments_walk_backprop_completion_order() {
        let mut e = DptExecutor::new(1, tiny_factory);
        let segs = Arc::clone(e.segments());
        let (x, labels) = batch(2, 17);
        let out = e.step(&x, &labels, DptStrategy::Optimized);
        let rev: Vec<&ParamSegment> = out.rev_segments().collect();
        assert_eq!(rev.len(), segs.len());
        // First emitted segment is the network's last parameter (the
        // classifier), whose gradient backprop produces first.
        assert_eq!(rev[0].name, segs.last().unwrap().name);
        assert_eq!(rev.last().unwrap().name, segs[0].name);
        // Offsets strictly decrease walking in reverse.
        for w in rev.windows(2) {
            assert!(w[0].offset > w[1].offset);
        }
    }

    /// The Optimized step as `step` computed it on its own before it ran
    /// `step_streamed`'s body: forward, criterion and plain backward on each
    /// replica, each replica's gradient flattened by `collect_grads`, then
    /// the average from zeros, `0.0 + g / m` and `+= g / m`, in replica
    /// index order. Returns `(loss, grad, correct)`.
    fn reference_step(
        replicas: &mut [Box<dyn Module>],
        x: &Tensor,
        labels: &[usize],
    ) -> (f64, Vec<f32>, usize) {
        let m = replicas.len();
        let (mut loss, mut grad, mut correct) = (0.0f64, Vec::new(), 0usize);
        for (model, (xs, ls)) in replicas.iter_mut().zip(split_batch(x, labels, m)) {
            zero_grads(model.as_mut());
            let logits = model.forward(&xs, true);
            let out = SoftmaxCrossEntropy.forward(&logits, ls);
            let _ = model.backward(&out.grad);
            let local = collect_grads(model.as_mut());
            grad.resize(local.len(), 0.0);
            for (a, &b) in grad.iter_mut().zip(&local) {
                *a += b / m as f32;
            }
            loss += out.loss / m as f64;
            correct += out.correct;
        }
        (loss, grad, correct)
    }

    #[test]
    fn step_streamed_matches_step_bitwise() {
        // Both entry points against the reference: m = 1 is the inline path
        // (the calling thread, no channel), m = 2 and 4 the threaded one;
        // both merge into the executor's buffer. Two steps each, so the
        // second reuses (streamed) or reallocates (`step`, which moves the
        // buffer out) what the first left.
        for m in [1, 2, 4] {
            let (x, labels) = batch(8, 19);
            let mut replicas: Vec<Box<dyn Module>> = (0..m).map(|_| tiny_factory()).collect();
            let mut plain = DptExecutor::new(m, tiny_factory);
            let mut streamed = DptExecutor::new(m, tiny_factory);
            for step in 0..2 {
                let (ref_loss, ref_grad, ref_correct) = reference_step(&mut replicas, &x, &labels);
                let out = plain.step(&x, &labels, DptStrategy::Optimized);

                let mut grad = vec![f32::NAN; ref_grad.len()];
                let mut fired: Vec<(usize, usize)> = Vec::new();
                let (loss, correct) = streamed.step_streamed(&x, &labels, |off, vals| {
                    grad[off..off + vals.len()].copy_from_slice(vals);
                    fired.push((off, vals.len()));
                });

                for (what, loss, got, correct) in
                    [("step", out.loss, &out.grad, out.correct), ("streamed", loss, &grad, correct)]
                {
                    let what = format!("m={m} step {step} {what}");
                    assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{what}");
                    assert_eq!(correct, ref_correct, "{what}");
                    assert_eq!(got.len(), ref_grad.len(), "{what}");
                    for (i, (a, b)) in got.iter().zip(&ref_grad).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{what} grad[{i}]: {a} vs {b}");
                    }
                }
                let what = format!("m={m} step {step}");
                // Ranges tile the gradient exactly and stream tail-first.
                assert!(fired[0].0 > fired[fired.len() - 1].0, "{what}: tail layers first");
                fired.sort_unstable();
                let mut off = 0;
                for (o, n) in fired {
                    assert_eq!(o, off, "{what}: ranges must tile without gaps or overlap");
                    off += n;
                }
                assert_eq!(off, ref_grad.len(), "{what}");
                // All three step their replicas the same way, so the second
                // step starts from equal parameters again.
                let sgd = dcnn_tensor::optim::Sgd::default();
                for r in &mut replicas {
                    sgd.step_flat(r.as_mut(), 0.1, &ref_grad, 1.0);
                }
                plain.visit_replicas(|r| sgd.step_flat(r, 0.1, &out.grad, 1.0));
                streamed.visit_replicas(|r| sgd.step_flat(r, 0.1, &grad, 1.0));
            }
        }
    }

    /// `inner` plus one parameter whose gradient backward leaves at `-0.0`.
    struct NegZeroGrad {
        extra: dcnn_tensor::layers::Param,
        inner: Box<dyn Module>,
    }

    impl Module for NegZeroGrad {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            self.inner.forward(x, train)
        }
        fn backward(&mut self, grad: &Tensor) -> Tensor {
            self.extra.grad.data_mut().fill(-0.0);
            self.inner.backward(grad)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut dcnn_tensor::layers::Param)) {
            f(&mut self.extra);
            self.inner.visit_params(f);
        }
    }

    #[test]
    fn negative_zero_gradient_averages_to_positive_zero_like_the_streamed_merge() {
        // The in-place average starts from replica 0's buffer, not from
        // zeros: its first term must still be `0.0 + g / m`.
        let factory = || -> Box<dyn Module> {
            let extra = dcnn_tensor::layers::Param::new(Tensor::zeros(&[3]));
            Box::new(NegZeroGrad { extra, inner: tiny_factory() })
        };
        let (x, labels) = batch(4, 23);
        for m in [1, 2] {
            let out = DptExecutor::new(m, factory).step(&x, &labels, DptStrategy::Optimized);
            let mut streamed = vec![f32::NAN; out.grad.len()];
            DptExecutor::new(m, factory).step_streamed(&x, &labels, |off, vals| {
                streamed[off..off + vals.len()].copy_from_slice(vals);
            });
            for i in 0..3 {
                assert_eq!(out.grad[i].to_bits(), 0.0f32.to_bits(), "m={m} grad[{i}]");
            }
            for (i, (a, b)) in out.grad.iter().zip(&streamed).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "m={m} grad[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn set_params_all_synchronizes() {
        let mut e = DptExecutor::new(2, tiny_factory);
        let n = {
            let mut probe = tiny_factory();
            dcnn_tensor::layers::param_count(probe.as_mut())
        };
        e.set_params_all(&vec![0.5; n]);
        let (x, labels) = batch(2, 9);
        let out = e.step(&x, &labels, DptStrategy::Optimized);
        assert!(out.loss.is_finite());
    }
}
