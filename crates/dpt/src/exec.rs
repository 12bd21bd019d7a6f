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
use std::ops::Range;
use std::sync::mpsc;
use std::sync::Arc;

use dcnn_tensor::layers::{
    collect_grads, param_segments, set_params, set_params_outside, FlatSink, GradSink, Module,
    ParamSegment,
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

    /// [`DptExecutor::set_params_all`] after the sharded optimizer stepped
    /// replica 0's `stepped` range in place: replica 0 already holds
    /// `flat[stepped]` there and is written everywhere else; every other
    /// replica is written whole.
    pub fn set_params_all_except(&mut self, flat: &[f32], stepped: Range<usize>) {
        let (first, rest) = self.replicas.split_first_mut().expect("at least one replica");
        set_params_outside(first.as_mut(), flat, stepped);
        for r in rest {
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
    /// [`DptExecutor::set_params_all_except`].
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
    /// [`DptStrategy::Optimized`], laying the node-averaged gradient down
    /// through `sink` ([`collect_grads`] layout) range by range *during*
    /// backprop: each range goes into `sink.slot(range)`, overwriting what
    /// it held, and `sink.ready(range)` fires the moment every replica has
    /// finished the backward step for it, in backward-traversal order —
    /// tail-layer ranges first. An overlap engine whose slots are its bucket
    /// payloads launches each bucket from there while earlier layers are
    /// still backpropagating.
    ///
    /// The ranges tile `[0, param_count)` exactly. One replica runs on the
    /// calling thread and backpropagates straight into the sink
    /// ([`Module::backward_into`]): its layers write each gradient into the
    /// slot, with no zero pass and no merge copy. Several run one thread
    /// each, setting `p.grad` and sending each finished range back to this
    /// thread over the replica's own channel. Every replica reports the same
    /// ranges in the same backward order, so this thread takes each range
    /// from replica 0, then 1, …, m − 1 and averages them in that order,
    /// `0.0 + g / m` then `+= g / m`, straight into the slot. Either way a
    /// range holds the bits of that average. Returns the mean loss and the
    /// top-1 hits.
    ///
    /// # Panics
    /// Panics unless the batch divides evenly across replicas, or if the
    /// sink has no slot for a range of a multi-replica step.
    pub fn step_into(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        sink: &mut dyn GradSink,
    ) -> (f64, usize) {
        let m = self.replicas.len();
        let shards = split_batch(x, labels, m);

        if let ([model], [(x, labels)]) = (&mut self.replicas[..], &shards[..]) {
            let logits = model.forward(x, true);
            let out = SoftmaxCrossEntropy.forward(&logits, labels);
            let _ = model.backward_into(&out.grad, 0, sink);
            return (0.0 + out.loss, out.correct);
        }

        // One thread per replica, each with its own channel back to this
        // thread, so ranges stream out as they finish.
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        std::thread::scope(|s| {
            let (handles, rxs): (Vec<_>, Vec<_>) = self
                .replicas
                .iter_mut()
                .zip(&shards)
                .map(|(model, (xs, shard_labels))| {
                    let (tx, rx) = mpsc::channel::<(usize, Vec<f32>)>();
                    let handle = s.spawn(move || {
                        let logits = model.forward(xs, true);
                        let out = SoftmaxCrossEntropy.forward(&logits, shard_labels);
                        let _ = model.backward_hooked(&out.grad, 0, &mut |off, vals| {
                            let _ = tx.send((off, vals.to_vec()));
                        });
                        (out.loss, out.correct)
                    });
                    (handle, rx)
                })
                .unzip();

            // Replica 0's next range is the next range every replica
            // reports: it is final once the last replica has sent it, and
            // it averages in replica index order as the parts arrive.
            let (first, rest) = rxs.split_first().expect("several replicas");
            while let Ok((off, vals)) = first.recv() {
                let range = off..off + vals.len();
                let merged = sink
                    .slot(range.clone())
                    .expect("a multi-replica step merges into the sink's slots");
                merge_first(merged, &vals, m as f32);
                for rx in rest {
                    let (at, vals) = rx.recv().expect("every replica must report every range");
                    assert_eq!(at..at + vals.len(), range, "replicas report ranges in one order");
                    merge_add(merged, &vals, m as f32);
                }
                sink.ready(range, None);
            }
            assert!(
                rest.iter().all(|rx| rx.recv().is_err()),
                "every replica must report every range"
            );

            for h in handles {
                let (l, c) = h.join().expect("replica thread");
                loss += l / m as f64;
                correct += c;
            }
        });
        (loss, correct)
    }

    /// [`DptExecutor::step_into`] a [`FlatSink`] over an executor-owned
    /// buffer (allocated on the first call, reused after), lending
    /// `on_segment(offset, grads)` each range as it lands.
    ///
    /// # Panics
    /// Panics unless the batch divides evenly across replicas.
    pub fn step_streamed(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        mut on_segment: impl FnMut(usize, &[f32]),
    ) -> (f64, usize) {
        let mut merged = std::mem::take(&mut self.merged);
        merged.resize(self.param_total(), 0.0);
        let out = self.step_into(
            x,
            labels,
            &mut FlatSink::new(&mut merged, |buf, range| on_segment(range.start, &buf[range])),
        );
        self.merged = merged;
        out
    }

    /// Length of the flattened parameter (and gradient) vector.
    fn param_total(&self) -> usize {
        self.segments.last().map_or(0, |s| s.offset + s.len)
    }

    /// Run one iteration on a node batch `x: [B, C, H, W]` under `strategy`.
    /// [`DptStrategy::Optimized`] is [`DptExecutor::step_into`] a
    /// [`FlatSink`] over a new buffer that hears nothing.
    ///
    /// # Panics
    /// Panics unless the batch divides evenly across replicas.
    pub fn step(&mut self, x: &Tensor, labels: &[usize], strategy: DptStrategy) -> IterOutput {
        if strategy == DptStrategy::Optimized {
            let mut grad = vec![0.0; self.param_total()];
            let (loss, correct) =
                self.step_into(x, labels, &mut FlatSink::new(&mut grad, |_, _| {}));
            return IterOutput { loss, grad, correct };
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
        IterOutput { loss: out.loss, grad: grad.expect("replicas"), correct: out.correct }
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
    fn segments_tile_the_gradient() {
        let (x, labels) = batch(4, 13);
        let mut e = DptExecutor::new(2, tiny_factory);
        let out = e.step(&x, &labels, DptStrategy::Optimized);
        let mut off = 0;
        for s in e.segments().iter() {
            assert_eq!(s.offset, off);
            assert_eq!(s.range(), off..off + s.len);
            off += s.len;
        }
        assert_eq!(off, out.grad.len(), "segments must cover the whole gradient");
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
            model.visit_params(&mut |p| p.grad.zero_());
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
                let (sgd, n) = (dcnn_tensor::optim::Sgd::default(), ref_grad.len());
                for r in &mut replicas {
                    sgd.step_slice(r.as_mut(), 0.1, 0..n, &ref_grad, 1.0);
                }
                plain.visit_replicas(|r| sgd.step_slice(r, 0.1, 0..n, &out.grad, 1.0));
                streamed.visit_replicas(|r| sgd.step_slice(r, 0.1, 0..n, &grad, 1.0));
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
    fn step_into_is_the_streamed_merge_plus_the_copy_bitwise() {
        // The step lands in `dst` as `step_streamed`'s ranges copied out,
        // equal to `step(.., Optimized)`'s gradient. The batch carries `-0.0`
        // gradient entries, and `dst` and every replica's `p.grad` start as
        // NaN, so the step and each replica's backward must overwrite, not
        // add.
        let factory = || -> Box<dyn Module> {
            let extra = dcnn_tensor::layers::Param::new(Tensor::zeros(&[3]));
            Box::new(NegZeroGrad { extra, inner: tiny_factory() })
        };
        let bits = |x: &[f32]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for m in [1, 2, 4] {
            let what = format!("m={m}");
            let mut into = DptExecutor::new(m, factory);
            into.visit_replicas(|r| r.visit_params(&mut |p| p.grad.data_mut().fill(f32::NAN)));
            let n = into.param_total();
            let (mut dst, mut want) = (vec![f32::NAN; n], vec![f32::NAN; n]);
            let (x, labels) = batch(8, 29);
            let mut fired = Vec::new();
            let (loss, correct) = into.step_into(
                &x,
                &labels,
                &mut FlatSink::new(&mut dst, |d, r| fired.push((r.clone(), bits(&d[r])))),
            );
            let mut streamed = DptExecutor::new(m, factory);
            let (s_loss, s_correct) = streamed.step_streamed(&x, &labels, |off, vals| {
                want[off..off + vals.len()].copy_from_slice(vals);
            });
            let out = DptExecutor::new(m, factory).step(&x, &labels, DptStrategy::Optimized);
            assert_eq!((loss.to_bits(), correct), (s_loss.to_bits(), s_correct), "{what}");
            assert_eq!((loss.to_bits(), correct), (out.loss.to_bits(), out.correct), "{what}");
            assert_eq!(bits(&dst), bits(&want), "{what}: step_into vs step_streamed");
            assert_eq!(bits(&dst), bits(&out.grad), "{what}: step_into vs step");
            assert_eq!(dst[0].to_bits(), 0.0f32.to_bits(), "{what}: -0.0 merges to +0.0");
            // Each range is final when the hook sees it, and the ranges tile
            // the buffer.
            fired.sort_by_key(|(r, _)| r.start);
            let mut off = 0;
            for (r, seen) in fired {
                assert_eq!(r.start, off, "{what}: ranges must tile without gaps or overlap");
                assert_eq!(seen, bits(&dst[r.clone()]), "{what}: {r:?} moved after its hook");
                off = r.end;
            }
            assert_eq!(off, n, "{what}");
        }
    }

    #[test]
    fn one_replica_step_into_writes_only_the_sink() {
        // One replica backpropagates straight into the sink: a NaN sentinel
        // in every `p.grad` survives the step, and the NaN-filled buffer
        // ends with the bits of the baseline's zero + backward + flatten.
        let (x, labels) = batch(4, 31);
        let mut into = DptExecutor::new(1, tiny_factory);
        let sentinel = f32::from_bits(0x7fc0_1234);
        into.visit_replicas(|r| r.visit_params(&mut |p| p.grad.data_mut().fill(sentinel)));
        let mut dst = vec![f32::NAN; into.param_total()];
        let mut ready = Vec::new();
        let (loss, correct) =
            into.step_into(&x, &labels, &mut FlatSink::new(&mut dst, |_, r| ready.push(r)));
        into.visit_replicas(|r| {
            r.visit_params(&mut |p| {
                assert!(p.grad.data().iter().all(|g| g.to_bits() == sentinel.to_bits()));
            })
        });
        let out = DptExecutor::new(1, tiny_factory).step(&x, &labels, DptStrategy::Baseline);
        assert_eq!((loss.to_bits(), correct), (out.loss.to_bits(), out.correct));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dst), bits(&out.grad));
        ready.sort_by_key(|r| r.start);
        let ends: Vec<usize> = ready.iter().map(|r| r.end).collect();
        let starts: Vec<usize> = ready.iter().map(|r| r.start).collect();
        assert_eq!(starts[0], 0);
        assert_eq!(starts[1..], ends[..ends.len() - 1], "ready ranges tile the buffer");
        assert_eq!(ends.last(), Some(&dst.len()));
    }

    #[test]
    fn set_params_all_except_leaves_replica_zeros_stepped_range() {
        let m = 3;
        let mut e = DptExecutor::new(m, tiny_factory);
        let n = e.param_total();
        let stepped = n / 3..n / 2;
        let sentinel = 7.25f32;
        e.set_params_all(&vec![sentinel; n]);
        let src: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        e.set_params_all_except(&src, stepped.clone());
        for r in 0..m {
            let got = dcnn_tensor::layers::collect_params(e.replica(r));
            for (i, (&got, &src)) in got.iter().zip(&src).enumerate() {
                let want = if r == 0 && stepped.contains(&i) { sentinel } else { src };
                assert_eq!(got.to_bits(), want.to_bits(), "replica {r} element {i}");
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
