//! Softmax cross-entropy, the criterion of both paper workloads.
//!
//! In the paper's optimized data-parallel table the criterion is evaluated on
//! *every* GPU over its own batch shard (§4.3), so the loss returns both the
//! shard loss and the gradient w.r.t. the logits, plus the top-1 hit count
//! used by the accuracy figures.

use crate::tensor::Tensor;

/// Result of a criterion evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean cross-entropy over the batch.
    pub loss: f64,
    /// Gradient w.r.t. the logits, already divided by the batch size.
    pub grad: Tensor,
    /// Number of samples whose arg-max logit equals the label.
    pub correct: usize,
}

/// Numerically stable softmax + cross-entropy.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Evaluate logits `[N, K]` against `labels` (`len == N`, values `< K`).
    pub fn forward(&self, logits: &Tensor, labels: &[usize]) -> LossOutput {
        let n = logits.shape()[0];
        let k = logits.shape()[1];
        assert_eq!(labels.len(), n, "one label per sample");
        let mut grad = Tensor::zeros(&[n, k]);
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        for i in 0..n {
            let row = &logits.data()[i * k..(i + 1) * k];
            let label = labels[i];
            assert!(label < k, "label {label} out of range {k}");
            let maxv = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(j, _)| j)
                .expect("non-empty row");
            if argmax == label {
                correct += 1;
            }
            let exps: Vec<f64> = row.iter().map(|&v| ((v - maxv) as f64).exp()).collect();
            let denom: f64 = exps.iter().sum();
            loss -= (exps[label] / denom).ln();
            let grow = &mut grad.data_mut()[i * k..(i + 1) * k];
            for (j, g) in grow.iter_mut().enumerate() {
                let p = (exps[j] / denom) as f32;
                *g = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
            }
        }
        LossOutput { loss: loss / n as f64, grad, correct }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Tensor::zeros(&[4, 10]);
        let out = SoftmaxCrossEntropy.forward(&logits, &[0, 1, 2, 3]);
        assert!((out.loss - (10.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn confident_correct_prediction_low_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[1] = 20.0;
        let out = SoftmaxCrossEntropy.forward(&logits, &[1]);
        assert!(out.loss < 1e-6);
        assert_eq!(out.correct, 1);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let logits = Tensor::randn(&[5, 7], 2.0, 3);
        let out = SoftmaxCrossEntropy.forward(&logits, &[0, 1, 2, 3, 4]);
        for i in 0..5 {
            let s: f32 = out.grad.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!(s.abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_numeric() {
        let logits = Tensor::randn(&[3, 4], 1.0, 5);
        let labels = [2usize, 0, 3];
        let out = SoftmaxCrossEntropy.forward(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let fp = SoftmaxCrossEntropy.forward(&lp, &labels).loss;
            let fm = SoftmaxCrossEntropy.forward(&lm, &labels).loss;
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let ana = out.grad.data()[idx];
            assert!((num - ana).abs() < 1e-3, "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn top1_counting() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.6], &[3, 2]);
        let out = SoftmaxCrossEntropy.forward(&logits, &[0, 1, 0]);
        assert_eq!(out.correct, 2);
    }

    #[test]
    fn numerically_stable_with_huge_logits() {
        let logits = Tensor::from_vec(vec![1e4, -1e4], &[1, 2]);
        let out = SoftmaxCrossEntropy.forward(&logits, &[0]);
        assert!(out.loss.is_finite());
        assert!(out.grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_panics() {
        let _ = SoftmaxCrossEntropy.forward(&Tensor::zeros(&[1, 2]), &[2]);
    }
}
