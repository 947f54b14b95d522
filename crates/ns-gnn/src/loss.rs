//! Prediction head: softmax cross-entropy over the last layer's logits
//! (the paper's `P→`/`P←` operators, Algorithm 1 lines 6–10).

use std::sync::Arc;

use ns_tensor::{Tape, Tensor};

/// Loss value and the gradient seed for the last GNN layer.
#[derive(Debug, Clone)]
pub struct LossResult {
    /// Weighted negative log-likelihood (summed over the given rows).
    pub loss: f64,
    /// `∇ logits` — the backward seed for the last layer's output.
    pub logit_grad: Tensor,
    /// FLOPs of the head's forward + backward.
    pub flops: u64,
}

/// Computes softmax cross-entropy and its gradient on `logits`
/// (`n x classes`). `labels[r]` is the class of row `r`; `weights[r]`
/// scales row `r`'s contribution (0 for unlabeled/non-training rows; each
/// worker typically uses `1 / total_train_vertices` so that the
/// cluster-wide sum is the mean training loss).
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[u32], weights: &[f32]) -> LossResult {
    softmax_cross_entropy_shared(logits, labels.to_vec().into(), weights.to_vec().into())
}

/// [`softmax_cross_entropy`] for a caller that evaluates the same rows
/// every epoch and keeps their labels and weights shared, so the head
/// copies neither.
pub fn softmax_cross_entropy_shared(
    logits: &Tensor,
    labels: Arc<[u32]>,
    weights: Arc<[f32]>,
) -> LossResult {
    assert_eq!(labels.len(), logits.rows(), "label count");
    assert_eq!(weights.len(), logits.rows(), "weight count");
    let mut tape = Tape::new();
    let x = tape.leaf(logits.clone());
    let lp = tape.log_softmax_rows(x);
    let loss = tape.nll_loss(lp, labels, weights);
    let value = tape.value(loss).scalar_value() as f64;
    tape.backward(loss);
    let flops = tape.flops();
    let logit_grad = tape
        .take_grad(x)
        .unwrap_or_else(|| Tensor::zeros(logits.rows(), logits.cols()));
    LossResult { loss: value, logit_grad, flops }
}

/// Counts correct argmax predictions among rows where `mask` is true.
/// Returns `(correct, total)`.
pub fn accuracy(logits: &Tensor, labels: &[u32], mask: &[bool]) -> (usize, usize) {
    count_correct(&logits.argmax_rows(), labels, mask)
}

/// [`accuracy`] over predictions already taken (`logits.argmax_rows()`),
/// for a caller that scores several masks against one argmax.
pub fn count_correct(pred: &[usize], labels: &[u32], mask: &[bool]) -> (usize, usize) {
    assert_eq!(labels.len(), pred.len());
    assert_eq!(mask.len(), pred.len());
    let mut correct = 0;
    let mut total = 0;
    for r in 0..pred.len() {
        if mask[r] {
            total += 1;
            if pred[r] == labels[r] as usize {
                correct += 1;
            }
        }
    }
    (correct, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_logits_have_low_loss() {
        let logits = Tensor::from_vec(2, 2, vec![10.0, -10.0, -10.0, 10.0]);
        let r = softmax_cross_entropy(&logits, &[0, 1], &[1.0, 1.0]);
        assert!(r.loss < 1e-3, "loss {}", r.loss);
        assert!(r.logit_grad.norm() < 1e-3);
    }

    #[test]
    fn uniform_logits_loss_is_log_classes() {
        let logits = Tensor::zeros(1, 4);
        let r = softmax_cross_entropy(&logits, &[2], &[1.0]);
        assert!((r.loss - (4.0f64).ln()).abs() < 1e-5);
        // Gradient: softmax - onehot = 0.25 everywhere except -0.75 at 2.
        assert!((r.logit_grad.get(0, 2) + 0.75).abs() < 1e-5);
        assert!((r.logit_grad.get(0, 0) - 0.25).abs() < 1e-5);
    }

    #[test]
    fn zero_weight_rows_contribute_nothing() {
        let logits = Tensor::from_vec(2, 2, vec![1.0, -1.0, 3.0, 0.5]);
        let r = softmax_cross_entropy(&logits, &[0, 1], &[1.0, 0.0]);
        assert_eq!(r.logit_grad.row(1), &[0.0, 0.0]);
        let only_first = softmax_cross_entropy(
            &Tensor::from_vec(1, 2, vec![1.0, -1.0]),
            &[0],
            &[1.0],
        );
        assert!((r.loss - only_first.loss).abs() < 1e-6);
    }

    #[test]
    fn accuracy_respects_mask() {
        let logits = Tensor::from_vec(3, 2, vec![2., 1., 0., 5., 4., 3.]);
        // predictions: 0, 1, 0 ; labels: 0, 0, 0
        let (c, t) = accuracy(&logits, &[0, 0, 0], &[true, true, false]);
        assert_eq!((c, t), (1, 2));
        let (c2, t2) = accuracy(&logits, &[0, 0, 0], &[true, true, true]);
        assert_eq!((c2, t2), (2, 3));
    }

    #[test]
    fn loss_decreases_along_gradient_step() {
        let logits = Tensor::from_vec(2, 3, vec![0.5, -0.5, 0.1, 0.2, 0.3, -0.1]);
        let labels = [2u32, 0];
        let w = [0.5f32, 0.5];
        let r = softmax_cross_entropy(&logits, &labels, &w);
        let mut stepped = logits.clone();
        stepped.axpy(-0.5, &r.logit_grad);
        let r2 = softmax_cross_entropy(&stepped, &labels, &w);
        assert!(r2.loss < r.loss);
    }
}
