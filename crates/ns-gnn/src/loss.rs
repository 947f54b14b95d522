//! Prediction head: softmax cross-entropy over the last layer's logits
//! (the paper's `P→`/`P←` operators, Algorithm 1 lines 6–10).

use ns_tensor::Tensor;

/// Loss value and the gradient seed for the last GNN layer.
#[derive(Debug, Clone)]
pub struct LossResult {
    /// Weighted negative log-likelihood (summed over the given rows).
    pub loss: f64,
    /// `∇ logits` — the backward seed for the last layer's output.
    pub logit_grad: Tensor,
    /// Every row's argmax, weighted or not: the first maximum, as
    /// `Tensor::argmax_rows` picks it.
    pub pred: Vec<usize>,
    /// FLOPs of the head's forward + backward.
    pub flops: u64,
}

/// Computes softmax cross-entropy and its gradient on `logits`
/// (`n x classes`). `labels[r]` is the class of row `r`; `weights[r]`
/// scales row `r`'s contribution (0 for unlabeled/non-training rows; each
/// worker typically uses `1 / total_train_vertices` so that the
/// cluster-wide sum is the mean training loss).
///
/// One pass. It scans every row once for its maximum and argmax
/// (`pred`); a zero-weight row adds nothing to the loss and its gradient
/// row is `+0.0`, so it stops there. A weighted row takes one `exp` per
/// logit, `e = exp(x - max)`, kept in its gradient slot: the loss is
/// `x[y] - max - ln Σe`, and the gradient turns the NLL seed `s` (`-w` at
/// the label) into `s - (e / Σe) · -w`. These are the operations the
/// tape's `log_softmax_rows` → `nll_loss` pair and their adjoints apply,
/// in the same order, so loss and gradient equal that pair's bit for bit
/// (the tests below hold the tape up as the oracle); `flops` is what the
/// tape meters for it.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[u32], weights: &[f32]) -> LossResult {
    let (rows, cols) = logits.shape();
    assert_eq!(labels.len(), rows, "label count");
    assert_eq!(weights.len(), rows, "weight count");
    let mut logit_grad = Tensor::zeros(rows, cols);
    let mut pred = Vec::with_capacity(rows);
    let mut loss = 0.0f32;
    for r in 0..rows {
        let x = logits.row(r);
        let (mut max, mut best) = (f32::NEG_INFINITY, (0, f32::NAN));
        for (c, &a) in x.iter().enumerate() {
            max = max.max(a);
            if c == 0 || a > best.1 {
                best = (c, a);
            }
        }
        pred.push(best.0);
        let (w, y) = (weights[r], labels[r] as usize);
        if w == 0.0 {
            continue;
        }
        let g = logit_grad.row_mut(r);
        let mut sum = 0.0f32;
        for (e, &a) in g.iter_mut().zip(x) {
            *e = (a - max).exp();
            sum += *e;
        }
        loss -= w * ((x[y] - max) - sum.ln());
        for (c, d) in g.iter_mut().enumerate() {
            let seed = if c == y { -w } else { 0.0 };
            *d = seed - *d / sum * -w;
        }
    }
    let n = (rows * cols) as u64;
    // log-softmax 4n + NLL 2 per row forward; NLL 1 per row + log-softmax
    // 4n backward.
    let flops = 8 * n + 3 * rows as u64;
    LossResult { loss: loss as f64, logit_grad, pred, flops }
}

/// Counts correct argmax predictions among rows where `mask` is true.
/// Returns `(correct, total)`.
pub fn accuracy(logits: &Tensor, labels: &[u32], mask: &[bool]) -> (usize, usize) {
    count_correct(&logits.argmax_rows(), labels, mask)
}

/// [`accuracy`] over predictions already taken (`logits.argmax_rows()`,
/// or [`LossResult::pred`]), for a caller that scores several masks
/// against one argmax.
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
    use ns_tensor::Tape;

    /// The head as a tape program — what `softmax_cross_entropy` was
    /// before it became one pass, kept as its oracle.
    fn tape_head(logits: &Tensor, labels: &[u32], weights: &[f32]) -> LossResult {
        let mut tape = Tape::new();
        let x = tape.leaf(logits.clone());
        let lp = tape.log_softmax_rows(x);
        let loss = tape.nll_loss(lp, labels.to_vec().into(), weights.to_vec().into());
        let value = tape.value(loss).scalar_value() as f64;
        tape.backward(loss);
        let flops = tape.flops();
        let pred = logits.argmax_rows();
        LossResult { loss: value, logit_grad: tape.take_grad(x).unwrap(), pred, flops }
    }

    #[test]
    fn one_pass_head_equals_the_tape_head_bit_for_bit() {
        ns_rand::check_cases(0..32, |rng| {
            let (rows, cols) = (rng.random_range(1..40usize), rng.random_range(1..12usize));
            let data = (0..rows * cols).map(|_| 8.0 * rng.random::<f32>() - 4.0).collect();
            let logits = Tensor::from_vec(rows, cols, data);
            let labels: Vec<u32> = (0..rows).map(|_| rng.random_range(0..cols as u32)).collect();
            // About 40% of rows carry no weight, as val/test rows do.
            let weights: Vec<f32> = (0..rows)
                .map(|_| if rng.random_bool(0.4) { 0.0 } else { rng.random::<f32>() / rows as f32 })
                .collect();
            let (got, want) = (
                softmax_cross_entropy(&logits, &labels, &weights),
                tape_head(&logits, &labels, &weights),
            );
            assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            assert_eq!(got.flops, want.flops);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.logit_grad), bits(&want.logit_grad));
        });
    }

    /// Weighted softmax cross-entropy in f64, written out from its
    /// definition: `(loss, gradient)`. It shares no code with the head.
    fn reference(logits: &Tensor, labels: &[u32], weights: &[f32]) -> (f64, Vec<f64>) {
        let (rows, cols) = logits.shape();
        let (mut loss, mut grad) = (0.0, vec![0.0; rows * cols]);
        for r in 0..rows {
            let w = weights[r] as f64;
            let x: Vec<f64> = (0..cols).map(|c| logits.get(r, c) as f64).collect();
            let shift = x.iter().cloned().fold(f64::MIN, f64::max);
            let z: f64 = x.iter().map(|v| (v - shift).exp()).sum();
            let y = labels[r] as usize;
            loss += w * (z.ln() + shift - x[y]);
            for c in 0..cols {
                let p = (x[c] - shift).exp() / z;
                grad[r * cols + c] = w * (p - (c == y) as u8 as f64);
            }
        }
        (loss, grad)
    }

    #[test]
    fn head_matches_an_f64_reference() {
        ns_rand::check_cases(0..32, |rng| {
            let (rows, cols) = (rng.random_range(2..40usize), rng.random_range(2..12usize));
            let mut data: Vec<f32> =
                (0..rows * cols).map(|_| 8.0 * rng.random::<f32>() - 4.0).collect();
            // Row 0 sits 1e4 above the others: `exp` of it unshifted is inf.
            for v in &mut data[..cols] {
                *v += 1e4;
            }
            let logits = Tensor::from_vec(rows, cols, data);
            let labels: Vec<u32> = (0..rows).map(|_| rng.random_range(0..cols as u32)).collect();
            let mut weights: Vec<f32> = (0..rows)
                .map(|_| if rng.random_bool(0.4) { 0.0 } else { rng.random::<f32>() / rows as f32 })
                .collect();
            weights[0] = 1.0 / rows as f32;
            let got = softmax_cross_entropy(&logits, &labels, &weights);
            let (loss, grad) = reference(&logits, &labels, &weights);
            assert!(got.loss.is_finite());
            assert!((got.loss - loss).abs() <= 1e-5 * (1.0 + loss.abs()), "{} vs {loss}", got.loss);
            for r in 0..rows {
                for c in 0..cols {
                    let (g, want) = (got.logit_grad.get(r, c), grad[r * cols + c]);
                    assert!(g.is_finite(), "row {r}");
                    if weights[r] == 0.0 {
                        assert_eq!(g.to_bits(), 0.0f32.to_bits(), "a zero-weight row is +0.0");
                    } else {
                        let tol = 1e-5 * weights[r] as f64;
                        assert!((g as f64 - want).abs() <= tol, "({r}, {c}): {g} vs {want}");
                    }
                }
            }
            assert_eq!(got.pred, logits.argmax_rows());
        });
    }

    /// The argmax the head takes in its pass is `argmax_rows`, weighted
    /// row or not: the first of tied maxima, a leading NaN wins, a later
    /// NaN never does.
    #[test]
    fn fused_argmax_is_argmax_rows_on_ties_and_nans() {
        let nan = f32::NAN;
        let rows = [
            [1.0, 3.0, 3.0, 2.0],
            [5.0, 5.0, 5.0, 5.0],
            [nan, 1.0, 4.0, 2.0],
            [0.5, nan, 4.0, 4.0],
            [-2.0, -1.0, -1.0, nan],
            [-0.0, 0.0, -1.0, -3.0],
        ];
        let logits = Tensor::from_vec(rows.len(), 4, rows.concat());
        let want = logits.argmax_rows();
        assert_eq!(want, [1, 0, 0, 2, 1, 0]);
        for w in [0.0, 0.25] {
            let weights = vec![w; rows.len()];
            let got = softmax_cross_entropy(&logits, &[0, 1, 2, 3, 1, 0], &weights);
            assert_eq!(got.pred, want, "weight {w}");
        }
    }

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
