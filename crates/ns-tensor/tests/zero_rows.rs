//! Exactness of the adjoint kernels' zero-row skip (DESIGN.md §14).
//!
//! `Tensor::matmul_tn` leaves out a `k` step whose gradient row is all
//! `±0.0` and whose `A` row is finite; `Tensor::weighted_aggregate_transpose`
//! leaves out a destination whose gradient row is all `±0.0` and whose
//! weights are finite. Both promise results bit-identical to running every
//! step, `matmul_tn` up to the sign of a zero that only an underflowing
//! fused step can make (pinned below). These seeded case loops compare
//! both kernels with naive loops that skip nothing, bit for bit (any NaN
//! for a NaN; `matmul_tn`'s loop fused like its kernel, the aggregation's
//! unfused like its kernel), at 1/2/3/4/8 threads: gradients with random
//! all-zero rows built from `+0.0` and `-0.0`, gradients that are zero
//! throughout, kept-step counts on both sides of a `KC` boundary, and
//! NaN / Inf placed exactly where a wrong skip would hide them. A failure
//! prints `case seed = N`.

use std::sync::{Arc, Mutex, MutexGuard};

use ns_rand::{check_cases, StdRng};
use ns_tensor::tensor::KC;
use ns_tensor::{pool, Tape, Tensor};

const CASES: u64 = 24;
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// The thread count and the pool counters are process-global; serialize.
fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// A value in `[-2, 2)`, exactly `±0.0` one time in eight.
fn value(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..16) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.random_range(-2.0..2.0f32),
    }
}

/// `(k, n, m)`, each drawn from `lo..hi` of its own range.
fn dims(rng: &mut StdRng, k: (usize, usize), n: usize, m: usize) -> (usize, usize, usize) {
    (
        rng.random_range(k.0..k.1),
        rng.random_range(1..n),
        rng.random_range(1..m),
    )
}

fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| value(rng)).collect())
}

/// A `rows x cols` gradient with `zeros` rows, at random places, that are
/// all `±0.0` (signs drawn per element), and [`value`]s elsewhere; with
/// the flags of the rows made zero.
fn gradient(rng: &mut StdRng, rows: usize, zeros: usize, cols: usize) -> (Tensor, Vec<bool>) {
    let mut zero: Vec<bool> = (0..rows).map(|r| r < zeros).collect();
    rng.shuffle(&mut zero);
    let mut g = rand_tensor(rng, rows, cols);
    for r in (0..rows).filter(|&r| zero[r]) {
        for v in g.row_mut(r) {
            *v = if rng.random_bool(0.5) { -0.0 } else { 0.0 };
        }
    }
    (g, zero)
}

/// `out[i][j] = Σ_k a[k][i] · g[k][j]`, `k` ascending, one fused
/// multiply-add per step, every step run.
fn naive_tn(a: &Tensor, g: &Tensor) -> Vec<f32> {
    let (k, n, m) = (a.rows(), a.cols(), g.cols());
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a.get(kk, i).mul_add(g.get(kk, j), acc);
            }
            out[i * m + j] = acc;
        }
    }
    out
}

/// A CSR edge structure: `offsets` (`n_dst + 1`), sources in `0..n_src`
/// and one weight per edge. Degree 0 included.
struct Csr {
    offsets: Vec<usize>,
    edge_src: Vec<u32>,
    weights: Vec<f32>,
}

fn rand_csr(rng: &mut StdRng, n_dst: usize, n_src: usize) -> Csr {
    let (mut offsets, mut edge_src, mut weights) = (vec![0usize], Vec::new(), Vec::new());
    for _ in 0..n_dst {
        for _ in 0..rng.random_range(0..7usize) {
            edge_src.push(rng.random_range(0..n_src) as u32);
            weights.push(rng.random_range(-1.0..1.0f32));
        }
        offsets.push(edge_src.len());
    }
    Csr {
        offsets,
        edge_src,
        weights,
    }
}

/// `out[src] += w[e] · g[dst]` (or `+= g[dst]` unweighted) over every
/// edge, destinations and then edges ascending, every destination run.
fn naive_agg_t(g: &Tensor, csr: &Csr, weights: Option<&[f32]>, n_src: usize) -> Vec<f32> {
    let d = g.cols();
    let mut out = vec![0.0f32; n_src * d];
    for dst in 0..g.rows() {
        for e in csr.offsets[dst]..csr.offsets[dst + 1] {
            let src = csr.edge_src[e] as usize;
            for c in 0..d {
                let term = match weights {
                    Some(w) => w[e] * g.get(dst, c),
                    None => g.get(dst, c),
                };
                out[src * d + c] += term;
            }
        }
    }
    out
}

/// Bit-for-bit equality, any NaN standing for any NaN.
fn assert_same(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.data().iter().zip(want).enumerate() {
        let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        assert!(
            same,
            "{what} [{}, {}]: {x:?} vs naive {y:?}",
            i / got.cols(),
            i % got.cols()
        );
    }
}

/// Runs `kernel` at every thread count against `want`.
fn at_every_thread_count(want: &[f32], what: &str, kernel: impl Fn() -> Tensor) {
    for &t in &THREADS {
        ns_par::set_threads(t);
        assert_same(&kernel(), want, &format!("{what}, {t} threads"));
    }
    ns_par::set_threads(1);
}

fn check_tn(a: &Tensor, g: &Tensor, what: &str) {
    let want = naive_tn(a, g);
    at_every_thread_count(&want, what, || a.matmul_tn(g));
}

#[test]
fn matmul_tn_with_zero_rows_equals_naive_loop() {
    let _g = serial();
    check_cases(0..CASES, |rng| {
        let (k, n, m) = dims(rng, (1, 200), 80, 40);
        let zeros = [0, k / 5, k / 2, k - 1, k][rng.random_range(0..5usize)];
        let a = rand_tensor(rng, k, n);
        let g = gradient(rng, k, zeros, m).0;
        check_tn(&a, &g, &format!("{k}x{n}x{m}, {zeros} zero rows"));
    });
}

#[test]
fn matmul_tn_kept_count_crosses_k_blocks() {
    // The kernel k-blocks over the kept steps: land the kept count on
    // either side of one and two KC boundaries, with the zero rows
    // scattered through (and before, and after) the blocks they shorten.
    let _g = serial();
    check_cases(0..8, |rng| {
        let kept = [KC - 1, KC, KC + 1, 2 * KC + 1][rng.random_range(0..4usize)];
        let zeros = rng.random_range(1..KC);
        let (k, n, m) = dims(rng, (kept + zeros, kept + zeros + 1), 70, 40);
        let a = rand_tensor(rng, k, n);
        let g = gradient(rng, k, zeros, m).0;
        check_tn(&a, &g, &format!("{k}x{n}x{m}, {kept} kept"));
    });
}

#[test]
fn matmul_tn_all_zero_gradient_is_positive_zero() {
    let _g = serial();
    check_cases(0..6, |rng| {
        let (k, n, m) = dims(rng, (1, 600), 50, 40);
        let a = rand_tensor(rng, k, n);
        let g = gradient(rng, k, k, m).0;
        let want = naive_tn(&a, &g);
        assert!(
            want.iter().all(|v| v.to_bits() == 0),
            "the naive sum is +0.0 throughout"
        );
        at_every_thread_count(&want, "all rows zero", || a.matmul_tn(&g));
    });
}

#[test]
fn matmul_tn_keeps_non_finite_rows_a_skip_would_hide() {
    // NaN and ±Inf in `A` rows whose gradient row is zero: `NaN × 0` and
    // `Inf × 0` are NaN, so those steps must run. A NaN in an otherwise
    // zero gradient row keeps its step too.
    let _g = serial();
    check_cases(0..CASES, |rng| {
        let (k, n, m) = dims(rng, (2, 300), 60, 40);
        let mut a = rand_tensor(rng, k, n);
        let (mut g, zero) = gradient(rng, k, k / 2 + 1, m);
        let zero_rows: Vec<usize> = (0..k).filter(|&r| zero[r]).collect();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let r = zero_rows[rng.random_range(0..zero_rows.len())];
            a.set(r, rng.random_range(0..n), bad);
        }
        let r = zero_rows[rng.random_range(0..zero_rows.len())];
        g.set(r, rng.random_range(0..m), f32::NAN);
        let want = naive_tn(&a, &g);
        assert!(
            want.iter().any(|v| v.is_nan()),
            "a non-finite step reaches the result"
        );
        at_every_thread_count(&want, &format!("{k}x{n}x{m} non-finite"), || {
            a.matmul_tn(&g)
        });
    });
}

#[test]
fn matmul_tn_skip_keeps_only_an_underflowed_zeros_sign() {
    // Step 0 is `fma(1e-30, -1e-30, +0)`: the exact -1e-60 underflows to
    // -0.0. Step 1 (zero gradient row, finite `A` row) would make it +0.0;
    // skipped, the -0.0 stays. The values are equal, the bits are not.
    let _g = serial();
    let a = Tensor::from_vec(2, 1, vec![1e-30, 1.0]);
    let g = Tensor::from_vec(2, 1, vec![-1e-30, 0.0]);
    let want = naive_tn(&a, &g)[0];
    assert_eq!(want.to_bits(), 0.0f32.to_bits(), "every step run gives +0.0");
    let got = a.matmul_tn(&g).data()[0];
    assert_eq!(got, want);
    assert_eq!(
        got.to_bits(),
        (-0.0f32).to_bits(),
        "the skip keeps the underflowed -0.0"
    );
}

fn check_agg_t(g: &Tensor, csr: &Csr, n_src: usize, what: &str) {
    for weights in [Some(&csr.weights[..]), None] {
        let want = naive_agg_t(g, csr, weights, n_src);
        let what = format!("{what}, weighted {}", weights.is_some());
        at_every_thread_count(&want, &what, || {
            g.weighted_aggregate_transpose(&csr.edge_src, &csr.offsets, weights, n_src)
        });
    }
}

#[test]
fn aggregate_transpose_with_zero_rows_equals_naive_loop() {
    let _g = serial();
    check_cases(0..CASES, |rng| {
        let (n_dst, n_src) = (rng.random_range(1..300usize), rng.random_range(1..300usize));
        let d = rng.random_range(1..40usize);
        let csr = rand_csr(rng, n_dst, n_src);
        let zeros = [0, n_dst / 3, n_dst / 2, n_dst][rng.random_range(0..4usize)];
        let g = gradient(rng, n_dst, zeros, d).0;
        check_agg_t(
            &g,
            &csr,
            n_src,
            &format!("{n_dst}->{n_src} x{d}, {zeros} zero rows"),
        );
    });
}

#[test]
fn aggregate_transpose_keeps_non_finite_weights_and_rows() {
    // An Inf or NaN weight on a zero-gradient destination makes its
    // sources NaN; a NaN in an otherwise zero gradient row does too.
    let _g = serial();
    check_cases(0..CASES, |rng| {
        let (n_dst, n_src) = (rng.random_range(2..200usize), rng.random_range(1..200usize));
        let d = rng.random_range(1..40usize);
        let mut csr = rand_csr(rng, n_dst, n_src);
        let (mut g, zero) = gradient(rng, n_dst, n_dst / 2 + 1, d);
        let fed: Vec<usize> = (0..n_dst)
            .filter(|&v| zero[v] && csr.offsets[v] < csr.offsets[v + 1])
            .collect();
        if fed.is_empty() {
            return;
        }
        for bad in [f32::INFINITY, f32::NAN, f32::NEG_INFINITY] {
            let v = fed[rng.random_range(0..fed.len())];
            csr.weights[rng.random_range(csr.offsets[v]..csr.offsets[v + 1])] = bad;
        }
        let v = fed[rng.random_range(0..fed.len())];
        g.set(v, rng.random_range(0..d), f32::NAN);
        let want = naive_agg_t(&g, &csr, Some(&csr.weights), n_src);
        assert!(
            want.iter().any(|x| x.is_nan()),
            "a non-finite term reaches the result"
        );
        check_agg_t(
            &g,
            &csr,
            n_src,
            &format!("{n_dst}->{n_src} x{d} non-finite"),
        );
    });
}

#[test]
fn tape_counts_the_rows_it_skips_at_every_thread_count() {
    // `agg = A·x` then `y = agg·W`, seeded with a gradient whose rows in
    // `zero` are ±0.0: `dW = aggᵀ·dy` skips those rows, and so does the
    // aggregation adjoint, whose input `dy·Wᵀ` is zero on the same rows.
    let _g = serial();
    check_cases(0..8, |rng| {
        let (n_dst, n_src) = (rng.random_range(1..200usize), rng.random_range(1..200usize));
        let (d, m) = (rng.random_range(1..40usize), rng.random_range(1..20usize));
        let csr = rand_csr(rng, n_dst, n_src);
        let zeros = rng.random_range(0..=n_dst);
        let (x0, w0) = (rand_tensor(rng, n_src, d), rand_tensor(rng, d, m));
        let seed = gradient(rng, n_dst, zeros, m).0;
        // A drawn row can come out all-zero too: count what is there.
        let zero_rows = |t: &Tensor| {
            (0..t.rows())
                .filter(|&r| t.row(r).iter().all(|&v| v == 0.0))
                .count()
        };
        let want = (zero_rows(&seed) + zero_rows(&seed.matmul_nt(&w0))) as u64;
        assert!(want >= 2 * zeros as u64);
        let mut runs = Vec::new();
        for &t in &THREADS {
            ns_par::set_threads(t);
            let mut tape = Tape::new();
            let (x, w) = (tape.leaf(x0.clone()), tape.leaf(w0.clone()));
            let weights = Some(Arc::from(&csr.weights[..]));
            let agg = tape.weighted_aggregate(
                x,
                Arc::from(&csr.edge_src[..]),
                Arc::from(&csr.offsets[..]),
                weights,
            );
            let y = tape.matmul(agg, w);
            tape.backward_from(y, seed.clone());
            assert_eq!(tape.zero_rows(), want, "{t} threads");
            runs.push((tape.grad(x).unwrap().clone(), tape.grad(w).unwrap().clone()));
        }
        ns_par::set_threads(1);
        assert!(
            runs.windows(2).all(|p| p[0] == p[1]),
            "gradients match across thread counts"
        );
    });
}

#[test]
fn pool_lengths_do_not_depend_on_the_zero_row_count() {
    // Panels keep their full-height length: a second product whose
    // gradient has a different number of zero rows (or only zero rows)
    // is served from the buffers the first one recycled.
    let _g = serial();
    let mut rng = StdRng::seed_from_u64(0x2E50);
    let (k, n, m) = (3 * KC + 7, 41, 29);
    let a = rand_tensor(&mut rng, k, n);
    let grads = [k / 10, k * 6 / 10, k].map(|zeros| gradient(&mut rng, k, zeros, m).0);
    drop(a.matmul_tn(&grads[0]));
    for g in &grads[1..] {
        let before = pool::stats();
        drop(a.matmul_tn(g));
        let after = pool::stats();
        assert_eq!(
            after.fresh, before.fresh,
            "a product took a length the pool had not seen"
        );
        assert!(
            after.reused >= before.reused + 2,
            "panels and output both come from the pool"
        );
    }
}
