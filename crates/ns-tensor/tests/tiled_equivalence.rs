//! Exact equivalence of the blocked matmul family against a naive
//! triple-loop reference.
//!
//! The one GEMM of `tensor.rs` (k-blocks of KC, row blocks of MC, MR x NR
//! accumulator tiles over packed, zero-padded B panels, or over B's own
//! rows for a product of few rows) promises
//! *bit-identical* results to the textbook `i-j-k` loop: blocking regroups
//! which output elements a step computes and parks partial sums in the
//! output between k-blocks, never changing the per-element ascending-`k`
//! accumulation order, and each step is one `mul_add` (IEEE fused
//! multiply-add, rounded once), as in the reference; rustc reassociates
//! nothing. These tests pin that promise across odd/prime/tail-heavy
//! shapes in `1..=64` — every combination of full MR-row groups, row
//! tails, full NR-column panels, and column tails — and across every
//! KC / MC / NR block boundary.

use ns_tensor::tensor::{IN_PLACE_ROWS, KC, MC, NR};
use ns_tensor::Tensor;
use ns_rand::StdRng;

/// Naive reference: `out[i][j] = sum_k a[i][k] * b[k][j]`, `k` ascending,
/// one fused multiply-add per step — the exact per-element sequence the
/// tiled kernel must reproduce.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (n, k) = (a.rows(), a.cols());
    let m = b.cols();
    assert_eq!(b.rows(), k);
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = ad[i * k + kk].mul_add(bd[kk * m + j], acc);
            }
            out[i * m + j] = acc;
        }
    }
    out
}

fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            // Exact zeros and negative zeros included: the kernels have no
            // zero-skip, so ±0.0 must flow through arithmetic unchanged.
            match rng.random_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.random_range(-2.0..2.0f32),
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Element-by-element transpose, sharing no code with `Tensor::transpose`
/// or the kernel's packing.
fn transposed(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(t.cols(), t.rows());
    for r in 0..t.rows() {
        for c in 0..t.cols() {
            out.set(c, r, t.get(r, c));
        }
    }
    out
}

/// Odd, prime, and tile-boundary shape values in `1..=64`: around the
/// MR (4) tile height, the NR (16) tile width and one AVX2 register (8),
/// primes that never divide either, and the extremes.
const SHAPES: [usize; 14] = [1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 17, 31, 37, 64];

/// The three products that must all reproduce `a @ b`: `matmul_tn` and
/// `matmul_nt` are fed the transposed operand.
fn family(a: &Tensor, b: &Tensor) -> [(&'static str, Tensor); 3] {
    [
        ("matmul", a.matmul(b)),
        ("matmul_tn", transposed(a).matmul_tn(b)),
        ("matmul_nt", a.matmul_nt(&transposed(b))),
    ]
}

fn check_triple(rng: &mut StdRng, n: usize, k: usize, m: usize) {
    let a = rand_tensor(rng, n, k);
    let b = rand_tensor(rng, k, m);
    let reference = naive_matmul(&a, &b);
    for (name, got) in family(&a, &b) {
        assert_eq!(got.data(), &reference[..], "{name} {n}x{k}x{m}");
    }
}

#[test]
fn tiled_matmul_family_equals_naive_reference_on_odd_prime_shapes() {
    ns_par::set_threads(1);
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for &n in &SHAPES {
        for &k in &SHAPES {
            for &m in &SHAPES {
                check_triple(&mut rng, n, k, m);
            }
        }
    }
}

#[test]
fn tiled_matmul_family_equals_naive_reference_on_random_shapes() {
    ns_par::set_threads(1);
    let mut rng = StdRng::seed_from_u64(0xBEE5);
    for _ in 0..40 {
        let n = rng.random_range(1..=64usize);
        let k = rng.random_range(1..=64usize);
        let m = rng.random_range(1..=64usize);
        check_triple(&mut rng, n, k, m);
    }
}

#[test]
fn blocked_gemm_equals_naive_reference_across_block_boundaries() {
    ns_par::set_threads(1);
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for k in [KC - 1, KC, KC + 1, 2 * KC + 3] {
        for n in [1, 3, 4, 5, MC - 1, MC, MC + 1, 2 * MC + 2] {
            for m in [1, 7, NR - 1, NR, NR + 1, 2 * NR - 1, 2 * NR + 1] {
                check_triple(&mut rng, n, k, m);
            }
        }
    }
}

#[test]
fn every_product_fuses_its_multiply_add() {
    // `x = 1 + 2⁻¹²`, `c = -(1 + 2⁻¹¹)`: each output is `c` then `+ x·x`.
    // Rounded once, `x·x + c` is exactly 2⁻²⁴; rounding `x·x` first gives
    // `1 + 2⁻¹¹` and the sum 0. One row reads B in place, 17 pack it.
    ns_par::set_threads(1);
    let (x, c) = (1.0 + 2f32.powi(-12), -(1.0 + 2f32.powi(-11)));
    assert_eq!(x * x + c, 0.0, "the unfused sum cancels");
    for (n, m) in [(1, NR), (IN_PLACE_ROWS + 1, NR + 1)] {
        let a = Tensor::from_vec(n, 2, [1.0, x].repeat(n));
        let b = Tensor::from_vec(2, m, [vec![c; m], vec![x; m]].concat());
        assert_eq!(naive_matmul(&a, &b), vec![2f32.powi(-24); n * m]);
        for (name, got) in family(&a, &b) {
            assert_eq!(
                got.data(),
                &vec![2f32.powi(-24); n * m][..],
                "{name} {n}x2x{m}"
            );
        }
    }
}

#[test]
fn padding_lanes_never_leak() {
    // A row tail, a column tail and two k-blocks, with an `inf` and a
    // `NaN` in `a`: `inf * 0` in a zero-padded lane is a NaN that must
    // stay there. Every real column equals the naive result bit for bit
    // (any NaN for a NaN).
    ns_par::set_threads(1);
    let mut rng = StdRng::seed_from_u64(0x1EAF);
    let (n, k, m) = (6, KC + 3, NR + 3);
    let mut a = rand_tensor(&mut rng, n, k);
    a.set(1, 2, f32::INFINITY);
    a.set(n - 1, k - 1, f32::NAN);
    let b = rand_tensor(&mut rng, k, m);
    let reference = naive_matmul(&a, &b);
    assert!(
        reference[..m].iter().all(|v| v.is_finite()),
        "row 0 has no inf/NaN operand"
    );
    assert!(reference[m..2 * m].iter().any(|v| !v.is_finite()));
    for (name, got) in family(&a, &b) {
        assert_eq!(got.shape(), (n, m));
        for (i, (x, y)) in got.data().iter().zip(&reference).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            assert!(same, "{name} [{}, {}]: {x} vs naive {y}", i / m, i % m);
        }
    }
}

#[test]
fn tiled_matmul_equals_naive_reference_above_parallel_threshold() {
    // Shapes big enough that par_rows fans out; the reference must still
    // match exactly at every thread count (row blocks never change the
    // per-element k order) — once inside one k-block, once through three.
    let mut rng = StdRng::seed_from_u64(0xD15C);
    for k in [53, 2 * KC + 5] {
        let a = rand_tensor(&mut rng, 97, k);
        let b = rand_tensor(&mut rng, k, 61);
        let reference = naive_matmul(&a, &b);
        for threads in [1usize, 2, 3, 4, 8] {
            ns_par::set_threads(threads);
            for (name, got) in family(&a, &b) {
                assert_eq!(
                    got.data(),
                    &reference[..],
                    "{name} k={k}, {threads} threads"
                );
            }
        }
    }
    ns_par::set_threads(1);
}

#[test]
fn few_row_matmul_reads_b_in_place_exactly() {
    // Up to IN_PLACE_ROWS rows, `matmul` takes B's full-width strips from
    // B itself and packs only the column tail; one row past it, it packs
    // everything. Both sides of the limit, one k-block and three, widths
    // with no full strip, a tail, and none, up to 8 threads (1433 x 128
    // clears the parallel threshold even at one row).
    let mut rng = StdRng::seed_from_u64(0x1A9E);
    for n in [1, 3, IN_PLACE_ROWS, IN_PLACE_ROWS + 1] {
        for k in [1433, 2 * KC + 5] {
            for m in [7, 61, 128] {
                let a = rand_tensor(&mut rng, n, k);
                let b = rand_tensor(&mut rng, k, m);
                let reference = naive_matmul(&a, &b);
                for threads in [1usize, 2, 4, 8] {
                    ns_par::set_threads(threads);
                    let got = a.matmul(&b);
                    assert_eq!(got.data(), &reference[..], "{n}x{k}x{m}, {threads} threads");
                }
            }
        }
    }
    ns_par::set_threads(1);
}
