//! Bit-identity of the parallel tensor kernels across thread counts.
//!
//! Every hot kernel is partitioned by destination row (DESIGN.md §11), so
//! the floating-point accumulation order per output element is the same
//! at any thread count — the register-tiled matmuls and column-tiled
//! aggregation only regroup *which* output elements a step computes,
//! never the per-element `k`/edge order. These property-style tests draw
//! random shapes, contents (including exact zeros), and edge structures,
//! and assert *exact* equality — not tolerance — between 1-thread and
//! multi-thread runs. The chaos harness and the `--threads` trainer
//! parity suite both lean on this guarantee.

use ns_tensor::tensor::KC;
use ns_tensor::Tensor;
use ns_rand::StdRng;

const TRIALS: u64 = 12;
const THREAD_COUNTS: [usize; 4] = [2, 3, 4, 8];

fn rand_f32(rng: &mut StdRng) -> f32 {
    // Mix in exact zeros so signed-zero handling is exercised.
    let v: f32 = rng.random_range(-2.0..2.0);
    if rng.random_range(0..8) == 0 {
        0.0
    } else {
        v
    }
}

fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rand_f32(rng)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// A random CSR edge structure: `n_dst + 1` offsets plus per-edge sources
/// into `0..n_src` and per-edge weights, each degree drawn from `deg`.
fn rand_csr(
    rng: &mut StdRng,
    n_dst: usize,
    n_src: usize,
    deg: std::ops::Range<usize>,
) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
    let mut offsets = Vec::with_capacity(n_dst + 1);
    offsets.push(0usize);
    let mut edge_src = Vec::new();
    let mut weights = Vec::new();
    for _ in 0..n_dst {
        let deg = rng.random_range(deg.clone());
        for _ in 0..deg {
            edge_src.push(rng.random_range(0..n_src) as u32);
            weights.push(rng.random_range(-1.0..1.0f32));
        }
        offsets.push(edge_src.len());
    }
    (offsets, edge_src, weights)
}

/// `ns_par::set_threads` is process-global and one pool job runs at a
/// time; tests that sweep thread counts must not interleave.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` once per configured thread count and asserts every run's
/// output equals the 1-thread baseline bit for bit. Returns how many of
/// the multi-thread runs' jobs reached the pool instead of running inline.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) -> u64 {
    let _g = serial();
    ns_par::set_threads(1);
    let base = f();
    let mut pooled = 0;
    for &t in &THREAD_COUNTS {
        ns_par::set_threads(t);
        let _ = ns_par::take_thread_stats();
        let got = f();
        let st = ns_par::take_thread_stats();
        pooled += st.jobs - st.inline_jobs;
        assert_eq!(got, base, "{label}: {t}-thread run diverged from 1-thread");
    }
    ns_par::set_threads(1);
    pooled
}

fn assert_matmul_family_thread_invariant(rng: &mut StdRng, n: usize, k: usize, m: usize) {
    let a = rand_tensor(rng, n, k);
    let b = rand_tensor(rng, k, m);
    let at = rand_tensor(rng, k, n);
    let bt = rand_tensor(rng, m, k);
    assert_thread_invariant("matmul", || a.matmul(&b).into_vec());
    assert_thread_invariant("matmul_tn", || at.matmul_tn(&b).into_vec());
    assert_thread_invariant("matmul_nt", || a.matmul_nt(&bt).into_vec());
}

#[test]
fn matmul_family_is_bit_identical_across_thread_counts() {
    for seed in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(seed);
        // Above the parallel threshold (n*k*m >= 2^15) in most draws,
        // below it in some — both dispatch paths must agree.
        let n = rng.random_range(1..80usize);
        let k = rng.random_range(1..48usize);
        let m = rng.random_range(1..48usize);
        assert_matmul_family_thread_invariant(&mut rng, n, k, m);
    }
    // The draws stop short of one k-block: a fixed shape above the
    // threshold that spans three.
    let mut rng = StdRng::seed_from_u64(TRIALS);
    assert_matmul_family_thread_invariant(&mut rng, 97, 2 * KC + 5, 61);
}

#[test]
fn a_few_row_product_stays_on_one_thread_and_a_tall_one_fans_out() {
    let mut rng = StdRng::seed_from_u64(11);
    // 3 rows cannot give each of two threads a full MR-row tile; the
    // work alone (3 x 512 x 64) clears the parallel threshold.
    let few = rand_tensor(&mut rng, 3, 512);
    let w = rand_tensor(&mut rng, 512, 64);
    let tall = rand_tensor(&mut rng, 64, 512);
    let _g = serial();
    ns_par::set_threads(2);
    let _ = ns_par::take_thread_stats();
    let _ = few.matmul(&w);
    let st = ns_par::take_thread_stats();
    assert_eq!(st.jobs, 0, "a 3-row product started a pool job: {st:?}");
    let _ = tall.matmul(&w);
    let st = ns_par::take_thread_stats();
    assert_eq!(st.jobs, 1, "a 64-row product must fan out: {st:?}");
    ns_par::set_threads(1);
}

#[test]
fn matmul_tn_nt_still_match_explicit_transpose_when_parallel() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = rand_tensor(&mut rng, 96, 40);
    let b = rand_tensor(&mut rng, 96, 36);
    let c = rand_tensor(&mut rng, 33, 40);
    let _g = serial();
    ns_par::set_threads(4);
    assert_eq!(a.matmul_tn(&b).data(), a.transpose().matmul(&b).data());
    assert_eq!(c.matmul_nt(&a).data(), c.matmul(&a.transpose()).data());
    ns_par::set_threads(1);
}

#[test]
fn gather_scatter_are_bit_identical_across_thread_counts() {
    for seed in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let rows = rng.random_range(1..300usize);
        let cols = rng.random_range(1..40usize);
        let x = rand_tensor(&mut rng, rows, cols);
        let n_idx = rng.random_range(1..400usize);
        let idx: Vec<u32> = (0..n_idx)
            .map(|_| rng.random_range(0..rows) as u32)
            .collect();
        assert_thread_invariant("gather_rows", || x.gather_rows(&idx).into_vec());
        let g = x.gather_rows(&idx);
        // Duplicate destinations force multi-contribution rows, the case
        // where accumulation order matters.
        assert_thread_invariant("scatter_add_rows", || {
            g.scatter_add_rows(&idx, rows).into_vec()
        });
    }
}

/// Asserts the CSR aggregators' thread invariance on one random graph;
/// returns [`assert_thread_invariant`]'s pooled-job count for
/// `max_aggregate`.
fn assert_csr_family_thread_invariant(
    rng: &mut StdRng,
    n_src: usize,
    n_dst: usize,
    cols: usize,
    deg: std::ops::Range<usize>,
) -> u64 {
    let x = rand_tensor(rng, n_src, cols);
    let (offsets, edge_src, weights) = rand_csr(rng, n_dst, n_src, deg);
    assert_thread_invariant("weighted_aggregate(unweighted)", || {
        x.weighted_aggregate(&edge_src, &offsets, None).into_vec()
    });
    assert_thread_invariant("weighted_aggregate(weighted)", || {
        x.weighted_aggregate(&edge_src, &offsets, Some(&weights))
            .into_vec()
    });
    let grad = rand_tensor(rng, n_dst, cols);
    assert_thread_invariant("weighted_aggregate_transpose", || {
        grad.weighted_aggregate_transpose(&edge_src, &offsets, Some(&weights), n_src)
            .into_vec()
    });
    assert_thread_invariant("max_aggregate", || {
        let (t, arg) = x.max_aggregate(&edge_src, &offsets);
        (t.into_vec(), arg)
    })
}

#[test]
fn csr_aggregation_is_bit_identical_across_thread_counts() {
    for seed in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let n_src = rng.random_range(1..200usize);
        let n_dst = rng.random_range(1..200usize);
        let cols = rng.random_range(1..40usize);
        // Degree 0 included: empty segments must behave identically too.
        assert_csr_family_thread_invariant(&mut rng, n_src, n_dst, cols, 0..7);
    }
    // The draws stay under the parallel threshold for `max_aggregate`: a
    // fixed shape above it, which must reach the pool.
    let mut rng = StdRng::seed_from_u64(2000 + TRIALS);
    let pooled = assert_csr_family_thread_invariant(&mut rng, 2048, 2048, 32, 4..9);
    assert!(pooled > 0, "max_aggregate never left the inline path");
}
