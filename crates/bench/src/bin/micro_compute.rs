//! Microbenchmark of the intra-worker parallel compute backend (`ns-par`):
//! the register-tiled matmul, the fused CSR aggregation, the row gather,
//! the lock-free parallel message enqueue, and the NSF1 frame encode, each
//! timed at 1/2/4/8 compute threads.
//!
//! Writes `BENCH_compute.json` (override with `--out <path>`):
//!
//! ```text
//! {"schema":"bench-compute/v2",
//!  "cores":1,
//!  "results":[{"op":"matmul","size":"4096x256x256","threads":4,
//!              "ns_per_iter":...,"gflops":...,"bytes_per_s":...,
//!              "baseline_ns_per_iter":...}]}
//! ```
//!
//! `baseline_ns_per_iter` carries the committed bench-compute/v1 numbers
//! (recorded on the same 1-core reference box, pre-tiling), so every row's
//! speedup is self-describing; `cores` records the core count the run saw,
//! letting CI skip regression gating on differently-sized machines.
//! `--quick` shrinks the shapes and iteration counts for CI smoke runs.
//! Speedups across the `threads` axis are only meaningful on a machine
//! with that many physical cores; the kernels are bit-identical at every
//! thread count either way (see `ns-tensor/tests/par_parity.rs`), so the
//! numbers here are purely about wall clock.

use std::time::Instant;

use ns_metrics::obj;
use ns_net::wire;
use ns_net::{MessageKind, ParallelEnqueue};
use ns_rand::StdRng;
use ns_tensor::Tensor;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Committed bench-compute/v1 numbers (1-core reference box, naive
/// kernels): the denominators that make the regenerated file's speedups
/// self-describing. Ops added in v2 have no baseline.
const V1_BASELINE: [(&str, usize, u64); 12] = [
    ("matmul", 1, 40_778_023),
    ("matmul", 2, 38_241_696),
    ("matmul", 4, 36_573_332),
    ("matmul", 8, 37_508_439),
    ("csr_aggregate", 1, 11_146_744),
    ("csr_aggregate", 2, 11_203_398),
    ("csr_aggregate", 4, 8_618_276),
    ("csr_aggregate", 8, 9_562_962),
    ("enqueue", 1, 1_853_644),
    ("enqueue", 2, 1_790_254),
    ("enqueue", 4, 1_642_817),
    ("enqueue", 8, 1_604_861),
];

fn baseline_for(op: &str, threads: usize) -> Option<u64> {
    V1_BASELINE
        .iter()
        .find(|(o, t, _)| *o == op && *t == threads)
        .map(|&(_, _, ns)| ns)
}

fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.random_range(-1.0..1.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Times `f` over `iters` iterations (after one untimed warmup call) and
/// returns nanoseconds per iteration.
fn time_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() / iters as u128) as u64
}

struct Row {
    op: &'static str,
    size: String,
    threads: usize,
    ns_per_iter: u64,
    /// FLOPs one iteration performs (0 = pure data movement).
    flops: u64,
    /// Bytes one iteration moves (reads + writes of the payload data).
    bytes: u64,
}

impl Row {
    fn gflops(&self) -> Option<f64> {
        (self.flops > 0).then(|| self.flops as f64 / self.ns_per_iter.max(1) as f64)
    }

    fn bytes_per_s(&self) -> f64 {
        self.bytes as f64 * 1e9 / self.ns_per_iter.max(1) as f64
    }
}

fn main() {
    let mut quick = false;
    let mut out = "BENCH_compute.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("usage: micro_compute [--quick] [--out <path>] ({other:?}?)");
                std::process::exit(2);
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(42);
    let mut rows: Vec<Row> = Vec::new();

    // Register-tiled dense matmul (the dominant per-layer kernel).
    let (n, k, m, mm_iters) = if quick { (512, 128, 128, 4) } else { (4096, 256, 256, 8) };
    let a = rand_tensor(&mut rng, n, k);
    let b = rand_tensor(&mut rng, k, m);
    let mm_size = format!("{n}x{k}x{m}");
    let mm_flops = 2 * (n * k * m) as u64;
    let mm_bytes = 4 * (n * k + k * m + n * m) as u64;

    // Fused CSR aggregation (weighted sum over a fixed-degree edge list).
    let (n_dst, deg, d, agg_iters) = if quick { (4096, 4, 32, 8) } else { (32768, 8, 64, 16) };
    let feats = rand_tensor(&mut rng, n_dst, d);
    let mut offsets = Vec::with_capacity(n_dst + 1);
    offsets.push(0usize);
    let mut edge_src = Vec::with_capacity(n_dst * deg);
    for _ in 0..n_dst {
        for _ in 0..deg {
            edge_src.push(rng.random_range(0..n_dst as u32));
        }
        offsets.push(edge_src.len());
    }
    let weights: Vec<f32> = (0..edge_src.len()).map(|_| rng.random_range(0.1..1.0)).collect();
    let agg_size = format!("{n_dst}v x{deg}deg x{d}");
    let edges = edge_src.len() as u64;
    let agg_flops = 2 * edges * d as u64;
    let agg_bytes = 4 * (edges * d as u64 + (n_dst * d) as u64) + 8 * edges;

    // Row gather (dependency-row assembly on both ends of the exchange).
    let (g_rows, g_cols, g_iters) = if quick { (4096, 32, 8) } else { (32768, 64, 16) };
    let g_src = rand_tensor(&mut rng, g_rows, g_cols);
    let g_idx: Vec<u32> = (0..g_rows).map(|_| rng.random_range(0..g_rows as u32)).collect();
    let gather_size = format!("{g_rows}r x{g_cols}");
    let gather_bytes = (g_idx.len() * g_cols * 8 + g_idx.len() * 4) as u64;

    // Lock-free parallel enqueue: gather rows of a feature block into
    // per-destination buffers through disjoint windows, staging storage served by the tensor
    // pool and recycled after the send — the exact production send path
    // of `ns-runtime` (the warmup iteration populates the pool, so
    // measured iterations run at the zero-alloc steady state).
    let (dests, slots, cols, enq_iters) = if quick { (4, 1024, 32, 8) } else { (4, 8192, 64, 16) };
    let total = dests * slots;
    let src = rand_tensor(&mut rng, total, cols);
    let per_dest: Vec<Vec<u32>> = (0..dests)
        .map(|dst| (0..slots).map(|i| ((i * dests + dst) % total) as u32).collect())
        .collect();
    let slot_counts: Vec<usize> = vec![slots; dests];
    let enq_size = format!("{dests}dst x{slots} x{cols}");
    let enq_bytes = (total * cols * 8) as u64;

    // NSF1 frame encode, the wire format's reference codec: header reserved
    // up front, payload staged in and checksummed block by block, CRC patched.
    let (enc_rows, enc_cols, enc_iters) = if quick { (512, 32, 16) } else { (4096, 64, 32) };
    let enc_kind = MessageKind::Rows {
        layer: 1,
        ids: (0..enc_rows as u32).collect(),
        cols: enc_cols as u32,
        data: (0..enc_rows * enc_cols).map(|_| rng.random_range(-1.0f32..1.0)).collect(),
    };
    let mut enc_buf = Vec::new();
    wire::encode_frame_into(&enc_kind, &mut enc_buf);
    let enc_size = format!("{enc_rows}r x{enc_cols}");
    let enc_bytes = enc_buf.len() as u64;

    for &t in &THREAD_COUNTS {
        ns_par::set_threads(t);
        let threads = ns_par::threads();

        rows.push(Row {
            op: "matmul",
            size: mm_size.clone(),
            threads,
            ns_per_iter: time_ns(mm_iters, || {
                std::hint::black_box(a.matmul(&b));
            }),
            flops: mm_flops,
            bytes: mm_bytes,
        });
        rows.push(Row {
            op: "csr_aggregate",
            size: agg_size.clone(),
            threads,
            ns_per_iter: time_ns(agg_iters, || {
                std::hint::black_box(feats.weighted_aggregate(
                    &edge_src,
                    &offsets,
                    Some(&weights),
                ));
            }),
            flops: agg_flops,
            bytes: agg_bytes,
        });
        rows.push(Row {
            op: "gather_rows",
            size: gather_size.clone(),
            threads,
            ns_per_iter: time_ns(g_iters, || {
                std::hint::black_box(g_src.gather_rows(&g_idx));
            }),
            flops: 0,
            bytes: gather_bytes,
        });
        rows.push(Row {
            op: "enqueue",
            size: enq_size.clone(),
            threads,
            ns_per_iter: time_ns(enq_iters, || {
                let views: Vec<&[u32]> = per_dest.iter().map(|r| &r[..]).collect();
                let mut enq =
                    ParallelEnqueue::new_with(cols, &slot_counts, ns_tensor::pool::take_scratch);
                enq.fill(src.data(), &views);
                for d in 0..dests {
                    ns_tensor::pool::recycle(enq.take(d));
                }
                std::hint::black_box(&enq);
            }),
            flops: 0,
            bytes: enq_bytes,
        });
        rows.push(Row {
            op: "encode_frame",
            size: enc_size.clone(),
            threads,
            ns_per_iter: time_ns(enc_iters, || {
                wire::encode_frame_into(&enc_kind, &mut enc_buf);
                std::hint::black_box(&enc_buf);
            }),
            flops: 0,
            bytes: enc_bytes,
        });
    }
    ns_par::set_threads(0);

    println!(
        "{:<14} {:<16} {:>7} {:>14} {:>8} {:>8} {:>9}",
        "op", "size", "threads", "ns/iter", "GFLOP/s", "GB/s", "vs v1"
    );
    for r in &rows {
        let gf = r.gflops().map_or("-".into(), |g| format!("{g:.1}"));
        let vs = baseline_for(r.op, r.threads)
            .map_or("-".into(), |b| format!("{:.2}x", b as f64 / r.ns_per_iter.max(1) as f64));
        println!(
            "{:<14} {:<16} {:>7} {:>14} {:>8} {:>8.2} {:>9}",
            r.op,
            r.size,
            r.threads,
            r.ns_per_iter,
            gf,
            r.bytes_per_s() / 1e9,
            vs,
        );
    }

    let results: Vec<_> = rows
        .iter()
        .map(|r| {
            obj! {
                "op": r.op,
                "size": r.size.clone(),
                "threads": r.threads,
                "ns_per_iter": r.ns_per_iter,
                "gflops": r.gflops(),
                "bytes_per_s": r.bytes_per_s(),
                "baseline_ns_per_iter": baseline_for(r.op, r.threads),
            }
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let doc = obj! { "schema": "bench-compute/v2", "cores": cores, "results": results };
    std::fs::write(&out, doc.pretty())
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("[saved {out}]");
}
