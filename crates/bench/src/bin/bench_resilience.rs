//! Microbenchmark of the resource-robustness layer: what the
//! degrade-don't-die policies cost when nothing is wrong, and what they
//! charge when a fault is active.
//!
//! Rows:
//! - `save_clean`          durable generation save, healthy disk
//! - `save_enospc_squeeze` save through a disk-full window (retention
//!                         squeeze + retry)
//! - `save_slowdisk_2x`    save with an injected 2× fsync factor
//! - `pool_uncapped`       take/recycle churn with pool headroom
//! - `pool_capped`         the same churn under a budget that forces
//!                         shedding on every cycle
//!
//! Writes `BENCH_resilience.json` (override with `--out <path>`):
//!
//! ```text
//! {"schema":"bench-resilience/v1",
//!  "results":[{"op":"save_clean","ns_per_iter":...,"iters":...}]}
//! ```
//!
//! The interesting deltas are `save_enospc_squeeze / save_clean` (the
//! one-off price of surviving a full disk) and `pool_capped /
//! pool_uncapped` (the steady-state price of living at the budget).
//! `--quick` shrinks iteration counts for CI smoke runs.

use std::time::Instant;

use ns_metrics::obj;
use ns_runtime::{Checkpoint, CheckpointStore};
use ns_tensor::{pool, ParamStore, Tensor};

fn timed<F: FnMut()>(iters: usize, mut f: F) -> u64 {
    // One untimed warmup so first-touch costs (directory creation,
    // pool population) don't land in the measurement.
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    (t0.elapsed().as_nanos() as u64) / iters.max(1) as u64
}

fn checkpoint(params: usize) -> Checkpoint {
    let mut store = ParamStore::new();
    for i in 0..4 {
        let n = params / 4;
        store.register(
            &format!("p{i}"),
            Tensor::from_vec(n / 64, 64, vec![0.125 * (i + 1) as f32; n]),
        );
    }
    Checkpoint::capture(1, &store, None)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_resilience.json".to_string());

    let save_iters = if quick { 20 } else { 200 };
    let pool_iters = if quick { 2_000 } else { 50_000 };
    let params = 64 * 1024; // 256 KiB of parameters per generation
    let ckpt = checkpoint(params);
    let dir = std::env::temp_dir().join(format!("nts-bench-resilience-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut results = Vec::new();
    let mut row = |op: &str, ns: u64, iters: usize| {
        println!("{op:<22} {ns:>12} ns/iter");
        results.push(obj! {"op": op, "ns_per_iter": ns, "iters": iters});
    };

    {
        let mut st = CheckpointStore::open(&dir, 3).expect("open store");
        let ns = timed(save_iters, || {
            st.save(&ckpt, 4).expect("clean save");
        });
        row("save_clean", ns, save_iters);
    }
    {
        let mut st = CheckpointStore::open(&dir, 3).expect("open store");
        let ns = timed(save_iters, || {
            // Arm a fresh disk-full each iteration: every save pays the
            // full ENOSPC → squeeze → retry chain.
            st.set_disk_fate(true, 1.0);
            st.save_degrading(&ckpt, 4).expect("degrading save");
        });
        row("save_enospc_squeeze", ns, save_iters);
    }
    {
        let mut st = CheckpointStore::open(&dir, 3).expect("open store");
        st.set_disk_fate(false, 2.0);
        let ns = timed(save_iters, || {
            st.save(&ckpt, 4).expect("slow save");
        });
        row("save_slowdisk_2x", ns, save_iters);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let churn = || {
        // Shape-stationary take/recycle cycle: two live scratch buffers,
        // both returned — the steady state the trainer runs in.
        let a = pool::take_scratch(8 * 1024);
        let b = pool::take_scratch(2 * 1024);
        pool::recycle(a);
        pool::recycle(b);
    };
    {
        pool::set_cap_bytes(pool::default_cap_bytes());
        let ns = timed(pool_iters, churn);
        row("pool_uncapped", ns, pool_iters);
    }
    {
        // Budget below one cycle's parked footprint: every recycle
        // overshoots and the next take sheds.
        pool::set_cap_bytes(8 * 1024);
        let ns = timed(pool_iters, churn);
        pool::set_cap_bytes(pool::default_cap_bytes());
        row("pool_capped", ns, pool_iters);
    }

    let doc = obj! {"schema": "bench-resilience/v1", "results": results};
    std::fs::write(&out, doc.pretty()).expect("write report");
    println!("wrote {out}");
}
