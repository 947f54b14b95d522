//! Serving benchmark: open-loop latency/throughput sweep over the
//! `nts serve` deployment, plus a shard-loss fault run proving graceful
//! degradation (answers slow down, nothing is dropped).
//!
//! The pipeline is the full operator path: train a model with a durable
//! checkpoint store, load the newest generation back through
//! `CheckpointStore::load_latest`, stand up the sharded deployment, and
//! drive it with the seeded open-loop generator at a ladder of offered
//! rates. Latency is measured from each query's *scheduled* arrival
//! (coordinated-omission-free), so queueing delay at saturation shows up
//! in the percentiles instead of silently stretching the schedule.
//!
//! Writes `BENCH_serve.json` (override with `--out <path>`):
//!
//! ```text
//! {"schema":"bench-serve/v1",
//!  "dataset":"cora","queries_per_rate":10000,
//!  "runs":[{"rate_qps":500.0,"answered":...,"p50_us":...,"p999_us":...}],
//!  "saturation_qps":...,
//!  "fault_run":{"killed_shard":2,"dropped":0,"reroutes":...},
//!  "flap_run":{"fault":"flap:w1-w2:400ms:0.5","hedge_wins":...,"dropped":0}}
//! ```
//!
//! `--quick` shrinks query counts and the rate ladder for CI smoke runs.
//! Absolute latencies depend on the host; the assertable invariants are
//! zero rejects at the lowest rate, zero drops everywhere, and a finite
//! p999 at every rung.

use std::time::Instant;

use neutronstar::TrainingSession;
use ns_gnn::{GnnModel, ModelKind};
use ns_graph::datasets::by_name;
use ns_metrics::json::Json;
use ns_metrics::obj;
use ns_net::fault::FaultPlan;
use ns_runtime::serve::load::OpenLoop;
use ns_runtime::serve::ServeReport;
use ns_runtime::{CheckpointStore, RecoveryConfig, ServeConfig, ServeDeployment};

const SEED: u64 = 42;
const DATASET: &str = "cora";
const SCALE: f64 = 0.2;
const SHARDS: usize = 2;
const TRAIN_EPOCHS: usize = 4;

fn run_json(rate_qps: f64, r: &ServeReport) -> Json {
    obj! {
        "rate_qps": rate_qps,
        "queries": r.offered,
        "answered": r.answers.len(),
        "rejects": r.rejected,
        "dropped": r.dropped,
        "achieved_qps": r.achieved_qps,
        "p50_us": r.percentile_us(50.0),
        "p99_us": r.percentile_us(99.0),
        "p999_us": r.percentile_us(99.9),
        "cache_hit_ratio": r.cache_hit_ratio(),
        "shard_deaths": r.shard_deaths,
        "reroutes": r.reroutes,
        "hedge_issued": r.metrics.total_counter("serve.hedge.issued"),
        "hedge_wins": r.metrics.total_counter("serve.hedge.wins"),
        "fetch_fallback_rows": r.metrics.total_counter("serve.rows.fallback"),
    }
}

fn main() {
    let mut quick = false;
    let mut out = "BENCH_serve.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("usage: bench_serve [--quick] [--out <path>] ({other:?}?)");
                std::process::exit(2);
            }
        }
    }
    let (queries, rates): (usize, &[f64]) = if quick {
        (1_000, &[500.0, 2_000.0])
    } else {
        (10_000, &[500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0])
    };

    // ---- train a checkpoint through the durable store ------------------
    let ds = by_name(DATASET).expect("registry dataset").materialize(SCALE, SEED);
    let model = GnnModel::two_layer(
        ModelKind::Gcn,
        ds.feature_dim(),
        ds.hidden_dim,
        ds.num_classes,
        SEED,
    );
    let ckpt_dir = std::env::temp_dir()
        .join(format!("bench-serve-{}-{}", SEED, std::process::id()));
    let t0 = Instant::now();
    let session = TrainingSession::builder()
        .recovery(RecoveryConfig::every(2))
        .checkpoint_dir(&ckpt_dir)
        .build(&ds, &model)
        .expect("build session");
    session.train(TRAIN_EPOCHS).expect("train");
    println!(
        "trained {DATASET} x{} for {TRAIN_EPOCHS} epochs in {:.1}s, store at {}",
        ds.graph.num_vertices(),
        t0.elapsed().as_secs_f64(),
        ckpt_dir.display()
    );

    // ---- load it back the way an operator would ------------------------
    let store = CheckpointStore::open(&ckpt_dir, 3).expect("open store");
    let loaded = store.load_latest();
    let ckpt = loaded.checkpoint.expect("an intact generation");
    let (params, _) = ckpt.restore().expect("restore");
    let params = params.expect("trained parameters");

    let cfg = |fault: FaultPlan| ServeConfig {
        shards: SHARDS,
        fault,
        ..ServeConfig::default()
    };

    // ---- rate sweep ----------------------------------------------------
    let mut runs = Vec::new();
    let mut saturation_qps = 0.0f64;
    println!(
        "{:>9} {:>9} {:>8} {:>8} {:>10} {:>10} {:>10} {:>7}",
        "rate", "answered", "rejects", "dropped", "p50_us", "p99_us", "p999_us", "hit%"
    );
    for &rate in rates {
        let deploy = ServeDeployment::new(&ds, &model, params.clone(), cfg(FaultPlan::default()))
            .expect("deployment");
        let load = OpenLoop { queries, rate_qps: rate, seed: SEED, zipf_s: 0.9 };
        let r = deploy.run_open_loop(&load).expect("serve run");
        assert_eq!(r.dropped, 0, "open-loop run dropped queries at {rate} qps");
        saturation_qps = saturation_qps.max(r.achieved_qps);
        println!(
            "{:>9.0} {:>9} {:>8} {:>8} {:>10} {:>10} {:>10} {:>6.1}%",
            rate,
            r.answers.len(),
            r.rejected,
            r.dropped,
            r.percentile_us(50.0),
            r.percentile_us(99.0),
            r.percentile_us(99.9),
            r.cache_hit_ratio() * 100.0,
        );
        runs.push(run_json(rate, &r));
    }

    // ---- shard-loss degradation run ------------------------------------
    // Kill the shard at endpoint 2 a quarter of the way through; its
    // in-flight queries reroute to the survivor and later queries route
    // around the hole. The invariant is zero drops, not zero slowdown.
    let killed_shard = 2usize;
    let fault_queries = queries.min(2_000);
    let mut plan = FaultPlan::default().with_seed(SEED);
    plan.push_spec(&format!("kill:w{killed_shard}@e{}", fault_queries / 4))
        .expect("fault spec");
    let mut fcfg = cfg(plan);
    fcfg.reply_timeout_ms = 150;
    let deploy =
        ServeDeployment::new(&ds, &model, params.clone(), fcfg).expect("deployment");
    let load =
        OpenLoop { queries: fault_queries, rate_qps: 1_000.0, seed: SEED, zipf_s: 0.9 };
    let fr = deploy.run_open_loop(&load).expect("fault run");
    assert_eq!(fr.dropped, 0, "shard loss dropped queries");
    assert_eq!(fr.shard_deaths, 1, "kill fault did not fire");
    println!(
        "fault run: killed shard {killed_shard} after qid {} | answered {} | \
         rerouted {} | dropped {} | p99 {} µs",
        fault_queries / 4,
        fr.answers.len(),
        fr.reroutes,
        fr.dropped,
        fr.percentile_us(99.0),
    );

    // ---- flapping-link degradation run ---------------------------------
    // Flap the shard-to-shard feature-fetch link (400ms period, down half
    // of each period). With the row cache disabled every batch needs a
    // remote fetch, so the hedged-fetch path is on the hot path: fetches
    // that land in a down-window hedge to the mirror copy and the mirror
    // wins. The invariants are zero drops and hedge wins > 0.
    let mut plan = FaultPlan::default().with_seed(SEED);
    plan.push_spec("flap:w1-w2:400ms:0.5").expect("fault spec");
    let mut lcfg = cfg(plan);
    lcfg.cache_rows = 0;
    let deploy =
        ServeDeployment::new(&ds, &model, params.clone(), lcfg).expect("deployment");
    let load =
        OpenLoop { queries: fault_queries, rate_qps: 1_000.0, seed: SEED, zipf_s: 0.9 };
    let lr = deploy.run_open_loop(&load).expect("flap run");
    let hedge_issued = lr.metrics.total_counter("serve.hedge.issued");
    let hedge_wins = lr.metrics.total_counter("serve.hedge.wins");
    let fallback_rows = lr.metrics.total_counter("serve.rows.fallback");
    assert_eq!(lr.dropped, 0, "flapping link dropped admitted queries");
    assert!(hedge_wins > 0, "no hedge beat the flapped link");
    println!(
        "flap run: w1-w2 flapping 400ms/0.5 | answered {} | hedges {hedge_issued} \
         issued / {hedge_wins} won | {fallback_rows} mirror rows | dropped {} | p99 {} µs",
        lr.answers.len(),
        lr.dropped,
        lr.percentile_us(99.0),
    );
    let flap_run = obj! {
        "fault": "flap:w1-w2:400ms:0.5",
        "rate_qps": 1_000.0,
        "queries": fault_queries,
        "answered": lr.answers.len(),
        "dropped": lr.dropped,
        "rejects": lr.rejected,
        "hedge_issued": hedge_issued,
        "hedge_wins": hedge_wins,
        "fetch_fallback_rows": fallback_rows,
        "p50_us": lr.percentile_us(50.0),
        "p99_us": lr.percentile_us(99.0),
        "p999_us": lr.percentile_us(99.9),
    };

    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let fault_run = obj! {
        "killed_shard": killed_shard,
        "kill_after_qid": fault_queries / 4,
        "rate_qps": 1_000.0,
        "queries": fault_queries,
        "answered": fr.answers.len(),
        "dropped": fr.dropped,
        "rejects": fr.rejected,
        "reroutes": fr.reroutes,
        "shard_deaths": fr.shard_deaths,
        "p50_us": fr.percentile_us(50.0),
        "p99_us": fr.percentile_us(99.0),
        "p999_us": fr.percentile_us(99.9),
    };
    let doc = obj! {
        "schema": "bench-serve/v1",
        "dataset": DATASET,
        "scale": SCALE,
        "shards": SHARDS,
        "zipf_s": 0.9,
        "seed": SEED,
        "queries_per_rate": queries,
        "runs": runs,
        "saturation_qps": saturation_qps,
        "fault_run": fault_run,
        "flap_run": flap_run,
    };
    std::fs::write(&out, doc.pretty())
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("[saved {out}]");
}
