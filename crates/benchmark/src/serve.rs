//! A serving workload: train the fixture into a durable store (untimed,
//! what `nts train --checkpoint-every 2 --ckpt-dir` leaves behind), then
//! rounds of serve runs: closed `batch` runs, an open-loop run at `R_ref`,
//! an open-loop run at `R_hi`. Before each run the deployment is stood up
//! from the store the way `nts serve` does (repeated, for the set-up
//! time); every answer is checked against full-graph inference.

use std::path::Path;

use neutronstar::TrainingSession;
use ns_graph::Dataset;
use ns_net::ClusterSpec;
use ns_runtime::serve::load::OpenLoop;
use ns_runtime::{
    CheckpointStore, RecoveryConfig, ServeConfig, ServeDeployment, ServeError, ServeReport,
};
use ns_tensor::ParamStore;

use crate::pipeline::{merged_histogram, Cx, RunResult};
use crate::probes;
use crate::spec::{
    ServeSpec, CHECKPOINT_EVERY, FIXTURE_EPOCHS, KEEP_GENERATIONS, MIN_HOT_HIT_RATIO,
    SERVE_SETUP_REPEATS, SHARDS, WARMUP_QUERY_SHARE, WORKERS,
};
use crate::stats;
use crate::trace::Tracer;

/// Trains the fixture through the trainer's own durable checkpoints.
/// Returns whether the store now holds it.
fn train_fixture(cx: &mut Cx, store_dir: &Path) -> bool {
    let trained = TrainingSession::builder()
        .cluster(ClusterSpec::aliyun_ecs(WORKERS))
        .threads(1)
        .recovery(RecoveryConfig::every(CHECKPOINT_EVERY))
        .checkpoint_dir(store_dir)
        .keep_checkpoints(KEEP_GENERATIONS)
        .build(cx.ds, cx.model)
        .and_then(|session| session.train(FIXTURE_EPOCHS));
    if let Err(e) = &trained {
        cx.out.ops_attempted += 1;
        cx.out.fail(format!("fixture training: {e}"));
    }
    // `nts train` and `nts serve` are separate processes; here one process
    // plays both, so the buffers training parked in the process-global
    // tensor pool are released at the handoff, as a process exit would.
    ns_tensor::pool::clear();
    trained.is_ok()
}

/// `CheckpointStore::open → load_latest → restore → ServeDeployment::new`,
/// one span each.
fn deploy<'a>(
    tr: &mut Tracer,
    ds: &'a Dataset,
    model: &'a ns_gnn::GnnModel,
    store_dir: &Path,
    cfg: &ServeConfig,
) -> Result<(ServeDeployment<'a>, ParamStore), String> {
    let (store, _) = tr.span("store.open", |_| {
        CheckpointStore::open(store_dir, KEEP_GENERATIONS)
    });
    let store = store.map_err(|e| e.to_string())?;
    let (loaded, _) = tr.span("store.load_latest", |_| store.load_latest());
    let ckpt = loaded
        .checkpoint
        .ok_or("fixture store holds no intact generation")?;
    let (restored, _) = tr.span("recovery.restore", |_| ckpt.restore());
    let params = restored
        .map_err(|e| e.to_string())?
        .0
        .ok_or("fixture checkpoint carries no parameters")?;
    let deployment =
        ServeDeployment::new(ds, model, params.clone(), cfg.clone()).map_err(|e| e.to_string())?;
    Ok((deployment, params))
}

/// The default configuration but for the reply deadline. No shard is ever
/// killed here, so all the default 250 ms can do is take a stall of the
/// shared host for a death: when both shards go silent that long the run
/// ends in `AllShardsLost` (seen once in ~2000 serve runs), and the
/// workloads may not fail an operation.
const REPLY_TIMEOUT_MS: u64 = 5_000;

fn serve_config(s: &ServeSpec) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        cache_rows: s.cache_rows,
        reply_timeout_ms: REPLY_TIMEOUT_MS,
        ..ServeConfig::default()
    }
}

pub fn run(cx: &mut Cx, s: &ServeSpec) -> std::io::Result<()> {
    let store_dir = cx.scratch.join("fixture-store");
    if !train_fixture(cx, &store_dir) {
        return Ok(());
    }
    let Some((params, reference)) = phases(cx, s, &store_dir) else {
        return Ok(());
    };
    cx.out.put(
        "tensor.pool_peak_mb",
        ns_tensor::pool::stats().peak_bytes as f64 / (1 << 20) as f64,
    );

    if cx.opts.traced {
        // A peer fetch ships the rows one batch misses, at feature width.
        let fetches: u64 = counter(&reference, "serve.fetch.requests");
        let rows: u64 = counter(&reference, "serve.rows.fetched");
        let shapes = probes::Shapes {
            khop_seeds: load(s, cx.opts.seed, 1_000, 1.0, 9).seeds(vertices(cx.ds)),
            msg_rows: rows.checked_div(fetches).map(|r| r as usize),
            msg_cols: cx.ds.feature_dim(),
        };
        probes::common(cx, &shapes, &params, FIXTURE_EPOCHS)?;
        probes::serve_only(cx, s);
    }
    Ok(())
}

fn vertices(ds: &Dataset) -> u32 {
    ds.graph.num_vertices() as u32
}

fn load(s: &ServeSpec, seed: u64, queries: usize, rate_qps: f64, salt: u64) -> OpenLoop {
    OpenLoop {
        queries,
        rate_qps,
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt,
        zipf_s: s.zipf_s,
    }
}

fn counter(reports: &[ServeReport], key: &str) -> u64 {
    reports.iter().map(|r| r.metrics.total_counter(key)).sum()
}

/// The post-warm-up latency sample of one or more serve runs, over
/// *offered* queries: a rejected or dropped query is a miss ranked above
/// every answer, valued at the longest run's wall time.
#[derive(Default)]
struct Latencies {
    answered_ms: Vec<f64>,
    offered: usize,
    miss_ms: f64,
}

impl Latencies {
    fn add(&mut self, report: &ServeReport, wall_s: f64) {
        let warm = (report.offered as f64 * WARMUP_QUERY_SHARE).ceil() as u32;
        self.answered_ms.extend(
            report
                .answers
                .iter()
                .filter(|a| a.qid >= warm)
                .map(|a| a.latency_us as f64 / 1e3),
        );
        self.offered += (report.offered as usize).saturating_sub(warm as usize);
        self.miss_ms = self.miss_ms.max(wall_s * 1e3);
    }

    fn percentile(&mut self, p: f64) -> f64 {
        stats::offered_percentile(&mut self.answered_ms, self.offered, p, self.miss_ms)
    }
}

/// Applies the serve oracle to one run's report.
fn check_run(phase: &str, report: &ServeReport, oracle: &[usize], out: &mut RunResult) {
    out.ops_attempted += report.offered;
    let answered = report.answers.len() as u64;
    if report.dropped != 0 {
        out.fail_n(
            report.dropped,
            format!(
                "{phase}: {} admitted queries were never answered",
                report.dropped
            ),
        );
    }
    if answered + report.rejected + report.dropped != report.offered {
        out.fail(format!(
            "{phase}: answered {answered} + rejected {} != offered {}",
            report.rejected, report.offered
        ));
    }
    if report.rejected > 0 {
        out.fail_n(
            report.rejected,
            format!(
                "{phase}: {} of {} queries rejected",
                report.rejected, report.offered
            ),
        );
    }
    let wrong = report
        .answers
        .iter()
        .filter(|a| {
            oracle
                .get(a.seed as usize)
                .is_none_or(|&c| c as u32 != a.class)
        })
        .count();
    if wrong > 0 {
        out.fail_n(
            wrong as u64,
            format!("{phase}: {wrong} answers differ from full-graph inference"),
        );
    }
}

/// What the serve runs of one benchmark run share.
struct Runs<'a, 'b> {
    ds: &'a Dataset,
    model: &'a ns_gnn::GnnModel,
    store_dir: &'b Path,
    cfg: ServeConfig,
    /// Every timed stand-up of the deployment so far.
    setups: Vec<f64>,
    /// The parameters the store deploys, and the class full-graph
    /// inference gives every vertex with them.
    oracle: Option<(ParamStore, Vec<usize>)>,
}

/// One serve run, standing for one `nts serve` process: stands the
/// deployment up from the store ([`SERVE_SETUP_REPEATS`] times, timed),
/// empties the tensor pool, times `drive` on the last deployment, and
/// applies the oracle.
fn serve_run(
    cx: &mut Cx,
    runs: &mut Runs,
    phase: &'static str,
    offered: usize,
    drive: impl FnOnce(&ServeDeployment) -> Result<ServeReport, ServeError>,
) -> Option<(ServeReport, f64)> {
    let mut deployed = None;
    for _ in 0..SERVE_SETUP_REPEATS {
        let (d, secs) = cx.tr.span("serve.deploy", |tr| {
            deploy(tr, runs.ds, runs.model, runs.store_dir, &runs.cfg)
        });
        runs.setups.push(secs);
        deployed = Some(d);
    }
    let ran = deployed
        .expect("SERVE_SETUP_REPEATS > 0")
        .map(|(deployment, params)| {
            if runs.oracle.is_none() {
                let (classes, infer_s) = cx.tr.span("gnn.infer", |_| {
                    ns_gnn::inference::infer(runs.ds, runs.model, &params).predictions
                });
                cx.out.put("gnn.infer_s", infer_s);
                runs.oracle = Some((params, classes));
            }
            ns_tensor::pool::clear();
            let (ran, wall_s) = cx.tr.span(phase, |_| drive(&deployment));
            let parked_mb = ns_tensor::pool::stats().resident_bytes as f64 / (1 << 20) as f64;
            let high = cx.out.notes.entry("pool_parked_mb_max").or_insert(0.0);
            *high = high.max(parked_mb);
            (ran.map_err(|e| e.to_string()), wall_s)
        });
    match ran {
        Ok((Ok(r), wall_s)) => {
            let oracle = &runs.oracle.as_ref().expect("set before the first drive").1;
            check_run(phase, &r, oracle, &mut cx.out);
            Some((r, wall_s))
        }
        Ok((Err(e), _)) | Err(e) => {
            cx.out.ops_attempted += offered as u64;
            cx.out.fail_n(offered as u64, format!("{phase}: {e}"));
            None
        }
    }
}

/// Drives the rounds of serve runs and folds their metrics. Returns the
/// deployed parameters and the reports of the `R_ref` runs.
fn phases(cx: &mut Cx, s: &ServeSpec, store_dir: &Path) -> Option<(ParamStore, Vec<ServeReport>)> {
    let seed = cx.opts.seed;
    let n = vertices(cx.ds);
    let mut runs = Runs {
        ds: cx.ds,
        model: cx.model,
        store_dir,
        cfg: serve_config(s),
        setups: Vec::new(),
        oracle: None,
    };
    let (mut qps, mut answers) = (Vec::new(), 0);
    let (mut ref_lat, mut hi_lat) = (Latencies::default(), Latencies::default());
    let mut ref_p50s = Vec::with_capacity(s.rounds);
    let mut reference = Vec::with_capacity(s.rounds);
    for round in 0..s.rounds as u64 {
        // -- batch: closed, patient; every seed answered, none rejected ------
        for i in 0..s.batch_runs as u64 {
            let salt = 100 + round * s.batch_runs as u64 + i;
            let seeds = load(s, seed, s.phase_queries, 1.0, salt).seeds(n);
            let ran = serve_run(cx, &mut runs, "serve.batch", seeds.len(), |d| {
                d.answer_all(&seeds)
            });
            if let Some((r, wall_s)) = ran {
                if r.answers.len() != seeds.len() {
                    cx.out.fail(format!(
                        "batch answered {} of {} seeds",
                        r.answers.len(),
                        seeds.len()
                    ));
                }
                qps.push(r.answers.len() as f64 / wall_s);
                answers += r.answers.len();
            }
        }
        // -- ref / hi: open loop at R_ref, then at R_hi -----------------------
        for (phase, rate, salt) in [
            ("serve.ref", s.rate_ref, 200 + round),
            ("serve.hi", s.rate_hi, 300 + round),
        ] {
            let load = load(s, seed, s.phase_queries, rate, salt);
            let ran = serve_run(cx, &mut runs, phase, load.queries, |d| {
                d.run_open_loop(&load)
            });
            match ran {
                Some((r, wall_s)) if phase == "serve.ref" => {
                    let mut own = Latencies::default();
                    own.add(&r, wall_s);
                    ref_p50s.push(own.percentile(50.0));
                    ref_lat.add(&r, wall_s);
                    reference.push(r);
                }
                Some((r, wall_s)) => hi_lat.add(&r, wall_s),
                None => {}
            }
        }
    }
    let setup_s = stats::lower_quartile(&runs.setups);
    cx.out.put_n("setup_s", setup_s, runs.setups.len());
    cx.out.put_n("serve.deploy_s", setup_s, runs.setups.len());
    if !qps.is_empty() {
        cx.out
            .put_n("serve_batch_qps", stats::median(&qps), answers);
    }
    if !reference.is_empty() {
        let n = ref_lat.answered_ms.len();
        cx.out.put_n("serve_p50_ms", ref_lat.percentile(50.0), n);
        // What the driver sees as `op_ms`: the median latency of an
        // undisturbed `R_ref` run.
        cx.out
            .notes
            .insert("op_ms", stats::lower_quartile(&ref_p50s));
        cx.out.put_n("serve_p99_ms", ref_lat.percentile(99.0), n);
        cx.out.put_n("serve.p999_ms", ref_lat.percentile(99.9), n);
        fold_reference(cx, s, &reference);
    }
    if !hi_lat.answered_ms.is_empty() {
        let n = hi_lat.answered_ms.len();
        cx.out.put_n("serve_hi_p99_ms", hi_lat.percentile(99.0), n);
    }
    runs.oracle.map(|(params, _)| (params, reference))
}

/// The **R** values of the serve layer, over the `R_ref` runs, and the
/// cache oracle: the workload must be on the side of the cache it is
/// named for.
fn fold_reference(cx: &mut Cx, s: &ServeSpec, runs: &[ServeReport]) {
    let out = &mut cx.out;
    let hist_mean = |key: &str| {
        let mut h = ns_metrics::Histogram::default();
        for r in runs {
            h.merge(&merged_histogram(&r.metrics, key));
        }
        h.mean()
    };
    let count = |key: &str| counter(runs, key) as f64;
    out.put("serve.queue_wait_us_mean", hist_mean("serve.queue.wait_us"));
    out.put("serve.queue_depth_mean", hist_mean("serve.queue.depth"));
    out.put("serve.batch_size_mean", hist_mean("serve.batch.size"));
    out.put(
        "serve.shard_latency_us_mean",
        hist_mean("serve.shard.latency_us"),
    );
    out.put("serve.batches", count("serve.batches"));
    let (hits, misses) = (count("serve.cache.hits"), count("serve.cache.misses"));
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    out.put("serve.cache_hit_ratio", hit_ratio);
    out.put("serve.rows_local", count("serve.rows.local"));
    out.put("serve.rows_fetched", count("serve.rows.fetched"));
    out.put("serve.rows_fallback", count("serve.rows.fallback"));
    out.put("serve.fetch_requests", count("serve.fetch.requests"));
    out.put("serve.fetch_timeouts", count("serve.fetch.timeouts"));
    out.put("serve.hedge_issued", count("serve.hedge.issued"));
    out.put(
        "serve.rejects",
        runs.iter().map(|r| r.rejected).sum::<u64>() as f64,
    );
    out.notes.insert("cache_sheds", count("serve.cache.shed"));

    // The in-crate driver does not export how late it ran; how far the
    // achieved offer rate fell from the schedule stands in for it.
    let offered: u64 = runs.iter().map(|r| r.offered).sum();
    let wall_s: f64 = runs.iter().map(|r| r.wall_ms as f64 / 1e3).sum();
    out.put(
        "serve.offered_rate_err",
        offered as f64 / wall_s / s.rate_ref - 1.0,
    );

    if s.cache_rows == 0 {
        if hits > 0.0 || count("serve.rows.fetched") == 0.0 {
            out.fail(format!(
                "cache is off, yet {hits} cache hits and {} fetched rows at R_ref",
                count("serve.rows.fetched")
            ));
        }
    } else if !cx.opts.quick && hit_ratio < MIN_HOT_HIT_RATIO {
        out.fail(format!(
            "cache hit ratio {hit_ratio:.3} at R_ref is below {MIN_HOT_HIT_RATIO}: \
             the workload is not on the cached side"
        ));
    }
}

/// `nsbench ladder`: open-loop runs of `w` at rising rates, one line each,
/// to find the saturation rate `rate_ref` / `rate_hi` are fractions of.
/// A rate is sustained when nothing is rejected and the offered-based p99
/// (median of the rate's [`LADDER_RUNS`] runs) stays within
/// [`LADDER_P99_LIMIT_MS`]; saturation is the highest rate below the first
/// that is not.
pub fn ladder(cx: &mut Cx, s: &ServeSpec, rates: &[f64]) -> std::io::Result<()> {
    let store_dir = cx.scratch.join("fixture-store");
    if !train_fixture(cx, &store_dir) {
        return Ok(());
    }
    let cfg = serve_config(s);
    let deployment = match deploy(&mut cx.tr, cx.ds, cx.model, &store_dir, &cfg) {
        Ok((d, _)) => d,
        Err(e) => {
            cx.out.fail(format!("deployment: {e}"));
            return Ok(());
        }
    };
    println!(
        "{:>8} {:>10} {:>9} {:>9} {:>9} {:>8} {:>9} {:>10}  sustained",
        "rate", "achieved", "p50_ms", "p99_ms", "rejected", "hit", "sheds", "parked_mb"
    );
    let (mut saturation, mut broken) = (None, false);
    for (i, &rate) in rates.iter().enumerate() {
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        let mut runs = Vec::with_capacity(LADDER_RUNS);
        let (mut wall_s, mut parked) = (0.0, 0u64);
        for k in 0..LADDER_RUNS {
            let salt = 400 + (i * LADDER_RUNS + k) as u64;
            let load = load(s, cx.opts.seed, s.phase_queries, rate, salt);
            ns_tensor::pool::clear();
            let t = std::time::Instant::now();
            match deployment.run_open_loop(&load) {
                Ok(r) => {
                    // The ladder runs past saturation on purpose: its
                    // rejects are findings, not failures, so the oracle is
                    // not applied.
                    let mut lat = Latencies::default();
                    lat.add(&r, t.elapsed().as_secs_f64());
                    p50s.push(lat.percentile(50.0));
                    p99s.push(lat.percentile(99.0));
                    wall_s += t.elapsed().as_secs_f64();
                    parked = parked.max(ns_tensor::pool::stats().resident_bytes);
                    runs.push(r);
                }
                Err(e) => println!("{rate:>8.0} failed: {e}"),
            }
        }
        let rejected: u64 = runs.iter().map(|r| r.rejected).sum();
        let answers: usize = runs.iter().map(|r| r.answers.len()).sum();
        let (hits, misses) = (
            counter(&runs, "serve.cache.hits") as f64,
            counter(&runs, "serve.cache.misses") as f64,
        );
        // Medians over the runs: one stall of the shared host spoils one
        // run's tail, not the rate's verdict.
        let (p50, p99) = (stats::median(&p50s), stats::median(&p99s));
        let sustained = runs.len() == LADDER_RUNS && rejected == 0 && p99 <= LADDER_P99_LIMIT_MS;
        // The highest rate below the first one that was not sustained.
        match (sustained, broken) {
            (true, false) => saturation = Some(rate),
            _ => broken = true,
        }
        println!(
            "{rate:>8.0} {:>10.0} {p50:>9.3} {p99:>9.3} {rejected:>9} {:>8.3} {:>9} {:>10.1}  {}",
            answers as f64 / wall_s,
            hits / (hits + misses).max(1.0),
            counter(&runs, "serve.cache.shed"),
            parked as f64 / (1 << 20) as f64,
            if sustained { "yes" } else { "no" }
        );
    }
    match saturation {
        Some(r) => println!(
            "saturation {r:.0} qps: R_ref = {:.0}, R_hi = {:.0}",
            (0.3 * r / 100.0).round() * 100.0,
            (0.6 * r / 100.0).round() * 100.0
        ),
        None => println!("no rate of the ladder was sustained"),
    }
    Ok(())
}

/// The latency limit of `nsbench ladder`, on the offered-based p99.
const LADDER_P99_LIMIT_MS: f64 = 20.0;
/// Open-loop runs per rate.
const LADDER_RUNS: usize = 3;
