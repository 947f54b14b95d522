//! A training workload: rounds of `SessionBuilder::build` (repeated, for
//! the set-up time) followed by one `TrainingSession::train(E)` call, the
//! loss oracle on every call, and the **R** values of the layers training
//! runs through.

use std::collections::BTreeMap;
use std::path::Path;

use neutronstar::{SessionBuilder, TrainingSession};
use ns_metrics::{MetricsFrame, Phase, COORDINATOR};
use ns_net::ClusterSpec;
use ns_runtime::{EngineKind, RecoveryConfig, TrainingReport};

use crate::pipeline::{merged_histogram, rng_fingerprint, Cx};
use crate::probes;
use crate::spec::{
    TrainSpec, CHECKPOINT_EVERY, KEEP_GENERATIONS, TRAIN_SETUP_REPEATS, WARMUP_EPOCHS, WORKERS,
};
use crate::stats;

pub fn session_builder(t: &TrainSpec, store_dir: &Path) -> SessionBuilder {
    let mut b = TrainingSession::builder()
        .engine(t.engine)
        .cluster(ClusterSpec::aliyun_ecs(WORKERS))
        .threads(1);
    if !t.memory_check {
        b = b.without_memory_check();
    }
    if t.durable {
        b = b
            .recovery(RecoveryConfig::every(CHECKPOINT_EVERY))
            .checkpoint_dir(store_dir)
            .keep_checkpoints(KEEP_GENERATIONS);
    }
    b
}

/// The values one `train()` call gave, by metric name.
type RoundValues = BTreeMap<&'static str, f64>;

pub fn run(cx: &mut Cx, t: &TrainSpec) -> std::io::Result<()> {
    let mut setups = Vec::with_capacity(t.rounds * TRAIN_SETUP_REPEATS);
    let mut timed_epochs = Vec::new();
    let mut rounds: Vec<RoundValues> = Vec::with_capacity(t.rounds);
    let mut last = None;
    for round in 0..t.rounds {
        // A store of its own per call, as a fresh `nts train` would have.
        let store_dir = cx.scratch.join(format!("train-store-{round}"));
        let builder = session_builder(t, &store_dir);
        let mut session = None;
        for _ in 0..TRAIN_SETUP_REPEATS {
            let (built, secs) = cx
                .tr
                .span("plan.prepare", |_| builder.clone().build(cx.ds, cx.model));
            setups.push(secs);
            match built {
                Ok(s) => session = Some(s),
                Err(e) => {
                    cx.out.ops_attempted += 1;
                    cx.out.fail(format!("SessionBuilder::build: {e}"));
                    return Ok(());
                }
            }
        }
        let session = session.expect("TRAIN_SETUP_REPEATS > 0");
        let (trained, train_wall_s) = cx.tr.span("trainer.train", |_| session.train(t.epochs));
        cx.out.ops_attempted += t.epochs as u64;
        let report = match trained {
            Ok(r) => r,
            Err(e) => {
                cx.out.fail(format!("TrainingSession::train: {e}"));
                return Ok(());
            }
        };
        let mut values = fold_round(cx, t, &report, train_wall_s);
        values.insert("train_wall_s", train_wall_s);
        rounds.push(values);
        timed_epochs.extend(report.epochs.iter().skip(WARMUP_EPOCHS).map(|e| e.wall_s));
        *cx.out.notes.entry("replans").or_insert(0.0) += report.replans.len() as f64;
        if round + 1 < t.rounds {
            let _ = std::fs::remove_dir_all(&store_dir);
        }
        last = Some((session, report));
    }
    let (session, report) = last.expect("a run has at least one round");

    // `build` is `Trainer::prepare` plus moving the options across.
    let setup_s = stats::lower_quartile(&setups);
    cx.out.put_n("setup_s", setup_s, setups.len());
    cx.out.put_n("plan.prepare_s", setup_s, setups.len());
    // What the driver sees as `op_ms`: an undisturbed epoch plus its share
    // of what the call spends around its epochs (spawn, chunk boundaries,
    // checkpoints, join).
    let overheads: Vec<f64> = rounds.iter().map(|r| r["trainer.overhead_s"]).collect();
    cx.out.notes.insert(
        "op_ms",
        1e3 * (stats::lower_quartile(&timed_epochs)
            + stats::lower_quartile(&overheads) / t.epochs as f64),
    );
    // Epoch times are pooled over the calls; everything else one call
    // gives is reported as the median over the calls.
    timed_epochs.sort_by(f64::total_cmp);
    let tail_pct = stats::tail_percentile(timed_epochs.len());
    cx.out
        .put_n("epoch_s", stats::median(&timed_epochs), timed_epochs.len());
    cx.out.put_n(
        "epoch_tail_s",
        stats::percentile(&timed_epochs, tail_pct),
        timed_epochs.len(),
    );
    cx.out.notes.insert("epoch_tail_pct", tail_pct);
    cx.out.notes.insert("epochs", t.epochs as f64);
    cx.out.notes.insert("rounds", rounds.len() as f64);
    for name in rounds[0].keys() {
        let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
        cx.out.put_n(name, stats::median(&values), values.len());
    }
    cx.out.put(
        "tensor.pool_peak_mb",
        ns_tensor::pool::stats().peak_bytes as f64 / (1 << 20) as f64,
    );

    if cx.opts.traced {
        let row_msgs = report.metrics.total_counter("net.sent.msgs.rows") as usize;
        let rows_sent = report.plan.comm_rows_per_epoch * report.epochs.len();
        let shapes = probes::Shapes {
            khop_seeds: session.trainer().plans()[0].owned.clone(),
            msg_rows: rows_sent.checked_div(row_msgs),
            msg_cols: cx.model.dims()[1],
        };
        probes::common(cx, &shapes, &report.final_params, t.epochs)?;
        probes::train_only(cx, &session);
    }
    Ok(())
}

/// Time until the (linearly interpolated) train loss first reaches
/// `target`, on the cumulative per-epoch wall clock. `None` when the run
/// never gets there.
pub fn time_to_loss(losses: &[f64], walls: &[f64], target: f64) -> Option<f64> {
    let mut t_prev = 0.0;
    for i in 0..losses.len() {
        let t = t_prev + walls[i];
        if losses[i] <= target {
            if i == 0 {
                return Some(t);
            }
            let drop = losses[i - 1] - losses[i];
            let frac = if drop > 0.0 {
                (losses[i - 1] - target) / drop
            } else {
                1.0
            };
            return Some(t_prev + frac.clamp(0.0, 1.0) * walls[i]);
        }
        t_prev = t;
    }
    None
}

/// One `train()` call: the loss oracle, and the call's end-to-end values
/// and **R** values of the plan / par / net / exec / trainer / store
/// layers.
fn fold_round(
    cx: &mut Cx,
    t: &TrainSpec,
    report: &TrainingReport,
    train_wall_s: f64,
) -> RoundValues {
    let (w, opts, out) = (cx.w, cx.opts, &mut cx.out);
    let mut round = RoundValues::new();
    let epochs = report.epochs.len();
    let losses: Vec<f64> = report.epochs.iter().map(|e| e.loss).collect();
    let walls: Vec<f64> = report.epochs.iter().map(|e| e.wall_s).collect();

    // -- oracle -----------------------------------------------------------
    if epochs != t.epochs {
        out.fail(format!(
            "train returned {epochs} epochs, asked for {}",
            t.epochs
        ));
    }
    for (i, l) in losses.iter().enumerate() {
        if !l.is_finite() {
            out.fail(format!("epoch {i} loss is {l}"));
        }
    }
    let (first, last) = (losses[0], losses[epochs - 1]);
    if last >= first {
        out.fail(format!(
            "final loss {last} is not below the first epoch's {first}"
        ));
    }
    let pinned = opts
        .expected
        .filter(|e| opts.seed == 42 && !opts.quick && e.rng_fingerprint == rng_fingerprint())
        .and_then(|e| e.final_loss.get(w.name))
        .filter(|(e, _)| *e == epochs);
    match pinned {
        Some(&(_, want)) if ((last - want) / want).abs() > 1e-4 => out.fail(format!(
            "seed 42 final loss {last} differs from expected.json {want}"
        )),
        Some(_) => {}
        None if opts.seed == 42 && !opts.quick => eprintln!(
            "nsbench: note: expected.json does not cover this build of {}; \
             final loss {last} checked for finiteness and descent only",
            w.name
        ),
        None => {}
    }
    out.notes.insert("final_loss", last);

    // -- end to end ---------------------------------------------------------
    let sum_wall: f64 = walls.iter().sum();
    let target = t.loss_frac * first;
    match time_to_loss(&losses, &walls, target) {
        Some(at) => {
            round.insert("time_to_loss_s", at);
            out.notes.insert("time_to_loss_share", at / sum_wall);
        }
        None => {
            round.insert("time_to_loss_s", sum_wall);
            // `loss_frac` is frozen for the full-size inputs.
            if !opts.quick {
                out.fail(format!(
                    "train loss never reached {target} ({} x epoch 0)",
                    t.loss_frac
                ));
            }
        }
    }
    round.insert("trainer.overhead_s", train_wall_s - sum_wall);

    // -- plan / sim ---------------------------------------------------------
    round.insert(
        "plan.cached_frac",
        report.plan.hybrid.as_ref().map_or(
            // The pure engines decide every dependency one way.
            if t.engine == EngineKind::DepCache {
                1.0
            } else {
                0.0
            },
            |h| h.cached_fraction(),
        ),
    );
    round.insert("plan.replica_slots", report.plan.replica_slots as f64);
    round.insert("plan.comm_rows", report.plan.comm_rows_per_epoch as f64);
    round.insert(
        "plan.prefetched_rows",
        report.plan.prefetched_features as f64,
    );
    round.insert("sim.epoch_s", report.sim.epoch_seconds);
    round.insert("sim.bytes_per_epoch", report.sim.bytes_per_epoch as f64);
    round.insert("sim.flops_per_epoch", report.sim.flops_per_epoch as f64);

    // -- counters -------------------------------------------------------------
    let m = &report.metrics;
    let per_epoch = |key: &str| m.total_counter(key) as f64 / epochs as f64;
    round.insert("net.bytes_per_epoch", per_epoch("net.sent.bytes"));
    round.insert("net.msgs_per_epoch", per_epoch("net.sent.msgs"));
    round.insert("net.rows_bytes_per_epoch", per_epoch("net.sent.bytes.rows"));
    round.insert(
        "net.grads_bytes_per_epoch",
        per_epoch("net.sent.bytes.grads"),
    );
    round.insert(
        "net.allreduce_bytes_per_epoch",
        per_epoch("net.sent.bytes.allreduce"),
    );
    round.insert(
        "net.recv_retries",
        m.total_counter("net.recv.retries") as f64,
    );
    let chunks = m.total_counter("recovery.checkpoints").max(1);
    round.insert("trainer.chunks", chunks as f64);
    round.insert("exec.rows_local", per_epoch("dep.rows.local"));
    round.insert("exec.rows_fetched", per_epoch("dep.rows.fetched"));
    // Metered once per executor start, i.e. once per chunk.
    round.insert(
        "exec.rows_cached",
        m.total_counter("dep.rows.cached") as f64 / chunks as f64,
    );
    round.insert(
        "par.threads",
        m.total_counter("compute.threads") as f64 / (chunks * WORKERS as u64) as f64,
    );
    round.insert("par.jobs", per_epoch("compute.par_jobs"));
    round.insert("par.inline_jobs", per_epoch("compute.par_inline_jobs"));
    round.insert("par.steal_count", per_epoch("par.steal_count"));
    round.insert(
        "tensor.pool_fresh_steady",
        m.total_counter("alloc.steady_state") as f64 / chunks as f64,
    );
    let fsync = merged_histogram(m, "ckpt.fsync_ns");
    round.insert("store.saves", fsync.count as f64);
    round.insert("store.fsync_s", fsync.mean() / 1e9);

    // -- phases: per-epoch means over timed epochs on the slowest worker ------
    let timed_epochs = epochs.saturating_sub(WARMUP_EPOCHS).max(1) as f64;
    let phase_seconds = |f: &MetricsFrame, phase: Phase| -> f64 {
        f.spans
            .iter()
            .filter(|s| s.phase == phase && s.epoch as usize >= WARMUP_EPOCHS)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>()
            / timed_epochs
    };
    const EPOCH_PHASES: [(Phase, &str); 7] = [
        (Phase::FwdComm, "exec.fwd_comm_s"),
        (Phase::FwdCompute, "exec.fwd_compute_s"),
        (Phase::Head, "exec.head_s"),
        (Phase::BwdCompute, "exec.bwd_compute_s"),
        (Phase::BwdComm, "exec.bwd_comm_s"),
        (Phase::SyncWait, "exec.sync_wait_s"),
        (Phase::OptStep, "exec.opt_step_s"),
    ];
    // "Slowest" is the worker the others wait for: the one with the most
    // compute. (Total phase time cannot tell them apart, since the faster
    // worker's epoch is padded with waiting.)
    const COMPUTE: [Phase; 4] = [
        Phase::FwdCompute,
        Phase::BwdCompute,
        Phase::Head,
        Phase::OptStep,
    ];
    let compute = |f: &MetricsFrame| -> f64 { COMPUTE.iter().map(|&p| phase_seconds(f, p)).sum() };
    let slowest = m
        .frames
        .values()
        .filter(|f| f.worker != COORDINATOR)
        .max_by(|a, b| compute(a).total_cmp(&compute(b)));
    let Some(slowest) = slowest else {
        out.fail("training report carries no worker frames".into());
        return round;
    };
    if slowest.dropped_spans > 0 {
        out.fail(format!(
            "span ring dropped {} spans; phase means are short",
            slowest.dropped_spans
        ));
    }
    let mut attributed = 0.0;
    for (phase, name) in EPOCH_PHASES {
        let secs = phase_seconds(slowest, phase);
        attributed += secs;
        round.insert(name, secs);
    }
    let mean_timed = walls.iter().skip(WARMUP_EPOCHS).sum::<f64>() / timed_epochs;
    round.insert("exec.attributed_share", attributed / mean_timed);
    // The tape's graph-op / NN-op split is only kept as run totals, so
    // these four are means over *all* epochs, warm-up included.
    let split = slowest
        .layer_split
        .iter()
        .fold(ns_metrics::LayerSplit::default(), |mut acc, l| {
            acc.add(*l);
            acc
        });
    let per = |ns: u64| ns as f64 / 1e9 / epochs as f64;
    round.insert("exec.fwd_graph_s", per(split.fwd_graph_ns));
    round.insert("exec.fwd_nn_s", per(split.fwd_nn_ns));
    round.insert("exec.bwd_graph_s", per(split.bwd_graph_ns));
    round.insert("exec.bwd_nn_s", per(split.bwd_nn_ns));
    let wait = slowest
        .histograms
        .get("net.recv.wait_ns")
        .map_or(0.0, |h| h.sum as f64);
    round.insert("net.recv_wait_s", wait / 1e9 / epochs as f64);
    round
}
