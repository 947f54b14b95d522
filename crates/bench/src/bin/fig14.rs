//! Figure 14 — accuracy vs (simulated) training time on the Reddit-like
//! dataset: Hybrid, DepComm, and DepCache (full-graph training, 16
//! workers) against DepCache-with-sampling (the DGL sampling strategy).
//!
//! Paper shape: full-graph engines converge to the same accuracy (~95%),
//! above the sampling ceiling (~93.9%); Hybrid reaches the target
//! accuracy fastest because its per-epoch time is lowest; DepCache is
//! slowest despite identical numerics.

use bench::{dataset, model_for, print_table, save_json, RunSpec};
use ns_baselines::{DistDglConfig, DistDglLike};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::EngineKind;

const EPOCHS: usize = 60;

fn main() {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let ds = dataset("reddit");
    let model = model_for(&ds, ModelKind::Gcn);
    let mut artifacts = Vec::new();
    let mut summary_rows = Vec::new();

    let mut curves: Vec<(String, Vec<(f64, f64)>)> = Vec::new();

    for engine in [EngineKind::Hybrid, EngineKind::DepComm, EngineKind::DepCache] {
        let trainer = RunSpec::new(&ds, &model, engine, cluster.clone())
            .no_memory_check()
            .prepare()
            .expect("prepare");
        let report = trainer.train(EPOCHS).expect("train");
        let per_epoch = report.sim.epoch_seconds;
        let curve: Vec<(f64, f64)> = report
            .epochs
            .iter()
            .map(|e| ((e.epoch + 1) as f64 * per_epoch, e.test_acc))
            .collect();
        let best = curve.iter().map(|&(_, a)| a).fold(0.0, f64::max);
        summary_rows.push(vec![
            report.engine.clone(),
            format!("{:.4}", per_epoch),
            format!("{:.2}%", best * 100.0),
        ]);
        artifacts.push(obj! {
            "system": report.engine.as_str(),
            "epoch_seconds": per_epoch,
            "best_test_acc": best,
            "curve": curve.iter().map(|&(t, a)| vec![t, a]).collect::<Vec<_>>(),
        });
        curves.push((report.engine.clone(), curve));
    }

    // DepCache-sampling (DGL sampling, as in the paper's comparison).
    let dgl = DistDglLike::new(
        &ds,
        &model,
        cluster.clone(),
        DistDglConfig { batch_size: 128, ..Default::default() },
    );
    let report = dgl.train(EPOCHS);
    let curve: Vec<(f64, f64)> = report
        .epochs
        .iter()
        .enumerate()
        .map(|(i, e)| ((i + 1) as f64 * report.epoch_seconds, e.test_acc))
        .collect();
    let best = curve.iter().map(|&(_, a)| a).fold(0.0, f64::max);
    summary_rows.push(vec![
        "DepCache-sampling".to_string(),
        format!("{:.4}", report.epoch_seconds),
        format!("{:.2}%", best * 100.0),
    ]);
    artifacts.push(obj! {
        "system": "DepCache-sampling",
        "epoch_seconds": report.epoch_seconds,
        "best_test_acc": best,
        "curve": curve.iter().map(|&(t, a)| vec![t, a]).collect::<Vec<_>>(),
    });
    curves.push(("DepCache-sampling".to_string(), curve));

    // Time-to-target-accuracy comparison at the sampling ceiling.
    let target = best.min(0.999);
    let mut rows = Vec::new();
    for (name, curve) in &curves {
        let t = curve
            .iter()
            .find(|&&(_, a)| a >= target)
            .map(|&(t, _)| format!("{t:.3}s"))
            .unwrap_or_else(|| "never".to_string());
        rows.push(vec![name.clone(), t]);
    }

    print_table(
        "Fig 14: per-epoch time and accuracy ceiling (GCN, Reddit-like, ECS-16)",
        &["system", "epoch(s)", "best test acc"],
        &summary_rows,
    );
    print_table(
        &format!("Fig 14: simulated time to reach {:.2}% test accuracy", target * 100.0),
        &["system", "time-to-target"],
        &rows,
    );
    save_json("fig14", artifacts);
}
