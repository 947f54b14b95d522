//! Table 3 — cost and benefit of Hybrid processing: 100-epoch runtime of
//! DepCache / DepComm / Hybrid (GCN, ECS-16) plus the one-time hybrid
//! dependency-partitioning overhead ("Preprocessing").
//!
//! Paper shape: Hybrid beats both pure engines on every graph;
//! preprocessing is at most ~3% of the hybrid 100-epoch runtime.

use bench::{cell, dataset, model_for, print_table, save_json, RunSpec};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::EngineKind;

/// Nominal traversal rate for the preprocessing cost (pointer-chasing on
/// the host CPU).
const PREPROC_OPS_PER_SECOND: f64 = 300e6;

fn main() {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let graphs = ["google", "pokec", "livejournal", "reddit", "orkut", "wikilink", "twitter"];
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();

    for name in graphs {
        let ds = dataset(name);
        let model = model_for(&ds, ModelKind::Gcn);
        let epoch100 = |engine| {
            RunSpec::new(&ds, &model, engine, cluster.clone())
                .no_memory_check()
                .epoch_seconds()
                .map(|t| t * 100.0)
        };
        let cache = epoch100(EngineKind::DepCache);
        let comm = epoch100(EngineKind::DepComm);
        let trainer = RunSpec::new(&ds, &model, EngineKind::Hybrid, cluster.clone())
            .no_memory_check()
            .prepare()
            .expect("hybrid prepare");
        let hybrid = trainer.simulate_epoch().epoch_seconds * 100.0;
        let report = trainer.train(0).expect("plan stats");
        let info = report.plan.hybrid.expect("hybrid info");
        let preproc = info.preprocessing_seconds(PREPROC_OPS_PER_SECOND);

        rows.push(vec![
            name.to_string(),
            cell(&cache),
            cell(&comm),
            format!("{:.4}", hybrid),
            format!("+{:.4}", preproc),
            format!("{:.2}%", 100.0 * preproc / hybrid),
            format!("{:.2}", info.cached_fraction()),
        ]);
        artifacts.push(obj! {
            "graph": name,
            "depcache_100ep_s": cache.as_ref().ok().copied(),
            "depcomm_100ep_s": comm.as_ref().ok().copied(),
            "hybrid_100ep_s": hybrid,
            "preprocessing_s": preproc,
            "preprocessing_pct": 100.0 * preproc / hybrid,
            "cached_fraction": info.cached_fraction(),
        });
    }

    print_table(
        "Table 3: 100-epoch runtime + hybrid preprocessing (GCN, ECS-16)",
        &["graph", "DepCache", "DepComm", "Hybrid", "Preproc", "overhead", "cached"],
        &rows,
    );
    save_json("table03", artifacts);
}
