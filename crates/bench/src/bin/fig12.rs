//! Figure 12 — scaling from 1 to 16 workers on Pokec, Reddit, Orkut, and
//! Wiki for DistDGL-like, ROC-like, DepCache, DepComm, and Hybrid.
//!
//! Paper shape: DistDGL / DepComm / Hybrid improve with more nodes (near
//! linear for NTS); ROC scales poorly (whole-block transfers grow with
//! the cluster); DepCache barely scales (per-worker redundant work does
//! not shrink); small clusters OOM on big graphs for DepCache.

use bench::{cell, dataset, model_for, print_table, save_json, RunSpec};
use ns_baselines::{DistDglConfig, DistDglLike};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::EngineKind;

fn main() {
    let graphs = ["pokec", "reddit", "orkut", "wikilink"];
    let sizes = [1usize, 2, 4, 8, 16];
    let mut artifacts = Vec::new();

    for name in graphs {
        let ds = dataset(name);
        let model = model_for(&ds, ModelKind::Gcn);
        let mut rows = Vec::new();
        for &m in &sizes {
            let cluster = ClusterSpec::aliyun_ecs(m);
            let distdgl = if m >= 1 {
                let t = DistDglLike::new(&ds, &model, cluster.clone(), DistDglConfig::default());
                Ok(t.train(1).epoch_seconds)
            } else {
                unreachable!()
            };
            let roc = RunSpec::new(&ds, &model, EngineKind::DepComm, cluster.clone())
                .opts(ExecOptions::none())
                .broadcast()
                .epoch_seconds();
            let cache =
                RunSpec::new(&ds, &model, EngineKind::DepCache, cluster.clone()).epoch_seconds();
            let comm =
                RunSpec::new(&ds, &model, EngineKind::DepComm, cluster.clone()).epoch_seconds();
            let hybrid =
                RunSpec::new(&ds, &model, EngineKind::Hybrid, cluster.clone()).epoch_seconds();
            artifacts.push(obj! {
                "graph": name, "workers": m,
                "distdgl_s": distdgl.as_ref().ok().copied(),
                "roc_s": roc.as_ref().ok().copied(),
                "depcache_s": cache.as_ref().ok().copied(),
                "depcomm_s": comm.as_ref().ok().copied(),
                "hybrid_s": hybrid.as_ref().ok().copied(),
            });
            rows.push(vec![
                m.to_string(),
                cell(&distdgl),
                cell(&roc),
                cell(&cache),
                cell(&comm),
                cell(&hybrid),
            ]);
        }
        print_table(
            &format!("Fig 12: scaling on {name} (GCN, per-epoch seconds)"),
            &["workers", "DistDGL", "ROC", "DepCache", "DepComm", "Hybrid"],
            &rows,
        );
    }
    save_json("fig12", artifacts);
}
