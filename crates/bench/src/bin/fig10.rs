//! Figure 10 — overall per-epoch comparison: DistDGL-like, ROC-like,
//! DepCache, DepComm (all optimizations), and NeutronStar (Hybrid, all
//! optimizations) across GCN / GIN / GAT on seven graphs (ECS-16; ROC at
//! its best 4-node configuration, as in the paper).
//!
//! Paper shape: NTS 1.83–14.25x over DistDGL, 1.81–5.29x over ROC,
//! 2.03–15.02x over DepCache, 1.19–1.69x over optimized DepComm. ROC and
//! DepCache OOM on several cases; ROC lacks GAT, DistDGL lacks GIN.

use bench::{cell, dataset, model_for, print_table, save_json, RunSpec};
use ns_baselines::{DistDglConfig, DistDglLike};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::{EngineKind, RuntimeError};

fn main() {
    let ecs16 = ClusterSpec::aliyun_ecs(16);
    let ecs4 = ClusterSpec::aliyun_ecs(4);
    let graphs = ["google", "pokec", "livejournal", "reddit", "orkut", "wikilink", "twitter"];
    let mut artifacts = Vec::new();

    for kind in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat] {
        let mut rows = Vec::new();
        for name in graphs {
            let ds = dataset(name);
            let model = model_for(&ds, kind);

            // DistDGL-like: sampled mini-batch; no distributed GIN.
            let distdgl: Result<f64, RuntimeError> = if kind == ModelKind::Gin {
                Err(RuntimeError::InvalidConfig("DistDGL lacks GIN".into()))
            } else {
                let t = DistDglLike::new(&ds, &model, ecs16.clone(), DistDglConfig::default());
                Ok(t.train(1).epoch_seconds)
            };
            // ROC-like: whole-block DepComm, best at 4 nodes; no GAT
            // (no edge-NN support).
            let roc: Result<f64, RuntimeError> = if kind == ModelKind::Gat {
                Err(RuntimeError::InvalidConfig("ROC lacks edge NN".into()))
            } else {
                RunSpec::new(&ds, &model, EngineKind::DepComm, ecs4.clone())
                    .opts(ExecOptions::none())
                    .broadcast()
                    .epoch_seconds()
            };
            let depcache = RunSpec::new(&ds, &model, EngineKind::DepCache, ecs16.clone())
                .epoch_seconds();
            let depcomm = RunSpec::new(&ds, &model, EngineKind::DepComm, ecs16.clone())
                .epoch_seconds();
            let nts =
                RunSpec::new(&ds, &model, EngineKind::Hybrid, ecs16.clone()).epoch_seconds();

            artifacts.push(obj! {
                "model": kind.name(), "graph": name,
                "distdgl_s": distdgl.as_ref().ok().copied(),
                "roc_s": roc.as_ref().ok().copied(),
                "depcache_s": depcache.as_ref().ok().copied(),
                "depcomm_s": depcomm.as_ref().ok().copied(),
                "nts_s": nts.as_ref().ok().copied(),
            });
            rows.push(vec![
                name.to_string(),
                cell(&distdgl),
                cell(&roc),
                cell(&depcache),
                cell(&depcomm),
                cell(&nts),
            ]);
        }
        print_table(
            &format!("Fig 10 ({}): per-epoch seconds (ECS-16; ROC@4)", kind.name()),
            &["graph", "DistDGL", "ROC", "DepCache", "DepComm", "NTS"],
            &rows,
        );
    }
    save_json("fig10", artifacts);
}
