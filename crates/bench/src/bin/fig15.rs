//! Figure 15 — hybrid dependency management under different graph
//! partitioners: chunk-based, metis-like, and Fennel, for optimized
//! DepComm and Hybrid on Reddit, Orkut, and Wiki (ECS-16).
//!
//! Paper shape: Hybrid beats DepComm under *every* partitioner (1.21–1.48x
//! chunk, 1.12–1.23x METIS, 1.17–1.32x Fennel) — dependency management is
//! orthogonal to graph partitioning.

use bench::{dataset, model_for, print_table, save_json, RunSpec};
use ns_gnn::ModelKind;
use ns_graph::Partitioner;
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::EngineKind;

fn main() {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let graphs = ["reddit", "orkut", "wikilink"];
    let partitioners =
        [Partitioner::Chunk, Partitioner::MetisLike, Partitioner::Fennel];
    let mut artifacts = Vec::new();

    for name in graphs {
        let ds = dataset(name);
        let model = model_for(&ds, ModelKind::Gcn);
        let mut rows = Vec::new();
        for p in partitioners {
            let comm = RunSpec::new(&ds, &model, EngineKind::DepComm, cluster.clone())
                .partitioner(p)
                .no_memory_check()
                .epoch_seconds()
                .expect("depcomm");
            let hybrid = RunSpec::new(&ds, &model, EngineKind::Hybrid, cluster.clone())
                .partitioner(p)
                .no_memory_check()
                .epoch_seconds()
                .expect("hybrid");
            rows.push(vec![
                p.name().to_string(),
                format!("{comm:.4}"),
                format!("{hybrid:.4}"),
                format!("{:.2}x", comm / hybrid),
            ]);
            artifacts.push(obj! {
                "graph": name,
                "partitioner": p.name(),
                "depcomm_s": comm,
                "hybrid_s": hybrid,
                "speedup": comm / hybrid,
            });
        }
        print_table(
            &format!("Fig 15: partitioners on {name} (GCN, ECS-16)"),
            &["partitioner", "DepComm(s)", "Hybrid(s)", "speedup"],
            &rows,
        );
    }
    save_json("fig15", artifacts);
}
