//! Table 5 — single-GPU comparison on small graphs: ROC-like, DGL-like,
//! PyG-like, and NTS running GCN and GAT on Cora, Citeseer, Pubmed, and
//! Google.
//!
//! Paper shape: NTS is comparable with DGL/PyG on the citation graphs
//! (PyG fastest on the smallest), 1.96–5.18x over ROC on GCN; ROC lacks
//! GAT; DGL and PyG OOM on Google while NTS completes.

use bench::{dataset, model_for, print_table, save_json};
use ns_baselines::{shared_memory_row, SharedMemorySystem, SysResult};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::ClusterSpec;

fn main() {
    let gpu = ClusterSpec::aliyun_ecs(1);
    let graphs = ["cora", "citeseer", "pubmed", "google"];
    let systems = [
        SharedMemorySystem::RocSingle,
        SharedMemorySystem::DglLike,
        SharedMemorySystem::PygLike,
        SharedMemorySystem::Nts,
    ];
    let mut artifacts = Vec::new();

    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        let mut rows = Vec::new();
        for sys in systems {
            let mut row = vec![sys.name().to_string()];
            for name in graphs {
                let ds = dataset(name);
                let model = model_for(&ds, kind);
                // ROC has no edge-NN support and cannot run GAT.
                let result = if sys == SharedMemorySystem::RocSingle && kind == ModelKind::Gat
                {
                    None
                } else {
                    Some(shared_memory_row(sys, &ds, &model, &gpu))
                };
                row.push(match &result {
                    Some(SysResult::Time(t)) => format!("{:.2}ms", t * 1e3),
                    Some(SysResult::Oom) => "OOM".to_string(),
                    None => "-".to_string(),
                });
                artifacts.push(obj! {
                    "model": kind.name(), "system": sys.name(), "graph": name,
                    "ms": match result {
                        Some(SysResult::Time(t)) => Some(t * 1e3),
                        _ => None,
                    },
                    "oom": matches!(result, Some(SysResult::Oom)),
                });
            }
            rows.push(row);
        }
        print_table(
            &format!("Table 5 ({}): single GPU, per-epoch time", kind.name()),
            &["system", "cora", "citeseer", "pubmed", "google"],
            &rows,
        );
    }
    save_json("table05", artifacts);
}
