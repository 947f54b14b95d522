//! Ablation: model depth vs the dependency explosion.
//!
//! The k-hop closure a DepCache worker must replicate grows with every
//! added layer (§2.2: "DepCache needs to retrieve not only a vertex's
//! direct in-neighbors but also all its {2..k}-hop in-neighbors"), while
//! DepComm adds only one more round of boundary communication. This sweep
//! quantifies that asymmetry — the regime where the hybrid cost model's
//! caching decisions become increasingly selective.

use bench::{cell, dataset, print_table, save_json};
use ns_gnn::{GnnModel, ModelKind};
use ns_graph::{stats::replication_stats, Partitioner};
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::{EngineKind, Trainer, TrainerConfig};

fn main() {
    let ds = dataset("pokec");
    let cluster = ClusterSpec::aliyun_ecs(8);
    let part = Partitioner::Chunk.partition(&ds.graph, 8);
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();

    for layers in 1usize..=4 {
        let mut dims = vec![ds.feature_dim()];
        dims.extend(std::iter::repeat(ds.hidden_dim).take(layers - 1));
        dims.push(ds.num_classes);
        let model = GnnModel::new(ModelKind::Gcn, &dims, 42);
        let time = |engine: EngineKind| {
            let mut cfg = TrainerConfig::new(engine, cluster.clone());
            cfg.enforce_memory = false;
            Trainer::prepare(&ds, &model, cfg).map(|t| t.simulate_epoch().epoch_seconds)
        };
        let cache = time(EngineKind::DepCache);
        let comm = time(EngineKind::DepComm);
        let hybrid = time(EngineKind::Hybrid);
        let rep = replication_stats(&ds.graph, &part, layers);
        rows.push(vec![
            layers.to_string(),
            format!("{:.2}", rep.replication_factor),
            cell(&cache),
            cell(&comm),
            cell(&hybrid),
        ]);
        artifacts.push(obj! {
            "layers": layers,
            "replication_factor": rep.replication_factor,
            "depcache_s": cache.as_ref().ok().copied(),
            "depcomm_s": comm.as_ref().ok().copied(),
            "hybrid_s": hybrid.as_ref().ok().copied(),
        });
    }
    print_table(
        "Ablation: depth vs dependency explosion (GCN on pokec, ECS-8)",
        &["layers", "replication", "DepCache(s)", "DepComm(s)", "Hybrid(s)"],
        &rows,
    );
    save_json("ablation_depth", artifacts);
}
