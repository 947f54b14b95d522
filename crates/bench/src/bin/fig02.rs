//! Figure 2 — performance divergence between raw DepCache and DepComm.
//!
//! (a) four graph inputs on the 8-node ECS cluster (GCN, hidden 256);
//! (b) hidden sizes {64, 256, 640} on Google;
//! (c) Google on the ECS cluster vs the 100 Gb/s IBV cluster.
//!
//! Paper shape: DepCache wins on sparse graphs (Google 1.23x,
//! LiveJournal 1.03x), DepComm wins on dense ones (Pokec 1.54x,
//! Reddit 7.76x); wider hidden layers favor DepCache; the fast network
//! flips Google to DepComm (1.41x).

use bench::{cell, dataset, model_with_hidden, print_table, save_json, RunSpec};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::EngineKind;

fn main() {
    let ecs = ClusterSpec::aliyun_ecs(8);
    let mut artifacts = Vec::new();

    // (a) graph inputs.
    let mut rows = Vec::new();
    for name in ["google", "pokec", "reddit", "livejournal"] {
        let ds = dataset(name);
        let model = model_with_hidden(&ds, ModelKind::Gcn, 256);
        let cache = RunSpec::new(&ds, &model, EngineKind::DepCache, ecs.clone())
            .raw()
            .no_memory_check()
            .epoch_seconds();
        let comm = RunSpec::new(&ds, &model, EngineKind::DepComm, ecs.clone())
            .raw()
            .no_memory_check()
            .epoch_seconds();
        let winner = match (&cache, &comm) {
            (Ok(a), Ok(b)) if a < b => format!("DepCache {:.2}x", b / a),
            (Ok(a), Ok(b)) => format!("DepComm {:.2}x", a / b),
            _ => "-".into(),
        };
        artifacts.push(obj! {
            "panel": "a", "graph": name,
            "depcache_s": cache.as_ref().ok().copied(), "depcomm_s": comm.as_ref().ok().copied(),
        });
        rows.push(vec![name.to_string(), cell(&cache), cell(&comm), winner]);
    }
    print_table(
        "Fig 2(a): DepCache vs DepComm across graphs (GCN, hid 256, ECS-8)",
        &["graph", "DepCache(s)", "DepComm(s)", "winner"],
        &rows,
    );

    // (b) hidden sizes on Google.
    let ds = dataset("google");
    let mut rows = Vec::new();
    for hidden in [64usize, 256, 640] {
        let model = model_with_hidden(&ds, ModelKind::Gcn, hidden);
        let cache = RunSpec::new(&ds, &model, EngineKind::DepCache, ecs.clone())
            .raw()
            .no_memory_check()
            .epoch_seconds();
        let comm = RunSpec::new(&ds, &model, EngineKind::DepComm, ecs.clone())
            .raw()
            .no_memory_check()
            .epoch_seconds();
        let winner = match (&cache, &comm) {
            (Ok(a), Ok(b)) if a < b => format!("DepCache {:.2}x", b / a),
            (Ok(a), Ok(b)) => format!("DepComm {:.2}x", a / b),
            _ => "-".into(),
        };
        artifacts.push(obj! {
            "panel": "b", "hidden": hidden,
            "depcache_s": cache.as_ref().ok().copied(), "depcomm_s": comm.as_ref().ok().copied(),
        });
        rows.push(vec![hidden.to_string(), cell(&cache), cell(&comm), winner]);
    }
    print_table(
        "Fig 2(b): hidden-size sensitivity (GCN on Google, ECS-8)",
        &["hidden", "DepCache(s)", "DepComm(s)", "winner"],
        &rows,
    );

    // (c) cluster environments.
    let model = model_with_hidden(&ds, ModelKind::Gcn, 256);
    let mut rows = Vec::new();
    for cluster in [ClusterSpec::aliyun_ecs(8), ClusterSpec::ibv(8)] {
        let cache = RunSpec::new(&ds, &model, EngineKind::DepCache, cluster.clone())
            .raw()
            .no_memory_check()
            .epoch_seconds();
        let comm = RunSpec::new(&ds, &model, EngineKind::DepComm, cluster.clone())
            .raw()
            .no_memory_check()
            .epoch_seconds();
        let winner = match (&cache, &comm) {
            (Ok(a), Ok(b)) if a < b => format!("DepCache {:.2}x", b / a),
            (Ok(a), Ok(b)) => format!("DepComm {:.2}x", a / b),
            _ => "-".into(),
        };
        artifacts.push(obj! {
            "panel": "c", "cluster": cluster.name.as_str(),
            "depcache_s": cache.as_ref().ok().copied(), "depcomm_s": comm.as_ref().ok().copied(),
        });
        rows.push(vec![cluster.name.clone(), cell(&cache), cell(&comm), winner]);
    }
    print_table(
        "Fig 2(c): cluster sensitivity (GCN on Google, hid 256)",
        &["cluster", "DepCache(s)", "DepComm(s)", "winner"],
        &rows,
    );

    save_json("fig02", artifacts);
}
