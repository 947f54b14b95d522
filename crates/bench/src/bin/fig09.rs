//! Figure 9 — where NeutronStar's performance comes from: raw Hybrid vs
//! raw DepCache/DepComm, then the optimizations stacked one by one —
//! ring-based communication (R), lock-free message queuing (L), and
//! communication/computation overlap (P).
//!
//! Paper shape (16-node ECS, GCN): raw Hybrid 1.63–10.34x over raw
//! DepCache and 1.24–1.68x over raw DepComm; +R ≈ 1.10–1.15x,
//! +L ≈ 1.08–1.12x, +P ≈ 1.19–1.41x on top.

use bench::{dataset, model_for, print_table, save_json, RunSpec};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::EngineKind;

fn main() {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let graphs = ["google", "pokec", "livejournal", "reddit", "orkut", "wikilink", "twitter"];
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();

    for name in graphs {
        let ds = dataset(name);
        let model = model_for(&ds, ModelKind::Gcn);
        let run = |engine: EngineKind, opts: ExecOptions| -> f64 {
            RunSpec::new(&ds, &model, engine, cluster.clone())
                .opts(opts)
                .no_memory_check()
                .epoch_seconds()
                .expect("simulation")
        };
        let raw_cache = run(EngineKind::DepCache, ExecOptions::none());
        let raw_comm = run(EngineKind::DepComm, ExecOptions::none());
        let raw_hybrid = run(EngineKind::Hybrid, ExecOptions::none());
        let r = run(
            EngineKind::Hybrid,
            ExecOptions { ring: true, lock_free: false, overlap: false },
        );
        let rl = run(
            EngineKind::Hybrid,
            ExecOptions { ring: true, lock_free: true, overlap: false },
        );
        let rlp = run(EngineKind::Hybrid, ExecOptions::all());

        let sp = |t: f64| format!("{:.2}x", raw_cache / t);
        rows.push(vec![
            name.to_string(),
            "1.00x".to_string(),
            sp(raw_comm),
            sp(raw_hybrid),
            sp(r),
            sp(rl),
            sp(rlp),
        ]);
        artifacts.push(obj! {
            "graph": name,
            "raw_depcache_s": raw_cache,
            "raw_depcomm_s": raw_comm,
            "raw_hybrid_s": raw_hybrid,
            "hybrid_r_s": r,
            "hybrid_rl_s": rl,
            "hybrid_rlp_s": rlp,
            "hybrid_over_cache": raw_cache / raw_hybrid,
            "hybrid_over_comm": raw_comm / raw_hybrid,
            "gain_r": raw_hybrid / r,
            "gain_l": r / rl,
            "gain_p": rl / rlp,
        });
    }

    print_table(
        "Fig 9: speedup over raw DepCache (GCN, ECS-16); R=ring L=lock-free P=overlap",
        &["graph", "DepCache", "DepComm", "Hybrid", "Hybrid+R", "+RL", "+RLP"],
        &rows,
    );
    save_json("fig09", artifacts);
}
