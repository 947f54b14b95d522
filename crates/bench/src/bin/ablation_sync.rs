//! Ablation: ring all-reduce vs parameter-server gradient synchronization
//! across cluster sizes (the paper notes the all-reduce "is orthogonal to
//! and can be replaced by the Parameter-Server model" — this quantifies
//! the cost of that replacement).
//!
//! Expected shape: PS wins or ties at small scale / small models
//! (fewer latency-bound rounds), loses increasingly at larger worker
//! counts where its server NIC serializes 2(m-1) full-gradient copies.

use bench::{dataset, model_for, print_table, save_json, RunSpec};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::EngineKind;
use ns_runtime::exec::SyncMode;

fn main() {
    let ds = dataset("pokec");
    let model = model_for(&ds, ModelKind::Gcn);
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for workers in [2usize, 4, 8, 16] {
        let time = |sync: SyncMode| {
            RunSpec::new(&ds, &model, EngineKind::Hybrid, ClusterSpec::aliyun_ecs(workers))
                .sync(sync)
                .no_memory_check()
                .epoch_seconds()
                .expect("simulate")
        };
        let ring = time(SyncMode::AllReduce);
        let ps = time(SyncMode::ParameterServer);
        rows.push(vec![
            workers.to_string(),
            format!("{ring:.5}"),
            format!("{ps:.5}"),
            format!("{:.2}x", ps / ring),
        ]);
        artifacts.push(obj! {
            "workers": workers,
            "allreduce_s": ring,
            "parameter_server_s": ps,
        });
    }
    print_table(
        "Ablation: gradient sync (GCN on pokec, Hybrid engine)",
        &["workers", "all-reduce(s)", "param-server(s)", "ps/ring"],
        &rows,
    );
    save_json("ablation_sync", artifacts);
}
