//! Table 4 — comparison with shared-memory CPU systems: DGL-CPU-like,
//! PyG-CPU-like, single-node NeutronStar-CPU, and distributed NeutronStar
//! on 16 GPUs, running GCN on four medium graphs.
//!
//! Paper shape: PyG-CPU OOMs on the three large graphs (dense adjacency);
//! NTS on 16 GPUs is fastest everywhere.

use bench::{cell, dataset, model_for, print_table, save_json, RunSpec};
use ns_baselines::{shared_memory_row, SharedMemorySystem, SysResult};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::EngineKind;

fn sys_cell(r: &SysResult) -> String {
    match r {
        SysResult::Time(t) => format!("{t:.4}"),
        SysResult::Oom => "OOM".to_string(),
    }
}

fn main() {
    let cpu = ClusterSpec::cpu_single();
    let gpu16 = ClusterSpec::aliyun_ecs(16);
    let graphs = ["google", "pokec", "livejournal", "reddit"];
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();

    for name in graphs {
        let ds = dataset(name);
        let model = model_for(&ds, ModelKind::Gcn);
        let dgl = shared_memory_row(SharedMemorySystem::DglCpu, &ds, &model, &cpu);
        let pyg = shared_memory_row(SharedMemorySystem::PygLike, &ds, &model, &cpu);
        let nts_cpu = shared_memory_row(SharedMemorySystem::Nts, &ds, &model, &cpu);
        let nts16 =
            RunSpec::new(&ds, &model, EngineKind::Hybrid, gpu16.clone()).epoch_seconds();
        rows.push(vec![
            name.to_string(),
            sys_cell(&dgl),
            sys_cell(&pyg),
            sys_cell(&nts_cpu),
            cell(&nts16),
        ]);
        let t = |r: &SysResult| match r {
            SysResult::Time(t) => Some(*t),
            SysResult::Oom => None,
        };
        artifacts.push(obj! {
            "graph": name,
            "dgl_cpu_s": t(&dgl),
            "pyg_cpu_s": t(&pyg),
            "nts_cpu_s": t(&nts_cpu),
            "nts_16gpu_s": nts16.as_ref().ok().copied(),
        });
    }

    print_table(
        "Table 4: shared-memory CPU systems vs NTS (GCN, per-epoch seconds)",
        &["graph", "DGL-CPU", "PyG-CPU", "NTS-CPU", "NTS-16GPU"],
        &rows,
    );
    save_json("table04", artifacts);
}
