//! Figure 13 — GPU / network-send / ingress utilization traces during GCN
//! training on Orkut (ECS-16), for DistDGL-like, ROC-like, DepCache,
//! DepComm, and Hybrid.
//!
//! Paper shape: DepCache pegs the GPU (~99%) via redundant work; Hybrid
//! (~60%) > DepComm (~40%) > ROC (~10%) thanks to overlap; DistDGL is
//! lowest (~11%, sampler-bound) while using the most bandwidth.

use bench::{dataset, model_for, print_table, save_json, RunSpec};
use ns_baselines::{DistDglConfig, DistDglLike};
use ns_gnn::ModelKind;
use ns_metrics::obj;
use ns_net::sim::ResourceKind;
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::{utilization_trace, EngineKind};

const BUCKETS: usize = 20;

fn main() {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let ds = dataset("orkut");
    let model = model_for(&ds, ModelKind::Gcn);
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();

    let mut record = |system: &str,
                      device: f64,
                      nic_out: f64,
                      bytes_per_s: f64,
                      device_series: Vec<f64>| {
        rows.push(vec![
            system.to_string(),
            format!("{:.1}%", device * 100.0),
            format!("{:.1}%", nic_out * 100.0),
            format!("{:.2} MB/s", bytes_per_s / 1e6),
        ]);
        artifacts.push(obj! {
            "system": system,
            "device_util": device,
            "nic_util": nic_out,
            "bytes_per_second": bytes_per_s,
            "device_series": device_series,
        });
    };

    for (label, engine, opts, broadcast) in [
        ("DepCache", EngineKind::DepCache, ExecOptions::all(), false),
        ("DepComm", EngineKind::DepComm, ExecOptions::all(), false),
        ("Hybrid", EngineKind::Hybrid, ExecOptions::all(), false),
        ("ROC", EngineKind::DepComm, ExecOptions::none(), true),
    ] {
        let mut spec = RunSpec::new(&ds, &model, engine, cluster.clone())
            .opts(opts)
            .no_memory_check();
        if broadcast {
            spec = spec.broadcast();
        }
        let sim = spec.simulate().expect("simulate");
        let end = sim.report.makespan;
        // Worker 0's device utilization over the epoch window.
        let series = utilization_trace(&sim.report, 0, ResourceKind::Device, BUCKETS);
        let bytes_per_s = sim.bytes_per_epoch as f64 / end / cluster.workers as f64;
        record(label, sim.device_utilization, sim.nic_utilization, bytes_per_s, series);
    }

    // DistDGL-like: serialized fetch->train loop; flat utilization derived
    // from its pipeline model.
    let dgl = DistDglLike::new(&ds, &model, cluster.clone(), DistDglConfig::default());
    let report = dgl.train(1);
    let series = vec![report.device_utilization; BUCKETS];
    let bytes_per_s =
        report.bytes_per_epoch as f64 / report.epoch_seconds / cluster.workers as f64;
    record(
        "DistDGL",
        report.device_utilization,
        (report.fetch_seconds / report.epoch_seconds).min(1.0),
        bytes_per_s,
        series,
    );

    print_table(
        "Fig 13: utilization during GCN on Orkut (ECS-16), per-epoch window",
        &["system", "GPU util", "NIC util", "net recv"],
        &rows,
    );
    save_json("fig13", artifacts);
}
