//! Figure 11 — runtime vs the ratio of cached to communicated
//! dependencies, with the automatic (Algorithm 4) choice for reference.
//!
//! Paper shape: neither extreme is optimal; the best point mixes both
//! treatments, and caching *all* dependencies OOMs for GAT on Orkut.

use bench::{dataset, model_for, print_table, save_json, RunSpec};
use ns_gnn::ModelKind;
use ns_metrics::json::Json;
use ns_metrics::obj;
use ns_net::ClusterSpec;
use ns_runtime::{sim_breakdown, EngineKind, RuntimeError};

fn main() {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let cases = [("livejournal", ModelKind::Gcn), ("orkut", ModelKind::Gat)];
    let ratios = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut artifacts = Vec::new();

    for (name, kind) in cases {
        let ds = dataset(name);
        let model = model_for(&ds, kind);
        let mut rows = Vec::new();
        for r in ratios {
            let sim = RunSpec::new(&ds, &model, EngineKind::Hybrid, cluster.clone())
                .ratio(r)
                .simulate();
            match sim {
                Ok(s) => {
                    let b = sim_breakdown(&s.report);
                    rows.push(vec![
                        format!("{:.0}%", r * 100.0),
                        format!("{:.4}", s.epoch_seconds),
                        format!("{:.4}", b.comm_s),
                        format!("{:.4}", b.compute_s),
                    ]);
                    artifacts.push(obj! {
                        "case": format!("{}-{}", kind.name(), name),
                        "cached_ratio": r,
                        "epoch_s": s.epoch_seconds,
                        "comm_share_s": b.comm_s,
                    });
                }
                Err(RuntimeError::DeviceOom { .. }) => {
                    rows.push(vec![
                        format!("{:.0}%", r * 100.0),
                        "OOM".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    artifacts.push(obj! {
                        "case": format!("{}-{}", kind.name(), name),
                        "cached_ratio": r,
                        "epoch_s": Json::Null,
                        "oom": true,
                    });
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // Algorithm 4's automatic point.
        let auto = RunSpec::new(&ds, &model, EngineKind::Hybrid, cluster.clone())
            .prepare()
            .expect("auto hybrid");
        let auto_time = auto.simulate_epoch().epoch_seconds;
        let auto_frac = auto
            .train(0)
            .expect("stats")
            .plan
            .hybrid
            .map(|h| h.cached_fraction())
            .unwrap_or(0.0);
        rows.push(vec![
            format!("auto ({:.0}%)", auto_frac * 100.0),
            format!("{:.4}", auto_time),
            "-".into(),
            "-".into(),
        ]);
        artifacts.push(obj! {
            "case": format!("{}-{}", kind.name(), name),
            "cached_ratio": auto_frac,
            "epoch_s": auto_time,
            "auto": true,
        });
        print_table(
            &format!("Fig 11: {} on {} — cached-ratio sweep (ECS-16)", kind.name(), name),
            &["cached", "epoch(s)", "comm(s)", "compute(s)"],
            &rows,
        );
    }
    save_json("fig11", artifacts);
}
