//! The paper's evaluation (§5): one function per table, figure or
//! ablation, each returning the records it writes to `results/<id>.json`.
//!
//! `experiments [id...]` runs the named experiments (all of them when none
//! is named) in one process, prints each one's records as a table and
//! saves them. Every experiment is a pure function of the tree: the
//! figures are simulated from metered FLOPs and Fig. 14 trains
//! bit-exactly, so a second run writes the same bytes.

use bench::{bench_scale, dataset, epoch_s, model_for, print_records, save_json, unchecked, SEED};
use ns_baselines::{shared_memory_row, DistDglConfig, DistDglLike, SharedMemorySystem, SysResult};
use ns_gnn::{GnnModel, ModelKind};
use ns_graph::{stats::replication_stats, Partitioner};
use ns_metrics::json::Json;
use ns_metrics::obj;
use ns_net::sim::ResourceKind;
use ns_net::{ClusterSpec, ExecOptions, SyncMode};
use ns_runtime::trainer::{Trainer, TrainerConfig};
use ns_runtime::{sim_breakdown, utilization_trace, EngineKind, HybridConfig, RuntimeError};

use EngineKind::{DepCache, DepComm, Hybrid};

/// An experiment computes the records of its table or figure.
type Experiment = fn() -> Vec<Json>;

/// Every experiment, in the order a full run regenerates them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table02", table02),
    ("fig02", fig02),
    ("fig09", fig09),
    ("table03", table03),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig15", fig15),
    ("table04", table04),
    ("table05", table05),
    ("ablation_sync", ablation_sync),
    ("ablation_depth", ablation_depth),
    ("fig14", fig14),
];

/// The seven large graphs of Fig. 9, Table 3 and Fig. 10.
const GRAPHS: [&str; 7] = [
    "google",
    "pokec",
    "livejournal",
    "reddit",
    "orkut",
    "wikilink",
    "twitter",
];

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = ids
        .iter()
        .find(|id| EXPERIMENTS.iter().all(|(known, _)| known != id))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment {unknown:?}; known: {}", known.join(" "));
        std::process::exit(2);
    }
    for (id, run) in EXPERIMENTS {
        if ids.is_empty() || ids.iter().any(|named| named == id) {
            let records = run();
            print_records(id, &records);
            save_json(id, records);
        }
    }
}

/// ROC-like: whole-block DepComm broadcast with no system optimizations.
fn roc_like(base: TrainerConfig) -> TrainerConfig {
    TrainerConfig {
        opts: ExecOptions::none(),
        broadcast_full_partition: true,
        ..base
    }
}

/// Table 2 — dataset registry: published statistics and the properties of
/// the scaled synthetic stand-ins this reproduction materializes.
fn table02() -> Vec<Json> {
    ns_graph::datasets::registry()
        .into_iter()
        .map(|spec| {
            let scale = bench_scale(spec.name);
            let ds = spec.materialize(scale, SEED);
            obj! {
                "name": spec.name,
                "paper": obj! {
                    "vertices": spec.vertices, "edges": spec.edges,
                    "feature_dim": spec.feature_dim, "classes": spec.num_classes,
                    "avg_degree": spec.avg_degree(), "hidden_dim": spec.hidden_dim,
                },
                "materialized": obj! {
                    "scale": scale,
                    "vertices": ds.graph.num_vertices(),
                    "edges": ds.graph.num_edges(),
                    "avg_degree": ds.graph.avg_degree(),
                },
            }
        })
        .collect()
}

/// Figure 2 — performance divergence between raw DepCache and DepComm.
///
/// (a) four graph inputs on the 8-node ECS cluster (GCN, hidden 256);
/// (b) hidden sizes {64, 256, 640} on Google;
/// (c) Google on the ECS cluster vs the 100 Gb/s IBV cluster.
///
/// Paper shape: DepCache wins on sparse graphs (Google 1.23x,
/// LiveJournal 1.03x), DepComm wins on dense ones (Pokec 1.54x,
/// Reddit 7.76x); wider hidden layers favor DepCache; the fast network
/// flips Google to DepComm (1.41x).
fn fig02() -> Vec<Json> {
    let (ecs, ibv) = (ClusterSpec::aliyun_ecs(8), ClusterSpec::ibv(8));
    // (panel, the field that labels its point, the label, graph, hidden, cluster)
    let mut panels = Vec::new();
    for g in ["google", "pokec", "reddit", "livejournal"] {
        panels.push(("a", "graph", Json::from(g), g, 256, &ecs));
    }
    for h in [64, 256, 640] {
        panels.push(("b", "hidden", Json::from(h), "google", h, &ecs));
    }
    for c in [&ecs, &ibv] {
        panels.push(("c", "cluster", c.name.as_str().into(), "google", 256, c));
    }
    panels
        .into_iter()
        .map(|(panel, key, value, name, hidden, cluster)| {
            let ds = dataset(name);
            let model = GnnModel::two_layer(
                ModelKind::Gcn,
                ds.feature_dim(),
                hidden,
                ds.num_classes,
                SEED,
            );
            let raw = |engine| {
                let cfg = TrainerConfig {
                    opts: ExecOptions::none(),
                    ..unchecked(engine, cluster)
                };
                epoch_s(&ds, &model, cfg).ok()
            };
            let mut record = obj! {
                "panel": panel, "depcache_s": raw(DepCache), "depcomm_s": raw(DepComm),
            };
            if let Json::Obj(fields) = &mut record {
                fields.insert(key.to_string(), value);
            }
            record
        })
        .collect()
}

/// Figure 9 — where NeutronStar's performance comes from: raw Hybrid vs
/// raw DepCache/DepComm, then the optimizations stacked one by one —
/// ring-based communication (R), lock-free message queuing (L), and
/// communication/computation overlap (P).
///
/// Paper shape (16-node ECS, GCN): raw Hybrid 1.63–10.34x over raw
/// DepCache and 1.24–1.68x over raw DepComm; +R ≈ 1.10–1.15x,
/// +L ≈ 1.08–1.12x, +P ≈ 1.19–1.41x on top.
fn fig09() -> Vec<Json> {
    let cluster = ClusterSpec::aliyun_ecs(16);
    GRAPHS
        .into_iter()
        .map(|name| {
            let ds = dataset(name);
            let model = model_for(&ds, ModelKind::Gcn);
            let run = |engine, opts| {
                let cfg = TrainerConfig {
                    opts,
                    ..unchecked(engine, &cluster)
                };
                epoch_s(&ds, &model, cfg).expect("simulation")
            };
            let raw_cache = run(DepCache, ExecOptions::none());
            let raw_comm = run(DepComm, ExecOptions::none());
            let raw_hybrid = run(Hybrid, ExecOptions::none());
            let r = run(
                Hybrid,
                ExecOptions {
                    ring: true,
                    lock_free: false,
                    overlap: false,
                },
            );
            let rl = run(
                Hybrid,
                ExecOptions {
                    ring: true,
                    lock_free: true,
                    overlap: false,
                },
            );
            let rlp = run(Hybrid, ExecOptions::all());
            obj! {
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
            }
        })
        .collect()
}

/// Table 3 — cost and benefit of Hybrid processing: 100-epoch runtime of
/// DepCache / DepComm / Hybrid (GCN, ECS-16) plus the one-time hybrid
/// dependency-partitioning overhead ("Preprocessing").
///
/// Paper shape: Hybrid beats both pure engines on every graph;
/// preprocessing is at most ~3% of the hybrid 100-epoch runtime.
fn table03() -> Vec<Json> {
    // Nominal traversal rate for the preprocessing cost (pointer-chasing
    // on the host CPU).
    const PREPROC_OPS_PER_SECOND: f64 = 300e6;
    let cluster = ClusterSpec::aliyun_ecs(16);
    GRAPHS
        .into_iter()
        .map(|name| {
            let ds = dataset(name);
            let model = model_for(&ds, ModelKind::Gcn);
            let epoch100 =
                |engine| epoch_s(&ds, &model, unchecked(engine, &cluster)).map(|t| t * 100.0);
            let trainer =
                Trainer::prepare(&ds, &model, unchecked(Hybrid, &cluster)).expect("hybrid prepare");
            let hybrid = trainer.simulate_epoch().epoch_seconds * 100.0;
            let info = trainer
                .train(0)
                .expect("plan stats")
                .plan
                .hybrid
                .expect("hybrid info");
            let preproc = info.preprocessing_seconds(PREPROC_OPS_PER_SECOND);
            obj! {
                "graph": name,
                "depcache_100ep_s": epoch100(DepCache).ok(),
                "depcomm_100ep_s": epoch100(DepComm).ok(),
                "hybrid_100ep_s": hybrid,
                "preprocessing_s": preproc,
                "preprocessing_pct": 100.0 * preproc / hybrid,
                "cached_fraction": info.cached_fraction(),
            }
        })
        .collect()
}

/// Figure 10 — overall per-epoch comparison: DistDGL-like, ROC-like,
/// DepCache, DepComm (all optimizations), and NeutronStar (Hybrid, all
/// optimizations) across GCN / GIN / GAT on seven graphs (ECS-16; ROC at
/// its best 4-node configuration, as in the paper).
///
/// Paper shape: NTS 1.83–14.25x over DistDGL, 1.81–5.29x over ROC,
/// 2.03–15.02x over DepCache, 1.19–1.69x over optimized DepComm. ROC and
/// DepCache OOM on several cases; ROC lacks GAT, DistDGL lacks GIN.
fn fig10() -> Vec<Json> {
    let (ecs16, ecs4) = (ClusterSpec::aliyun_ecs(16), ClusterSpec::aliyun_ecs(4));
    let mut records = Vec::new();
    for kind in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat] {
        for name in GRAPHS {
            let ds = dataset(name);
            let model = model_for(&ds, kind);
            // DistDGL-like: sampled mini-batch; no distributed GIN.
            let distdgl = (kind != ModelKind::Gin).then(|| {
                let dgl = DistDglLike::new(&ds, &model, ecs16.clone(), DistDglConfig::default());
                dgl.train(1).epoch_seconds
            });
            // ROC-like at 4 nodes; no GAT (no edge-NN support).
            let roc = (kind != ModelKind::Gat)
                .then(|| {
                    epoch_s(
                        &ds,
                        &model,
                        roc_like(TrainerConfig::new(DepComm, ecs4.clone())),
                    )
                })
                .and_then(Result::ok);
            let time =
                |engine| epoch_s(&ds, &model, TrainerConfig::new(engine, ecs16.clone())).ok();
            records.push(obj! {
                "model": kind.name(), "graph": name,
                "distdgl_s": distdgl,
                "roc_s": roc,
                "depcache_s": time(DepCache),
                "depcomm_s": time(DepComm),
                "nts_s": time(Hybrid),
            });
        }
    }
    records
}

/// Figure 11 — runtime vs the ratio of cached to communicated
/// dependencies, with the automatic (Algorithm 4) choice for reference.
///
/// Paper shape: neither extreme is optimal; the best point mixes both
/// treatments, and caching *all* dependencies OOMs for GAT on Orkut.
fn fig11() -> Vec<Json> {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let mut records = Vec::new();
    for (name, kind) in [("livejournal", ModelKind::Gcn), ("orkut", ModelKind::Gat)] {
        let ds = dataset(name);
        let model = model_for(&ds, kind);
        let case = format!("{}-{}", kind.name(), name);
        for r in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let hybrid = HybridConfig {
                ratio_override: Some(r),
                ..Default::default()
            };
            let cfg = TrainerConfig {
                hybrid,
                ..TrainerConfig::new(Hybrid, cluster.clone())
            };
            records.push(match Trainer::prepare(&ds, &model, cfg) {
                Ok(trainer) => {
                    let sim = trainer.simulate_epoch();
                    obj! {
                        "case": case.as_str(),
                        "cached_ratio": r,
                        "epoch_s": sim.epoch_seconds,
                        "comm_share_s": sim_breakdown(&sim.report).comm_s,
                    }
                }
                Err(RuntimeError::DeviceOom { .. }) => obj! {
                    "case": case.as_str(), "cached_ratio": r, "epoch_s": Json::Null, "oom": true,
                },
                Err(e) => panic!("unexpected: {e}"),
            });
        }
        // Algorithm 4's automatic point.
        let auto = Trainer::prepare(&ds, &model, TrainerConfig::new(Hybrid, cluster.clone()))
            .expect("auto hybrid");
        let hybrid = auto.train(0).expect("stats").plan.hybrid;
        records.push(obj! {
            "case": case,
            "cached_ratio": hybrid.map_or(0.0, |h| h.cached_fraction()),
            "epoch_s": auto.simulate_epoch().epoch_seconds,
            "auto": true,
        });
    }
    records
}

/// Figure 12 — scaling from 1 to 16 workers on Pokec, Reddit, Orkut, and
/// Wiki for DistDGL-like, ROC-like, DepCache, DepComm, and Hybrid.
///
/// Paper shape: DistDGL / DepComm / Hybrid improve with more nodes (near
/// linear for NTS); ROC scales poorly (whole-block transfers grow with
/// the cluster); DepCache barely scales (per-worker redundant work does
/// not shrink); small clusters OOM on big graphs for DepCache.
fn fig12() -> Vec<Json> {
    let mut records = Vec::new();
    for name in ["pokec", "reddit", "orkut", "wikilink"] {
        let ds = dataset(name);
        let model = model_for(&ds, ModelKind::Gcn);
        for workers in [1usize, 2, 4, 8, 16] {
            let cluster = ClusterSpec::aliyun_ecs(workers);
            let dgl = DistDglLike::new(&ds, &model, cluster.clone(), DistDglConfig::default());
            let roc = roc_like(TrainerConfig::new(DepComm, cluster.clone()));
            let time =
                |engine| epoch_s(&ds, &model, TrainerConfig::new(engine, cluster.clone())).ok();
            records.push(obj! {
                "graph": name, "workers": workers,
                "distdgl_s": dgl.train(1).epoch_seconds,
                "roc_s": epoch_s(&ds, &model, roc).ok(),
                "depcache_s": time(DepCache),
                "depcomm_s": time(DepComm),
                "hybrid_s": time(Hybrid),
            });
        }
    }
    records
}

/// Figure 13 — GPU / network-send / ingress utilization traces during GCN
/// training on Orkut (ECS-16), for DistDGL-like, ROC-like, DepCache,
/// DepComm, and Hybrid.
///
/// Paper shape: DepCache pegs the GPU (~99%) via redundant work; Hybrid
/// (~60%) > DepComm (~40%) > ROC (~10%) thanks to overlap; DistDGL is
/// lowest (~11%, sampler-bound) while using the most bandwidth.
fn fig13() -> Vec<Json> {
    const BUCKETS: usize = 20;
    let cluster = ClusterSpec::aliyun_ecs(16);
    let ds = dataset("orkut");
    let model = model_for(&ds, ModelKind::Gcn);
    let per_worker = |bytes: u64, seconds: f64| bytes as f64 / seconds / cluster.workers as f64;
    let systems = [
        ("DepCache", unchecked(DepCache, &cluster)),
        ("DepComm", unchecked(DepComm, &cluster)),
        ("Hybrid", unchecked(Hybrid, &cluster)),
        ("ROC", roc_like(unchecked(DepComm, &cluster))),
    ];
    let mut records: Vec<Json> = systems
        .into_iter()
        .map(|(system, cfg)| {
            let sim = Trainer::prepare(&ds, &model, cfg)
                .expect("simulate")
                .simulate_epoch();
            obj! {
                "system": system,
                "device_util": sim.device_utilization,
                "nic_util": sim.nic_utilization,
                "bytes_per_second": per_worker(sim.bytes_per_epoch, sim.report.makespan),
                // Worker 0's device utilization over the epoch window.
                "device_series": utilization_trace(&sim.report, 0, ResourceKind::Device, BUCKETS),
            }
        })
        .collect();
    // DistDGL-like: serialized fetch->train loop; flat utilization derived
    // from its pipeline model.
    let dgl = DistDglLike::new(&ds, &model, cluster.clone(), DistDglConfig::default()).train(1);
    records.push(obj! {
        "system": "DistDGL",
        "device_util": dgl.device_utilization,
        "nic_util": (dgl.fetch_seconds / dgl.epoch_seconds).min(1.0),
        "bytes_per_second": per_worker(dgl.bytes_per_epoch, dgl.epoch_seconds),
        "device_series": vec![dgl.device_utilization; BUCKETS],
    });
    records
}

/// Figure 15 — hybrid dependency management under different graph
/// partitioners: chunk-based, metis-like, and Fennel, for optimized
/// DepComm and Hybrid on Reddit, Orkut, and Wiki (ECS-16).
///
/// Paper shape: Hybrid beats DepComm under *every* partitioner (1.21–1.48x
/// chunk, 1.12–1.23x METIS, 1.17–1.32x Fennel) — dependency management is
/// orthogonal to graph partitioning.
fn fig15() -> Vec<Json> {
    let cluster = ClusterSpec::aliyun_ecs(16);
    let mut records = Vec::new();
    for name in ["reddit", "orkut", "wikilink"] {
        let ds = dataset(name);
        let model = model_for(&ds, ModelKind::Gcn);
        for partitioner in [
            Partitioner::Chunk,
            Partitioner::MetisLike,
            Partitioner::Fennel,
        ] {
            let time = |engine| {
                let cfg = TrainerConfig {
                    partitioner,
                    ..unchecked(engine, &cluster)
                };
                epoch_s(&ds, &model, cfg).expect("simulate")
            };
            let (comm, hybrid) = (time(DepComm), time(Hybrid));
            records.push(obj! {
                "graph": name,
                "partitioner": partitioner.name(),
                "depcomm_s": comm,
                "hybrid_s": hybrid,
                "speedup": comm / hybrid,
            });
        }
    }
    records
}

/// Table 4 — comparison with shared-memory CPU systems: DGL-CPU-like,
/// PyG-CPU-like, single-node NeutronStar-CPU, and distributed NeutronStar
/// on 16 GPUs, running GCN on four medium graphs.
///
/// Paper shape: PyG-CPU OOMs on the three large graphs (dense adjacency);
/// NTS on 16 GPUs is fastest everywhere.
fn table04() -> Vec<Json> {
    let (cpu, gpu16) = (ClusterSpec::cpu_single(), ClusterSpec::aliyun_ecs(16));
    ["google", "pokec", "livejournal", "reddit"]
        .into_iter()
        .map(|name| {
            let ds = dataset(name);
            let model = model_for(&ds, ModelKind::Gcn);
            let cpu_s = |sys| match shared_memory_row(sys, &ds, &model, &cpu) {
                SysResult::Time(t) => Some(t),
                SysResult::Oom => None,
            };
            obj! {
                "graph": name,
                "dgl_cpu_s": cpu_s(SharedMemorySystem::DglCpu),
                "pyg_cpu_s": cpu_s(SharedMemorySystem::PygLike),
                "nts_cpu_s": cpu_s(SharedMemorySystem::Nts),
                "nts_16gpu_s": epoch_s(&ds, &model, TrainerConfig::new(Hybrid, gpu16.clone())).ok(),
            }
        })
        .collect()
}

/// Table 5 — single-GPU comparison on small graphs: ROC-like, DGL-like,
/// PyG-like, and NTS running GCN and GAT on Cora, Citeseer, Pubmed, and
/// Google.
///
/// Paper shape: NTS is comparable with DGL/PyG on the citation graphs
/// (PyG fastest on the smallest), 1.96–5.18x over ROC on GCN; ROC lacks
/// GAT; DGL and PyG OOM on Google while NTS completes.
fn table05() -> Vec<Json> {
    use SharedMemorySystem::{DglLike, Nts, PygLike, RocSingle};
    let gpu = ClusterSpec::aliyun_ecs(1);
    let graphs = ["cora", "citeseer", "pubmed", "google"].map(|name| (name, dataset(name)));
    let mut records = Vec::new();
    for kind in [ModelKind::Gcn, ModelKind::Gat] {
        for sys in [RocSingle, DglLike, PygLike, Nts] {
            for (name, ds) in &graphs {
                // ROC has no edge-NN support and cannot run GAT.
                let result = (sys != RocSingle || kind != ModelKind::Gat)
                    .then(|| shared_memory_row(sys, ds, &model_for(ds, kind), &gpu));
                records.push(obj! {
                    "model": kind.name(), "system": sys.name(), "graph": *name,
                    "ms": match result {
                        Some(SysResult::Time(t)) => Some(t * 1e3),
                        _ => None,
                    },
                    "oom": matches!(result, Some(SysResult::Oom)),
                });
            }
        }
    }
    records
}

/// Ablation: ring all-reduce vs parameter-server gradient synchronization
/// across cluster sizes (the paper notes the all-reduce "is orthogonal to
/// and can be replaced by the Parameter-Server model" — this quantifies
/// the cost of that replacement).
///
/// Expected shape: PS wins or ties at small scale / small models
/// (fewer latency-bound rounds), loses increasingly at larger worker
/// counts where its server NIC serializes 2(m-1) full-gradient copies.
fn ablation_sync() -> Vec<Json> {
    let ds = dataset("pokec");
    let model = model_for(&ds, ModelKind::Gcn);
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|workers| {
            let cluster = ClusterSpec::aliyun_ecs(workers);
            let time = |sync| {
                let cfg = TrainerConfig {
                    sync,
                    ..unchecked(Hybrid, &cluster)
                };
                epoch_s(&ds, &model, cfg).expect("simulate")
            };
            obj! {
                "workers": workers,
                "allreduce_s": time(SyncMode::AllReduce),
                "parameter_server_s": time(SyncMode::ParameterServer),
            }
        })
        .collect()
}

/// Ablation: model depth vs the dependency explosion.
///
/// The k-hop closure a DepCache worker must replicate grows with every
/// added layer (§2.2: "DepCache needs to retrieve not only a vertex's
/// direct in-neighbors but also all its {2..k}-hop in-neighbors"), while
/// DepComm adds only one more round of boundary communication. This sweep
/// quantifies that asymmetry — the regime where the hybrid cost model's
/// caching decisions become increasingly selective.
fn ablation_depth() -> Vec<Json> {
    let ds = dataset("pokec");
    let cluster = ClusterSpec::aliyun_ecs(8);
    let part = Partitioner::Chunk.partition(&ds.graph, 8);
    (1usize..=4)
        .map(|layers| {
            let mut dims = vec![ds.feature_dim()];
            dims.extend(std::iter::repeat_n(ds.hidden_dim, layers - 1));
            dims.push(ds.num_classes);
            let model = GnnModel::new(ModelKind::Gcn, &dims, SEED);
            let time = |engine| epoch_s(&ds, &model, unchecked(engine, &cluster)).ok();
            obj! {
                "layers": layers,
                "replication_factor": replication_stats(&ds.graph, &part, layers).replication_factor,
                "depcache_s": time(DepCache),
                "depcomm_s": time(DepComm),
                "hybrid_s": time(Hybrid),
            }
        })
        .collect()
}

/// Figure 14 — accuracy vs (simulated) training time on the Reddit-like
/// dataset: Hybrid, DepComm, and DepCache (full-graph training, 16
/// workers) against DepCache-with-sampling (the DGL sampling strategy).
///
/// Paper shape: full-graph engines converge to the same accuracy (~95%),
/// above the sampling ceiling (~93.9%); Hybrid reaches the target
/// accuracy fastest because its per-epoch time is lowest; DepCache is
/// slowest despite identical numerics.
fn fig14() -> Vec<Json> {
    const EPOCHS: usize = 60;
    let cluster = ClusterSpec::aliyun_ecs(16);
    let ds = dataset("reddit");
    let model = model_for(&ds, ModelKind::Gcn);
    // One `[simulated seconds, test accuracy]` point per epoch.
    let record = |system: &str, epoch_seconds: f64, accs: Vec<f64>| {
        let curve: Vec<Vec<f64>> = (1..)
            .zip(&accs)
            .map(|(epoch, &acc)| vec![epoch as f64 * epoch_seconds, acc])
            .collect();
        obj! {
            "system": system,
            "epoch_seconds": epoch_seconds,
            "best_test_acc": accs.iter().copied().fold(0.0, f64::max),
            "curve": curve,
        }
    };
    let mut records: Vec<Json> = [Hybrid, DepComm, DepCache]
        .into_iter()
        .map(|engine| {
            let trainer =
                Trainer::prepare(&ds, &model, unchecked(engine, &cluster)).expect("prepare");
            let report = trainer.train(EPOCHS).expect("train");
            let accs = report.epochs.iter().map(|e| e.test_acc).collect();
            record(&report.engine, report.sim.epoch_seconds, accs)
        })
        .collect();
    // DepCache-sampling (DGL sampling, as in the paper's comparison).
    let config = DistDglConfig {
        batch_size: 128,
        ..Default::default()
    };
    let dgl = DistDglLike::new(&ds, &model, cluster, config).train(EPOCHS);
    let accs = dgl.epochs.iter().map(|e| e.test_acc).collect();
    records.push(record("DepCache-sampling", dgl.epoch_seconds, accs));
    records
}
