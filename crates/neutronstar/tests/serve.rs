//! End-to-end serving integration: train with a durable checkpoint
//! store, load the newest generation back the way `nts serve` does, and
//! answer sharded k-hop inference queries over the partitioned graph.
//!
//! The two invariants under test:
//!
//! 1. **Exactness** — every sharded answer (including rows fetched from
//!    peer shards) equals the class a full-graph inference pass assigns
//!    from the same checkpoint.
//! 2. **Graceful degradation** — killing a shard mid-run slows answers
//!    down (reroutes, mirror fallbacks) but drops nothing, and the
//!    answers that reroute are still exact.

use std::path::PathBuf;

use neutronstar::prelude::*;
use ns_gnn::inference::infer;
use ns_net::fault::FaultPlan;
use ns_runtime::serve::load::OpenLoop;
use ns_runtime::{CheckpointStore, RecoveryConfig, ServeConfig, ServeDeployment};
use ns_tensor::nn::ParamStore;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nts-serve-it-{tag}-{}", std::process::id()))
}

/// Trains a small GCN with a durable store, then loads the newest
/// generation back through the operator path.
fn train_and_load(tag: &str) -> (ns_graph::Dataset, GnnModel, ParamStore) {
    let ds = DatasetSpec::named("cora").unwrap().materialize(0.2, 42);
    let model =
        GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 32, ds.num_classes, 42);
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let session = TrainingSession::builder()
        .recovery(RecoveryConfig::every(1))
        .checkpoint_dir(&dir)
        .build(&ds, &model)
        .expect("build session");
    session.train(2).expect("train");
    drop(session);

    let store = CheckpointStore::open(&dir, 3).expect("open store");
    let loaded = store.load_latest();
    assert_eq!(loaded.fallbacks, 0, "undamaged store needed no fallbacks");
    let ckpt = loaded.checkpoint.expect("an intact generation on disk");
    let (params, _) = ckpt.restore().expect("restore");
    let params = params.expect("trained parameters in the checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    (ds, model, params)
}

#[test]
fn durable_checkpoint_serves_answers_equal_to_full_graph_inference() {
    let (ds, model, params) = train_and_load("equiv");
    let reference = infer(&ds, &model, &params);

    let cfg = ServeConfig { shards: 3, ..ServeConfig::default() };
    let deploy = ServeDeployment::new(&ds, &model, params, cfg).expect("deployment");
    let n = ds.graph.num_vertices() as u32;
    let seeds: Vec<u32> = (0..120).map(|i| (i * 131) % n).collect();
    let report = deploy.answer_all(&seeds).expect("serve");

    assert_eq!(report.answers.len(), seeds.len());
    assert_eq!(report.dropped, 0);
    for a in &report.answers {
        assert_eq!(
            a.class as usize, reference.predictions[a.seed as usize],
            "sharded answer for vertex {} diverged from full-graph inference",
            a.seed
        );
    }
    // Cross-shard traffic actually happened (the partition boundary is
    // exercised, not just local rows).
    let fetched = report.metrics.total_counter("serve.rows.fetched");
    assert!(fetched > 0, "expected cross-shard feature fetches");
}

#[test]
fn killed_shard_degrades_latency_but_answers_stay_exact_and_complete() {
    let (ds, model, params) = train_and_load("fault");
    let reference = infer(&ds, &model, &params);

    let mut fault = FaultPlan::default().with_seed(42);
    fault.push_spec("kill:w2@e60").expect("fault spec");
    let cfg = ServeConfig {
        shards: 2,
        reply_timeout_ms: 150,
        fault,
        ..ServeConfig::default()
    };
    let deploy = ServeDeployment::new(&ds, &model, params, cfg).expect("deployment");
    let load = OpenLoop { queries: 200, rate_qps: 1_500.0, seed: 42, zipf_s: 0.9 };
    let report = deploy.run_open_loop(&load).expect("serve under fault");

    // Zero-drop guarantee: everything admitted was answered, even the
    // batch in flight at the dead shard.
    assert_eq!(report.dropped, 0, "shard loss dropped queries");
    assert_eq!(
        report.answers.len() as u64 + report.rejected,
        report.offered,
        "answers + rejects must account for every offered query"
    );
    assert_eq!(report.shard_deaths, 1, "the kill fault must fire exactly once");
    assert!(report.reroutes > 0, "orphaned queries must reroute to the survivor");
    // Degraded answers are still exact: the survivor reads dead-owner
    // rows from the replicated mirror, which holds the same features.
    let seeds = load.seeds(ds.graph.num_vertices() as u32);
    for a in &report.answers {
        assert_eq!(a.seed, seeds[a.qid as usize], "answer paired with wrong query");
        assert_eq!(
            a.class as usize, reference.predictions[a.seed as usize],
            "rerouted answer for vertex {} diverged",
            a.seed
        );
    }
}

#[test]
fn long_run_keeps_its_feature_cache() {
    // Every batch builds closure-sized matrices whose sizes differ from
    // batch to batch. None of them may press on the tensor pool: 12k
    // queries at the default budget must never shed a cached row, and the
    // last third must hit the cache as often as the first.
    let (ds, model, params) = train_and_load("longrun");
    let cfg = ServeConfig { shards: 2, ..ServeConfig::default() };
    let deploy = ServeDeployment::new(&ds, &model, params, cfg).expect("deployment");
    let load = OpenLoop { queries: 4_000, rate_qps: 1.0, seed: 7, zipf_s: 0.9 };
    let seeds = load.seeds(ds.graph.num_vertices() as u32);
    let thirds: Vec<_> = (0..3).map(|_| deploy.answer_all(&seeds).expect("serve")).collect();
    for (i, third) in thirds.iter().enumerate() {
        assert_eq!(third.answers.len(), seeds.len());
        assert_eq!(
            third.metrics.total_counter("serve.cache.shed"),
            0,
            "third {i} shed cache rows with no fault injected"
        );
    }
    let (first, last) = (thirds[0].cache_hit_ratio(), thirds[2].cache_hit_ratio());
    assert!(first > 0.5, "Zipf 0.9 seeds over a cache that holds the graph: {first}");
    assert!(last >= first - 0.02, "hit ratio decayed over the run: {first} -> {last}");
}
