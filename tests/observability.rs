//! Observability acceptance tests: a metered 4-worker hybrid run produces
//! machine-parseable JSON and Chrome-trace artifacts, its per-kind /
//! per-peer traffic counters partition the fabric totals exactly, and the
//! all-reduce traffic matches the analytic ring formula — keeping the
//! streaming sink writers honest against `ns_metrics::json`'s parser (which
//! shares nothing with them but the string escaper) and the fabric metering
//! honest against arithmetic it does not share.

use neutronstar::metrics::json::Json;
use neutronstar::metrics::{to_chrome_trace, to_json, Phase};
use neutronstar::prelude::*;
use ns_graph::datasets::by_name;
use ns_net::fabric::ALLREDUCE_HEADER_BYTES;
use ns_net::KIND_NAMES;

const WORKERS: usize = 4;
const EPOCHS: usize = 2;

/// The metered run, and the input rows of each worker's plan per layer.
fn metered_run_and_input_rows() -> (TrainingReport, Vec<Vec<u64>>) {
    let ds = by_name("cora").unwrap().materialize(0.2, 7);
    let model =
        GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
    let session = TrainingSession::builder()
        .engine(EngineKind::Hybrid)
        .cluster(ClusterSpec::aliyun_ecs(WORKERS))
        .build(&ds, &model)
        .expect("plan");
    let input_rows = |plan: &ns_runtime::plan::WorkerPlan| {
        plan.layers.iter().map(|l| l.input_ids.len() as u64).collect()
    };
    let rows = session.trainer().plans().iter().map(input_rows).collect();
    (session.train(EPOCHS).expect("train"), rows)
}

fn metered_run() -> TrainingReport {
    metered_run_and_input_rows().0
}

#[test]
fn frames_cover_every_worker_and_phase_times_fit_the_wall() {
    let report = metered_run();
    let run = &report.metrics;
    assert_eq!(run.worker_ids(), (0..WORKERS).collect::<Vec<_>>());
    assert!(run.wall_s > 0.0);
    for frame in run.frames.values() {
        for phase in
            [Phase::FwdCompute, Phase::BwdCompute, Phase::SyncWait, Phase::OptStep]
        {
            assert!(
                frame.phase_total_ns(phase) > 0,
                "worker {} spent no time in {phase:?}",
                frame.worker
            );
        }
        assert!(!frame.spans.is_empty());
        // Phases are disjoint segments of the worker's run, so their sum
        // must fit inside the run's wall time (generous scheduler slack).
        let phase_sum_s: f64 =
            frame.phase_ns.values().map(|&ns| ns as f64 / 1e9).sum();
        assert!(
            phase_sum_s <= run.wall_s * 1.25 + 0.05,
            "worker {}: phase sum {phase_sum_s:.4}s exceeds wall {:.4}s",
            frame.worker,
            run.wall_s
        );
        // Both model layers were split into graph-op vs NN-op time.
        assert_eq!(frame.layer_split.len(), 2);
    }
}

#[test]
fn per_kind_and_per_peer_counters_partition_the_totals() {
    let (report, input_rows) = metered_run_and_input_rows();
    for frame in report.metrics.frames.values() {
        for unit in ["bytes", "msgs"] {
            let total = frame.counter(&format!("net.sent.{unit}"));
            assert!(total > 0, "worker {} sent nothing", frame.worker);
            let by_kind: u64 = KIND_NAMES
                .iter()
                .map(|k| frame.counter(&format!("net.sent.{unit}.{k}")))
                .sum();
            assert_eq!(by_kind, total, "worker {} {unit} by kind", frame.worker);
            let by_peer: u64 = (0..WORKERS)
                .map(|p| frame.counter(&format!("net.sent.{unit}.peer{p}")))
                .sum();
            assert_eq!(by_peer, total, "worker {} {unit} by peer", frame.worker);
        }
        // Every dependency row of every epoch is metered exactly once,
        // never silently unaccounted: as local (copied out of the worker's
        // own storage, cached replicas included), as fetched (received
        // from its master), or — layer 0 after the first epoch, whose
        // input is the unchanging feature matrix — as reused (served by
        // the prefix saved from the epoch that did move the rows).
        let [local, fetched, reused] =
            ["local", "fetched", "reused"].map(|k| frame.counter(&format!("dep.rows.{k}")));
        assert!(local > 0, "worker {} metered no local rows", frame.worker);
        let rows = &input_rows[frame.worker];
        assert_eq!(
            local + fetched + reused,
            EPOCHS as u64 * rows.iter().sum::<u64>(),
            "worker {} dependency rows",
            frame.worker
        );
        assert_eq!(reused, (EPOCHS as u64 - 1) * rows[0], "worker {} reused", frame.worker);
    }
}

/// Ring all-reduce moves each of the P gradient elements (m - 1) times in
/// the reduce-scatter phase and (m - 1) times in the all-gather phase, in
/// 2(m - 1) messages per worker per epoch. The fabric's byte meter must
/// land on that closed form exactly.
#[test]
fn allreduce_traffic_matches_the_ring_closed_form() {
    let report = metered_run();
    let p: usize = report.final_params.iter().map(|(_, _, t)| t.len()).sum();
    let run = &report.metrics;
    let msgs = run.total_counter("net.sent.msgs.allreduce");
    assert_eq!(msgs, (WORKERS * 2 * (WORKERS - 1) * EPOCHS) as u64);
    let payload = (2 * (WORKERS - 1) * p * EPOCHS * std::mem::size_of::<f32>()) as u64;
    assert_eq!(
        run.total_counter("net.sent.bytes.allreduce"),
        msgs * ALLREDUCE_HEADER_BYTES + payload
    );
}

#[test]
fn json_sink_parses_and_mirrors_the_frames() {
    let report = metered_run();
    let v = Json::parse(&to_json(&report.metrics)).expect("valid JSON");
    assert_eq!(v["schema"].as_str(), Some("ns-metrics/v1"));
    assert!(v["wall_s"].as_f64().unwrap() > 0.0);
    let workers = v["workers"].as_arr().expect("workers array");
    assert_eq!(workers.len(), WORKERS, "no coordinator without recovery");
    for (frame, entry) in report.metrics.frames.values().zip(workers) {
        assert_eq!(entry["worker"].as_f64(), Some(frame.worker as f64));
        assert_eq!(
            entry["counters"]["net.sent.bytes"].as_f64(),
            Some(frame.counter("net.sent.bytes") as f64)
        );
        assert!(!entry["phases"].as_arr().unwrap().is_empty());
        assert_eq!(entry["layers"].as_arr().unwrap().len(), 2);
        let wait = &entry["histograms"]["net.recv.wait_ns"];
        assert!(wait["count"].as_f64().unwrap() > 0.0);
        assert!(wait["p99"].as_f64().unwrap() >= wait["p50"].as_f64().unwrap());
    }
}

#[test]
fn trace_sink_is_perfetto_shaped_with_one_track_per_worker() {
    let report = metered_run();
    let v = Json::parse(&to_chrome_trace(&report.metrics)).expect("valid JSON");
    let events = v["traceEvents"].as_arr().expect("traceEvents");

    // One named real-clock track per worker, none missing, none extra.
    let mut tracks: Vec<String> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M"))
        .filter(|e| e["name"].as_str() == Some("thread_name"))
        .filter(|e| e["pid"].as_f64() == Some(0.0))
        .map(|e| e["args"]["name"].as_str().unwrap().to_string())
        .collect();
    tracks.sort();
    let expect: Vec<String> = (0..WORKERS).map(|w| format!("worker {w}")).collect();
    assert_eq!(tracks, expect);

    // Every retained span became exactly one complete event on its track.
    let real_events: Vec<_> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .filter(|e| e["pid"].as_f64() == Some(0.0))
        .collect();
    let retained: usize =
        report.metrics.frames.values().map(|f| f.spans.len()).sum();
    assert_eq!(real_events.len(), retained);
    for e in &real_events {
        assert!(e["ts"].as_f64().unwrap() >= 0.0);
        assert!(e["dur"].as_f64().unwrap() >= 0.0);
    }

    // The simulator timeline rides along as a second process.
    assert!(!report.metrics.sim_spans.is_empty());
    assert!(events.iter().any(|e| e["pid"].as_f64() == Some(1.0)));
}

/// The meter names the product code emits: every string literal passed to
/// `incr(` / `observe(` / serve's `timed(` above a file's inline test
/// module under `crates/*/src` (nsbench's `crates/benchmark` aside), and
/// every `&format!("…")` family, spelled the way the catalog writes it —
/// a `{…}` after `peer` as `<k>`, any other as `<kind>`. `//` lines are
/// skipped, so doc examples do not count.
fn emitted_meter_names() -> Vec<(String, String)> {
    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let krate = entry.unwrap().path();
        if krate.file_name().is_some_and(|n| n != "benchmark") && krate.join("src").is_dir() {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    let mut names = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let code: String = text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .filter(|l| !l.trim_start().starts_with("//"))
            .flat_map(|l| [l, "\n"])
            .collect();
        for call in ["incr(", "observe(", "timed("] {
            for (at, _) in code.match_indices(call) {
                let arg = code[at + call.len()..].trim_start();
                let Some(lit) = arg
                    .strip_prefix('"')
                    .or_else(|| arg.strip_prefix("&format!(\""))
                else {
                    continue;
                };
                let raw = &lit[..lit.find('"').unwrap()];
                let mut name = String::new();
                let mut rest = raw;
                while let Some(open) = rest.find('{') {
                    name.push_str(&rest[..open]);
                    name.push_str(if name.ends_with("peer") {
                        "<k>"
                    } else {
                        "<kind>"
                    });
                    rest = &rest[open + rest[open..].find('}').unwrap() + 1..];
                }
                name.push_str(rest);
                names.push((name, file.display().to_string()));
            }
        }
    }
    names
}

/// docs/OBSERVABILITY.md is the meter catalog: every name the product
/// code emits has a table row there.
#[test]
fn observability_md_documents_every_emitted_meter() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(path).expect("docs/OBSERVABILITY.md is readable");
    let documented: std::collections::BTreeSet<&str> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split(" |").next())
        .flat_map(|cell| cell.split('`').step_by(2))
        .collect();
    let emitted = emitted_meter_names();
    // A scanner that stopped matching would pass vacuously.
    assert!(
        emitted.len() >= 80,
        "only {} meter names found",
        emitted.len()
    );
    for (name, file) in &emitted {
        assert!(
            documented.contains(name.as_str()),
            "{file} emits `{name}`, which has no row in docs/OBSERVABILITY.md"
        );
    }
}
