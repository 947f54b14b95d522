//! One workload run: materialize the inputs from the seed, then either
//! plan → train (`train.rs`) or train the fixture → deploy → serve
//! (`serve.rs`), with the output oracle applied at each step.
//!
//! Every number comes from outside the program: wall clocks around public
//! calls (**S**), the reports those calls return (**R**), and — in the
//! traced run only — isolated probes of each layer (**P**, `probes.rs`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ns_gnn::{GnnModel, ModelKind};
use ns_graph::{Dataset, Partitioner};
use ns_metrics::{Histogram, RunMetrics};

use crate::spec::{self, Kind, Workload, SHARDS, WORKERS};
use crate::trace::Tracer;
use crate::{serve, train};

/// What the oracle knows about seed 42 on the build that recorded it.
pub struct Expected {
    /// [`rng_fingerprint`] of that build: a different `rand` means
    /// different inputs, and the recorded losses then do not apply.
    pub rng_fingerprint: u64,
    /// Per training workload: (epochs, final train loss).
    pub final_loss: BTreeMap<String, (usize, f64)>,
}

pub struct RunOptions<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub expected: Option<&'a Expected>,
    /// Directory for the Chrome trace of a traced run.
    pub trace_out: Option<&'a Path>,
}

#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric name → (value, samples behind it).
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// One line per oracle violation.
    pub failures: Vec<String>,
    /// Facts worth keeping beside the numbers (input sizes, percentiles).
    pub notes: BTreeMap<&'static str, f64>,
}

impl RunResult {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_n(name, value, 1);
    }

    pub fn put_n(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            spec::metric(name).is_some(),
            "metric {name} is not in spec::METRICS"
        );
        self.metrics.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    pub fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    /// Records one violation that covers `ops` failed operations.
    pub fn fail_n(&mut self, ops: u64, what: String) {
        eprintln!("nsbench: FAILED: {what}");
        self.failures.push(what);
        self.ops_failed += ops;
    }
}

/// What the two halves and the probes share about the run in progress.
pub struct Cx<'a> {
    pub w: &'a Workload,
    pub ds: &'a Dataset,
    pub model: &'a GnnModel,
    pub scratch: &'a Path,
    pub opts: &'a RunOptions<'a>,
    pub tr: Tracer,
    pub out: RunResult,
}

/// Identifies the `rand` build every input derives from: the bits of the
/// first value `ns-graph`'s seeded feature generator draws for seed 42.
pub fn rng_fingerprint() -> u64 {
    u64::from(ns_graph::generate::random_features(1, 1, 42).data()[0].to_bits())
}

/// Where the benchmark keeps its temporary files: under the build
/// directory, because it may write nowhere outside the checkout.
pub fn scratch_base() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "target".into(), PathBuf::from)
        .join("nsbench-tmp")
}

/// One run's scratch directory; removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = scratch_base().join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over the dataset's structure, features and labels: equal seeds
/// must give equal checksums.
#[cfg(test)]
pub fn dataset_checksum(ds: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &o in ds.graph.in_offsets() {
        eat(&(o as u64).to_le_bytes());
    }
    for &s in ds.graph.in_srcs() {
        eat(&s.to_le_bytes());
    }
    for &f in ds.features.data() {
        eat(&f.to_bits().to_le_bytes());
    }
    for &l in &ds.labels {
        eat(&l.to_le_bytes());
    }
    h
}

pub fn materialize(w: &Workload, seed: u64) -> Dataset {
    ns_graph::datasets::by_name(w.dataset)
        .unwrap_or_else(|| panic!("dataset {} is not in the registry", w.dataset))
        .materialize(w.scale, seed)
}

pub fn model_for(ds: &Dataset, seed: u64) -> GnnModel {
    GnnModel::two_layer(
        ModelKind::Gcn,
        ds.feature_dim(),
        ds.hidden_dim,
        ds.num_classes,
        seed,
    )
}

pub fn merged_histogram(m: &RunMetrics, key: &str) -> Histogram {
    let mut h = Histogram::default();
    for f in m.frames.values() {
        if let Some(other) = f.histograms.get(key) {
            h.merge(other);
        }
    }
    h
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `base` (one of `spec::workloads()`) once.
pub fn run(base: &Workload, opts: &RunOptions) -> std::io::Result<RunResult> {
    with_inputs(base, opts, |cx| {
        let w = cx.w;
        match &w.kind {
            Kind::Train(t) => train::run(cx, t),
            Kind::Serve(s) => serve::run(cx, s),
        }
    })
}

/// Sizes `base`, materializes its inputs from the seed alone, runs `body`
/// on them, and closes the run (memory high-water mark, trace file).
pub fn with_inputs(
    base: &Workload,
    opts: &RunOptions,
    body: impl FnOnce(&mut Cx) -> std::io::Result<()>,
) -> std::io::Result<RunResult> {
    let w = base.sized(opts.seconds, opts.quick);
    let scratch = ScratchDir::new(w.name)?;
    ns_par::set_threads(1);

    let mut tr = Tracer::new(opts.traced);
    let (ds, materialize_s) = tr.span("graph.materialize", |_| materialize(&w, opts.seed));
    let model = model_for(&ds, opts.seed);
    let mut cx = Cx {
        w: &w,
        ds: &ds,
        model: &model,
        scratch: &scratch.0,
        opts,
        tr,
        out: RunResult::default(),
    };
    cx.out.put("graph.materialize_s", materialize_s);
    cx.out
        .notes
        .insert("vertices", ds.graph.num_vertices() as f64);
    cx.out.notes.insert("edges", ds.graph.num_edges() as f64);
    // The partitioning both the trainer and the deployment plan on
    // (`Partitioner::Chunk` is their default and deterministic).
    const _: () = assert!(WORKERS == SHARDS);
    let part = Partitioner::Chunk.partition(&ds.graph, WORKERS);
    cx.out
        .put("graph.edge_cut", part.edge_cut(&ds.graph) as f64);
    cx.out.put("graph.imbalance", part.imbalance());

    body(&mut cx)?;

    let Cx { tr, mut out, .. } = cx;
    // Probes allocate their own inputs, so only an untraced run's
    // high-water mark is the workload's.
    if !opts.traced {
        out.put("peak_rss_mb", peak_rss_mib());
    }
    out.put("bench.spans", tr.spans().len() as f64);
    if let Some(dir) = opts.trace_out.filter(|_| opts.traced) {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.trace.json", w.name));
        std::fs::write(&path, tr.to_chrome_trace(w.name).render())?;
        eprintln!("nsbench: wrote {}", path.display());
        for (layer, secs) in tr.layer_self_seconds() {
            eprintln!("nsbench:   self time {layer:<9} {secs:>9.4} s");
        }
    }
    Ok(out)
}
