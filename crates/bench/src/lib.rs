//! Shared support for the figure/table regenerator binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§5) on scaled-down synthetic stand-ins of the
//! published datasets. Absolute times are not comparable to the paper's
//! (different substrate, ~100-1000x smaller graphs); the *shape* — which
//! system wins, by roughly what factor, where crossovers fall — is the
//! reproduction target, recorded in `EXPERIMENTS.md`.
//!
//! Results are printed as tables and also written as JSON under
//! `results/` (override with the `NS_RESULTS_DIR` environment variable).

use std::path::PathBuf;

use ns_gnn::{GnnModel, ModelKind};
use ns_graph::{Dataset, Partitioner};
use ns_metrics::json::Json;
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::exec::SyncMode;
use ns_runtime::trainer::{SimSummary, Trainer, TrainerConfig};
use ns_runtime::{EngineKind, HybridConfig, RuntimeError};

/// Standard materialization scale per dataset: small enough for quick
/// iteration, large enough (1e5-ish edges) that partition structure is
/// meaningful. One seed everywhere for comparability.
pub fn bench_scale(name: &str) -> f64 {
    match name {
        "google" => 0.02,
        "pokec" => 0.005,
        "livejournal" => 0.002,
        "reddit" => 0.002,
        "orkut" => 0.001,
        "wikilink" => 0.0003,
        "twitter" => 0.0001,
        _ => 1.0, // citation graphs run at full size
    }
}

/// Seed used by all benchmarks.
pub const SEED: u64 = 42;

/// Materializes the standard bench instance of a dataset.
pub fn dataset(name: &str) -> Dataset {
    ns_graph::datasets::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
        .materialize(bench_scale(name), SEED)
}

/// Builds the paper's 2-layer model for a dataset (Table 2 hidden dim).
pub fn model_for(ds: &Dataset, kind: ModelKind) -> GnnModel {
    GnnModel::two_layer(kind, ds.feature_dim(), ds.hidden_dim, ds.num_classes, SEED)
}

/// Same but with an explicit hidden dimension (Fig. 2b).
pub fn model_with_hidden(ds: &Dataset, kind: ModelKind, hidden: usize) -> GnnModel {
    GnnModel::two_layer(kind, ds.feature_dim(), hidden, ds.num_classes, SEED)
}

/// One fully-specified simulation configuration.
pub struct RunSpec<'a> {
    /// Dataset instance.
    pub dataset: &'a Dataset,
    /// Model.
    pub model: &'a GnnModel,
    /// Engine.
    pub engine: EngineKind,
    /// Cluster.
    pub cluster: ClusterSpec,
    /// Optimization toggles.
    pub opts: ExecOptions,
    /// Partitioner.
    pub partitioner: Partitioner,
    /// Hybrid ratio override (Fig. 11).
    pub ratio: Option<f64>,
    /// ROC-like whole-block broadcast.
    pub broadcast: bool,
    /// Gradient synchronization mode.
    pub sync: SyncMode,
    /// Enforce the device-memory projection.
    pub enforce_memory: bool,
}

impl<'a> RunSpec<'a> {
    /// Default spec: all optimizations, chunk partitioning, memory
    /// enforced.
    pub fn new(
        dataset: &'a Dataset,
        model: &'a GnnModel,
        engine: EngineKind,
        cluster: ClusterSpec,
    ) -> Self {
        Self {
            dataset,
            model,
            engine,
            cluster,
            opts: ExecOptions::all(),
            partitioner: Partitioner::Chunk,
            ratio: None,
            broadcast: false,
            sync: SyncMode::AllReduce,
            enforce_memory: true,
        }
    }

    /// Disable all system optimizations ("raw" engines in Fig. 9).
    pub fn raw(mut self) -> Self {
        self.opts = ExecOptions::none();
        self
    }

    /// Set specific optimization toggles.
    pub fn opts(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Use a specific partitioner.
    pub fn partitioner(mut self, p: Partitioner) -> Self {
        self.partitioner = p;
        self
    }

    /// Force a cached-dependency ratio (Hybrid engine only).
    pub fn ratio(mut self, r: f64) -> Self {
        self.ratio = Some(r);
        self
    }

    /// ROC-like whole-block broadcast.
    pub fn broadcast(mut self) -> Self {
        self.broadcast = true;
        self
    }

    /// Use the given gradient synchronization mode.
    pub fn sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    /// Skip the memory projection check.
    pub fn no_memory_check(mut self) -> Self {
        self.enforce_memory = false;
        self
    }

    fn trainer_config(&self) -> TrainerConfig {
        let mut cfg = TrainerConfig::new(self.engine, self.cluster.clone());
        cfg.partitioner = self.partitioner;
        cfg.opts = self.opts;
        cfg.hybrid = HybridConfig { ratio_override: self.ratio, ..Default::default() };
        cfg.broadcast_full_partition = self.broadcast;
        cfg.sync = self.sync;
        cfg.enforce_memory = self.enforce_memory;
        cfg
    }

    /// Prepares the trainer.
    pub fn prepare(&self) -> Result<Trainer<'a>, RuntimeError> {
        Trainer::prepare(self.dataset, self.model, self.trainer_config())
    }

    /// Simulated per-epoch seconds (or an OOM / config error).
    pub fn epoch_seconds(&self) -> Result<f64, RuntimeError> {
        Ok(self.prepare()?.simulate_epoch().epoch_seconds)
    }

    /// Full simulation summary.
    pub fn simulate(&self) -> Result<SimSummary, RuntimeError> {
        Ok(self.prepare()?.simulate_epoch())
    }
}

/// Formats a cell: time in seconds, `OOM`, or `-` for unsupported.
pub fn cell(r: &Result<f64, RuntimeError>) -> String {
    match r {
        Ok(t) => format!("{:.4}", t),
        Err(RuntimeError::DeviceOom { .. }) => "OOM".to_string(),
        Err(_) => "-".to_string(),
    }
}

/// Prints a simple aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(headers.iter().map(|s| s.to_string()).collect()));
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Directory for JSON result artifacts.
pub fn results_dir() -> PathBuf {
    std::env::var_os("NS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes the records of one experiment id (e.g. `fig09`) as a JSON array.
pub fn save_json(id: &str, records: Vec<Json>) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, Json::Arr(records).pretty()).expect("write results json");
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_cover_all_registry_names() {
        for spec in ns_graph::datasets::registry() {
            let s = bench_scale(spec.name);
            assert!(s > 0.0 && s <= 1.0, "{}", spec.name);
        }
    }

    #[test]
    fn cell_formats_all_outcomes() {
        assert_eq!(cell(&Ok(1.5)), "1.5000");
        let oom: Result<f64, RuntimeError> = Err(RuntimeError::DeviceOom {
            what: "x".into(),
            needed_bytes: 2,
            limit_bytes: 1,
        });
        assert_eq!(cell(&oom), "OOM");
        let other: Result<f64, RuntimeError> =
            Err(RuntimeError::InvalidConfig("nope".into()));
        assert_eq!(cell(&other), "-");
    }

    #[test]
    fn runspec_simulates_quickly_on_tiny_instance() {
        let ds = ns_graph::datasets::by_name("cora").unwrap().materialize(0.3, SEED);
        let m = model_with_hidden(&ds, ModelKind::Gcn, 16);
        let spec = RunSpec::new(&ds, &m, EngineKind::DepComm, ClusterSpec::aliyun_ecs(4));
        assert!(spec.epoch_seconds().unwrap() > 0.0);
    }
}
