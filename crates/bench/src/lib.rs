//! Shared support for the `experiments` driver.
//!
//! Each experiment regenerates one table or figure of the paper's
//! evaluation (§5) on scaled-down synthetic stand-ins of the published
//! datasets. Absolute times are not comparable to the paper's (different
//! substrate, ~100-1000x smaller graphs); the *shape* — which system wins,
//! by roughly what factor, where crossovers fall — is the reproduction
//! target, recorded in `EXPERIMENTS.md`.
//!
//! Results are printed as tables and also written as JSON under
//! `results/` (override with the `NS_RESULTS_DIR` environment variable).

use std::path::PathBuf;

use ns_gnn::{GnnModel, ModelKind};
use ns_graph::Dataset;
use ns_metrics::json::Json;
use ns_net::ClusterSpec;
use ns_runtime::trainer::{Trainer, TrainerConfig};
use ns_runtime::{EngineKind, RuntimeError};

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

/// `TrainerConfig::new` without the device-memory projection, for the
/// experiments that time engines the modelled device could not hold.
pub fn unchecked(engine: EngineKind, cluster: &ClusterSpec) -> TrainerConfig {
    TrainerConfig {
        enforce_memory: false,
        ..TrainerConfig::new(engine, cluster.clone())
    }
}

/// Simulated per-epoch seconds (or an OOM / config error).
pub fn epoch_s(ds: &Dataset, model: &GnnModel, cfg: TrainerConfig) -> Result<f64, RuntimeError> {
    Ok(Trainer::prepare(ds, model, cfg)?
        .simulate_epoch()
        .epoch_seconds)
}

/// Prints a simple aligned table.
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
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
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Prints one experiment's records as one table: a column per scalar
/// field (a nested object's fields as `outer.inner`), an array field as
/// its length, `-` where a record has no value.
pub fn print_records(id: &str, records: &[Json]) {
    fn cells(key: String, value: &Json, out: &mut Vec<(String, String)>) {
        let cell = match value {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    let key = if key.is_empty() {
                        k.clone()
                    } else {
                        format!("{key}.{k}")
                    };
                    cells(key, v, out);
                }
                return;
            }
            Json::Arr(items) => items.len().to_string(),
            Json::Num(x) if x.fract() == 0.0 => format!("{x:.0}"),
            // Four significant digits.
            Json::Num(x) => format!(
                "{x:.*}",
                (3 - x.abs().log10().floor() as i32).clamp(0, 9) as usize
            ),
            Json::Str(s) => s.clone(),
            Json::Bool(b) => b.to_string(),
            Json::Null => "-".to_string(),
        };
        out.push((key, cell));
    }
    let rows: Vec<Vec<(String, String)>> = records
        .iter()
        .map(|r| {
            let mut row = Vec::new();
            cells(String::new(), r, &mut row);
            row
        })
        .collect();
    let mut headers: Vec<&str> = Vec::new();
    for (key, _) in rows.iter().flatten() {
        if !headers.contains(&key.as_str()) {
            headers.push(key);
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            headers
                .iter()
                .map(|h| {
                    row.iter()
                        .find(|(k, _)| k == h)
                        .map_or("-".to_string(), |(_, c)| c.clone())
                })
                .collect()
        })
        .collect();
    print_table(id, &headers, &table);
}

/// Directory for JSON result artifacts.
fn results_dir() -> PathBuf {
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
    fn epoch_s_simulates_quickly_on_tiny_instance() {
        let ds = ns_graph::datasets::by_name("cora")
            .unwrap()
            .materialize(0.3, SEED);
        let m = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, SEED);
        let cfg = TrainerConfig::new(EngineKind::DepComm, ClusterSpec::aliyun_ecs(4));
        assert!(epoch_s(&ds, &m, cfg).unwrap() > 0.0);
    }
}
