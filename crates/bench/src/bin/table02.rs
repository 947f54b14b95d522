//! Table 2 — dataset registry: published statistics and the properties of
//! the scaled synthetic stand-ins this reproduction materializes.

use bench::{bench_scale, print_table, save_json, SEED};
use ns_metrics::obj;

fn main() {
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for spec in ns_graph::datasets::registry() {
        let scale = bench_scale(spec.name);
        let ds = spec.materialize(scale, SEED);
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.2}M", spec.vertices as f64 / 1e6),
            format!("{:.1}M", spec.edges as f64 / 1e6),
            spec.feature_dim.to_string(),
            spec.num_classes.to_string(),
            format!("{:.2}", spec.avg_degree()),
            spec.hidden_dim.to_string(),
            format!("{scale}"),
            ds.graph.num_vertices().to_string(),
            ds.graph.num_edges().to_string(),
            format!("{:.2}", ds.graph.avg_degree()),
        ]);
        artifacts.push(obj! {
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
        });
    }
    print_table(
        "Table 2: datasets (paper stats | materialized stand-ins)",
        &[
            "dataset", "|V|", "|E|", "ftr", "#L", "deg", "hid", "scale", "V'", "E'",
            "deg'",
        ],
        &rows,
    );
    save_json("table02", artifacts);
}
