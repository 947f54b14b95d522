//! Result documents: the one-line object the benchmark driver reads, the
//! per-run file a child process hands its parent, the `nsbench all`
//! result file, and `nsbench compare` over two of those.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::pipeline::RunResult;
use crate::spec::{self, Better, MetricDef, On, Rule, DRIVER_END_TO_END, METRICS};
use crate::stats;

pub const SCHEMA: &str = "nsbench/v2";

/// One of [`DRIVER_END_TO_END`] read from a run.
pub fn driver_value(name: &str, r: &RunResult) -> Option<f64> {
    match name {
        "op_ms" => r.notes.get("op_ms").copied(),
        same => r.get(same),
    }
}

/// (name, unit, value) of every metric one driver run must report: the
/// driver's end-to-end list untraced, its per-layer list traced.
fn driver_tier(r: &RunResult, traced: bool) -> Vec<(&'static str, &'static str, Option<f64>)> {
    if traced {
        spec::driver_per_layer()
            .map(|m| (m.name, m.unit, r.get(m.name)))
            .collect()
    } else {
        DRIVER_END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, driver_value(m.name, r)))
            .collect()
    }
}

/// The line the benchmark driver parses: `correct`, `attempted`,
/// `failed`, and every metric of the run's tier.
pub fn driver_line(r: &RunResult, traced: bool) -> Json {
    let metrics = driver_tier(r, traced)
        .into_iter()
        .filter_map(|(name, unit, value)| {
            Some((
                name,
                Json::obj([
                    ("value", Json::Num(value?)),
                    ("unit", Json::Str(unit.into())),
                ]),
            ))
        });
    Json::obj([
        ("correct", Json::Bool(r.failures.is_empty())),
        ("attempted", Json::Num(r.ops_attempted.max(1) as f64)),
        ("failed", Json::Num(r.ops_failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// What a run on a workload of kind `on` should have measured and did
/// not, or produced as a non-number: the driver's tier, and every metric
/// of the ledger that applies to the workload (**P** probes only when
/// traced, `peak_rss_mb` only when not).
pub fn missing_metrics(r: &RunResult, on: On, traced: bool) -> Vec<&'static str> {
    let finite = |v: Option<f64>| v.is_some_and(f64::is_finite);
    let mut missing: Vec<&'static str> = driver_tier(r, traced)
        .into_iter()
        .filter(|m| !finite(m.2))
        .map(|m| m.0)
        .collect();
    if traced {
        missing.extend(
            METRICS
                .iter()
                .filter(|m| m.on.covers(on) && m.name != "peak_rss_mb")
                .filter(|m| !finite(r.get(m.name)))
                .map(|m| m.name),
        );
        missing.sort_unstable();
        missing.dedup();
    }
    missing
}

/// Everything one run measured, for the parent `nsbench all` process.
pub fn run_to_json(r: &RunResult) -> Json {
    Json::obj([
        ("ops_attempted", Json::Num(r.ops_attempted as f64)),
        ("ops_failed", Json::Num(r.ops_failed as f64)),
        (
            "failures",
            Json::Arr(r.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "notes",
            Json::obj(r.notes.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "metrics",
            Json::obj(r.metrics.iter().map(|(k, (v, n))| {
                (
                    *k,
                    Json::obj([("value", Json::Num(*v)), ("n", Json::Num(*n as f64))]),
                )
            })),
        ),
    ])
}

/// One workload's entry in the result file, folded from the per-run
/// documents of its untraced runs and (optionally) its traced run.
///
/// End-to-end metrics come only from the untraced runs: the median across
/// runs, with the inter-quartile share as `spread` once there are enough
/// runs to have quartiles. Per-layer metrics come from the traced run
/// when there is one, else from what the untraced runs could read (no
/// probes). A metric that does not apply to the workload is `null`.
pub fn fold_workload(on: On, untraced: &[Json], traced: Option<&Json>) -> Json {
    let value_of = |doc: &Json, name: &str| -> Option<(f64, f64)> {
        let m = doc.get("metrics")?.get(name)?;
        Some((
            m.get("value")?.as_f64()?,
            m.get("n").and_then(Json::as_f64).unwrap_or(1.0),
        ))
    };
    let mut metrics = BTreeMap::new();
    for def in METRICS {
        if !def.on.covers(on) {
            metrics.insert(def.name.to_string(), Json::Null);
            continue;
        }
        let sources: Vec<&Json> = match (def.is_end_to_end(), traced) {
            (false, Some(t)) => vec![t],
            _ => untraced.iter().collect(),
        };
        let samples: Vec<(f64, f64)> = sources
            .iter()
            .filter_map(|d| value_of(d, def.name))
            .collect();
        if samples.is_empty() {
            continue;
        }
        let values: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let mut entry = BTreeMap::new();
        entry.insert("value".to_string(), Json::Num(stats::median(&values)));
        entry.insert("unit".to_string(), Json::Str(def.unit.into()));
        entry.insert("n".to_string(), Json::Num(samples[0].1));
        if values.len() > 1 {
            entry.insert(
                "runs".to_string(),
                Json::Arr(values.iter().copied().map(Json::Num).collect()),
            );
            entry.insert(
                "spread".to_string(),
                stats::iqr_share(&values).map_or(Json::Null, Json::Num),
            );
        }
        metrics.insert(def.name.to_string(), Json::Obj(entry));
    }
    // `bench.trace_overhead_share`: how much slower the traced run's
    // median epoch, or median latency at `R_ref`, is than the untraced
    // median.
    let step = match on {
        On::Serve => "serve_p50_ms",
        _ => "epoch_s",
    };
    let untraced_step = metrics.get(step).and_then(|m| m.get("value")?.as_f64());
    if let (Some((traced_step, _)), Some(base)) =
        (traced.and_then(|t| value_of(t, step)), untraced_step)
    {
        metrics.insert(
            "bench.trace_overhead_share".into(),
            Json::obj([
                ("value", Json::Num(traced_step / base - 1.0)),
                ("unit", Json::Str("ratio".into())),
                ("n", Json::Num(1.0)),
            ]),
        );
    }
    let all = || untraced.iter().chain(traced);
    let sum = |key: &str| all().filter_map(|d| d.get(key)?.as_f64()).sum::<f64>();
    let failures: Vec<Json> = all()
        .filter_map(|d| d.get("failures")?.as_arr())
        .flatten()
        .cloned()
        .collect();
    // A replan in any run makes that run's counts its own.
    let replans = all()
        .filter_map(|d| d.get("notes")?.get("replans")?.as_f64())
        .sum::<f64>();
    let mut notes = untraced
        .first()
        .and_then(|d| d.get("notes")?.as_obj())
        .cloned()
        .unwrap_or_default();
    notes.insert("replans".into(), Json::Num(replans));
    Json::obj([
        ("ops_attempted", Json::Num(sum("ops_attempted"))),
        ("ops_failed", Json::Num(sum("ops_failed"))),
        ("failures", Json::Arr(failures)),
        ("notes", Json::Obj(notes)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Plain-text table of one workload's metrics, every metric by name with
/// its unit.
pub fn print_workload(name: &str, entry: &Json) {
    let ops = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "== {name}: ops_attempted {} ops_failed {}",
        ops("ops_attempted"),
        ops("ops_failed")
    );
    for def in METRICS {
        let tier = if def.is_end_to_end() { "e2e" } else { "   " };
        let m = entry.get("metrics").and_then(|ms| ms.get(def.name));
        let Some(value) = m.and_then(|m| m.get("value")?.as_f64()) else {
            if m == Some(&Json::Null) {
                println!("  {tier} {:<32} {:>16} {:<10}", def.name, "null", def.unit);
            }
            continue;
        };
        let field = |k: &str| m.and_then(|m| m.get(k)?.as_f64());
        let spread =
            field("spread").map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
        println!(
            "  {tier} {:<32} {:>16.6} {:<10} n={}{spread}",
            def.name,
            value,
            def.unit,
            field("n").unwrap_or(1.0)
        );
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    Unresolved,
    Same,
    Changed,
    /// An exact count moved in a run whose trainer replanned.
    Replanned,
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Changed => "CHANGED",
            Verdict::Replanned => "replanned",
            Verdict::Info => "",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Changed)
    }
}

/// Judges `b` against base `a` under `def`'s rule. `spread` is the larger
/// recorded run-to-run spread of the two sides (0 when neither recorded
/// one).
pub fn judge(def: &MetricDef, a: f64, b: f64, spread: f64) -> Verdict {
    match def.rule {
        Rule::Exact if a == b => Verdict::Same,
        Rule::Exact => Verdict::Changed,
        Rule::Measured | Rule::Demoted => Verdict::Info,
        Rule::Bound(bound) => {
            let worse = match def.better {
                Better::Lower => (b - a) / a.abs(),
                Better::Higher => (a - b) / a.abs(),
            };
            if spread > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regression
            } else if worse < -bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    }
}

/// Prints one row per (metric, workload) measured in both files and
/// returns whether any row fails (a regression past its bound, an exact
/// count that moved, or failed operations on the `b` side).
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    for (side, doc) in [("base", a), ("new", b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{side} file is not a {SCHEMA} result"));
        }
        if doc.get("quick") == Some(&Json::Bool(true)) {
            return Err(format!(
                "{side} file is a --quick run; its numbers are not a baseline"
            ));
        }
    }
    // Registry crates and the stand-ins for them draw different random
    // streams, so the two builds run different inputs.
    if a.get("rng_fingerprint") != b.get("rng_fingerprint") {
        return Err("the files come from builds against different `rand` crates".into());
    }
    let (wa, wb) = match (
        a.get("workloads").and_then(Json::as_obj),
        b.get("workloads").and_then(Json::as_obj),
    ) {
        (Some(wa), Some(wb)) => (wa, wb),
        _ => return Err("result file has no workloads".into()),
    };
    let mut failed = false;
    let mut unresolved = 0usize;
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>8}  {:<9} verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for w in spec::workloads() {
        let (Some(ea), Some(eb)) = (wa.get(w.name), wb.get(w.name)) else {
            println!("{:<18} (missing from one side)", w.name);
            failed = true;
            continue;
        };
        let field =
            |e: &Json, metric: &str, key: &str| e.get("metrics")?.get(metric)?.get(key)?.as_f64();
        // A measured-drift replan changes the plan the rest of the run
        // executes, so that run's counts are no longer a function of the
        // seed alone.
        let replanned = [ea, eb].iter().any(|e| {
            e.get("notes")
                .and_then(|n| n.get("replans")?.as_f64())
                .unwrap_or(0.0)
                > 0.0
        });
        for def in METRICS {
            let (Some(va), Some(vb)) = (field(ea, def.name, "value"), field(eb, def.name, "value"))
            else {
                continue;
            };
            let spread = field(ea, def.name, "spread")
                .unwrap_or(0.0)
                .max(field(eb, def.name, "spread").unwrap_or(0.0));
            let verdict = match judge(def, va, vb, spread) {
                Verdict::Changed if replanned => Verdict::Replanned,
                v => v,
            };
            failed |= verdict.fails();
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let bound = match def.rule {
                Rule::Exact => "exact".into(),
                Rule::Bound(b) => format!("{:.0}% {}", b * 100.0, def.better.name()),
                Rule::Demoted => "demoted".into(),
                Rule::Measured => "-".into(),
            };
            println!(
                "{:<18} {:<30} {:>14.6} {:>14.6} {:>8.3}  {:<9} {}",
                w.name,
                def.name,
                va,
                vb,
                vb / va,
                bound,
                verdict.label()
            );
        }
        let ops_failed = eb.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
        if ops_failed > 0.0 {
            println!("{:<18} ops_failed = {ops_failed} on the new side", w.name);
            failed = true;
        }
    }
    println!("unresolved end-to-end rows: {unresolved}");
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_exact_counts_and_spread_decide_the_verdict() {
        let rss = spec::metric("peak_rss_mb").unwrap();
        let Rule::Bound(bound) = rss.rule else {
            panic!("peak_rss_mb is bounded")
        };
        assert_eq!(judge(rss, 1.0, 1.0 + bound * 0.9, 0.0), Verdict::Unchanged);
        assert_eq!(judge(rss, 1.0, 1.0 + bound * 1.1, 0.0), Verdict::Regression);
        assert_eq!(judge(rss, 1.0, 1.0 - bound * 1.1, 0.0), Verdict::Improved);
        // A spread wider than the bound cannot resolve either way.
        assert_eq!(judge(rss, 1.0, 2.0, bound * 1.5), Verdict::Unresolved);
        // Higher-is-better flips the direction.
        let qps = MetricDef {
            better: Better::Higher,
            ..*rss
        };
        assert_eq!(judge(&qps, 1000.0, 500.0, 0.0), Verdict::Regression);
        assert_eq!(judge(&qps, 1000.0, 2000.0, 0.0), Verdict::Improved);
        // A demoted end-to-end metric is reported, never judged.
        let epoch = spec::metric("epoch_s").unwrap();
        assert_eq!(judge(epoch, 1.0, 9.0, 0.0), Verdict::Info);
        let cut = spec::metric("graph.edge_cut").unwrap();
        assert_eq!(judge(cut, 10.0, 10.0, 0.0), Verdict::Same);
        assert_eq!(judge(cut, 10.0, 11.0, 0.0), Verdict::Changed);
        let probe = spec::metric("tensor.matmul_s").unwrap();
        assert_eq!(judge(probe, 1.0, 9.0, 0.0), Verdict::Info);
    }

    /// A run that measured 1.5 for every metric that applies to `on`.
    fn full_run(on: On) -> RunResult {
        let mut r = RunResult::default();
        for m in METRICS.iter().filter(|m| m.on.covers(on)) {
            r.put(m.name, 1.5);
        }
        r.notes.insert("op_ms", 50.0);
        r.ops_attempted = 10;
        r
    }

    #[test]
    fn driver_line_carries_exactly_one_tier_on_either_kind_of_workload() {
        for on in [On::Train, On::Serve] {
            let r = full_run(on);
            for traced in [false, true] {
                assert_eq!(missing_metrics(&r, on, traced), Vec::<&str>::new());
                let line = driver_line(&r, traced);
                let names: Vec<&str> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap()
                    .keys()
                    .map(String::as_str)
                    .collect();
                let mut want: Vec<&str> = if traced {
                    spec::driver_per_layer().map(|m| m.name).collect()
                } else {
                    DRIVER_END_TO_END.iter().map(|m| m.name).collect()
                };
                want.sort_unstable();
                assert_eq!(names, want);
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
        }
        let mut r = full_run(On::Train);
        assert_eq!(driver_value("op_ms", &r), Some(50.0));
        r.notes.remove("op_ms");
        assert_eq!(missing_metrics(&r, On::Train, false), vec!["op_ms"]);
    }

    #[test]
    fn a_metric_that_does_not_apply_is_null_in_the_result_file() {
        let run = run_to_json(&full_run(On::Serve));
        let entry = fold_workload(On::Serve, std::slice::from_ref(&run), None);
        let metrics = entry.get("metrics").unwrap();
        assert_eq!(metrics.get("epoch_s"), Some(&Json::Null));
        assert_eq!(
            metrics.get("serve_p50_ms").and_then(|m| m.get("value")),
            Some(&Json::Num(1.5))
        );
    }
}
