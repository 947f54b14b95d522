//! Sinks: render a [`RunMetrics`] as a summary table, JSON, or a Chrome trace.
//!
//! Both JSON sinks stream straight into a `String` instead of building a
//! [`crate::json::Json`] tree (a trace holds one event per span); they share
//! its string escaper. Schemas are documented in `docs/OBSERVABILITY.md`, and
//! `tests/observability.rs` parses both outputs back with [`crate::json`] and
//! checks them against the frames, to keep the writers honest.

use crate::{Histogram, MetricsFrame, Phase, RunMetrics, COORDINATOR};
use std::fmt::Write as _;

/// Schema tag embedded in the metrics JSON.
pub const METRICS_SCHEMA: &str = "ns-metrics/v1";

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::json::write_str(&mut out, s);
    out
}

/// Worker id as rendered in the sinks: the coordinator becomes `-1`.
fn worker_id_json(w: usize) -> i64 {
    if w == COORDINATOR {
        -1
    } else {
        w as i64
    }
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count,
        h.sum,
        h.min,
        h.max,
        h.mean(),
        h.percentile(0.5),
        h.percentile(0.9),
        h.percentile(0.99)
    )
}

/// Render machine-readable JSON for the whole run (the `--metrics-out` sink).
///
/// Top level: `{"schema", "wall_s", "gauges": {...}, "workers": [...]}` — one
/// entry per worker, coordinator last with `"worker": -1`. See
/// `docs/OBSERVABILITY.md` for the full schema.
pub fn to_json(run: &RunMetrics) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema\":{},\"wall_s\":{},\"gauges\":{{",
        jstr(METRICS_SCHEMA),
        run.wall_s
    );
    let mut first = true;
    // Non-finite values have no JSON spelling; a gauge that is one is absent.
    for (k, v) in run.gauges.iter().filter(|(_, v)| v.is_finite()) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{}", jstr(k), v);
    }
    out.push_str("},\"workers\":[");
    first = true;
    for frame in run.frames.values() {
        if !first {
            out.push(',');
        }
        first = false;
        frame_json(frame, &mut out);
    }
    out.push_str("]}");
    out
}

fn frame_json(f: &MetricsFrame, out: &mut String) {
    let _ = write!(out, "{{\"worker\":{},\"counters\":{{", worker_id_json(f.worker));
    let mut first = true;
    for (k, v) in &f.counters {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{}", jstr(k), v);
    }
    out.push_str("},\"histograms\":{");
    first = true;
    for (k, h) in &f.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{}", jstr(k), hist_json(h));
    }
    out.push_str("},\"phases\":[");
    first = true;
    for ((phase, layer), ns) in &f.phase_ns {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"phase\":{},\"layer\":{},\"total_ns\":{}}}",
            jstr(phase.name()),
            layer,
            ns
        );
    }
    out.push_str("],\"layers\":[");
    first = true;
    for (layer, s) in f.layer_split.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"layer\":{},\"fwd_graph_ns\":{},\"fwd_nn_ns\":{},\"bwd_graph_ns\":{},\"bwd_nn_ns\":{}}}",
            layer, s.fwd_graph_ns, s.fwd_nn_ns, s.bwd_graph_ns, s.bwd_nn_ns
        );
    }
    let _ = write!(
        out,
        "],\"retained_spans\":{},\"dropped_spans\":{}}}",
        f.spans.len(),
        f.dropped_spans
    );
}

/// Render a Chrome `trace_event` JSON file (the `--trace-out` sink), loadable
/// in Perfetto or `chrome://tracing`.
///
/// Process 0 is the real-clock run with one track (thread) per worker plus a
/// `coordinator` track; process 1, when simulator spans are present, is the
/// *simulated* cluster timeline with one track per (worker, resource).
/// Durations are microseconds; complete events (`"ph":"X"`).
pub fn to_chrome_trace(run: &RunMetrics) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&s);
    };

    emit(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"training run (real clock)\"}}".to_string(),
        &mut out,
    );
    // The coordinator track sits after the highest real worker id.
    let coord_tid = run
        .frames
        .keys()
        .filter(|&&w| w != COORDINATOR)
        .max()
        .map(|&w| w as i64 + 1)
        .unwrap_or(0);
    for frame in run.frames.values() {
        let (tid, tname) = if frame.worker == COORDINATOR {
            (coord_tid, "coordinator".to_string())
        } else {
            (frame.worker as i64, format!("worker {}", frame.worker))
        };
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                tid,
                jstr(&tname)
            ),
            &mut out,
        );
        for s in &frame.spans {
            let name = if s.layer >= 0 {
                format!("{} L{}", s.phase.name(), s.layer)
            } else {
                s.phase.name().to_string()
            };
            emit(
                format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":{},\"cat\":{},\"ts\":{},\"dur\":{},\"args\":{{\"epoch\":{},\"layer\":{}}}}}",
                    tid,
                    jstr(&name),
                    jstr(s.phase.name()),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1e3,
                    s.epoch,
                    s.layer
                ),
                &mut out,
            );
        }
    }

    if !run.sim_spans.is_empty() {
        emit(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cluster simulator (modeled clock)\"}}".to_string(),
            &mut out,
        );
        // One track per (worker, resource); stable tid = worker * #resources + idx.
        let resources = ["device", "nic_in", "nic_out"];
        let mut named: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
        for s in &run.sim_spans {
            let ridx = resources.iter().position(|&r| r == s.resource).unwrap_or(0) as i64;
            let tid = s.worker as i64 * resources.len() as i64 + ridx;
            if named.insert(tid) {
                emit(
                    format!(
                        "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                        tid,
                        jstr(&format!("w{} {}", s.worker, s.resource))
                    ),
                    &mut out,
                );
            }
            emit(
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"sim\",\"ts\":{},\"dur\":{},\"args\":{{\"worker\":{}}}}}",
                    tid,
                    jstr(s.resource),
                    s.start_us,
                    s.end_us - s.start_us,
                    s.worker
                ),
                &mut out,
            );
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Render the human-readable end-of-run summary table.
pub fn summary_table(run: &RunMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- metrics ({:.3}s wall) --", run.wall_s);

    // Phase totals per worker.
    let shown: Vec<Phase> = Phase::ALL
        .iter()
        .copied()
        .filter(|p| run.frames.values().any(|f| f.phase_total_ns(*p) > 0))
        .collect();
    if !shown.is_empty() {
        let _ = write!(out, "{:>12}", "phase (s)");
        for p in &shown {
            let _ = write!(out, "  {:>11}", p.name());
        }
        out.push('\n');
        for frame in run.frames.values() {
            let label = if frame.worker == COORDINATOR {
                "coord".to_string()
            } else {
                format!("w{}", frame.worker)
            };
            let _ = write!(out, "{label:>12}");
            for p in &shown {
                let _ = write!(out, "  {:>11.4}", seconds(frame.phase_total_ns(*p)));
            }
            out.push('\n');
        }
    }

    // Graph-op vs NN-op split per layer, aggregated over workers.
    let layers = run
        .frames
        .values()
        .map(|f| f.layer_split.len())
        .max()
        .unwrap_or(0);
    if layers > 0 {
        let _ = writeln!(
            out,
            "{:>12}  {:>11}  {:>11}  {:>11}  {:>11}",
            "layer (s)", "fwd_graph", "fwd_nn", "bwd_graph", "bwd_nn"
        );
        for lz in 0..layers {
            let mut acc = crate::LayerSplit::default();
            for f in run.frames.values() {
                if let Some(s) = f.layer_split.get(lz) {
                    acc.add(*s);
                }
            }
            let _ = writeln!(
                out,
                "{:>12}  {:>11.4}  {:>11.4}  {:>11.4}  {:>11.4}",
                format!("L{lz}"),
                seconds(acc.fwd_graph_ns),
                seconds(acc.fwd_nn_ns),
                seconds(acc.bwd_graph_ns),
                seconds(acc.bwd_nn_ns)
            );
        }
    }

    if !run.gauges.is_empty() {
        let _ = writeln!(out, "gauges (whole run):");
        for (k, v) in &run.gauges {
            let _ = writeln!(out, "  {k:<32} {v:.4}");
        }
    }

    // Counters, aggregated across workers.
    let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for f in run.frames.values() {
        for (k, v) in &f.counters {
            *totals.entry(k.as_str()).or_insert(0) += v;
        }
    }
    if !totals.is_empty() {
        let _ = writeln!(out, "counters (all workers):");
        for (k, v) in &totals {
            let _ = writeln!(out, "  {k:<32} {v}");
        }
    }

    // Histograms, merged across workers.
    let mut hists: std::collections::BTreeMap<&str, Histogram> =
        std::collections::BTreeMap::new();
    for f in run.frames.values() {
        for (k, h) in &f.histograms {
            hists.entry(k.as_str()).or_default().merge(h);
        }
    }
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "{:<32} {:>9} {:>12} {:>12} {:>12}",
            "histogram", "count", "p50", "p99", "max"
        );
        for (k, h) in &hists {
            let _ = writeln!(
                out,
                "{:<32} {:>9} {:>12} {:>12} {:>12}",
                k,
                h.count,
                h.percentile(0.5),
                h.percentile(0.99),
                h.max
            );
        }
    }

    let dropped: u64 = run.frames.values().map(|f| f.dropped_spans).sum();
    if dropped > 0 {
        let _ = writeln!(out, "note: {dropped} spans dropped (ring buffer full)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerSplit, MetricsRecorder, Phase, SimSpan, SpanRecord};
    use std::time::Instant;

    fn sample_run() -> RunMetrics {
        let mut run = RunMetrics::new();
        for w in 0..2usize {
            let rec = MetricsRecorder::new(w, Instant::now());
            rec.set_epoch(1);
            rec.incr("net.sent.bytes", 100 + w as u64);
            rec.observe("net.recv.wait_ns", 2_000);
            {
                let _g = rec.span(Phase::FwdComm, None);
            }
            {
                let _g = rec.span(Phase::FwdCompute, Some(0));
            }
            rec.add_layer_split(
                0,
                LayerSplit {
                    fwd_graph_ns: 10,
                    fwd_nn_ns: 20,
                    bwd_graph_ns: 30,
                    bwd_nn_ns: 40,
                },
            );
            run.absorb(rec.finish());
        }
        let coord = MetricsRecorder::new(COORDINATOR, Instant::now());
        {
            let _g = coord.span(Phase::CkptSave, None);
        }
        coord.incr("recovery.rollbacks", 1);
        run.absorb(coord.finish());
        run.sim_spans.push(SimSpan {
            worker: 0,
            resource: "device",
            start_us: 0.0,
            end_us: 12.5,
        });
        run.wall_s = 0.25;
        run.gauges.insert("plan.vertex_weight".into(), 39.5);
        run.gauges.insert("exec.compute_skew".into(), f64::NAN);
        run
    }

    /// Minimal structural JSON validation: balanced braces/brackets outside
    /// strings, proper string termination. The workspace-level integration
    /// test parses sink output with a real JSON parser.
    fn assert_balanced_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut esc = false;
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced JSON");
    }

    #[test]
    fn json_sink_is_balanced_and_complete() {
        let run = sample_run();
        let j = to_json(&run);
        assert_balanced_json(&j);
        assert!(j.starts_with("{\"schema\":\"ns-metrics/v1\""));
        assert!(j.contains("\"worker\":0"));
        assert!(j.contains("\"worker\":1"));
        assert!(j.contains("\"worker\":-1"), "coordinator renders as -1");
        assert!(j.contains("\"net.sent.bytes\":100"));
        assert!(j.contains("\"phase\":\"fwd_compute\""));
        assert!(j.contains("\"fwd_graph_ns\":10"));
        assert!(j.contains("\"p99\":"));
        assert!(j.contains("\"gauges\":{\"plan.vertex_weight\":39.5}"), "NaN gauge is left out");
    }

    #[test]
    fn trace_sink_has_one_track_per_worker() {
        let run = sample_run();
        let t = to_chrome_trace(&run);
        assert_balanced_json(&t);
        assert!(t.contains("\"traceEvents\""));
        assert!(t.contains("\"name\":\"worker 0\""));
        assert!(t.contains("\"name\":\"worker 1\""));
        assert!(t.contains("\"name\":\"coordinator\""));
        // Coordinator track does not collide with worker tracks.
        assert!(t.contains("\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"coordinator\"}"));
        // Simulated timeline is a second process.
        assert!(t.contains("\"pid\":1"));
        assert!(t.contains("\"name\":\"w0 device\""));
        // Complete events carry epoch/layer args.
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"epoch\":1"));
    }

    #[test]
    fn summary_table_lists_phases_counters_hists() {
        let run = sample_run();
        let s = summary_table(&run);
        assert!(s.contains("fwd_comm"));
        assert!(s.contains("fwd_compute"));
        assert!(s.contains("net.sent.bytes"));
        assert!(s.contains("201"), "counters aggregate across workers");
        assert!(s.contains("net.recv.wait_ns"));
        assert!(s.contains("fwd_graph"));
        assert!(s.contains("coord"));
        assert!(s.contains("plan.vertex_weight"));
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let mut f = crate::MetricsFrame::new(0);
        f.counters.insert("we\"ird\\key\n\u{1}".into(), 1);
        let mut run = RunMetrics::new();
        run.absorb(f);
        let j = to_json(&run);
        assert_balanced_json(&j);
        assert!(j.contains("we\\\"ird\\\\key\\n\\u0001"));
    }

    #[test]
    fn empty_run_renders() {
        let run = RunMetrics::new();
        assert_balanced_json(&to_json(&run));
        assert_balanced_json(&to_chrome_trace(&run));
        let _ = summary_table(&run);
    }

    #[test]
    fn trace_span_timestamps_are_microseconds() {
        let mut f = crate::MetricsFrame::new(0);
        f.spans.push(SpanRecord {
            phase: Phase::Head,
            layer: -1,
            epoch: 0,
            start_ns: 3_000,
            end_ns: 5_500,
        });
        let mut run = RunMetrics::new();
        run.absorb(f);
        let t = to_chrome_trace(&run);
        assert!(t.contains("\"ts\":3,\"dur\":2.5"));
    }
}
