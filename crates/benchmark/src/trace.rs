//! Benchmark-side spans: one per call the workload makes into a layer of
//! the program. Spans are kept in memory and written out at exit as
//! Chrome trace-event JSON; nothing inside the program is instrumented
//! here (its own `ns-metrics` recorder is always on and is read from the
//! returned reports instead).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Times every wrapped call; records a [`Span`] for it only when enabled
/// (the traced run).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (layer-qualified, e.g.
    /// `"plan.prepare"`) and returns its result with the elapsed seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
            id
        });
        let out = f(self);
        let elapsed = start.elapsed();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = self.spans[id].start_ns + elapsed.as_nanos() as u64;
        }
        (out, elapsed.as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer (the span-name prefix before the first `.`),
    /// seconds: each span's duration minus the part its children cover.
    pub fn layer_self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Chrome trace-event document (`ph: "X"` complete events, µs). All
    /// spans of one workload share `workload` as their identifier; the
    /// causing span is carried in `args.parent`.
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("cat", Json::Str(layer.into())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(0.0)),
                    ("tid", Json::Num(0.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::Str(workload.into())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("plan.prepare", |t| {
            t.span("graph.partition", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let own = t.layer_self_seconds();
        assert!(own["graph"] >= 0.005);
        assert!(
            own["plan"] < own["graph"],
            "parent self time excludes the child"
        );
        let doc = t.to_chrome_trace("w");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.span("x.y", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }
}
