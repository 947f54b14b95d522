//! Lightweight observability for the NeutronStar reproduction.
//!
//! Every worker thread owns a [`MetricsRecorder`]: a thread-local, allocation-light
//! collection of counters, power-of-two-bucket histograms, per-phase time
//! accumulators, and a bounded ring of timestamped [`SpanRecord`]s. Workers never
//! share a recorder — there are no locks and no atomics on the hot path. When a
//! worker finishes (or fails), the recorder is drained into an immutable, `Send`
//! [`MetricsFrame`]; the coordinator merges frames into a [`RunMetrics`] at join
//! time ("merged-at-join"). Three sinks render a `RunMetrics`:
//!
//! * [`summary_table`] — a human-readable end-of-run table,
//! * [`to_json`] — machine-readable JSON (the `--metrics-out` file),
//! * [`to_chrome_trace`] — Chrome `trace_event` JSON (the `--trace-out` file),
//!   loadable in Perfetto or `chrome://tracing` with one track per worker.
//!
//! The crate has no dependencies: [`json`] is the workspace's one JSON value,
//! writer and parser, and the two JSON sinks stream through its escaper.
//! See `docs/OBSERVABILITY.md` in the repository root for the metrics catalog,
//! the sink schemas, and a worked profiling walkthrough.
//!
//! ```
//! use ns_metrics::{MetricsRecorder, Phase, RunMetrics, span};
//! use std::time::Instant;
//!
//! let origin = Instant::now();            // shared by all workers of one run
//! let rec = MetricsRecorder::new(0, origin);
//! rec.set_epoch(0);
//! rec.incr("demo.events", 3);
//! rec.observe("demo.wait_ns", 1_500);
//! {
//!     let _fwd = span!(rec, Phase::FwdCompute, 0); // ends when the guard drops
//! }
//! let frame = rec.finish();
//! assert_eq!(frame.counter("demo.events"), 3);
//! assert_eq!(frame.spans.len(), 1);
//!
//! let mut run = RunMetrics::new();
//! run.absorb(frame);
//! println!("{}", ns_metrics::summary_table(&run));
//! ```
#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

pub mod json;
mod sink;

pub use sink::{summary_table, to_chrome_trace, to_json};

/// Worker id used for coordinator-side frames (checkpoint save/load, rollback
/// bookkeeping). Rendered as `-1` in the JSON sink and as a dedicated
/// `coordinator` track in the Chrome trace.
pub const COORDINATOR: usize = usize::MAX;

/// Default capacity of a recorder's span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// A training-path phase that spans attribute wall-clock time to.
///
/// The graph-op vs NN-op split is deliberately *not* a phase: inside a layer's
/// forward/backward the two interleave at tape granularity (GAT attention mixes
/// gathers with matmuls), so they are reported as per-layer duration counters
/// ([`LayerSplit`]) instead of timeline spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Forward dependency communication: sending owned rows to mirrors,
    /// receiving remote rows, and assembling the layer input matrix.
    FwdComm,
    /// Forward in-worker compute: one GNN layer's tape forward pass
    /// (graph ops + NN ops together; see [`LayerSplit`] for the split).
    FwdCompute,
    /// Backward dependency communication: sending mirror gradients back to
    /// masters, local gradient routing, and receive-side accumulation.
    BwdComm,
    /// Backward in-worker compute: one layer's tape backward pass.
    BwdCompute,
    /// Loss head: softmax cross-entropy plus train/val/test accuracy.
    Head,
    /// Gradient synchronization wait: the ring all-reduce, including the
    /// blocking receives inside.
    SyncWait,
    /// Optimizer step (SGD/Adam parameter update).
    OptStep,
    /// Checkpoint capture (coordinator only).
    CkptSave,
    /// Checkpoint restore (coordinator only).
    CkptLoad,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 9] = [
        Phase::FwdComm,
        Phase::FwdCompute,
        Phase::BwdComm,
        Phase::BwdCompute,
        Phase::Head,
        Phase::SyncWait,
        Phase::OptStep,
        Phase::CkptSave,
        Phase::CkptLoad,
    ];

    /// Stable snake_case name used by every sink.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FwdComm => "fwd_comm",
            Phase::FwdCompute => "fwd_compute",
            Phase::BwdComm => "bwd_comm",
            Phase::BwdCompute => "bwd_compute",
            Phase::Head => "head",
            Phase::SyncWait => "sync_wait",
            Phase::OptStep => "opt_step",
            Phase::CkptSave => "ckpt_save",
            Phase::CkptLoad => "ckpt_load",
        }
    }
}

/// One closed span: a phase interval on the real-clock timeline, relative to
/// the run's shared origin `Instant`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase the interval is attributed to.
    pub phase: Phase,
    /// Layer index, or `-1` when the phase is not layer-scoped.
    pub layer: i32,
    /// Epoch the recorder was set to when the span closed.
    pub epoch: u32,
    /// Start offset from the run origin, nanoseconds.
    pub start_ns: u64,
    /// End offset from the run origin, nanoseconds.
    pub end_ns: u64,
}

/// Power-of-two-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Bucket 0 holds zero; bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
/// Merging is bucket-wise addition, so merge order never changes the result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Merge another histogram into this one (bucket-wise; associative).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Approximate percentile (`p` in `[0, 1]`): the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `p * count`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i).saturating_sub(1).max(self.min).min(self.max)
                };
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Per-layer graph-op vs NN-op wall-time split, in nanoseconds, as measured at
/// tape granularity by `ns-tensor` (each tape event's elapsed time accrues to
/// the kind of the operator just recorded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerSplit {
    /// Forward time spent in graph operators (gather/scatter/aggregate/segment-softmax).
    pub fwd_graph_ns: u64,
    /// Forward time spent in NN operators (matmul, bias, activations, ...).
    pub fwd_nn_ns: u64,
    /// Backward time spent in graph-operator duals.
    pub bwd_graph_ns: u64,
    /// Backward time spent in NN-operator duals.
    pub bwd_nn_ns: u64,
}

impl LayerSplit {
    /// Element-wise accumulate.
    pub fn add(&mut self, other: LayerSplit) {
        self.fwd_graph_ns += other.fwd_graph_ns;
        self.fwd_nn_ns += other.fwd_nn_ns;
        self.bwd_graph_ns += other.bwd_graph_ns;
        self.bwd_nn_ns += other.bwd_nn_ns;
    }
}

/// Bounded ring of spans: when full, the oldest record is overwritten and the
/// `dropped` counter increments, so tracing never grows without bound.
#[derive(Debug)]
struct SpanRing {
    cap: usize,
    buf: Vec<SpanRecord>,
    next: usize,
    dropped: u64,
}

impl SpanRing {
    fn new(cap: usize) -> Self {
        SpanRing {
            cap: cap.max(1),
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Drain into chronological order (oldest retained span first).
    fn into_ordered(self) -> (Vec<SpanRecord>, u64) {
        let SpanRing {
            buf, next, dropped, ..
        } = self;
        if dropped == 0 || next == 0 {
            (buf, dropped)
        } else {
            let mut out = Vec::with_capacity(buf.len());
            out.extend_from_slice(&buf[next..]);
            out.extend_from_slice(&buf[..next]);
            (out, dropped)
        }
    }
}

#[derive(Debug)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    phase_ns: BTreeMap<(Phase, i32), u64>,
    layer_split: Vec<LayerSplit>,
    spans: SpanRing,
    epoch: u32,
    depth: usize,
}

/// Per-worker metrics recorder. One per worker thread; never shared, never
/// locked. Drained into a [`MetricsFrame`] with [`MetricsRecorder::finish`].
///
/// All workers of a run must be given the *same* `origin` [`Instant`] so that
/// their span timestamps land on one common timeline (one trace track per
/// worker, mutually aligned).
#[derive(Debug)]
pub struct MetricsRecorder {
    worker: usize,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl MetricsRecorder {
    /// New recorder for `worker`, with the default span capacity.
    pub fn new(worker: usize, origin: Instant) -> Self {
        Self::with_span_capacity(worker, origin, DEFAULT_SPAN_CAPACITY)
    }

    /// New recorder whose span ring holds at most `capacity` records.
    pub fn with_span_capacity(worker: usize, origin: Instant, capacity: usize) -> Self {
        MetricsRecorder {
            worker,
            origin,
            inner: RefCell::new(Inner {
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
                phase_ns: BTreeMap::new(),
                layer_split: Vec::new(),
                spans: SpanRing::new(capacity),
                epoch: 0,
                depth: 0,
            }),
        }
    }

    /// The worker id this recorder belongs to.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The shared run origin all span timestamps are relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Set the epoch stamped onto subsequently closed spans.
    pub fn set_epoch(&self, epoch: u32) {
        self.inner.borrow_mut().epoch = epoch;
    }

    /// Add `by` to the counter named `key` (created at zero on first use).
    pub fn incr(&self, key: &str, by: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.counters.get_mut(key) {
            Some(c) => *c += by,
            None => {
                inner.counters.insert(key.to_string(), by);
            }
        }
    }

    /// Record one sample into the histogram named `key`.
    pub fn observe(&self, key: &str, value: u64) {
        let mut inner = self.inner.borrow_mut();
        match inner.histograms.get_mut(key) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                inner.histograms.insert(key.to_string(), h);
            }
        }
    }

    /// Open a span for `phase` (optionally layer-scoped). The span closes —
    /// and its duration accrues — when the returned guard drops. Spans may
    /// nest; the [`span!`] macro is the usual entry point.
    pub fn span(&self, phase: Phase, layer: Option<usize>) -> SpanGuard<'_> {
        self.inner.borrow_mut().depth += 1;
        SpanGuard {
            rec: self,
            phase,
            layer: layer.map(|l| l as i32).unwrap_or(-1),
            start: Instant::now(),
        }
    }

    /// Accumulate a per-layer graph/NN split (extends the layer table on demand).
    pub fn add_layer_split(&self, layer: usize, split: LayerSplit) {
        let mut inner = self.inner.borrow_mut();
        if inner.layer_split.len() <= layer {
            inner.layer_split.resize(layer + 1, LayerSplit::default());
        }
        inner.layer_split[layer].add(split);
    }

    /// Number of currently open spans (0 whenever nesting is balanced).
    pub fn open_spans(&self) -> usize {
        self.inner.borrow().depth
    }

    /// Drain everything recorded so far into an immutable, `Send` frame,
    /// leaving the recorder empty (epoch and span capacity are preserved).
    pub fn finish(&self) -> MetricsFrame {
        let mut inner = self.inner.borrow_mut();
        let cap = inner.spans.cap;
        let epoch = inner.epoch;
        let depth = inner.depth;
        let taken = std::mem::replace(
            &mut *inner,
            Inner {
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
                phase_ns: BTreeMap::new(),
                layer_split: Vec::new(),
                spans: SpanRing::new(cap),
                epoch,
                depth,
            },
        );
        let (spans, dropped_spans) = taken.spans.into_ordered();
        MetricsFrame {
            worker: self.worker,
            counters: taken.counters,
            histograms: taken.histograms,
            phase_ns: taken.phase_ns,
            layer_split: taken.layer_split,
            spans,
            dropped_spans,
        }
    }
}

/// RAII guard returned by [`MetricsRecorder::span`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    rec: &'a MetricsRecorder,
    phase: Phase,
    layer: i32,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let start_ns = self.start.duration_since(self.rec.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.rec.origin).as_nanos() as u64;
        let mut inner = self.rec.inner.borrow_mut();
        inner.depth -= 1;
        *inner.phase_ns.entry((self.phase, self.layer)).or_insert(0) +=
            end_ns.saturating_sub(start_ns);
        let epoch = inner.epoch;
        inner.spans.push(SpanRecord {
            phase: self.phase,
            layer: self.layer,
            epoch,
            start_ns,
            end_ns,
        });
    }
}

/// Open a phase span on a recorder: `span!(rec, Phase::FwdComm)` or, layer-scoped,
/// `span!(rec, Phase::FwdCompute, layer)`. Bind the result (`let _g = span!(...)`)
/// so the span closes where the binding goes out of scope.
#[macro_export]
macro_rules! span {
    ($rec:expr, $phase:expr) => {
        $rec.span($phase, None)
    };
    ($rec:expr, $phase:expr, $layer:expr) => {
        $rec.span($phase, Some($layer))
    };
}

/// Immutable, `Send` snapshot of one recorder, produced at worker join.
#[derive(Clone, Debug, Default)]
pub struct MetricsFrame {
    /// Worker id ([`COORDINATOR`] for coordinator-side frames).
    pub worker: usize,
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Accumulated span time per `(phase, layer)`; layer `-1` = not layer-scoped.
    pub phase_ns: BTreeMap<(Phase, i32), u64>,
    /// Per-layer graph-op vs NN-op split.
    pub layer_split: Vec<LayerSplit>,
    /// Retained spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Spans overwritten because the ring filled up.
    pub dropped_spans: u64,
}

impl MetricsFrame {
    /// Empty frame for `worker`.
    pub fn new(worker: usize) -> Self {
        MetricsFrame {
            worker,
            ..Default::default()
        }
    }

    /// Counter value, or 0 if never incremented.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Total time accrued to `phase` across all layers, nanoseconds.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_ns
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Merge another frame into this one. Counters, histograms, phase times
    /// and layer splits add; spans concatenate. The operation is associative
    /// and (up to span order) commutative, so frames may be merged in any
    /// join order — the unit tests pin this.
    pub fn merge(&mut self, other: &MetricsFrame) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, ns) in &other.phase_ns {
            *self.phase_ns.entry(*k).or_insert(0) += ns;
        }
        if self.layer_split.len() < other.layer_split.len() {
            self.layer_split
                .resize(other.layer_split.len(), LayerSplit::default());
        }
        for (dst, src) in self.layer_split.iter_mut().zip(other.layer_split.iter()) {
            dst.add(*src);
        }
        self.spans.extend_from_slice(&other.spans);
        self.dropped_spans += other.dropped_spans;
    }
}

/// One busy interval on the *simulated* cluster timeline (microseconds of
/// modeled time), bridged from the discrete-event simulator's report. Rendered
/// as a second process in the Chrome trace so the real-clock and modeled
/// timelines sit side by side.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpan {
    /// Simulated worker id.
    pub worker: usize,
    /// Resource the interval occupies (`"device"`, `"nic_in"`, `"nic_out"`).
    pub resource: &'static str,
    /// Interval start, microseconds of simulated time.
    pub start_us: f64,
    /// Interval end, microseconds of simulated time.
    pub end_us: f64,
}

/// All metrics of one training run: per-worker frames keyed by worker id,
/// run-level gauges, optional simulated-timeline spans, and the run's
/// wall-clock seconds.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// One merged frame per worker ([`COORDINATOR`] holds coordinator frames).
    pub frames: BTreeMap<usize, MetricsFrame>,
    /// Ratios that describe the run as a whole and do not sum across
    /// workers (`plan.vertex_weight`, `exec.compute_skew`, ...).
    pub gauges: BTreeMap<String, f64>,
    /// Busy intervals on the simulated cluster timeline.
    pub sim_spans: Vec<SimSpan>,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
}

impl RunMetrics {
    /// Empty run.
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Fold a frame in, merging with any existing frame for the same worker.
    pub fn absorb(&mut self, frame: MetricsFrame) {
        match self.frames.get_mut(&frame.worker) {
            Some(existing) => existing.merge(&frame),
            None => {
                self.frames.insert(frame.worker, frame);
            }
        }
    }

    /// Merge a whole run (e.g. one recovery chunk) into this one. Frames merge
    /// per worker; wall time adds; sim spans concatenate; a gauge `other`
    /// also carries takes `other`'s value.
    pub fn merge(&mut self, other: RunMetrics) {
        for (_, frame) in other.frames {
            self.absorb(frame);
        }
        self.gauges.extend(other.gauges);
        self.sim_spans.extend(other.sim_spans);
        self.wall_s += other.wall_s;
    }

    /// Sum of a counter across every frame.
    pub fn total_counter(&self, key: &str) -> u64 {
        self.frames.values().map(|f| f.counter(key)).sum()
    }

    /// Worker ids present, excluding the coordinator.
    pub fn worker_ids(&self) -> Vec<usize> {
        self.frames
            .keys()
            .copied()
            .filter(|&w| w != COORDINATOR)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn frame(worker: usize, seed: u64) -> MetricsFrame {
        let mut f = MetricsFrame::new(worker);
        f.counters.insert("a".into(), seed);
        f.counters.insert(format!("b{}", seed % 3), 2 * seed);
        let mut h = Histogram::default();
        for i in 0..seed % 7 + 1 {
            h.record(seed * 17 + i * 13);
        }
        f.histograms.insert("h".into(), h);
        f.phase_ns.insert((Phase::FwdComm, -1), seed * 10);
        f.phase_ns.insert((Phase::FwdCompute, seed as i32 % 2), 5);
        f.layer_split.push(LayerSplit {
            fwd_graph_ns: seed,
            fwd_nn_ns: seed + 1,
            bwd_graph_ns: seed + 2,
            bwd_nn_ns: seed + 3,
        });
        f.spans.push(SpanRecord {
            phase: Phase::Head,
            layer: -1,
            epoch: 0,
            start_ns: seed,
            end_ns: seed + 100,
        });
        f.dropped_spans = seed % 2;
        f
    }

    fn canon(f: &MetricsFrame) -> (Vec<(String, u64)>, Vec<((Phase, i32), u64)>, u64, usize) {
        (
            f.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            f.phase_ns.iter().map(|(k, v)| (*k, *v)).collect(),
            f.dropped_spans,
            f.spans.len(),
        )
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (frame(0, 3), frame(0, 8), frame(0, 11));

        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(canon(&left), canon(&right));
        assert_eq!(left.histograms["h"], right.histograms["h"]);
        assert_eq!(left.layer_split, right.layer_split);
    }

    #[test]
    fn merge_counters_commute() {
        let (a, b) = (frame(0, 5), frame(0, 9));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.phase_ns, ba.phase_ns);
        assert_eq!(ab.histograms, ba.histograms);
    }

    #[test]
    fn span_nesting_balances() {
        let rec = MetricsRecorder::new(0, Instant::now());
        assert_eq!(rec.open_spans(), 0);
        {
            let _outer = span!(rec, Phase::FwdComm);
            assert_eq!(rec.open_spans(), 1);
            {
                let _mid = span!(rec, Phase::FwdCompute, 0);
                let _inner = span!(rec, Phase::Head);
                assert_eq!(rec.open_spans(), 3);
            }
            assert_eq!(rec.open_spans(), 1);
        }
        assert_eq!(rec.open_spans(), 0);
        let f = rec.finish();
        assert_eq!(f.spans.len(), 3);
        // Inner spans close first.
        assert_eq!(f.spans[0].phase, Phase::Head);
        assert_eq!(f.spans[2].phase, Phase::FwdComm);
        // Every span is well-formed on the shared timeline.
        for s in &f.spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn span_durations_accrue_per_phase_and_layer() {
        let rec = MetricsRecorder::new(7, Instant::now());
        rec.set_epoch(4);
        {
            let _g = span!(rec, Phase::FwdCompute, 1);
            std::thread::sleep(Duration::from_millis(2));
        }
        let f = rec.finish();
        assert_eq!(f.worker, 7);
        assert_eq!(f.spans[0].epoch, 4);
        assert_eq!(f.spans[0].layer, 1);
        let accrued = f.phase_ns[&(Phase::FwdCompute, 1)];
        assert!(accrued >= 2_000_000, "accrued {accrued}ns < 2ms sleep");
        assert_eq!(f.phase_total_ns(Phase::FwdCompute), accrued);
    }

    #[test]
    fn span_ring_bounds_and_counts_drops() {
        let rec = MetricsRecorder::with_span_capacity(0, Instant::now(), 4);
        for _ in 0..10 {
            let _g = span!(rec, Phase::OptStep);
        }
        let f = rec.finish();
        assert_eq!(f.spans.len(), 4);
        assert_eq!(f.dropped_spans, 6);
        // The retained spans are the newest, in chronological order.
        for w in f.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
        // Accrued phase time still covers all 10 spans.
        assert_eq!(f.phase_ns.len(), 1);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 900, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1907);
        assert_eq!(h.percentile(0.0), 0);
        assert!(h.percentile(0.5) <= 3);
        assert!(h.percentile(1.0) >= 900);

        let mut a = Histogram::default();
        a.record(5);
        let mut b = Histogram::default();
        b.record(1_000_000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 2);
        assert_eq!(ab.min, 5);
        assert_eq!(ab.max, 1_000_000);
    }

    #[test]
    fn finish_drains_and_preserves_epoch() {
        let rec = MetricsRecorder::new(0, Instant::now());
        rec.set_epoch(3);
        rec.incr("x", 2);
        let f1 = rec.finish();
        assert_eq!(f1.counter("x"), 2);
        let f2 = rec.finish();
        assert_eq!(f2.counter("x"), 0);
        {
            let _g = span!(rec, Phase::Head);
        }
        let f3 = rec.finish();
        assert_eq!(f3.spans[0].epoch, 3, "epoch survives finish()");
    }

    #[test]
    fn run_metrics_absorb_merges_same_worker() {
        let mut run = RunMetrics::new();
        run.absorb(frame(0, 2));
        run.absorb(frame(0, 4));
        run.absorb(frame(1, 6));
        run.absorb(MetricsFrame::new(COORDINATOR));
        assert_eq!(run.frames.len(), 3);
        assert_eq!(run.frames[&0].counter("a"), 6);
        assert_eq!(run.total_counter("a"), 12);
        assert_eq!(run.worker_ids(), vec![0, 1]);
    }

    #[test]
    fn run_metrics_merge_adds_wall_and_frames() {
        let mut a = RunMetrics::new();
        a.absorb(frame(0, 1));
        a.wall_s = 1.5;
        let mut b = RunMetrics::new();
        b.absorb(frame(0, 2));
        b.absorb(frame(2, 3));
        b.wall_s = 0.5;
        a.merge(b);
        assert_eq!(a.frames.len(), 2);
        assert_eq!(a.frames[&0].counter("a"), 3);
        assert!((a.wall_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn layer_split_accumulates() {
        let rec = MetricsRecorder::new(0, Instant::now());
        rec.add_layer_split(
            1,
            LayerSplit {
                fwd_graph_ns: 10,
                fwd_nn_ns: 20,
                bwd_graph_ns: 30,
                bwd_nn_ns: 40,
            },
        );
        rec.add_layer_split(
            1,
            LayerSplit {
                fwd_graph_ns: 1,
                fwd_nn_ns: 2,
                bwd_graph_ns: 3,
                bwd_nn_ns: 4,
            },
        );
        let f = rec.finish();
        assert_eq!(f.layer_split.len(), 2);
        assert_eq!(f.layer_split[0], LayerSplit::default());
        assert_eq!(
            f.layer_split[1],
            LayerSplit {
                fwd_graph_ns: 11,
                fwd_nn_ns: 22,
                bwd_graph_ns: 33,
                bwd_nn_ns: 44,
            }
        );
    }
}
