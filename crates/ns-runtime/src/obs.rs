//! Bridges from the discrete-event cluster simulator's output to the
//! observability layer: busy intervals become [`SimSpan`]s on the
//! modeled-clock track of the Chrome trace, and the derived summaries
//! (communication/computation share, utilization time-series) that the
//! figure benches print are computed here instead of being re-derived
//! ad hoc at every call site. The fabric-counter exporter the training
//! workers and the serving shards share, and serving's circuit-breaker
//! exporter, live here too.

use ns_metrics::{MetricsRecorder, Phase, RunMetrics, SimSpan, COORDINATOR};
use ns_net::policy::{BreakerState, BreakerStats, CircuitBreaker};
use ns_net::sim::{ResourceKind, SimReport};
use ns_net::{Endpoint, NetStats, KIND_NAMES};

/// Converts a simulator report's busy intervals into trace spans on the
/// modeled clock (microseconds). One span per busy interval, labeled with
/// its [`ResourceKind::name`], suitable for
/// [`ns_metrics::RunMetrics::sim_spans`].
pub fn sim_spans(report: &SimReport) -> Vec<SimSpan> {
    let mut out = Vec::new();
    for (worker, resources) in report.busy.iter().enumerate() {
        for (kind, intervals) in ResourceKind::ALL.into_iter().zip(resources) {
            for &(start, end) in intervals {
                out.push(SimSpan {
                    worker,
                    resource: kind.name(),
                    start_us: start * 1e6,
                    end_us: end * 1e6,
                });
            }
        }
    }
    out
}

/// The slowest worker's compute time over the workers' mean, where compute
/// is `fwd_compute + bwd_compute + head + opt_step` summed over the run
/// (so also the ratio of the per-epoch means). 1.0 is a balanced
/// partition; at 1.3 the other workers of a 2-worker run compute 0.54x as
/// long and wait out the rest of every epoch in a receive. `None` when no
/// worker recorded compute.
pub fn compute_skew(run: &RunMetrics) -> Option<f64> {
    const COMPUTE: [Phase; 4] = [Phase::FwdCompute, Phase::BwdCompute, Phase::Head, Phase::OptStep];
    let per_worker: Vec<u64> = run
        .frames
        .values()
        .filter(|f| f.worker != COORDINATOR)
        .map(|f| COMPUTE.iter().map(|&p| f.phase_total_ns(p)).sum())
        .collect();
    let total: u64 = per_worker.iter().sum();
    let slowest = *per_worker.iter().max()?;
    (total > 0).then(|| slowest as f64 * per_worker.len() as f64 / total as f64)
}

/// The communication/computation split of one simulated epoch, as plotted
/// in the paper's Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBreakdown {
    /// Modeled seconds per epoch (the makespan).
    pub epoch_s: f64,
    /// Mean per-worker ingress busy seconds — the epoch's communication
    /// share.
    pub comm_s: f64,
    /// The remainder attributed to computation (clamped at zero).
    pub compute_s: f64,
}

/// Splits a simulated epoch into communication and computation shares:
/// ingress-NIC busy time averaged over workers, with the rest of the
/// makespan counted as compute.
pub fn sim_breakdown(report: &SimReport) -> SimBreakdown {
    let workers = report.busy.len().max(1);
    let comm_s = report.total_busy(ResourceKind::NicIn) / workers as f64;
    SimBreakdown {
        epoch_s: report.makespan,
        comm_s,
        compute_s: (report.makespan - comm_s).max(0.0),
    }
}

/// One worker's utilization time-series over the whole simulated epoch,
/// split into `buckets` equal windows — the trace format of the paper's
/// Fig. 13. Returns an empty series when the report has no extent.
pub fn utilization_trace(
    report: &SimReport,
    worker: usize,
    kind: ResourceKind,
    buckets: usize,
) -> Vec<f64> {
    if report.makespan <= 0.0 || buckets == 0 {
        return Vec::new();
    }
    let bucket = report.makespan / buckets as f64;
    let mut series = report.utilization(worker, kind, bucket, report.makespan);
    // `makespan / bucket` can round up to an extra sliver bucket.
    series.truncate(buckets);
    series
}

/// Copies an endpoint's [`NetStats`] snapshot into recorder counters:
/// `net.sent.{msgs,bytes}` totals plus per-kind (`.rows`, `.grads`, …)
/// and per-peer (`.peer<k>`) breakdowns, fault-injection counts, and
/// receiver-side duplicate suppressions. Training workers and serving
/// shards (and the serve frontend) all export through this one function.
pub(crate) fn export_net_stats(rec: &MetricsRecorder, stats: &NetStats) {
    rec.incr("net.sent.msgs", stats.sent_msgs);
    rec.incr("net.sent.bytes", stats.sent_bytes);
    rec.incr("net.encode.frames", stats.encode_frames);
    rec.incr("net.encode.bytes", stats.encode_bytes);
    for (k, name) in KIND_NAMES.iter().enumerate() {
        if stats.sent_msgs_by_kind[k] > 0 {
            rec.incr(&format!("net.sent.msgs.{name}"), stats.sent_msgs_by_kind[k]);
            rec.incr(&format!("net.sent.bytes.{name}"), stats.sent_bytes_by_kind[k]);
        }
    }
    for (peer, &msgs) in stats.sent_msgs_by_peer.iter().enumerate() {
        if msgs > 0 {
            rec.incr(&format!("net.sent.msgs.peer{peer}"), msgs);
            rec.incr(&format!("net.sent.bytes.peer{peer}"), stats.sent_bytes_by_peer[peer]);
        }
    }
    if stats.delays_injected > 0 {
        rec.incr("net.fault.delays", stats.delays_injected);
    }
    if stats.dups_injected > 0 {
        rec.incr("net.fault.dups", stats.dups_injected);
    }
    if stats.dups_suppressed > 0 {
        rec.incr("net.recv.dups_suppressed", stats.dups_suppressed);
    }
    if stats.corrupts_injected > 0 {
        rec.incr("net.fault.corrupts", stats.corrupts_injected);
    }
    if stats.severed_msgs > 0 {
        rec.incr("net.fault.severed", stats.severed_msgs);
    }
    if stats.crc_failures > 0 {
        rec.incr("integrity.crc_fail", stats.crc_failures);
    }
    if stats.rereads > 0 {
        rec.incr("integrity.reread", stats.rereads);
    }
}

/// Folds per-peer circuit breakers' lifetime counters into
/// `net.breaker.{opens,closes,half_opens,fast_fails}` and flags breakers
/// left Open against a peer that is reachable right now
/// (`net.breaker.stuck_open` — an Open breaker over a healed link means
/// the probe machinery failed). A peer
/// for which `excused` holds may stay Open: serving passes its killed
/// shards, whose links never come back. Training has no breakers, so
/// these meters are serve-only.
pub(crate) fn export_breaker_stats(
    rec: &MetricsRecorder,
    ep: &Endpoint,
    breakers: &[CircuitBreaker],
    excused: impl Fn(usize) -> bool,
) {
    let (epoch, now_ms) = (ep.epoch(), ep.link_now_ms());
    let mut sum = BreakerStats::default();
    let mut stuck_open = 0u64;
    for (peer, br) in breakers.iter().enumerate() {
        let st = br.stats();
        sum.opens += st.opens;
        sum.closes += st.closes;
        sum.half_opens += st.half_opens;
        sum.fast_fails += st.fast_fails;
        if br.state() == BreakerState::Open
            && !excused(peer)
            && !ep.faults().link_severed(epoch, ep.id(), peer, now_ms)
        {
            stuck_open += 1;
        }
    }
    for (key, n) in [
        ("net.breaker.opens", sum.opens),
        ("net.breaker.closes", sum.closes),
        ("net.breaker.half_opens", sum.half_opens),
        ("net.breaker.fast_fails", sum.fast_fails),
        ("net.breaker.stuck_open", stuck_open),
    ] {
        if n > 0 {
            rec.incr(key, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            makespan: 2.0,
            finish: vec![2.0],
            busy: vec![
                [vec![(0.0, 1.0)], vec![(0.5, 1.0)], vec![(1.0, 1.5)]],
                [vec![(0.0, 2.0)], vec![], vec![(0.5, 1.0)]],
            ],
        }
    }

    #[test]
    fn compute_skew_is_slowest_over_mean_and_ignores_waiting() {
        let mut run = RunMetrics::new();
        assert_eq!(compute_skew(&run), None);
        for (worker, fwd, wait) in [(0, 60u64, 45u64), (1, 100, 0), (COORDINATOR, 0, 500)] {
            let mut f = ns_metrics::MetricsFrame::new(worker);
            f.phase_ns.insert((Phase::FwdCompute, 0), fwd);
            f.phase_ns.insert((Phase::BwdCompute, 1), fwd);
            f.phase_ns.insert((Phase::SyncWait, -1), wait);
            f.phase_ns.insert((Phase::CkptSave, -1), wait);
            run.absorb(f);
        }
        assert_eq!(compute_skew(&run), Some(200.0 * 2.0 / 320.0));
    }

    #[test]
    fn spans_cover_every_busy_interval_in_microseconds() {
        let spans = sim_spans(&report());
        assert_eq!(spans.len(), 5);
        let dev0: Vec<_> = spans
            .iter()
            .filter(|s| s.worker == 0 && s.resource == "device")
            .collect();
        assert_eq!(dev0.len(), 1);
        assert_eq!(dev0[0].start_us, 0.0);
        assert_eq!(dev0[0].end_us, 1e6);
        assert!(spans.iter().any(|s| s.resource == "nic_in" && s.worker == 1));
    }

    #[test]
    fn breakdown_splits_makespan_into_comm_and_compute() {
        let b = sim_breakdown(&report());
        assert_eq!(b.epoch_s, 2.0);
        // Ingress busy: 0.5s (w0) + 0.5s (w1), over 2 workers.
        assert!((b.comm_s - 0.5).abs() < 1e-12);
        assert!((b.compute_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_trace_buckets_span_the_epoch() {
        let r = report();
        let series = utilization_trace(&r, 1, ResourceKind::Device, 4);
        assert_eq!(series.len(), 4);
        // Worker 1's device is busy the whole epoch.
        for u in series {
            assert!((u - 1.0).abs() < 1e-9);
        }
        assert!(utilization_trace(&r, 0, ResourceKind::Device, 0).is_empty());
    }
}
