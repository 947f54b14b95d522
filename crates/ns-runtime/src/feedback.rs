//! Measured-cost feedback: turning run metrics into replanning signals.
//!
//! The probed [`CostFactors`](crate::cost::CostFactors) are static — they
//! describe the modeled cluster, not the cluster as it behaves *right
//! now*. This module closes the loop: after every checkpoint chunk the
//! trainer feeds the chunk's [`RunMetrics`] through [`peer_waits`] and
//! [`calibrate`] to obtain
//!
//! * a per-peer communication multiplier (`peer_mult[p]`): how much more
//!   expensive fetching a dependency from peer `p` currently is than the
//!   cluster median, derived from the attributed per-peer receive-wait
//!   histograms (`net.recv.wait_ns.peer<k>`), and
//! * a global `comm_factor`: the drift of the mean per-message wait
//!   relative to the run's first chunk, folded into `T_c` via
//!   [`CostFactors::with_comm_scale`](crate::cost::CostFactors::with_comm_scale).
//!
//! When the drift passes [`CostCalibration::triggers_replan`], the trainer
//! re-runs the Algorithm-4 greedy split with these inputs and
//! [`diff_decisions`] reports, per owner, how many dependencies migrated
//! between the communicated set `C_i^l` and the cached set `R_i^l` — a
//! slow peer's dependencies shift toward caching. The same wait statistics
//! drive the straggler-eviction policy ([`pick_straggler`]).

use ns_metrics::{RunMetrics, COORDINATOR};

use crate::plan::DepDecision;

/// Ceiling on any single calibration multiplier, so one wedged counter
/// cannot blow the cost model into degenerate all-cache plans.
pub const MAX_CALIBRATION: f64 = 64.0;

/// Absolute floor for straggler eviction: below this per-message wait the
/// cluster is healthy no matter what the relative spread says (5 ms).
pub const STRAGGLER_FLOOR_NS: f64 = 5_000_000.0;

/// Per-peer multiplier above which a drift replan fires.
pub const REPLAN_PEER_TRIGGER: f64 = 2.0;

/// Global comm-factor drift above which a drift replan fires.
pub const REPLAN_GLOBAL_TRIGGER: f64 = 1.5;

/// Attributed per-peer receive-wait statistics for one chunk, indexed by
/// compact worker rank.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerWaitStats {
    /// `avg_wait_ns[p]`: the robust per-message wait attributed to peer
    /// `p` — minimum across receivers of the upper-quartile wait per
    /// message from `p` (0 when `p` sent nothing); see [`peer_waits`].
    pub avg_wait_ns: Vec<f64>,
    /// Messages received from each peer, summed over receivers.
    pub msgs: Vec<u64>,
}

impl PeerWaitStats {
    /// Mean per-message wait over peers that actually sent traffic.
    pub fn mean_wait_ns(&self) -> f64 {
        let active: Vec<f64> = self
            .avg_wait_ns
            .iter()
            .zip(&self.msgs)
            .filter(|(_, &m)| m > 0)
            .map(|(&w, _)| w)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Median per-message wait over peers with traffic (0 when silent).
    pub fn median_wait_ns(&self) -> f64 {
        let mut active: Vec<f64> = self
            .avg_wait_ns
            .iter()
            .zip(&self.msgs)
            .filter(|(_, &m)| m > 0)
            .map(|(&w, _)| w)
            .collect();
        if active.is_empty() {
            return 0.0;
        }
        active.sort_by(f64::total_cmp);
        let n = active.len();
        if n % 2 == 1 {
            active[n / 2]
        } else {
            (active[n / 2 - 1] + active[n / 2]) / 2.0
        }
    }
}

/// Aggregates the executor's per-peer `net.recv.wait_ns.peer<k>`
/// histograms into a robust per-peer wait estimate. What the executor
/// records there is already *attributed to the sender's link*: only the
/// part of a receive during which the message was in flight
/// (`ns_net::Message::link_wait`), so a healthy peer that is late to
/// send — it owns the heavier partition, it sits behind the straggler in
/// the BSP or ring cascade, its thread lost a core — reads zero at every
/// observer, however long they blocked on it. On top of that, for every
/// (receiver, peer) pair the **upper-quartile** (p75) per-message wait is
/// taken, then the **minimum across receivers**: a slow *member* delays
/// every burst on every one of its links, so every receiver's upper
/// quartile stays high and the minimum stays high too, while a single
/// slow or flapping *link* leaves the peer's other observers clean and
/// the minimum collapses to zero. The coordinator frame (checkpoint
/// bookkeeping) is skipped.
pub fn peer_waits(run: &RunMetrics, workers: usize) -> PeerWaitStats {
    let mut min_median = vec![f64::INFINITY; workers];
    let mut msgs = vec![0u64; workers];
    for (&w, frame) in &run.frames {
        if w == COORDINATOR {
            continue;
        }
        for (p, (av, mv)) in min_median.iter_mut().zip(msgs.iter_mut()).enumerate() {
            if p == w {
                continue;
            }
            if let Some(h) = frame.histograms.get(&format!("net.recv.wait_ns.peer{p}")) {
                if h.count > 0 {
                    *av = av.min(h.percentile(0.75) as f64);
                    *mv += h.count;
                }
            }
        }
    }
    let avg_wait_ns = min_median
        .into_iter()
        .map(|a| if a.is_finite() { a } else { 0.0 })
        .collect();
    PeerWaitStats { avg_wait_ns, msgs }
}

/// A measured correction to the probed cost factors.
#[derive(Debug, Clone, PartialEq)]
pub struct CostCalibration {
    /// Global multiplier on `T_c`: mean wait drift relative to the run's
    /// first chunk (1.0 when no baseline exists yet).
    pub comm_factor: f64,
    /// Per-owner multiplier on `T_c` for dependencies owned by that peer,
    /// relative to the cluster median (all ≥ 1; a healthy peer is 1.0).
    pub peer_mult: Vec<f64>,
    /// The chunk's mean per-message wait — the next baseline candidate.
    pub mean_wait_ns: f64,
}

impl CostCalibration {
    /// Whether the measured drift is large enough to justify re-running
    /// the Algorithm-4 split mid-training.
    pub fn triggers_replan(&self) -> bool {
        self.comm_factor >= REPLAN_GLOBAL_TRIGGER
            || self
                .peer_mult
                .iter()
                .any(|&m| m >= REPLAN_PEER_TRIGGER)
    }

}

/// Derives a calibration from one chunk's wait statistics.
///
/// `baseline_mean_ns` is the mean per-message wait of the run's first
/// chunk; `None` (first chunk itself) pins `comm_factor` to 1. Peers whose
/// wait sits at or below the median — and everything below the absolute
/// [`STRAGGLER_FLOOR_NS`] — calibrate to 1.0, so quiet clusters never
/// trigger spurious replans.
pub fn calibrate(stats: &PeerWaitStats, baseline_mean_ns: Option<f64>) -> CostCalibration {
    let median = stats.median_wait_ns();
    let peer_mult = stats
        .avg_wait_ns
        .iter()
        .map(|&w| {
            if w <= STRAGGLER_FLOOR_NS {
                1.0
            } else {
                (w / median.max(1.0)).clamp(1.0, MAX_CALIBRATION)
            }
        })
        .collect();
    let mean = stats.mean_wait_ns();
    let comm_factor = match baseline_mean_ns {
        Some(base) if base > 0.0 && mean > STRAGGLER_FLOOR_NS => {
            (mean / base).clamp(1.0, MAX_CALIBRATION)
        }
        _ => 1.0,
    };
    CostCalibration { comm_factor, peer_mult, mean_wait_ns: mean }
}

/// Straggler-eviction policy: the peer whose attributed wait exceeds
/// `factor` times the cluster median *and* the absolute floor. Returns the
/// compact rank of the worst offender, or `None` when everyone is within
/// tolerance.
pub fn pick_straggler(stats: &PeerWaitStats, factor: f64) -> Option<usize> {
    let median = stats.median_wait_ns();
    stats
        .avg_wait_ns
        .iter()
        .enumerate()
        .filter(|(p, &w)| {
            stats.msgs[*p] > 0 && w > STRAGGLER_FLOOR_NS && w > factor * median
        })
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(p, _)| p)
}

/// Per-owner migration counts between two dependency decisions over the
/// same world size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionDelta {
    /// `moved_to_cached[p]`: dependencies owned by peer `p` that were
    /// communicated under `old` and are cached under `new`.
    pub moved_to_cached: Vec<usize>,
    /// `moved_to_comm[p]`: the reverse migration.
    pub moved_to_comm: Vec<usize>,
}

impl DecisionDelta {
    /// Total dependencies that flipped from communicated to cached.
    pub fn total_to_cached(&self) -> usize {
        self.moved_to_cached.iter().sum()
    }

    /// Total dependencies that flipped from cached to communicated.
    pub fn total_to_comm(&self) -> usize {
        self.moved_to_comm.iter().sum()
    }
}

/// Diffs two [`DepDecision`]s over `workers` peers, attributing every
/// migrated dependency to the peer that owns it (`owner(u)`). Pure-engine
/// decisions are treated as empty/full cached sets respectively, so the
/// diff is defined across engine transitions too.
pub fn diff_decisions(
    old: &DepDecision,
    new: &DepDecision,
    workers: usize,
    num_layers: usize,
    deps: &[Vec<Vec<u32>>],
    owner: impl Fn(u32) -> usize,
) -> DecisionDelta {
    let mut delta = DecisionDelta {
        moved_to_cached: vec![0; workers],
        moved_to_comm: vec![0; workers],
    };
    for (w, worker_deps) in deps.iter().enumerate().take(workers) {
        for (lz, layer_deps) in worker_deps.iter().enumerate().take(num_layers) {
            for &u in layer_deps {
                let was = old.is_cached(w, lz, u);
                let is = new.is_cached(w, lz, u);
                if !was && is {
                    delta.moved_to_cached[owner(u)] += 1;
                } else if was && !is {
                    delta.moved_to_comm[owner(u)] += 1;
                }
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_metrics::MetricsRecorder;
    use ns_graph::fx::FxHashSet;
    use std::time::Instant;

    /// Builds a RunMetrics where worker `w` waited `wait[p]` ns total over
    /// `msgs[p]` messages from each peer `p` (spread uniformly, so the
    /// per-message median equals the average).
    fn run_with_waits(per_worker: &[Vec<(u64, u64)>]) -> RunMetrics {
        let origin = Instant::now();
        let mut run = RunMetrics::new();
        for (w, peers) in per_worker.iter().enumerate() {
            let rec = MetricsRecorder::new(w, origin);
            for (p, &(wait, msgs)) in peers.iter().enumerate() {
                if p == w || msgs == 0 {
                    continue;
                }
                for _ in 0..msgs {
                    rec.observe(&format!("net.recv.wait_ns.peer{p}"), wait / msgs);
                }
            }
            run.absorb(rec.finish());
        }
        run
    }

    #[test]
    fn peer_waits_attribute_to_the_sender() {
        // Workers 0 and 2 each waited 30ms over 3 msgs on peer 1;
        // everything else is instant.
        let run = run_with_waits(&[
            vec![(0, 0), (30_000_000, 3), (3_000, 3)],
            vec![(2_000, 2), (0, 0), (2_000, 2)],
            vec![(1_000, 1), (30_000_000, 3), (0, 0)],
        ]);
        let stats = peer_waits(&run, 3);
        assert_eq!(stats.msgs, vec![3, 6, 5]);
        assert!((stats.avg_wait_ns[1] - 10_000_000.0).abs() < 1.0);
        assert!(stats.avg_wait_ns[0] < 2_000.0);
        assert!(stats.avg_wait_ns[2] < 2_000.0);
    }

    #[test]
    fn straggler_calibration_and_eviction() {
        let run = run_with_waits(&[
            vec![(0, 0), (40_000_000, 4), (4_000, 4)],
            vec![(4_000, 4), (0, 0), (4_000, 4)],
            vec![(4_000, 4), (40_000_000, 4), (0, 0)],
        ]);
        let stats = peer_waits(&run, 3);
        let calib = calibrate(&stats, None);
        assert_eq!(calib.comm_factor, 1.0, "no baseline, no global drift");
        assert!(calib.peer_mult[1] > REPLAN_PEER_TRIGGER);
        assert_eq!(calib.peer_mult[0], 1.0);
        assert_eq!(calib.peer_mult[2], 1.0);
        assert!(calib.triggers_replan());
        assert_eq!(pick_straggler(&stats, 4.0), Some(1));
    }

    #[test]
    fn healthy_cluster_is_quiet() {
        let run = run_with_waits(&[
            vec![(0, 0), (9_000, 3), (9_000, 3)],
            vec![(6_000, 3), (0, 0), (12_000, 3)],
            vec![(9_000, 3), (9_000, 3), (0, 0)],
        ]);
        let stats = peer_waits(&run, 3);
        let calib = calibrate(&stats, Some(stats.mean_wait_ns()));
        assert_eq!(calib.peer_mult, vec![1.0; 3], "sub-floor waits calibrate to 1");
        assert_eq!(calib.comm_factor, 1.0);
        assert!(!calib.triggers_replan());
        assert_eq!(pick_straggler(&stats, 4.0), None);
    }

    #[test]
    fn global_drift_scales_comm_factor() {
        let run = run_with_waits(&[
            vec![(0, 0), (20_000_000, 2), (20_000_000, 2)],
            vec![(20_000_000, 2), (0, 0), (20_000_000, 2)],
        ]);
        let stats = peer_waits(&run, 3);
        // First chunk averaged 4ms per message; this one averages 10ms.
        let calib = calibrate(&stats, Some(4_000_000.0));
        assert!((calib.comm_factor - 2.5).abs() < 1e-9);
        assert!(calib.triggers_replan());
        // And the clamp holds against absurd drift.
        let wild = calibrate(&stats, Some(1.0));
        assert_eq!(wild.comm_factor, MAX_CALIBRATION);
    }

    #[test]
    fn decision_diff_attributes_migrations_to_owners() {
        // 2 workers, 1 layer. Worker 0 depends on {10, 11}, worker 1 on
        // {20}. Owners: 10, 20 -> peer 1; 11 -> peer 0.
        let deps = vec![vec![vec![10u32, 11]], vec![vec![20u32]]];
        let owner = |u: u32| if u == 11 { 0 } else { 1 };
        let old = DepDecision::CommAll;
        let mut sets = vec![vec![FxHashSet::default()], vec![FxHashSet::default()]];
        sets[0][0].insert(10u32);
        sets[1][0].insert(20u32);
        let new = DepDecision::Sets(sets);
        let delta = diff_decisions(&old, &new, 2, 1, &deps, owner);
        assert_eq!(delta.moved_to_cached, vec![0, 2]);
        assert_eq!(delta.moved_to_comm, vec![0, 0]);
        assert_eq!(delta.total_to_cached(), 2);
        // The reverse diff mirrors it.
        let back = diff_decisions(&new, &old, 2, 1, &deps, owner);
        assert_eq!(back.moved_to_comm, vec![0, 2]);
        assert_eq!(back.total_to_cached(), 0);
    }
}
