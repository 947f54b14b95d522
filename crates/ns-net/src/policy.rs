//! Backoff and circuit-breaker policy for everything that waits on a
//! peer.
//!
//! With one fixed timeout per caller, a link partition means (a) every
//! worker retries on the same schedule, so a shared stall turns into a
//! synchronized retry storm, and (b) a caller keeps paying the full
//! timeout on every operation against a link that has been dead for
//! minutes. Two small pieces fix the two problems:
//!
//! * [`Backoff`] — bounded exponential backoff over retry windows with
//!   *deterministic seeded jitter*: two workers retrying after the same
//!   stall draw different window widths (seeded by who they are), so
//!   they desynchronize, but a rerun of the same seed reproduces the
//!   exact schedule. The first and final windows stay nominal — the first
//!   so fast failures stay fast, the final so the total wait still absorbs
//!   the longest injected retransmit delay. Jitter only shortens windows,
//!   so the nominal sum bounds the whole operation.
//! * [`CircuitBreaker`] — per-peer Closed → Open → HalfOpen state. After
//!   `threshold` consecutive failures the breaker opens and further
//!   attempts fail instantly (no window spent) until `cooldown` passes;
//!   then exactly one probe is let through (HalfOpen) and its outcome
//!   re-opens or closes the breaker. Callers export the counters in
//!   [`BreakerStats`] as `net.breaker.*`.
//!
//! None of this is wall-clock-free: cooldowns are measured on
//! [`Instant`]. What *is* deterministic is every decision that does not
//! depend on real elapsed time — the jittered window sequence is a pure
//! function of `(seed, key, attempt)`.

use std::time::{Duration, Instant};

use ns_rand::mix64;

/// Deterministic uniform draw in `[0, 1)` from `(seed, key, attempt)`:
/// the mixer the fault layer uses, so one seed gives independent-looking
/// streams for every `(key, attempt)`.
fn unit(seed: u64, key: u64, attempt: u32) -> f64 {
    ns_rand::unit(mix64(seed ^ mix64(key ^ ((attempt as u64) << 32))))
}

/// Bounded exponential backoff with deterministic seeded jitter.
///
/// Window `i` (0-based attempt counter) is nominally `base << i`.
/// Middle windows are scaled by a jitter factor in `[0.5, 1.0)` drawn
/// deterministically from `(seed, key, attempt)`; the first and final
/// windows stay nominal (see module docs for why). The iterator yields
/// `retries + 1` windows, then `None`.
///
/// ```
/// use ns_net::policy::Backoff;
///
/// let mut a = Backoff::new(100, 3, 42, 7);
/// let mut b = Backoff::new(100, 3, 42, 8); // different key (e.g. other worker)
/// let wa: Vec<_> = std::iter::from_fn(|| a.next_wait()).collect();
/// let wb: Vec<_> = std::iter::from_fn(|| b.next_wait()).collect();
/// assert_eq!(wa.len(), 4);
/// assert_eq!(wa[0], wb[0], "first window is nominal for both");
/// assert_ne!(wa[1..3], wb[1..3], "middle windows desynchronize");
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    retries: u32,
    seed: u64,
    key: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule of `retries + 1` windows starting at `base_ms`,
    /// doubling each attempt, jittered by `(seed, key)`.
    pub fn new(base_ms: u64, retries: u32, seed: u64, key: u64) -> Self {
        Backoff { base_ms: base_ms.max(1), retries, seed, key, attempt: 0 }
    }

    /// Attempts handed out so far.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Next receive/retry window, or `None` when the retry budget is
    /// spent. Never returns a zero window.
    pub fn next_wait(&mut self) -> Option<Duration> {
        if self.attempt > self.retries {
            return None;
        }
        let i = self.attempt;
        self.attempt += 1;
        let nominal = self.base_ms.saturating_mul(1u64 << i.min(20));
        let ms = if i == 0 || i == self.retries {
            // First window: fast failures stay fast and reproducible.
            // Final window: keep the full-width catch-all so the total
            // schedule still outwaits the longest modeled retransmit.
            nominal
        } else {
            let u = unit(self.seed, self.key, i);
            ((nominal as f64) * (0.5 + 0.5 * u)) as u64
        };
        Some(Duration::from_millis(ms.max(1)))
    }
}

/// Breaker state, in the classic three-state pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every attempt is allowed.
    Closed,
    /// Tripped: attempts fail instantly until the cooldown passes.
    Open,
    /// Cooldown passed: exactly one probe is in flight; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

/// Counters a breaker accumulates over its lifetime; callers export
/// them as `net.breaker.{opens,closes,half_opens,fast_fails}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/HalfOpen → Open transitions.
    pub opens: u64,
    /// Open → HalfOpen transitions (probes admitted).
    pub half_opens: u64,
    /// HalfOpen → Closed transitions (probe succeeded).
    pub closes: u64,
    /// Attempts rejected instantly because the breaker was Open.
    pub fast_fails: u64,
}

/// Per-peer circuit breaker: stop hammering a link that keeps failing,
/// probe it again after a cooldown.
///
/// ```
/// use std::time::Duration;
/// use ns_net::policy::{BreakerState, CircuitBreaker};
///
/// let mut br = CircuitBreaker::new(2, Duration::from_millis(0));
/// assert!(br.allow());
/// br.record_failure();
/// br.record_failure(); // threshold reached -> Open
/// assert_eq!(br.state(), BreakerState::Open);
/// // Zero cooldown: the next attempt is the HalfOpen probe.
/// assert!(br.allow());
/// br.record_success();
/// assert_eq!(br.state(), BreakerState::Closed);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    threshold: u32,
    cooldown: Duration,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// Opens after `threshold` consecutive failures; admits a HalfOpen
    /// probe once `cooldown` has passed since opening. A threshold of 0
    /// is treated as 1 (a breaker that can never close is useless).
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            threshold: threshold.max(1),
            cooldown,
            consecutive_failures: 0,
            opened_at: None,
            stats: BreakerStats::default(),
        }
    }

    /// Current state (does not advance Open → HalfOpen; only
    /// [`allow`](Self::allow) does that).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime transition counters.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether an attempt may proceed right now. `false` means fail
    /// fast without spending any wait. Advances Open → HalfOpen when
    /// the cooldown has passed (admitting exactly one probe).
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                // One probe at a time: further attempts fail fast until
                // the in-flight probe reports.
                self.stats.fast_fails += 1;
                false
            }
            BreakerState::Open => {
                let cooled = self
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if cooled {
                    self.state = BreakerState::HalfOpen;
                    self.stats.half_opens += 1;
                    true
                } else {
                    self.stats.fast_fails += 1;
                    false
                }
            }
        }
    }

    /// Reports a successful attempt: any state returns to Closed and the
    /// failure streak resets.
    pub fn record_success(&mut self) {
        if self.state != BreakerState::Closed {
            self.stats.closes += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// Reports a failed attempt. In HalfOpen the probe failed and the
    /// breaker re-opens immediately; in Closed the streak grows and
    /// trips the breaker at the threshold.
    pub fn record_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = Some(Instant::now());
                self.stats.opens += 1;
            }
            BreakerState::Closed => {
                if self.consecutive_failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(Instant::now());
                    self.stats.opens += 1;
                }
            }
            BreakerState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_yields_retries_plus_one_windows_then_none() {
        let mut bo = Backoff::new(10, 3, 1, 2);
        let windows: Vec<_> = std::iter::from_fn(|| bo.next_wait()).collect();
        assert_eq!(windows.len(), 4);
        assert!(bo.next_wait().is_none());
        assert_eq!(bo.attempt(), 4);
    }

    #[test]
    fn backoff_first_and_final_windows_are_nominal() {
        let mut bo = Backoff::new(10, 3, 99, 7);
        let w: Vec<_> = std::iter::from_fn(|| bo.next_wait()).collect();
        assert_eq!(w[0], Duration::from_millis(10));
        assert_eq!(w[3], Duration::from_millis(80));
        // Middle windows are jittered into [0.5, 1.0) of nominal.
        assert!(w[1] >= Duration::from_millis(10) && w[1] < Duration::from_millis(20));
        assert!(w[2] >= Duration::from_millis(20) && w[2] < Duration::from_millis(40));
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_key() {
        let draw = |seed, key| {
            let mut bo = Backoff::new(100, 4, seed, key);
            std::iter::from_fn(move || bo.next_wait()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5, 1), draw(5, 1), "same seed+key replays exactly");
        assert_ne!(draw(5, 1)[1..4], draw(5, 2)[1..4], "different key desyncs");
        assert_ne!(draw(5, 1)[1..4], draw(6, 1)[1..4], "different seed desyncs");
    }

    #[test]
    fn backoff_total_never_exceeds_nominal() {
        // This bound is why no receive carries a separate deadline budget:
        // walking the jittered windows cannot outlast the nominal schedule,
        // and a corrupt frame is re-read inside its window, not in a new one.
        let nominal: u64 = (0..=5).map(|i| 10u64 << i).sum();
        for key in 0..32 {
            let mut bo = Backoff::new(10, 5, 11, key);
            let total: u64 = std::iter::from_fn(|| bo.next_wait())
                .map(|d| d.as_millis() as u64)
                .sum();
            assert!(total <= nominal, "key {key}: {total} > {nominal}");
            // ...and the unjittered head+tail keep at least half the
            // schedule, so injected retransmit delays still fit.
            assert!(total >= nominal / 2, "key {key}: {total} < {}", nominal / 2);
        }
    }

    #[test]
    fn breaker_opens_at_threshold_and_fast_fails() {
        let mut br = CircuitBreaker::new(3, Duration::from_secs(60));
        for _ in 0..2 {
            assert!(br.allow());
            br.record_failure();
            assert_eq!(br.state(), BreakerState::Closed);
        }
        br.record_failure();
        assert_eq!(br.state(), BreakerState::Open);
        assert!(!br.allow(), "open breaker rejects instantly");
        assert_eq!(br.stats().opens, 1);
        assert_eq!(br.stats().fast_fails, 1);
    }

    #[test]
    fn breaker_probe_closes_on_success_and_reopens_on_failure() {
        let mut br = CircuitBreaker::new(1, Duration::from_millis(0));
        br.record_failure();
        assert_eq!(br.state(), BreakerState::Open);
        // Cooldown 0: the next attempt is the probe.
        assert!(br.allow());
        assert_eq!(br.state(), BreakerState::HalfOpen);
        br.record_failure();
        assert_eq!(br.state(), BreakerState::Open, "failed probe re-opens");
        assert!(br.allow());
        br.record_success();
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.stats().half_opens, 2);
        assert_eq!(br.stats().closes, 1);
        assert_eq!(br.stats().opens, 2);
    }

    #[test]
    fn breaker_respects_cooldown() {
        let mut br = CircuitBreaker::new(1, Duration::from_millis(40));
        br.record_failure();
        assert!(!br.allow(), "still cooling down");
        std::thread::sleep(Duration::from_millis(50));
        assert!(br.allow(), "cooldown passed -> probe admitted");
        assert_eq!(br.state(), BreakerState::HalfOpen);
        // Only one probe at a time.
        assert!(!br.allow());
    }

    #[test]
    fn breaker_success_resets_the_failure_streak() {
        let mut br = CircuitBreaker::new(3, Duration::from_secs(1));
        br.record_failure();
        br.record_failure();
        br.record_success();
        assert_eq!(br.consecutive_failures(), 0);
        br.record_failure();
        br.record_failure();
        assert_eq!(br.state(), BreakerState::Closed, "streak restarted after success");
    }
}
