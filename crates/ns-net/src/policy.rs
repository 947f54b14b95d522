//! Circuit-breaker policy for a caller that keeps waiting on peers
//! across many independent operations.
//!
//! With one fixed timeout per operation, a caller keeps paying the full
//! timeout on every operation against a link that has been dead for
//! minutes. [`CircuitBreaker`] is per-peer Closed → Open → HalfOpen
//! state: after `threshold` consecutive failures the breaker opens and
//! further attempts fail instantly (no window spent) until `cooldown`
//! passes; then exactly one probe is let through (HalfOpen) and its
//! outcome re-opens or closes the breaker. Callers export the counters in
//! [`BreakerStats`] as `net.breaker.*`.
//!
//! Only serving uses it: a query that skips a failed shard still has an
//! answer to give. Training does not. Its epoch is synchronous, so every
//! receive waits on one deadline, and a peer that misses it fails the
//! worker and hands the run to the recovery loop.
//!
//! Cooldowns are measured on [`Instant`], so a breaker is not
//! wall-clock-free.

use std::time::{Duration, Instant};

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
