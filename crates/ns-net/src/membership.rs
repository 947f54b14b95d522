//! Cluster membership view and the cost of the worker rejoin handshake.
//!
//! The elastic trainer treats failures as *transient*: a worker killed by
//! a fault (or voluntarily evicted as a straggler) leaves the active set,
//! the plan shrinks to the survivors, and at the next checkpoint boundary
//! the member re-admits: it announces its slot, the coordinator offers the
//! resume epoch and the state size, the member acknowledges — four
//! [`Control`](crate::MessageKind::Control) messages,
//! [`REJOIN_HANDSHAKE_BYTES`] — and the coordinator streams the
//! checkpointed parameters. Both are metered as `membership.rejoin.bytes`,
//! and the plan is rebuilt over the restored world.
//!
//! The [`MembershipView`] is the coordinator's bookkeeping: every member's
//! [`MemberState`] keyed by its *original* slot, plus an append-only event
//! log. Worker plans are always indexed by *compact* rank (`0..active`),
//! so the view also provides the compact-rank ↔ original-slot mapping that
//! keeps fault attribution stable across renumberings.

use crate::fabric::CONTROL_BYTES;

/// Lifecycle state of one cluster member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Participating in training.
    Active,
    /// Crashed mid-chunk (kill fault / wedged peer); awaiting rejoin.
    Failed,
    /// Voluntarily removed by the straggler policy; awaiting rejoin.
    Evicted,
}

/// What happened to a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEventKind {
    /// The member crashed and was dropped from the plan.
    Failed,
    /// The member was evicted as a straggler at a checkpoint boundary.
    Evicted,
    /// The member re-admitted through the rejoin handshake.
    Rejoined,
}

impl MembershipEventKind {
    /// Name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            MembershipEventKind::Failed => "failed",
            MembershipEventKind::Evicted => "evicted",
            MembershipEventKind::Rejoined => "rejoined",
        }
    }
}

/// One entry of the membership event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Epoch boundary the transition took effect at (for failures: the
    /// epoch the failure surfaced in).
    pub epoch: usize,
    /// The member's *original* slot in the full world.
    pub worker: usize,
    /// The transition.
    pub kind: MembershipEventKind,
}

/// The coordinator's view of who is in the cluster.
///
/// Slots are the original worker ids (`0..world`); the *compact rank* of
/// an active member is its index in the sorted active list, which is the
/// worker id the execution plans and the fabric use. When the view is
/// full, compact rank and original slot coincide.
#[derive(Debug, Clone)]
pub struct MembershipView {
    states: Vec<MemberState>,
    events: Vec<MembershipEvent>,
}

impl MembershipView {
    /// A full, healthy world of `world` members.
    pub fn new(world: usize) -> Self {
        Self { states: vec![MemberState::Active; world], events: Vec::new() }
    }

    /// Original world size.
    pub fn world(&self) -> usize {
        self.states.len()
    }

    /// State of one member by original slot.
    pub fn state(&self, slot: usize) -> MemberState {
        self.states[slot]
    }

    /// Original slots of the active members, ascending — index in this
    /// list is the member's compact rank.
    pub fn active(&self) -> Vec<usize> {
        (0..self.states.len()).filter(|&s| self.states[s] == MemberState::Active).collect()
    }

    /// Number of active members.
    pub fn active_count(&self) -> usize {
        self.states.iter().filter(|s| **s == MemberState::Active).count()
    }

    /// Whether every member is active.
    pub fn is_full(&self) -> bool {
        self.active_count() == self.world()
    }

    /// Original slots currently out of the cluster (failed or evicted).
    pub fn missing(&self) -> Vec<usize> {
        (0..self.states.len()).filter(|&s| self.states[s] != MemberState::Active).collect()
    }

    /// Resolves a compact rank (plan/fabric worker id) to the member's
    /// original slot. Panics if the rank exceeds the active count.
    pub fn slot_of_rank(&self, rank: usize) -> usize {
        self.active()[rank]
    }

    /// Records that the member at compact rank `rank` crashed at `epoch`;
    /// returns its original slot.
    pub fn mark_failed(&mut self, rank: usize, epoch: usize) -> usize {
        let slot = self.slot_of_rank(rank);
        self.states[slot] = MemberState::Failed;
        self.events.push(MembershipEvent {
            epoch,
            worker: slot,
            kind: MembershipEventKind::Failed,
        });
        slot
    }

    /// Records that the member at compact rank `rank` was evicted as a
    /// straggler at the `epoch` boundary; returns its original slot.
    pub fn mark_evicted(&mut self, rank: usize, epoch: usize) -> usize {
        let slot = self.slot_of_rank(rank);
        self.states[slot] = MemberState::Evicted;
        self.events.push(MembershipEvent {
            epoch,
            worker: slot,
            kind: MembershipEventKind::Evicted,
        });
        slot
    }

    /// Re-admits the member at original `slot` at the `epoch` boundary.
    pub fn admit(&mut self, slot: usize, epoch: usize) {
        debug_assert_ne!(self.states[slot], MemberState::Active, "double admit");
        self.states[slot] = MemberState::Active;
        self.events.push(MembershipEvent {
            epoch,
            worker: slot,
            kind: MembershipEventKind::Rejoined,
        });
    }

    /// The append-only event log.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }
}

/// Control-plane bytes one complete handshake puts on the wire
/// (hello + resume-epoch offer + state-size offer + ack).
pub const REJOIN_HANDSHAKE_BYTES: u64 = 4 * CONTROL_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_view_is_full() {
        let view = MembershipView::new(4);
        assert_eq!(view.world(), 4);
        assert!(view.is_full());
        assert_eq!(view.active(), vec![0, 1, 2, 3]);
        assert!(view.missing().is_empty());
        assert!(view.events().is_empty());
    }

    #[test]
    fn fail_shrinks_and_admit_restores() {
        let mut view = MembershipView::new(3);
        let slot = view.mark_failed(1, 5);
        assert_eq!(slot, 1);
        assert_eq!(view.active(), vec![0, 2]);
        assert_eq!(view.active_count(), 2);
        assert!(!view.is_full());
        assert_eq!(view.missing(), vec![1]);
        assert_eq!(view.state(1), MemberState::Failed);
        // Compact rank 1 now maps to original slot 2.
        assert_eq!(view.slot_of_rank(1), 2);
        view.admit(1, 6);
        assert!(view.is_full());
        assert_eq!(view.slot_of_rank(1), 1);
        let kinds: Vec<_> = view.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![MembershipEventKind::Failed, MembershipEventKind::Rejoined]
        );
    }

    #[test]
    fn renumbered_failure_attributes_original_slot() {
        let mut view = MembershipView::new(4);
        view.mark_failed(2, 1); // original slot 2 dies
        // In the shrunken world {0, 1, 3}, compact rank 2 is original 3.
        let slot = view.mark_evicted(2, 3);
        assert_eq!(slot, 3);
        assert_eq!(view.active(), vec![0, 1]);
        assert_eq!(view.state(3), MemberState::Evicted);
    }
}
