//! Cluster membership view and the worker rejoin handshake.
//!
//! The elastic trainer treats failures as *transient*: a worker killed by
//! a fault (or voluntarily evicted as a straggler) leaves the active set,
//! the plan shrinks to the survivors, and at the next checkpoint boundary
//! the member re-admits through a [`request_rejoin`] / [`admit_rejoin`]
//! handshake — three [`Control`](crate::MessageKind::Control) round trips
//! on a fresh two-node fabric, after which the coordinator streams the
//! checkpointed parameters (metered as `membership.rejoin.bytes`) and the
//! plan is rebuilt over the restored world.
//!
//! The [`MembershipView`] is the coordinator's bookkeeping: every member's
//! [`MemberState`] keyed by its *original* slot, plus an append-only event
//! log. Worker plans are always indexed by *compact* rank (`0..active`),
//! so the view also provides the compact-rank ↔ original-slot mapping that
//! keeps fault attribution stable across renumberings.

use std::time::Duration;

use crate::fabric::{Endpoint, MessageKind, NetError, CONTROL_BYTES};

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

/// What the coordinator offers a rejoining worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinOffer {
    /// First epoch the rejoined worker will run (the checkpoint boundary).
    pub resume_epoch: usize,
    /// Size of the parameter/optimizer state the coordinator streams to
    /// bring the worker up to date, bytes.
    pub state_bytes: u64,
}

/// Control-plane bytes one complete handshake puts on the wire
/// (hello + resume-epoch offer + state-size offer + ack).
pub const REJOIN_HANDSHAKE_BYTES: u64 = 4 * CONTROL_BYTES;

fn recv_control(
    ep: &Endpoint,
    src: usize,
    timeout: Duration,
) -> Result<f64, NetError> {
    let msg = ep.recv_from_timeout(src, timeout)?;
    match msg.kind {
        MessageKind::Control(v) => Ok(v),
        other => Err(NetError::UnexpectedKind {
            peer: src,
            expected: "Control",
            got: other.name(),
        }),
    }
}

/// Joiner side of the rejoin handshake: announce the original `slot` we
/// want back, wait for the coordinator's offer, acknowledge it.
///
/// Runs against [`admit_rejoin`] on the other side of a two-node fabric
/// (conventionally coordinator = 0, joiner = 1); the two sides must run on
/// separate threads, exactly like the worker loops they model.
pub fn request_rejoin(
    ep: &Endpoint,
    coord: usize,
    slot: usize,
    timeout: Duration,
) -> Result<RejoinOffer, NetError> {
    ep.send(coord, MessageKind::Control(slot as f64))?;
    let resume_epoch = recv_control(ep, coord, timeout)? as usize;
    let state_bytes = recv_control(ep, coord, timeout)? as u64;
    ep.send(coord, MessageKind::Control(slot as f64))?; // ack
    Ok(RejoinOffer { resume_epoch, state_bytes })
}

/// Coordinator side of the rejoin handshake: wait for the joiner's hello,
/// answer with the resume epoch and the size of the state snapshot it must
/// ingest, and wait for the ack. Returns the original slot the joiner
/// announced (the caller decides whether to honor it).
pub fn admit_rejoin(
    ep: &Endpoint,
    joiner: usize,
    resume_epoch: usize,
    state_bytes: u64,
    timeout: Duration,
) -> Result<usize, NetError> {
    let slot = recv_control(ep, joiner, timeout)? as usize;
    ep.send(joiner, MessageKind::Control(resume_epoch as f64))?;
    ep.send(joiner, MessageKind::Control(state_bytes as f64))?;
    let ack = recv_control(ep, joiner, timeout)? as usize;
    if ack != slot {
        return Err(NetError::UnexpectedKind {
            peer: joiner,
            expected: "Control(ack=slot)",
            got: "Control(mismatched ack)",
        });
    }
    Ok(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;

    const T: Duration = Duration::from_millis(2_000);

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

    #[test]
    fn rejoin_handshake_round_trips() {
        let mut eps = Fabric::new(2).into_endpoints();
        let joiner = eps.pop().unwrap();
        let coord = eps.pop().unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(move || request_rejoin(&joiner, 0, 7, T));
            let slot = admit_rejoin(&coord, 1, 12, 4096, T).unwrap();
            assert_eq!(slot, 7);
            let st = coord.stats();
            assert_eq!(st.sent_msgs, 2);
            assert_eq!(st.sent_bytes, 2 * CONTROL_BYTES);
            let offer = h.join().unwrap().unwrap();
            assert_eq!(offer, RejoinOffer { resume_epoch: 12, state_bytes: 4096 });
        });
    }

    #[test]
    fn handshake_times_out_without_a_coordinator() {
        let mut eps = Fabric::new(2).into_endpoints();
        let joiner = eps.pop().unwrap();
        let err =
            request_rejoin(&joiner, 0, 1, Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, NetError::RecvTimeout { peer: 0, .. }), "{err:?}");
    }

    #[test]
    fn handshake_rejects_protocol_desync() {
        let mut eps = Fabric::new(2).into_endpoints();
        let joiner = eps.pop().unwrap();
        let coord = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                // A confused joiner sends rows instead of the hello.
                joiner
                    .send(
                        0,
                        MessageKind::Rows {
                            layer: 0,
                            ids: vec![1],
                            cols: 1,
                            data: vec![0.0],
                        },
                    )
                    .unwrap();
            });
            let err = admit_rejoin(&coord, 1, 0, 0, T).unwrap_err();
            assert!(
                matches!(err, NetError::UnexpectedKind { expected: "Control", .. }),
                "{err:?}"
            );
        });
    }

    #[test]
    fn handshake_byte_constant_matches_protocol() {
        let mut eps = Fabric::new(2).into_endpoints();
        let joiner = eps.pop().unwrap();
        let coord = eps.pop().unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                let offer = request_rejoin(&joiner, 0, 0, T).unwrap();
                (offer, joiner.stats().sent_bytes)
            });
            admit_rejoin(&coord, 1, 4, 99, T).unwrap();
            let coord_bytes = coord.stats().sent_bytes;
            let (_, joiner_bytes) = h.join().unwrap();
            assert_eq!(coord_bytes + joiner_bytes, REJOIN_HANDSHAKE_BYTES);
        });
    }
}
