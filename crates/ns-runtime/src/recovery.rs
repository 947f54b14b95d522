//! Checkpoint-based epoch recovery for the fault-tolerant trainer.
//!
//! The trainer runs the epoch loop in *chunks* of `checkpoint_every`
//! epochs and hands each successful chunk's parameters and Adam state
//! straight to the next. After every such chunk it also captures a
//! [`Checkpoint`]: that state encoded once, through `ns_tensor::checkpoint`
//! (magic `NTSCKPT1`, then the Adam section), with one CRC32 over the
//! bytes. When a chunk fails with
//! [`RuntimeError::WorkerFailed`](crate::error::RuntimeError), the
//! trainer drops the dead worker, repartitions the plan over the
//! survivors, restores the last checkpoint and resumes from its epoch —
//! replaying at most `checkpoint_every - 1` epochs of lost work. The
//! in-memory checkpoint is byte for byte the payload the durable store
//! (`crate::store`) writes after its header, so an in-memory rollback
//! decodes exactly what a process-level restart would read back from
//! disk.

use ns_tensor::checkpoint::{self, CheckpointError};
use ns_tensor::{AdamState, ParamStore};

/// Recovery policy for [`Trainer::train`](crate::trainer::Trainer::train).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Checkpoint cadence in epochs. `0` disables recovery entirely:
    /// a worker failure then surfaces as an error from `train`.
    pub checkpoint_every: usize,
    /// Maximum number of rollback-and-resume attempts before the
    /// failure is surfaced anyway.
    pub max_restarts: usize,
    /// Elastic rejoin: re-admit failed/evicted members at the next
    /// checkpoint boundary via the `ns-net` membership handshake, restore
    /// their state from the checkpoint, and rebuild the plan over the
    /// full world (upgrading a degraded engine back toward the configured
    /// one). Off by default: failures then shrink the cluster permanently,
    /// the pre-elastic behavior.
    pub rejoin: bool,
    /// Straggler eviction: at each checkpoint boundary, evict the peer
    /// whose per-message receive wait exceeds [`STRAGGLER_FACTOR`] times
    /// the cluster median (it re-admits at the next boundary when
    /// `rejoin` is on). Off by default.
    pub evict_stragglers: bool,
}

/// Straggler-eviction threshold: a multiplier over the cluster's median
/// per-message receive wait.
pub const STRAGGLER_FACTOR: f64 = 4.0;

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 0,
            max_restarts: 2,
            rejoin: false,
            evict_stragglers: false,
        }
    }
}

impl RecoveryConfig {
    /// Recovery with a checkpoint every `n` epochs (and default restart
    /// budget). `every(0)` keeps recovery disabled.
    pub fn every(n: usize) -> Self {
        Self { checkpoint_every: n, ..Self::default() }
    }

    /// Enables elastic rejoin (builder style).
    pub fn with_rejoin(mut self) -> Self {
        self.rejoin = true;
        self
    }

    /// Enables straggler eviction at [`STRAGGLER_FACTOR`] times the
    /// median per-message receive wait (builder style).
    pub fn with_straggler_eviction(mut self) -> Self {
        self.evict_stragglers = true;
        self
    }

    /// Whether checkpointing (and therefore rollback) is active.
    pub fn enabled(&self) -> bool {
        self.checkpoint_every > 0
    }
}

/// A recovery point: the next epoch to run and the training state to run
/// it from, held as the one `ns_tensor::checkpoint` encoding — exactly the
/// payload a durable generation stores — with one CRC32 over it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// First epoch that still needs to run when resuming from here.
    pub next_epoch: usize,
    /// Parameters, then Adam state when there is one; empty means the
    /// initial state (the model's fresh store, a fresh optimizer).
    payload: Vec<u8>,
    /// CRC32 of `payload`, computed once — at capture, or by the durable
    /// store as it verified the generation it read. [`Checkpoint::restore`]
    /// re-verifies it, so any later bit-rot of the snapshot surfaces as a
    /// typed [`CheckpointError::CrcMismatch`] instead of being parsed.
    crc: u32,
}

impl Checkpoint {
    /// The implicit checkpoint before epoch 0: fresh parameters, fresh
    /// optimizer.
    pub fn initial() -> Self {
        Self { next_epoch: 0, payload: Vec::new(), crc: 0 }
    }

    /// Captures a checkpoint after the epoch `next_epoch - 1` completed.
    pub fn capture(next_epoch: usize, store: &ParamStore, opt: Option<AdamState>) -> Self {
        let mut payload = Vec::new();
        checkpoint::save(store, opt.as_ref(), &mut payload)
            .expect("Vec<u8> writes are infallible");
        let crc = ns_net::crc32(&payload);
        Self::from_payload(next_epoch, payload, crc)
    }

    /// A checkpoint over an encoded `payload` and the CRC32 recorded for
    /// it, taken as given: [`Checkpoint::restore`] rejects the bytes if
    /// they no longer match `crc`, and decodes them with typed errors if
    /// they do.
    pub fn from_payload(next_epoch: usize, payload: Vec<u8>, crc: u32) -> Self {
        Self { next_epoch, payload, crc }
    }

    /// Decodes the recovery point. `Ok((None, None))` means resume from
    /// initial state. Verifies the CRC before decoding, so corruption is
    /// reported with the expected/computed checksum pair.
    #[allow(clippy::type_complexity)]
    pub fn restore(
        &self,
    ) -> Result<(Option<ParamStore>, Option<AdamState>), CheckpointError> {
        if self.payload.is_empty() {
            return Ok((None, None));
        }
        let computed = ns_net::crc32(&self.payload);
        if computed != self.crc {
            return Err(CheckpointError::CrcMismatch {
                offset: 0,
                expected: self.crc,
                computed,
            });
        }
        let (store, opt) = checkpoint::load(&self.payload)?;
        Ok((Some(store), opt))
    }

    /// The encoded state (empty for the initial checkpoint): what the
    /// durable store writes after its header and a rejoining member
    /// resumes from.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The CRC32 recorded over [`Checkpoint::payload`].
    pub fn crc(&self) -> u32 {
        self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_tensor::Tensor;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.register("w", Tensor::from_vec(2, 2, vec![1.0, -2.5, 3.25, 0.125]));
        s.register("b", Tensor::from_vec(1, 2, vec![0.5, -0.5]));
        s
    }

    #[test]
    fn initial_checkpoint_restores_to_nothing() {
        let ckpt = Checkpoint::initial();
        assert_eq!(ckpt.next_epoch, 0);
        assert!(ckpt.payload().is_empty());
        let (store, opt) = ckpt.restore().unwrap();
        assert!(store.is_none());
        assert!(opt.is_none());
    }

    #[test]
    fn capture_restore_roundtrips_params_and_opt_state() {
        let store = sample_store();
        let opt = AdamState {
            t: 7,
            m: vec![Tensor::zeros(2, 2), Tensor::zeros(1, 2)],
            v: vec![Tensor::from_vec(2, 2, vec![0.1; 4]), Tensor::zeros(1, 2)],
        };
        let ckpt = Checkpoint::capture(5, &store, Some(opt.clone()));
        assert_eq!(ckpt.next_epoch, 5);
        assert!(!ckpt.payload().is_empty());
        assert_eq!(ckpt.crc(), ns_net::crc32(ckpt.payload()));
        let (restored, ropt) = ckpt.restore().unwrap();
        let restored = restored.unwrap();
        assert_eq!(restored.len(), store.len());
        for ((_, n1, v1), (_, n2, v2)) in store.iter().zip(restored.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(v1.data(), v2.data());
        }
        assert_eq!(ropt, Some(opt));
    }

    #[test]
    fn corrupted_bytes_surface_io_error_not_panic() {
        // A flipped byte after capture fails the capture-time CRC with the
        // expected/computed checksum pair exposed in the typed error.
        let store = sample_store();
        let mut ckpt = Checkpoint::capture(3, &store, None);
        ckpt.payload[0] = b'X'; // break the magic
        match ckpt.restore().map(|_| ()) {
            Err(CheckpointError::CrcMismatch { offset, expected, computed }) => {
                assert_eq!(offset, 0);
                assert_ne!(expected, computed);
                assert_eq!(expected, ckpt.crc);
            }
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
        // Truncation also changes the payload CRC.
        let mut truncated = Checkpoint::capture(3, &store, None);
        truncated.payload.truncate(truncated.payload.len() / 2);
        assert!(matches!(
            truncated.restore(),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        // Damage applied *before* the CRC was recorded passes the CRC
        // check but still surfaces a typed structural error carrying the
        // offending offset.
        let clean = Checkpoint::capture(3, &store, None);
        let mut raw = clean.payload().to_vec();
        raw[0] = b'X';
        let crc = ns_net::crc32(&raw);
        let rebuilt = Checkpoint::from_payload(3, raw, crc);
        match rebuilt.restore().map(|_| ()) {
            Err(CheckpointError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected Corrupt at offset 0, got {other:?}"),
        }
    }

    #[test]
    fn config_enabled_logic() {
        assert!(!RecoveryConfig::default().enabled());
        assert!(!RecoveryConfig::every(0).enabled());
        assert!(RecoveryConfig::every(3).enabled());
        assert_eq!(RecoveryConfig::every(3).max_restarts, 2);
    }

    #[test]
    fn elastic_knobs_default_off() {
        let base = RecoveryConfig::every(2);
        assert!(!base.rejoin && !base.evict_stragglers);
        let elastic = base.with_rejoin().with_straggler_eviction();
        assert!(elastic.rejoin && elastic.evict_stragglers);
        assert_eq!(elastic.checkpoint_every, 2);
    }

    #[test]
    fn from_payload_round_trips_capture() {
        let store = sample_store();
        let ckpt = Checkpoint::capture(4, &store, None);
        let rebuilt =
            Checkpoint::from_payload(ckpt.next_epoch, ckpt.payload().to_vec(), ckpt.crc());
        assert_eq!(rebuilt.payload().len(), ckpt.payload().len());
        assert!(rebuilt.restore().is_ok());
    }
}
