//! Checkpoint-based epoch recovery for the fault-tolerant trainer.
//!
//! The trainer runs the epoch loop in *chunks* of `checkpoint_every`
//! epochs. After every successful chunk it captures a [`Checkpoint`]:
//! the parameter store serialized through the real on-disk checkpoint
//! format (`ns_tensor::checkpoint`, magic `NTSCKPT1`) plus the exported
//! Adam state. When a chunk fails with
//! [`RuntimeError::WorkerFailed`](crate::error::RuntimeError), the
//! trainer restores the last checkpoint, drops the dead worker,
//! repartitions the plan over the survivors, and resumes from the
//! checkpointed epoch — replaying at most `checkpoint_every - 1` epochs
//! of lost work. Serializing through the real format (rather than just
//! cloning the store) keeps the recovery path honest: whatever a
//! process-level restart would read back from disk is exactly what the
//! in-memory rollback uses.

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
    /// whose per-message receive wait exceeds `straggler_factor` times
    /// the cluster median (it re-admits at the next boundary when
    /// `rejoin` is on). Off by default.
    pub evict_stragglers: bool,
    /// Eviction threshold multiplier over the median per-message wait.
    pub straggler_factor: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 0,
            max_restarts: 2,
            rejoin: false,
            evict_stragglers: false,
            straggler_factor: 4.0,
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

    /// Enables straggler eviction at `factor` times the median
    /// per-message receive wait (builder style).
    pub fn with_straggler_eviction(mut self, factor: f64) -> Self {
        self.evict_stragglers = true;
        self.straggler_factor = factor;
        self
    }

    /// Whether checkpointing (and therefore rollback) is active.
    pub fn enabled(&self) -> bool {
        self.checkpoint_every > 0
    }
}

/// A recovery point: the next epoch to run plus everything needed to
/// restart training from it deterministically.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// First epoch that still needs to run when resuming from here.
    pub next_epoch: usize,
    /// Parameter store in the `NTSCKPT1` wire format; empty means
    /// "initial parameters" (train from the model's fresh store).
    bytes: Vec<u8>,
    /// CRC32 of `bytes`, fixed at capture time. [`Checkpoint::restore`]
    /// re-verifies it, so any later bit-rot of the snapshot surfaces as a
    /// typed [`CheckpointError::CrcMismatch`] instead of being parsed.
    crc: u32,
    /// Optimizer state at the boundary (`None` for SGD or epoch 0).
    opt: Option<AdamState>,
}

impl Checkpoint {
    /// The implicit checkpoint before epoch 0: fresh parameters, fresh
    /// optimizer.
    pub fn initial() -> Self {
        Self { next_epoch: 0, bytes: Vec::new(), crc: 0, opt: None }
    }

    /// Captures a checkpoint after the epoch `next_epoch - 1` completed.
    pub fn capture(next_epoch: usize, store: &ParamStore, opt: Option<AdamState>) -> Self {
        let mut bytes = Vec::new();
        checkpoint::save(store, &mut bytes).expect("Vec<u8> writes are infallible");
        let crc = ns_net::crc32(&bytes);
        Self { next_epoch, bytes, crc, opt }
    }

    /// Deserializes the recovery point. `Ok((None, None))` means resume
    /// from initial state. Verifies the capture-time CRC before parsing,
    /// so corruption is reported with the expected/computed checksum pair.
    #[allow(clippy::type_complexity)]
    pub fn restore(
        &self,
    ) -> Result<(Option<ParamStore>, Option<AdamState>), CheckpointError> {
        if self.bytes.is_empty() {
            return Ok((None, None));
        }
        let computed = ns_net::crc32(&self.bytes);
        if computed != self.crc {
            return Err(CheckpointError::CrcMismatch {
                offset: 0,
                expected: self.crc,
                computed,
            });
        }
        let store = checkpoint::load_typed(&mut self.bytes.as_slice())?;
        Ok((Some(store), self.opt.clone()))
    }

    /// Serialized size of the parameter snapshot, bytes.
    pub fn param_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw `NTSCKPT1` payload (empty for the initial checkpoint).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The optimizer state captured at the boundary, if any. The durable
    /// store serializes it alongside the parameter snapshot.
    pub fn opt_state(&self) -> Option<&AdamState> {
        self.opt.as_ref()
    }

    /// Rebuilds a checkpoint from raw serialized state — what a
    /// process-level restart does after reading the snapshot back from
    /// disk. The CRC is recomputed from the given bytes (the durable
    /// store verifies its own checksums before handing bytes over), so
    /// [`Checkpoint::restore`] performs structural validation only and
    /// surfaces damage as a typed [`CheckpointError`] instead of
    /// panicking.
    pub fn from_raw(next_epoch: usize, bytes: Vec<u8>, opt: Option<AdamState>) -> Self {
        let crc = ns_net::crc32(&bytes);
        Self { next_epoch, bytes, crc, opt }
    }

    /// Rebuilds a checkpoint from raw bytes and an *externally recorded*
    /// checksum (e.g. one read back from a durable header). Unlike
    /// [`Checkpoint::from_raw`], the CRC is not recomputed, so
    /// [`Checkpoint::restore`] rejects the bytes if they no longer match
    /// the recorded value — the path a torn in-place overwrite takes.
    pub fn from_raw_with_crc(
        next_epoch: usize,
        bytes: Vec<u8>,
        crc: u32,
        opt: Option<AdamState>,
    ) -> Self {
        Self { next_epoch, bytes, crc, opt }
    }

    /// The CRC32 recorded over the snapshot bytes at capture/rebuild
    /// time.
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
        assert_eq!(ckpt.param_bytes(), 0);
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
        assert!(ckpt.param_bytes() > 0);
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
        ckpt.bytes[0] = b'X'; // break the magic
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
        truncated.bytes.truncate(truncated.bytes.len() / 2);
        assert!(matches!(
            truncated.restore(),
            Err(CheckpointError::CrcMismatch { .. })
        ));
        // Damage applied *before* from_raw (the store path) skips the
        // capture-time CRC — from_raw recomputes it — but still surfaces a
        // typed structural error carrying the offending offset.
        let clean = Checkpoint::capture(3, &store, None);
        let mut raw = clean.raw_bytes().to_vec();
        raw[0] = b'X';
        let rebuilt = Checkpoint::from_raw(3, raw, None);
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
        let elastic = base.with_rejoin().with_straggler_eviction(3.0);
        assert!(elastic.rejoin && elastic.evict_stragglers);
        assert_eq!(elastic.straggler_factor, 3.0);
        assert_eq!(elastic.checkpoint_every, 2);
    }

    #[test]
    fn from_raw_round_trips_capture() {
        let store = sample_store();
        let ckpt = Checkpoint::capture(4, &store, None);
        let rebuilt =
            Checkpoint::from_raw(ckpt.next_epoch, ckpt.raw_bytes().to_vec(), None);
        assert_eq!(rebuilt.param_bytes(), ckpt.param_bytes());
        assert!(rebuilt.restore().is_ok());
    }
}
