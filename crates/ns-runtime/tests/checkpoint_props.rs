//! Property tests hardening the checkpoint path: capture/restore must be
//! an exact roundtrip (parameters and Adam state bit-for-bit), and
//! arbitrarily damaged `NTSCKPT1` bytes must surface as a typed
//! [`CheckpointError`] — never a panic — because recovery reads
//! snapshots that a crashing process may have half-written. The durable
//! store gets the stronger torn-write guarantee: *any* single bit flip
//! or truncation of a generation file is detected at load (header CRC +
//! payload CRC) and skipped via the fallback chain.
//!
//! Each property runs over `CASES` seeded cases through
//! [`ns_rand::check_cases`]: case `N` draws its inputs from
//! `StdRng::seed_from_u64(N)`, a failure prints `case seed = N`, and
//! `check_cases(N..N + 1, ..)` replays it alone. The draws cover the ranges
//! the `proptest` strategies named before this suite dropped that crate;
//! what was lost is shrinking — a failing case is reported as drawn, not
//! minimized.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ns_net::crc32;
use ns_rand::{check_cases, StdRng};
use ns_runtime::{Checkpoint, CheckpointStore};
use ns_tensor::checkpoint::CheckpointError;
use ns_tensor::{AdamState, ParamStore, Tensor};

/// Unique scratch directory per case (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "nts-props-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Deterministic pseudo-random tensor (the case draws shape + seed; the
/// contents only need to be varied, not uniform).
fn tensor_with(rows: usize, cols: usize, seed: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(seed.wrapping_mul(2) + 1) % 1999;
            (h as f32 - 999.0) / 250.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// A parameter store with `n` tensors of the given shapes.
fn store_with(shapes: &[(usize, usize)], seed: u64) -> ParamStore {
    let mut s = ParamStore::new();
    for (i, &(r, c)) in shapes.iter().enumerate() {
        s.register(format!("p{i}"), tensor_with(r, c, seed + i as u64));
    }
    s
}

/// Adam moments parallel to the store's shapes.
fn adam_with(shapes: &[(usize, usize)], t: u64, seed: u64) -> AdamState {
    AdamState {
        t,
        m: shapes.iter().map(|&(r, c)| tensor_with(r, c, seed + 100)).collect(),
        v: shapes.iter().map(|&(r, c)| tensor_with(r, c, seed + 200)).collect(),
    }
}

const CASES: u64 = 64;

/// One to four parameter shapes, each dimension in `1..6`.
fn arb_shapes(rng: &mut StdRng) -> Vec<(usize, usize)> {
    (0..rng.random_range(1..5usize))
        .map(|_| (rng.random_range(1..6), rng.random_range(1..6)))
        .collect()
}

/// capture -> restore is the identity on parameters and optimizer
/// state: names, shapes, values, and Adam's (t, m, v) all match
/// exactly. Rollback correctness depends on this being bit-for-bit.
#[test]
fn capture_restore_is_exact() {
    check_cases(0..CASES, |rng| {
        let (shapes, seed) = (arb_shapes(rng), rng.random_range(0u64..10_000));
        let (next_epoch, t) = (rng.random_range(0usize..100), rng.random_range(0u64..1_000));
        let store = store_with(&shapes, seed);
        let opt = adam_with(&shapes, t, seed);
        let ckpt = Checkpoint::capture(next_epoch, &store, Some(opt.clone()));
        assert_eq!(ckpt.next_epoch, next_epoch);
        let (restored, ropt) = ckpt.restore().expect("fresh capture must restore");
        let restored = restored.expect("non-empty capture");
        assert_eq!(restored.len(), store.len());
        for ((_, n1, v1), (_, n2, v2)) in store.iter().zip(restored.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(v1.shape(), v2.shape());
            assert_eq!(v1.data(), v2.data());
        }
        assert_eq!(ropt, Some(opt));
    });
}

/// Rebuilding a checkpoint from its own payload and CRC (what a
/// process-level restart does after re-reading the snapshot from
/// disk) restores identically to the original.
#[test]
fn payload_roundtrips_through_from_payload() {
    check_cases(0..CASES, |rng| {
        let (shapes, seed) = (arb_shapes(rng), rng.random_range(0u64..10_000));
        let store = store_with(&shapes, seed);
        let ckpt = Checkpoint::capture(7, &store, None);
        let rebuilt = Checkpoint::from_payload(7, ckpt.payload().to_vec(), ckpt.crc());
        let (a, _) = ckpt.restore().unwrap();
        let (b, _) = rebuilt.restore().unwrap();
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.len(), b.len());
        for ((_, n1, v1), (_, n2, v2)) in a.iter().zip(b.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(v1.data(), v2.data());
        }
    });
}

/// Truncating the serialized snapshot at any point yields a clean
/// typed error from restore — never a panic — even when the CRC was
/// recorded over the truncated bytes. (Length 0 is the documented
/// "initial parameters" sentinel, so start at 1.)
#[test]
fn truncated_bytes_error_cleanly() {
    check_cases(0..CASES, |rng| {
        let (shapes, seed) = (arb_shapes(rng), rng.random_range(0u64..10_000));
        let store = store_with(&shapes, seed);
        let ckpt = Checkpoint::capture(3, &store, None);
        let full = ckpt.payload().to_vec();
        let keep = 1 + rng.random_range(0..full.len() - 1);
        if keep == full.len() {
            return; // not actually truncated
        }
        let damaged = Checkpoint::from_payload(3, full[..keep].to_vec(), crc32(&full[..keep]));
        assert!(damaged.restore().is_err(), "truncated snapshot restored");
    });
}

/// Corrupting any single byte of a snapshot *before* its CRC is
/// recorded — parameters or Adam state — either errors with a typed
/// [`CheckpointError`] or restores a same-shaped store: it must never
/// panic and never change the parameter count. (A flip inside the f32
/// data is undetectable by design at this layer; structural damage
/// must be caught, and the CRCs catch the rest.)
#[test]
fn bit_flips_never_panic() {
    check_cases(0..CASES, |rng| {
        let (shapes, seed) = (arb_shapes(rng), rng.random_range(0u64..10_000));
        let flip = rng.random_range(1u8..=255);
        let store = store_with(&shapes, seed);
        let ckpt = Checkpoint::capture(3, &store, Some(adam_with(&shapes, 5, seed)));
        let mut bytes = ckpt.payload().to_vec();
        let i = rng.random_range(0..bytes.len());
        bytes[i] ^= flip;
        let crc = crc32(&bytes);
        let damaged = Checkpoint::from_payload(3, bytes, crc);
        match damaged.restore() {
            // Clean typed rejection: every variant carries the offset the
            // reader had reached, for forensics.
            Err(CheckpointError::Corrupt { .. })
            | Err(CheckpointError::Io { .. })
            | Err(CheckpointError::CrcMismatch { .. }) => {}
            Ok((Some(s), _)) => assert_eq!(s.len(), store.len()),
            Ok((None, _)) => panic!("non-empty bytes restored to nothing"),
        }
    });
}

/// A flip *after* capture is always caught: the in-memory checkpoint
/// records one CRC over its whole payload, so restore reports the
/// mismatch no matter which bit moved (even deep inside the f32 data of
/// the parameters or of the Adam moments).
#[test]
fn post_capture_flips_always_detected() {
    check_cases(0..CASES, |rng| {
        let (shapes, seed) = (arb_shapes(rng), rng.random_range(0u64..10_000));
        let flip_bit = rng.random_range(0u32..8);
        let store = store_with(&shapes, seed);
        let ckpt = Checkpoint::capture(3, &store, Some(adam_with(&shapes, 2, seed)));
        let mut bytes = ckpt.payload().to_vec();
        let i = rng.random_range(0..bytes.len());
        bytes[i] ^= 1 << flip_bit;
        // Keep the original CRC, as a torn in-place overwrite would.
        let damaged = Checkpoint::from_payload(3, bytes, ckpt.crc());
        match damaged.restore() {
            Err(CheckpointError::CrcMismatch { expected, computed, .. }) => {
                assert_eq!(expected, ckpt.crc());
                assert_ne!(expected, computed);
            }
            other => panic!(
                "flip at byte {i} escaped the checkpoint CRC: {:?}",
                other.map(|_| ())
            ),
        }
    });
}

/// Torn-write guarantee for the durable store: any single bit flip
/// anywhere in a generation file — header, length field, or payload —
/// is detected at load and the damaged generation is skipped, never
/// silently loaded.
#[test]
fn durable_generation_flips_detected_at_load() {
    check_cases(0..CASES, |rng| {
        let (shapes, seed) = (arb_shapes(rng), rng.random_range(0u64..10_000));
        let flip_bit = rng.random_range(0u32..8);
        let dir = scratch_dir("flip");
        let mut store = CheckpointStore::open(&dir, 2).expect("open scratch store");
        let params = store_with(&shapes, seed);
        let ckpt = Checkpoint::capture(4, &params, Some(adam_with(&shapes, 1, seed)));
        let receipt = store.save(&ckpt, 3).expect("save generation");
        let mut bytes = std::fs::read(&receipt.path).expect("read generation back");
        let i = rng.random_range(0..bytes.len());
        bytes[i] ^= 1 << flip_bit;
        std::fs::write(&receipt.path, &bytes).expect("write damaged generation");
        let report = store.load_latest();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.fallbacks, 1, "flip at byte {} escaped detection", i);
        assert!(report.checkpoint.is_none(), "damaged generation was loaded");
    });
}

/// Torn-write guarantee, truncation flavor: a generation cut to any
/// proper prefix (including zero bytes) is rejected at load.
#[test]
fn durable_generation_truncation_detected_at_load() {
    check_cases(0..CASES, |rng| {
        let (shapes, seed) = (arb_shapes(rng), rng.random_range(0u64..10_000));
        let dir = scratch_dir("cut");
        let mut store = CheckpointStore::open(&dir, 2).expect("open scratch store");
        let params = store_with(&shapes, seed);
        let ckpt = Checkpoint::capture(2, &params, None);
        let receipt = store.save(&ckpt, 3).expect("save generation");
        let bytes = std::fs::read(&receipt.path).expect("read generation back");
        let keep = rng.random_range(0..bytes.len()); // any proper prefix
        std::fs::write(&receipt.path, &bytes[..keep]).expect("truncate generation");
        let report = store.load_latest();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.fallbacks, 1, "truncation to {} bytes escaped", keep);
        assert!(report.checkpoint.is_none(), "truncated generation was loaded");
    });
}
