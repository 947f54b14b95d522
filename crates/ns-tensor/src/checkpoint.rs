//! Model checkpointing: the one encoding of a training state, a
//! [`ParamStore`] and the [`AdamState`] beside it when there is one. The
//! in-memory recovery point and the durable store in `ns-runtime` hold
//! these bytes as they are; `nts train --save` writes the parameter
//! section alone.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   [u8; 8]  = b"NTSCKPT1"
//! count   u32      number of parameters
//! per parameter:
//!   name_len u32, name [u8; name_len] (UTF-8), tensor
//! Adam section, present exactly when bytes remain after the parameters:
//!   t       u64      steps taken
//!   count   u32      moments of each kind
//!   tensor × count   first moments, then tensor × count second moments
//! tensor = rows u32, cols u32, data [f32; rows*cols]
//! ```
//!
//! Round trips are exact (bit-identical f32), so a restored replica
//! continues training deterministically.
//!
//! Integrity: [`load`] reads a byte slice through one cursor that checks
//! every length and count it reads against the bytes still present before
//! anything is allocated, so a damaged or hostile field ends in a typed
//! [`CheckpointError`] carrying the byte offset where the bytes went wrong
//! — never in a panic or an allocation of the claimed size. This crate
//! computes no checksum itself: checksummed callers use `ns_net::crc32`,
//! the one CRC32 in the workspace, and report a mismatch through
//! [`CheckpointError::CrcMismatch`].

use std::io::{self, Write};
use std::sync::Arc;

use crate::nn::ParamStore;
use crate::optim::AdamState;
use crate::tensor::Tensor;

const MAGIC: &[u8; 8] = b"NTSCKPT1";

/// Why a checkpoint failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading failed (`UnexpectedEof` for truncation) at the given byte
    /// offset.
    Io {
        /// Offset at which the read failed.
        offset: u64,
        /// The underlying I/O error kind.
        kind: io::ErrorKind,
    },
    /// The bytes are structurally invalid (bad magic, absurd lengths,
    /// mismatched shapes) at the given byte offset.
    Corrupt {
        /// Offset of the offending field.
        offset: u64,
        /// What was wrong.
        what: String,
    },
    /// A checksummed payload failed CRC verification.
    CrcMismatch {
        /// Offset of the start of the checked region.
        offset: u64,
        /// CRC the trailer/header claimed.
        expected: u32,
        /// CRC recomputed over the bytes actually present.
        computed: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { offset, kind } => {
                write!(f, "checkpoint read failed at byte {offset}: {kind}")
            }
            CheckpointError::Corrupt { offset, what } => {
                write!(f, "corrupt checkpoint at byte {offset}: {what}")
            }
            CheckpointError::CrcMismatch { offset, expected, computed } => write!(
                f,
                "checkpoint CRC mismatch at byte {offset}: \
                 stored {expected:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Encodes `store`, then `opt` when there is one, into `w`.
pub fn save(store: &ParamStore, opt: Option<&AdamState>, w: &mut dyn Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(store.len() as u32).to_le_bytes())?;
    for (_, name, value) in store.iter() {
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        write_tensor(w, value)?;
    }
    if let Some(opt) = opt {
        w.write_all(&opt.t.to_le_bytes())?;
        w.write_all(&(opt.m.len() as u32).to_le_bytes())?;
        for t in opt.m.iter().chain(&opt.v) {
            write_tensor(w, t)?;
        }
    }
    Ok(())
}

fn write_tensor(w: &mut dyn Write, t: &Tensor) -> io::Result<()> {
    w.write_all(&(t.rows() as u32).to_le_bytes())?;
    w.write_all(&(t.cols() as u32).to_le_bytes())?;
    // Little-endian through a stack block: one write per 1024 floats.
    let mut block = [0u8; 4096];
    for floats in t.data().chunks(block.len() / 4) {
        for (out, v) in block.chunks_exact_mut(4).zip(floats) {
            out.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&block[..floats.len() * 4])?;
    }
    Ok(())
}

/// Decodes a checkpoint: its parameters, and its Adam state when bytes
/// remain after them. Failures are a typed [`CheckpointError`] with the
/// offending byte offset.
pub fn load(bytes: &[u8]) -> Result<(ParamStore, Option<AdamState>), CheckpointError> {
    let mut r = Counted { bytes, offset: 0 };
    let mut store = ParamStore::new();
    r.params(|name, rows, cols, data| {
        store.register(name, tensor(rows, cols, data));
    })?;
    if r.is_empty() {
        return Ok((store, None));
    }
    let t = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
    let count = r.u32()?;
    let mut moments = || (0..count).map(|_| r.tensor()).collect::<Result<Vec<_>, _>>();
    let (m, v) = (moments()?, moments()?);
    if !r.is_empty() {
        return Err(corrupt(r.offset, "trailing bytes after the Adam state"));
    }
    Ok((store, Some(AdamState { t, m, v })))
}

/// Whether an encoded checkpoint carries the Adam section: a walk over the
/// parameter section's headers that decodes no tensor.
pub fn has_adam(bytes: &[u8]) -> bool {
    let mut r = Counted { bytes, offset: 0 };
    r.params(|_, _, _, _| {}).is_ok() && !r.is_empty()
}

/// Restores checkpointed values into an *existing* store (e.g. one freshly
/// built by a model constructor) by matching parameter names; an Adam
/// section is ignored. Errors if any name or shape disagrees — a
/// checkpoint for a different architecture must not half-apply.
pub fn restore_into(store: &mut ParamStore, bytes: &[u8]) -> Result<(), CheckpointError> {
    let (loaded, _) = load(bytes)?;
    let mismatch = |what: String| CheckpointError::Corrupt { offset: 0, what };
    if loaded.len() != store.len() {
        return Err(mismatch("parameter count mismatch".into()));
    }
    // Validate everything before mutating anything.
    for (_, name, value) in loaded.iter() {
        let id = store
            .find(name)
            .ok_or_else(|| mismatch(format!("unknown parameter {name:?}")))?;
        if store.value(id).shape() != value.shape() {
            return Err(mismatch(format!("shape mismatch for {name:?}")));
        }
    }
    for (lid, name, _) in loaded.iter() {
        let id = store.find(name).expect("validated above");
        store.replace(id, Arc::clone(&loaded.values[lid.index()]));
    }
    Ok(())
}

/// A decoded tensor in a pool buffer, like every other tensor's: a decode
/// that is dropped again (the store's validation pass) parks its buffers
/// for the next one instead of leaving them to the allocator.
fn tensor(rows: usize, cols: usize, data: &[u8]) -> Tensor {
    let mut t = Tensor::scratch(rows, cols);
    for (v, le) in t.data_mut().iter_mut().zip(data.chunks_exact(4)) {
        *v = f32::from_le_bytes(le.try_into().expect("4 bytes"));
    }
    t
}

fn corrupt(offset: usize, what: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt { offset: offset as u64, what: what.into() }
}

/// Cursor over an encoded checkpoint that knows its byte offset, so
/// errors can say *where* the bytes went bad, and hands out nothing the
/// slice does not hold.
struct Counted<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Counted<'a> {
    fn is_empty(&self) -> bool {
        self.offset == self.bytes.len()
    }

    /// The next `len` bytes; `UnexpectedEof` at the current offset when
    /// fewer remain.
    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        let rest = &self.bytes[self.offset..];
        if rest.len() < len {
            let offset = self.offset as u64;
            return Err(CheckpointError::Io { offset, kind: io::ErrorKind::UnexpectedEof });
        }
        self.offset += len;
        Ok(&rest[..len])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// `rows u32, cols u32` and the raw data they claim.
    fn raw_tensor(&mut self) -> Result<(usize, usize, &'a [u8]), CheckpointError> {
        let shape_at = self.offset;
        let (rows, cols) = (self.u32()? as usize, self.u32()? as usize);
        let len = rows
            .checked_mul(cols)
            .and_then(|elems| elems.checked_mul(4))
            .ok_or_else(|| corrupt(shape_at, "tensor shape overflow"))?;
        Ok((rows, cols, self.take(len)?))
    }

    fn tensor(&mut self) -> Result<Tensor, CheckpointError> {
        let (rows, cols, data) = self.raw_tensor()?;
        Ok(tensor(rows, cols, data))
    }

    /// The parameter section, one `(name, rows, cols, data)` per parameter.
    fn params(
        &mut self,
        mut each: impl FnMut(&'a str, usize, usize, &'a [u8]),
    ) -> Result<(), CheckpointError> {
        if self.take(MAGIC.len())? != MAGIC {
            return Err(corrupt(0, "not a NeutronStar checkpoint (bad magic)"));
        }
        let mut seen: Vec<&str> = Vec::new();
        for _ in 0..self.u32()? {
            let name_at = self.offset;
            let name_len = self.u32()? as usize;
            if name_len > 4096 {
                let what = format!("parameter name too long ({name_len} bytes)");
                return Err(corrupt(name_at, what));
            }
            let name = std::str::from_utf8(self.take(name_len)?)
                .map_err(|_| corrupt(name_at + 4, "invalid UTF-8 name"))?;
            if seen.contains(&name) {
                return Err(corrupt(name_at + 4, format!("duplicate parameter {name:?}")));
            }
            seen.push(name);
            let (rows, cols, data) = self.raw_tensor()?;
            each(name, rows, cols, data);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_rand::StdRng;

    use crate::nn::Init;

    fn sample_store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = ParamStore::new();
        s.register("layer0.weight", Init::XavierUniform.tensor(8, 4, &mut rng));
        s.register("layer0.bias", Init::Zeros.tensor(1, 4, &mut rng));
        s.register("eps", Tensor::scalar(0.25));
        s
    }

    fn sample_adam() -> AdamState {
        let store = sample_store();
        let v = store.iter().map(|(_, _, t)| t.clone()).collect();
        AdamState { t: 9, m: store.zero_grads(), v }
    }

    fn encoded(opt: Option<&AdamState>) -> Vec<u8> {
        let mut buf = Vec::new();
        save(&sample_store(), opt, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let store = sample_store();
        for opt in [None, Some(sample_adam())] {
            let buf = encoded(opt.as_ref());
            let (loaded, lopt) = load(&buf).unwrap();
            assert_eq!(loaded.len(), store.len());
            for ((_, n1, v1), (_, n2, v2)) in store.iter().zip(loaded.iter()) {
                assert_eq!(n1, n2);
                assert_eq!(v1.shape(), v2.shape());
                assert_eq!(v1.data(), v2.data());
            }
            assert_eq!(lopt, opt);
            assert_eq!(has_adam(&buf), opt.is_some());
        }
    }

    /// The Adam section follows the parameter section unchanged: encoding
    /// without it is a prefix of encoding with it.
    #[test]
    fn adam_section_is_appended_after_the_parameters() {
        let (bare, full) = (encoded(None), encoded(Some(&sample_adam())));
        assert_eq!(&full[..bare.len()], &bare[..]);
        assert_eq!(&full[bare.len()..bare.len() + 8], &9u64.to_le_bytes());
        assert_eq!(&full[bare.len() + 8..bare.len() + 12], &3u32.to_le_bytes());
    }

    #[test]
    fn restore_into_matches_by_name() {
        let buf = encoded(Some(&sample_adam()));
        let mut fresh = sample_store();
        // Perturb, then restore.
        let id = fresh.find("eps").unwrap();
        fresh.replace(id, Tensor::scalar(99.0));
        restore_into(&mut fresh, &buf).unwrap();
        assert_eq!(fresh.value(id).scalar_value(), 0.25);
    }

    #[test]
    fn bad_magic_rejected() {
        // The error pins the offending offset.
        let terr = load(b"NOTACKPT....").unwrap_err();
        assert!(
            matches!(terr, CheckpointError::Corrupt { offset: 0, .. }),
            "{terr:?}"
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        for opt in [None, Some(sample_adam())] {
            let mut buf = encoded(opt.as_ref());
            buf.truncate(buf.len() - 7);
            match load(&buf).unwrap_err() {
                CheckpointError::Io { offset, kind } => {
                    assert_eq!(kind, io::ErrorKind::UnexpectedEof);
                    assert!(offset as usize <= buf.len(), "offset {offset} in stream");
                }
                other => panic!("expected Io(UnexpectedEof), got {other:?}"),
            }
        }
    }

    /// A damaged shape field claims far more payload than the stream
    /// holds: the loader must run out of bytes, not ask the allocator for
    /// the claimed size (a 32 GB claim aborted the process before).
    #[test]
    fn absurd_shape_is_an_error_not_an_allocation() {
        let mut buf = encoded(None);
        let rows_at = 8 + 4 + 4 + "layer0.weight".len();
        buf[rows_at..rows_at + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        let err = load(&buf).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Io { kind: io::ErrorKind::UnexpectedEof, .. }),
            "{err:?}"
        );
        // rows * cols * 4 past usize::MAX is a shape error, not a wrap.
        buf[rows_at..rows_at + 8].copy_from_slice(&[0xff; 8]);
        let err = load(&buf).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");
    }

    /// The Adam section's count and shapes are bounded the same way: a
    /// count of `u32::MAX` runs out of bytes, a 2³¹ × 2³¹ moment is a
    /// shape error, and bytes after the moments are rejected.
    #[test]
    fn hostile_adam_section_is_an_error() {
        let bare = encoded(None);
        let adam = |tail: &[u8]| {
            let mut buf = bare.clone();
            buf.extend_from_slice(&1u64.to_le_bytes());
            buf.extend_from_slice(tail);
            load(&buf).map(|_| ()).unwrap_err()
        };
        let err = adam(&u32::MAX.to_le_bytes());
        assert!(matches!(err, CheckpointError::Io { .. }), "{err:?}");
        let huge = [1u32, 1 << 31, 1 << 31].map(u32::to_le_bytes).concat();
        let err = adam(&huge);
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");
        let mut trailing = encoded(Some(&sample_adam()));
        trailing.push(0);
        let err = load(&trailing).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");
    }

    /// Two parameters under one name are a typed error, not the
    /// registration panic.
    #[test]
    fn duplicate_names_rejected() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(1.0));
        store.register("x", Tensor::scalar(2.0));
        let mut buf = Vec::new();
        save(&store, None, &mut buf).unwrap();
        // The last name sits before its shape (8 bytes) and value (4).
        let x_at = buf.len() - 4 - 8 - 1;
        buf[x_at] = b'w';
        let err = load(&buf).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn checkpoint_error_is_a_std_error_that_says_what_and_where() {
        let e = CheckpointError::CrcMismatch { offset: 8, expected: 1, computed: 2 };
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("CRC mismatch at byte 8"));
        let e = CheckpointError::Io { offset: 3, kind: io::ErrorKind::UnexpectedEof };
        assert!(e.to_string().contains("at byte 3"));
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let buf = encoded(None);
        let mut other = ParamStore::new();
        other.register("layer0.weight", Tensor::zeros(2, 2)); // wrong shape
        other.register("layer0.bias", Tensor::zeros(1, 4));
        other.register("eps", Tensor::scalar(0.0));
        let before = other.value(other.find("eps").unwrap()).scalar_value();
        assert!(restore_into(&mut other, &buf).is_err());
        // Nothing was half-applied.
        assert_eq!(
            other.value(other.find("eps").unwrap()).scalar_value(),
            before
        );
    }
}
