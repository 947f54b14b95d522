//! Model checkpointing: a small, self-describing binary format for
//! [`ParamStore`] snapshots.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   [u8; 8]  = b"NTSCKPT1"
//! count   u32      number of parameters
//! per parameter:
//!   name_len u32, name [u8; name_len] (UTF-8)
//!   rows u32, cols u32
//!   data [f32; rows*cols] (LE)
//! ```
//!
//! Round trips are exact (bit-identical f32), so a restored replica
//! continues training deterministically.
//!
//! Integrity: parse failures surface as a typed [`CheckpointError`]
//! carrying the byte offset where the stream went wrong (and, for
//! checksummed callers like the durable store in `ns-runtime`, the
//! expected-vs-computed CRC pair). This crate computes no checksum
//! itself: checksummed callers use
//! `ns_net::crc32`, the one CRC32 in the workspace, and report a mismatch
//! through [`CheckpointError::CrcMismatch`].

use std::io::{self, Read, Write};

use crate::nn::ParamStore;
use crate::tensor::Tensor;

const MAGIC: &[u8; 8] = b"NTSCKPT1";

/// Why a checkpoint stream failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The underlying reader failed (`UnexpectedEof` for truncation) at
    /// the given byte offset.
    Io {
        /// Stream offset at which the read failed.
        offset: u64,
        /// The underlying I/O error kind.
        kind: io::ErrorKind,
    },
    /// The stream is structurally invalid (bad magic, absurd lengths,
    /// mismatched shapes) at the given byte offset.
    Corrupt {
        /// Stream offset of the offending field.
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

/// Reader wrapper tracking the stream offset, so errors can say *where*
/// the bytes went bad.
struct Counted<'a> {
    inner: &'a mut dyn Read,
    offset: u64,
}

impl Counted<'_> {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), CheckpointError> {
        self.inner
            .read_exact(buf)
            .map_err(|e| CheckpointError::Io { offset: self.offset, kind: e.kind() })?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let mut buf = [0u8; 4];
        self.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Reads exactly `len` bytes into a buffer that grows only as bytes
    /// arrive: `len` comes from the stream, and a damaged length field has
    /// to end in `UnexpectedEof`, not in a multi-gigabyte allocation.
    fn bytes(&mut self, len: usize) -> Result<Vec<u8>, CheckpointError> {
        let mut buf = Vec::with_capacity(len.min(1 << 20));
        let got = (&mut *self.inner).take(len as u64).read_to_end(&mut buf);
        let kind = match got {
            Ok(n) if n == len => {
                self.offset += len as u64;
                return Ok(buf);
            }
            Ok(_) => io::ErrorKind::UnexpectedEof,
            Err(e) => e.kind(),
        };
        Err(CheckpointError::Io { offset: self.offset, kind })
    }
}

/// Serializes `store` into `w`.
pub fn save(store: &ParamStore, w: &mut dyn Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(store.len() as u32).to_le_bytes())?;
    for (_, name, value) in store.iter() {
        let name_bytes = name.as_bytes();
        w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        w.write_all(name_bytes)?;
        w.write_all(&(value.rows() as u32).to_le_bytes())?;
        w.write_all(&(value.cols() as u32).to_le_bytes())?;
        for v in value.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a [`ParamStore`] from `r`, reporting failures as a typed
/// [`CheckpointError`] with the offending byte offset.
pub fn load_typed(r: &mut dyn Read) -> Result<ParamStore, CheckpointError> {
    let mut r = Counted { inner: r, offset: 0 };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Corrupt {
            offset: 0,
            what: "not a NeutronStar checkpoint (bad magic)".into(),
        });
    }
    let count = r.u32()? as usize;
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len_at = r.offset;
        let name_len = r.u32()? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Corrupt {
                offset: name_len_at,
                what: format!("parameter name too long ({name_len} bytes)"),
            });
        }
        let name_at = r.offset;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| CheckpointError::Corrupt {
            offset: name_at,
            what: "invalid UTF-8 name".into(),
        })?;
        let shape_at = r.offset;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let payload_len = rows
            .checked_mul(cols)
            .and_then(|elems| elems.checked_mul(4))
            .ok_or_else(|| CheckpointError::Corrupt {
                offset: shape_at,
                what: "tensor shape overflow".into(),
            })?;
        let bytes = r.bytes(payload_len)?;
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        store.register(name, Tensor::from_vec(rows, cols, data));
    }
    Ok(store)
}

/// Restores checkpointed values into an *existing* store (e.g. one freshly
/// built by a model constructor) by matching parameter names. Errors if
/// any name or shape disagrees — a checkpoint for a different
/// architecture must not half-apply.
pub fn restore_into_typed(
    store: &mut ParamStore,
    r: &mut dyn Read,
) -> Result<(), CheckpointError> {
    let loaded = load_typed(r)?;
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
    for (_, name, value) in loaded.iter() {
        let id = store.find(name).expect("validated above");
        *store.value_mut(id) = value.clone();
    }
    Ok(())
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

    #[test]
    fn roundtrip_is_bit_exact() {
        let store = sample_store();
        let mut buf = Vec::new();
        save(&store, &mut buf).unwrap();
        let loaded = load_typed(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), store.len());
        for ((_, n1, v1), (_, n2, v2)) in store.iter().zip(loaded.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(v1.shape(), v2.shape());
            assert_eq!(v1.data(), v2.data());
        }
    }

    #[test]
    fn restore_into_matches_by_name() {
        let store = sample_store();
        let mut buf = Vec::new();
        save(&store, &mut buf).unwrap();
        let mut fresh = sample_store();
        // Perturb, then restore.
        let id = fresh.find("eps").unwrap();
        *fresh.value_mut(id) = Tensor::scalar(99.0);
        restore_into_typed(&mut fresh, &mut buf.as_slice()).unwrap();
        assert_eq!(fresh.value(id).scalar_value(), 0.25);
    }

    #[test]
    fn bad_magic_rejected() {
        // The error pins the offending offset.
        let terr = load_typed(&mut b"NOTACKPT....".as_slice()).unwrap_err();
        assert!(
            matches!(terr, CheckpointError::Corrupt { offset: 0, .. }),
            "{terr:?}"
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        save(&store, &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        let err = load_typed(&mut buf.as_slice()).unwrap_err();
        match err {
            CheckpointError::Io { offset, kind } => {
                assert_eq!(kind, io::ErrorKind::UnexpectedEof);
                assert!(offset as usize <= buf.len(), "offset {offset} in stream");
            }
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
    }

    /// A damaged shape field claims far more payload than the stream
    /// holds: the loader must run out of bytes, not ask the allocator for
    /// the claimed size (a 32 GB claim aborted the process before).
    #[test]
    fn absurd_shape_is_an_error_not_an_allocation() {
        let mut buf = Vec::new();
        save(&sample_store(), &mut buf).unwrap();
        let rows_at = 8 + 4 + 4 + "layer0.weight".len();
        buf[rows_at..rows_at + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        let err = load_typed(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Io { kind: io::ErrorKind::UnexpectedEof, .. }),
            "{err:?}"
        );
        // rows * cols * 4 past usize::MAX is a shape error, not a wrap.
        buf[rows_at..rows_at + 8].copy_from_slice(&[0xff; 8]);
        let err = load_typed(&mut buf.as_slice()).unwrap_err();
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
        let store = sample_store();
        let mut buf = Vec::new();
        save(&store, &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.register("layer0.weight", Tensor::zeros(2, 2)); // wrong shape
        other.register("layer0.bias", Tensor::zeros(1, 4));
        other.register("eps", Tensor::scalar(0.0));
        let before = other.value(other.find("eps").unwrap()).scalar_value();
        assert!(restore_into_typed(&mut other, &mut buf.as_slice()).is_err());
        // Nothing was half-applied.
        assert_eq!(
            other.value(other.find("eps").unwrap()).scalar_value(),
            before
        );
    }
}
