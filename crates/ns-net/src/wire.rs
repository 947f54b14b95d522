//! Checksummed wire framing for fabric payloads.
//!
//! Every logical message the fabric carries has a canonical *compact
//! serialization* — the byte layout whose size [`MessageKind::payload_bytes`]
//! meters — and, on the wire, that payload travels inside a small frame:
//!
//! ```text
//! +--------+------+-------------+------------+=================+
//! | magic  | kind | payload len | CRC32      | compact payload |
//! | 4B     | 1B   | 4B LE       | 4B LE      | len bytes       |
//! +--------+------+-------------+------------+=================+
//! ```
//!
//! Receivers verify magic, kind, length, and CRC *before* decoding; a
//! mismatch surfaces as [`NetError::CorruptFrame`](crate::NetError::CorruptFrame)
//! and the sender's retransmission (the fabric re-ships a clean copy under
//! the same sequence number) makes the fault recoverable. The
//! [`FRAME_HEADER_BYTES`] of protocol overhead are *not* metered in
//! `net.sent.bytes` — that counter stays the payload ground truth used by
//! the simulator and the observability closed-form tests.
//!
//! The CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) computed here
//! is the only one in the workspace: `ns-runtime` checksums checkpoint
//! payloads and durable-store files with the same [`crc32`] / [`Crc32`].

use crate::fabric::MessageKind;
use std::cell::RefCell;

/// Frame magic: "NSF1" (NeutronStar Frame, version 1).
pub const FRAME_MAGIC: [u8; 4] = *b"NSF1";

/// Size of the frame header prepended to every compact payload:
/// magic (4) + kind tag (1) + payload length (4) + CRC32 (4).
pub const FRAME_HEADER_BYTES: u64 = 13;

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; table `i` advances a byte's contribution `i` further positions, so
/// eight bytes fold into the state with eight independent lookups per
/// iteration instead of a serial chain of eight table steps. Identical
/// checksums to the byte-wise algorithm (pinned by the test vectors below) —
/// this is purely a throughput change for the frame encode path.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// Streaming CRC32 (IEEE) accumulator, so frame checksums can be computed
/// over tensor payloads without materializing the serialized bytes.
///
/// ```
/// use ns_net::wire::{crc32, Crc32};
/// let mut acc = Crc32::new();
/// acc.update(b"hello ");
/// acc.update(b"world");
/// assert_eq!(acc.finish(), crc32(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum (slice-by-8 main loop, byte-wise
    /// tail).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            let lo = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ c;
            let hi = u32::from_le_bytes(ch[4..8].try_into().unwrap());
            c = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut acc = Crc32::new();
    acc.update(bytes);
    acc.finish()
}

/// Why a received frame failed verification or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is shorter than its header or its declared payload.
    Truncated {
        /// Bytes actually present.
        have: usize,
        /// Bytes the header (or the minimum frame) requires.
        need: usize,
    },
    /// The magic bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// The kind tag is not a known [`MessageKind`] tag.
    BadKind(u8),
    /// The payload checksum does not match the header CRC.
    CrcMismatch {
        /// CRC carried in the frame header.
        expected: u32,
        /// CRC recomputed over the received payload.
        computed: u32,
    },
    /// The payload structure is inconsistent (e.g. a row count that does
    /// not divide the data length).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "frame truncated: {have} bytes, need {need}")
            }
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadKind(tag) => write!(f, "unknown kind tag {tag:#04x}"),
            FrameError::CrcMismatch { expected, computed } => write!(
                f,
                "payload CRC mismatch: header says {expected:#010x}, computed {computed:#010x}"
            ),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn kind_tag(kind: &MessageKind) -> u8 {
    kind.kind_index() as u8
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends the compact payload of `kind` to `out` without clearing it —
/// the shared body of [`encode_payload_into`] and [`encode_frame_into`]
/// (the latter writes the payload straight after the reserved header).
fn append_payload(kind: &MessageKind, out: &mut Vec<u8>) {
    out.push(kind_tag(kind));
    match kind {
        MessageKind::Rows { layer, ids, cols, data }
        | MessageKind::Grads { layer, ids, cols, data } => {
            put_u32(out, *layer);
            put_u32(out, *cols);
            put_u32(out, ids.len() as u32);
            for id in ids {
                put_u32(out, *id);
            }
            put_f32s(out, data);
        }
        MessageKind::AllReduce { round, data } => {
            put_u32(out, *round);
            put_u32(out, data.len() as u32);
            put_f32s(out, data);
        }
        MessageKind::Control(v) => out.extend_from_slice(&v.to_le_bytes()),
        MessageKind::Query { qids, verts } => {
            put_u32(out, qids.len() as u32);
            put_u32(out, verts.len() as u32);
            for q in qids {
                put_u32(out, *q);
            }
            for v in verts {
                put_u32(out, *v);
            }
        }
        MessageKind::Reply { qids, classes } => {
            put_u32(out, qids.len() as u32);
            for q in qids {
                put_u32(out, *q);
            }
            for c in classes {
                put_u32(out, *c);
            }
        }
    }
}

/// Serializes the compact payload of `kind` into `out` — exactly
/// [`MessageKind::payload_bytes`] bytes, frame header not included. `out`
/// is cleared first; its capacity is reused, so steady-state callers that
/// recycle one buffer never allocate.
pub fn encode_payload_into(kind: &MessageKind, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(kind.payload_bytes() as usize);
    append_payload(kind, out);
}

/// Serializes the compact payload of `kind` into a fresh buffer.
pub fn encode_payload(kind: &MessageKind) -> Vec<u8> {
    let mut out = Vec::new();
    encode_payload_into(kind, &mut out);
    out
}

thread_local! {
    // Reusable serialization scratch for `payload_crc`: one buffer per
    // worker thread, grown once to the largest payload and reused forever
    // after — the receive-side CRC check allocates nothing at steady state.
    static CRC_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// CRC32 of the compact payload of `kind`. Equal to
/// `crc32(&encode_payload(kind))` — the fabric stamps this onto every
/// outgoing frame and receivers recompute it for verification. Serializes
/// into a thread-local reusable scratch buffer so the slice-by-8 CRC loop
/// runs over contiguous bytes (several times faster than streaming the
/// logical fields one `to_le_bytes` array at a time).
pub fn payload_crc(kind: &MessageKind) -> u32 {
    CRC_SCRATCH.with(|s| {
        let mut buf = s.borrow_mut();
        encode_payload_into(kind, &mut buf);
        crc32(&buf)
    })
}

/// Serializes a full frame into `out`: header (magic, kind, length, CRC32)
/// followed by the compact payload — written in one pass. `out` is cleared
/// and reused: the header is reserved up front, the payload is encoded
/// straight into the frame buffer (no intermediate payload `Vec`), and the
/// length and CRC are patched into the reserved bytes afterwards.
pub fn encode_frame_into(kind: &MessageKind, out: &mut Vec<u8>) {
    let header_len = FRAME_HEADER_BYTES as usize;
    out.clear();
    out.reserve(header_len + kind.payload_bytes() as usize);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind_tag(kind));
    out.extend_from_slice(&[0u8; 8]); // length + CRC, patched below
    append_payload(kind, out);
    let payload_len = (out.len() - header_len) as u32;
    let crc = crc32(&out[header_len..]);
    out[5..9].copy_from_slice(&payload_len.to_le_bytes());
    out[9..13].copy_from_slice(&crc.to_le_bytes());
}

/// Serializes a full frame into a fresh buffer (see [`encode_frame_into`]).
pub fn encode_frame(kind: &MessageKind) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(kind, &mut out);
    out
}

/// Reads the CRC32 a frame's header carries (frame must be at least
/// [`FRAME_HEADER_BYTES`] long — i.e. produced by [`encode_frame_into`]).
pub fn frame_crc(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[9..13].try_into().unwrap())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() - self.pos < n {
            return Err(FrameError::Truncated {
                have: self.bytes.len(),
                need: self.pos + n,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, FrameError> {
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<MessageKind, FrameError> {
    let mut cur = Cursor { bytes: payload, pos: 1 }; // tag already consumed
    let kind = match tag {
        0 | 1 => {
            let layer = cur.u32()?;
            let cols = cur.u32()?;
            let rows = cur.u32()? as usize;
            let mut ids = Vec::with_capacity(rows);
            for _ in 0..rows {
                ids.push(cur.u32()?);
            }
            let n = rows
                .checked_mul(cols as usize)
                .ok_or(FrameError::Malformed("rows * cols overflows"))?;
            let data = cur.f32s(n)?;
            if tag == 0 {
                MessageKind::Rows { layer, ids, cols, data }
            } else {
                MessageKind::Grads { layer, ids, cols, data }
            }
        }
        2 => {
            let round = cur.u32()?;
            let n = cur.u32()? as usize;
            MessageKind::AllReduce { round, data: cur.f32s(n)? }
        }
        3 => MessageKind::Control(f64::from_le_bytes(
            cur.take(8)?.try_into().unwrap(),
        )),
        4 => {
            let nq = cur.u32()? as usize;
            let nv = cur.u32()? as usize;
            let mut qids = Vec::with_capacity(nq);
            for _ in 0..nq {
                qids.push(cur.u32()?);
            }
            let mut verts = Vec::with_capacity(nv);
            for _ in 0..nv {
                verts.push(cur.u32()?);
            }
            MessageKind::Query { qids, verts }
        }
        5 => {
            let nq = cur.u32()? as usize;
            let mut qids = Vec::with_capacity(nq);
            for _ in 0..nq {
                qids.push(cur.u32()?);
            }
            let mut classes = Vec::with_capacity(nq);
            for _ in 0..nq {
                classes.push(cur.u32()?);
            }
            MessageKind::Reply { qids, classes }
        }
        other => return Err(FrameError::BadKind(other)),
    };
    if cur.pos != payload.len() {
        return Err(FrameError::Malformed("trailing bytes after payload"));
    }
    Ok(kind)
}

/// Verifies and decodes a full frame produced by [`encode_frame`]: checks
/// magic, kind tag, declared length, and CRC32 before touching the payload.
pub fn decode_frame(bytes: &[u8]) -> Result<MessageKind, FrameError> {
    let header_len = FRAME_HEADER_BYTES as usize;
    if bytes.len() < header_len {
        return Err(FrameError::Truncated { have: bytes.len(), need: header_len });
    }
    if bytes[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let tag = bytes[4];
    if tag > 5 {
        return Err(FrameError::BadKind(tag));
    }
    let len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let expected = u32::from_le_bytes(bytes[9..13].try_into().unwrap());
    if bytes.len() != header_len + len {
        return Err(FrameError::Truncated { have: bytes.len(), need: header_len + len });
    }
    let payload = &bytes[header_len..];
    let computed = crc32(payload);
    if computed != expected {
        return Err(FrameError::CrcMismatch { expected, computed });
    }
    if payload.is_empty() || payload[0] != tag {
        return Err(FrameError::Malformed("payload tag disagrees with header"));
    }
    decode_payload(tag, payload)
}

/// Returns a copy of `kind` with one payload bit deterministically flipped
/// (chosen by `bit_seed`), leaving the structure decodable but the content
/// wrong — the corruption model used by the `corrupt` fault action. The
/// flip always lands inside the CRC-covered compact payload, so a receiver
/// verifying against the clean frame CRC is guaranteed to detect it.
pub fn flip_payload_bit(kind: &MessageKind, bit_seed: u64) -> MessageKind {
    fn flip_u32(v: u32, bit: u64) -> u32 {
        v ^ (1 << (bit % 32))
    }
    fn flip_f32(v: f32, bit: u64) -> f32 {
        f32::from_bits(v.to_bits() ^ (1 << (bit % 32)))
    }
    let mut out = kind.clone();
    match &mut out {
        MessageKind::Rows { layer, ids, data, .. }
        | MessageKind::Grads { layer, ids, data, .. } => {
            let total = ids.len() + data.len();
            if total == 0 {
                *layer = flip_u32(*layer, bit_seed);
            } else {
                let slot = (bit_seed / 32) as usize % total;
                if slot < ids.len() {
                    ids[slot] = flip_u32(ids[slot], bit_seed);
                } else {
                    let i = slot - ids.len();
                    data[i] = flip_f32(data[i], bit_seed);
                }
            }
        }
        MessageKind::AllReduce { round, data } => {
            if data.is_empty() {
                *round = flip_u32(*round, bit_seed);
            } else {
                let i = (bit_seed / 32) as usize % data.len();
                data[i] = flip_f32(data[i], bit_seed);
            }
        }
        MessageKind::Control(v) => {
            *v = f64::from_bits(v.to_bits() ^ (1 << (bit_seed % 64)));
        }
        MessageKind::Query { qids, verts } => {
            let total = qids.len() + verts.len();
            if total == 0 {
                // Flip a length field: structurally invalid, still CRC-caught.
                qids.push(1 << (bit_seed % 32));
            } else {
                let slot = (bit_seed / 32) as usize % total;
                if slot < qids.len() {
                    qids[slot] = flip_u32(qids[slot], bit_seed);
                } else {
                    let i = slot - qids.len();
                    verts[i] = flip_u32(verts[i], bit_seed);
                }
            }
        }
        MessageKind::Reply { qids, classes } => {
            let total = qids.len() + classes.len();
            if total == 0 {
                qids.push(1 << (bit_seed % 32));
            } else {
                let slot = (bit_seed / 32) as usize % total;
                if slot < qids.len() {
                    qids[slot] = flip_u32(qids[slot], bit_seed);
                } else {
                    let i = slot - qids.len();
                    classes[i] = flip_u32(classes[i], bit_seed);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kinds() -> Vec<MessageKind> {
        vec![
            MessageKind::Rows {
                layer: 2,
                ids: vec![3, 9, 11],
                cols: 2,
                data: vec![1.0, -2.5, 0.0, 4.25, -0.125, 7.5],
            },
            MessageKind::Grads { layer: 0, ids: vec![5], cols: 3, data: vec![0.5, 1.5, 2.5] },
            MessageKind::AllReduce { round: 7, data: vec![0.25, -0.75] },
            MessageKind::AllReduce { round: 0, data: vec![] },
            MessageKind::Control(-3.125),
            MessageKind::Query { qids: vec![1, 2, 3], verts: vec![40, 50, 60] },
            MessageKind::Query { qids: vec![], verts: vec![7, 9] },
            MessageKind::Reply { qids: vec![11, 12], classes: vec![0, 6] },
        ]
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_crc_equals_one_shot() {
        let bytes: Vec<u8> = (0u16..700).map(|i| (i % 251) as u8).collect();
        let mut acc = Crc32::new();
        for chunk in bytes.chunks(13) {
            acc.update(chunk);
        }
        assert_eq!(acc.finish(), crc32(&bytes));
    }

    #[test]
    fn payload_crc_streams_without_serializing() {
        for kind in sample_kinds() {
            assert_eq!(payload_crc(&kind), crc32(&encode_payload(&kind)), "{}", kind.name());
        }
    }

    #[test]
    fn encode_matches_metered_payload_bytes() {
        for kind in sample_kinds() {
            assert_eq!(
                encode_payload(&kind).len() as u64,
                kind.payload_bytes(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn frame_roundtrip_is_lossless() {
        for kind in sample_kinds() {
            let frame = encode_frame(&kind);
            assert_eq!(frame.len() as u64, FRAME_HEADER_BYTES + kind.payload_bytes());
            let back = decode_frame(&frame).unwrap();
            assert_eq!(payload_crc(&back), payload_crc(&kind));
            assert_eq!(back.name(), kind.name());
        }
    }

    #[test]
    fn frame_encode_into_matches_and_reuses_the_buffer() {
        let mut buf = Vec::new();
        for kind in sample_kinds() {
            encode_frame_into(&kind, &mut buf);
            assert_eq!(buf, encode_frame(&kind), "{}", kind.name());
            assert_eq!(frame_crc(&buf), payload_crc(&kind), "{}", kind.name());
            assert_eq!(decode_frame(&buf).unwrap().name(), kind.name());
        }
        // Once grown to the largest frame, re-encoding never reallocates.
        let cap = buf.capacity();
        for kind in sample_kinds() {
            encode_frame_into(&kind, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "steady-state encode must not grow");
    }

    #[test]
    fn any_single_bit_flip_in_frame_is_detected() {
        let kind = MessageKind::Rows {
            layer: 1,
            ids: vec![4, 8],
            cols: 2,
            data: vec![0.5, 1.5, -2.0, 3.75],
        };
        let frame = encode_frame(&kind);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn any_truncation_is_detected() {
        let frame = encode_frame(&MessageKind::AllReduce { round: 3, data: vec![1.0, 2.0] });
        for keep in 0..frame.len() {
            assert!(
                decode_frame(&frame[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn flipped_payload_bit_fails_crc_against_clean_header() {
        for kind in sample_kinds() {
            let clean = payload_crc(&kind);
            for seed in [0u64, 17, 63, 64, 12345, u64::MAX] {
                let bad = flip_payload_bit(&kind, seed);
                assert_ne!(payload_crc(&bad), clean, "{} seed {seed}", kind.name());
            }
        }
    }
}
