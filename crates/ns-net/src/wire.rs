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
//! Receivers verify magic, kind, length, and CRC *before* decoding; the
//! fabric drops a mismatched frame and admits the sender's retransmission
//! (a clean copy under the same sequence number) in its place, which makes
//! the fault recoverable. The
//! [`FRAME_HEADER_BYTES`] of protocol overhead are *not* metered in
//! `net.sent.bytes` — that counter stays the payload ground truth used by
//! the simulator and the observability closed-form tests.
//!
//! The in-process fabric moves the message *struct* between threads, so it
//! never builds this frame: the sender stamps [`payload_crc`] — the CRC of
//! the canonical payload bytes, folded in place over the message's own
//! fields — into [`Message::crc`](crate::Message::crc) and the receiver
//! recomputes it the same way. [`encode_frame_into`] / [`decode_frame`] are
//! the format's reference codec (what a socket transport would write), and
//! `frame_crc(encode_frame(k)) == payload_crc(k)` ties the two together.
//!
//! The CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) computed here
//! is the only one in the workspace: `ns-runtime` checksums checkpoint
//! payloads and durable-store files with the same [`crc32`] / [`Crc32`]. On
//! x86-64 with PCLMULQDQ (detected at run time) it folds 64 bytes per
//! iteration by carry-less multiplication; everywhere else, and as the
//! oracle the tests hold that kernel to, it is slice-by-8 tables.

use crate::fabric::MessageKind;

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

/// The table path over raw CRC state: slice-by-8 main loop, byte-wise tail.
/// Runs where the CLMUL kernel cannot (other architectures, inputs under
/// [`CLMUL_MIN_BYTES`], the sub-16-byte tail) and is the oracle the kernel
/// is tested against.
fn fold_table(mut c: u32, bytes: &[u8]) -> u32 {
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
    c
}

/// Shortest input the CLMUL kernel takes: its four 128-bit accumulators
/// are seeded from the first 64 bytes.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_BYTES: usize = 64;

/// The same CRC by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009): four
/// 128-bit accumulators are folded 64 bytes forward per iteration, merged,
/// folded over the remaining 16-byte blocks and Barrett-reduced back to the
/// 32-bit state. The constants are `x^n mod P` for the fold distances, in
/// the reflected bit order of the table path.
///
/// `bytes.len()` must be a multiple of 16 and at least [`CLMUL_MIN_BYTES`];
/// that much is asserted, not trusted.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    assert!(bytes.len() >= CLMUL_MIN_BYTES && bytes.len().is_multiple_of(16));
    // A 16-byte chunk of a slice is readable at any alignment.
    let load = |b: &[u8]| _mm_loadu_si128(b[..16].as_ptr().cast());
    // `acc` moved forward by the distance `k` encodes, plus the data there.
    let fold = |acc: __m128i, k: __m128i, data: __m128i| {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    };
    let k1k2 = _mm_set_epi64x(0x0001_c6e4_1596, 0x0001_5444_2bd4); // 64 bytes on
    let k3k4 = _mm_set_epi64x(0x0000_ccaa_009e, 0x0001_7519_97d0); // 16 bytes on
    let k5 = _mm_set_epi64x(0, 0x0001_63cd_6124);
    let poly_mu = _mm_set_epi64x(0x0001_f701_1641, 0x0001_db71_0641);
    let low32 = _mm_set_epi32(0, !0, 0, !0);

    let (head, rest) = bytes.split_at(CLMUL_MIN_BYTES);
    let mut x1 = _mm_xor_si128(load(head), _mm_cvtsi32_si128(state as i32));
    let (mut x2, mut x3, mut x4) = (load(&head[16..]), load(&head[32..]), load(&head[48..]));
    let mut blocks = rest.chunks_exact(64);
    for b in &mut blocks {
        x1 = fold(x1, k1k2, load(b));
        x2 = fold(x2, k1k2, load(&b[16..]));
        x3 = fold(x3, k1k2, load(&b[32..]));
        x4 = fold(x4, k1k2, load(&b[48..]));
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for b in blocks.remainder().chunks_exact(16) {
        x1 = fold(x1, k3k4, load(b));
    }
    // 128 -> 64 bits, 64 -> 32 bits of remainder, then Barrett reduction.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
    );
    let q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
    let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(x1, r), 1) as u32
}

/// Words per pass through the staging block (4 KiB of stack: long enough
/// to amortize the CLMUL kernel's final reduction, short enough to stay in
/// L1).
const STAGE_WORDS: usize = 1024;

/// Hands `f` the little-endian bytes of `words`, [`STAGE_WORDS`] at a time,
/// through one fixed stack block — the canonical serialization of a
/// `u32`/`f32` slice without materializing it, endian-correct on any host
/// (on little-endian ones the conversion loop is a block copy).
fn for_each_le_block<T: Copy>(words: &[T], to_le: impl Fn(T) -> [u8; 4], mut f: impl FnMut(&[u8])) {
    let mut block = [0u8; STAGE_WORDS * 4];
    for chunk in words.chunks(STAGE_WORDS) {
        let bytes = &mut block[..chunk.len() * 4];
        for (dst, &w) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&to_le(w));
        }
        f(bytes);
    }
}

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

    /// Folds `bytes` into the checksum: PCLMULQDQ folding where the CPU
    /// has it (x86-64, detected at run time), the slice-by-8 tables
    /// elsewhere and for the sub-16-byte tail. Both give the same value.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= CLMUL_MIN_BYTES
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            let (body, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: both CPU features were detected on the line above,
            // and `body` is a multiple of 16 bytes no shorter than 64.
            let folded = unsafe { fold_clmul(self.state, body) };
            self.state = fold_table(folded, tail);
            return;
        }
        self.state = fold_table(self.state, bytes);
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

/// Where the compact payload's fields go: into a byte buffer (the
/// reference codec), straight into a checksum (the fabric), or both. The
/// layout is written once, in [`write_payload`], so they cannot disagree.
trait PayloadSink {
    fn bytes(&mut self, bytes: &[u8]);
    fn u32s(&mut self, words: &[u32]) {
        for_each_le_block(words, u32::to_le_bytes, |bytes| self.bytes(bytes));
    }
    fn f32s(&mut self, words: &[f32]) {
        for_each_le_block(words, f32::to_le_bytes, |bytes| self.bytes(bytes));
    }
}

impl PayloadSink for Vec<u8> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl PayloadSink for Crc32 {
    fn bytes(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// The frame encoder's sink: each staged block is appended and, while it
/// is still in L1, checksummed — no second pass over the finished frame.
struct Checksummed<'a> {
    out: &'a mut Vec<u8>,
    crc: Crc32,
}

impl PayloadSink for Checksummed<'_> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.crc.update(bytes);
    }
}

/// Writes the compact payload of `kind` — the canonical byte layout — to
/// `out`, field by field.
fn write_payload(kind: &MessageKind, out: &mut impl PayloadSink) {
    out.bytes(&[kind_tag(kind)]);
    match kind {
        MessageKind::Rows { layer, ids, cols, data }
        | MessageKind::Grads { layer, ids, cols, data } => {
            out.u32s(&[*layer, *cols, ids.len() as u32]);
            out.u32s(ids);
            out.f32s(data);
        }
        MessageKind::AllReduce { round, data } => {
            out.u32s(&[*round, data.len() as u32]);
            out.f32s(data);
        }
        MessageKind::Control(v) => out.bytes(&v.to_le_bytes()),
        MessageKind::Query { qids, verts } => {
            out.u32s(&[qids.len() as u32, verts.len() as u32]);
            out.u32s(qids);
            out.u32s(verts);
        }
        MessageKind::Reply { qids, classes } => {
            out.u32s(&[qids.len() as u32]);
            out.u32s(qids);
            out.u32s(classes);
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
    write_payload(kind, out);
}

/// Serializes the compact payload of `kind` into a fresh buffer.
pub fn encode_payload(kind: &MessageKind) -> Vec<u8> {
    let mut out = Vec::new();
    encode_payload_into(kind, &mut out);
    out
}

/// CRC32 of the compact payload of `kind`. Equal to
/// `crc32(&encode_payload(kind))`, but the bytes are never materialized:
/// the header fields, ids and data are folded into the checksum in place.
/// The fabric stamps this onto every outgoing message and receivers
/// recompute it for verification.
pub fn payload_crc(kind: &MessageKind) -> u32 {
    let mut acc = Crc32::new();
    write_payload(kind, &mut acc);
    acc.finish()
}

/// Serializes a full frame into `out`: header (magic, kind, length, CRC32)
/// followed by the compact payload — written in one pass. `out` is cleared
/// and reused: the header is reserved up front, the payload is staged
/// straight into the frame buffer and checksummed block by block as it
/// goes (no intermediate payload `Vec`, no second pass), and the length
/// and CRC are patched into the reserved bytes afterwards. This is the
/// frame format's reference encoder: the in-process fabric ships structs
/// and stamps [`payload_crc`], which this frame's CRC always equals.
pub fn encode_frame_into(kind: &MessageKind, out: &mut Vec<u8>) {
    let header_len = FRAME_HEADER_BYTES as usize;
    out.clear();
    out.reserve(header_len + kind.payload_bytes() as usize);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind_tag(kind));
    out.extend_from_slice(&[0u8; 8]); // length + CRC, patched below
    let mut sink = Checksummed { out, crc: Crc32::new() };
    write_payload(kind, &mut sink);
    let crc = sink.crc.finish();
    let payload_len = (out.len() - header_len) as u32;
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
                need: self.pos.saturating_add(n),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next `n` little-endian words. `n` comes off the wire: the
    /// bytes are claimed from the cursor before anything is allocated, so
    /// a count the payload cannot hold is `Truncated`, not a huge `Vec`.
    fn words<T>(&mut self, n: usize, from_le: impl Fn([u8; 4]) -> T) -> Result<Vec<T>, FrameError> {
        let len = n
            .checked_mul(4)
            .ok_or(FrameError::Malformed("word count overflows"))?;
        let raw = self.take(len)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| from_le(c.try_into().unwrap()))
            .collect())
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, FrameError> {
        self.words(n, u32::from_le_bytes)
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, FrameError> {
        self.words(n, f32::from_le_bytes)
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<MessageKind, FrameError> {
    let mut cur = Cursor { bytes: payload, pos: 1 }; // tag already consumed
    let kind = match tag {
        0 | 1 => {
            let layer = cur.u32()?;
            let cols = cur.u32()?;
            let rows = cur.u32()? as usize;
            let ids = cur.u32s(rows)?;
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
            MessageKind::Query { qids: cur.u32s(nq)?, verts: cur.u32s(nv)? }
        }
        5 => {
            let nq = cur.u32()? as usize;
            MessageKind::Reply { qids: cur.u32s(nq)?, classes: cur.u32s(nq)? }
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
        // 1500 rows x 3: ids and data each span more than one staging block.
        let many: Vec<u32> = (0..1500).map(|i| i * 7 + 1).collect();
        vec![
            MessageKind::Rows {
                layer: 2,
                ids: vec![3, 9, 11],
                cols: 2,
                data: vec![1.0, -2.5, 0.0, 4.25, -0.125, 7.5],
            },
            MessageKind::Rows {
                layer: 1,
                data: many.iter().flat_map(|&i| [i as f32, -0.5, 1e-3 * i as f32]).collect(),
                ids: many,
                cols: 3,
            },
            MessageKind::Rows { layer: 0, ids: vec![], cols: 0, data: vec![] },
            MessageKind::Grads { layer: 0, ids: vec![5], cols: 3, data: vec![0.5, 1.5, 2.5] },
            MessageKind::Grads { layer: 3, ids: vec![8], cols: 1, data: vec![-1.0] },
            MessageKind::AllReduce { round: 7, data: vec![0.25, -0.75] },
            MessageKind::AllReduce { round: 0, data: vec![] },
            MessageKind::Control(-3.125),
            MessageKind::Query { qids: vec![1, 2, 3], verts: vec![40, 50, 60] },
            MessageKind::Query { qids: vec![], verts: vec![7, 9] },
            MessageKind::Query { qids: vec![], verts: vec![] },
            MessageKind::Reply { qids: vec![11, 12], classes: vec![0, 6] },
            MessageKind::Reply { qids: vec![], classes: vec![] },
        ]
    }

    fn random_bytes(rng: &mut ns_rand::StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// `Crc32::update` from raw state `state` — the CLMUL path on an
    /// x86-64 host that has it — against the table path called directly.
    fn assert_update_matches_table(state: u32, bytes: &[u8]) {
        let mut acc = Crc32 { state };
        acc.update(bytes);
        assert_eq!(acc.state, fold_table(state, bytes), "len {} state {state:#x}", bytes.len());
    }

    #[test]
    fn clmul_path_matches_table_path_at_every_length_and_alignment() {
        let mut rng = ns_rand::StdRng::seed_from_u64(23);
        let buf = random_bytes(&mut rng, 1100 + 16);
        for len in 0..=1100 {
            for offset in [0, 1, 7, 12] {
                let state = if len % 2 == 0 { 0xFFFF_FFFF } else { rng.next_u64() as u32 };
                assert_update_matches_table(state, &buf[offset..offset + len]);
            }
        }
    }

    #[test]
    fn streamed_updates_match_table_path_at_random_split_points() {
        ns_rand::check_cases(0..64, |rng| {
            let len = rng.random_range(0..6000usize);
            let bytes = random_bytes(rng, len);
            let mut acc = Crc32::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let (now, later) = rest.split_at(rng.random_range(0..=rest.len().min(700)));
                acc.update(now);
                rest = later;
            }
            assert_eq!(acc.state, fold_table(0xFFFF_FFFF, &bytes));
        });
    }

    #[test]
    fn staged_words_checksum_as_their_le_bytes() {
        for n in [0, 1, 3, 15, 16, 17, STAGE_WORDS - 1, STAGE_WORDS, STAGE_WORDS + 1, 2500] {
            let us: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let fs: Vec<f32> = us.iter().map(|&u| f32::from_bits(u)).collect();
            let bytes: Vec<u8> = us.iter().flat_map(|u| u.to_le_bytes()).collect();
            let (mut a, mut b) = (Crc32::new(), Crc32::new());
            a.u32s(&us);
            b.f32s(&fs);
            assert_eq!(a.finish(), crc32(&bytes), "u32 x {n}");
            assert_eq!(b.finish(), crc32(&bytes), "f32 x {n}");
        }
    }

    /// Speed gate for CI's perf-smoke (release profile): both paths run in
    /// this process on this host, so the ratio survives host drift.
    #[test]
    #[ignore = "timing: cargo test --release -p ns-net wire -- --include-ignored"]
    #[cfg(target_arch = "x86_64")]
    fn clmul_path_is_at_least_4x_the_table_path_on_1mib() {
        if !is_x86_feature_detected!("pclmulqdq") || !is_x86_feature_detected!("sse4.1") {
            eprintln!("no pclmulqdq on this CPU: Crc32 runs the table path, nothing to gate");
            return;
        }
        let bytes = random_bytes(&mut ns_rand::StdRng::seed_from_u64(1), 1 << 20);
        let best_of_5 = |f: &dyn Fn(&[u8]) -> u32| {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(f(std::hint::black_box(&bytes)));
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let table = best_of_5(&|b| fold_table(0xFFFF_FFFF, b));
        let clmul = best_of_5(&crc32);
        let ratio = table.as_secs_f64() / clmul.as_secs_f64();
        eprintln!("crc32 over 1 MiB: table {table:?}, clmul {clmul:?}, ratio {ratio:.1}");
        assert!(ratio >= 4.0, "CLMUL path only {ratio:.1}x the table path");
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

    /// A frame whose header, length and CRC are all valid but whose
    /// payload declares `count` words it does not hold.
    fn frame_declaring(tag: u8, fields_before_count: usize, count: u32) -> Vec<u8> {
        let mut payload = vec![tag];
        payload.extend_from_slice(&vec![0u8; 4 * fields_before_count]);
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&[0u8; 8]); // far fewer words than declared
        let mut frame = FRAME_MAGIC.to_vec();
        frame.push(tag);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn counts_from_the_wire_are_bounded_by_the_payload() {
        // Rows/Grads: layer, cols, then rows. AllReduce: round, then n.
        // Query: nq (then nv). Reply: nq. Sizing a Vec from any of these
        // before checking the payload would ask for up to 16 GiB.
        for (tag, before) in [(0, 2), (1, 2), (2, 1), (4, 0), (5, 0)] {
            for count in [3, 1 << 20, u32::MAX] {
                let err = decode_frame(&frame_declaring(tag, before, count)).unwrap_err();
                assert!(matches!(err, FrameError::Truncated { .. }), "tag {tag}: {err}");
            }
        }
        // Query's second count, behind a first one the payload does hold.
        let mut frame = frame_declaring(4, 1, u32::MAX);
        let payload_at = FRAME_HEADER_BYTES as usize;
        frame[payload_at + 1..payload_at + 5].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&frame[payload_at..]);
        frame[9..13].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&frame), Err(FrameError::Truncated { .. })));
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
