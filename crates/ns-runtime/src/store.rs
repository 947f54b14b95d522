//! Durable, versioned checkpoint store.
//!
//! The in-memory [`Checkpoint`](crate::recovery::Checkpoint) survives a
//! *worker* failure but not a *process* failure. This module persists each
//! checkpoint as a numbered **generation** file under a user-chosen
//! directory (`--ckpt-dir`), so a restarted process — or a rollback whose
//! in-memory copy was damaged — can recover from disk.
//!
//! Generation file layout (all integers little-endian):
//!
//! ```text
//! magic        [u8; 8]  = b"NTSSTORE"
//! schema       u32      = 1
//! epoch        u32      next epoch to run when resuming from here
//! world        u32      cluster size at capture time
//! flags        u32      bit 0: payload carries Adam optimizer state
//! payload_len  u64      bytes following the header
//! payload_crc  u32      CRC32 (IEEE) of the payload
//! header_crc   u32      CRC32 of the 36 header bytes above
//! payload      [u8]     NTSCKPT1 parameter snapshot, then optional opt state
//! ```
//!
//! `header_crc` covers every header field *including* `payload_crc`, so a
//! single bit flip anywhere in the file — header metadata, either CRC, or
//! payload — is always detected at load time; the torn-write tests assert
//! this exhaustively.
//!
//! Writes are atomic: the generation is written to a temp file, `fsync`ed,
//! renamed into place, the `MANIFEST` (one generation filename per line,
//! oldest first) is rewritten the same way, and the directory is synced.
//! A crash at any point leaves either the old state or the new state,
//! never a half-written generation that the manifest points at.
//!
//! Loads walk generations newest → oldest and *skip* any generation that
//! is truncated or fails a CRC, counting each skip as a fallback — a torn
//! newest generation degrades to the previous good one instead of killing
//! recovery.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ns_net::wire::{crc32, Crc32};
use ns_tensor::checkpoint::{self, CheckpointError};
use ns_tensor::{AdamState, Tensor};

use crate::recovery::Checkpoint;

/// Magic prefix of a generation file.
pub const STORE_MAGIC: &[u8; 8] = b"NTSSTORE";
/// On-disk schema version written by this build.
pub const SCHEMA_VERSION: u32 = 1;
/// Fixed size of the generation header, bytes.
pub const HEADER_BYTES: usize = 40;

const MANIFEST: &str = "MANIFEST";
const FLAG_HAS_OPT: u32 = 1;
/// POSIX "no space left on device".
const ENOSPC: i32 = 28;

/// ENOSPC-class check covering both the injected fault (constructed with
/// raw OS error 28) and a genuinely full filesystem.
fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC)
}

/// Where (and how much) the trainer persists checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Directory for generation files. `None` (the default) keeps
    /// checkpoints in memory only — the pre-durability behavior.
    pub dir: Option<PathBuf>,
    /// How many generations to retain on disk (last K).
    pub keep: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { dir: None, keep: 3 }
    }
}

impl StoreConfig {
    /// Durable store rooted at `dir` with the default retention.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: Some(dir.into()), keep: 3 }
    }

    /// Sets the retention depth (builder style). Values below 1 are
    /// clamped to 1 — retaining zero generations would make every save
    /// delete itself.
    pub fn keep(mut self, k: usize) -> Self {
        self.keep = k.max(1);
        self
    }

    /// Whether durable checkpointing is active.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// What a successful [`CheckpointStore::save`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReceipt {
    /// Final path of the generation file.
    pub path: PathBuf,
    /// Size of the generation file, bytes.
    pub bytes: u64,
    /// Wall time spent in `fsync` calls (file, manifest, directory).
    pub fsync_ns: u64,
    /// Extra wall time charged by an injected slow-disk fault.
    pub slow_penalty_ns: u64,
}

/// What [`CheckpointStore::save_degrading`] did — a save that survives
/// ENOSPC by squeezing retention instead of aborting training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveOutcome {
    /// The receipt, when a generation actually landed on disk. `None`
    /// means the generation was deferred to the next cadence.
    pub receipt: Option<SaveReceipt>,
    /// ENOSPC-class failures absorbed during this save.
    pub enospc_hits: u64,
    /// Whether this save squeezed retention down to keep-last-1.
    pub squeezed: bool,
    /// Whether the generation was deferred (disk still full after the
    /// whole fallback chain). The in-memory checkpoint remains valid.
    pub deferred: bool,
}

/// The newest→oldest fallback chain found nothing loadable: the store
/// directory is empty, or every generation present is damaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreExhausted {
    /// The store directory that was walked.
    pub dir: PathBuf,
    /// Generations present (and skipped as damaged) when the chain ended.
    pub generations: usize,
    /// Damaged generations skipped before giving up.
    pub fallbacks: u64,
}

impl std::fmt::Display for StoreExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.generations == 0 {
            write!(f, "checkpoint store {} holds no generations", self.dir.display())
        } else {
            write!(
                f,
                "checkpoint store {} exhausted: all {} generations damaged \
                 ({} fallbacks)",
                self.dir.display(),
                self.generations,
                self.fallbacks
            )
        }
    }
}

impl std::error::Error for StoreExhausted {}

/// Result of [`CheckpointStore::load_latest`].
#[derive(Debug)]
pub struct LoadReport {
    /// The newest generation that passed verification, or `None` if the
    /// store is empty or every generation is damaged.
    pub checkpoint: Option<Checkpoint>,
    /// Cluster size recorded in the loaded generation's header.
    pub world: Option<usize>,
    /// Number of damaged generations skipped before a good one was found
    /// (or before the chain was exhausted).
    pub fallbacks: u64,
}

/// A directory of checkpoint generations with last-K retention.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    next_gen: u64,
    /// Injected disk-full window is active (chaos harness). The squeeze
    /// frees enough space for writes to land again.
    injected_full: bool,
    /// Injected *hard* disk-full: even the post-squeeze retry fails, so
    /// saves defer to the next cadence.
    injected_hard: bool,
    /// Injected fsync slowdown factor; 1.0 = healthy disk.
    slow_factor: f64,
    /// Retention has been squeezed to keep-last-1 by an ENOSPC.
    squeezed: bool,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`, retaining the last
    /// `keep` generations. Resumes generation numbering past any files
    /// already present.
    pub fn open(dir: &Path, keep: usize) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut next_gen = 0;
        for entry in fs::read_dir(dir)? {
            if let Some(seq) = parse_gen_seq(&entry?.file_name().to_string_lossy()) {
                next_gen = next_gen.max(seq + 1);
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
            next_gen,
            injected_full: false,
            injected_hard: false,
            slow_factor: 1.0,
            squeezed: false,
        })
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current retention depth (1 after an ENOSPC squeeze).
    pub fn keep_depth(&self) -> usize {
        self.keep
    }

    /// Whether an ENOSPC has squeezed retention to keep-last-1.
    pub fn is_squeezed(&self) -> bool {
        self.squeezed
    }

    /// Arms (or disarms) the injected disk fate for subsequent saves.
    /// `full` models an ENOSPC window; `slow_factor` ≥ 1 multiplies the
    /// fsync cost. Injection behaves exactly like the real thing: a full
    /// disk fails the write with OS error 28 until retention is squeezed
    /// (the prune frees space), after which writes land again.
    pub fn set_disk_fate(&mut self, full: bool, slow_factor: f64) {
        self.injected_full = full;
        self.slow_factor = slow_factor.max(1.0);
    }

    /// Arms an injected disk-full so severe that even the post-squeeze
    /// retry fails — the path where a save defers to the next cadence.
    pub fn set_disk_fate_hard(&mut self, full: bool) {
        self.injected_hard = full;
    }

    /// Persists `ckpt` as the next generation and prunes past the
    /// retention depth. The write is atomic (temp file → fsync → rename →
    /// manifest rewrite → directory sync).
    pub fn save(&mut self, ckpt: &Checkpoint, world: usize) -> io::Result<SaveReceipt> {
        // Injected disk-full window: refuse the write with the same error
        // a real full filesystem produces, until the retention squeeze
        // frees space. Checked before any bytes are staged so a failed
        // save leaves the store exactly as it was.
        if self.injected_hard || (self.injected_full && !self.squeezed) {
            return Err(io::Error::from_raw_os_error(ENOSPC));
        }
        // The payload is the parameter snapshot then the (small) encoded
        // optimizer state, checksummed and written in turn, never joined.
        let params = ckpt.raw_bytes();
        let mut opt_bytes = Vec::new();
        let mut flags = 0u32;
        if let Some(opt) = ckpt.opt_state() {
            flags |= FLAG_HAS_OPT;
            encode_opt(opt, &mut opt_bytes);
        }
        let payload_len = params.len() + opt_bytes.len();
        let mut payload_crc = Crc32::new();
        payload_crc.update(params);
        payload_crc.update(&opt_bytes);
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(STORE_MAGIC);
        header.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        header.extend_from_slice(&(ckpt.next_epoch as u32).to_le_bytes());
        header.extend_from_slice(&(world as u32).to_le_bytes());
        header.extend_from_slice(&flags.to_le_bytes());
        header.extend_from_slice(&(payload_len as u64).to_le_bytes());
        header.extend_from_slice(&payload_crc.finish().to_le_bytes());
        let header_crc = crc32(&header);
        header.extend_from_slice(&header_crc.to_le_bytes());

        let name = gen_name(self.next_gen, ckpt.next_epoch);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!(".tmp-{name}"));
        // Snapshot the generation list before the rename so the
        // directory-scan fallback cannot double-count the new file.
        let mut gens = self.generations()?;
        let mut fsync_ns = 0u64;
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(&header)?;
            // The payload goes out in pool-advised slices, so a
            // memory-pressure window also bounds each write burst.
            let slice = ns_tensor::pool::advise_chunk(payload_len).max(1);
            for chunk in params.chunks(slice).chain(opt_bytes.chunks(slice)) {
                f.write_all(chunk)?;
            }
            fsync_ns += timed_sync(&f)?;
        }
        fs::rename(&tmp_path, &final_path)?;
        self.next_gen += 1;

        // Retention + manifest: keep the newest `keep` generations.
        gens.push(name);
        while gens.len() > self.keep {
            let evicted = gens.remove(0);
            // Best-effort: a missing file must not fail the save.
            let _ = fs::remove_file(self.dir.join(evicted));
        }
        fsync_ns += self.write_manifest(&gens)?;
        fsync_ns += timed_sync(&File::open(&self.dir)?)?;

        // Injected slow disk: charge the extra fsync latency for real (so
        // spans and the watchdog see it), bounded so soaks stay quick.
        let mut slow_penalty_ns = 0;
        if self.slow_factor > 1.0 {
            slow_penalty_ns = (fsync_ns as f64 * (self.slow_factor - 1.0)) as u64;
            let nap = slow_penalty_ns.min(20_000_000); // ≤ 20 ms per save
            std::thread::sleep(std::time::Duration::from_nanos(nap));
        }

        Ok(SaveReceipt {
            path: final_path,
            bytes: (header.len() + payload_len) as u64,
            fsync_ns,
            slow_penalty_ns,
        })
    }

    /// Saves with the degrade-don't-die policy: an ENOSPC-class failure
    /// squeezes retention to keep-last-1 (pruning frees space), retries
    /// once, and — if the disk is *still* full — defers the generation to
    /// the next cadence instead of erroring. Only non-ENOSPC I/O failures
    /// (permissions, rename, …) surface as errors; training state is
    /// never at risk because the in-memory checkpoint stays valid.
    pub fn save_degrading(
        &mut self,
        ckpt: &Checkpoint,
        world: usize,
    ) -> io::Result<SaveOutcome> {
        match self.save(ckpt, world) {
            Ok(receipt) => Ok(SaveOutcome {
                receipt: Some(receipt),
                enospc_hits: 0,
                squeezed: false,
                deferred: false,
            }),
            Err(e) if is_enospc(&e) => {
                let mut enospc_hits = 1;
                let squeezed = !self.squeezed;
                self.squeeze_retention()?;
                match self.save(ckpt, world) {
                    Ok(receipt) => Ok(SaveOutcome {
                        receipt: Some(receipt),
                        enospc_hits,
                        squeezed,
                        deferred: false,
                    }),
                    Err(e2) if is_enospc(&e2) => {
                        enospc_hits += 1;
                        Ok(SaveOutcome {
                            receipt: None,
                            enospc_hits,
                            squeezed,
                            deferred: true,
                        })
                    }
                    Err(e2) => Err(e2),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Squeezes retention to keep-last-1 and prunes everything but the
    /// newest generation right now, freeing disk for the retry. Sticky:
    /// once a run has hit ENOSPC the store stays at keep-last-1.
    fn squeeze_retention(&mut self) -> io::Result<()> {
        self.keep = 1;
        self.squeezed = true;
        let mut gens = self.generations()?;
        if gens.len() > 1 {
            let keep_newest = gens.split_off(gens.len() - 1);
            for evicted in gens {
                let _ = fs::remove_file(self.dir.join(evicted));
            }
            self.write_manifest(&keep_newest)?;
        }
        Ok(())
    }

    /// Generation filenames in manifest order (oldest first). Falls back
    /// to a directory scan when the manifest is missing or unreadable.
    pub fn generations(&self) -> io::Result<Vec<String>> {
        match fs::read_to_string(self.dir.join(MANIFEST)) {
            Ok(text) => {
                // A corrupt manifest (garbage lines, no valid generation
                // names) must not hide generations that are on disk:
                // ignore unparseable lines and rescue via directory scan
                // when nothing valid remains.
                let names: Vec<String> = text
                    .lines()
                    .map(str::to_owned)
                    .filter(|l| parse_gen_seq(l).is_some())
                    .collect();
                if names.is_empty() {
                    self.scan_generations()
                } else {
                    Ok(names)
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => self.scan_generations(),
            Err(e) => Err(e),
        }
    }

    /// Directory-scan fallback for a missing or corrupt manifest.
    fn scan_generations(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| parse_gen_seq(n).is_some())
            .collect();
        names.sort();
        Ok(names)
    }

    /// Loads the newest generation that verifies, skipping (and counting)
    /// damaged ones.
    pub fn load_latest(&self) -> LoadReport {
        let gens = match self.generations() {
            Ok(g) => g,
            Err(_) => return LoadReport { checkpoint: None, world: None, fallbacks: 0 },
        };
        let mut fallbacks = 0;
        for name in gens.iter().rev() {
            match read_generation(&self.dir.join(name)) {
                Ok((ckpt, world)) => {
                    return LoadReport {
                        checkpoint: Some(ckpt),
                        world: Some(world),
                        fallbacks,
                    }
                }
                Err(_) => fallbacks += 1,
            }
        }
        LoadReport { checkpoint: None, world: None, fallbacks }
    }

    /// Like [`load_latest`](Self::load_latest), but an empty store — or
    /// one whose every generation is damaged — is a typed
    /// [`StoreExhausted`] error instead of a silent `None`. This is the
    /// end of the newest→oldest fallback chain, the only point where the
    /// resource-robustness layer is allowed to give up.
    pub fn load_latest_strict(&self) -> Result<(Checkpoint, usize, u64), StoreExhausted> {
        let generations = self.generations().map(|g| g.len()).unwrap_or(0);
        let report = self.load_latest();
        match report.checkpoint {
            Some(ckpt) => Ok((ckpt, report.world.unwrap_or(0), report.fallbacks)),
            None => Err(StoreExhausted {
                dir: self.dir.clone(),
                generations,
                fallbacks: report.fallbacks,
            }),
        }
    }

    /// Flips one bit of the newest generation file (bit `seed` modulo the
    /// file's bit length) — the chaos harness's model of silent on-disk
    /// corruption. Returns `false` when the store holds no generation.
    pub fn damage_latest(&self, seed: u64) -> io::Result<bool> {
        let gens = self.generations()?;
        let Some(name) = gens.last() else { return Ok(false) };
        let path = self.dir.join(name);
        let mut bytes = fs::read(&path)?;
        if bytes.is_empty() {
            return Ok(false);
        }
        let bit = (seed % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        fs::write(&path, &bytes)?;
        Ok(true)
    }

    fn write_manifest(&self, gens: &[String]) -> io::Result<u64> {
        let tmp = self.dir.join(".tmp-manifest");
        let mut fsync_ns = 0;
        {
            let mut f = File::create(&tmp)?;
            for name in gens {
                writeln!(f, "{name}")?;
            }
            fsync_ns += timed_sync(&f)?;
        }
        fs::rename(&tmp, self.dir.join(MANIFEST))?;
        Ok(fsync_ns)
    }
}

fn gen_name(seq: u64, epoch: usize) -> String {
    format!("gen-{seq:08}-e{epoch}.ckpt")
}

fn parse_gen_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("gen-")?;
    if !name.ends_with(".ckpt") {
        return None;
    }
    rest.get(..8)?.parse().ok()
}

fn timed_sync(f: &File) -> io::Result<u64> {
    let t = Instant::now();
    let r = f.sync_all();
    // Directory fsync is not supported everywhere; treat that as a no-op
    // rather than failing the save.
    match r {
        Ok(()) => Ok(t.elapsed().as_nanos() as u64),
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(0),
        Err(e) => Err(e),
    }
}

fn encode_opt(opt: &AdamState, out: &mut Vec<u8>) {
    out.extend_from_slice(&opt.t.to_le_bytes());
    out.extend_from_slice(&(opt.m.len() as u32).to_le_bytes());
    for t in opt.m.iter().chain(opt.v.iter()) {
        out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
        for v in t.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Byte-slice reader that tracks how far it has advanced, so the param
/// snapshot's length can be recovered after `load_typed` consumes it.
struct SliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Read for SliceReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (&self.bytes[self.pos..]).read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

impl SliceReader<'_> {
    fn u32(&mut self, base: u64) -> Result<u32, CheckpointError> {
        let mut b = [0u8; 4];
        self.exact(&mut b, base)?;
        Ok(u32::from_le_bytes(b))
    }

    fn exact(&mut self, buf: &mut [u8], base: u64) -> Result<(), CheckpointError> {
        let at = base + self.pos as u64;
        std::io::Read::read_exact(self, buf)
            .map_err(|e| CheckpointError::Io { offset: at, kind: e.kind() })
    }
}

fn decode_opt(r: &mut SliceReader<'_>, base: u64) -> Result<AdamState, CheckpointError> {
    let mut t_bytes = [0u8; 8];
    r.exact(&mut t_bytes, base)?;
    let t = u64::from_le_bytes(t_bytes);
    let count = r.u32(base)? as usize;
    let mut tensors = Vec::with_capacity(count * 2);
    for _ in 0..count * 2 {
        let at = base + r.pos as u64;
        let rows = r.u32(base)? as usize;
        let cols = r.u32(base)? as usize;
        let elems = rows.checked_mul(cols).ok_or_else(|| CheckpointError::Corrupt {
            offset: at,
            what: "optimizer tensor shape overflow".into(),
        })?;
        let mut data = vec![0u8; elems * 4];
        r.exact(&mut data, base)?;
        let floats: Vec<f32> = data
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        tensors.push(Tensor::from_vec(rows, cols, floats));
    }
    let v = tensors.split_off(count);
    Ok(AdamState { t, m: tensors, v })
}

/// Reads and fully verifies one generation file. Any truncation, CRC
/// failure, or structural damage surfaces as a typed [`CheckpointError`];
/// callers in the fallback chain skip to the previous generation.
pub fn read_generation(path: &Path) -> Result<(Checkpoint, usize), CheckpointError> {
    let bytes =
        fs::read(path).map_err(|e| CheckpointError::Io { offset: 0, kind: e.kind() })?;
    if bytes.len() < HEADER_BYTES {
        return Err(CheckpointError::Io {
            offset: bytes.len() as u64,
            kind: io::ErrorKind::UnexpectedEof,
        });
    }
    if &bytes[..8] != STORE_MAGIC {
        return Err(CheckpointError::Corrupt {
            offset: 0,
            what: "not a NeutronStar checkpoint store generation (bad magic)".into(),
        });
    }
    let stored_header_crc = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
    let computed_header_crc = crc32(&bytes[..36]);
    if stored_header_crc != computed_header_crc {
        return Err(CheckpointError::CrcMismatch {
            offset: 0,
            expected: stored_header_crc,
            computed: computed_header_crc,
        });
    }
    let schema = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if schema != SCHEMA_VERSION {
        return Err(CheckpointError::Corrupt {
            offset: 8,
            what: format!("unsupported store schema {schema}"),
        });
    }
    let epoch = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let world = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let flags = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() < payload_len {
        return Err(CheckpointError::Io {
            offset: bytes.len() as u64,
            kind: io::ErrorKind::UnexpectedEof,
        });
    }
    if payload.len() > payload_len {
        return Err(CheckpointError::Corrupt {
            offset: 24,
            what: "trailing bytes after declared payload".into(),
        });
    }
    let stored_payload_crc = u32::from_le_bytes(bytes[32..36].try_into().unwrap());
    let computed_payload_crc = crc32(payload);
    if stored_payload_crc != computed_payload_crc {
        return Err(CheckpointError::CrcMismatch {
            offset: HEADER_BYTES as u64,
            expected: stored_payload_crc,
            computed: computed_payload_crc,
        });
    }
    let mut r = SliceReader { bytes: payload, pos: 0 };
    // Re-validate structure even though the CRC passed — a writer bug must
    // not become a loader panic.
    checkpoint::load_typed(&mut r)?;
    let param_len = r.pos;
    let opt = if flags & FLAG_HAS_OPT != 0 {
        Some(decode_opt(&mut r, HEADER_BYTES as u64)?)
    } else {
        None
    };
    if r.pos != payload.len() {
        return Err(CheckpointError::Corrupt {
            offset: HEADER_BYTES as u64 + r.pos as u64,
            what: "trailing bytes after optimizer state".into(),
        });
    }
    Ok((Checkpoint::from_raw(epoch, payload[..param_len].to_vec(), opt), world))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_tensor::ParamStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch directory under the OS temp dir (removed on drop).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "nts-store-{}-{tag}-{n}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.register("w", Tensor::from_vec(2, 3, vec![1.0, -2.5, 3.25, 0.125, -0.5, 4.0]));
        s.register("b", Tensor::from_vec(1, 3, vec![0.5, -0.5, 0.0]));
        s
    }

    fn sample_opt() -> AdamState {
        AdamState {
            t: 11,
            m: vec![Tensor::from_vec(2, 3, vec![0.1; 6]), Tensor::zeros(1, 3)],
            v: vec![Tensor::from_vec(2, 3, vec![0.2; 6]), Tensor::from_vec(1, 3, vec![0.3; 3])],
        }
    }

    fn assert_same_params(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.next_epoch, b.next_epoch);
        assert_eq!(a.raw_bytes(), b.raw_bytes());
    }

    #[test]
    fn save_load_roundtrips_params_and_opt() {
        let scratch = Scratch::new("roundtrip");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let ckpt2 = Checkpoint::capture(2, &sample_store(), None);
        let ckpt4 = Checkpoint::capture(4, &sample_store(), Some(sample_opt()));
        let receipt = store.save(&ckpt2, 3).unwrap();
        assert!(receipt.bytes > HEADER_BYTES as u64);
        store.save(&ckpt4, 3).unwrap();

        let report = store.load_latest();
        assert_eq!(report.fallbacks, 0);
        assert_eq!(report.world, Some(3));
        let loaded = report.checkpoint.unwrap();
        assert_same_params(&loaded, &ckpt4);
        let (params, opt) = loaded.restore().unwrap();
        assert!(params.is_some());
        assert_eq!(opt, Some(sample_opt()));
    }

    #[test]
    fn retention_keeps_last_k_generations() {
        let scratch = Scratch::new("retention");
        let mut store = CheckpointStore::open(&scratch.0, 2).unwrap();
        for epoch in 1..=4 {
            let ckpt = Checkpoint::capture(epoch, &sample_store(), None);
            store.save(&ckpt, 2).unwrap();
        }
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 2, "{gens:?}");
        // Only the retained files remain on disk.
        let on_disk = fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| parse_gen_seq(&e.file_name().to_string_lossy()).is_some())
            .count();
        assert_eq!(on_disk, 2);
        assert_eq!(store.load_latest().checkpoint.unwrap().next_epoch, 4);
    }

    #[test]
    fn torn_newest_generation_falls_back_to_previous() {
        let scratch = Scratch::new("torn");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 3).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 3).unwrap();
        // Tear the newest generation mid-payload.
        let newest = store.generations().unwrap().pop().unwrap();
        let path = scratch.0.join(newest);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let report = store.load_latest();
        assert_eq!(report.fallbacks, 1);
        assert_eq!(report.checkpoint.unwrap().next_epoch, 2);
    }

    #[test]
    fn every_generation_damaged_reports_all_fallbacks() {
        let scratch = Scratch::new("allbad");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 3).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 3).unwrap();
        for name in store.generations().unwrap() {
            let path = scratch.0.join(name);
            let mut bytes = fs::read(&path).unwrap();
            bytes[HEADER_BYTES + 3] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
        }
        let report = store.load_latest();
        assert!(report.checkpoint.is_none());
        assert_eq!(report.fallbacks, 2);
    }

    #[test]
    fn any_single_bit_flip_in_a_generation_is_detected() {
        let scratch = Scratch::new("bitflip");
        let mut store = CheckpointStore::open(&scratch.0, 1).unwrap();
        store.save(&Checkpoint::capture(3, &sample_store(), Some(sample_opt())), 2).unwrap();
        let name = store.generations().unwrap().pop().unwrap();
        let path = scratch.0.join(name);
        let clean = fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[byte] ^= 1 << bit;
                fs::write(&path, &damaged).unwrap();
                assert!(
                    read_generation(&path).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
        // And any truncation.
        for len in 0..clean.len() {
            fs::write(&path, &clean[..len]).unwrap();
            assert!(read_generation(&path).is_err(), "truncation to {len} went undetected");
        }
        fs::write(&path, &clean).unwrap();
        assert!(read_generation(&path).is_ok());
    }

    #[test]
    fn damage_latest_flips_exactly_one_detectable_bit() {
        let scratch = Scratch::new("damage");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        assert!(!store.damage_latest(7).unwrap(), "empty store has nothing to damage");
        store.save(&Checkpoint::capture(2, &sample_store(), None), 3).unwrap();
        assert!(store.damage_latest(0xDEAD_BEEF).unwrap());
        let report = store.load_latest();
        assert!(report.checkpoint.is_none());
        assert_eq!(report.fallbacks, 1);
    }

    #[test]
    fn reopening_resumes_generation_numbering() {
        let scratch = Scratch::new("reopen");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 3).unwrap();
        drop(store);
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 3).unwrap();
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 2);
        assert!(gens[0] < gens[1], "{gens:?}");
        assert_eq!(store.load_latest().checkpoint.unwrap().next_epoch, 4);
    }

    #[test]
    fn keep_last_one_retains_only_the_newest_generation() {
        let scratch = Scratch::new("keep1");
        let mut store = CheckpointStore::open(&scratch.0, 1).unwrap();
        for epoch in 1..=3 {
            store.save(&Checkpoint::capture(epoch, &sample_store(), None), 2).unwrap();
        }
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 1, "{gens:?}");
        let on_disk = fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| parse_gen_seq(&e.file_name().to_string_lossy()).is_some())
            .count();
        assert_eq!(on_disk, 1, "older generations must be pruned from disk");
        assert_eq!(store.load_latest().checkpoint.unwrap().next_epoch, 3);
    }

    #[test]
    fn missing_manifest_with_generations_present_loads_via_scan() {
        let scratch = Scratch::new("nomanifest");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 2).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 2).unwrap();
        fs::remove_file(scratch.0.join(MANIFEST)).unwrap();
        let report = store.load_latest();
        assert_eq!(report.fallbacks, 0);
        assert_eq!(report.checkpoint.unwrap().next_epoch, 4);
    }

    #[test]
    fn corrupt_manifest_with_generations_present_loads_via_scan() {
        let scratch = Scratch::new("badmanifest");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 2).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 2).unwrap();
        fs::write(scratch.0.join(MANIFEST), "garbage\n\u{fffd}\u{fffd}\nnot-a-gen\n")
            .unwrap();
        let report = store.load_latest();
        assert_eq!(report.fallbacks, 0, "scan rescue must not burn fallbacks");
        assert_eq!(report.checkpoint.unwrap().next_epoch, 4);
    }

    #[test]
    fn empty_store_exhausts_the_chain_with_a_typed_error() {
        let scratch = Scratch::new("emptystrict");
        let store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let err = store.load_latest_strict().unwrap_err();
        assert_eq!(err.generations, 0);
        assert_eq!(err.fallbacks, 0);
        assert!(err.to_string().contains("no generations"), "{err}");
    }

    #[test]
    fn all_damaged_store_exhausts_the_chain_with_a_typed_error() {
        let scratch = Scratch::new("alldamagedstrict");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 2).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 2).unwrap();
        for name in store.generations().unwrap() {
            let path = scratch.0.join(name);
            let mut bytes = fs::read(&path).unwrap();
            bytes[HEADER_BYTES + 1] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
        }
        let err = store.load_latest_strict().unwrap_err();
        assert_eq!(err.generations, 2);
        assert_eq!(err.fallbacks, 2);
        assert!(err.to_string().contains("exhausted"), "{err}");
    }

    #[test]
    fn enospc_squeezes_retention_and_lands_the_retry() {
        let scratch = Scratch::new("enospc");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(1, &sample_store(), None), 2).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 2).unwrap();
        store.set_disk_fate(true, 1.0);
        let out = store.save_degrading(&Checkpoint::capture(3, &sample_store(), None), 2)
            .unwrap();
        assert!(out.receipt.is_some(), "retry after squeeze must land");
        assert_eq!(out.enospc_hits, 1);
        assert!(out.squeezed);
        assert!(!out.deferred);
        assert!(store.is_squeezed());
        assert_eq!(store.keep_depth(), 1);
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 1, "squeeze prunes to keep-last-1: {gens:?}");
        assert_eq!(store.load_latest().checkpoint.unwrap().next_epoch, 3);

        // Healed window: subsequent saves stay at keep-last-1 but succeed
        // first try.
        store.set_disk_fate(false, 1.0);
        let out = store.save_degrading(&Checkpoint::capture(4, &sample_store(), None), 2)
            .unwrap();
        assert_eq!(out.enospc_hits, 0);
        assert!(!out.squeezed, "squeeze is reported only when it happens");
        assert_eq!(store.generations().unwrap().len(), 1);
    }

    #[test]
    fn hard_disk_full_defers_the_generation_without_erroring() {
        let scratch = Scratch::new("harddisk");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(1, &sample_store(), None), 2).unwrap();
        store.set_disk_fate_hard(true);
        let out = store.save_degrading(&Checkpoint::capture(2, &sample_store(), None), 2)
            .unwrap();
        assert!(out.receipt.is_none());
        assert!(out.deferred);
        assert_eq!(out.enospc_hits, 2, "first try + post-squeeze retry both hit");
        // The generation from before the window is still loadable.
        assert_eq!(store.load_latest().checkpoint.unwrap().next_epoch, 1);
        // Heal, retry at the next cadence: the deferred save lands.
        store.set_disk_fate_hard(false);
        let out = store.save_degrading(&Checkpoint::capture(2, &sample_store(), None), 2)
            .unwrap();
        assert!(out.receipt.is_some());
        assert_eq!(store.load_latest().checkpoint.unwrap().next_epoch, 2);
    }

    #[test]
    fn slow_disk_charges_a_bounded_penalty() {
        let scratch = Scratch::new("slowdisk");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.set_disk_fate(false, 3.0);
        let receipt =
            store.save(&Checkpoint::capture(1, &sample_store(), None), 2).unwrap();
        assert!(
            receipt.slow_penalty_ns >= receipt.fsync_ns,
            "3x slowdown must charge at least 2x the fsync time \
             (penalty {} vs fsync {})",
            receipt.slow_penalty_ns,
            receipt.fsync_ns
        );
    }

    #[test]
    fn config_defaults_keep_durability_off() {
        let cfg = StoreConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.keep, 3);
        let cfg = StoreConfig::at("/tmp/x").keep(0);
        assert!(cfg.enabled());
        assert_eq!(cfg.keep, 1, "keep clamps to at least one generation");
    }
}
