//! Durable, versioned checkpoint store.
//!
//! The in-memory [`Checkpoint`] survives a
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
//! payload      [u8]     the checkpoint's encoding (`ns_tensor::checkpoint`):
//!                       NTSCKPT1 parameters, then the Adam section if any
//! ```
//!
//! The payload is the in-memory [`Checkpoint`]'s own bytes and
//! `payload_crc` the CRC it computed at capture: a save writes both
//! as they are, and a load verifies the two CRCs, decodes the payload once
//! to validate it and hands the same bytes, with the CRC it just checked,
//! back as a [`Checkpoint`]. `header_crc` covers every header field
//! *including* `payload_crc`, so a single bit flip anywhere in the file —
//! header metadata, either CRC, or payload — is always detected at load
//! time; the torn-write tests assert this exhaustively.
//!
//! Writes are atomic: the generation is written to a `.tmp-` file,
//! `fsync`ed, renamed into place, and the directory is synced. The
//! directory is the generation list: a crash at any point leaves either
//! the old state or the new state, and a half-written generation exists
//! only under its `.tmp-` name, which is never read as a generation.
//!
//! Loads walk generations newest → oldest and *skip* any generation that
//! is truncated, fails a CRC or does not decode, counting each skip as a
//! fallback — a torn newest generation degrades to the previous good one
//! instead of killing recovery.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ns_net::wire::crc32;
use ns_tensor::checkpoint::{self, CheckpointError};

use crate::recovery::Checkpoint;

/// Magic prefix of a generation file.
pub const STORE_MAGIC: &[u8; 8] = b"NTSSTORE";
/// On-disk schema version written by this build.
pub const SCHEMA_VERSION: u32 = 1;
/// Fixed size of the generation header, bytes.
pub const HEADER_BYTES: usize = 40;

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
    /// Wall time spent in `fsync` calls (file, directory).
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
        let mut store = Self {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
            next_gen: 0,
            injected_full: false,
            injected_hard: false,
            slow_factor: 1.0,
            squeezed: false,
        };
        let newest = store.generations()?.pop();
        store.next_gen = newest.and_then(|n| parse_gen_seq(&n)).map_or(0, |seq| seq + 1);
        Ok(store)
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
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
    /// retention depth. The payload and its CRC are the checkpoint's own;
    /// only the header is checksummed here. The write is atomic (temp
    /// file → fsync → rename → directory sync).
    pub fn save(&mut self, ckpt: &Checkpoint, world: usize) -> io::Result<SaveReceipt> {
        // Injected disk-full window: refuse the write with the same error
        // a real full filesystem produces, until the retention squeeze
        // frees space. Checked before any bytes are staged so a failed
        // save leaves the store exactly as it was.
        if self.injected_hard || (self.injected_full && !self.squeezed) {
            return Err(io::Error::from_raw_os_error(ENOSPC));
        }
        let payload = ckpt.payload();
        let flags = if checkpoint::has_adam(payload) { FLAG_HAS_OPT } else { 0 };
        let header = header(ckpt.next_epoch, world, flags, payload.len(), ckpt.crc());

        let name = gen_name(self.next_gen, ckpt.next_epoch);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!(".tmp-{name}"));
        // Snapshot the generation list before the rename so it cannot
        // count the new file twice.
        let mut gens = self.generations()?;
        let mut fsync_ns = 0u64;
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(&header)?;
            // The payload goes out in pool-advised slices, so a
            // memory-pressure window also bounds each write burst.
            let slice = ns_tensor::pool::advise_chunk(payload.len()).max(1);
            for chunk in payload.chunks(slice) {
                f.write_all(chunk)?;
            }
            fsync_ns += timed_sync(&f)?;
        }
        fs::rename(&tmp_path, &final_path)?;
        self.next_gen += 1;

        // Retention: keep the newest `keep` generations.
        gens.push(name);
        while gens.len() > self.keep {
            let evicted = gens.remove(0);
            // Best-effort: a missing file must not fail the save.
            let _ = fs::remove_file(self.dir.join(evicted));
        }
        fsync_ns += timed_sync(&File::open(&self.dir)?)?;

        // Injected slow disk: charge the extra fsync latency for real (so
        // the checkpoint spans see it), bounded so soaks stay quick.
        let mut slow_penalty_ns = 0;
        if self.slow_factor > 1.0 {
            slow_penalty_ns = (fsync_ns as f64 * (self.slow_factor - 1.0)) as u64;
            let nap = slow_penalty_ns.min(20_000_000); // ≤ 20 ms per save
            std::thread::sleep(std::time::Duration::from_nanos(nap));
        }

        Ok(SaveReceipt {
            path: final_path,
            bytes: (header.len() + payload.len()) as u64,
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
        gens.pop();
        for evicted in gens {
            let _ = fs::remove_file(self.dir.join(evicted));
        }
        Ok(())
    }

    /// Generation filenames, oldest first: the directory's `gen-*.ckpt`
    /// files, whose zero-padded sequence numbers sort by name. Anything
    /// else in the directory (`.tmp-` staging files, an older build's
    /// `MANIFEST`) is ignored.
    pub fn generations(&self) -> io::Result<Vec<String>> {
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

/// The generation header: every field, then the CRC32 of all of them.
fn header(epoch: usize, world: usize, flags: u32, payload_len: usize, payload_crc: u32) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(STORE_MAGIC);
    for field in [SCHEMA_VERSION, epoch as u32, world as u32, flags] {
        header.extend_from_slice(&field.to_le_bytes());
    }
    header.extend_from_slice(&(payload_len as u64).to_le_bytes());
    header.extend_from_slice(&payload_crc.to_le_bytes());
    let header_crc = crc32(&header);
    header.extend_from_slice(&header_crc.to_le_bytes());
    header
}

/// Reads and fully verifies one generation file: the header CRC, the
/// payload CRC, then one decode of the payload. Any truncation, CRC
/// failure, or structural damage surfaces as a typed [`CheckpointError`]
/// (a decode error's offset is into the payload); callers in the
/// fallback chain skip to the previous generation.
pub fn read_generation(path: &Path) -> Result<(Checkpoint, usize), CheckpointError> {
    let io_at = |offset: usize| move |e: io::Error| CheckpointError::Io {
        offset: offset as u64,
        kind: e.kind(),
    };
    let eof_at = |offset: usize| CheckpointError::Io {
        offset: offset as u64,
        kind: io::ErrorKind::UnexpectedEof,
    };
    let mut file = File::open(path).map_err(io_at(0))?;
    let mut header = Vec::with_capacity(HEADER_BYTES);
    (&mut file).take(HEADER_BYTES as u64).read_to_end(&mut header).map_err(io_at(0))?;
    if header.len() < HEADER_BYTES {
        return Err(eof_at(header.len()));
    }
    if &header[..8] != STORE_MAGIC {
        return Err(CheckpointError::Corrupt {
            offset: 0,
            what: "not a NeutronStar checkpoint store generation (bad magic)".into(),
        });
    }
    let field = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let (stored, computed) = (field(36), crc32(&header[..36]));
    if stored != computed {
        return Err(CheckpointError::CrcMismatch { offset: 0, expected: stored, computed });
    }
    let schema = field(8);
    if schema != SCHEMA_VERSION {
        return Err(CheckpointError::Corrupt {
            offset: 8,
            what: format!("unsupported store schema {schema}"),
        });
    }
    let (epoch, world, flags) = (field(12) as usize, field(16) as usize, field(20));
    let payload_len = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
    // The payload is read into its own buffer, which becomes the
    // checkpoint's: no copy after the CRCs pass.
    let mut payload = Vec::new();
    file.read_to_end(&mut payload).map_err(io_at(HEADER_BYTES))?;
    if (payload.len() as u64) < payload_len {
        return Err(eof_at(HEADER_BYTES + payload.len()));
    }
    if payload.len() as u64 > payload_len {
        return Err(CheckpointError::Corrupt {
            offset: 24,
            what: "trailing bytes after declared payload".into(),
        });
    }
    let (payload_crc, computed) = (field(32), crc32(&payload));
    if payload_crc != computed {
        return Err(CheckpointError::CrcMismatch {
            offset: HEADER_BYTES as u64,
            expected: payload_crc,
            computed,
        });
    }
    // Decode even though the CRCs passed: a writer bug or a hand-built
    // file must become a fallback, not a loader panic.
    let (_, opt) = checkpoint::load(&payload)?;
    if opt.is_some() != (flags & FLAG_HAS_OPT != 0) {
        return Err(CheckpointError::Corrupt {
            offset: 20,
            what: "flags disagree with the payload's Adam section".into(),
        });
    }
    Ok((Checkpoint::from_payload(epoch, payload, payload_crc), world))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_tensor::{AdamState, ParamStore, Tensor};
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

    fn assert_same_state(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.next_epoch, b.next_epoch);
        assert_eq!(a.payload(), b.payload());
        assert_eq!(a.crc(), b.crc());
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
        assert_same_state(&loaded, &ckpt4);
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
        // An empty store: nothing loaded, nothing skipped.
        let report = store.load_latest();
        assert!(report.checkpoint.is_none() && report.world.is_none());
        assert_eq!(report.fallbacks, 0);
        store.save(&Checkpoint::capture(2, &sample_store(), None), 3).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 3).unwrap();
        for name in store.generations().unwrap() {
            let path = scratch.0.join(name);
            let mut bytes = fs::read(&path).unwrap();
            bytes[HEADER_BYTES + 3] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
        }
        assert_eq!(store.generations().unwrap().len(), 2);
        let report = store.load_latest();
        assert!(report.checkpoint.is_none() && report.world.is_none());
        assert_eq!(report.fallbacks, 2);
    }

    /// The on-disk format is pinned: a generation of a fixed state has
    /// exactly this length and CRC32, with and without an Adam section.
    /// Anything that moves them is a format change and needs a new
    /// `SCHEMA_VERSION`.
    #[test]
    fn generation_bytes_are_pinned() {
        let scratch = Scratch::new("pinned");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        let pinned = [(Some(sample_opt()), 230, 0xf33b_d1e5), (None, 114, 0xf8ae_f156)];
        for (opt, len, crc) in pinned {
            let receipt = store.save(&Checkpoint::capture(3, &sample_store(), opt), 2).unwrap();
            let bytes = fs::read(&receipt.path).unwrap();
            assert_eq!((bytes.len(), crc32(&bytes)), (len, crc));
            assert_eq!(receipt.bytes, len as u64);
        }
    }

    /// Generations with valid CRCs whose Adam section lies — a count of
    /// `u32::MAX`, a 2³¹ × 2³¹ moment — are typed errors and fallbacks:
    /// trusting the count would abort on the allocation, trusting the
    /// shape would overflow.
    #[test]
    fn hostile_adam_section_is_a_fallback_not_a_crash() {
        let scratch = Scratch::new("hostile");
        let mut store = CheckpointStore::open(&scratch.0, 3).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), Some(sample_opt())), 2).unwrap();
        let params = Checkpoint::capture(0, &sample_store(), None).payload().to_vec();
        let lies = [vec![u32::MAX], vec![1, 1 << 31, 1 << 31]];
        for (seq, lie) in lies.iter().enumerate() {
            let mut payload = params.clone();
            payload.extend_from_slice(&11u64.to_le_bytes());
            for word in lie {
                payload.extend_from_slice(&word.to_le_bytes());
            }
            let mut file = header(4, 2, FLAG_HAS_OPT, payload.len(), crc32(&payload));
            file.extend_from_slice(&payload);
            let path = scratch.0.join(gen_name(10 + seq as u64, 4));
            fs::write(&path, &file).unwrap();
            let err = read_generation(&path).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Io { .. } | CheckpointError::Corrupt { .. }),
                "{err:?}"
            );
        }
        let report = store.load_latest();
        assert_eq!(report.fallbacks, 2);
        assert_eq!(report.checkpoint.unwrap().next_epoch, 2);
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

    /// Older builds kept a `MANIFEST` beside the generations, and its
    /// `.tmp-manifest` staging file after a crash; a store directory that
    /// still holds both loads and saves as if they were not there.
    #[test]
    fn an_older_builds_manifest_is_ignored() {
        let scratch = Scratch::new("oldmanifest");
        let mut store = CheckpointStore::open(&scratch.0, 2).unwrap();
        store.save(&Checkpoint::capture(2, &sample_store(), None), 2).unwrap();
        store.save(&Checkpoint::capture(4, &sample_store(), None), 2).unwrap();
        let gens = store.generations().unwrap();
        fs::write(scratch.0.join("MANIFEST"), format!("{}\n", gens[0])).unwrap();
        fs::write(scratch.0.join(".tmp-manifest"), "garbage\n").unwrap();
        let mut store = CheckpointStore::open(&scratch.0, 2).unwrap();
        let report = store.load_latest();
        assert_eq!(report.fallbacks, 0);
        assert_eq!(report.checkpoint.unwrap().next_epoch, 4);
        store.save(&Checkpoint::capture(6, &sample_store(), None), 2).unwrap();
        assert_eq!(store.generations().unwrap(), vec![gens[1].clone(), gen_name(2, 6)]);
        assert_eq!(store.load_latest().checkpoint.unwrap().next_epoch, 6);
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
        // Sticky: the squeezed store keeps one generation, and a new
        // disk-full window finds the space its squeeze freed.
        store.set_disk_fate(true, 1.0);
        let out = store.save_degrading(&Checkpoint::capture(5, &sample_store(), None), 2)
            .unwrap();
        assert_eq!((out.enospc_hits, out.squeezed), (0, false));
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
