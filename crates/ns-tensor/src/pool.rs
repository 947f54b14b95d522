//! Global tensor-buffer pool: the allocation backbone of the zero-alloc
//! steady state (DESIGN.md §14) and the enforcement point of the
//! process memory budget.
//!
//! GNN training is *shape-stationary*: after the first epoch, every
//! tensor the forward/backward/optimizer path materializes has a shape
//! that was already materialized in the previous epoch. This pool turns
//! that property into an allocation discipline — every [`crate::Tensor`]
//! buffer is taken from an exact-length free list and returned to it on
//! drop, so steady-state epochs recycle the previous epoch's buffers
//! instead of touching the system allocator.
//!
//! Design points:
//!
//! * **Global, not thread-local.** Worker threads exchange tensors (a
//!   gradient allocated on worker 1's thread is dropped on worker 0's),
//!   so per-thread pools would leak buffers from producers and miss on
//!   consumers forever. One process-wide mutex is cheap here: takes and
//!   recycles are O(epoch tensor count), not O(element), and the lock
//!   guards a couple of `Vec` pops.
//! * **Exact-length buckets.** Shapes are stationary, so first-fit or
//!   size-class schemes would only add fragmentation. A buffer is reused
//!   only for a request of exactly its length.
//! * **Enforced budget.** `NS_POOL_BYTES` (default 256 MiB) is a budget
//!   on the pool's total footprint — bytes checked out and alive
//!   (`in_use`) plus bytes parked in free lists (`resident`). When the
//!   footprint crosses the budget, parked buffers are shed back to the
//!   allocator before anything new is handed out, and recycles that
//!   would overshoot release to the allocator instead of parking. The
//!   budget can be shrunk mid-run ([`set_cap_bytes`]) — the
//!   memory-pressure fault does exactly that — and the high-water mark
//!   since the budget was last armed is tracked (`alloc.peak_bytes`).
//!   A malformed `NS_POOL_BYTES` value panics with the offending text
//!   rather than being silently swallowed into the default.
//! * **A per-bucket count cap** keeps one hot size class from squeezing
//!   out the rest.
//! * **Counted.** `fresh` / `reused` / `recycled` / `dropped` / `shed`
//!   counters feed the `alloc.*` meters (docs/OBSERVABILITY.md) and the
//!   steady-state allocation test: an epoch that allocates nothing new
//!   shows a zero `fresh` delta.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default budget on the pool's footprint (in-use + parked bytes).
const DEFAULT_CAP_BYTES: usize = 256 << 20;

/// Max buffers parked per exact-length bucket.
const BUCKET_CAP: usize = 64;

/// Buffers this small bypass the pool: the allocator's thread-local fast
/// path beats a process-wide mutex for them, and they are too small to
/// matter for steady-state residency. (16 f32 = one cache line.)
const MIN_POOLED_LEN: usize = 16;

/// Cumulative pool activity since process start (monotonic counters
/// except the residency gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Pool-managed buffers allocated fresh (bucket miss). Sub-cache-line
    /// requests are metered in `bypass`, not here, so a zero `fresh` delta
    /// means "no new *tensor-sized* buffer touched the allocator".
    pub fresh: u64,
    /// Requests served straight from the allocator and never parked:
    /// those below `MIN_POOLED_LEN` and every take of an unpooled thread.
    pub bypass: u64,
    /// Buffers served from a free list.
    pub reused: u64,
    /// Buffers returned to a free list on drop.
    pub recycled: u64,
    /// Buffers released to the allocator instead (budget or bucket full).
    pub dropped: u64,
    /// Parked buffers evicted to the allocator by budget pressure.
    pub shed: u64,
    /// Bytes evicted by budget pressure.
    pub shed_bytes: u64,
    /// Bytes allocated fresh.
    pub fresh_bytes: u64,
    /// Bytes currently parked in free lists.
    pub resident_bytes: u64,
    /// Bytes currently checked out and alive (taken, not yet recycled).
    pub in_use_bytes: u64,
    /// High-water mark of `in_use + resident` since the budget was last
    /// armed ([`set_cap_bytes`] re-arms; process start arms with the
    /// `NS_POOL_BYTES` budget).
    pub peak_bytes: u64,
    /// The enforced footprint budget.
    pub cap_bytes: u64,
}

static FRESH: AtomicU64 = AtomicU64::new(0);
static BYPASS: AtomicU64 = AtomicU64::new(0);
static REUSED: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SHED: AtomicU64 = AtomicU64::new(0);
static SHED_BYTES: AtomicU64 = AtomicU64::new(0);
static FRESH_BYTES: AtomicU64 = AtomicU64::new(0);
thread_local!(static UNPOOLED: Cell<bool> = const { Cell::new(false) });

struct Buckets {
    map: HashMap<usize, Vec<Vec<f32>>>,
    resident_bytes: usize,
    in_use_bytes: usize,
    peak_bytes: usize,
    cap_bytes: usize,
}

impl Buckets {
    fn footprint(&self) -> usize {
        self.in_use_bytes + self.resident_bytes
    }

    /// Evicts parked buffers until the footprint fits the budget (or
    /// nothing is parked). Empty buckets are pruned so the map cannot
    /// grow without bound across length classes.
    fn shed_to_budget(&mut self) {
        while self.footprint() > self.cap_bytes && self.resident_bytes > 0 {
            let Some((&len, _)) = self.map.iter().find(|(_, v)| !v.is_empty()) else {
                break;
            };
            let bucket = self.map.get_mut(&len).expect("bucket just found");
            bucket.pop();
            let emptied = bucket.is_empty();
            self.resident_bytes = self.resident_bytes.saturating_sub(len * 4);
            SHED.fetch_add(1, Ordering::Relaxed);
            SHED_BYTES.fetch_add((len * 4) as u64, Ordering::Relaxed);
            // Empty buckets are pruned so the map cannot grow without
            // bound across length classes.
            if emptied {
                self.map.remove(&len);
            }
        }
    }

    fn note_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.footprint());
    }
}

/// Parses an `NS_POOL_BYTES` setting: a plain byte count. `None` (unset)
/// selects the 256 MiB default; anything that is not a base-10 byte
/// count is an error carrying the offending text.
fn parse_cap(raw: Option<&str>) -> Result<usize, String> {
    match raw {
        None => Ok(DEFAULT_CAP_BYTES),
        Some(v) => v.trim().parse::<usize>().map_err(|_| {
            format!(
                "NS_POOL_BYTES must be a byte count (e.g. 268435456), got {v:?}"
            )
        }),
    }
}

fn pool() -> &'static Mutex<Buckets> {
    static POOL: OnceLock<Mutex<Buckets>> = OnceLock::new();
    POOL.get_or_init(|| {
        let raw = std::env::var("NS_POOL_BYTES").ok();
        // A malformed budget must never be silently replaced by the
        // default: the operator asked for a cap and did not get it.
        let cap_bytes = parse_cap(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        Mutex::new(Buckets {
            map: HashMap::new(),
            resident_bytes: 0,
            in_use_bytes: 0,
            peak_bytes: 0,
            cap_bytes,
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, Buckets> {
    pool().lock().unwrap_or_else(|e| e.into_inner())
}

/// Takes the calling thread out of the pool for the rest of its life: its
/// takes allocate fresh (metered in `bypass`) and its recycles free, never
/// entering `in_use` or `resident`. For short-lived threads whose lengths
/// never repeat, like serving shards, whose per-batch matrices the buckets
/// would park one apiece. A buffer must die on the kind of thread that took
/// it; shards hand none across (replies are `Vec<u32>`, rows `Vec<f32>`).
pub fn unpool_this_thread() {
    UNPOOLED.with(|u| u.set(true));
}

/// Takes a length-`len` buffer with **unspecified (stale) contents**.
///
/// The buffer is always fully initialized memory — either zeros from a
/// fresh allocation or whatever the previous owner wrote — so reading it
/// is safe but meaningless. Callers must overwrite every element before
/// the buffer escapes.
pub fn take_scratch(len: usize) -> Vec<f32> {
    if len < MIN_POOLED_LEN || UNPOOLED.with(Cell::get) {
        BYPASS.fetch_add(1, Ordering::Relaxed);
        return vec![0.0; len];
    }
    {
        let mut g = lock();
        g.in_use_bytes += len * 4;
        if g.footprint() > g.cap_bytes {
            g.shed_to_budget();
        }
        g.note_peak();
        if let Some(buf) = g.map.get_mut(&len).and_then(Vec::pop) {
            g.resident_bytes = g.resident_bytes.saturating_sub(len * 4);
            drop(g);
            REUSED.fetch_add(1, Ordering::Relaxed);
            debug_assert_eq!(buf.len(), len);
            return buf;
        }
    }
    FRESH.fetch_add(1, Ordering::Relaxed);
    FRESH_BYTES.fetch_add((len * 4) as u64, Ordering::Relaxed);
    vec![0.0; len]
}

/// Takes a length-`len` buffer filled with `+0.0`.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take_scratch(len);
    buf.fill(0.0);
    buf
}

/// Returns a buffer to its exact-length free list (or to the allocator
/// when parking it would overshoot the budget). Called by `Tensor`'s
/// `Drop`.
pub fn recycle(buf: Vec<f32>) {
    let len = buf.len();
    if len < MIN_POOLED_LEN || UNPOOLED.with(Cell::get) {
        return; // freed here; the take was metered as a bypass
    }
    let mut g = lock();
    g.in_use_bytes = g.in_use_bytes.saturating_sub(len * 4);
    // Park only when the buffer's bytes still fit the budget — the
    // buffer is alive either way until this call returns, but dropping
    // it actually gives the bytes back.
    if g.in_use_bytes + g.resident_bytes + len * 4 > g.cap_bytes {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let bucket = g.map.entry(len).or_default();
    if bucket.len() >= BUCKET_CAP {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    bucket.push(buf);
    g.resident_bytes += len * 4;
    RECYCLED.fetch_add(1, Ordering::Relaxed);
}

/// Re-arms the footprint budget at `cap_bytes`: parked buffers over the
/// new budget are shed immediately, and the `peak_bytes` high-water mark
/// restarts from the current footprint. The memory-pressure fault calls
/// this at its window edges; pass [`default_cap_bytes`]'s value to
/// restore the configured budget.
pub fn set_cap_bytes(cap_bytes: usize) {
    let mut g = lock();
    g.cap_bytes = cap_bytes.max(1);
    g.shed_to_budget();
    g.peak_bytes = g.footprint();
}

/// The budget `NS_POOL_BYTES` configured at process start (the value
/// [`set_cap_bytes`] callers restore after a pressure window heals).
pub fn default_cap_bytes() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let raw = std::env::var("NS_POOL_BYTES").ok();
        parse_cap(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// True when the bytes the pool cannot give back — buffers checked out
/// and alive — are within 25% of the budget: the signal the checkpoint
/// store uses to shrink its write bursts and the serve cache uses to shed
/// rows, trading speed for staying under the cap. Parked buffers do not
/// count: they are the pool's own slack, shed first whenever a take
/// crosses the budget.
pub fn under_pressure() -> bool {
    let g = lock();
    g.in_use_bytes * 4 >= g.cap_bytes * 3
}

/// Advises a scratch length for divisible work (all-reduce chunking):
/// `want` when the pool has headroom, a quarter of it (floored at one
/// cache line) when live buffers are pressing the budget. More, smaller
/// chunks keep the transfer correct while shrinking the concurrent
/// scratch footprint.
pub fn advise_chunk(want: usize) -> usize {
    if under_pressure() {
        (want / 4).max(MIN_POOLED_LEN)
    } else {
        want
    }
}

/// Snapshot of the cumulative counters (monotonic except the residency
/// gauges). Meters and the steady-state allocation test read deltas
/// between snapshots.
pub fn stats() -> PoolStats {
    let g = lock();
    PoolStats {
        fresh: FRESH.load(Ordering::Relaxed),
        bypass: BYPASS.load(Ordering::Relaxed),
        reused: REUSED.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        shed: SHED.load(Ordering::Relaxed),
        shed_bytes: SHED_BYTES.load(Ordering::Relaxed),
        fresh_bytes: FRESH_BYTES.load(Ordering::Relaxed),
        resident_bytes: g.resident_bytes as u64,
        in_use_bytes: g.in_use_bytes as u64,
        peak_bytes: g.peak_bytes as u64,
        cap_bytes: g.cap_bytes as u64,
    }
}

/// Releases every parked buffer to the allocator (counters keep their
/// values). Mainly for memory-pressure tests.
pub fn clear() {
    let mut g = lock();
    g.map.clear();
    g.resident_bytes = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pool state is process-global, so these assertions use deltas and
    // unique lengths to stay independent of other tests.

    #[test]
    fn recycled_buffer_is_reused_for_same_length() {
        let len = 4093; // prime, unlikely to collide with other tests
        let before = stats();
        let a = take_scratch(len);
        let ptr = a.as_ptr();
        recycle(a);
        let b = take_scratch(len);
        assert_eq!(b.as_ptr(), ptr, "same buffer must come back");
        let after = stats();
        assert_eq!(after.fresh - before.fresh, 1);
        assert!(after.reused > before.reused);
        recycle(b);
    }

    #[test]
    fn different_length_misses_the_bucket() {
        let a = take_scratch(2039);
        recycle(a);
        let before = stats();
        let b = take_scratch(2040);
        let after = stats();
        assert_eq!(after.fresh - before.fresh, 1, "length mismatch must miss");
        recycle(b);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let len = 3001;
        let mut a = take_scratch(len);
        a.fill(7.5);
        recycle(a);
        let b = take_zeroed(len);
        assert!(b.iter().all(|&v| v == 0.0));
        recycle(b);
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let before = stats();
        let a = take_scratch(MIN_POOLED_LEN - 1);
        recycle(a);
        let after = stats();
        assert_eq!(after.recycled, before.recycled, "tiny buffers are not parked");
        assert_eq!(after.fresh, before.fresh, "bypass takes are not fresh");
        assert_eq!(after.bypass - before.bypass, 1, "bypass takes are metered");
    }

    #[test]
    fn an_unpooled_threads_buffers_never_reach_the_pool() {
        let len = 6007; // prime, used by no other test
        let before = stats();
        std::thread::spawn(move || {
            unpool_this_thread();
            recycle(take_scratch(len));
        })
        .join()
        .unwrap();
        let mid = stats();
        assert!(mid.bypass > before.bypass, "an unpooled take is metered as a bypass");
        assert!(lock().map.get(&len).is_none_or(Vec::is_empty), "its recycle parked nothing");
        let b = take_scratch(len);
        assert!(stats().fresh > mid.fresh, "a pooled take of that length must miss");
        recycle(b);
    }

    #[test]
    fn in_use_and_peak_track_checkouts() {
        let len = 5003;
        let before = stats();
        let a = take_scratch(len);
        let held = stats();
        assert!(
            held.in_use_bytes >= before.in_use_bytes + (len * 4) as u64,
            "take must appear in in_use_bytes"
        );
        assert!(
            held.peak_bytes >= before.in_use_bytes + (len * 4) as u64,
            "peak must cover the checkout"
        );
        recycle(a);
        let after = stats();
        assert!(
            after.in_use_bytes <= held.in_use_bytes - (len * 4) as u64,
            "recycle must return the bytes"
        );
    }

    #[test]
    fn cap_env_parse_accepts_byte_counts_and_default() {
        assert_eq!(parse_cap(None).unwrap(), DEFAULT_CAP_BYTES);
        assert_eq!(parse_cap(Some("1048576")).unwrap(), 1 << 20);
        assert_eq!(parse_cap(Some(" 4096 ")).unwrap(), 4096, "whitespace tolerated");
    }

    #[test]
    fn cap_env_parse_rejects_malformed_values_loudly() {
        for bad in ["256MiB", "lots", "-1", "1e9", ""] {
            let err = parse_cap(Some(bad)).unwrap_err();
            assert!(err.contains("NS_POOL_BYTES"), "{err}");
            assert!(err.contains(bad), "error must carry the bad value: {err}");
        }
    }
}
