//! Lock-free parallel message enqueuing (§4.3).
//!
//! NeutronStar observes that GNN messages have a *regular* pattern: within
//! one layer's send task, the set of rows destined to each worker — and
//! therefore each row's position in the outgoing buffer — is known before
//! any thread starts writing. It therefore pre-computes a write-position
//! index and lets every producer thread write its rows at their final
//! offsets without synchronization, eliminating the mutex that
//! conventional message queues serialize on.
//!
//! [`LockFreeChunkBuffer`] implements that scheme (with a per-slot claim
//! flag so double writes are a detected bug rather than UB), and
//! [`MutexChunkBuffer`] is the conventional lock-guarded design used as
//! the ablation baseline ("L" in Fig. 9).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Fixed-size row buffer with pre-assigned slots and lock-free writes.
pub struct LockFreeChunkBuffer {
    cols: usize,
    slots: usize,
    data: UnsafeCell<Vec<f32>>,
    claimed: Box<[AtomicBool]>,
}

// SAFETY: concurrent `write_row` calls touch disjoint `data` ranges, which
// is enforced at runtime by the `claimed` CAS (a second write to the same
// slot panics before touching `data`).
unsafe impl Sync for LockFreeChunkBuffer {}

impl LockFreeChunkBuffer {
    /// A buffer with `slots` rows of width `cols`.
    pub fn new(slots: usize, cols: usize) -> Self {
        Self::with_storage(slots, cols, vec![0.0; slots * cols])
    }

    /// A buffer backed by caller-provided `storage` (length must be
    /// `slots * cols`; contents may be stale — every slot is overwritten
    /// before [`Self::into_rows`] will release the buffer). Lets callers
    /// recycle message buffers through their own pool instead of
    /// allocating per send task.
    ///
    /// # Panics
    /// Panics if `storage.len() != slots * cols`.
    pub fn with_storage(slots: usize, cols: usize, storage: Vec<f32>) -> Self {
        assert_eq!(storage.len(), slots * cols, "storage length mismatch");
        Self {
            cols,
            slots,
            data: UnsafeCell::new(storage),
            claimed: (0..slots).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Writes `row` into `slot`. Callable concurrently from many threads;
    /// each slot may be written exactly once.
    ///
    /// # Panics
    /// Panics if `slot` is out of range, `row` has the wrong width, or the
    /// slot was already written.
    pub fn write_row(&self, slot: usize, row: &[f32]) {
        assert!(slot < self.slots, "slot {slot} out of range {}", self.slots);
        assert_eq!(row.len(), self.cols, "row width mismatch");
        let was = self.claimed[slot].swap(true, Ordering::AcqRel);
        assert!(!was, "slot {slot} written twice");
        // SAFETY: the CAS above guarantees exclusive access to this range.
        unsafe {
            let base = (*self.data.get()).as_mut_ptr().add(slot * self.cols);
            std::ptr::copy_nonoverlapping(row.as_ptr(), base, self.cols);
        }
    }

    /// True when every slot has been written.
    pub fn is_complete(&self) -> bool {
        self.claimed.iter().all(|c| c.load(Ordering::Acquire))
    }

    /// Consumes the buffer into its row-major contents.
    ///
    /// # Panics
    /// Panics if any slot was never written (a missing message is a bug).
    pub fn into_rows(self) -> Vec<f32> {
        assert!(self.is_complete(), "buffer finalized with unwritten slots");
        self.data.into_inner()
    }
}

/// One layer-send's worth of per-destination outgoing buffers, filled by
/// the compute thread pool with no mutex on the write path (§4.3, the
/// "lock-free parallel message enqueuing" of Fig. 8).
///
/// The regular message pattern makes every row's final position known
/// before any thread writes: destination `d`'s slot `s` holds the row for
/// `rows_per_dst[d][s]`. [`ParallelEnqueue::fill`] flattens all
/// destinations' slots into one index space and hands out contiguous
/// *slot ranges* via the pool's atomic chunk cursor — claiming a range is
/// a single `fetch_add`, and each slot's claim flag then only guards
/// against double writes (a bug detector, not a lock). Flushing happens
/// afterwards in whatever ring order the fabric wants via
/// [`ParallelEnqueue::take`].
pub struct ParallelEnqueue {
    cols: usize,
    /// Flattened slot-space offsets: destination `d` owns global slots
    /// `starts[d]..starts[d + 1]`.
    starts: Vec<usize>,
    bufs: Vec<LockFreeChunkBuffer>,
}

impl ParallelEnqueue {
    /// Buffers for one send task: `slots_per_dst[d]` rows of width `cols`
    /// will go to destination `d`.
    pub fn new(cols: usize, slots_per_dst: &[usize]) -> Self {
        Self::new_with(cols, slots_per_dst, |len| vec![0.0; len])
    }

    /// [`Self::new`] with caller-controlled storage: `alloc(len)` supplies
    /// each destination's backing buffer (exactly `len` elements, stale
    /// contents allowed — every slot is written before the buffer leaves
    /// via [`Self::take`]). This is how the runtime routes the per-epoch
    /// message staging buffers through its tensor pool instead of the
    /// system allocator.
    pub fn new_with(
        cols: usize,
        slots_per_dst: &[usize],
        mut alloc: impl FnMut(usize) -> Vec<f32>,
    ) -> Self {
        let mut starts = Vec::with_capacity(slots_per_dst.len() + 1);
        starts.push(0usize);
        for &s in slots_per_dst {
            starts.push(starts.last().unwrap() + s);
        }
        Self {
            cols,
            starts,
            bufs: slots_per_dst
                .iter()
                .map(|&s| LockFreeChunkBuffer::with_storage(s, cols, alloc(s * cols)))
                .collect(),
        }
    }

    /// Number of destinations.
    pub fn dests(&self) -> usize {
        self.bufs.len()
    }

    /// Total slots across all destinations.
    pub fn total_slots(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Gathers `src` rows (an `n x cols` row-major matrix) into every
    /// destination buffer concurrently: slot `s` of destination `d`
    /// receives row `rows_per_dst[d][s]`. One parallel job covers the
    /// whole flattened slot space, so a fast thread steals slot ranges
    /// from slow ones regardless of which destination they belong to.
    ///
    /// # Panics
    /// Panics if `src` is not `n x cols`, a row index is out of range, or
    /// `rows_per_dst` does not match the constructor's slot counts.
    pub fn fill(&self, src: &[f32], rows_per_dst: &[&[u32]]) {
        assert_eq!(rows_per_dst.len(), self.bufs.len(), "destination count");
        for (d, ids) in rows_per_dst.iter().enumerate() {
            assert_eq!(ids.len(), self.bufs[d].slots(), "slot count for dest {d}");
        }
        assert_eq!(src.len() % self.cols.max(1), 0, "src not row-major x cols");
        let cols = self.cols;
        let total = self.total_slots();
        if total == 0 {
            return;
        }
        // Small sends take one chunk (inline, no dispatch); large ones
        // split into a few ranges per thread for stealing.
        let chunk = if total * cols < 1 << 14 {
            total
        } else {
            ns_par::chunk_len(total, ns_par::threads())
        };
        ns_par::par_ranges(total, chunk, |lo, hi| {
            // First destination whose slot range intersects [lo, hi).
            let mut d = match self.starts.binary_search(&lo) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            let mut g = lo;
            while g < hi {
                let ids = rows_per_dst[d];
                let local_end = (hi - self.starts[d]).min(ids.len());
                for s in (g - self.starts[d])..local_end {
                    let r = ids[s] as usize;
                    self.bufs[d].write_row(s, &src[r * cols..(r + 1) * cols]);
                }
                g = self.starts[d] + local_end;
                d += 1;
            }
        });
    }

    /// Takes destination `d`'s filled rows (row-major), leaving an empty
    /// buffer behind. Called by the fabric in ring order after
    /// [`Self::fill`] completes.
    ///
    /// # Panics
    /// Panics if any of `d`'s slots was never written.
    pub fn take(&mut self, d: usize) -> Vec<f32> {
        std::mem::replace(&mut self.bufs[d], LockFreeChunkBuffer::new(0, self.cols)).into_rows()
    }
}

/// The conventional mutex-guarded buffer, same interface (used by the "no
/// lock-free queuing" ablation and as the reference for equivalence
/// tests).
pub struct MutexChunkBuffer {
    cols: usize,
    slots: usize,
    inner: Mutex<BufferState>,
}

/// Row storage plus per-slot written flags, guarded together.
type BufferState = (Box<[f32]>, Box<[bool]>);

impl MutexChunkBuffer {
    /// A buffer with `slots` rows of width `cols`.
    pub fn new(slots: usize, cols: usize) -> Self {
        Self {
            cols,
            slots,
            inner: Mutex::new((
                vec![0.0; slots * cols].into_boxed_slice(),
                vec![false; slots].into_boxed_slice(),
            )),
        }
    }

    /// Writes `row` into `slot` under the lock.
    pub fn write_row(&self, slot: usize, row: &[f32]) {
        assert!(slot < self.slots, "slot {slot} out of range {}", self.slots);
        assert_eq!(row.len(), self.cols, "row width mismatch");
        // A writer that panicked on a double write poisons the lock, but
        // it panicked before touching the state, so the guard is still good.
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let (data, claimed) = &mut *guard;
        assert!(!claimed[slot], "slot {slot} written twice");
        claimed[slot] = true;
        data[slot * self.cols..(slot + 1) * self.cols].copy_from_slice(row);
    }

    /// Consumes the buffer into its row-major contents.
    pub fn into_rows(self) -> Vec<f32> {
        let (data, claimed) = self.inner.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert!(
            claimed.iter().all(|&c| c),
            "buffer finalized with unwritten slots"
        );
        data.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_roundtrip() {
        let buf = LockFreeChunkBuffer::new(3, 2);
        buf.write_row(1, &[3.0, 4.0]);
        buf.write_row(0, &[1.0, 2.0]);
        buf.write_row(2, &[5.0, 6.0]);
        assert!(buf.is_complete());
        assert_eq!(buf.into_rows(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_detected() {
        let buf = LockFreeChunkBuffer::new(2, 1);
        buf.write_row(0, &[1.0]);
        buf.write_row(0, &[2.0]);
    }

    #[test]
    #[should_panic(expected = "unwritten slots")]
    fn incomplete_finalize_detected() {
        let buf = LockFreeChunkBuffer::new(2, 1);
        buf.write_row(0, &[1.0]);
        let _ = buf.into_rows();
    }

    #[test]
    fn concurrent_writers_fill_disjoint_slots() {
        let slots = 1024;
        let cols = 8;
        let buf = LockFreeChunkBuffer::new(slots, cols);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let buf = &buf;
                s.spawn(move || {
                    for slot in (t..slots).step_by(8) {
                        let row: Vec<f32> = (0..cols).map(|c| (slot * cols + c) as f32).collect();
                        buf.write_row(slot, &row);
                    }
                });
            }
        });
        let rows = buf.into_rows();
        for (i, v) in rows.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn lockfree_equals_mutex_under_concurrency() {
        let slots = 512;
        let cols = 4;
        let lf = LockFreeChunkBuffer::new(slots, cols);
        let mx = MutexChunkBuffer::new(slots, cols);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (lf, mx) = (&lf, &mx);
                s.spawn(move || {
                    for slot in (t..slots).step_by(4) {
                        let row: Vec<f32> = (0..cols).map(|c| (slot + c) as f32).collect();
                        lf.write_row(slot, &row);
                        mx.write_row(slot, &row);
                    }
                });
            }
        });
        assert_eq!(lf.into_rows(), mx.into_rows());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_rejected() {
        LockFreeChunkBuffer::new(1, 1).write_row(1, &[0.0]);
    }

    /// Sequential reference for `ParallelEnqueue::fill`: per destination,
    /// gather the listed rows in order.
    fn gather_ref(src: &[f32], cols: usize, ids: &[u32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(ids.len() * cols);
        for &r in ids {
            out.extend_from_slice(&src[r as usize * cols..(r as usize + 1) * cols]);
        }
        out
    }

    #[test]
    fn parallel_enqueue_matches_sequential_gather() {
        let cols = 3;
        let n = 50;
        let src: Vec<f32> = (0..n * cols).map(|i| i as f32).collect();
        let dests: Vec<Vec<u32>> = vec![
            (0..40u32).collect(),
            vec![],
            (5..45u32).rev().collect(),
            vec![7, 7, 7, 0, 49],
        ];
        let slot_counts: Vec<usize> = dests.iter().map(Vec::len).collect();
        for threads in [1, 4] {
            ns_par::set_threads(threads);
            let mut enq = ParallelEnqueue::new(cols, &slot_counts);
            assert_eq!(enq.dests(), 4);
            let views: Vec<&[u32]> = dests.iter().map(Vec::as_slice).collect();
            enq.fill(&src, &views);
            for (d, ids) in dests.iter().enumerate() {
                assert_eq!(enq.take(d), gather_ref(&src, cols, ids), "dest {d}");
            }
        }
        ns_par::set_threads(1);
    }

    #[test]
    fn parallel_enqueue_large_send_crosses_chunk_boundaries() {
        // Big enough that fill() splits into many slot ranges spanning
        // several destinations; every row must still land exactly once.
        ns_par::set_threads(4);
        let cols = 16;
        let n = 4096;
        let src: Vec<f32> = (0..n * cols).map(|i| (i % 977) as f32).collect();
        let dests: Vec<Vec<u32>> = (0..5usize)
            .map(|d| ((d as u32 * 7) % 13..n as u32).step_by(d + 1).collect())
            .collect();
        let slot_counts: Vec<usize> = dests.iter().map(Vec::len).collect();
        let mut enq = ParallelEnqueue::new(cols, &slot_counts);
        let views: Vec<&[u32]> = dests.iter().map(Vec::as_slice).collect();
        enq.fill(&src, &views);
        for (d, ids) in dests.iter().enumerate() {
            assert_eq!(enq.take(d), gather_ref(&src, cols, ids), "dest {d}");
        }
        ns_par::set_threads(1);
    }

    #[test]
    #[should_panic(expected = "unwritten slots")]
    fn parallel_enqueue_take_before_fill_detected() {
        let mut enq = ParallelEnqueue::new(2, &[3]);
        let _ = enq.take(0);
    }

    #[test]
    #[should_panic(expected = "slot count")]
    fn parallel_enqueue_rejects_mismatched_row_lists() {
        let enq = ParallelEnqueue::new(1, &[2, 2]);
        enq.fill(&[1.0, 2.0], &[&[0, 1], &[0]]);
    }
}
