//! Lock-free parallel message enqueuing (§4.3).
//!
//! NeutronStar observes that GNN messages have a *regular* pattern: within
//! one layer's send task, the set of rows destined to each worker — and
//! therefore each row's position in the outgoing buffer — is known before
//! any thread starts writing. It therefore pre-computes a write-position
//! index and lets every producer thread write its rows at their final
//! offsets without synchronization, eliminating the mutex that
//! conventional message queues serialize on. Here that index is a set of
//! disjoint `&mut` windows, so the write path needs no claim flag, no
//! lock and no raw pointer.

/// One layer-send's worth of per-destination outgoing buffers, filled by
/// the compute thread pool with no mutex on the write path (§4.3, the
/// "lock-free parallel message enqueuing" of Fig. 8).
///
/// The regular message pattern makes every row's final position known
/// before any thread writes: destination `d`'s slot `s` holds the row for
/// `rows_per_dst[d][s]`. [`ParallelEnqueue::fill`] flattens all
/// destinations' slots into one index space, cuts it into contiguous
/// *slot ranges* and hands each range — its rows' ids and their `&mut`
/// windows, possibly spanning several destinations — to whichever thread
/// claims it off the pool's atomic chunk cursor. Flushing happens
/// afterwards in whatever ring order the fabric wants via
/// [`ParallelEnqueue::take`].
pub struct ParallelEnqueue {
    cols: usize,
    /// Slots (rows) per destination.
    slots: Vec<usize>,
    /// Destination `d`'s row-major buffer, `slots[d] x cols`.
    bufs: Vec<Vec<f32>>,
    filled: bool,
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
    ///
    /// # Panics
    /// Panics if `alloc` returns a buffer of the wrong length.
    pub fn new_with(
        cols: usize,
        slots_per_dst: &[usize],
        mut alloc: impl FnMut(usize) -> Vec<f32>,
    ) -> Self {
        let bufs = slots_per_dst
            .iter()
            .map(|&s| {
                let buf = alloc(s * cols);
                assert_eq!(buf.len(), s * cols, "storage length mismatch");
                buf
            })
            .collect();
        Self {
            cols,
            slots: slots_per_dst.to_vec(),
            bufs,
            filled: false,
        }
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
    pub fn fill(&mut self, src: &[f32], rows_per_dst: &[&[u32]]) {
        assert_eq!(rows_per_dst.len(), self.bufs.len(), "destination count");
        for (d, ids) in rows_per_dst.iter().enumerate() {
            assert_eq!(ids.len(), self.slots[d], "slot count for dest {d}");
        }
        let cols = self.cols;
        assert_eq!(src.len() % cols.max(1), 0, "src not row-major x cols");
        self.filled = true;
        let total: usize = self.slots.iter().sum();
        if total == 0 || cols == 0 {
            return;
        }
        // Small sends take one chunk (inline, no dispatch); large ones
        // split into a few ranges per thread for stealing.
        let chunk = if total * cols < 1 << 14 {
            total
        } else {
            ns_par::chunk_len(total, ns_par::threads())
        };
        // Range `c` covers global slots `c * chunk..(c + 1) * chunk`: cut
        // each destination's ids and buffer where a range boundary falls.
        let mut ranges: Vec<Vec<(&[u32], &mut [f32])>> =
            (0..total.div_ceil(chunk)).map(|_| Vec::new()).collect();
        let mut g = 0;
        for (&ids, buf) in rows_per_dst.iter().zip(&mut self.bufs) {
            let (mut ids, mut window) = (ids, &mut buf[..]);
            while !ids.is_empty() {
                let n = (chunk - g % chunk).min(ids.len());
                let (head, rest) = std::mem::take(&mut window).split_at_mut(n * cols);
                ranges[g / chunk].push((&ids[..n], head));
                (ids, window) = (&ids[n..], rest);
                g += n;
            }
        }
        ns_par::par_chunks(&mut ranges, 1, |_, range| {
            for (ids, window) in range[0].iter_mut() {
                for (&r, row) in ids.iter().zip(window.chunks_exact_mut(cols)) {
                    let r = r as usize;
                    row.copy_from_slice(&src[r * cols..(r + 1) * cols]);
                }
            }
        });
    }

    /// Takes destination `d`'s filled rows (row-major), leaving an empty
    /// buffer behind. Called by the fabric in ring order after
    /// [`Self::fill`] completes.
    ///
    /// # Panics
    /// Panics if `d` has slots and [`Self::fill`] never ran.
    pub fn take(&mut self, d: usize) -> Vec<f32> {
        assert!(
            self.filled || self.slots[d] == 0,
            "dest {d} taken before fill: unwritten slots"
        );
        std::mem::take(&mut self.bufs[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut enq = ParallelEnqueue::new(1, &[2, 2]);
        enq.fill(&[1.0, 2.0], &[&[0, 1], &[0]]);
    }
}
