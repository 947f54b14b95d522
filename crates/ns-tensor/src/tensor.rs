//! The dense 2-D tensor type and its eager (non-autograd) kernels.
//!
//! The heavy kernels (matmuls, gather/scatter, CSR aggregation) are
//! row-blocked through [`ns_par`]: the output buffer is split into
//! disjoint row ranges and each range runs the *same* per-row loop the
//! sequential path uses, so results are bit-identical at any thread
//! count (see `DESIGN.md` §11).

/// Minimum estimated element-work before a kernel fans out to the
/// thread pool; below this, dispatch overhead dominates.
const PAR_MIN_WORK: usize = 1 << 15;

/// Runs `kernel(row_lo, rows)` over disjoint row blocks of `out` (an
/// `n_rows x row_width` row-major buffer). Fans out to [`ns_par`] when
/// `n_rows * work_per_row` clears [`PAR_MIN_WORK`], more than one thread
/// is configured and every thread can get a block of `min_rows` rows;
/// blocks are then whole multiples of `min_rows`. Otherwise runs the
/// kernel once over the whole buffer. Either way every row is visited
/// exactly once by exactly one invocation, which is what keeps results
/// bit-identical.
fn par_rows(
    out: &mut [f32],
    n_rows: usize,
    row_width: usize,
    work_per_row: usize,
    min_rows: usize,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    debug_assert_eq!(out.len(), n_rows * row_width);
    if out.is_empty() {
        return;
    }
    let threads = ns_par::threads();
    if threads <= 1
        || n_rows < threads * min_rows
        || n_rows.saturating_mul(work_per_row.max(1)) < PAR_MIN_WORK
    {
        kernel(0, out);
        return;
    }
    let rows_per_chunk = ns_par::chunk_len(n_rows, threads).next_multiple_of(min_rows);
    ns_par::par_chunks(out, rows_per_chunk * row_width, |ci, chunk| {
        kernel(ci * rows_per_chunk, chunk);
    });
}

/// Rows of the GEMM register tile: each loaded `b` strip is reused across
/// MR accumulator rows, cutting B-panel traffic by MR.
#[doc(hidden)]
pub const MR: usize = 4;
/// Columns of the register tile, and of [`Tensor::weighted_aggregate`]'s
/// column strip: 16 f32 = two AVX2 registers per row, eight accumulators
/// in all. The autovectorizer does not keep taller or wider tiles in
/// registers (DESIGN.md §14).
#[doc(hidden)]
pub const NR: usize = 16;
/// Depth of a k-block: its `KC x NR` B sub-panel (16 KiB) stays in L1
/// across the row tiles of a row block.
#[doc(hidden)]
pub const KC: usize = 256;
/// Rows of a row block: its `MC x KC` slice of A (32 KiB, L2) is reused
/// against every B panel of the k-block.
#[doc(hidden)]
pub const MC: usize = 32;
/// Most rows of `A` for which [`Tensor::matmul`] reads `B` in place: the
/// single-thread sweep of DESIGN.md §14 has in place at 0.3–0.8× the
/// packed time up to 16 rows, 0.9–1.1× at 32 and past 1× from 64.
#[doc(hidden)]
pub const IN_PLACE_ROWS: usize = 16;

/// `dst[..w] = src[..w]` for a tile strip of `w <= NR` floats. The
/// full-width case is a fixed-size copy (two vector moves); a `memcpy`
/// call per strip would cost as much as the arithmetic of a tile whose
/// `k` is a few dozen steps.
#[inline(always)]
fn copy_strip(dst: &mut [f32], src: &[f32], w: usize) {
    if w == NR {
        dst[..NR].copy_from_slice(&src[..NR]);
    } else {
        copy_tail(dst, src, w);
    }
}

/// The column-tail case of [`copy_strip`], out of line: inlined, LLVM
/// folds the two copies back into one variable-length `memcpy` call.
#[inline(never)]
fn copy_tail(dst: &mut [f32], src: &[f32], w: usize) {
    dst[..w].copy_from_slice(&src[..w]);
}

/// True when every element of `row` is `+0.0` or `-0.0`: a gradient row
/// the adjoint kernels may leave out (see [`Tensor::matmul_tn`]).
fn is_zero_row(row: &[f32]) -> bool {
    row.iter().all(|&v| v == 0.0)
}

/// Packs `B` (`k x m`) into `ceil(m / NR)` contiguous `k x NR` panels:
/// panel `jt` holds columns `jt*NR..jt*NR + NR`, one NR-wide strip per `k`
/// step, so the micro-kernel reads one sequential stream per panel instead
/// of striding `m` floats per step. The last panel is zero-padded to the
/// tile width, so the kernel has no column-tail loop (padding lanes are
/// computed, never stored). `b` is `B` row-major or — `transposed` — `Bᵀ`
/// row-major (`m x k`), read row by row. Pure layout change: element
/// values and the kernel's accumulation order are untouched.
///
/// `steps` names the `k` steps to pack, ascending: strip `s` of a panel
/// holds step `steps[s]`. Panels keep their `k x NR` stride whatever the
/// count, so the pooled buffer's length never depends on the data; strips
/// past the count are stale and never read.
///
/// Panels start at column `j0` (a multiple of NR); a few-row `matmul`
/// packs only the column tail, `gemm` reading the full strips in place.
fn pack_b_panels(
    b: &[f32],
    k: usize,
    m: usize,
    transposed: bool,
    steps: impl Iterator<Item = usize> + Clone,
    j0: usize,
) -> Vec<f32> {
    let mut bp = crate::pool::take_scratch((m - j0).div_ceil(NR) * k * NR);
    if k == 0 {
        return bp;
    }
    for (jt, panel) in bp.chunks_exact_mut(k * NR).enumerate() {
        let j = j0 + jt * NR;
        let w = NR.min(m - j);
        for (kk, strip) in steps.clone().zip(panel.chunks_exact_mut(NR)) {
            if transposed {
                for (u, s) in strip[..w].iter_mut().enumerate() {
                    *s = b[(j + u) * k + kk];
                }
            } else {
                copy_strip(strip, &b[kk * m + j..], w);
            }
            strip[w..].fill(0.0);
        }
    }
    bp
}

/// The one micro-kernel: `acc + A_tile @ B_strips` over the tile's `k`
/// steps, ascending. `a` yields the tile's MR scalars of `A` per step;
/// each is broadcast against that step's NR-wide strip of `B` (from a
/// packed panel, or from `B`'s row itself), one `mul_add` per register:
/// IEEE fusedMultiplyAdd, rounded once, the same bits from `vfmadd` and
/// from libm's software `fmaf`, which is what bit-exactness rests on.
/// Zipping the two streams leaves no bounds check in the loop, and taking
/// the accumulators by value keeps them in registers whatever the caller does.
#[inline(always)]
fn micro_kernel<'b>(
    strips: impl Iterator<Item = &'b [f32; NR]>,
    a: impl Iterator<Item = [f32; MR]>,
    mut acc: [[f32; NR]; MR],
) -> [[f32; NR]; MR] {
    for (b, xs) in strips.zip(a) {
        for t in 0..MR {
            for u in 0..NR {
                acc[t][u] = xs[t].mul_add(b[u], acc[t][u]);
            }
        }
    }
    acc
}

/// The one dense product behind `matmul` / `matmul_tn` / `matmul_nt`:
/// `out = A @ B`, `n x k` by `k x m`, with `B` supplied as the packed
/// panels `bp` of [`pack_b_panels`] — or, for a `matmul` of at most
/// [`IN_PLACE_ROWS`] rows, as `b_rows` (`B` row-major itself): the kernel
/// then takes each full-width strip from `B`'s row `kk` in place, and `bp`
/// holds the column-tail panel alone. `A` is `a` itself (`n x k`
/// row-major) or — `A_TRANSPOSED` — the transpose of `a` (`k x n`
/// row-major), which is never materialized: each `(pc, ic)` block packs
/// its MR-wide Aᵀ micro-panels straight from `a`'s rows into a stack
/// scratch. The flag is a const parameter so that the plain instance
/// carries no scratch: zeroing its 32 KiB per call is a quarter of a
/// microsecond, more than a whole `1 x 16 x 7` product takes.
///
/// Cache-blocked `pc` (k-blocks of KC, ascending) → `ic` (row blocks of
/// MC) → B panel → MR-row tile. A tile's accumulators start at `+0.0` in
/// the first k-block and are loaded from and stored back to `out` in every
/// later one; an f32 store/load is exact, so every output element is still
/// the sequence `acc = fma(a, b, acc)` for `k` ascending — bit-identical
/// to the naive fused `i-j-k` loop and independent of tile and row-block
/// placement, which is what keeps thread-count parity exact.
///
/// The transposed instance runs over the `k` steps `kept` lists (ascending
/// rows of `a`, the steps `bp` was packed from) and k-blocks over their
/// count; see [`Tensor::matmul_tn`] for why leaving the others out is
/// exact. The plain instance runs every step and ignores `kept`.
fn gemm<const A_TRANSPOSED: bool>(
    a: &[f32],
    b_rows: Option<&[f32]>,
    bp: Vec<f32>,
    n: usize,
    k: usize,
    m: usize,
    kept: &[usize],
) -> Tensor {
    let depth = if A_TRANSPOSED { kept.len() } else { k };
    let j0 = b_rows.map_or(0, |_| m - m % NR);
    // No k-block runs over an empty inner dimension: the empty sum is +0.0.
    let mut out = if depth == 0 {
        Tensor::zeros(n, m)
    } else {
        Tensor::scratch(n, m)
    };
    // Every block reads all of `B`: a block short of one MR-row tile
    // would re-read it for a partial tile's work.
    par_rows(&mut out.data, n, m, depth * m, MR, |lo, orows| {
        let rows = orows.len() / m;
        let mut ap = [0.0f32; MC * KC];
        for pc in (0..depth).step_by(KC) {
            let kc = KC.min(depth - pc);
            for ic in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ic);
                if A_TRANSPOSED {
                    // Lanes past a row tail keep stale values: those
                    // accumulator rows are never stored.
                    for (kk, &r) in kept[pc..pc + kc].iter().enumerate() {
                        let arow = &a[r * n + lo + ic..][..mc];
                        let mut quads = arow.chunks_exact(MR);
                        for (it, q) in quads.by_ref().enumerate() {
                            ap[(it * kc + kk) * MR..][..MR].copy_from_slice(q);
                        }
                        let tail = quads.remainder();
                        if !tail.is_empty() {
                            ap[(mc / MR * kc + kk) * MR..][..tail.len()].copy_from_slice(tail);
                        }
                    }
                }
                for j in (0..m).step_by(NR) {
                    let w = NR.min(m - j);
                    // A strip read in place has no packed panel.
                    let panel: &[f32] =
                        if j < j0 { &[] } else { &bp[(j - j0) * k + pc * NR..][..kc * NR] };
                    let packed = || {
                        panel.chunks_exact(NR).map(|s| s.try_into().expect("chunks_exact(NR)"))
                    };
                    for ir in (ic..ic + mc).step_by(MR) {
                        let mr = MR.min(ic + mc - ir);
                        let mut acc = [[0.0f32; NR]; MR];
                        if pc > 0 {
                            for t in 0..mr {
                                copy_strip(&mut acc[t], &orows[(ir + t) * m + j..], w);
                            }
                        }
                        let acc = if A_TRANSPOSED {
                            let at = ap[(ir - ic) * kc..][..MR * kc].chunks_exact(MR);
                            let at = at.map(|q| q.try_into().expect("chunks_exact(MR)"));
                            micro_kernel(packed(), at, acc)
                        } else {
                            // A row tail re-reads its last row; those
                            // accumulator rows are never stored.
                            let [r0, r1, r2, r3]: [&[f32]; MR] = std::array::from_fn(|t| {
                                &a[(lo + ir + t.min(mr - 1)) * k + pc..][..kc]
                            });
                            let steps = r0.iter().zip(r1).zip(r2).zip(r3);
                            let steps = steps.map(|(((a, b), c), d)| [*a, *b, *c, *d]);
                            match b_rows {
                                Some(b) if j < j0 => {
                                    let rows = b[pc * m + j..].chunks(m);
                                    let strips = rows.map(|r| r.first_chunk().expect("j + NR <= m"));
                                    micro_kernel(strips, steps, acc)
                                }
                                _ => micro_kernel(packed(), steps, acc),
                            }
                        };
                        for t in 0..mr {
                            copy_strip(&mut orows[(ir + t) * m + j..], &acc[t], w);
                        }
                    }
                }
            }
        }
    });
    crate::pool::recycle(bp);
    out
}

/// A dense, row-major, two-dimensional `f32` tensor.
///
/// Scalars are represented as `1 x 1` tensors; row vectors (e.g. biases) as
/// `1 x d`. All kernels are panics-on-misuse internally but the public
/// constructors validate shapes.
///
/// Backing buffers come from the process-wide [`crate::pool`]: `Drop`
/// recycles them and the constructors (including `Clone`) take them back,
/// so shape-stationary workloads reach a zero-allocation steady state
/// (DESIGN.md §14).
#[derive(PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut out = Tensor::scratch(self.rows, self.cols);
        out.data.copy_from_slice(&self.data);
        out
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        if !self.data.is_empty() {
            crate::pool::recycle(std::mem::take(&mut self.data));
        }
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.data.len() <= 12 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor from raw parts. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// A `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: crate::pool::take_zeroed(rows * cols) }
    }

    /// A `rows x cols` tensor with **unspecified contents**, for kernels
    /// that overwrite every element before the tensor escapes. The
    /// buffer is always initialized memory (pool reuse or fresh zeros),
    /// so this is safe — just meaningless until written.
    pub fn scratch(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: crate::pool::take_scratch(rows * cols) }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut out = Self::scratch(rows, cols);
        out.data.fill(value);
        out
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        let mut out = Self::scratch(1, 1);
        out.data[0] = value;
        out
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing storage (the buffer leaves the pool's
    /// custody; recycle it via a later `Tensor::from_vec` drop if long
    /// steady-state reuse matters).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a `1 x 1` tensor.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on non-scalar tensor");
        self.data[0]
    }

    /// Returns `self @ other` (matrix product).
    ///
    /// Cache-blocked and register-tiled (see `gemm`): a fixed
    /// ascending-`k` order of fused steps per output element, so results
    /// are bit-identical at every thread count *and* exactly equal to the
    /// naive fused `i-j-k` loop (pinned by `tests/tiled_equivalence.rs`).
    /// Up to [`IN_PLACE_ROWS`] rows it reads `other` in place, unpacked.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let b_rows = (n <= IN_PLACE_ROWS).then_some(&other.data[..]);
        let j0 = b_rows.map_or(0, |_| m - m % NR);
        let bp = pack_b_panels(&other.data, k, m, false, 0..k, j0);
        gemm::<false>(&self.data, b_rows, bp, n, k, m, &[])
    }

    /// Returns `selfᵀ @ other`.
    ///
    /// No transpose is built: `gemm` packs MR-wide Aᵀ micro-panels
    /// straight from `self`'s rows, block by block. The per-element
    /// accumulation order (`kk` ascending) is that of
    /// `self.transpose().matmul(other)`.
    ///
    /// **Zero rows.** Step `kk` is left out when `other`'s row `kk` is all
    /// `±0.0` and `self`'s row `kk` is all finite (a weight gradient
    /// `Xᵀ·G` whose `G` has a row per vertex the loss never reaches):
    /// - a skipped step, `fma(finite, ±0, acc)`, returns `acc` (NaN and
    ///   ±Inf too) unless `acc` is `-0.0` and the exact product `+0`;
    /// - `acc` starts at `+0.0`, and a fused step whose exact result is 0
    ///   returns `+0` under round-to-nearest. It turns `-0.0` only when a
    ///   nonzero exact result of at most 2⁻¹⁵⁰ underflows, keeping its
    ///   sign; then the skip can keep that `-0.0` where every step gives
    ///   `+0.0`. Otherwise it is bit-identical to running every step;
    /// - a row holding a NaN or an Inf is never skipped.
    ///
    /// The skip depends on the inputs alone, so thread and tile parity
    /// hold by construction. The packed panels keep their full-height
    /// length: pool lengths never depend on how many rows are zero.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.matmul_tn_counted(other).0
    }

    /// [`Self::matmul_tn`], plus the number of `k` steps it left out.
    pub(crate) fn matmul_tn_counted(&self, other: &Tensor) -> (Tensor, u64) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: {}x{} , {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let finite = |r: usize| self.row(r).iter().all(|v| v.is_finite());
        let kept: Vec<usize> =
            (0..k).filter(|&r| !(is_zero_row(other.row(r)) && finite(r))).collect();
        let bp = pack_b_panels(&other.data, k, m, false, kept.iter().copied(), 0);
        let out = gemm::<true>(&self.data, None, bp, n, k, m, &kept);
        (out, (k - kept.len()) as u64)
    }

    /// Returns `self @ otherᵀ`.
    ///
    /// No transpose is built: the B panels are packed straight from
    /// `other`'s rows. Per output element this accumulates
    /// `self[i][kk] * other[j][kk]` in ascending `kk` — the same order as
    /// a scalar dot product of the two contiguous rows.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} , {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let bp = pack_b_panels(&other.data, k, m, true, 0..k, 0);
        gemm::<false>(&self.data, None, bp, n, k, m, &[])
    }

    /// Materialized transpose (cache-blocked).
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::scratch(self.cols, self.rows);
        const B: usize = 32; // 32x32 f32 block = 4 KiB, L1-resident both ways
        for rb in (0..self.rows).step_by(B) {
            let re = (rb + B).min(self.rows);
            for cb in (0..self.cols).step_by(B) {
                let ce = (cb + B).min(self.cols);
                for r in rb..re {
                    for c in cb..ce {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Elementwise sum; shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        let mut out = Tensor::scratch(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a + b;
        }
        out
    }

    /// Elementwise difference; shapes must match exactly.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let mut out = Tensor::scratch(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a - b;
        }
        out
    }

    /// Elementwise (Hadamard) product; shapes must match exactly.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "mul: shape mismatch");
        let mut out = Tensor::scratch(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a * b;
        }
        out
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let mut out = Tensor::scratch(self.rows, self.cols);
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = a * s;
        }
        out
    }

    /// Adds a `1 x cols` row vector to every row (single pass, no
    /// intermediate copy of `self`).
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "add_row_broadcast: width mismatch");
        let mut out = Tensor::scratch(self.rows, self.cols);
        let cols = self.cols.max(1);
        for (orow, srow) in out.data.chunks_mut(cols).zip(self.data.chunks(cols)) {
            for ((o, &a), &b) in orow.iter_mut().zip(srow).zip(&row.data) {
                *o = a + b;
            }
        }
        out
    }

    /// Multiplies each row `r` by the scalar `coeff[r]` (an `n x 1`
    /// tensor), single pass.
    pub fn mul_col_broadcast(&self, coeff: &Tensor) -> Tensor {
        assert_eq!(coeff.cols, 1, "mul_col_broadcast: coeff must be n x 1");
        assert_eq!(coeff.rows, self.rows, "mul_col_broadcast: height mismatch");
        let mut out = Tensor::scratch(self.rows, self.cols);
        let cols = self.cols.max(1);
        for ((orow, srow), &c) in out
            .data
            .chunks_mut(cols)
            .zip(self.data.chunks(cols))
            .zip(&coeff.data)
        {
            for (o, &a) in orow.iter_mut().zip(srow) {
                *o = a * c;
            }
        }
        out
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += s * other` (AXPY).
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
    }

    /// Gathers rows `idx` into a new `idx.len() x cols` tensor. Pure
    /// row-copy into pooled scratch — no zero-fill pre-pass.
    pub fn gather_rows(&self, idx: &[u32]) -> Tensor {
        let d = self.cols;
        let mut out = Tensor::scratch(idx.len(), d);
        par_rows(&mut out.data, idx.len(), d, d, 1, |lo, orows| {
            for (ri, orow) in orows.chunks_mut(d.max(1)).enumerate() {
                orow.copy_from_slice(self.row(idx[lo + ri] as usize));
            }
        });
        out
    }

    /// Scatter-add: `out[idx[r]] += self[r]` for every row `r`; output has
    /// `n_out` rows. The accumulation visits rows in ascending `r`, making
    /// the result deterministic for a fixed `idx`.
    ///
    /// Parallel execution partitions by *destination* row: each chunk
    /// scans the full index list but accumulates only into the rows it
    /// owns, so every output row sees contributions in the same ascending
    /// `r` order as the sequential scan (bit-identical, no atomics).
    pub fn scatter_add_rows(&self, idx: &[u32], n_out: usize) -> Tensor {
        assert_eq!(idx.len(), self.rows, "scatter_add_rows: index count");
        let d = self.cols;
        let mut out = Tensor::zeros(n_out, d);
        let work_per_row = (idx.len() / n_out.max(1) + 1) * d.max(1);
        par_rows(&mut out.data, n_out, d, work_per_row, 1, |lo, orows| {
            let hi = lo + orows.len() / d.max(1);
            for (r, &i) in idx.iter().enumerate() {
                let dst = i as usize;
                debug_assert!(dst < n_out);
                if dst < lo || dst >= hi {
                    continue;
                }
                let src = &self.data[r * d..(r + 1) * d];
                let drow = &mut orows[(dst - lo) * d..(dst - lo + 1) * d];
                for (o, &s) in drow.iter_mut().zip(src.iter()) {
                    *o += s;
                }
            }
        });
        out
    }

    /// Concatenates columns: `[self | other]`. One pass of row copies
    /// straight into the preallocated output.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols: row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Tensor::scratch(self.rows, cols);
        for r in 0..self.rows {
            let base = r * cols;
            out.data[base..base + self.cols].copy_from_slice(self.row(r));
            out.data[base + self.cols..base + cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copies columns `lo..hi` of every row into a new tensor.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Tensor {
        assert!(lo <= hi && hi <= self.cols, "slice_cols: bad column range");
        let w = hi - lo;
        let mut out = Tensor::scratch(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w].copy_from_slice(&self.row(r)[lo..hi]);
        }
        out
    }

    /// ReLU.
    pub fn relu(&self) -> Tensor {
        let mut out = Tensor::scratch(self.rows, self.cols);
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = a.max(0.0);
        }
        out
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        let mut out = Tensor::scratch(self.rows, self.cols);
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = if a > 0.0 { a } else { alpha * a };
        }
        out
    }

    /// ELU with scale `alpha`.
    pub fn elu(&self, alpha: f32) -> Tensor {
        let mut out = Tensor::scratch(self.rows, self.cols);
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = if a > 0.0 { a } else { alpha * (a.exp() - 1.0) };
        }
        out
    }

    /// Row-wise log-softmax (numerically stabilized). Writes shifted
    /// values straight into the output — no upfront copy of `self`.
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = Tensor::scratch(self.rows, self.cols);
        let cols = self.cols.max(1);
        for (orow, srow) in out.data.chunks_mut(cols).zip(self.data.chunks(cols)) {
            let max = srow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &a) in orow.iter_mut().zip(srow) {
                *o = a - max;
                sum += o.exp();
            }
            let log_sum = sum.ln();
            for o in orow.iter_mut() {
                *o -= log_sum;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum of columns: returns a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum element per row (the first, among equals).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                // The running maximum stays in a register: no reload of
                // `row[best]`, and its bounds check, per element.
                let mut best = (0usize, f32::NAN);
                for (c, &v) in self.row(r).iter().enumerate() {
                    if c == 0 || v > best.1 {
                        best = (c, v);
                    }
                }
                best.0
            })
            .collect()
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Fused sparse aggregation (SpMM-style): for each destination `d`,
    /// sums `weights[e] * self[edge_src[e]]` over `e` in
    /// `dst_offsets[d]..dst_offsets[d+1]`. `weights = None` means
    /// unweighted. Never materializes per-edge rows — this is the fused
    /// kernel real GNN backends use for copy-style edge functions.
    pub fn weighted_aggregate(
        &self,
        edge_src: &[u32],
        dst_offsets: &[usize],
        weights: Option<&[f32]>,
    ) -> Tensor {
        let n_dst = dst_offsets.len() - 1;
        let d = self.cols;
        let mut out = Tensor::scratch(n_dst, d);
        let n_edges = dst_offsets[n_dst];
        let work_per_row = (n_edges / n_dst.max(1) + 1) * d.max(1);
        // Column-tiled: per destination, each NR-wide column strip
        // accumulates its whole edge segment in registers and stores
        // once — per-edge traffic drops from a full output-row
        // read-modify-write to an NR-float source read. Per output
        // element the edge order is still ascending `e`, so results are
        // bit-identical to the edge-outer formulation.
        par_rows(&mut out.data, n_dst, d, work_per_row, 1, |lo, orows| {
            for (ri, row) in orows.chunks_mut(d.max(1)).enumerate() {
                let dst = lo + ri;
                let (es, ee) = (dst_offsets[dst], dst_offsets[dst + 1]);
                let seg = &edge_src[es..ee];
                let mut j = 0usize;
                while j + NR <= d {
                    let mut acc = [0.0f32; NR];
                    match weights {
                        Some(w) => {
                            for (idx, &src) in seg.iter().enumerate() {
                                let we = w[es + idx];
                                let s: &[f32; NR] = self.data
                                    [src as usize * d + j..src as usize * d + j + NR]
                                    .try_into()
                                    .unwrap();
                                for u in 0..NR {
                                    acc[u] += we * s[u];
                                }
                            }
                        }
                        None => {
                            for &src in seg {
                                let s: &[f32; NR] = self.data
                                    [src as usize * d + j..src as usize * d + j + NR]
                                    .try_into()
                                    .unwrap();
                                for u in 0..NR {
                                    acc[u] += s[u];
                                }
                            }
                        }
                    }
                    row[j..j + NR].copy_from_slice(&acc);
                    j += NR;
                }
                if j < d {
                    let w_cols = d - j;
                    let mut acc = [0.0f32; NR];
                    match weights {
                        Some(w) => {
                            for (idx, &src) in seg.iter().enumerate() {
                                let we = w[es + idx];
                                let s = &self.data[src as usize * d + j..(src as usize + 1) * d];
                                for u in 0..w_cols {
                                    acc[u] += we * s[u];
                                }
                            }
                        }
                        None => {
                            for &src in seg {
                                let s = &self.data[src as usize * d + j..(src as usize + 1) * d];
                                for u in 0..w_cols {
                                    acc[u] += s[u];
                                }
                            }
                        }
                    }
                    row[j..].copy_from_slice(&acc[..w_cols]);
                }
            }
        });
        out
    }

    /// Adjoint of [`Self::weighted_aggregate`]: treats `self` as the
    /// gradient over destinations and scatters it back to the `n_src`
    /// source rows through the same edge structure.
    ///
    /// **Zero rows.** Destination `d` is left out when its gradient row is
    /// all `±0.0` and its segment's weights are finite (or the aggregation
    /// is unweighted): each of its terms is `finite × ±0 = ±0`, and an
    /// unfused sum started at `+0.0` never turns `-0.0` (a sum of floats
    /// cannot underflow to zero), so the skip is bit-exact for every input.
    /// A NaN or Inf in the row or in a weight keeps the destination in.
    pub fn weighted_aggregate_transpose(
        &self,
        edge_src: &[u32],
        dst_offsets: &[usize],
        weights: Option<&[f32]>,
        n_src: usize,
    ) -> Tensor {
        self.weighted_aggregate_transpose_counted(edge_src, dst_offsets, weights, n_src).0
    }

    /// [`Self::weighted_aggregate_transpose`], plus the number of
    /// destinations it left out.
    pub(crate) fn weighted_aggregate_transpose_counted(
        &self,
        edge_src: &[u32],
        dst_offsets: &[usize],
        weights: Option<&[f32]>,
        n_src: usize,
    ) -> (Tensor, u64) {
        let n_dst = dst_offsets.len() - 1;
        assert_eq!(n_dst, self.rows, "gradient rows must match destinations");
        let d = self.cols;
        let mut out = Tensor::zeros(n_src, d);
        let n_edges = dst_offsets[n_dst];
        let work_per_row = (n_edges / n_src.max(1) + 1) * d.max(1);
        let skipped = std::sync::atomic::AtomicU64::new(0);
        // Partitioned by *source* (output) row: each chunk walks the edge
        // list in the same dst-then-edge order as the sequential scan and
        // accumulates only into the rows it owns — same per-row FP order,
        // no atomic adds. Every chunk takes the same skip decisions; the
        // one at row 0 reports them.
        par_rows(&mut out.data, n_src, d, work_per_row, 1, |lo, orows| {
            let hi = lo + orows.len() / d.max(1);
            let mut zero_rows = 0;
            for dst in 0..n_dst {
                let grow = &self.data[dst * d..(dst + 1) * d];
                let (es, ee) = (dst_offsets[dst], dst_offsets[dst + 1]);
                let finite = |w: &[f32]| w[es..ee].iter().all(|v| v.is_finite());
                if is_zero_row(grow) && weights.is_none_or(finite) {
                    zero_rows += 1;
                    continue;
                }
                for e in es..ee {
                    let src = edge_src[e] as usize;
                    debug_assert!(src < n_src);
                    if src < lo || src >= hi {
                        continue;
                    }
                    let orow = &mut orows[(src - lo) * d..(src - lo + 1) * d];
                    match weights {
                        Some(w) => {
                            let we = w[e];
                            for (o, &g) in orow.iter_mut().zip(grow) {
                                *o += we * g;
                            }
                        }
                        None => {
                            for (o, &g) in orow.iter_mut().zip(grow) {
                                *o += g;
                            }
                        }
                    }
                }
            }
            if lo == 0 {
                skipped.store(zero_rows, std::sync::atomic::Ordering::Relaxed);
            }
        });
        (out, skipped.into_inner())
    }

    /// Max-aggregation over in-edges: for each destination `d` and column
    /// `c`, takes the maximum of `self[edge_src[e]][c]` over `d`'s edge
    /// segment. Returns the aggregated tensor and, per output element, the
    /// *edge index* that won (needed by the adjoint; `u32::MAX` marks
    /// empty segments, whose output is 0).
    pub fn max_aggregate(
        &self,
        edge_src: &[u32],
        dst_offsets: &[usize],
    ) -> (Tensor, Vec<u32>) {
        let n_dst = dst_offsets.len() - 1;
        let d = self.cols;
        let mut out = Tensor::zeros(n_dst, d);
        let mut argmax = vec![u32::MAX; n_dst * d];
        let run = |lo: usize, hi: usize, orows: &mut [f32], arows: &mut [u32]| {
            for dst in lo..hi {
                let (s, e) = (dst_offsets[dst], dst_offsets[dst + 1]);
                if s == e {
                    continue;
                }
                for c in 0..d {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_e = u32::MAX;
                    for (idx, &src) in edge_src[s..e].iter().enumerate() {
                        let v = self.data[src as usize * d + c];
                        if v > best {
                            best = v;
                            best_e = (s + idx) as u32;
                        }
                    }
                    orows[(dst - lo) * d + c] = best;
                    arows[(dst - lo) * d + c] = best_e;
                }
            }
        };
        let n_edges = dst_offsets[n_dst];
        let work = (n_edges / n_dst.max(1) + 1) * d.max(1);
        let threads = ns_par::threads();
        if threads <= 1 || n_dst.saturating_mul(work) < PAR_MIN_WORK || d == 0 {
            run(0, n_dst, &mut out.data, &mut argmax);
        } else {
            // Two parallel output buffers (values + winning edges) share
            // the same dst-row ownership: zip their row blocks into
            // window pairs and fan the pairs out one per chunk.
            let rows_per_chunk = ns_par::chunk_len(n_dst, threads);
            let w = rows_per_chunk * d;
            let mut windows: Vec<(&mut [f32], &mut [u32])> =
                out.data.chunks_mut(w).zip(argmax.chunks_mut(w)).collect();
            ns_par::par_chunks(&mut windows, 1, |ci, pair| {
                let (orows, arows) = &mut pair[0];
                let lo = ci * rows_per_chunk;
                run(lo, lo + orows.len() / d, orows, arows);
            });
        }
        (out, argmax)
    }

    /// Softmax over contiguous row segments.
    ///
    /// `offsets` has `n_segments + 1` entries; rows `offsets[s]..offsets[s+1]`
    /// form a segment that is normalized jointly (across all its rows and
    /// columns). Used for GAT attention normalized per destination vertex,
    /// where rows are edge logits grouped by destination.
    pub fn segment_softmax(&self, offsets: &[usize]) -> Tensor {
        assert_eq!(self.cols, 1, "segment_softmax expects an e x 1 tensor");
        assert_eq!(*offsets.last().unwrap_or(&0), self.rows);
        let mut out = self.clone();
        for w in offsets.windows(2) {
            let (s, e) = (w[0], w[1]);
            if s == e {
                continue;
            }
            let seg = &mut out.data[s..e];
            let max = seg.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in seg.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in seg.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Bytes occupied by the payload (excluding the struct header). Used by
    /// the network/memory models.
    pub fn payload_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|i| i as f32).collect());
        let via_t = a.transpose().matmul(&b);
        let direct = a.matmul_tn(&b);
        assert_eq!(via_t.data(), direct.data());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32).collect());
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_nt(&b);
        assert_eq!(via_t.data(), direct.data());
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        // The empty sum is +0.0, as in the naive loop (reachable as the
        // weight gradient `Xᵀ·g` of a worker that owns no rows).
        for (n, m) in [(3, 8), (5, 5), (2, 2 * NR + 5)] {
            let nn = Tensor::zeros(n, 0).matmul(&Tensor::zeros(0, m));
            let tn = Tensor::zeros(0, n).matmul_tn(&Tensor::zeros(0, m));
            let nt = Tensor::zeros(n, 0).matmul_nt(&Tensor::zeros(m, 0));
            for out in [nn, tn, nt] {
                assert_eq!(out.shape(), (n, m));
                assert!(out.data().iter().all(|v| v.to_bits() == 0), "{out:?}");
            }
        }
        // Empty outputs keep their shape whatever the inner dimension.
        for k in [0, 4] {
            let (e, b) = (Tensor::zeros(0, k), Tensor::zeros(k, 3));
            assert_eq!(e.matmul(&b).shape(), (0, 3));
            assert_eq!(Tensor::zeros(k, 0).matmul_tn(&b).shape(), (0, 3));
            assert_eq!(Tensor::zeros(3, k).matmul_nt(&e).shape(), (3, 0));
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(1, 3, vec![1., -2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 3., 9.]);
        assert_eq!(a.sub(&b).data(), &[-3., -7., -3.]);
        assert_eq!(a.mul(&b).data(), &[4., -10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., -4., 6.]);
    }

    #[test]
    fn broadcast_ops() {
        let x = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let bias = Tensor::from_vec(1, 2, vec![10., 20.]);
        assert_eq!(x.add_row_broadcast(&bias).data(), &[11., 22., 13., 24.]);
        let coeff = Tensor::from_vec(2, 1, vec![2., 3.]);
        assert_eq!(x.mul_col_broadcast(&coeff).data(), &[2., 4., 9., 12.]);
    }

    #[test]
    fn gather_and_scatter_are_adjoint_shapes() {
        let x = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = x.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5., 6., 1., 2., 5., 6.]);
        let s = g.scatter_add_rows(&[2, 0, 2], 3);
        assert_eq!(s.data(), &[1., 2., 0., 0., 10., 12.]);
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(2, 1, vec![9., 10.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.slice_cols(0, 2).data(), a.data());
        assert_eq!(c.slice_cols(2, 3).data(), b.data());
    }

    #[test]
    fn activations() {
        let x = Tensor::from_vec(1, 2, vec![-1.0, 2.0]);
        assert_eq!(x.relu().data(), &[0.0, 2.0]);
        assert_eq!(x.leaky_relu(0.1).data(), &[-0.1, 2.0]);
        let e = x.elu(1.0);
        assert!((e.data()[0] - (-1.0f32).exp_m1()).abs() < 1e-6);
        assert_eq!(e.data()[1], 2.0);
    }

    #[test]
    fn log_softmax_rows_sums_to_one() {
        let x = Tensor::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let ls = x.log_softmax_rows();
        for r in 0..2 {
            let s: f32 = ls.row(r).iter().map(|v| v.exp()).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn segment_softmax_normalizes_per_segment() {
        let x = Tensor::from_vec(5, 1, vec![1., 2., 3., 0.5, 0.5]);
        let sm = x.segment_softmax(&[0, 3, 5]);
        let s1: f32 = sm.data()[..3].iter().sum();
        let s2: f32 = sm.data()[3..].iter().sum();
        assert!((s1 - 1.0).abs() < 1e-5);
        assert!((s2 - 1.0).abs() < 1e-5);
        // Equal logits -> equal probabilities.
        assert!((sm.data()[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn segment_softmax_handles_empty_segment() {
        let x = Tensor::from_vec(2, 1, vec![1., 1.]);
        let sm = x.segment_softmax(&[0, 0, 2]);
        assert!((sm.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn weighted_aggregate_matches_manual_sum() {
        // dst0 <- {0 (w 2), 1 (w 1)}; dst1 <- {2 (w 0.5)}.
        let x = Tensor::from_vec(3, 2, vec![1., 10., 2., 20., 4., 40.]);
        let src = [0u32, 1, 2];
        let off = [0usize, 2, 3];
        let w = [2.0f32, 1.0, 0.5];
        let agg = x.weighted_aggregate(&src, &off, Some(&w));
        assert_eq!(agg.data(), &[4., 40., 2., 20.]);
        let unweighted = x.weighted_aggregate(&src, &off, None);
        assert_eq!(unweighted.data(), &[3., 30., 4., 40.]);
    }

    #[test]
    fn weighted_aggregate_equals_gather_scatter_composition() {
        let x = Tensor::from_vec(4, 3, (0..12).map(|i| i as f32).collect());
        let src = [3u32, 0, 1, 1, 2];
        let dst = [0u32, 0, 1, 2, 2];
        let off = [0usize, 2, 3, 5];
        let fused = x.weighted_aggregate(&src, &off, None);
        let composed = x.gather_rows(&src).scatter_add_rows(&dst, 3);
        assert_eq!(fused.data(), composed.data());
    }

    #[test]
    fn aggregate_transpose_is_adjoint() {
        // <A x, y> == <x, A^T y> for the linear aggregation operator.
        let x = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let y = Tensor::from_vec(2, 2, vec![0.5, -1., 2., 0.25]);
        let src = [0u32, 2, 1];
        let off = [0usize, 2, 3];
        let w = [1.5f32, -0.5, 2.0];
        let ax = x.weighted_aggregate(&src, &off, Some(&w));
        let aty = y.weighted_aggregate_transpose(&src, &off, Some(&w), 3);
        let lhs: f32 = ax.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(aty.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn reductions() {
        let x = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(x.sum(), 10.0);
        assert_eq!(x.sum_rows().data(), &[4., 6.]);
        assert!((x.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(x.argmax_rows(), vec![1, 1]);
        // First among equals; a NaN never beats, and a leading NaN is
        // never beaten (it compares false both ways).
        let nan = f32::NAN;
        let y = Tensor::from_vec(4, 3, vec![2., 5., 5., -1., nan, -3., nan, 9., 1., 0., 0., 0.]);
        assert_eq!(y.argmax_rows(), vec![1, 0, 0, 0]);
        assert_eq!(Tensor::zeros(2, 0).argmax_rows(), vec![0, 0]);
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Tensor::from_vec(1, 2, vec![1., 2.]);
        let b = Tensor::from_vec(1, 2, vec![10., 20.]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11., 22.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[16., 32.]);
    }
}
