//! Dependency-free intra-worker parallelism.
//!
//! NeutronStar's GPU workers saturate the device with parallel NN-ops and
//! graph-ops; this crate is the CPU reproduction's equivalent substrate: a
//! small, std-only (`std::thread` + atomics, no rayon) thread pool with a
//! *scoped, chunk-stealing* execution model that the tensor kernels
//! (`ns-tensor`), the CSR aggregators (`ns-gnn`), and the lock-free
//! parallel message enqueuer (`ns-net`) all route through.
//!
//! # Execution model
//!
//! [`par_chunks`] is the one fan-out primitive: it cuts a mutable slice
//! into fixed-size chunks, parks each chunk in its own slot and publishes
//! the chunk indices behind a single atomic cursor. Every participating
//! thread — the caller plus up to `threads() - 1` pool workers — claims
//! indices with `fetch_add` until the cursor runs dry and takes its
//! chunk's `&mut` window out of the slot (an uncontended lock: each index
//! is claimed once). A slow thread simply claims fewer chunks; a fast one
//! *steals* the remainder. There is no work-queue mutex on the claim path.
//!
//! # Determinism
//!
//! The pool parallelizes only over *disjoint output ranges* (ownership by
//! destination row, see `DESIGN.md` §11): each output element is written
//! by exactly one thread running exactly the sequential kernel, so every
//! result is bit-identical to the single-threaded execution at any thread
//! count. This is the guarantee the `--threads` parity suite pins.
//!
//! # Nesting and contention
//!
//! One parallel job runs at a time. A caller that finds the pool busy
//! (another simulated worker is mid-job), or that *is* a pool worker
//! (nested parallelism), runs its chunk loop inline on its own thread —
//! same code path, same results, no deadlock. Distributed-training
//! workers therefore degrade gracefully instead of oversubscribing.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Hardware parallelism of this machine (at least 1).
fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Configured worker count: `NS_PAR_THREADS` env override, else hardware
/// parallelism. Resolved once at first use; [`set_threads`] changes it.
fn default_threads() -> usize {
    std::env::var("NS_PAR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(max_threads)
}

static CONFIGURED: AtomicUsize = AtomicUsize::new(0); // 0 = not yet resolved

/// The effective thread count parallel sections will use (>= 1).
pub fn threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => {
            let n = default_threads();
            // Racing initializers compute the same value.
            CONFIGURED.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Sets the thread count used by subsequent parallel sections. `0` means
/// "auto" (hardware parallelism / `NS_PAR_THREADS`). Results are
/// bit-identical at any setting; only throughput changes. Takes effect
/// for jobs started after the call, including on an already-built pool.
pub fn set_threads(n: usize) {
    let n = if n == 0 { default_threads() } else { n };
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// Counters for the calling thread's parallel activity, drained with
/// [`take_thread_stats`]. The runtime exports them as the
/// `compute.par_jobs` / `compute.par_chunks` / `par.steal_count` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Parallel jobs issued by this thread.
    pub jobs: u64,
    /// Chunks executed across those jobs (by any participant).
    pub chunks: u64,
    /// Chunks executed by pool workers rather than the issuing thread —
    /// work the helpers "stole" from the caller via the shared cursor.
    pub stolen: u64,
    /// Jobs that ran inline because the pool was busy, nested, or the
    /// work was below the parallel threshold.
    pub inline_jobs: u64,
}

thread_local! {
    static STATS: std::cell::Cell<ParStats> = const { std::cell::Cell::new(ParStats {
        jobs: 0,
        chunks: 0,
        stolen: 0,
        inline_jobs: 0,
    }) };
    /// True on pool worker threads; forces nested sections inline.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Drains and returns the calling thread's [`ParStats`].
pub fn take_thread_stats() -> ParStats {
    STATS.with(|s| s.replace(ParStats::default()))
}

fn bump_stats(f: impl FnOnce(&mut ParStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// Type-erased pointer to the job closure living on the issuing thread's
/// stack. Sound because the issuer blocks until every participant has
/// finished before the closure goes out of scope.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    participants: usize,
}

// SAFETY: the pointee is `Sync` and outlives the job (see `Pool::run`).
unsafe impl Send for Job {}

struct State {
    /// Monotonic job sequence number; workers watch it change.
    seq: u64,
    job: Option<Job>,
    /// Participants still running the current job.
    active: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new job.
    work: Condvar,
    /// The issuer waits here for the last participant.
    done: Condvar,
}

/// The process-wide pool: lazily spawned workers plus a busy latch that
/// serializes jobs (contenders run inline instead of queueing).
struct Pool {
    shared: &'static Shared,
    busy: AtomicBool,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Box::leak(Box::new(Shared {
            state: Mutex::new(State { seq: 0, job: None, active: 0 }),
            work: Condvar::new(),
            done: Condvar::new(),
        })),
        busy: AtomicBool::new(false),
        spawned: Mutex::new(0),
    })
}

fn worker_main(shared: &'static Shared, index: usize) {
    IS_POOL_WORKER.with(|w| w.set(true));
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("ns-par state poisoned");
            while st.seq == last_seq {
                st = shared.work.wait(st).expect("ns-par state poisoned");
            }
            last_seq = st.seq;
            match st.job {
                // Only workers the job asked for participate; `active`
                // counts exactly those, so nobody is waited on twice.
                Some(j) if index <= j.participants => j,
                _ => continue,
            }
        };
        // SAFETY: the issuer keeps the closure alive until `active`
        // reaches zero, which happens only after this call returns.
        unsafe { (*job.f)(index) };
        let mut st = shared.state.lock().expect("ns-par state poisoned");
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_one();
        }
    }
}

impl Pool {
    /// Ensures at least `n` workers exist.
    fn ensure_workers(&self, n: usize) {
        let mut spawned = self.spawned.lock().expect("ns-par spawn lock poisoned");
        while *spawned < n {
            *spawned += 1;
            let index = *spawned;
            let shared = self.shared;
            std::thread::Builder::new()
                .name(format!("ns-par-{index}"))
                .spawn(move || worker_main(shared, index))
                .expect("ns-par: failed to spawn worker");
        }
    }

    /// Runs `f(participant_index)` on the caller (index 0) and
    /// `helpers` pool workers (indices `1..=helpers`), returning after
    /// all of them finish. `f` must complete the whole job even if it
    /// only ever runs as `f(0)` (the inline fallback).
    ///
    /// Returns `false` when the job ran inline on the caller only.
    fn run(&self, helpers: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
        if helpers == 0
            || IS_POOL_WORKER.with(|w| w.get())
            || self.busy.swap(true, Ordering::Acquire)
        {
            f(0);
            return false;
        }
        self.ensure_workers(helpers);
        {
            let mut st = self.shared.state.lock().expect("ns-par state poisoned");
            st.seq += 1;
            // Lifetime erasure: `f` outlives the job because this function
            // blocks on `done` below before returning.
            st.job = Some(Job {
                f: unsafe {
                    std::mem::transmute::<
                        *const (dyn Fn(usize) + Sync),
                        *const (dyn Fn(usize) + Sync + 'static),
                    >(f as *const _)
                },
                participants: helpers,
            });
            st.active = helpers;
            self.shared.work.notify_all();
        }
        f(0);
        {
            let mut st = self.shared.state.lock().expect("ns-par state poisoned");
            while st.active > 0 {
                st = self.shared.done.wait(st).expect("ns-par state poisoned");
            }
            st.job = None;
        }
        self.busy.store(false, Ordering::Release);
        true
    }
}

/// A chunk length that yields a few chunks per thread (dynamic claiming
/// then balances uneven chunk costs), never zero.
pub fn chunk_len(n: usize, threads: usize) -> usize {
    const CHUNKS_PER_THREAD: usize = 4;
    (n / (threads.max(1) * CHUNKS_PER_THREAD)).max(1)
}

/// Splits `0..n` into chunks of `chunk` indices and runs
/// `f(start, end)` for every chunk across the configured threads, with
/// dynamic (stealing) chunk assignment. Chunks are disjoint and cover
/// `0..n` exactly once; `f` must tolerate any execution order.
///
/// Runs inline when `threads() == 1`, when there is at most one chunk,
/// or when the pool is busy/nested — same chunks, same results.
fn par_ranges(n: usize, chunk: usize, f: impl Fn(usize, usize) + Sync) {
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let t = threads();
    if t <= 1 || n_chunks <= 1 {
        bump_stats(|s| {
            s.jobs += 1;
            s.inline_jobs += 1;
            s.chunks += n_chunks as u64;
        });
        for c in 0..n_chunks {
            f(c * chunk, ((c + 1) * chunk).min(n));
        }
        return;
    }
    let helpers = (t - 1).min(n_chunks - 1);
    let cursor = AtomicUsize::new(0);
    let stolen = AtomicU64::new(0);
    let ran_parallel = pool().run(helpers, &|who| {
        let mut claimed = 0u64;
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            f(c * chunk, ((c + 1) * chunk).min(n));
            claimed += 1;
        }
        if who != 0 {
            stolen.fetch_add(claimed, Ordering::Relaxed);
        }
    });
    bump_stats(|s| {
        s.jobs += 1;
        s.chunks += n_chunks as u64;
        s.stolen += stolen.load(Ordering::Relaxed);
        if !ran_parallel {
            s.inline_jobs += 1;
        }
    });
}

/// Runs `f(chunk_index, chunk_slice)` over `chunk`-element chunks of
/// `data` across the configured threads. Chunk `i` is
/// `data[i*chunk .. min((i+1)*chunk, len)]`; each sits in its own slot
/// until the one thread that claims index `i` takes it, so every `&mut`
/// window is handed out exactly once. Runs inline when `threads() == 1`,
/// when there is at most one chunk, or when the pool is busy/nested —
/// same chunks, same results.
pub fn par_chunks<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], chunk: usize, f: F) {
    let len = data.len();
    let chunk = chunk.max(1);
    let slots: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    par_ranges(len, chunk, |start, _| {
        let i = start / chunk;
        let window = slots[i].lock().expect("ns-par chunk slot poisoned").take();
        f(i, window.expect("ns-par chunk claimed twice"));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// `set_threads` is process-global; tests that touch it must not
    /// interleave (libtest runs tests on multiple threads).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_ranges_covers_every_index_exactly_once() {
        let _g = serial();
        set_threads(4);
        let n = 10_001;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_ranges(n, 37, |s, e| {
            for i in s..e {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_writes_disjoint_slices() {
        let _g = serial();
        set_threads(8);
        let mut data = vec![0usize; 4096];
        par_chunks(&mut data, 128, |ci, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = ci * 128 + k;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _g = serial();
        let run = |t: usize| {
            set_threads(t);
            let mut out = vec![0.0f32; 5000];
            par_chunks(&mut out, 64, |ci, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    let i = ci * 64 + k;
                    *v = (i as f32).sin() * 0.5 + (i as f32).sqrt();
                }
            });
            out
        };
        let base = run(1);
        for t in [2, 3, 4, 8] {
            assert_eq!(run(t), base, "thread count {t} diverged");
        }
    }

    #[test]
    fn nested_sections_run_inline_without_deadlock() {
        let _g = serial();
        set_threads(4);
        let outer = AtomicU32::new(0);
        par_ranges(8, 1, |s, _| {
            // Nested job: must not deadlock, must still cover its range.
            let inner = AtomicU32::new(0);
            par_ranges(16, 4, |a, b| {
                inner.fetch_add((b - a) as u32, Ordering::Relaxed);
            });
            assert_eq!(inner.load(Ordering::Relaxed), 16);
            outer.fetch_add(s as u32, Ordering::Relaxed);
        });
        assert_eq!(outer.load(Ordering::Relaxed), (0..8).sum::<u32>());
    }

    #[test]
    fn stats_account_jobs_and_chunks() {
        let _g = serial();
        set_threads(2);
        let _ = take_thread_stats();
        par_ranges(100, 10, |_, _| {});
        let st = take_thread_stats();
        assert_eq!(st.jobs, 1);
        assert_eq!(st.chunks, 10);
        // Second take sees a clean slate.
        assert_eq!(take_thread_stats(), ParStats::default());
    }

    #[test]
    fn zero_work_is_a_no_op() {
        par_ranges(0, 8, |_, _| panic!("must not run"));
        let mut empty: Vec<u8> = Vec::new();
        par_chunks(&mut empty, 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn set_threads_zero_means_auto() {
        let _g = serial();
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(3);
        assert_eq!(threads(), 3);
    }
}
