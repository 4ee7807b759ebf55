//! Persistent worker pool for the LBM hot path.
//!
//! The paper's performance model treats the collide-stream kernel as
//! memory-bandwidth-bound (Eqs. 6/9); that only holds when threading
//! overhead is amortized. Spawning and joining OS threads inside every
//! `Solver::step()` costs tens of microseconds per step and has nothing to
//! do with bandwidth, so it distorts every MFLUPS number the models are
//! validated against. This module is a pool of parked worker threads that
//! is spawned once and reused for the lifetime of the process.
//!
//! ## Execution model
//!
//! A job is a pure task `f(run_index)` executed for every run index in
//! `0..n_runs`. *Runs* are logical workers: the partition of the data is
//! decided by the requested worker count, not by how many OS threads the
//! pool happens to own, so a job asking for 8 workers produces the exact
//! same 8 contiguous item runs — and therefore bit-identical results —
//! whether the host has 1 core or 64. Pool threads (plus the submitting
//! caller, which always participates) claim run indices from a shared
//! counter under the pool mutex and execute them.
//!
//! ## Wakeup protocol
//!
//! All coordination state lives in one `Mutex<State>` with two condvars:
//!
//! * workers park on `work` and wake when a job with unclaimed runs is
//!   published;
//! * the caller publishes the job under the lock, notifies `work`, then
//!   claims runs itself; once every run is claimed it parks on `done`
//!   until the last in-flight run completes (`pending == 0`).
//!
//! The caller does not return until `pending == 0`, which is what makes
//! the lifetime erasure sound: the task is passed as a reference, its
//! borrow provably outlives every worker's use of it.
//!
//! ## Determinism
//!
//! [`Pool::par_owner_mut_workers`], the one parallel-for, splits the item
//! range `0..n_items` into contiguous ascending runs (balanced:
//! `n_items % workers` runs get one extra item — [`balanced_runs`]) and
//! hands each run to one logical worker. No arithmetic is reordered within
//! an item, and distinct items touch disjoint slots, so for any `f` that
//! computes each item purely from the pre-job state, results are bitwise
//! identical to the serial loop regardless of worker count or which OS
//! thread executes which run.
//!
//! ## Panics
//!
//! A panic inside a task is caught on the worker, stored, and re-raised
//! on the caller *after* the job fully drains — so the pool (and the
//! borrow) is never left in a torn state, and the pool remains usable for
//! subsequent jobs.

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use hemocloud_obs::{Counter, Histogram};

/// A shared view of one mutable slice that many logical workers may read
/// and write **concurrently**, under an owner-computes contract the caller
/// upholds: the job associates every *item* (e.g. a mesh cell) with a set
/// of element indices, the per-item sets are pairwise disjoint, and each
/// worker only touches the slots of the items it owns.
///
/// This is the primitive behind sparse-mesh kernels whose writes are
/// scattered but provably disjoint — the AA propagation pattern's odd step
/// writes each cell's post-collision values into *neighbor* rows, and a
/// SoA layout strides one cell's 19 values across the whole array, so no
/// contiguous sub-slice partition exists. [`Pool::par_owner_mut_workers`]
/// hands every worker the same `DisjointMut` plus a contiguous *item* range;
/// disjointness of the per-item slot sets makes that race-free even though
/// the element ranges interleave.
///
/// Accessors are `unsafe`: the bounds check is a `debug_assert!` and the
/// no-two-workers-share-a-slot obligation cannot be checked at runtime at
/// all. Soundness is argued once per kernel (see
/// `hemocloud_lbm::solver`'s AA safety notes), not per access.
pub struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the fields are an address, a length and a lifetime marker; moving
// them to another thread touches no `T`. Every access goes through
// `read`/`write`, whose callers keep the slots different threads touch
// disjoint (their `# Safety`); `T: Send` because those threads write `T`s.
unsafe impl<T: Send> Send for DisjointMut<'_, T> {}
// SAFETY: as for `Send` — a shared view gives out no `&T`, only the same
// two accessors under the same contract.
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}

impl<'a, T: Copy> DisjointMut<'a, T> {
    /// Wrap a slice. Holding the view borrows the slice mutably for its
    /// whole lifetime, so no safe alias can observe the torn intermediate
    /// states of an in-flight job.
    pub fn new(data: &'a mut [T]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Number of elements in the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// `i < len()`, and no other worker may write slot `i` during the
    /// current job (slot `i` belongs to one of the caller's items).
    #[inline(always)]
    pub unsafe fn read(&self, i: usize) -> T {
        debug_assert!(i < self.len, "DisjointMut read out of bounds: {i}");
        // SAFETY: `ptr` addresses `len` live `T`s mutably borrowed for `'a`
        // (`new`), and the caller guarantees `i < len` and that no other
        // thread writes slot `i` during the job.
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i < len()`, and no other worker may read or write slot `i` during
    /// the current job (slot `i` belongs to one of the caller's items).
    #[inline(always)]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len, "DisjointMut write out of bounds: {i}");
        // SAFETY: as in `read`, and the caller guarantees no other thread
        // reads or writes slot `i` during the job; `T: Copy`, so overwriting
        // without dropping the old value leaks nothing.
        unsafe { self.ptr.add(i).write(value) }
    }
}

/// Lifetime-erased task pointer stored in the shared job slot. Valid only
/// while the submitting `run()` call is blocked, which [`Pool::run`]
/// enforces by draining the job before returning.
struct RawTask(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the one field points at a `Sync` closure, so calling it from the
// thread the pointer is sent to is fine, and it is only dereferenced while
// the submitting `run()` is blocked on the job, i.e. while the borrow it was
// made from is alive (module docs, wakeup protocol).
unsafe impl Send for RawTask {}

/// Handles into the global [`hemocloud_obs`] registry, fetched once at
/// pool construction so the hot path records lock-free. Every pool in a
/// process aggregates into the same `pool.*` instruments; the counts
/// are deterministic for a fixed program (one `pool.jobs` per submitted
/// job, one `pool.run_seconds`/`pool.queue_wait_seconds` sample per
/// claimed run), while the timing *values* are wall-clock and therefore
/// export count-only in deterministic snapshots.
struct PoolMetrics {
    jobs: Arc<Counter>,
    runs: Arc<Counter>,
    panics: Arc<Counter>,
    spawned: Arc<Counter>,
    queue_wait_s: Arc<Histogram>,
    run_s: Arc<Histogram>,
}

impl PoolMetrics {
    fn new() -> Self {
        let reg = hemocloud_obs::global();
        Self {
            jobs: reg.counter("pool.jobs"),
            runs: reg.counter("pool.runs"),
            panics: reg.counter("pool.panics"),
            spawned: reg.counter("pool.spawned_threads"),
            queue_wait_s: reg.histogram(
                "pool.queue_wait_seconds",
                &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0],
            ),
            run_s: reg.histogram(
                "pool.run_seconds",
                &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0],
            ),
        }
    }
}

struct State {
    /// Current job's task, present only while a job is in flight.
    task: Option<RawTask>,
    /// Number of runs (logical workers) in the current job.
    n_runs: usize,
    /// Next unclaimed run index.
    next_run: usize,
    /// Runs claimed but not yet completed, plus runs not yet claimed.
    pending: usize,
    /// First panic payload raised by any run of the current job.
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
    /// When the current job was published — queue-wait samples measure
    /// claim time against this.
    epoch: Option<Instant>,
    /// Set by `Drop` to retire the workers.
    shutdown: bool,
}

/// Lock a mutex, stripping poison: a panicking job unwinds through the
/// caller while guards are held, but the protocol only unwinds *after*
/// the job has fully drained and the slot was cleared, so the protected
/// state is always consistent.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wait<'a, T>(
    condvar: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here waiting for a job with unclaimed runs.
    work: Condvar,
    /// The caller parks here waiting for the last run to complete.
    done: Condvar,
    metrics: PoolMetrics,
}

/// Execute one claimed run with its timing + panic instrumentation:
/// records the queue wait (publish → claim) and run time, bumps the
/// panic counter on unwind, and returns the caught result.
fn timed_run(
    shared: &Shared,
    epoch: Option<Instant>,
    task: impl FnOnce(),
) -> Result<(), Box<dyn std::any::Any + Send + 'static>> {
    let claimed = Instant::now();
    if let Some(epoch) = epoch {
        shared
            .metrics
            .queue_wait_s
            .record(claimed.duration_since(epoch).as_secs_f64());
    }
    let result = catch_unwind(AssertUnwindSafe(task));
    shared.metrics.run_s.record(claimed.elapsed().as_secs_f64());
    if result.is_err() {
        shared.metrics.panics.inc();
    }
    result
}

/// A persistent pool of parked worker threads executing partitioned
/// data-parallel jobs with serial-identical results. See the module docs
/// for the execution model and determinism argument.
pub struct Pool {
    shared: Arc<Shared>,
    /// Serializes job submission: the pool runs one job at a time.
    submit: Mutex<()>,
    /// Logical width: default worker count for jobs (background threads
    /// plus the participating caller).
    threads: usize,
    /// Background OS threads actually spawned (== `threads - 1`).
    spawned: usize,
    jobs: AtomicU64,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Create a pool of logical width `threads` (≥ 1): `threads - 1`
    /// parked background workers plus the submitting caller. A width-1
    /// pool spawns nothing and runs every job inline.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool width must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                task: None,
                n_runs: 0,
                next_run: 0,
                pending: 0,
                panic: None,
                epoch: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            metrics: PoolMetrics::new(),
        });
        let spawned = threads - 1;
        shared.metrics.spawned.add(spawned as u64);
        let handles = (0..spawned)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hemocloud-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            submit: Mutex::new(()),
            threads,
            spawned,
            jobs: AtomicU64::new(0),
            handles,
        }
    }

    /// Logical width of the pool (background workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Background OS threads this pool has spawned over its entire
    /// lifetime. Constant after construction: the whole point of the pool
    /// is that running more jobs never spawns more threads.
    pub fn spawned_threads(&self) -> usize {
        self.spawned
    }

    /// Total jobs executed so far (parallel and inline).
    pub fn jobs_run(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Execute `task(run)` for every `run in 0..n_runs`, distributing runs
    /// over the pool's workers and the calling thread. Blocks until every
    /// run has completed. Panics in `task` propagate to the caller after
    /// the job drains; the pool stays usable.
    ///
    /// Not reentrant: `task` must not submit to the same pool.
    pub fn run(&self, n_runs: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_runs == 0 {
            return;
        }
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.jobs.inc();
        self.shared.metrics.runs.add(n_runs as u64);
        if n_runs == 1 || self.spawned == 0 {
            // Nothing to hand out (or nobody to hand it to): run inline.
            // No queue-wait sample — inline runs are never queued.
            for run in 0..n_runs {
                if let Err(payload) = timed_run(&self.shared, None, || task(run)) {
                    resume_unwind(payload);
                }
            }
            return;
        }

        let _submission = lock(&self.submit);
        let raw: RawTask = {
            let ptr = task as *const (dyn Fn(usize) + Sync);
            // SAFETY: the transmute only erases the borrow's lifetime (same
            // fat-pointer layout) so the task can sit in the shared slot;
            // this call does not return, and the slot is cleared, until
            // `pending == 0`, so no worker can use it past the borrow.
            RawTask(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(ptr)
            })
        };
        {
            let mut g = lock(&self.shared.state);
            debug_assert!(g.task.is_none(), "pool job slot already occupied");
            g.task = Some(raw);
            g.n_runs = n_runs;
            g.next_run = 0;
            g.pending = n_runs;
            g.panic = None;
            g.epoch = Some(Instant::now());
        }
        self.shared.work.notify_all();

        // The caller is a worker too: claim runs until none are left,
        // then wait for stragglers.
        let mut g = lock(&self.shared.state);
        loop {
            if g.next_run < g.n_runs {
                let run = g.next_run;
                g.next_run += 1;
                let epoch = g.epoch;
                drop(g);
                let result = timed_run(&self.shared, epoch, || task(run));
                g = lock(&self.shared.state);
                if let Err(payload) = result {
                    if g.panic.is_none() {
                        g.panic = Some(payload);
                    }
                }
                g.pending -= 1;
            } else if g.pending > 0 {
                g = wait(&self.shared.done, g);
            } else {
                g.task = None;
                let panic = g.panic.take();
                drop(g);
                if let Some(payload) = panic {
                    resume_unwind(payload);
                }
                return;
            }
        }
    }

    /// Owner-computes parallel-for over `n_items` logical items backed by
    /// one shared slice: item `i`'s computation may read and write
    /// arbitrary slots of `data`, provided the slot sets of distinct items
    /// are pairwise disjoint. Each of the `workers` (≥ 1) logical workers
    /// receives a contiguous, ascending item range ([`balanced_runs`]) plus
    /// a [`DisjointMut`] view of all of `data`. Partitioning *items*, not
    /// elements, is what AA in-place streaming (writes into neighbor rows)
    /// and SoA layouts (one item strided across the array) need. A single
    /// worker runs inline on the caller without submitting a job — the
    /// serial reference path tests compare against.
    ///
    /// Guarantees, inherited from [`Pool::run`]:
    /// * **bit-identical to serial** — for an `f` that visits its items in
    ///   ascending order and computes each item purely from the pre-job
    ///   state and the item's own slots, any worker count produces exactly
    ///   the serial result, because the run partition is a pure function
    ///   of `(n_items, workers)` and no item's slots are touched by two
    ///   workers;
    /// * **panic propagation** — a panic in any run drains the job, then
    ///   re-raises on the caller; the pool stays usable.
    ///
    /// # Contract
    /// `f(items, view)` must only access slots belonging to items in
    /// `items`. The per-item slot sets must be pairwise disjoint across
    /// *all* items. Violations are data races (undefined behavior), which
    /// is why [`DisjointMut`]'s accessors are `unsafe`.
    pub fn par_owner_mut_workers<T, F>(
        &self,
        data: &mut [T],
        n_items: usize,
        workers: usize,
        f: F,
    ) where
        T: Copy + Send,
        F: Fn(std::ops::Range<usize>, &DisjointMut<'_, T>) + Sync,
    {
        assert!(workers > 0, "worker count must be positive");
        if n_items == 0 {
            return;
        }
        let workers = workers.min(n_items);
        let view = DisjointMut::new(data);
        if workers <= 1 {
            f(0..n_items, &view);
            return;
        }
        let task = move |w: usize| {
            let (first, count) = balanced_runs(n_items, workers, w);
            f(first..first + count, &view);
        };
        self.run(workers, &task);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut g = lock(&self.shared.state);
            g.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut g = lock(&shared.state);
    loop {
        if g.shutdown {
            return;
        }
        if g.task.is_some() && g.next_run < g.n_runs {
            let run = g.next_run;
            g.next_run += 1;
            let task = g.task.as_ref().unwrap().0;
            let epoch = g.epoch;
            drop(g);
            // SAFETY: the submitting caller blocks until `pending == 0`, and
            // this run is counted in `pending` until after the call returns,
            // so the pointee outlives it.
            let result = timed_run(shared, epoch, || unsafe { (*task)(run) });
            g = lock(&shared.state);
            if let Err(payload) = result {
                if g.panic.is_none() {
                    g.panic = Some(payload);
                }
            }
            g.pending -= 1;
            if g.pending == 0 {
                shared.done.notify_all();
            }
        } else {
            g = wait(&shared.work, g);
        }
    }
}

/// The balanced partition of `n_items` items over `workers` runs:
/// returns `(first, count)` of run `w`. The first `n_items % workers` runs
/// get one extra item, so every run is non-empty whenever
/// `n_items >= workers` (a ceil-based split would idle trailing workers:
/// 5 items on 4 workers as 2+2+1+0).
///
/// Total on every input: `n_items == 0` or `workers == 0` yields the
/// empty run `(0, 0)` (`workers == 0` used to divide by zero), and when
/// `n_items < workers` the first `n_items` runs get one item each
/// while the rest get `(n_items, 0)` — the runs still tile
/// `0..n_items` exactly.
pub fn balanced_runs(n_items: usize, workers: usize, w: usize) -> (usize, usize) {
    if n_items == 0 || workers == 0 {
        return (0, 0);
    }
    debug_assert!(w < workers);
    let base = n_items / workers;
    let extra = n_items % workers;
    let first = w * base + w.min(extra);
    let count = base + usize::from(w < extra);
    (first, count)
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide shared pool, lazily initialized at the host's
/// available parallelism on first use. All hot-path callers
/// (`Solver::step`, `RankedSolver::step`, the STREAM microbenchmark) share
/// it, so an entire run spawns at most `max_threads() - 1` OS threads total.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(crate::par::max_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_runs_tile_exactly_and_feed_every_worker() {
        for n_chunks in 1..40usize {
            for workers in 1..=n_chunks {
                let mut next = 0usize;
                for w in 0..workers {
                    let (first, count) = balanced_runs(n_chunks, workers, w);
                    assert_eq!(first, next, "gap at worker {w} ({n_chunks}/{workers})");
                    assert!(count >= 1, "worker {w} idle with {n_chunks} chunks on {workers}");
                    next = first + count;
                }
                assert_eq!(next, n_chunks, "partition does not tile {n_chunks}/{workers}");
            }
        }
    }

    #[test]
    fn balanced_runs_edge_cases_are_total_and_still_tile() {
        // workers == 0 used to divide by zero; n_chunks == 0 must hand
        // out nothing; both degenerate to the empty run.
        for w in 0..4 {
            assert_eq!(balanced_runs(0, 0, w), (0, 0));
            assert_eq!(balanced_runs(7, 0, w), (0, 0));
            assert_eq!(balanced_runs(0, 4, w), (0, 0));
        }
        // n_chunks < workers: the first n_chunks runs get one chunk
        // each, the rest are empty, and the non-empty runs tile
        // 0..n_chunks in order with no gaps or overlaps.
        for n_chunks in 0..12usize {
            for workers in n_chunks + 1..24 {
                let mut next = 0usize;
                for w in 0..workers {
                    let (first, count) = balanced_runs(n_chunks, workers, w);
                    assert!(count <= 1, "{n_chunks}/{workers} gave run {w} count {count}");
                    if count == 1 {
                        assert_eq!(first, next, "gap at worker {w} ({n_chunks}/{workers})");
                        next = first + count;
                    }
                }
                assert_eq!(next, n_chunks, "partition does not tile {n_chunks}/{workers}");
            }
        }
    }

    #[test]
    fn five_chunks_on_four_workers_feeds_all_four() {
        // The regression the scoped implementation had: ceil(5/4) = 2 gave
        // runs of 2+2+1+0.
        let runs: Vec<_> = (0..4).map(|w| balanced_runs(5, 4, w)).collect();
        assert_eq!(runs, vec![(0, 2), (2, 1), (3, 1), (4, 1)]);
    }

    #[test]
    fn run_invokes_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let pool = Pool::new(4);
        let counts: Vec<AtomicU32> = (0..23).map(|_| AtomicU32::new(0)).collect();
        pool.run(23, &|run| {
            counts[run].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "run {i}");
        }
    }

    /// A strided "SoA transpose" through the owner-computes API: item `i`
    /// owns slots `{i, i + n, i + 2n}` — interleaved across workers, so no
    /// contiguous chunk partition exists, yet the per-item sets are
    /// disjoint.
    fn strided_fill(view: &DisjointMut<'_, f64>, items: std::ops::Range<usize>, n: usize) {
        for i in items {
            for lane in 0..3 {
                let prev = unsafe { view.read(lane * n + i) };
                unsafe { view.write(lane * n + i, prev + (i * 7 + lane) as f64) };
            }
        }
    }

    #[test]
    fn owner_mut_matches_serial_for_many_worker_counts() {
        let n = 1000;
        let mut serial = vec![0.5f64; 3 * n];
        {
            let view = DisjointMut::new(&mut serial);
            strided_fill(&view, 0..n, n);
        }
        let pool = Pool::new(3);
        for workers in [1usize, 2, 3, 8, 64] {
            let mut parallel = vec![0.5f64; 3 * n];
            pool.par_owner_mut_workers(&mut parallel, n, workers, |items, view| {
                strided_fill(view, items, n)
            });
            assert_eq!(serial, parallel, "diverged at {workers} logical workers");
        }
    }

    #[test]
    fn owner_mut_scattered_disjoint_writes_cover_every_item_once() {
        // Item i writes slot (i * 17) % n — a permutation of 0..n for n
        // coprime with 17, i.e. scattered-but-disjoint like the AA odd
        // step's neighbor writes.
        let n = 1021; // prime
        let pool = Pool::new(4);
        let mut data = vec![0u64; n];
        pool.par_owner_mut_workers(&mut data, n, pool.threads(), |items, view| {
            for i in items {
                unsafe { view.write(i * 17 % n, i as u64 + 1) };
            }
        });
        let mut seen = vec![false; n];
        for (slot, &v) in data.iter().enumerate() {
            assert!(v > 0, "slot {slot} never written");
            let i = (v - 1) as usize;
            assert_eq!(i * 17 % n, slot);
            assert!(!seen[i], "item {i} wrote twice");
            seen[i] = true;
        }
    }

    #[test]
    fn owner_mut_empty_and_single_item_run_inline() {
        let pool = Pool::new(2);
        let jobs_before = pool.jobs_run();
        let mut data = vec![0u8; 4];
        let width = pool.threads();
        pool.par_owner_mut_workers(&mut data, 0, width, |_, _| panic!("no items, no calls"));
        pool.par_owner_mut_workers(&mut data, 1, width, |items, view| {
            assert_eq!(items, 0..1);
            for i in 0..view.len() {
                unsafe { view.write(i, 9) };
            }
        });
        assert_eq!(data, vec![9u8; 4]);
        assert_eq!(pool.jobs_run(), jobs_before, "inline paths must not submit jobs");
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_host() {
        let p = global();
        assert_eq!(p.threads(), crate::par::max_threads());
        assert!(std::ptr::eq(p, global()));
    }
}
