//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of rayon's API it actually uses: parallel
//! iteration over index ranges with order-preserving `map`/`collect` and
//! `for_each`, plus a two-way [`join`].
//!
//! # Execution model
//!
//! Work runs on a lazily-initialized **persistent worker pool**: the first
//! parallel job spawns `current_num_threads() - 1` detached workers that
//! park on a condvar between jobs. A job is published as a raw borrow of
//! the caller's closure plus a chunk count; workers (and the submitting
//! thread, which participates) claim contiguous index chunks with an
//! atomic counter and write results directly into index-addressed output
//! slots. Reassembly is therefore index-ordered and results are bitwise
//! identical to sequential evaluation regardless of which thread ran which
//! chunk. Steady-state jobs allocate nothing and spawn no threads.
//!
//! # Sequential cutoff
//!
//! Small jobs run inline: dispatch costs more than the work it would
//! cover, and the repository's kernels launch many tiny grids from tests.
//! The cutoff is **work-aware** — pipelines carry an `item_work` hint
//! (see [`ParRange::with_item_work`]) and a job goes parallel only when
//! `len * item_work` crosses [`WORK_CUTOFF`], so many-tiny-CTA grids stay
//! inline while large grids fan out.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, Once, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

static NUM_THREADS: OnceLock<usize> = OnceLock::new();

/// Number of worker threads used for parallel execution (including the
/// submitting thread, which participates in every job). Resolved once, in
/// priority order: [`set_num_threads`], the `RAYON_NUM_THREADS`
/// environment variable, then `available_parallelism`.
pub fn current_num_threads() -> usize {
    *NUM_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Fix the thread count before first use (tests and CLIs use this to force
/// the pool on single-core machines). Returns `false` if the count was
/// already resolved, in which case the call had no effect.
pub fn set_num_threads(n: usize) -> bool {
    NUM_THREADS.set(n.max(1)).is_ok()
}

/// Jobs whose estimated work (`len * item_work`) is below this run inline
/// on the submitting thread. The unit is "one trivial item"; launch sites
/// pass their block width as the per-item hint, so a 32-CTA grid of
/// 128-thread blocks is the smallest grid that fans out.
pub const WORK_CUTOFF: u64 = 4096;

/// Chunks per participant: mild over-decomposition so the atomic claim
/// loop load-balances uneven chunks without measurable claim overhead.
const CHUNKS_PER_THREAD: usize = 2;

static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total OS threads ever spawned by this shim (pool workers plus any
/// [`spawn_chunked`] comparison threads). Steady-state parallel jobs must
/// not move this counter — asserted by the workspace's zero-alloc audit.
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

thread_local! {
    /// Set for the lifetime of a pool worker thread: nested parallel jobs
    /// issued from inside a chunk run inline (the pool has one job slot).
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set while this thread is inside `Pool::execute`: re-entrant
    /// submissions from the same thread run inline instead of deadlocking
    /// on the submit lock.
    static IN_SUBMIT: Cell<bool> = const { Cell::new(false) };
    /// Scoped override installed by [`with_sequential`].
    static FORCE_SEQ: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with all parallel dispatch on this thread forced inline. Used
/// by determinism tests to compare pool execution against a sequential
/// reference, and by benchmarks to measure single-thread baselines.
pub fn with_sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SEQ.with(|c| c.set(self.0));
        }
    }
    let prev = FORCE_SEQ.with(|c| c.replace(true));
    let _restore = Restore(prev);
    f()
}

fn must_run_inline() -> bool {
    FORCE_SEQ.with(|c| c.get()) || IN_POOL_WORKER.with(|c| c.get()) || IN_SUBMIT.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// A published job: a borrow of the submitter's chunk closure plus the
/// chunk geometry. `Copy` so publication is a plain store — no allocation
/// per job. The raw pointer is only dereferenced while the submitter is
/// blocked in `Pool::execute`, which outlives every use.
#[derive(Copy, Clone)]
struct JobRef {
    run: *const (dyn Fn(Range<usize>) + Sync),
    len: usize,
    n_chunks: usize,
    chunk: usize,
}

// SAFETY: the pointee is `Sync` and the submitter keeps it alive until the
// pool is quiescent (see the completion protocol in `Pool::execute`).
unsafe impl Send for JobRef {}

struct PoolState {
    /// Bumped per published job; workers track the last epoch they joined
    /// so a stale wakeup never re-enters a finished job.
    epoch: u64,
    job: Option<JobRef>,
    /// Workers currently registered on the published job. Registration and
    /// deregistration happen under the state lock, so `active == 0` under
    /// the lock proves no worker still references the job (or its atomics).
    active: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until the job is fully executed.
    done_cv: Condvar,
    /// Serializes concurrent submitting threads (one job slot).
    submit: Mutex<()>,
    next_chunk: AtomicUsize,
    chunks_done: AtomicUsize,
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    workers: usize,
}

impl Pool {
    fn new(workers: usize) -> Pool {
        Pool {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            next_chunk: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
            workers,
        }
    }

    /// Claim and run chunks of `job` until none remain. Panics from the
    /// closure are captured (first wins) so every chunk completes and the
    /// pool returns to a clean state; the submitter re-raises afterwards.
    fn run_chunks(&self, job: JobRef) {
        // SAFETY: see `JobRef` — the submitter outlives the job.
        let run = unsafe { &*job.run };
        loop {
            let c = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= job.n_chunks {
                break;
            }
            let lo = c * job.chunk;
            let hi = (lo + job.chunk).min(job.len);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run(lo..hi))) {
                let mut slot = self.panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.chunks_done.fetch_add(1, Ordering::Release);
        }
    }

    /// Publish one job, participate in executing it, and wait until every
    /// chunk has run and every worker has left the job.
    fn execute(&'static self, len: usize, n_chunks: usize, run: &(dyn Fn(Range<usize>) + Sync)) {
        struct SubmitGuard;
        impl Drop for SubmitGuard {
            fn drop(&mut self) {
                IN_SUBMIT.with(|c| c.set(false));
            }
        }
        IN_SUBMIT.with(|c| c.set(true));
        let _reentry = SubmitGuard;

        let _submit = self.submit.lock().unwrap();
        let chunk = len.div_ceil(n_chunks);
        let n_chunks = len.div_ceil(chunk);
        // SAFETY: lifetime erasure only; the pointee outlives the job
        // because this function does not return until the pool is
        // quiescent.
        let run_static: *const (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(run) };
        let job = JobRef {
            run: run_static,
            len,
            n_chunks,
            chunk,
        };
        {
            let mut st = self.state.lock().unwrap();
            debug_assert!(st.job.is_none(), "pool job slot must be free");
            self.next_chunk.store(0, Ordering::Relaxed);
            self.chunks_done.store(0, Ordering::Relaxed);
            st.epoch += 1;
            st.job = Some(job);
        }
        self.work_cv.notify_all();

        // The submitter is a full participant.
        self.run_chunks(job);

        // Completion: all chunks done *and* no worker still registered.
        // Any in-flight chunk is held by a registered worker, and workers
        // deregister under the state lock, so this predicate (checked
        // under the lock) proves quiescence and makes all worker writes
        // visible here.
        let mut st = self.state.lock().unwrap();
        while st.active != 0 || self.chunks_done.load(Ordering::Acquire) < n_chunks {
            st = self.done_cv.wait(st).unwrap();
        }
        st.job = None;
        drop(st);

        // Take this job's panic payload while still holding the submit
        // lock: released first, the next submitter's job could run and
        // this thread would re-raise (or swallow) the wrong job's panic.
        // Bind the payload to a local before unwinding: `resume_unwind`
        // inside the `if let` would fire while the guard temporary is
        // still alive and poison the mutex for every later job.
        let payload = self
            .panic_payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        drop(_submit);
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

fn worker_loop(pool: &'static Pool) {
    IN_POOL_WORKER.with(|c| c.set(true));
    let mut seen = 0u64;
    let mut st = pool.state.lock().unwrap();
    loop {
        if st.epoch != seen {
            if let Some(job) = st.job {
                seen = st.epoch;
                st.active += 1;
                drop(st);
                pool.run_chunks(job);
                st = pool.state.lock().unwrap();
                st.active -= 1;
                if st.active == 0 {
                    pool.done_cv.notify_all();
                }
                continue;
            }
            // A job from this epoch was published and already retired.
            seen = st.epoch;
        }
        st = pool.work_cv.wait(st).unwrap();
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();
static SPAWN_WORKERS: Once = Once::new();

fn pool() -> &'static Pool {
    let pool = POOL.get_or_init(|| Pool::new(current_num_threads().saturating_sub(1).max(1)));
    SPAWN_WORKERS.call_once(|| {
        for i in 0..pool.workers {
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("mps-pool-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn pool worker");
        }
    });
    pool
}

/// Dispatch `run` over `0..len` in contiguous chunks: inline when the
/// estimated work is below [`WORK_CUTOFF`] (or parallelism is unavailable
/// or suppressed), otherwise on the persistent pool.
fn run_chunked(len: usize, item_work: u64, run: &(dyn Fn(Range<usize>) + Sync)) {
    if len == 0 {
        return;
    }
    let work = (len as u64).saturating_mul(item_work.max(1));
    if current_num_threads() <= 1 || work < WORK_CUTOFF || must_run_inline() {
        run(0..len);
        return;
    }
    let p = pool();
    let n_chunks = ((p.workers + 1) * CHUNKS_PER_THREAD).min(len);
    p.execute(len, n_chunks, run);
}

/// Run two closures, potentially in parallel (one on the pool), and return
/// both results. Unlike the iterator combinators this never applies the
/// work cutoff — callers use it to overlap two coarse stages.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 || must_run_inline() {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let a = Mutex::new(Some(a));
    let b = Mutex::new(Some(b));
    let ra: Mutex<Option<RA>> = Mutex::new(None);
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    {
        let run = |r: Range<usize>| {
            for side in r {
                if side == 0 {
                    let f = a.lock().unwrap().take().expect("join side a runs once");
                    *ra.lock().unwrap() = Some(f());
                } else {
                    let f = b.lock().unwrap().take().expect("join side b runs once");
                    *rb.lock().unwrap() = Some(f());
                }
            }
        };
        pool().execute(2, 2, &run);
    }
    (
        ra.into_inner().unwrap().expect("join side a completed"),
        rb.into_inner().unwrap().expect("join side b completed"),
    )
}

/// Reference implementation of the pre-pool runtime: split `0..len` into
/// per-thread chunks and run each on a freshly spawned scoped thread. Kept
/// only so benchmarks can price per-launch thread spawning against the
/// persistent pool.
pub fn spawn_chunked<F>(len: usize, run: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = current_num_threads().min(len);
    if threads <= 1 {
        run(0..len);
        return;
    }
    let chunk = len.div_ceil(threads);
    let run = &run;
    std::thread::scope(|scope| {
        let mut lo = 0;
        while lo < len {
            let hi = (lo + chunk).min(len);
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            scope.spawn(move || run(lo..hi));
            lo = hi;
        }
    });
}

// ---------------------------------------------------------------------------
// Parallel iterator facade
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            range: self,
            work: 1,
        }
    }
}

/// The subset of rayon's `ParallelIterator` combinators the workspace
/// uses, implemented concretely for range-rooted pipelines.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// Evaluate this pipeline for one index.
    fn eval(&self, index: usize) -> Self::Item;

    /// Number of items in the pipeline.
    fn len(&self) -> usize;

    /// Estimated cost of one item relative to a trivial loop body, used by
    /// the work-aware sequential cutoff. Defaults to 1.
    fn item_work(&self) -> u64 {
        1
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Order-preserving parallel map.
    fn map<R, F>(self, f: F) -> ParMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        ParMap { base: self, f }
    }

    /// Run `f` for every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let this = &self;
        run_chunked(self.len(), self.item_work(), &|r: Range<usize>| {
            for i in r {
                f(this.eval(i));
            }
        });
    }

    /// Collect all items in index order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        let len = self.len();
        let mut out: Vec<Self::Item> = Vec::with_capacity(len);
        let ptr = SendPtr(out.as_mut_ptr());
        let this = &self;
        run_chunked(len, self.item_work(), &|r: Range<usize>| {
            for i in r {
                // Disjoint indices: each chunk owns its slots.
                unsafe { ptr.get().add(i).write(this.eval(i)) };
            }
        });
        // All `len` slots are initialized (chunks cover 0..len exactly).
        unsafe { out.set_len(len) };
        C::from_ordered_vec(out)
    }

    /// Collect all items in index order into an existing vector, reusing
    /// its capacity. Chunks write directly into the target's (disjoint)
    /// slots, so a warm target needs no allocation at all.
    fn collect_into_vec(self, target: &mut Vec<Self::Item>) {
        let len = self.len();
        target.clear();
        target.reserve(len);
        let ptr = SendPtr(target.as_mut_ptr());
        let this = &self;
        run_chunked(len, self.item_work(), &|r: Range<usize>| {
            for i in r {
                unsafe { ptr.get().add(i).write(this.eval(i)) };
            }
        });
        // All `len` slots are initialized (chunks cover 0..len exactly).
        unsafe { target.set_len(len) };
    }
}

/// Raw-pointer wrapper so workers can write disjoint output slots. The
/// accessor keeps closures capturing the wrapper (which is `Sync`) rather
/// than the raw pointer field itself.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Collection target for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T: Send> {
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct ParRange {
    range: Range<usize>,
    work: u64,
}

impl ParRange {
    /// Set the per-item work estimate feeding the sequential cutoff:
    /// the pipeline fans out only when `len * work >= WORK_CUTOFF`.
    /// Launch sites pass their block width so grid size alone does not
    /// decide the dispatch.
    pub fn with_item_work(mut self, work: u64) -> Self {
        self.work = work.max(1);
        self
    }
}

impl ParallelIterator for ParRange {
    type Item = usize;

    fn eval(&self, index: usize) -> usize {
        self.range.start + index
    }

    fn len(&self) -> usize {
        self.range.end.saturating_sub(self.range.start)
    }

    fn item_work(&self) -> u64 {
        self.work
    }
}

/// `map` adaptor over a parallel iterator.
pub struct ParMap<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for ParMap<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;

    fn eval(&self, index: usize) -> R {
        (self.f)(self.base.eval(index))
    }

    fn len(&self) -> usize {
        self.base.len()
    }

    fn item_work(&self) -> u64 {
        self.base.item_work()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    /// Pin the thread count so the pool engages even on single-core CI
    /// machines. Every test calls this first; the first caller wins, which
    /// is fine — they all ask for the same count.
    fn force_pool() {
        let _ = set_num_threads(4);
    }

    /// Held by the tests that read or move the process-global
    /// [`threads_spawned`] counter, so one cannot move it between the
    /// other's two reads.
    fn spawn_counter() -> std::sync::MutexGuard<'static, ()> {
        static COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());
        COUNTER.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Big enough (with the work hint) to always take the pool path.
    fn par_big(n: usize) -> ParRange {
        force_pool();
        (0..n).into_par_iter().with_item_work(WORK_CUTOFF)
    }

    #[test]
    fn map_collect_preserves_order() {
        force_pool();
        let out: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_collect_preserves_order_on_pool() {
        force_pool();
        let out: Vec<usize> = par_big(10_000).map(|i| i * 3).collect();
        assert_eq!(out, (0..10_000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn small_and_empty_ranges_work() {
        force_pool();
        let out: Vec<usize> = (0..3).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out, vec![1, 2, 3]);
        let empty: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn for_each_visits_everything() {
        force_pool();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        par_big(100).for_each(|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn collect_into_vec_matches_collect_and_reuses_capacity() {
        force_pool();
        use crate::ParallelIterator;
        let mut target: Vec<usize> = Vec::new();
        (0..1000)
            .into_par_iter()
            .map(|i| i * 7)
            .collect_into_vec(&mut target);
        assert_eq!(target, (0..1000).map(|i| i * 7).collect::<Vec<_>>());
        let cap = target.capacity();
        let ptr = target.as_ptr();
        (0..1000)
            .into_par_iter()
            .map(|i| i + 1)
            .collect_into_vec(&mut target);
        assert_eq!(target[999], 1000);
        assert_eq!(target.capacity(), cap);
        assert_eq!(target.as_ptr(), ptr, "warm target must be written in place");
        // Shrinking and empty runs are fine too.
        (0..5)
            .into_par_iter()
            .map(|i| i)
            .collect_into_vec(&mut target);
        assert_eq!(target, vec![0, 1, 2, 3, 4]);
        (0..0)
            .into_par_iter()
            .map(|i| i)
            .collect_into_vec(&mut target);
        assert!(target.is_empty());
    }

    #[test]
    fn collect_into_vec_with_drop_types() {
        force_pool();
        use crate::ParallelIterator;
        let mut target: Vec<String> = Vec::new();
        (0..100)
            .into_par_iter()
            .map(|i| format!("s{i}"))
            .collect_into_vec(&mut target);
        assert_eq!(target[42], "s42");
        (0..50)
            .into_par_iter()
            .map(|i| format!("t{i}"))
            .collect_into_vec(&mut target);
        assert_eq!(target.len(), 50);
        assert_eq!(target[0], "t0");
    }

    #[test]
    fn chained_maps_collect() {
        force_pool();
        let out: Vec<usize> = (0..64)
            .into_par_iter()
            .map(|i| i + 1)
            .map(|i| i * 2)
            .collect();
        assert_eq!(out[..4], [2, 4, 6, 8]);
    }

    #[test]
    fn pool_path_spawns_threads_once() {
        force_pool();
        let _counter = spawn_counter();
        let _: Vec<usize> = par_big(50_000).map(|i| i ^ 1).collect();
        let after_warm = threads_spawned();
        assert!(after_warm > 0, "pool must have spawned workers");
        for _ in 0..20 {
            let out: Vec<usize> = par_big(50_000).map(|i| i ^ 1).collect();
            assert_eq!(out[7], 6);
        }
        assert_eq!(
            threads_spawned(),
            after_warm,
            "steady-state jobs must reuse pool workers"
        );
    }

    #[test]
    fn work_cutoff_considers_item_cost() {
        force_pool();
        // Tiny len with a huge per-item hint crosses the cutoff; the same
        // len without a hint stays inline. Both must be correct.
        let hinted: Vec<usize> = (0..8).into_par_iter().with_item_work(1 << 20).collect();
        assert_eq!(hinted, (0..8).collect::<Vec<_>>());
        let unhinted: Vec<usize> = (0..8).into_par_iter().collect();
        assert_eq!(unhinted, hinted);
    }

    #[test]
    fn with_sequential_forces_inline_and_restores() {
        force_pool();
        let tid = std::thread::current().id();
        let out = with_sequential(|| {
            let ids: Vec<std::thread::ThreadId> = par_big(10_000)
                .map(|_| std::thread::current().id())
                .collect();
            ids
        });
        assert!(
            out.iter().all(|&id| id == tid),
            "forced-sequential job must stay on the caller"
        );
        // The override is scoped: parallel results still match afterwards.
        let a: Vec<usize> = par_big(10_000).map(|i| i * 5).collect();
        let b: Vec<usize> = with_sequential(|| par_big(10_000).map(|i| i * 5).collect());
        assert_eq!(a, b, "pool and sequential execution must agree bitwise");
    }

    #[test]
    fn join_runs_both_and_returns_results() {
        force_pool();
        let (a, b) = join(|| 21 * 2, || "right".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "right");
    }

    #[test]
    fn join_nests_without_deadlock() {
        force_pool();
        let ((a, b), c) = join(|| join(|| 1, || 2), || 3);
        assert_eq!((a, b, c), (1, 2, 3));
    }

    #[test]
    fn panics_propagate_from_pool_chunks() {
        force_pool();
        let caught = std::panic::catch_unwind(|| {
            par_big(10_000).for_each(|i| {
                if i == 9_999 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err(), "worker panic must reach the submitter");
        // The pool must still be usable afterwards.
        let out: Vec<usize> = par_big(10_000).map(|i| i + 2).collect();
        assert_eq!(out[0], 2);
    }

    #[test]
    fn join_propagates_panics() {
        force_pool();
        let caught = std::panic::catch_unwind(|| {
            join(|| panic!("left"), || 1);
        });
        assert!(caught.is_err());
        let (a, b) = join(|| 5, || 6);
        assert_eq!((a, b), (5, 6));
    }

    #[test]
    fn concurrent_submitters_serialize_safely() {
        force_pool();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let out: Vec<usize> = par_big(20_000).map(|i| i * (t + 1)).collect();
                        assert_eq!(out[3], 3 * (t + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_submitters_see_only_their_own_panics() {
        force_pool();
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..32usize {
                        let panics = (t + round) % 2 == 0;
                        let caught = std::panic::catch_unwind(|| {
                            par_big(20_000)
                                .map(|i| {
                                    if panics && i == 19_999 {
                                        panic!("submitter {t} round {round}");
                                    }
                                    i * (t + 1)
                                })
                                .collect::<Vec<usize>>()
                        });
                        match caught {
                            Ok(out) => {
                                assert!(!panics, "submitter {t} round {round}: panic lost");
                                assert_eq!(out[3], 3 * (t + 1));
                            }
                            Err(payload) => {
                                let msg = payload
                                    .downcast_ref::<String>()
                                    .cloned()
                                    .unwrap_or_default();
                                assert_eq!(msg, format!("submitter {t} round {round}"));
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn nested_parallelism_from_worker_runs_inline() {
        force_pool();
        // A parallel job inside a pool chunk must not deadlock the single
        // job slot.
        let out: Vec<usize> = par_big(8192)
            .map(|i| {
                let inner: Vec<usize> = (0..4).into_par_iter().with_item_work(1 << 20).collect();
                i + inner.len()
            })
            .collect();
        assert_eq!(out[0], 4);
    }

    #[test]
    fn spawn_chunked_matches_pool_results() {
        force_pool();
        let _counter = spawn_counter();
        let n = 10_000usize;
        let mut spawned = vec![0usize; n];
        {
            let ptr = std::sync::atomic::AtomicPtr::new(spawned.as_mut_ptr());
            let p = ptr.load(Ordering::Relaxed) as usize;
            spawn_chunked(n, move |r| {
                for i in r {
                    unsafe { (p as *mut usize).add(i).write(i * 3) };
                }
            });
        }
        let pooled: Vec<usize> = par_big(n).map(|i| i * 3).collect();
        assert_eq!(spawned, pooled);
    }
}
