//! The fork-join core both pools are built on.
//!
//! A [`ForkJoin`] team has `W` participants: the posting thread is
//! participant 0 and `W − 1` persistent workers are participants
//! `1..W` — the OpenMP master thread and the TBB arena master, which
//! both execute a share of the region they posted instead of waiting
//! for it. A team of one spawns no worker at all.
//!
//! ## The generation barrier
//!
//! Workers wait for work on a monotonic generation counter. Per region:
//! 1. the poster (holding the poster lock) writes the job, resets `done`
//!    and the dynamic cursor, then bumps `generation` (Release) — the
//!    bump *publishes* the job;
//! 2. the poster wakes parked workers and runs participant 0's share;
//! 3. workers observe the bump (Acquire), run their share, then
//!    increment `done` (AcqRel); the last one notifies the poster in
//!    case it parked;
//! 4. the poster returns (or resumes its own unwind) once `done == W − 1`.
//!
//! Every waiter — a worker waiting for a generation, the poster waiting
//! for `done` — spins briefly, then yields until [`WAIT_BUDGET`] has
//! passed, and only then parks on a condvar. The budget is wall time,
//! not a spin count, so that it outlasts a futex wake-up: a budget
//! shorter than a wake-up leaves a pool that starts parked parking on
//! every region, poster and worker in turn.
//!
//! ## Schedules
//!
//! * [`Schedule::Static`] — participant `p` runs the contiguous block
//!   `[p·n/W, (p+1)·n/W)`, the analogue of OpenMP `schedule(static)`
//!   with `OMP_PROC_BIND=close`.
//! * [`Schedule::Dynamic`] — participants claim chunks of
//!   `max(4, n / (4·W))` indices from one shared atomic cursor until it
//!   runs past `n`. Which participant runs which chunk depends on who
//!   arrives first, as with TBB's work stealing; a chunk that starts
//!   outside the claimer's static home block is counted as a steal.
//!
//! ## Determinism of reductions
//!
//! `run_sum`/`run_sum4` write one partial **per index** into grow-only
//! scratch owned by the poster lock and fold it sequentially in index
//! order, so the result is bit-identical to
//! [`SerialExec`](crate::SerialExec) under either schedule and any
//! thread count. Per-participant pre-summation would be cheaper but
//! regroups the floating-point additions.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::metrics::{Counters, PoolMetrics};
use crate::shared::{CachePadded, UnsafeSlice};

/// How a region's indices are divided among the participants.
#[derive(Clone, Copy)]
pub(crate) enum Schedule {
    /// One contiguous block per participant.
    Static,
    /// Chunks claimed from a shared cursor; see the module docs.
    Dynamic,
}

/// Smallest dynamic chunk — the grain TBB's auto-partitioner would not
/// split further. Regions of at most one grain run inline.
pub(crate) const MIN_CHUNK: usize = 4;

/// Pure spin iterations before a waiter starts yielding.
const SPIN_ITERS: u32 = 64;

/// Wall time a waiter spins and yields before it parks. Longer than a
/// futex wake-up on current virtualised hosts, and far longer than the
/// gap between back-to-back regions in a solver inner loop.
const WAIT_BUDGET: Duration = Duration::from_micros(500);

/// Type-erased pointer to the parallel-region body.
#[derive(Clone, Copy)]
struct JobFn {
    ptr: *const (dyn Fn(usize) + Sync),
}
// SAFETY: the pointee is `Sync`, so calling it from any thread is sound
// while it is alive. Invariant: the posting thread returns or unwinds
// from `ForkJoin::post` only after every worker has incremented `done`
// for the region, and a worker dereferences the pointer only between
// observing the region's generation and that increment.
unsafe impl Send for JobFn {}
unsafe impl Sync for JobFn {}

/// Barrier state shared between the poster and the workers.
///
/// `generation`, `done` and `cursor` live on separate cache lines:
/// workers hammer `generation` while waiting, `cursor` while claiming and
/// `done` while finishing; sharing a line would bounce it on every step.
struct Barrier {
    generation: CachePadded<AtomicU64>,
    /// Workers (not the poster) that have finished the current region.
    done: CachePadded<AtomicUsize>,
    /// Next unclaimed index of the current region (dynamic schedule).
    cursor: CachePadded<AtomicUsize>,
    /// Body and trip count, published by the `generation` bump.
    job: UnsafeCell<Option<(JobFn, usize)>>,
    schedule: Schedule,
    participants: usize,
    shutdown: AtomicBool,
    panicked: AtomicBool,
    /// Count of parked workers, guarded by the mutex `idle_cv` waits on.
    idle: Mutex<usize>,
    idle_cv: Condvar,
    /// Poster parking, taken only after the wait budget.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    metrics: Counters,
}

// SAFETY: `job` is the only unsynchronised field. It is written only by
// the single poster (the poster lock serialises posts) while no worker
// can read it: before the Release bump of `generation`, and only after
// every worker of the previous region incremented `done`. Workers read
// it only after the matching Acquire load and before their own `done`
// increment, so no read overlaps a write.
unsafe impl Sync for Barrier {}

impl Barrier {
    /// Participant `p`'s static block.
    fn block(&self, p: usize, n: usize) -> Range<usize> {
        p * n / self.participants..(p + 1) * n / self.participants
    }

    /// Run participant `p`'s share of the published region.
    fn run_share(&self, p: usize, n: usize, f: &(dyn Fn(usize) + Sync)) {
        match self.schedule {
            Schedule::Static => self.block(p, n).for_each(f),
            Schedule::Dynamic => {
                let chunk = MIN_CHUNK.max(n / (4 * self.participants));
                let home = self.block(p, n);
                let mut steals = 0;
                loop {
                    let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    steals += u64::from(!home.contains(&start));
                    (start..(start + chunk).min(n)).for_each(f);
                }
                if steals > 0 {
                    self.metrics.steals.fetch_add(steals, Ordering::Relaxed);
                }
            }
        }
    }

    fn workers_done(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.participants - 1
    }
}

/// Spin, then yield, until [`WAIT_BUDGET`] has passed.
struct Backoff {
    spins: u32,
    since: Option<Instant>,
}

impl Backoff {
    fn new() -> Self {
        Backoff {
            spins: 0,
            since: None,
        }
    }

    /// Wait a little; `false` once the budget is spent and the caller
    /// should park instead.
    fn snooze(&mut self) -> bool {
        if self.spins < SPIN_ITERS {
            self.spins += 1;
            std::hint::spin_loop();
            return true;
        }
        if self.since.get_or_insert_with(Instant::now).elapsed() < WAIT_BUDGET {
            std::thread::yield_now();
            return true;
        }
        false
    }
}

/// Reduction scratch owned by the poster lock, reused across regions so
/// `run_sum`/`run_sum4` are allocation-free once warmed up.
#[derive(Default)]
struct Scratch {
    partials: Vec<f64>,
    partials4: Vec<[f64; 4]>,
}

/// A persistent fork-join team with a caller-participating barrier. See
/// module docs.
pub(crate) struct ForkJoin {
    barrier: Arc<Barrier>,
    /// Serialises posts (the generation protocol has one poster at a
    /// time) and owns the reduction scratch.
    poster: Mutex<Scratch>,
    workers: Vec<JoinHandle<()>>,
}

impl ForkJoin {
    /// A team of `participants`: the caller plus `participants − 1`
    /// spawned workers named `{name}-{p}`.
    ///
    /// # Panics
    /// Panics if `participants == 0`.
    pub fn new(participants: usize, schedule: Schedule, name: &str) -> Self {
        assert!(participants > 0, "pool needs at least one thread");
        let barrier = Arc::new(Barrier {
            generation: CachePadded::new(AtomicU64::new(0)),
            done: CachePadded::new(AtomicUsize::new(0)),
            cursor: CachePadded::new(AtomicUsize::new(0)),
            job: UnsafeCell::new(None),
            schedule,
            participants,
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            idle: Mutex::new(0),
            idle_cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            metrics: Counters::new(participants - 1),
        });
        let workers = (1..participants)
            .map(|p| {
                let barrier = Arc::clone(&barrier);
                std::thread::Builder::new()
                    .name(format!("{name}-{p}"))
                    .spawn(move || worker_loop(p, barrier))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ForkJoin {
            barrier,
            poster: Mutex::new(Scratch::default()),
            workers,
        }
    }

    pub fn participants(&self) -> usize {
        self.barrier.participants
    }

    /// Snapshot of the scheduler counters since creation.
    pub fn metrics(&self) -> PoolMetrics {
        self.barrier.metrics.snapshot()
    }

    /// Whether a region of `n` indices runs on the calling thread alone:
    /// a team of one, or fewer units of work than two participants can
    /// share (fewer indices than participants under the static schedule,
    /// one grain under the dynamic one).
    fn inline(&self, n: usize) -> bool {
        let b = &*self.barrier;
        let inline = b.participants == 1
            || match b.schedule {
                Schedule::Static => n < b.participants,
                Schedule::Dynamic => n <= MIN_CHUNK,
            };
        if inline {
            b.metrics.inline_runs.fetch_add(1, Ordering::Relaxed);
        }
        inline
    }

    /// Publish a region, run participant 0's share on the calling thread
    /// and return once every worker has finished. The caller must hold
    /// the poster lock.
    fn post(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let b = &*self.barrier;
        // Erase the caller lifetime. SAFETY: see `JobFn` — this function
        // neither returns nor unwinds before `workers_done()`, so the
        // borrow outlives every worker's use of the pointer.
        let job = JobFn {
            ptr: unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(f) },
        };
        b.metrics.regions.fetch_add(1, Ordering::Relaxed);
        b.done.store(0, Ordering::Relaxed);
        b.cursor.store(0, Ordering::Relaxed);
        // SAFETY: single poster, and every worker finished the previous
        // region (see `Sync for Barrier`).
        unsafe { *b.job.get() = Some((job, n)) };
        b.generation.fetch_add(1, Ordering::Release);
        // Taking the lock (not just reading the counter) closes the race
        // with a worker between its last generation check and its wait.
        if *b.idle.lock() > 0 {
            b.idle_cv.notify_all();
        }
        let own = catch_unwind(AssertUnwindSafe(|| b.run_share(0, n, f)));
        let mut backoff = Backoff::new();
        while !b.workers_done() {
            if !backoff.snooze() {
                b.metrics.poster_parks.fetch_add(1, Ordering::Relaxed);
                let mut guard = b.done_lock.lock();
                while !b.workers_done() {
                    b.done_cv.wait(&mut guard);
                }
            }
        }
        let worker_panicked = b.panicked.swap(false, Ordering::SeqCst);
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a parpool worker panicked while executing a parallel region");
        }
    }

    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.inline(n) {
            (0..n).for_each(f);
            return;
        }
        let _poster = self.poster.lock();
        self.post(n, f);
    }

    pub fn run_sum(&self, n: usize, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        if n == 0 {
            return 0.0;
        }
        if self.inline(n) {
            // Left fold from 0.0 in index order — exactly the fold of the
            // partial buffer below, so the shortcut cannot change the sum.
            return (0..n).fold(0.0, |acc, i| acc + f(i));
        }
        let mut scratch = self.poster.lock();
        if scratch.partials.len() < n {
            scratch.partials.resize(n, 0.0);
        }
        {
            let slot = UnsafeSlice::new(&mut scratch.partials[..n]);
            // SAFETY: each index is visited exactly once → disjoint writes.
            self.post(n, &|i| unsafe { slot.set(i, f(i)) });
        }
        scratch.partials[..n].iter().sum()
    }

    pub fn run_sum4(&self, n: usize, f: &(dyn Fn(usize) -> [f64; 4] + Sync)) -> [f64; 4] {
        let add = |mut acc: [f64; 4], v: [f64; 4]| {
            for k in 0..4 {
                acc[k] += v[k];
            }
            acc
        };
        if n == 0 {
            return [0.0; 4];
        }
        if self.inline(n) {
            return (0..n).fold([0.0; 4], |acc, i| add(acc, f(i)));
        }
        let mut scratch = self.poster.lock();
        if scratch.partials4.len() < n {
            scratch.partials4.resize(n, [0.0; 4]);
        }
        {
            let slot = UnsafeSlice::new(&mut scratch.partials4[..n]);
            // SAFETY: disjoint per-index writes as in `run_sum`.
            self.post(n, &|i| unsafe { slot.set(i, f(i)) });
        }
        scratch.partials4[..n].iter().copied().fold([0.0; 4], add)
    }
}

/// Wait until `generation` moves past `seen`: spin and yield for the
/// wait budget, then park.
fn wait_for_generation(b: &Barrier, p: usize, seen: u64) -> u64 {
    let mut backoff = Backoff::new();
    loop {
        let g = b.generation.load(Ordering::Acquire);
        if g != seen {
            return g;
        }
        if !backoff.snooze() {
            let mut idle = b.idle.lock();
            // Re-check under the lock: the poster bumps the generation
            // *before* taking this lock to notify, so either we see the
            // bump here or its notify comes after we are waiting.
            let g = b.generation.load(Ordering::Acquire);
            if g != seen {
                return g;
            }
            b.metrics.worker_parked(p - 1);
            *idle += 1;
            b.idle_cv.wait(&mut idle);
            *idle -= 1;
            backoff = Backoff::new();
        }
    }
}

fn worker_loop(p: usize, barrier: Arc<Barrier>) {
    let mut seen = 0u64;
    loop {
        seen = wait_for_generation(&barrier, p, seen);
        if barrier.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the Acquire-observed bump published the job (see
        // `Sync for Barrier`), and the poster keeps the closure alive
        // until our `done` increment below (see `JobFn`).
        let (job, n) = unsafe { (*barrier.job.get()).expect("job published with generation") };
        let f = unsafe { &*job.ptr };
        if catch_unwind(AssertUnwindSafe(|| barrier.run_share(p, n, f))).is_err() {
            barrier.panicked.store(true, Ordering::SeqCst);
        }
        // Last access to the job; the last worker wakes a parked poster.
        if barrier.done.fetch_add(1, Ordering::AcqRel) + 1 == barrier.participants - 1 {
            let _guard = barrier.done_lock.lock();
            barrier.done_cv.notify_one();
        }
    }
}

impl Drop for ForkJoin {
    fn drop(&mut self) {
        let b = &*self.barrier;
        b.shutdown.store(true, Ordering::Release);
        // The bump wakes waiters and publishes the shutdown flag; the
        // notify wakes parked workers.
        b.generation.fetch_add(1, Ordering::Release);
        {
            let _idle = b.idle.lock();
            b.idle_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn team_of_one_spawns_no_workers() {
        for schedule in [Schedule::Static, Schedule::Dynamic] {
            let team = ForkJoin::new(1, schedule, "t");
            assert!(team.workers.is_empty());
            assert_eq!(team.run_sum(100, &|i| i as f64), 4950.0);
        }
    }

    #[test]
    fn caller_runs_participant_zero() {
        // Under the static schedule participant 0's block runs on the
        // posting thread itself.
        let team = ForkJoin::new(2, Schedule::Static, "t");
        let me = std::thread::current().id();
        let on_caller = AtomicUsize::new(0);
        team.run(100, &|i| {
            if std::thread::current().id() == me {
                assert!(i < 50, "index {i} is outside the caller's block");
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(on_caller.load(Ordering::Relaxed), 50);
    }
}
