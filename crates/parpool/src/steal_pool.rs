//! TBB-style dynamic scheduling on the fork-join core.
//!
//! The paper observed that Intel's OpenCL CPU runtime "uniquely doesn't use
//! OpenMP to handle the CPU parallelism, instead using Intel Thread
//! Building Blocks", whose "non-deterministic work-stealing scheduler" was
//! the suspected source of the large run-to-run variance (§4.1). This pool
//! keeps that schedule non-deterministic: participants claim chunks of
//! `max(4, n / (4·W))` indices from one shared atomic cursor, so which
//! thread runs which chunk depends on who arrives first. A chunk claimed
//! outside the claimer's static home block counts as a steal, which
//! exposes how much each region's schedule departed from a static one.
//!
//! The posting thread participates, like the TBB arena master. The
//! barrier, the poster lock and the allocation-free reductions are the
//! shared fork-join core (`fork_join.rs`), so results stay
//! bit-deterministic (writes are disjoint, reductions are index-ordered);
//! only the *schedule* varies from run to run.

use crate::executor::Executor;
use crate::fork_join::{ForkJoin, Schedule};
use crate::metrics::PoolMetrics;

/// Persistent dynamically scheduled thread pool. See module docs.
pub struct StealPool(ForkJoin);

impl StealPool {
    /// A pool of `n_threads`: the calling thread plus `n_threads − 1`
    /// spawned workers.
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        StealPool(ForkJoin::new(n_threads, Schedule::Dynamic, "parpool-steal"))
    }

    /// Steals recorded since pool creation — a visible imbalance signal.
    pub fn steal_count(&self) -> u64 {
        self.0.metrics().steals
    }

    /// Snapshot of the pool's scheduler counters since creation.
    pub fn metrics(&self) -> PoolMetrics {
        self.0.metrics()
    }
}

impl Executor for StealPool {
    fn threads(&self) -> usize {
        self.0.participants()
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.0.run(n, f)
    }

    fn run_sum(&self, n: usize, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        self.0.run_sum(n, f)
    }

    fn run_sum4(&self, n: usize, f: &(dyn Fn(usize) -> [f64; 4] + Sync)) -> [f64; 4] {
        self.0.run_sum4(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork_join::MIN_CHUNK;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn visits_every_index_once() {
        let pool = StealPool::new(4);
        let n = 100_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sum_matches_serial_bitwise() {
        let pool = StealPool::new(5);
        let f = |i: usize| ((i as f64) * 0.37).cos() * (i as f64 + 0.5);
        let par = pool.run_sum(30_000, &f);
        let ser = crate::SerialExec.run_sum(30_000, &f);
        assert_eq!(
            par, ser,
            "ordered reduction must be bit-identical even with stealing"
        );
    }

    #[test]
    fn repeated_regions() {
        let pool = StealPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(97, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 97);
    }

    #[test]
    fn uneven_work_gets_stolen() {
        // Front-loaded imbalance: every early index is slow, so whichever
        // participant is stuck in them leaves the rest of the range to
        // the others — including chunks of its own home block. Every
        // index still runs exactly once, and the departures from the
        // static blocks are counted.
        let pool = StealPool::new(4);
        let n = 256;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            if i < 32 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert!(pool.steal_count() > 0, "imbalance produced no steals");
    }

    #[test]
    fn small_n_runs_inline() {
        let pool = StealPool::new(4);
        let hits = AtomicUsize::new(0);
        pool.run(MIN_CHUNK, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), MIN_CHUNK);
        assert_eq!(pool.metrics().inline_runs, 1);
    }

    #[test]
    fn metrics_count_regions_and_steals() {
        let pool = StealPool::new(4);
        for _ in 0..20 {
            pool.run(512, &|_| {});
        }
        pool.run(MIN_CHUNK, &|_| {}); // one grain → inline
        let m = pool.metrics();
        assert_eq!(m.regions, 20);
        assert_eq!(m.inline_runs, 1);
        assert_eq!(m.steals, pool.steal_count());
        assert_eq!(m.worker_parks.len(), 3, "one slot per spawned worker");
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = StealPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                if i == 33 {
                    panic!("kernel fault");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(pool.run_sum(10, &|i| i as f64), 45.0);
    }
}
