//! OpenMP-style static scheduling on the fork-join core.
//!
//! A region over `n` indices gives participant `p` of `W` the contiguous
//! block `[p·n/W, (p+1)·n/W)` — the analogue of `#pragma omp parallel for
//! schedule(static)` with `OMP_PROC_BIND=close`, which is how the paper
//! ran its CPU and KNC experiments (§4.1, §4.3: "thread affinity set to
//! compact"). The posting thread is participant 0, like the OpenMP master
//! thread, so a pool of `W` threads spawns `W − 1` workers. The barrier,
//! the poster lock and the allocation-free reductions are the shared
//! fork-join core (`fork_join.rs`).

use crate::executor::Executor;
use crate::fork_join::{ForkJoin, Schedule};
use crate::metrics::PoolMetrics;

/// Persistent static-scheduling thread pool. See module docs.
pub struct StaticPool(ForkJoin);

impl StaticPool {
    /// A pool of `n_threads`: the calling thread plus `n_threads − 1`
    /// spawned workers.
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        StaticPool(ForkJoin::new(n_threads, Schedule::Static, "parpool-static"))
    }

    /// Snapshot of the pool's scheduler counters since creation.
    pub fn metrics(&self) -> PoolMetrics {
        self.0.metrics()
    }
}

impl Executor for StaticPool {
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
    use crate::StealPool;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn visits_every_index_once() {
        let pool = StaticPool::new(4);
        let n = 100_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sum_matches_serial_bitwise() {
        let pool = StaticPool::new(7);
        let f = |i: usize| ((i as f64) * 0.1).sin() / (i as f64 + 1.0);
        let par = pool.run_sum(50_000, &f);
        let ser = crate::SerialExec.run_sum(50_000, &f);
        assert_eq!(par, ser, "ordered reduction must be bit-identical");
    }

    #[test]
    fn sum_bit_identical_across_inline_and_pool_paths() {
        // Pin the inline shortcuts (n < n_threads on the static pool, one
        // grain on the stealing pool) to the exact same fold as the pooled
        // partial-buffer path and as SerialExec, for trip counts
        // straddling every dispatch-path boundary.
        let t = 6;
        let static_pool = StaticPool::new(t);
        let steal_pool = StealPool::new(t);
        let pools: [&dyn Executor; 2] = [&static_pool, &steal_pool];
        let f = |i: usize| ((i as f64) * 0.37).cos() / ((i % 13) as f64 + 0.5);
        for (k, pool) in pools.into_iter().enumerate() {
            for n in [0, 1, 4, 5, t - 1, t, 10 * t] {
                let par = pool.run_sum(n, &f);
                let ser = crate::SerialExec.run_sum(n, &f);
                assert_eq!(
                    par, ser,
                    "pool #{k} n = {n}: inline/pool path changed the reduction"
                );
                let par4 = pool.run_sum4(n, &|i| [f(i), 2.0 * f(i), -f(i), 0.0]);
                let ser4 = crate::SerialExec.run_sum4(n, &|i| [f(i), 2.0 * f(i), -f(i), 0.0]);
                assert_eq!(par4, ser4, "pool #{k} n = {n}: run_sum4 diverged");
            }
        }
    }

    #[test]
    fn run_sum_is_reusable_and_scratch_grows() {
        let pool = StaticPool::new(4);
        // Descending sizes exercise the grow-only scratch with stale tail
        // contents; ascending re-grow after shrink.
        for n in [10_000, 100, 10_000, 64, 4, 1] {
            let par = pool.run_sum(n, &|i| 1.0 / (i as f64 + 1.0));
            let ser = crate::SerialExec.run_sum(n, &|i| 1.0 / (i as f64 + 1.0));
            assert_eq!(par, ser, "n = {n}");
        }
    }

    #[test]
    fn many_regions_back_to_back() {
        let pool = StaticPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.run(64, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 500 * 64);
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = StaticPool::new(4);
        let hit = AtomicUsize::new(0);
        pool.run(1, &|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn n_smaller_than_threads() {
        let pool = StaticPool::new(8);
        let counters: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run(3, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parked_workers_wake_after_idle_gap() {
        let pool = StaticPool::new(4);
        pool.run(64, &|_| {});
        // Long enough for every worker to spend its wait budget and park.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let s = pool.run_sum(1000, &|i| i as f64);
        assert_eq!(s, 499_500.0);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = StaticPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // pool must still be usable afterwards
        let s = pool.run_sum(10, &|i| i as f64);
        assert_eq!(s, 45.0);
    }

    #[test]
    fn metrics_count_regions_inline_runs_and_parks() {
        let pool = StaticPool::new(4);
        for _ in 0..10 {
            pool.run(256, &|_| {});
        }
        pool.run(2, &|_| {}); // below n_threads → inline
        let m = pool.metrics();
        assert_eq!(m.regions, 10);
        assert_eq!(m.inline_runs, 1);
        assert_eq!(m.steals, 0, "static schedule has nothing to steal");
        assert_eq!(m.worker_parks.len(), 3, "one slot per spawned worker");
        // Let every worker spend its wait budget and park, then verify the
        // next region still works and the park was counted.
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.run(256, &|_| {});
        let m = pool.metrics();
        assert!(
            m.total_worker_parks() >= 1,
            "idle gap should park at least one worker"
        );
        assert_eq!(m.since(&pool.metrics()).regions, 0);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = StaticPool::new(2);
        pool.run(4, &|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn drop_wakes_parked_workers() {
        let pool = StaticPool::new(2);
        pool.run(4, &|_| {});
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(pool); // workers are parked; drop must still not hang
    }
}
