//! Scheduler metrics for the fork-join pools.
//!
//! Both pools count the events the paper's §4.1 discussion turns on —
//! fork-join regions, inline fast-path dispatches, work steals, and
//! spin→park transitions (the expensive path of the generation barrier) —
//! using relaxed atomics owned by the shared pool state. Counting is
//! always on: a relaxed `fetch_add` on a per-worker cache line is noise
//! next to a condvar park or a steal, and it keeps the pools free of any
//! telemetry plumbing. [`PoolMetrics`] is the plain snapshot handed to
//! observers.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::shared::CachePadded;

/// Live counters embedded in a pool's shared state.
///
/// Poster-side counters (`regions`, `inline_runs`, `poster_parks`) are
/// bumped by the posting thread; `steals` is added at most once per
/// participant per region, and the per-worker park slots are padded to their own
/// cache lines so counting never induces sharing between workers.
#[derive(Debug)]
pub(crate) struct Counters {
    pub regions: AtomicU64,
    pub inline_runs: AtomicU64,
    pub poster_parks: AtomicU64,
    pub steals: AtomicU64,
    worker_parks: Vec<CachePadded<AtomicU64>>,
}

impl Counters {
    /// Counters with one park slot per spawned worker.
    pub fn new(workers: usize) -> Self {
        Counters {
            regions: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            poster_parks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            worker_parks: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Record one spin→park transition for `worker`.
    #[inline]
    pub fn worker_parked(&self, worker: usize) {
        self.worker_parks[worker].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> PoolMetrics {
        PoolMetrics {
            regions: self.regions.load(Ordering::Relaxed),
            inline_runs: self.inline_runs.load(Ordering::Relaxed),
            poster_parks: self.poster_parks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            worker_parks: self
                .worker_parks
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time snapshot of a pool's scheduler counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolMetrics {
    /// Parallel regions dispatched through the worker pool.
    pub regions: u64,
    /// Regions executed inline on the posting thread (n too small to
    /// amortise the barrier).
    pub inline_runs: u64,
    /// Times the poster exhausted its wait budget and parked waiting for
    /// region completion.
    pub poster_parks: u64,
    /// Chunks run outside their claimer's static home block
    /// ([`crate::StealPool`] only; 0 for the static pool, whose schedule
    /// has nothing to steal).
    pub steals: u64,
    /// Per-worker spin→park transitions while waiting for work, one slot
    /// per spawned worker (a pool of `W` threads spawns `W − 1`; the
    /// posting thread's waits are `poster_parks`).
    pub worker_parks: Vec<u64>,
}

impl PoolMetrics {
    /// Total spin→park transitions across all workers.
    pub fn total_worker_parks(&self) -> u64 {
        self.worker_parks.iter().sum()
    }

    /// Counter deltas since `earlier` (per-worker parks diffed slot-wise).
    pub fn since(&self, earlier: &PoolMetrics) -> PoolMetrics {
        PoolMetrics {
            regions: self.regions - earlier.regions,
            inline_runs: self.inline_runs - earlier.inline_runs,
            poster_parks: self.poster_parks - earlier.poster_parks,
            steals: self.steals - earlier.steals,
            worker_parks: self
                .worker_parks
                .iter()
                .enumerate()
                .map(|(w, &p)| p - earlier.worker_parks.get(w).copied().unwrap_or(0))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_all_counters() {
        let c = Counters::new(3);
        c.regions.fetch_add(5, Ordering::Relaxed);
        c.inline_runs.fetch_add(2, Ordering::Relaxed);
        c.steals.fetch_add(7, Ordering::Relaxed);
        c.worker_parked(1);
        c.worker_parked(1);
        c.worker_parked(2);
        let m = c.snapshot();
        assert_eq!(m.regions, 5);
        assert_eq!(m.inline_runs, 2);
        assert_eq!(m.poster_parks, 0);
        assert_eq!(m.steals, 7);
        assert_eq!(m.worker_parks, vec![0, 2, 1]);
        assert_eq!(m.total_worker_parks(), 3);
    }

    #[test]
    fn since_diffs_slotwise() {
        let c = Counters::new(2);
        c.regions.fetch_add(10, Ordering::Relaxed);
        c.worker_parked(0);
        let before = c.snapshot();
        c.regions.fetch_add(4, Ordering::Relaxed);
        c.worker_parked(0);
        c.worker_parked(1);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.regions, 4);
        assert_eq!(delta.worker_parks, vec![1, 1]);
    }
}
