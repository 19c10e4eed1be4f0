//! The block lowering of per-index bodies (`parpool::run_each`): every
//! index runs exactly once on every executor, short index spaces still
//! spread over the participants, the pools inline exactly the regions
//! they would inline for `run`, and `&dyn Fn` bodies still dispatch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use parpool::{
    block_count, run_each, Executor, PermutedExec, PoolMetrics, SerialExec, StaticPool, StealPool,
    TiledExec,
};

/// `run_each` over `n` on `exec`, asserting every index ran exactly once.
fn assert_each_once(label: &str, exec: &dyn Executor, n: usize) {
    let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    run_each(exec, n, &|i: usize| {
        counters[i].fetch_add(1, Ordering::Relaxed);
    });
    for (i, c) in counters.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "{label}, n={n}: index {i}");
    }
}

/// The trip counts around the block grain `g` (the index count at which
/// every block holds one index) and well past it, ragged.
fn sizes(exec: &dyn Executor) -> [usize; 6] {
    let w = exec.threads();
    let g = block_count(w, usize::MAX);
    [0, 1, g - 1, g, g + 1, 4 * w * g + 3]
}

#[test]
fn every_index_runs_exactly_once_on_every_executor() {
    let static1 = StaticPool::new(1);
    let static2 = StaticPool::new(2);
    let static4 = StaticPool::new(4);
    let steal2 = StealPool::new(2);
    let tiled = TiledExec::new(&static2, 7, 3);
    let permuted = PermutedExec::new(&steal2, 0x5eed);
    let execs: [(&str, &dyn Executor); 7] = [
        ("SerialExec", &SerialExec),
        ("StaticPool(1)", &static1),
        ("StaticPool(2)", &static2),
        ("StaticPool(4)", &static4),
        ("StealPool(2)", &steal2),
        ("TiledExec", &tiled),
        ("PermutedExec", &permuted),
    ];
    for (label, exec) in execs {
        for n in sizes(exec) {
            assert_each_once(label, exec, n);
        }
    }
}

/// Records the trip count of every region it forwards.
struct Recording<'a> {
    inner: &'a dyn Executor,
    regions: Mutex<Vec<usize>>,
}

impl Executor for Recording<'_> {
    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.regions.lock().unwrap().push(n);
        self.inner.run(n, f);
    }
}

#[test]
fn a_row_count_on_two_threads_splits_into_several_blocks() {
    // Regression: a fixed 256-index grain turned 256 row items into one
    // block, which ran on one thread.
    let pool = StaticPool::new(2);
    let rec = Recording {
        inner: &pool,
        regions: Mutex::new(Vec::new()),
    };
    assert_each_once("StaticPool(2)", &rec, 256);
    let regions = rec.regions.into_inner().unwrap();
    assert_eq!(regions.len(), 1, "one region per run_each");
    assert!(
        regions[0] >= 2,
        "256 rows on 2 threads ran as {} block(s)",
        regions[0]
    );
    assert!(regions[0] >= 4 * 2, "fewer than 4 blocks per participant");
}

#[test]
fn blocks_are_contiguous_and_ascending() {
    let order = Mutex::new(Vec::new());
    run_each(&SerialExec, 1000, &|i: usize| order.lock().unwrap().push(i));
    assert_eq!(order.into_inner().unwrap(), (0..1000).collect::<Vec<_>>());
}

#[test]
fn pools_inline_exactly_the_regions_run_would_inline() {
    let counts = |m: PoolMetrics| (m.regions, m.inline_runs);
    for n in [0, 1, 2, 3, 4, 5, 8, 31, 32, 33, 256, 10_000] {
        let (by_run, by_each) = (StaticPool::new(2), StaticPool::new(2));
        by_run.run(n, &|_| {});
        run_each(&by_each, n, &|_: usize| {});
        assert_eq!(
            counts(by_run.metrics()),
            counts(by_each.metrics()),
            "StaticPool, n={n}"
        );
        let (by_run, by_each) = (StealPool::new(2), StealPool::new(2));
        by_run.run(n, &|_| {});
        run_each(&by_each, n, &|_: usize| {});
        assert_eq!(
            counts(by_run.metrics()),
            counts(by_each.metrics()),
            "StealPool, n={n}"
        );
    }
}

#[test]
fn dyn_fn_bodies_still_dispatch() {
    let pool = StaticPool::new(2);
    let hits = AtomicUsize::new(0);
    let body: &(dyn Fn(usize) + Sync) = &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    };
    run_each(&pool, 500, body);
    let exec: &dyn Executor = &pool;
    run_each(exec, 500, body);
    assert_eq!(hits.load(Ordering::Relaxed), 1000);
}
