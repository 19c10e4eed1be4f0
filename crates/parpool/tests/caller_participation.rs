//! The invariants behind the pools' `unsafe` lifetime erasure.
//!
//! A region's body is a borrow of the posting thread's stack that the
//! workers reach through an erased pointer. That is sound only because the
//! posting thread — which runs participant 0's share itself — returns or
//! unwinds only after every worker has finished with the body. These tests
//! would fail if that ordering broke.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use parpool::{Executor, StaticPool, StealPool, UnsafeSlice};

#[test]
fn caller_panic_unwinds_only_after_workers_finish() {
    // Width 2, two indices: index 0 is the caller's block and panics at
    // once; index 1 is the worker's and sleeps before writing through a
    // borrow of this stack frame. The panic may leave `run` only after
    // that write.
    let pool = StaticPool::new(2);
    let mut out = [0u64; 2];
    let result = {
        let slot = UnsafeSlice::new(&mut out);
        catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|i| {
                if i == 0 {
                    panic!("caller block");
                }
                std::thread::sleep(Duration::from_millis(50));
                // SAFETY: only index 1 is written, by one participant.
                unsafe { slot.set(i, 42) };
            })
        }))
    };
    let payload = result.expect_err("the caller's panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"caller block"),
        "the caller's own panic payload is resumed"
    );
    assert_eq!(out[1], 42, "caller unwound before the worker finished");
    // The pool survives and the poster lock was released.
    assert_eq!(pool.run_sum(10, &|i| i as f64), 45.0);
}

#[test]
fn the_caller_is_the_first_participant() {
    // A pool of W threads spawns W − 1 workers: one park slot each, and
    // none at all for a pool of one, which runs every region inline.
    for w in [1, 2, 4] {
        assert_eq!(StaticPool::new(w).threads(), w);
        assert_eq!(StealPool::new(w).threads(), w);
        assert_eq!(StaticPool::new(w).metrics().worker_parks.len(), w - 1);
        assert_eq!(StealPool::new(w).metrics().worker_parks.len(), w - 1);
    }
    let pool = StaticPool::new(1);
    let me = std::thread::current().id();
    pool.run(100, &|_| assert_eq!(std::thread::current().id(), me));
    assert_eq!(pool.metrics().regions, 0, "a pool of one runs inline");
}
