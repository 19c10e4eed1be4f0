//! Concurrent-poster stress: several threads posting regions to one
//! executor at once.
//!
//! Every safe `Executor` must stay sound when shared: the shared global
//! pools back ports that tests drive from parallel test threads. Each
//! case runs 2 or 4 posting threads × 200 regions, mixing `run`,
//! `run_sum` and `run_sum4`, and checks the visit totals and that every
//! reduction is bit-identical to `SerialExec`. A case runs on its own
//! thread under a timeout, so a hung pool fails with a message instead of
//! stalling the suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use parpool::{Executor, PermutedExec, SerialExec, StaticPool, StealPool, TiledExec};

const REGIONS: usize = 200;
const POSTERS: [usize; 2] = [2, 4];
const WIDTHS: [usize; 2] = [2, 4];
const TIMEOUT: Duration = Duration::from_secs(60);

fn f(i: usize) -> f64 {
    ((i as f64) * 0.37).sin() / ((i % 11) as f64 + 0.5)
}

fn f4(i: usize) -> [f64; 4] {
    [f(i), -2.0 * f(i), i as f64, 1.0e16 * f(i)]
}

/// `posters` threads each post [`REGIONS`] regions of varying sizes
/// (some below the inline thresholds) to `exec`.
fn hammer(exec: &dyn Executor, posters: usize) {
    let visits = AtomicUsize::new(0);
    let expected = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..posters {
            let (visits, expected) = (&visits, &expected);
            scope.spawn(move || {
                for r in 0..REGIONS {
                    let n = 1 + (t * 97 + r * 31) % 400;
                    match r % 3 {
                        0 => {
                            exec.run(n, &|_| {
                                visits.fetch_add(1, Ordering::Relaxed);
                            });
                            expected.fetch_add(n, Ordering::Relaxed);
                        }
                        1 => assert_eq!(
                            exec.run_sum(n, &f),
                            SerialExec.run_sum(n, &f),
                            "poster {t} region {r}: run_sum({n}) diverged"
                        ),
                        _ => assert_eq!(
                            exec.run_sum4(n, &f4),
                            SerialExec.run_sum4(n, &f4),
                            "poster {t} region {r}: run_sum4({n}) diverged"
                        ),
                    }
                }
            });
        }
    });
    assert_eq!(
        visits.load(Ordering::Relaxed),
        expected.load(Ordering::Relaxed),
        "lost or duplicated indices"
    );
}

/// Run one case on its own thread; fail loudly if it panics or hangs.
fn case(name: String, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            body();
            let _ = tx.send(());
        })
        .expect("spawn case thread");
    match rx.recv_timeout(TIMEOUT) {
        Ok(()) => handle.join().expect("case thread"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!(
                "{name}: no result after {TIMEOUT:?}; the executor hung under concurrent posters"
            )
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// How a case presents its pool to the posting threads.
#[derive(Debug, Clone, Copy)]
enum Wrapper {
    Bare,
    Tiled,
    Permuted,
}

/// Every width × poster count for `wrapper` around a fresh pool.
fn sweep<P: Executor + 'static>(label: &str, make: fn(usize) -> P, wrapper: Wrapper) {
    for width in WIDTHS {
        for posters in POSTERS {
            case(
                format!("{wrapper:?} {label}({width}) × {posters} posters"),
                move || {
                    let pool = make(width);
                    match wrapper {
                        Wrapper::Bare => hammer(&pool, posters),
                        Wrapper::Tiled => hammer(&TiledExec::new(&pool, 7, 3), posters),
                        Wrapper::Permuted => hammer(&PermutedExec::new(&pool, 0xC0FFEE), posters),
                    }
                },
            );
        }
    }
}

#[test]
fn static_pool_survives_concurrent_posters() {
    sweep("StaticPool", StaticPool::new, Wrapper::Bare);
}

#[test]
fn steal_pool_survives_concurrent_posters() {
    sweep("StealPool", StealPool::new, Wrapper::Bare);
}

#[test]
fn tiled_exec_survives_concurrent_posters() {
    sweep("StaticPool", StaticPool::new, Wrapper::Tiled);
    sweep("StealPool", StealPool::new, Wrapper::Tiled);
}

#[test]
fn permuted_exec_survives_concurrent_posters() {
    sweep("StaticPool", StaticPool::new, Wrapper::Permuted);
    sweep("StealPool", StealPool::new, Wrapper::Permuted);
}
