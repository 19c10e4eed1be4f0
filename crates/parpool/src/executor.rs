//! The [`Executor`] abstraction and the serial reference implementation.

/// A parallel-for runtime over an index space `0..n`.
///
/// The programming-model crates (Kokkos/RAJA/directive/OpenCL/CUDA
//  analogues) all lower their dispatch onto an `Executor`.
pub trait Executor: Send + Sync {
    /// Number of worker threads that may execute items concurrently.
    fn threads(&self) -> usize;

    /// Execute `f(i)` for every `i in 0..n`. Blocks until all items ran.
    ///
    /// Items may run concurrently and in any order; callers must ensure
    /// writes are disjoint per item (TeaLeaf kernels write disjoint rows).
    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync));

    /// Deterministic parallel sum: computes `f(i)` for every index into a
    /// per-index partial buffer and sums the partials **in index order**.
    ///
    /// The result is bit-identical across executors and thread counts.
    fn run_sum(&self, n: usize, f: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        let mut partials = vec![0.0f64; n];
        {
            let slot = crate::shared::UnsafeSlice::new(&mut partials);
            self.run(n, &|i| {
                // SAFETY: each index `i` is visited exactly once, so every
                // write targets a distinct element.
                unsafe { slot.set(i, f(i)) };
            });
        }
        partials.iter().sum()
    }

    /// Deterministic 4-component sum (the TeaLeaf field summary computes
    /// volume/mass/internal-energy/temperature in one sweep): one
    /// `[f64; 4]` partial per index, combined in index order. A concrete
    /// arity (rather than `const K`) keeps the trait object-safe, letting
    /// pools override it with an allocation-free implementation.
    fn run_sum4(&self, n: usize, f: &(dyn Fn(usize) -> [f64; 4] + Sync)) -> [f64; 4] {
        // Not expressed via `run_sum_many` — that helper routes K == 4
        // calls back here so pools get their scratch fast path, and the
        // default must therefore be self-contained.
        let mut partials = vec![[0.0f64; 4]; n];
        {
            let slot = crate::shared::UnsafeSlice::new(&mut partials);
            self.run(n, &|i| {
                // SAFETY: disjoint per-index writes as in `run_sum`.
                unsafe { slot.set(i, f(i)) };
            });
        }
        let mut acc = [0.0f64; 4];
        for p in &partials {
            for k in 0..4 {
                acc[k] += p[k];
            }
        }
        acc
    }
}

/// Deterministic multi-component sum (e.g. a 4-way field summary): one
/// `[f64; K]` partial per index, combined in index order. Free function
/// (rather than a trait method) so [`Executor`] stays object-safe.
pub fn run_sum_many<const K: usize>(
    exec: &(impl Executor + ?Sized),
    n: usize,
    f: &(dyn Fn(usize) -> [f64; K] + Sync),
) -> [f64; K] {
    if K == 4 {
        // Route through the object-safe fixed-arity hook so pools can use
        // their allocation-free scratch; the fold order (per-index, per
        // component) is identical, so the result is bit-identical.
        let out = exec.run_sum4(n, &|i| {
            let v = f(i);
            [v[0], v[1], v[2], v[3]]
        });
        let mut acc = [0.0f64; K];
        acc.copy_from_slice(&out);
        return acc;
    }
    let mut partials = vec![[0.0f64; K]; n];
    {
        let slot = crate::shared::UnsafeSlice::new(&mut partials);
        exec.run(n, &|i| {
            // SAFETY: disjoint per-index writes as in `run_sum`.
            unsafe { slot.set(i, f(i)) };
        });
    }
    let mut acc = [0.0f64; K];
    for p in &partials {
        for k in 0..K {
            acc[k] += p[k];
        }
    }
    acc
}

/// Blocks per participant that [`run_each`] cuts an index space into.
/// Sixteen leaves the dynamic schedule its usual `4·W` chunks of four
/// blocks each, so `StealPool` still balances load as it does over
/// single indices.
const BLOCKS_PER_THREAD: usize = 16;

/// Number of contiguous blocks [`run_each`] lowers `n` indices onto for
/// an executor of `threads` participants: `min(n, 16·threads)`. Sized
/// from the executor, not from a fixed grain, so that a short index space
/// (a few hundred rows) still spreads over every participant.
pub fn block_count(threads: usize, n: usize) -> usize {
    n.min(BLOCKS_PER_THREAD * threads.max(1))
}

/// Run `f(i)` for every `i in 0..n`, lowered onto [`Executor::run`] as
/// [`block_count`] contiguous blocks: one dynamic call per block, inside
/// which `f` is a statically known type and inlines into a plain loop.
/// This is how the dispatch shims give per-index bodies (lambdas over a
/// cell index) the code generation of a hand-written row loop.
///
/// Every index runs exactly once; blocks may run concurrently and in any
/// order, indices within a block in ascending order. An executor inlines
/// the region exactly when it would inline `run(n, ..)`: the block count
/// is below the participant count exactly when `n` is, and is at most
/// one dynamic grain exactly when `n` is.
pub fn run_each<F>(exec: &(impl Executor + ?Sized), n: usize, f: &F)
where
    F: Fn(usize) + Sync + ?Sized,
{
    let blocks = block_count(exec.threads(), n);
    exec.run(blocks, &move |b| {
        run_block(f, b * n / blocks..(b + 1) * n / blocks);
    });
}

/// The loop of one [`run_each`] block. `f` arrives as a shared-reference
/// argument, so the compiler may keep its captures in registers across
/// iterations.
#[inline(always)]
fn run_block<F: Fn(usize) + ?Sized>(f: &F, range: std::ops::Range<usize>) {
    for i in range {
        f(i);
    }
}

/// Inline, single-threaded executor: the behavioural reference every pool
/// must agree with exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExec;

impl Executor for SerialExec {
    fn threads(&self) -> usize {
        1
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            f(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_visits_all_in_order() {
        let seen = std::sync::Mutex::new(Vec::new());
        SerialExec.run(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn serial_sum_matches_direct() {
        let s = SerialExec.run_sum(100, &|i| (i as f64).sqrt());
        let direct: f64 = (0..100).map(|i| (i as f64).sqrt()).sum();
        assert_eq!(s, direct);
    }

    #[test]
    fn sum_many_components() {
        let [a, b] = run_sum_many(&SerialExec, 10, &|i| [i as f64, 2.0 * i as f64]);
        assert_eq!(a, 45.0);
        assert_eq!(b, 90.0);
    }

    #[test]
    fn zero_items_is_noop() {
        let count = AtomicUsize::new(0);
        SerialExec.run(0, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        assert_eq!(SerialExec.run_sum(0, &|_| 1.0), 0.0);
    }
}
