//! # parpool
//!
//! Host-side parallel execution substrate for the TeaLeaf reproduction.
//!
//! The paper's CPU results are produced by two very different runtimes:
//! OpenMP's fork-join teams with *static* chunk scheduling, and Intel's
//! OpenCL CPU implementation built on TBB's *work-stealing* scheduler
//! (§4.1 — the source of the OpenCL CPU variance). Both are one
//! fork-join core (`fork_join.rs`) with a schedule:
//!
//! * [`StaticPool`] — one contiguous index block per participant. Models
//!   OpenMP `schedule(static)` with pinned threads.
//! * [`StealPool`] — participants claim chunks from a shared cursor in
//!   arrival order, and a steal counter shows how far each schedule
//!   strayed from the static one. Models TBB.
//! * [`SerialExec`] — inline execution, the determinism reference.
//!
//! The core is persistent and caller-participating: a pool of `W`
//! threads spawns `W − 1` workers and the posting thread runs the first
//! share, as the OpenMP master thread and the TBB arena master do.
//! Regions meet at a generation barrier, and a poster lock serialises
//! concurrent posters and owns the reduction scratch.
//!
//! A region's body is one `&dyn Fn(usize)` call per index. Programming-
//! model shims whose bodies are per-index lambdas dispatch through
//! [`run_each`] instead: it cuts the index space into
//! [`block_count`]`(W, n)` contiguous blocks, one dynamic call each, so
//! the lambda inlines into a loop the compiler can vectorise. It inlines
//! exactly the regions `run` would inline.
//!
//! All three implement [`Executor`]. Reductions are **deterministic by
//! construction**: every executor computes one partial per index and the
//! partials are summed in index order, so any thread count, any scheduler
//! and any executor produce bit-identical results — the property the
//! cross-port consistency tests rely on.
//!
//! ## Example
//!
//! ```
//! use parpool::{Executor, SerialExec, StaticPool};
//!
//! let pool = StaticPool::new(4);
//! let f = |i: usize| (i as f64).sqrt();
//! // ordered per-index partials make the parallel sum bit-identical to serial
//! assert_eq!(pool.run_sum(1000, &f), SerialExec.run_sum(1000, &f));
//! ```

pub mod executor;
mod fork_join;
pub mod metrics;
pub mod permute;
pub mod shared;
pub mod static_pool;
pub mod steal_pool;
pub mod tiled;

pub use executor::{block_count, run_each, run_sum_many, Executor, SerialExec};
pub use metrics::PoolMetrics;
pub use permute::PermutedExec;
pub use shared::UnsafeSlice;
pub use static_pool::StaticPool;
pub use steal_pool::StealPool;
pub use tiled::TiledExec;

use std::sync::OnceLock;

/// Default worker count: `PARPOOL_THREADS` when set (how the conformance
/// golden matrix pins 1/2/4-thread runs — the analogue of
/// `OMP_NUM_THREADS`), otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PARPOOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Shared process-wide static pool (created on first use).
pub fn global_static() -> &'static StaticPool {
    static POOL: OnceLock<StaticPool> = OnceLock::new();
    POOL.get_or_init(|| StaticPool::new(default_threads()))
}

/// Shared process-wide work-stealing pool (created on first use).
pub fn global_steal() -> &'static StealPool {
    static POOL: OnceLock<StealPool> = OnceLock::new();
    POOL.get_or_init(|| StealPool::new(default_threads()))
}
