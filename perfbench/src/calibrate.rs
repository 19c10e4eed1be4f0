//! Calibration runs: the per-event cost of the `parpool` and `simdev`
//! boundaries, timed directly on the driving thread before any solve.
//!
//! Each calibration takes several batches and keeps every batch's
//! per-event time, so the derived dispatch and charge estimates carry the
//! calibration's own spread as an error bar.

use std::hint::black_box;
use std::time::Instant;

use parpool::Executor;
use simdev::DeviceSpec;
use tealeaf::{ModelId, Problem};

const BATCHES: usize = 11;
const REGIONS_PER_BATCH: usize = 64;
const LAUNCH_ROUNDS_PER_BATCH: usize = 20;

/// Per-event nanoseconds, one sample per batch.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    /// One `StaticPool` region (`run` and `run_sum` alternately) over the
    /// workload's row count.
    pub region_ns: Vec<f64>,
    /// The same on the work-stealing pool.
    pub steal_region_ns: Vec<f64>,
    /// One `SimContext::launch` over the IR kernel profiles.
    pub launch_ns: Vec<f64>,
}

/// Time the global pools' regions at `rows` indices and `SimContext::launch`
/// for every (model, device) pair of the workload over `problem`'s mesh.
pub fn calibrate(
    rows: usize,
    pairs: &[(ModelId, DeviceSpec)],
    problem: &Problem,
    seed: u64,
) -> Calibration {
    Calibration {
        region_ns: time_regions(parpool::global_static(), rows),
        steal_region_ns: time_regions(parpool::global_steal(), rows),
        launch_ns: time_launches(pairs, problem, seed),
    }
}

fn time_regions(pool: &dyn Executor, rows: usize) -> Vec<f64> {
    let body = |i: usize| {
        black_box(i);
    };
    let sum = |i: usize| black_box(i) as f64;
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for r in 0..REGIONS_PER_BATCH {
                if r % 2 == 0 {
                    pool.run(rows, &body);
                } else {
                    black_box(pool.run_sum(rows, &sum));
                }
            }
            t.elapsed().as_nanos() as f64 / REGIONS_PER_BATCH as f64
        })
        .collect()
}

fn time_launches(pairs: &[(ModelId, DeviceSpec)], problem: &Problem, seed: u64) -> Vec<f64> {
    let cells = (problem.mesh.x_cells * problem.mesh.y_cells) as u64;
    let profiles: Vec<_> = tealeaf::ir::KERNELS
        .iter()
        .map(|k| k.profile(cells, false))
        .collect();
    let contexts: Vec<_> = pairs
        .iter()
        .map(|(model, device)| {
            tealeaf::ports::common::make_context(*model, device.clone(), problem, seed)
        })
        .collect();
    let launches = (LAUNCH_ROUNDS_PER_BATCH * contexts.len() * profiles.len()).max(1);
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..LAUNCH_ROUNDS_PER_BATCH {
                for ctx in &contexts {
                    for p in &profiles {
                        black_box(ctx.launch(black_box(p)));
                    }
                }
            }
            t.elapsed().as_nanos() as f64 / launches as f64
        })
        .collect()
}
