//! # tea-perfbench
//!
//! The wall-clock benchmark of the TeaLeaf reproduction. One run solves a
//! workload's cases in whole passes on a single driving thread for a
//! fixed time, checks every solve bit-for-bit against the Serial port,
//! and reports either the end-to-end metrics (untraced) or the per-layer
//! metrics (traced). Layers are measured from outside, at their public
//! functions: `TeaLeafPort` calls, `parpool` pool counters, the `simdev`
//! clock snapshot, `run_simulation_traced`, and the distributed entry
//! points with their transport, overlap and checkpoint counters.

pub mod calibrate;
pub mod heap;
pub mod metrics;
pub mod solve;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workload;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tealeaf::driver::powered_device;
use tealeaf::ports::make_port;
use tealeaf::{ModelId, Problem};

pub use metrics::Outcome;
pub use solve::PortHook;
pub use workload::Workload;

use calibrate::Calibration;
use solve::{Ctx, Solve, Variant};
use trace::{Layer, Span, Trace};
use workload::{model_slug, Case, Plan};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Pool threads every run pins through `PARPOOL_THREADS`.
pub const POOL_THREADS: usize = 2;

/// Passes every untraced run makes, however long they take.
const MIN_PASSES: usize = 3;
const POOL_SPAWN_REPS: usize = 9;
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_MIN_TIME: Duration = Duration::from_millis(250);

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Seeds the simulated OpenCL CPU jitter and the transport.
    pub seed: u64,
    /// How long the measured passes may take; an untraced run makes at
    /// least [`MIN_PASSES`] passes and a traced run at least one round.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Mesh side override (tests use tiny meshes).
    pub cells: Option<usize>,
    /// Wraps every measured port before it is driven.
    pub hook: Option<PortHook>,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Run the benchmark: `Ok` with the result line's content (which may
/// report failed solves), `Err` when the run could not be set up at all.
pub fn run(spec: &Spec) -> Result<Outcome, String> {
    let plan = spec.workload.plan(spec.cells);
    let setup = measure_setup(&plan, spec.seed)?;
    let refs = plan
        .problems
        .iter()
        .map(|cfg| solve::reference(cfg, spec.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let ctx = Ctx {
        problems: &plan.problems,
        refs: &refs,
        seed: spec.seed,
        epoch: Instant::now(),
        hook: spec.hook,
    };
    if spec.trace {
        traced(spec, &plan, &ctx, &setup)
    } else {
        Ok(untraced(spec, &plan, &ctx, &setup))
    }
}

/// Median set-up times over repeated set-ups of a whole pass.
#[derive(Debug, Clone, Copy)]
struct Setup {
    problem_s: f64,
    port_s: f64,
    pass_s: f64,
    pool_spawn_s: f64,
}

fn measure_setup(plan: &Plan, seed: u64) -> Result<Setup, String> {
    // First touch of the global pools, before anything else is timed.
    parpool::global_static();
    parpool::global_steal();
    let threads = parpool::default_threads();
    let spawn: Vec<f64> = (0..POOL_SPAWN_REPS)
        .map(|_| {
            let t = Instant::now();
            let pools = (
                parpool::StaticPool::new(threads),
                parpool::StealPool::new(threads),
            );
            let s = t.elapsed().as_secs_f64();
            drop(pools);
            s
        })
        .collect();
    let (mut problem_s, mut port_s, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while pass_s.len() < SETUP_MIN_REPS
        || (start.elapsed() < SETUP_MIN_TIME && pass_s.len() < SETUP_MAX_REPS)
    {
        let (mut problem, mut port) = (0.0, 0.0);
        for case in &plan.cases {
            let Case::Port {
                problem: p,
                model,
                device,
            } = case
            else {
                continue;
            };
            let cfg = &plan.problems[*p];
            let t0 = Instant::now();
            let built = Problem::from_config(cfg).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let made = make_port(*model, powered_device(device, cfg), &built, seed)
                .map_err(|e| e.to_string())?;
            port += t1.elapsed().as_secs_f64();
            problem += (t1 - t0).as_secs_f64();
            drop(made);
        }
        problem_s.push(problem);
        port_s.push(port);
        pass_s.push(problem + port);
    }
    Ok(Setup {
        problem_s: stats::median(&problem_s),
        port_s: stats::median(&port_s),
        pass_s: stats::median(&pass_s),
        pool_spawn_s: stats::median(&spawn),
    })
}

/// Repeat `pass` at least `min` times, then while another pass like the
/// last is predicted to end within `seconds`. Returns each pass's wall
/// time.
fn repeat_passes(seconds: f64, min: usize, mut pass: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        pass(walls.len());
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        if walls.len() >= min && start.elapsed().as_secs_f64() + wall > seconds {
            return walls;
        }
    }
}

fn run_pass(plan: &Plan, ctx: &Ctx, pass: usize, variant: Variant, out: &mut Vec<Solve>) {
    for (index, case) in plan.cases.iter().enumerate() {
        if variant == Variant::Telemetry && matches!(case, Case::Distributed { .. }) {
            continue;
        }
        let mut solve = ctx.run(index, case, variant);
        solve.pass = pass;
        out.push(solve);
    }
}

/// Simulated seconds and launches must repeat exactly for every solve of
/// one case, whatever the variant or pass: mark any solve that does not.
fn check_repeatable(plan: &Plan, solves: &mut [Solve]) {
    let mut first: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for s in solves.iter_mut() {
        if !matches!(plan.cases[s.case], Case::Port { .. }) || !s.ok() {
            continue;
        }
        let key = (s.sim.seconds.to_bits(), s.sim.kernels);
        let want = *first.entry(s.case).or_insert(key);
        if key != want {
            s.failure = Some(format!(
                "simulated time/launches {:?} differ from an earlier solve's {:?}",
                key, want
            ));
        }
    }
}

fn tally(solves: &[Solve]) -> (u64, u64) {
    let failed = solves.iter().filter(|s| !s.ok()).count() as u64;
    (solves.len() as u64, failed)
}

fn report_failures(plan: &Plan, solves: &[Solve]) {
    for s in solves.iter().filter(|s| !s.ok()) {
        eprintln!(
            "FAILED {}: {}",
            label(plan, &plan.cases[s.case]),
            s.failure.as_deref().unwrap_or("")
        );
    }
}

fn untraced(spec: &Spec, plan: &Plan, ctx: &Ctx, setup: &Setup) -> Outcome {
    let mut solves = Vec::new();
    let walls = repeat_passes(spec.seconds, MIN_PASSES, |pass| {
        run_pass(plan, ctx, pass, Variant::Plain, &mut solves)
    });
    check_repeatable(plan, &mut solves);
    report_failures(plan, &solves);
    let (attempted, failed) = tally(&solves);
    let pass = median_pass(plan, &solves);
    let work: f64 = pass.iter().map(|&(w, _)| w).sum();
    let wall: f64 = pass.iter().map(|&(_, t)| t).sum();
    let case_walls: Vec<f64> = pass.iter().map(|&(_, t)| t).collect();
    let slowest = case_walls.iter().copied().fold(0.0, f64::max);
    println!(
        "# {}: {} passes of {} cases, {} solves; solve_s_p50 and solve_s_tail over the per-case medians",
        spec.workload.name(),
        walls.len(),
        plan.cases.len(),
        solves.len(),
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("cell_iters_per_s".into(), work / wall, "cell-iter/s"),
            ("solve_s_p50".into(), stats::median(&case_walls), "s"),
            ("solve_s_tail".into(), slowest, "s"),
            ("setup_s".into(), setup.pass_s + setup.pool_spawn_s, "s"),
            ("peak_heap_mb".into(), heap_mb(), "MB"),
        ],
    }
}

/// The "median pass": for each case, its cell-iterations and its median
/// solve time over the run, so a burst of host contention during one
/// pass moves no figure built from it.
fn median_pass(plan: &Plan, solves: &[Solve]) -> Vec<(f64, f64)> {
    (0..plan.cases.len())
        .map(|case| {
            let mine: Vec<&Solve> = solves.iter().filter(|s| s.case == case).collect();
            let walls: Vec<f64> = mine.iter().map(|s| s.wall_s()).collect();
            let iterations: Vec<f64> = mine.iter().map(|s| s.iterations as f64).collect();
            let cells = mine.first().map_or(0, |s| s.cells) as f64;
            (cells * stats::median(&iterations), stats::median(&walls))
        })
        .collect()
}

fn label(plan: &Plan, case: &Case) -> String {
    let solver = plan.problems[case.problem()].solver.name();
    match case {
        Case::Port { model, device, .. } => {
            format!("{solver}/{}/{}", device.kind.name(), model_slug(*model))
        }
        Case::Distributed {
            grid: (x, y),
            resilient,
            ..
        } => {
            let entry = if *resilient { "resilient" } else { "plain" };
            format!("{solver}/dist-{x}x{y}/{entry}")
        }
    }
}

/// Record a traced solve: its setup span, its solve span with the pool
/// and clock counters attached, and one span per port call.
fn record(trace: &mut Trace, root: usize, plan: &Plan, s: &Solve) {
    let name = label(plan, &plan.cases[s.case]);
    let distributed = matches!(plan.cases[s.case], Case::Distributed { .. });
    if !distributed {
        trace.push(Span {
            parent: Some(root),
            layer: Layer::Setup,
            name: Cow::Owned(format!("setup {name}")),
            start_ns: s.start_ns,
            end_ns: s.setup_end_ns,
            attrs: Vec::new(),
        });
    }
    let mut attrs = vec![
        ("iterations", s.iterations as f64),
        ("ok", if s.ok() { 1.0 } else { 0.0 }),
    ];
    if distributed {
        attrs.extend([
            ("messages", s.dist.messages as f64),
            ("elements", s.dist.elements as f64),
            ("windows", s.dist.windows as f64),
            ("checkpoints", s.dist.checkpoints as f64),
        ]);
    } else {
        attrs.extend([
            ("sim_s", s.sim.seconds),
            ("launches", s.sim.kernels as f64),
            (
                "regions",
                (s.static_pool.regions + s.steal_pool.regions) as f64,
            ),
            (
                "inline_runs",
                (s.static_pool.inline_runs + s.steal_pool.inline_runs) as f64,
            ),
            (
                "poster_parks",
                (s.static_pool.poster_parks + s.steal_pool.poster_parks) as f64,
            ),
            (
                "worker_parks",
                (s.static_pool.total_worker_parks() + s.steal_pool.total_worker_parks()) as f64,
            ),
            ("steals", s.steal_pool.steals as f64),
        ]);
    }
    let solve = trace.push(Span {
        parent: Some(root),
        layer: if distributed {
            Layer::Distributed
        } else {
            Layer::Solver
        },
        name: Cow::Owned(name),
        start_ns: s.setup_end_ns,
        end_ns: s.solve_end_ns,
        attrs,
    });
    for call in &s.calls {
        trace.push(Span {
            parent: Some(solve),
            layer: Layer::Ports,
            name: Cow::Borrowed(call.method.name()),
            start_ns: call.start_ns,
            end_ns: call.end_ns,
            attrs: Vec::new(),
        });
    }
}

fn traced(spec: &Spec, plan: &Plan, ctx: &Ctx, setup: &Setup) -> Result<Outcome, String> {
    let pairs: Vec<(ModelId, simdev::DeviceSpec)> = plan
        .cases
        .iter()
        .filter_map(|c| match c {
            Case::Port { model, device, .. } => Some((*model, device.clone())),
            Case::Distributed { .. } => None,
        })
        .collect();
    let first = Problem::from_config(&plan.problems[0]).map_err(|e| e.to_string())?;
    let calib = calibrate::calibrate(plan.problems[0].y_cells, &pairs, &first, spec.seed);
    drop(first);

    let mut trace = Trace::default();
    let (mut plain, mut telemetry, mut timed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_walls, mut timed_walls) = (Vec::new(), Vec::new());
    repeat_passes(spec.seconds, 1, |pass| {
        let t = Instant::now();
        run_pass(plan, ctx, pass, Variant::Plain, &mut plain);
        plain_walls.push(t.elapsed().as_secs_f64());
        run_pass(plan, ctx, pass, Variant::Telemetry, &mut telemetry);
        let root = trace.push(Span {
            parent: None,
            layer: Layer::Bench,
            name: Cow::Borrowed(spec.workload.name()),
            start_ns: ctx.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            attrs: Vec::new(),
        });
        let t = Instant::now();
        let from = timed.len();
        run_pass(plan, ctx, pass, Variant::Timed, &mut timed);
        for s in &timed[from..] {
            record(&mut trace, root, plan, s);
        }
        timed_walls.push(t.elapsed().as_secs_f64());
        trace.spans[root].end_ns = ctx.epoch.elapsed().as_nanos() as u64;
    });

    let mut all: Vec<Solve> = Vec::new();
    all.append(&mut plain);
    let n_plain = all.len();
    all.append(&mut telemetry);
    let n_telemetry = all.len() - n_plain;
    all.append(&mut timed);
    check_repeatable(plan, &mut all);
    report_failures(plan, &all);
    let (attempted, failed) = tally(&all);
    let (plain, rest) = all.split_at(n_plain);
    let (telemetry, timed) = rest.split_at(n_telemetry);

    let mut notes = trace.validate();
    let layers = trace.layer_self_s();
    let unattributed = layers[0];
    let attributed: f64 = layers[1..].iter().sum();
    let traced_wall: f64 = timed_walls.iter().sum();
    if unattributed < 0.0 || attributed > traced_wall {
        notes.push(format!(
            "attributed {attributed} s exceeds the traced wall {traced_wall} s (unattributed {unattributed} s)"
        ));
    }
    for note in &notes {
        eprintln!("TRACE CHECK: {note}");
    }
    if let Some(path) = &spec.trace_out {
        trace
            .write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let mut metrics = layer_metrics(plan, plain, telemetry, timed, &calib);
    let derived = [
        ("setup.problem_s", setup.problem_s),
        ("setup.port_s", setup.port_s),
        ("setup.pool_spawn_s", setup.pool_spawn_s),
        (
            "trace.overhead_ratio",
            traced_wall / plain_walls.iter().sum::<f64>(),
        ),
        ("trace.attributed_s", attributed),
        ("trace.unattributed_s", unattributed),
        ("failed_frac", failed as f64 / attempted.max(1) as f64),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    metrics.extend(derived.iter().map(|&(n, v)| (n.to_string(), v)));
    let mut values: BTreeMap<String, f64> = metrics.into_iter().collect();
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = values
                .remove(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} is never computed"));
            // An empty f64 sum is -0.0; report it as 0.
            (name, value + 0.0, unit)
        })
        .collect();
    Ok(Outcome {
        correct: failed == 0 && notes.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn kernel_wall_s(s: &Solve) -> f64 {
    s.calls
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 * 1e-9)
        .sum()
}

fn port_model(plan: &Plan, s: &Solve) -> Option<ModelId> {
    match plan.cases[s.case] {
        Case::Port { model, .. } => Some(model),
        Case::Distributed { .. } => None,
    }
}

/// The per-layer metrics computable from the three passes' solves.
fn layer_metrics(
    plan: &Plan,
    plain: &[Solve],
    telemetry: &[Solve],
    timed: &[Solve],
    calib: &Calibration,
) -> Vec<(String, f64)> {
    let region_ns = stats::median(&calib.region_ns);
    let steal_region_ns = stats::median(&calib.steal_region_ns);
    let launch_ns = stats::median(&calib.launch_ns);
    let key = |s: &Solve| (s.pass, plan.cases[s.case].problem());
    let serial_of =
        |solves: &[Solve], f: &dyn Fn(&Solve) -> f64| -> BTreeMap<(usize, usize), f64> {
            solves
                .iter()
                .filter(|s| port_model(plan, s) == Some(ModelId::Serial))
                .map(|s| (key(s), f(s)))
                .collect()
        };
    let serial_wall = serial_of(plain, &|s| s.wall_s());
    let serial_floor = serial_of(timed, &|s| {
        kernel_wall_s(s) - s.sim.kernels as f64 * launch_ns * 1e-9
    });

    let mut out: Vec<(String, f64)> = Vec::new();
    for model in ModelId::ALL {
        let (mut num, mut den) = (0.0, 0.0);
        for s in plain.iter().filter(|s| port_model(plan, s) == Some(model)) {
            num += s.wall_s();
            den += serial_wall.get(&key(s)).copied().unwrap_or(0.0);
        }
        let ratio = if den > 0.0 { num / den } else { 0.0 };
        out.push((format!("ports.{}.over_serial", model_slug(model)), ratio));
    }
    let ports: Vec<&Solve> = timed
        .iter()
        .filter(|s| port_model(plan, s).is_some())
        .collect();
    for method in metrics::REPORTED_METHODS {
        let calls = ports
            .iter()
            .flat_map(|s| &s.calls)
            .filter(|c| c.method == method);
        let (n, wall) = calls.fold((0u64, 0.0), |(n, w), c| {
            (n + 1, w + (c.end_ns - c.start_ns) as f64 * 1e-9)
        });
        out.push((format!("ports.{}.calls", method.name()), n as f64));
        out.push((format!("ports.{}.wall_s", method.name()), wall));
    }
    let sum = |f: &dyn Fn(&Solve) -> f64| -> f64 { ports.iter().map(|s| f(s)).sum() };
    let kernel_wall = sum(&|s| kernel_wall_s(s));
    let solve_wall = sum(&|s| s.wall_s());
    let serial_s = sum(&|s| serial_floor.get(&key(s)).copied().unwrap_or(0.0));
    let dispatch_s = sum(&|s| {
        (s.static_pool.regions as f64 * region_ns + s.steal_pool.regions as f64 * steal_region_ns)
            * 1e-9
    });
    let launches = sum(&|s| s.sim.kernels as f64);
    let charge_s = launches * launch_ns * 1e-9;
    let sim_s = sum(&|s| s.sim.seconds);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let dist = |resilient: bool, grid: (usize, usize)| -> Vec<&Solve> {
        plain
            .iter()
            .filter(|s| {
                matches!(plan.cases[s.case], Case::Distributed { resilient: r, grid: g, .. } if r == resilient && g == grid)
            })
            .collect()
    };
    let (plain_1x1, plain_2x1) = (dist(false, (1, 1)), dist(false, (2, 1)));
    let (res_1x1, res_2x1) = (dist(true, (1, 1)), dist(true, (2, 1)));
    let wall_of = |v: &[&Solve]| -> f64 { v.iter().map(|s| s.wall_s()).sum() };
    let plain_dist: Vec<&Solve> = plain_1x1.iter().chain(&plain_2x1).copied().collect();
    let dist_sum =
        |f: &dyn Fn(&Solve) -> u64| -> f64 { plain_dist.iter().map(|s| f(s) as f64).sum() };
    let serial_for_1x1: f64 = plain_1x1
        .iter()
        .map(|s| serial_wall.get(&key(s)).copied().unwrap_or(0.0))
        .sum();
    let plain_port_total: f64 = plain
        .iter()
        .filter(|s| port_model(plan, s).is_some())
        .map(|s| s.total_s)
        .sum();
    let telemetry_total: f64 = telemetry.iter().map(|s| s.total_s).sum();

    let fixed = [
        (
            "ports.abstraction_s",
            kernel_wall - serial_s - dispatch_s - charge_s,
        ),
        ("kernels.serial_s", serial_s),
        (
            "parpool.regions",
            sum(&|s| (s.static_pool.regions + s.steal_pool.regions) as f64),
        ),
        (
            "parpool.inline_runs",
            sum(&|s| (s.static_pool.inline_runs + s.steal_pool.inline_runs) as f64),
        ),
        (
            "parpool.poster_parks",
            sum(&|s| (s.static_pool.poster_parks + s.steal_pool.poster_parks) as f64),
        ),
        (
            "parpool.worker_parks",
            sum(&|s| {
                (s.static_pool.total_worker_parks() + s.steal_pool.total_worker_parks()) as f64
            }),
        ),
        ("parpool.steals", sum(&|s| s.steal_pool.steals as f64)),
        ("parpool.region_ns", region_ns),
        ("parpool.region_ns_spread", stats::spread(&calib.region_ns)),
        ("parpool.steal_region_ns", steal_region_ns),
        (
            "parpool.steal_region_ns_spread",
            stats::spread(&calib.steal_region_ns),
        ),
        ("parpool.dispatch_s", dispatch_s),
        ("parpool.dispatch_share", ratio(dispatch_s, solve_wall)),
        ("simdev.launches", launches),
        ("simdev.launch_ns", launch_ns),
        ("simdev.launch_ns_spread", stats::spread(&calib.launch_ns)),
        ("simdev.charge_s", charge_s),
        ("simdev.sim_s", sim_s),
        ("simdev.wall_over_sim", ratio(solve_wall, sim_s)),
        (
            "telemetry.records",
            telemetry.iter().map(|s| s.records as f64).sum(),
        ),
        (
            "telemetry.overhead_frac",
            ratio(telemetry_total, plain_port_total) - 1.0,
        ),
        (
            "solver.iterations",
            plain.iter().map(|s| s.iterations as f64).sum(),
        ),
        ("solver.self_s", solve_wall - kernel_wall),
        ("mpisim.messages", dist_sum(&|s| s.dist.messages)),
        ("mpisim.elements", dist_sum(&|s| s.dist.elements)),
        ("tile.windows", dist_sum(&|s| s.dist.windows)),
        (
            "tile.hidden_frac",
            ratio(
                dist_sum(&|s| s.dist.hidden),
                dist_sum(&|s| s.dist.exchanged),
            ),
        ),
        (
            "distributed.over_serial",
            ratio(wall_of(&plain_1x1), serial_for_1x1),
        ),
        (
            "distributed.rank2_speedup",
            ratio(wall_of(&plain_1x1), wall_of(&plain_2x1)),
        ),
        (
            "resilience.checkpoints",
            res_1x1
                .iter()
                .chain(&res_2x1)
                .map(|s| s.dist.checkpoints as f64)
                .sum(),
        ),
        (
            "resilience.checkpoint_s",
            wall_of(&res_1x1) + wall_of(&res_2x1) - wall_of(&plain_1x1) - wall_of(&plain_2x1),
        ),
    ];
    out.extend(fixed.iter().map(|&(n, v)| (n.to_string(), v)));
    out
}

/// Peak live heap in MiB.
fn heap_mb() -> f64 {
    heap::peak_bytes() as f64 / (1024.0 * 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
