//! Running one case of a pass under `catch_unwind`, timed at the layer
//! boundaries, and checking its result against the Serial reference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mpisim::FaultSpec;
use parpool::PoolMetrics;
use simdev::{ClockSnapshot, TelemetrySink};
use tea_core::config::TeaConfig;
use tea_core::summary::Summary;
use tealeaf::distributed::{run_distributed_solver_instrumented, run_distributed_solver_resilient};
use tealeaf::driver::{drive, powered_device};
use tealeaf::ports::make_port;
use tealeaf::{ModelId, Problem, TeaLeafPort};

use crate::timed::{Call, TimedPort};
use crate::workload::Case;

/// Wraps every measured port before it is driven; the tests use it to
/// plant faults.
pub type PortHook = fn(Box<dyn TeaLeafPort>) -> Box<dyn TeaLeafPort>;

/// How a port case is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `make_port` + `drive`, nothing observing: the end-to-end path.
    Plain,
    /// `run_simulation_traced` with a collecting telemetry sink.
    Telemetry,
    /// `make_port` + `drive` through [`TimedPort`].
    Timed,
}

/// What the Serial port reports for a problem: the bit pattern every
/// other solve of that problem must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub summary: Summary,
    pub iterations: usize,
}

/// Transport and tiling counters of a distributed solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistStats {
    pub messages: u64,
    pub elements: u64,
    pub windows: u64,
    pub exchanged: u64,
    pub hidden: u64,
    pub checkpoints: u64,
}

/// One executed case.
#[derive(Debug, Clone, Default)]
pub struct Solve {
    pub case: usize,
    /// Which pass of the run the solve belongs to.
    pub pass: usize,
    /// Start, setup end and solve end, in ns since the run's epoch.
    pub start_ns: u64,
    pub setup_end_ns: u64,
    pub solve_end_ns: u64,
    /// Setup plus solve plus checks.
    pub total_s: f64,
    pub cells: usize,
    pub iterations: usize,
    pub sim: ClockSnapshot,
    pub static_pool: PoolMetrics,
    pub steal_pool: PoolMetrics,
    pub records: usize,
    pub calls: Vec<Call>,
    pub dist: DistStats,
    /// Why the solve failed; `None` when it passed every check.
    pub failure: Option<String>,
}

impl Solve {
    pub fn wall_s(&self) -> f64 {
        (self.solve_end_ns - self.setup_end_ns) as f64 * 1e-9
    }

    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// The Serial port's solve of `config`, run outside any measurement.
pub fn reference(config: &TeaConfig, seed: u64) -> Result<Reference, String> {
    let device = simdev::devices::cpu_xeon_e5_2670_x2();
    let report = tealeaf::run_simulation_seeded(ModelId::Serial, &device, config, seed)
        .map_err(|e| format!("serial reference: {e}"))?;
    if !report.converged {
        return Err("serial reference did not converge".into());
    }
    Ok(Reference {
        summary: report.summary,
        iterations: report.total_iterations,
    })
}

/// Everything one case needs besides its own description.
pub struct Ctx<'a> {
    pub problems: &'a [TeaConfig],
    pub refs: &'a [Reference],
    pub seed: u64,
    pub epoch: Instant,
    pub hook: Option<PortHook>,
}

impl Ctx<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `case` (index `index` of the plan) as `variant`; distributed
    /// cases ignore the variant. A panic inside counts as a failed solve.
    pub fn run(&self, index: usize, case: &Case, variant: Variant) -> Solve {
        let start = Instant::now();
        let mut solve = Solve {
            case: index,
            start_ns: self.now_ns(),
            ..Solve::default()
        };
        solve.setup_end_ns = solve.start_ns;
        let config = &self.problems[case.problem()];
        solve.cells = config.x_cells * config.y_cells;
        let outcome = catch_unwind(AssertUnwindSafe(|| match case {
            Case::Port { model, device, .. } => {
                self.port(&mut solve, config, *model, device, variant)
            }
            Case::Distributed {
                grid, resilient, ..
            } => self.distributed(&mut solve, config, *grid, *resilient),
        }));
        let result = match outcome {
            Ok(result) => result,
            Err(panic) => Err(format!("panicked: {}", panic_message(&panic))),
        };
        if solve.solve_end_ns < solve.setup_end_ns {
            solve.solve_end_ns = self.now_ns();
        }
        solve.failure = result
            .and_then(|got| check(&got, &self.refs[case.problem()]))
            .err();
        solve.total_s = start.elapsed().as_secs_f64();
        solve
    }

    fn port(
        &self,
        solve: &mut Solve,
        config: &TeaConfig,
        model: ModelId,
        device: &simdev::DeviceSpec,
        variant: Variant,
    ) -> Result<Reference, String> {
        let device = powered_device(device, config);
        let static0 = parpool::global_static().metrics();
        let steal0 = parpool::global_steal().metrics();
        let report = if variant == Variant::Telemetry {
            let (sink, collector) = TelemetrySink::collecting();
            solve.setup_end_ns = self.now_ns();
            let report = tealeaf::run_simulation_traced(model, &device, config, self.seed, sink)
                .map_err(|e| e.to_string())?;
            solve.solve_end_ns = self.now_ns();
            solve.records = collector.len();
            report
        } else {
            let problem = Problem::from_config(config).map_err(|e| e.to_string())?;
            let mut port =
                make_port(model, device.clone(), &problem, self.seed).map_err(|e| e.to_string())?;
            if let Some(hook) = self.hook {
                port = hook(port);
            }
            solve.setup_end_ns = self.now_ns();
            let report = if variant == Variant::Timed {
                let mut timed = TimedPort::new(port, self.epoch);
                let report = drive(&mut timed, &problem, &device, config);
                solve.calls = timed.into_calls();
                report
            } else {
                drive(port.as_mut(), &problem, &device, config)
            };
            solve.solve_end_ns = self.now_ns();
            report
        };
        solve.static_pool = parpool::global_static().metrics().since(&static0);
        solve.steal_pool = parpool::global_steal().metrics().since(&steal0);
        solve.iterations = report.total_iterations;
        solve.sim = report.sim;
        if !report.converged || report.failed_step.is_some() {
            return Err(format!(
                "did not converge (failed step {:?})",
                report.failed_step
            ));
        }
        Ok(Reference {
            summary: report.summary,
            iterations: report.total_iterations,
        })
    }

    fn distributed(
        &self,
        solve: &mut Solve,
        config: &TeaConfig,
        (tx, ty): (usize, usize),
        resilient: bool,
    ) -> Result<Reference, String> {
        let report = if resilient {
            let (report, log) =
                run_distributed_solver_resilient(tx, ty, config, FaultSpec::clean(self.seed))
                    .map_err(|e| format!("resilient solve aborted: {e:?}"))?;
            solve.dist.checkpoints = log.checkpoints_taken;
            if log.restarts + log.regrids > 0 {
                return Err(format!("fault-free resilient solve recovered: {log:?}"));
            }
            report
        } else {
            let (report, overlap, exchange) =
                run_distributed_solver_instrumented(tx, ty, config, true);
            solve.dist.messages = exchange.total_messages();
            solve.dist.elements = exchange.total_elements();
            solve.dist.windows = overlap.windows;
            solve.dist.exchanged = overlap.exchanged_elements;
            solve.dist.hidden = overlap.hidden_elements;
            report
        };
        solve.solve_end_ns = self.now_ns();
        solve.iterations = report.total_iterations;
        if !report.converged {
            return Err("distributed solve did not converge".into());
        }
        Ok(Reference {
            summary: report.summary,
            iterations: report.total_iterations,
        })
    }
}

/// Bit-identity with the Serial reference: iteration count and every
/// field-summary integral.
pub fn check(got: &Reference, want: &Reference) -> Result<(), String> {
    let bits = |s: &Summary| {
        [
            s.volume.to_bits(),
            s.mass.to_bits(),
            s.internal_energy.to_bits(),
            s.temperature.to_bits(),
        ]
    };
    if got.iterations != want.iterations {
        return Err(format!(
            "{} iterations, serial reference took {}",
            got.iterations, want.iterations
        ));
    }
    if bits(&got.summary) != bits(&want.summary) {
        return Err(format!(
            "field summary {:?} differs from the serial reference {:?}",
            got.summary, want.summary
        ));
    }
    Ok(())
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}
