//! The resilience layer: numerical-health sentinels, field
//! checkpoint/rollback, and solver fallback chains.
//!
//! The paper's premise is that the *same* numerics must survive hostile
//! execution environments; this module makes the solve survive hostile
//! *numerics*. Three pieces:
//!
//! * [`Sentinel`] — cheap per-iteration health checks every solver runs
//!   on its residual stream: NaN/Inf, divergence beyond a configurable
//!   factor of the initial residual, and stagnation (no improvement on
//!   the best residual inside a window). Trips surface as typed
//!   [`SolverHealth`] events on [`crate::solver::SolveOutcome`].
//! * [`FieldCheckpoint`] — a bit-exact snapshot of the live solve fields
//!   taken through the cost-free [`field`](TeaLeafPort::field) /
//!   [`poke_field`](TeaLeafPort::poke_field) hooks, so checkpointing is
//!   invisible to the simulated cost stream and a rolled-back replay is
//!   bit-identical to a run that never faulted.
//! * [`run_with_recovery`] — the fallback-chain harness wrapped around
//!   [`crate::solver::solve`]: on a sentinel trip, or a healthy-looking
//!   attempt whose answer holds a non-finite interior cell of `u`, it
//!   restores the solve's input snapshot and degrades along a
//!   configurable chain (retry the primary — with exponentially widened
//!   eigenvalue estimation windows for Chebyshev/PPCG — then CG, then
//!   Jacobi), with every action recorded as a [`RecoveryEvent`].
//!
//! ## What a checkpoint holds
//!
//! A checkpoint copies only the fields a replay reads before it writes
//! them, taken from the kernel IR's read/write sets ([`crate::ir`]) plus
//! the halo rule: stencils read the depth-1 ring of their stencil field,
//! and only `halo_update` writes rings. That gives three sets:
//!
//! * [`INPUT`] — live at solve entry, captured once per solve by
//!   [`run_with_recovery`]; every retry and fallback restores from it.
//!   `R` is here because the Jacobi stencil reads `R`'s ring and
//!   `jacobi_copy` writes only its interior.
//! * [`CARRIED`] — live at the CG loop head; the in-phase checkpoint
//!   ([`PhaseGuard`]) captures and recaptures just these.
//! * [`READ_ONLY`] — read by the solvers but written by none of their
//!   kernels, so a phase rollback restores them from the input snapshot
//!   instead of keeping a second copy.
//!
//! `W`, `Z` and `Sd` are dead at both points: every cell of them that is
//! read is written first. `crates/tealeaf/tests/live_sets.rs` derives
//! the three sets from the IR and from recorded solves, so a kernel that
//! starts reading a new field fails there rather than silently breaking
//! recovery.
//!
//! The determinism contract carries over: sentinels are pure functions
//! of residual values, checkpoints capture exact bits, and recovery
//! actions replay the same arithmetic — so a *recovered* run of a
//! transient fault finishes bit-identical to the clean run.

use std::fmt;

use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;

use crate::kernels::TeaLeafPort;
use crate::solver::{solve_once, SolveOutcome};

/// A numerical-health event observed during a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverHealth {
    /// The residual measure became NaN or ±Inf, or an attempt that
    /// tripped nothing left a NaN or ±Inf in the interior of `u`.
    NonFinite { iteration: usize },
    /// The residual grew beyond `tl_divergence_factor` times the
    /// initial residual.
    Diverging { iteration: usize, ratio: f64 },
    /// No improvement on the best residual for `window` consecutive
    /// observations.
    Stagnating { iteration: usize, window: usize },
    /// The recovery chain is exhausted; the solve is unrecoverable and
    /// the driver must stop stepping.
    Fatal { solver: SolverKind },
    /// A distributed world died: `rank` aborted with a transport
    /// diagnostic (injected kill, hopeless channel, exhausted deadline).
    /// The distributed resilience driver answers with a
    /// [`RecoveryAction::Restart`] or [`RecoveryAction::Regrid`].
    DistributedFault { rank: usize },
}

impl SolverHealth {
    /// Iteration the event fired at (0 for `Fatal`).
    pub fn iteration(&self) -> usize {
        match self {
            SolverHealth::NonFinite { iteration }
            | SolverHealth::Diverging { iteration, .. }
            | SolverHealth::Stagnating { iteration, .. } => *iteration,
            SolverHealth::Fatal { .. } | SolverHealth::DistributedFault { .. } => 0,
        }
    }

    /// True for [`SolverHealth::Fatal`].
    pub fn is_fatal(&self) -> bool {
        matches!(self, SolverHealth::Fatal { .. })
    }
}

impl fmt::Display for SolverHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverHealth::NonFinite { iteration } => {
                write!(f, "non-finite residual at iteration {iteration}")
            }
            SolverHealth::Diverging { iteration, ratio } => {
                write!(
                    f,
                    "diverging at iteration {iteration} ({ratio:.3e}× initial)"
                )
            }
            SolverHealth::Stagnating { iteration, window } => write!(
                f,
                "stagnating at iteration {iteration} (no improvement in {window} observations)"
            ),
            SolverHealth::Fatal { solver } => {
                write!(
                    f,
                    "unrecoverable: {} recovery chain exhausted",
                    solver.name()
                )
            }
            SolverHealth::DistributedFault { rank } => {
                write!(f, "rank {rank} lost (transport fault)")
            }
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::Rollback { to_iteration } => {
                write!(f, "rolled back to iteration {to_iteration}")
            }
            RecoveryAction::Retry { solver, presteps } => {
                write!(f, "retried {} with {presteps} presteps", solver.name())
            }
            RecoveryAction::Fallback { from, to } => {
                write!(f, "fell back {} → {}", from.name(), to.name())
            }
            RecoveryAction::Abort => write!(f, "aborted (chain exhausted)"),
            RecoveryAction::Restart { step, iteration } => {
                write!(
                    f,
                    "restarted world from checkpoint (step {step}, iteration {iteration})"
                )
            }
            RecoveryAction::Regrid { from, to } => {
                write!(
                    f,
                    "re-decomposed {}x{} → {}x{} on surviving ranks",
                    from.0, from.1, to.0, to.1
                )
            }
        }
    }
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {} — {}", self.step, self.trigger, self.action)
    }
}

/// What the recovery harness did in response to a sentinel trip.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// Restored an in-solve checkpoint and replayed from `to_iteration`.
    Rollback { to_iteration: usize },
    /// Restored the solve's input snapshot and re-ran `solver` (for the
    /// Chebyshev family, with a widened `presteps` estimation window).
    Retry { solver: SolverKind, presteps: usize },
    /// Restored the solve's input snapshot and degraded `from` → `to`.
    Fallback { from: SolverKind, to: SolverKind },
    /// Chain exhausted; the outcome is the last attempt's, unrecovered.
    Abort,
    /// Rebuilt the distributed world on the same tile grid and resumed
    /// every rank from the latest consistent checkpoint cut.
    Restart { step: usize, iteration: usize },
    /// Gathered the surviving tile state and re-tiled the mesh onto a
    /// smaller grid (`from` → `to`, as `(gx, gy)` tile counts).
    Regrid {
        from: (usize, usize),
        to: (usize, usize),
    },
}

/// One recovery action with its trigger, stamped by the driver with the
/// timestep it happened in.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Timestep (1-based; 0 until the driver stamps it).
    pub step: usize,
    /// The sentinel trip that forced the action.
    pub trigger: SolverHealth,
    /// What was done about it.
    pub action: RecoveryAction,
}

/// Per-iteration residual health checks. All state is a pure function
/// of the observed residual stream, so trips are deterministic and fire
/// identically on every port.
#[derive(Debug, Clone)]
pub struct Sentinel {
    divergence_factor: f64,
    stagnation_window: usize,
    initial: f64,
    best: f64,
    since_best: usize,
}

impl Sentinel {
    /// A sentinel with the deck's thresholds, not yet armed.
    pub fn new(config: &TeaConfig) -> Self {
        Sentinel {
            divergence_factor: config.tl_divergence_factor,
            stagnation_window: config.tl_stagnation_window,
            initial: 0.0,
            best: f64::INFINITY,
            since_best: 0,
        }
    }

    /// Arm the sentinel with the solve's initial residual measure.
    pub fn arm(&mut self, initial: f64) {
        self.initial = initial.abs();
        self.best = self.initial;
        self.since_best = 0;
    }

    /// Observe one residual measure; returns the sentinel trip, if any.
    /// `iteration` is the solver iteration the measure belongs to.
    pub fn observe(&mut self, iteration: usize, rrn: f64) -> Option<SolverHealth> {
        if !rrn.is_finite() {
            return Some(SolverHealth::NonFinite { iteration });
        }
        let mag = rrn.abs();
        if self.initial > 0.0 && mag > self.divergence_factor * self.initial {
            return Some(SolverHealth::Diverging {
                iteration,
                ratio: mag / self.initial,
            });
        }
        if mag < self.best {
            self.best = mag;
            self.since_best = 0;
        } else {
            self.since_best += 1;
            if self.stagnation_window > 0 && self.since_best >= self.stagnation_window {
                return Some(SolverHealth::Stagnating {
                    iteration,
                    window: self.stagnation_window,
                });
            }
        }
        None
    }
}

/// Fields live at solve entry: what any solver reads before it writes
/// it. The solve's input snapshot holds these (see the module docs).
pub const INPUT: [FieldId; 5] = [
    FieldId::U,
    FieldId::U0,
    FieldId::R,
    FieldId::Kx,
    FieldId::Ky,
];

/// Fields live at the CG loop head, [`READ_ONLY`] aside: what a phase
/// checkpoint holds.
pub const CARRIED: [FieldId; 3] = [FieldId::U, FieldId::P, FieldId::R];

/// Fields the solvers read and none of their kernels write: a phase
/// rollback takes them from the input snapshot.
pub const READ_ONLY: [FieldId; 3] = [FieldId::U0, FieldId::Kx, FieldId::Ky];

/// A bit-exact snapshot of solver fields, captured and restored through
/// the cost-free observation hooks so it never perturbs the simulated
/// cost stream.
#[derive(Debug, Clone)]
pub struct FieldCheckpoint {
    fields: Vec<(FieldId, Vec<f64>)>,
}

impl FieldCheckpoint {
    /// Snapshot every inspectable field in `ids`.
    pub fn capture(port: &dyn TeaLeafPort, ids: &[FieldId]) -> Self {
        let mut ck = FieldCheckpoint { fields: Vec::new() };
        ck.recapture(port, ids);
        ck
    }

    /// Take the snapshot again into this checkpoint's own buffers: a
    /// field of unchanged size is overwritten in place, with no
    /// allocation. Borrows through [`TeaLeafPort::field`] and falls back
    /// to the owned [`TeaLeafPort::inspect_field`] copy.
    pub fn recapture(&mut self, port: &dyn TeaLeafPort, ids: &[FieldId]) {
        let mut kept = 0;
        for &id in ids {
            if kept == self.fields.len() {
                self.fields.push((id, Vec::new()));
            }
            let (slot, data) = &mut self.fields[kept];
            let captured = match port.field(id) {
                Some(src) => {
                    data.clear();
                    data.extend_from_slice(src);
                    true
                }
                None => port.inspect_field(id).map(|v| *data = v).is_some(),
            };
            if captured {
                *slot = id;
                kept += 1;
            }
        }
        self.fields.truncate(kept);
    }

    /// Write every captured cell back, restoring the exact bits.
    pub fn restore(&self, port: &mut dyn TeaLeafPort) {
        for (id, data) in &self.fields {
            poke_all(port, *id, data);
        }
    }

    /// [`restore`](Self::restore) limited to the captured fields in `ids`.
    pub fn restore_only(&self, port: &mut dyn TeaLeafPort, ids: &[FieldId]) {
        for (id, data) in self.fields.iter().filter(|(id, _)| ids.contains(id)) {
            poke_all(port, *id, data);
        }
    }
}

fn poke_all(port: &mut dyn TeaLeafPort, id: FieldId, data: &[f64]) {
    for (k, &value) in data.iter().enumerate() {
        port.poke_field(id, k, value);
    }
}

/// In-solve guard the CG-family phase loop drives: sentinel checks plus
/// K-iteration checkpoints of [`CARRIED`] with capped rollback. Shared by
/// plain CG and the Chebyshev/PPCG presteps through
/// [`crate::solver::cg::run_phase`].
pub struct PhaseGuard<'a> {
    /// The sentinel the phase feeds.
    pub sentinel: Sentinel,
    /// The solve's input snapshot, where a rollback takes [`READ_ONLY`]
    /// from.
    input: Option<&'a FieldCheckpoint>,
    checkpoint_interval: usize,
    rollback_budget: usize,
    checkpoint: Option<PhaseCheckpoint>,
    /// Sentinel trips that ended (not rolled back within) the phase.
    pub events: Vec<SolverHealth>,
    /// Rollbacks performed inside the phase.
    pub recoveries: Vec<RecoveryEvent>,
}

/// The CG phase state a mid-solve rollback restores.
struct PhaseCheckpoint {
    iteration: usize,
    rro: f64,
    history_len: usize,
    sentinel: Sentinel,
    fields: FieldCheckpoint,
}

/// What [`PhaseGuard::on_residual`] tells the phase loop to do.
pub enum PhaseVerdict {
    /// Keep iterating.
    Continue,
    /// A checkpoint was restored: reset to `(iteration, rro)` and
    /// truncate the α/β history to `history_len`.
    RolledBack {
        iteration: usize,
        rro: f64,
        history_len: usize,
    },
    /// Unrecoverable inside the phase: stop and surface the event.
    Bail,
}

impl<'a> PhaseGuard<'a> {
    /// A guard with the deck's thresholds and rollback budget. Without
    /// the solve's `input` snapshot, or on a `tl_resilience = false`
    /// deck, it keeps the sentinel but never checkpoints.
    pub fn new(config: &TeaConfig, input: Option<&'a FieldCheckpoint>) -> Self {
        let resilient = config.tl_resilience && input.is_some();
        PhaseGuard {
            sentinel: Sentinel::new(config),
            input,
            checkpoint_interval: if resilient {
                config.tl_checkpoint_interval
            } else {
                0
            },
            rollback_budget: if resilient {
                config.tl_max_recoveries
            } else {
                0
            },
            checkpoint: None,
            events: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// Arm the sentinel at phase start.
    pub fn arm(&mut self, initial: f64) {
        self.sentinel.arm(initial);
    }

    /// Called at the top of each phase iteration: capture a checkpoint
    /// every K iterations (including iteration 0, so the earliest fault
    /// is recoverable).
    pub fn maybe_checkpoint(
        &mut self,
        port: &dyn TeaLeafPort,
        iteration: usize,
        rro: f64,
        history_len: usize,
    ) {
        if self.checkpoint_interval == 0 || !iteration.is_multiple_of(self.checkpoint_interval) {
            return;
        }
        // Rewrite the one checkpoint's buffers in place rather than
        // building a second snapshot beside it.
        let fields = match self.checkpoint.take() {
            Some(PhaseCheckpoint { mut fields, .. }) => {
                fields.recapture(port, &CARRIED);
                fields
            }
            None => FieldCheckpoint::capture(port, &CARRIED),
        };
        self.checkpoint = Some(PhaseCheckpoint {
            iteration,
            rro,
            history_len,
            sentinel: self.sentinel.clone(),
            fields,
        });
        let ctx = port.context();
        ctx.telemetry().event(
            "checkpoint",
            format_args!("checkpoint @ iteration {iteration}"),
            ctx.clock.seconds(),
        );
    }

    /// Feed one residual observation; on a NaN/Inf or divergence trip
    /// with rollback budget left, restore the last checkpoint (the trip
    /// may be a transient fault a clean replay outruns). Stagnation is
    /// systematic — replaying identical arithmetic stagnates again — so
    /// it always bails to the fallback chain.
    pub fn on_residual(
        &mut self,
        port: &mut dyn TeaLeafPort,
        iteration: usize,
        rrn: f64,
    ) -> PhaseVerdict {
        let Some(event) = self.sentinel.observe(iteration, rrn) else {
            return PhaseVerdict::Continue;
        };
        {
            let ctx = port.context();
            ctx.telemetry()
                .event("sentinel", format_args!("{event}"), ctx.clock.seconds());
        }
        let transient = matches!(
            event,
            SolverHealth::NonFinite { .. } | SolverHealth::Diverging { .. }
        );
        if transient && self.rollback_budget > 0 {
            if let Some(ck) = self.checkpoint.take() {
                self.rollback_budget -= 1;
                ck.fields.restore(port);
                self.input
                    .expect("checkpoints are only taken with an input snapshot")
                    .restore_only(port, &READ_ONLY);
                self.sentinel = ck.sentinel.clone();
                self.recoveries.push(RecoveryEvent {
                    step: 0,
                    trigger: event,
                    action: RecoveryAction::Rollback {
                        to_iteration: ck.iteration,
                    },
                });
                let ctx = port.context();
                ctx.telemetry().event(
                    "recovery",
                    format_args!("rolled back to iteration {}", ck.iteration),
                    ctx.clock.seconds(),
                );
                let verdict = PhaseVerdict::RolledBack {
                    iteration: ck.iteration,
                    rro: ck.rro,
                    history_len: ck.history_len,
                };
                self.checkpoint = Some(ck);
                return verdict;
            }
        }
        self.events.push(event);
        PhaseVerdict::Bail
    }
}

/// One attempt in the degradation plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attempt {
    solver: SolverKind,
    presteps: usize,
}

/// The degradation plan for a primary solver: the primary itself, then
/// `tl_max_recoveries` retries (Chebyshev/PPCG widen the eigenvalue
/// estimation window exponentially each retry — the bounds were probably
/// estimated from too few Lanczos steps), then the fallback chain
/// (configured, or PPCG/Chebyshev → CG → Jacobi, CG → Jacobi).
fn plan_attempts(config: &TeaConfig) -> Vec<Attempt> {
    let primary = config.solver;
    let eigen_family = matches!(primary, SolverKind::Chebyshev | SolverKind::Ppcg);
    let mut plan = vec![Attempt {
        solver: primary,
        presteps: config.tl_ch_cg_presteps,
    }];
    let mut presteps = config.tl_ch_cg_presteps;
    for _ in 0..config.tl_max_recoveries {
        if eigen_family {
            presteps = (presteps * 2).min(config.tl_max_iters);
        }
        plan.push(Attempt {
            solver: primary,
            presteps,
        });
        if !eigen_family {
            break; // one deterministic re-run is enough for CG/Jacobi
        }
        if presteps == config.tl_max_iters {
            break; // the window cannot widen further
        }
    }
    let fallbacks: Vec<SolverKind> = if config.tl_fallback_chain.is_empty() {
        match primary {
            SolverKind::Ppcg | SolverKind::Chebyshev => {
                vec![SolverKind::ConjugateGradient, SolverKind::Jacobi]
            }
            SolverKind::ConjugateGradient => vec![SolverKind::Jacobi],
            SolverKind::Jacobi => Vec::new(),
        }
    } else {
        config.tl_fallback_chain.clone()
    };
    for solver in fallbacks {
        if solver != primary {
            plan.push(Attempt {
                solver,
                presteps: config.tl_ch_cg_presteps,
            });
        }
    }
    plan
}

/// True when the attempt ended without any sentinel trip (converged or
/// merely out of budget — plain non-convergence is not a health event
/// and must not trigger degradation, preserving pre-resilience
/// behaviour for legitimately hard problems).
fn healthy(outcome: &SolveOutcome) -> bool {
    outcome.health.is_empty()
}

/// True when every interior cell of `u` is finite. The halo is left out:
/// no answer reads it, and the next step's halo update rewrites it.
fn interior_u_is_finite(port: &dyn TeaLeafPort, config: &TeaConfig) -> bool {
    let mesh = config.mesh();
    let finite = |u: &[f64]| {
        (mesh.i0()..mesh.j1()).all(|j| {
            u[mesh.idx(mesh.i0(), j)..mesh.idx(mesh.i1(), j)]
                .iter()
                .all(|v| v.is_finite())
        })
    };
    match port.field(FieldId::U) {
        Some(u) => finite(u),
        None => port.inspect_field(FieldId::U).is_none_or(|u| finite(&u)),
    }
}

/// Run the configured solver under the recovery harness: capture the
/// solve's [`INPUT`] snapshot, attempt the degradation plan in order,
/// and accumulate every health event and recovery action onto the
/// returned outcome. An attempt that ends without a sentinel trip but
/// with a non-finite interior cell of `u` — a fault in a cell no later
/// residual reads — counts as [`SolverHealth::NonFinite`]. On healthy
/// runs this is numerically inert — the snapshot and the scan read
/// cost-free hooks and the first attempt is exactly the plain solve.
pub fn run_with_recovery(port: &mut dyn TeaLeafPort, config: &TeaConfig) -> SolveOutcome {
    let input = FieldCheckpoint::capture(port, &INPUT);
    let plan = plan_attempts(config);
    let mut health: Vec<SolverHealth> = Vec::new();
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut last: Option<SolveOutcome> = None;

    for (i, attempt) in plan.iter().enumerate() {
        if i > 0 {
            // The previous attempt tripped: restore the pristine solve
            // state and record what we are about to do about it.
            input.restore(port);
            let trigger = health.last().cloned().unwrap_or(SolverHealth::Fatal {
                solver: config.solver,
            });
            let action = if attempt.solver == config.solver {
                RecoveryAction::Retry {
                    solver: attempt.solver,
                    presteps: attempt.presteps,
                }
            } else {
                RecoveryAction::Fallback {
                    from: config.solver,
                    to: attempt.solver,
                }
            };
            let ctx = port.context();
            ctx.telemetry().event(
                "recovery",
                format_args!("{trigger} — {action}"),
                ctx.clock.seconds(),
            );
            recoveries.push(RecoveryEvent {
                step: 0,
                trigger,
                action,
            });
        }
        let mut cfg = config.clone();
        cfg.solver = attempt.solver;
        cfg.tl_ch_cg_presteps = attempt.presteps;
        let mut outcome = solve_once(port, &cfg, Some(&input));
        recoveries.append(&mut outcome.recoveries);
        if healthy(&outcome) {
            if interior_u_is_finite(port, config) {
                outcome.health = health;
                outcome.recoveries = recoveries;
                return outcome;
            }
            let event = SolverHealth::NonFinite {
                iteration: outcome.iterations,
            };
            let ctx = port.context();
            ctx.telemetry().event(
                "sentinel",
                format_args!("non-finite u after iteration {}", outcome.iterations),
                ctx.clock.seconds(),
            );
            outcome.health.push(event);
        }
        health.append(&mut outcome.health);
        last = Some(outcome);
    }

    // Chain exhausted: surface the failure loudly and typed.
    let trigger = health.last().cloned().unwrap_or(SolverHealth::Fatal {
        solver: config.solver,
    });
    recoveries.push(RecoveryEvent {
        step: 0,
        trigger,
        action: RecoveryAction::Abort,
    });
    health.push(SolverHealth::Fatal {
        solver: config.solver,
    });
    {
        let ctx = port.context();
        ctx.telemetry().event(
            "recovery",
            format_args!("aborted: {} recovery chain exhausted", config.solver.name()),
            ctx.clock.seconds(),
        );
    }
    let mut outcome = last.expect("plan always has at least one attempt");
    outcome.converged = false;
    outcome.health = health;
    outcome.recoveries = recoveries;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TeaConfig {
        TeaConfig::paper_problem(16)
    }

    #[test]
    fn sentinel_trips_on_nan_and_inf() {
        let mut s = Sentinel::new(&config());
        s.arm(1.0);
        assert_eq!(s.observe(1, 0.5), None);
        assert!(matches!(
            s.observe(2, f64::NAN),
            Some(SolverHealth::NonFinite { iteration: 2 })
        ));
        assert!(matches!(
            s.observe(3, f64::INFINITY),
            Some(SolverHealth::NonFinite { iteration: 3 })
        ));
    }

    #[test]
    fn sentinel_trips_on_divergence_beyond_factor() {
        let mut cfg = config();
        cfg.tl_divergence_factor = 1.0e3;
        let mut s = Sentinel::new(&cfg);
        s.arm(1.0);
        assert_eq!(s.observe(1, 999.0), None);
        let trip = s.observe(2, 1.5e3);
        let Some(SolverHealth::Diverging { iteration, ratio }) = trip else {
            panic!("expected divergence, got {trip:?}");
        };
        assert_eq!(iteration, 2);
        assert!((ratio - 1.5e3).abs() < 1e-9);
    }

    #[test]
    fn sentinel_trips_on_stagnation_within_window() {
        let mut cfg = config();
        cfg.tl_stagnation_window = 3;
        let mut s = Sentinel::new(&cfg);
        s.arm(1.0);
        assert_eq!(s.observe(1, 0.9), None); // improves
        assert_eq!(s.observe(2, 0.95), None);
        assert_eq!(s.observe(3, 0.95), None);
        assert!(matches!(
            s.observe(4, 0.95),
            Some(SolverHealth::Stagnating {
                iteration: 4,
                window: 3
            })
        ));
        // improvement resets the window
        let mut s = Sentinel::new(&cfg);
        s.arm(1.0);
        assert_eq!(s.observe(1, 0.9), None);
        assert_eq!(s.observe(2, 0.95), None);
        assert_eq!(s.observe(3, 0.8), None);
        assert_eq!(s.observe(4, 0.85), None);
        assert_eq!(s.observe(5, 0.85), None);
        assert!(s.observe(6, 0.85).is_some());
    }

    #[test]
    fn sentinel_never_trips_on_a_decreasing_residual() {
        let mut s = Sentinel::new(&config());
        s.arm(100.0);
        let mut rrn = 100.0;
        for i in 1..=10_000 {
            rrn *= 0.999;
            assert_eq!(s.observe(i, rrn), None, "iteration {i}");
        }
    }

    #[test]
    fn default_plan_degrades_ppcg_to_cg_to_jacobi() {
        let mut cfg = config();
        cfg.solver = SolverKind::Ppcg;
        cfg.tl_ch_cg_presteps = 10;
        cfg.tl_max_recoveries = 2;
        let plan = plan_attempts(&cfg);
        let solvers: Vec<SolverKind> = plan.iter().map(|a| a.solver).collect();
        assert_eq!(
            solvers,
            vec![
                SolverKind::Ppcg,
                SolverKind::Ppcg,
                SolverKind::Ppcg,
                SolverKind::ConjugateGradient,
                SolverKind::Jacobi
            ]
        );
        // exponential backoff on the estimation window
        assert_eq!(plan[0].presteps, 10);
        assert_eq!(plan[1].presteps, 20);
        assert_eq!(plan[2].presteps, 40);
    }

    #[test]
    fn explicit_fallback_chain_overrides_default() {
        let mut cfg = config();
        cfg.solver = SolverKind::ConjugateGradient;
        cfg.tl_fallback_chain = vec![SolverKind::Jacobi];
        cfg.tl_max_recoveries = 1;
        let plan = plan_attempts(&cfg);
        let solvers: Vec<SolverKind> = plan.iter().map(|a| a.solver).collect();
        assert_eq!(
            solvers,
            vec![
                SolverKind::ConjugateGradient,
                SolverKind::ConjugateGradient,
                SolverKind::Jacobi
            ]
        );
    }

    #[test]
    fn jacobi_has_no_fallback_but_one_retry() {
        let mut cfg = config();
        cfg.solver = SolverKind::Jacobi;
        let plan = plan_attempts(&cfg);
        let solvers: Vec<SolverKind> = plan.iter().map(|a| a.solver).collect();
        assert_eq!(solvers, vec![SolverKind::Jacobi, SolverKind::Jacobi]);
    }

    #[test]
    fn presteps_backoff_caps_at_max_iters() {
        let mut cfg = config();
        cfg.solver = SolverKind::Chebyshev;
        cfg.tl_ch_cg_presteps = 30;
        cfg.tl_max_iters = 100;
        cfg.tl_max_recoveries = 10;
        let plan = plan_attempts(&cfg);
        let retries: Vec<usize> = plan
            .iter()
            .filter(|a| a.solver == SolverKind::Chebyshev)
            .map(|a| a.presteps)
            .collect();
        assert_eq!(retries, vec![30, 60, 100]);
    }
}
