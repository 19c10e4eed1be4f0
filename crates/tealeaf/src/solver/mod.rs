//! The iterative solvers (paper §1.1): CG, Chebyshev, PPCG and Jacobi.
//!
//! Each solver is written once against [`crate::kernels::TeaLeafPort`] —
//! ports supply kernels, solvers supply the logic, "to ensure that each of
//! the programming models were objectively compared" (§3).
//!
//! ## Convergence criterion
//!
//! Following the reference implementation, convergence is tested on the
//! *squared* residual norm relative to its initial value:
//! `rrn ≤ tl_eps · rro₀`. All solvers share the same `tl_eps` and
//! `tl_max_iters` parameters from the deck.

pub mod cg;
pub mod chebyshev;
pub mod jacobi;
pub mod ppcg;

use tea_core::config::{SolverKind, TeaConfig};

use crate::kernels::TeaLeafPort;
use crate::resilience::{self, FieldCheckpoint, RecoveryEvent, SolverHealth};

/// Result of one solve (one timestep's implicit solve).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Total solver iterations (for Chebyshev/PPCG this includes the CG
    /// eigenvalue-estimation presteps; for PPCG inner smoothing steps are
    /// *not* counted as iterations, matching how TeaLeaf reports).
    pub iterations: usize,
    pub converged: bool,
    /// Final squared residual measure.
    pub final_rrn: f64,
    /// Initial squared residual measure the tolerance was relative to.
    pub initial: f64,
    /// Eigenvalue bounds estimated during the solve (Chebyshev/PPCG).
    pub eigenvalues: Option<(f64, f64)>,
    /// Sentinel trips observed during the solve (empty on healthy runs).
    pub health: Vec<SolverHealth>,
    /// Recovery actions taken during the solve (empty on healthy runs).
    pub recoveries: Vec<RecoveryEvent>,
}

impl SolveOutcome {
    /// An outcome with the numeric results and no health events — what
    /// every solver constructs before the resilience layer annotates it.
    pub(crate) fn clean(
        iterations: usize,
        converged: bool,
        final_rrn: f64,
        initial: f64,
        eigenvalues: Option<(f64, f64)>,
    ) -> Self {
        SolveOutcome {
            iterations,
            converged,
            final_rrn,
            initial,
            eigenvalues,
            health: Vec::new(),
            recoveries: Vec::new(),
        }
    }
}

/// Dispatch to the configured solver. With `tl_resilience` on (the
/// default) the solve runs under the recovery harness: sentinel trips
/// roll back to checkpoints and degrade along the fallback chain; on
/// healthy runs the harness is numerically inert, so results are
/// bit-identical to a plain dispatch.
pub fn solve(port: &mut dyn TeaLeafPort, config: &TeaConfig) -> SolveOutcome {
    if config.tl_resilience {
        resilience::run_with_recovery(port, config)
    } else {
        solve_once(port, config, None)
    }
}

/// Raw single-attempt dispatch: run the configured solver exactly once,
/// with in-phase sentinels but no fallback chain. In-phase rollback
/// needs the solve's `input` snapshot ([`resilience::INPUT`]), which the
/// recovery harness captures once and lends to every attempt; without it
/// the phases never checkpoint. Each attempt is one `solve` telemetry
/// span, so retries and fallbacks show up as sibling spans under the
/// step.
pub fn solve_once(
    port: &mut dyn TeaLeafPort,
    config: &TeaConfig,
    input: Option<&FieldCheckpoint>,
) -> SolveOutcome {
    let ctx = port.context();
    let tel = ctx.telemetry().clone();
    let span = tel.open_span(
        "solve",
        format_args!("{}", config.solver.name()),
        ctx.clock.seconds(),
    );
    let outcome = match config.solver {
        SolverKind::Jacobi => jacobi::solve(port, config),
        SolverKind::ConjugateGradient => cg::solve(port, config, input),
        SolverKind::Chebyshev => chebyshev::solve(port, config, input),
        SolverKind::Ppcg => ppcg::solve(port, config, input),
    };
    tel.close_span(span, port.context().clock.seconds());
    outcome
}
