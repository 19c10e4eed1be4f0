//! Recording wrapper around [`TeaLeafPort`] — the observation layer of
//! the conformance harness.
//!
//! [`RecordingPort`] forwards every kernel invocation to an inner port
//! unchanged (including the fused-CG capability flag, so the solver
//! schedule is exactly what the bare port would see) while appending a
//! [`KernelCall`] — kernel identity plus the scalar inputs/outputs — to
//! an in-memory log. The differential executor in `tea-conformance`
//! builds on this: the log indexes "which kernel, which invocation"
//! when two ports first disagree.

use simdev::SimContext;
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;

use crate::kernels::{NormField, TeaLeafPort};
use crate::model_id::ModelId;

/// One recorded kernel invocation: the trait call and its scalar
/// arguments and results (field state lives in the port, observed
/// separately via [`TeaLeafPort::inspect_field`]).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelCall {
    /// `init_fields(coefficient, rx, ry)`.
    InitFields { rx: f64, ry: f64 },
    /// `halo_update(fields, depth)`.
    HaloUpdate { fields: Vec<FieldId>, depth: usize },
    /// `cg_init` returning `rro`.
    CgInit { preconditioner: bool, rro: f64 },
    /// `cg_calc_w` returning `pw`.
    CgCalcW { pw: f64 },
    /// `cg_calc_ur(alpha)` returning `rrn`.
    CgCalcUr { alpha: f64, rrn: f64 },
    /// `cg_calc_p(beta)`.
    CgCalcP { beta: f64 },
    /// `cg_fused_ur_p(alpha, rro)` returning `(rrn, beta)`.
    CgFusedUrP { alpha: f64, rrn: f64, beta: f64 },
    /// `cheby_init(theta)`.
    ChebyInit { theta: f64 },
    /// `cheby_iterate(alpha, beta)`.
    ChebyIterate { alpha: f64, beta: f64 },
    /// `ppcg_init_sd(theta)`.
    PpcgInitSd { theta: f64 },
    /// `ppcg_inner(alpha, beta)`.
    PpcgInner { alpha: f64, beta: f64 },
    /// `jacobi_iterate` returning `Σ|Δu|`.
    JacobiIterate { err: f64 },
    /// `residual`.
    Residual,
    /// `calc_2norm(field)` returning the norm.
    Calc2Norm { field: NormField, norm: f64 },
    /// `finalise`.
    Finalise,
    /// `field_summary` returning the integrals.
    FieldSummary { summary: Summary },
    /// `read_u`.
    ReadU,
}

impl KernelCall {
    /// Stable kernel name for reports (matches the profile names used in
    /// the cost model where one exists).
    pub fn kernel_name(&self) -> &'static str {
        match self {
            KernelCall::InitFields { .. } => "init_fields",
            KernelCall::HaloUpdate { .. } => "halo_update",
            KernelCall::CgInit { .. } => "cg_init",
            KernelCall::CgCalcW { .. } => "cg_calc_w",
            KernelCall::CgCalcUr { .. } => "cg_calc_ur",
            KernelCall::CgCalcP { .. } => "cg_calc_p",
            KernelCall::CgFusedUrP { .. } => "cg_fused_ur_p",
            KernelCall::ChebyInit { .. } => "cheby_init",
            KernelCall::ChebyIterate { .. } => "cheby_iterate",
            KernelCall::PpcgInitSd { .. } => "ppcg_init_sd",
            KernelCall::PpcgInner { .. } => "ppcg_inner",
            KernelCall::JacobiIterate { .. } => "jacobi_iterate",
            KernelCall::Residual => "residual",
            KernelCall::Calc2Norm { .. } => "calc_2norm",
            KernelCall::Finalise => "finalise",
            KernelCall::FieldSummary { .. } => "field_summary",
            KernelCall::ReadU => "read_u",
        }
    }

    /// The scalar result the call produced, when it has one — the first
    /// thing two lock-stepped ports are compared on.
    pub fn scalar_result(&self) -> Option<f64> {
        match *self {
            KernelCall::CgInit { rro, .. } => Some(rro),
            KernelCall::CgCalcW { pw } => Some(pw),
            KernelCall::CgCalcUr { rrn, .. } => Some(rrn),
            KernelCall::CgFusedUrP { rrn, .. } => Some(rrn),
            KernelCall::JacobiIterate { err } => Some(err),
            KernelCall::Calc2Norm { norm, .. } => Some(norm),
            _ => None,
        }
    }
}

/// A [`TeaLeafPort`] that logs every kernel invocation while forwarding
/// it, bit-transparently, to the wrapped port.
pub struct RecordingPort {
    inner: Box<dyn TeaLeafPort>,
    log: Vec<KernelCall>,
}

impl RecordingPort {
    /// Wrap `inner`; the log starts empty.
    pub fn new(inner: Box<dyn TeaLeafPort>) -> Self {
        RecordingPort {
            inner,
            log: Vec::new(),
        }
    }

    /// The invocations recorded so far, in call order.
    pub fn log(&self) -> &[KernelCall] {
        &self.log
    }

    /// Number of invocations recorded so far (the sequence index the
    /// next call will get).
    pub fn seq(&self) -> usize {
        self.log.len()
    }

    /// Unwrap, discarding the log.
    pub fn into_inner(self) -> Box<dyn TeaLeafPort> {
        self.inner
    }
}

impl TeaLeafPort for RecordingPort {
    fn model(&self) -> ModelId {
        self.inner.model()
    }

    fn context(&self) -> &SimContext {
        self.inner.context()
    }

    fn context_mut(&mut self) -> &mut SimContext {
        self.inner.context_mut()
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        self.inner.init_fields(coefficient, rx, ry);
        self.log.push(KernelCall::InitFields { rx, ry });
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        self.inner.halo_update(fields, depth);
        self.log.push(KernelCall::HaloUpdate {
            fields: fields.to_vec(),
            depth,
        });
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        let rro = self.inner.cg_init(preconditioner);
        self.log.push(KernelCall::CgInit {
            preconditioner,
            rro,
        });
        rro
    }

    fn cg_calc_w(&mut self) -> f64 {
        let pw = self.inner.cg_calc_w();
        self.log.push(KernelCall::CgCalcW { pw });
        pw
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        let rrn = self.inner.cg_calc_ur(alpha, preconditioner);
        self.log.push(KernelCall::CgCalcUr { alpha, rrn });
        rrn
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        self.inner.cg_calc_p(beta, preconditioner);
        self.log.push(KernelCall::CgCalcP { beta });
    }

    fn lowering_caps(&self) -> crate::ir::LoweringCaps {
        self.inner.lowering_caps()
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        let (rrn, beta) = self.inner.cg_fused_ur_p(alpha, rro, preconditioner);
        self.log.push(KernelCall::CgFusedUrP { alpha, rrn, beta });
        (rrn, beta)
    }

    fn cheby_init(&mut self, theta: f64) {
        self.inner.cheby_init(theta);
        self.log.push(KernelCall::ChebyInit { theta });
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.inner.cheby_iterate(alpha, beta);
        self.log.push(KernelCall::ChebyIterate { alpha, beta });
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        self.inner.ppcg_init_sd(theta);
        self.log.push(KernelCall::PpcgInitSd { theta });
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        self.inner.ppcg_inner(alpha, beta);
        self.log.push(KernelCall::PpcgInner { alpha, beta });
    }

    fn jacobi_iterate(&mut self) -> f64 {
        let err = self.inner.jacobi_iterate();
        self.log.push(KernelCall::JacobiIterate { err });
        err
    }

    fn residual(&mut self) {
        self.inner.residual();
        self.log.push(KernelCall::Residual);
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        let norm = self.inner.calc_2norm(field);
        self.log.push(KernelCall::Calc2Norm { field, norm });
        norm
    }

    fn finalise(&mut self) {
        self.inner.finalise();
        self.log.push(KernelCall::Finalise);
    }

    fn field_summary(&mut self) -> Summary {
        let summary = self.inner.field_summary();
        self.log.push(KernelCall::FieldSummary { summary });
        summary
    }

    fn read_u(&mut self) -> Vec<f64> {
        let u = self.inner.read_u();
        self.log.push(KernelCall::ReadU);
        u
    }

    fn field(&self, id: FieldId) -> Option<&[f64]> {
        self.inner.field(id)
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        self.inner.inspect_field(id)
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.inner.poke_field(id, k, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::make_port;
    use crate::problem::Problem;
    use simdev::devices;
    use tea_core::config::{SolverKind, TeaConfig};

    fn config(solver: SolverKind) -> TeaConfig {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.solver = solver;
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg
    }

    #[test]
    fn recording_is_transparent_and_logs_the_cg_schedule() {
        let cpu = devices::cpu_xeon_e5_2670_x2();
        let cfg = config(SolverKind::ConjugateGradient);
        let problem = Problem::from_config(&cfg).expect("valid config");

        let mut bare = make_port(ModelId::Serial, cpu.clone(), &problem, 1).unwrap();
        let plain = crate::driver::drive(bare.as_mut(), &problem, &cpu, &cfg);

        let inner = make_port(ModelId::Serial, cpu.clone(), &problem, 1).unwrap();
        let mut recorded = RecordingPort::new(inner);
        let wrapped = crate::driver::drive(&mut recorded, &problem, &cpu, &cfg);

        assert_eq!(plain.summary, wrapped.summary, "wrapper changed numerics");
        assert_eq!(plain.total_iterations, wrapped.total_iterations);

        let log = recorded.log();
        assert!(log.len() > 4);
        assert!(matches!(log[0], KernelCall::HaloUpdate { depth: 2, .. }));
        assert!(log.iter().any(|c| matches!(c, KernelCall::CgInit { .. })));
        let n_w = log
            .iter()
            .filter(|c| c.kernel_name() == "cg_calc_w")
            .count();
        assert_eq!(
            n_w, wrapped.total_iterations,
            "one cg_calc_w per CG iteration"
        );
    }

    #[test]
    fn fused_capability_forwards() {
        let cpu = devices::cpu_xeon_e5_2670_x2();
        let cfg = config(SolverKind::ConjugateGradient);
        let problem = Problem::from_config(&cfg).expect("valid config");
        for model in [ModelId::Serial, ModelId::Cuda] {
            let device = if model == ModelId::Cuda {
                devices::gpu_k20x()
            } else {
                cpu.clone()
            };
            let inner = make_port(model, device, &problem, 1).unwrap();
            let caps = inner.lowering_caps();
            let rec = RecordingPort::new(inner);
            assert_eq!(rec.lowering_caps(), caps, "{model:?}");
        }
    }
}
