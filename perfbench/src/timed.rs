//! The `ports` layer boundary: a [`TeaLeafPort`] wrapper that times every
//! trait call it forwards.
//!
//! The wrapper forwards the port's lowering capabilities and its fused
//! entry points, so the solver drives exactly the schedule the bare port
//! would see; the only difference is a pair of clock reads per call.

use std::time::Instant;

use simdev::SimContext;
use tea_core::config::Coefficient;
use tea_core::halo::FieldId;
use tea_core::summary::Summary;
use tealeaf::ir::LoweringCaps;
use tealeaf::{ModelId, NormField, TeaLeafPort};

/// The timed trait methods, one per kernel entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    InitFields,
    HaloUpdate,
    CgInit,
    CgCalcW,
    CgCalcUr,
    CgCalcP,
    CgFusedUrP,
    ChebyInit,
    ChebyIterate,
    PpcgInitSd,
    PpcgInner,
    JacobiIterate,
    Residual,
    Calc2Norm,
    Finalise,
    FieldSummary,
    ReadU,
}

impl Method {
    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Method::InitFields => "init_fields",
            Method::HaloUpdate => "halo_update",
            Method::CgInit => "cg_init",
            Method::CgCalcW => "cg_calc_w",
            Method::CgCalcUr => "cg_calc_ur",
            Method::CgCalcP => "cg_calc_p",
            Method::CgFusedUrP => "cg_fused_ur_p",
            Method::ChebyInit => "cheby_init",
            Method::ChebyIterate => "cheby_iterate",
            Method::PpcgInitSd => "ppcg_init_sd",
            Method::PpcgInner => "ppcg_inner",
            Method::JacobiIterate => "jacobi_iterate",
            Method::Residual => "residual",
            Method::Calc2Norm => "calc_2norm",
            Method::Finalise => "finalise",
            Method::FieldSummary => "field_summary",
            Method::ReadU => "read_u",
        }
    }
}

/// One forwarded call: which method, and its start and end in
/// nanoseconds since the wrapper's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub method: Method,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times every kernel call into `inner`, keeping the calls in memory.
pub struct TimedPort {
    inner: Box<dyn TeaLeafPort>,
    epoch: Instant,
    calls: Vec<Call>,
}

impl TimedPort {
    /// Wrap `inner`; call times are measured from `epoch`.
    pub fn new(inner: Box<dyn TeaLeafPort>, epoch: Instant) -> Self {
        TimedPort {
            inner,
            epoch,
            calls: Vec::new(),
        }
    }

    /// The calls recorded so far, in order.
    pub fn into_calls(self) -> Vec<Call> {
        self.calls
    }

    fn timed<R>(&mut self, method: Method, f: impl FnOnce(&mut dyn TeaLeafPort) -> R) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self.inner.as_mut());
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.calls.push(Call {
            method,
            start_ns,
            end_ns,
        });
        out
    }
}

impl TeaLeafPort for TimedPort {
    fn model(&self) -> ModelId {
        self.inner.model()
    }

    fn context(&self) -> &SimContext {
        self.inner.context()
    }

    fn context_mut(&mut self) -> &mut SimContext {
        self.inner.context_mut()
    }

    fn lowering_caps(&self) -> LoweringCaps {
        self.inner.lowering_caps()
    }

    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        self.timed(Method::InitFields, |p| p.init_fields(coefficient, rx, ry))
    }

    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        self.timed(Method::HaloUpdate, |p| p.halo_update(fields, depth))
    }

    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        self.timed(Method::CgInit, |p| p.cg_init(preconditioner))
    }

    fn cg_calc_w(&mut self) -> f64 {
        self.timed(Method::CgCalcW, |p| p.cg_calc_w())
    }

    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        self.timed(Method::CgCalcUr, |p| p.cg_calc_ur(alpha, preconditioner))
    }

    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        self.timed(Method::CgCalcP, |p| p.cg_calc_p(beta, preconditioner))
    }

    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        self.timed(Method::CgFusedUrP, |p| {
            p.cg_fused_ur_p(alpha, rro, preconditioner)
        })
    }

    fn cheby_init(&mut self, theta: f64) {
        self.timed(Method::ChebyInit, |p| p.cheby_init(theta))
    }

    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.timed(Method::ChebyIterate, |p| p.cheby_iterate(alpha, beta))
    }

    fn ppcg_init_sd(&mut self, theta: f64) {
        self.timed(Method::PpcgInitSd, |p| p.ppcg_init_sd(theta))
    }

    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        self.timed(Method::PpcgInner, |p| p.ppcg_inner(alpha, beta))
    }

    fn jacobi_iterate(&mut self) -> f64 {
        self.timed(Method::JacobiIterate, |p| p.jacobi_iterate())
    }

    fn residual(&mut self) {
        self.timed(Method::Residual, |p| p.residual())
    }

    fn calc_2norm(&mut self, field: NormField) -> f64 {
        self.timed(Method::Calc2Norm, |p| p.calc_2norm(field))
    }

    fn finalise(&mut self) {
        self.timed(Method::Finalise, |p| p.finalise())
    }

    fn field_summary(&mut self) -> Summary {
        self.timed(Method::FieldSummary, |p| p.field_summary())
    }

    fn read_u(&mut self) -> Vec<f64> {
        self.timed(Method::ReadU, |p| p.read_u())
    }

    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        self.inner.inspect_field(id)
    }

    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.inner.poke_field(id, k, value)
    }
}
