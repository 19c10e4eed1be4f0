//! Tiny-mesh passes of every workload: the result line names exactly the
//! metrics `BENCHMARK.json` lists, and the correctness gate catches a
//! port that is off by one ulp.

use std::sync::Mutex;

use simdev::SimContext;
use tea_core::config::{Coefficient, TeaConfig};
use tea_core::halo::FieldId;
use tea_core::summary::Summary;
use tea_perfbench::{run, Outcome, Spec, Workload, POOL_THREADS};
use tealeaf::ir::LoweringCaps;
use tealeaf::{ModelId, NormField, TeaLeafPort};

/// The global pools must never see two posting threads at once, so the
/// tests take turns.
static POOLS: Mutex<()> = Mutex::new(());

fn spec(workload: Workload, trace: bool) -> Spec {
    Spec {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        cells: Some(12),
        hook: None,
        trace_out: None,
    }
}

fn run_alone(spec: &Spec) -> Outcome {
    let _turn = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("PARPOOL_THREADS", POOL_THREADS.to_string());
    run(spec).expect("benchmark runs")
}

/// The `name`s of the objects in `BENCHMARK.json`'s array `key`.
fn listed(key: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

#[test]
fn untraced_pass_emits_every_end_to_end_metric() {
    let want = listed("end_to_end");
    assert!(want.contains(&"setup_s".to_string()));
    for workload in Workload::ALL {
        let outcome = run_alone(&spec(workload, false));
        assert!(outcome.correct, "{}: {outcome:?}", workload.name());
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        assert_eq!(names(&outcome), want, "{}", workload.name());
        for (name, value, _) in &outcome.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let json = outcome.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_pass_emits_every_per_layer_metric_and_writes_spans() {
    let want = listed("per_layer");
    for workload in Workload::ALL {
        let mut spec = spec(workload, true);
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-trace-{}.jsonl", workload.name()));
        spec.trace_out = Some(path.clone());
        let outcome = run_alone(&spec);
        assert!(outcome.correct, "{}: {outcome:?}", workload.name());
        assert_eq!(names(&outcome), want, "{}", workload.name());
        let value = |n: &str| outcome.value(n).expect("reported");
        assert!(value("trace.unattributed_s") >= 0.0);
        assert!(value("trace.attributed_s") > 0.0);
        assert!(value("solver.iterations") > 0.0);
        assert_eq!(value("failed_frac"), 0.0);
        let spans = std::fs::read_to_string(&path).expect("spans written");
        assert!(spans.lines().count() > 1);
        assert!(spans.lines().all(|l| l.contains("\"self_ns\":")));
    }
    let tiled = run_alone(&spec(Workload::Tiled, true));
    assert!(tiled.value("mpisim.messages").unwrap() > 0.0);
    assert!(tiled.value("resilience.checkpoints").unwrap() >= 0.0);
}

/// Forwards every call to the wrapped port; a non-Serial port's
/// `cg_calc_w` also leaves the hottest cell of `u` one ulp high, the way
/// a kernel with a rounding bug in one cell would.
struct OneUlpOff(Box<dyn TeaLeafPort>);

impl OneUlpOff {
    fn plant(&mut self) {
        if self.0.model() == ModelId::Serial {
            return;
        }
        let u = self.0.inspect_field(FieldId::U).expect("u is stored");
        // Square padded mesh; only interior cells (halo cells are
        // overwritten by the next halo update).
        let width = (u.len() as f64).sqrt() as usize;
        let halo = TeaConfig::default().halo_depth;
        let interior =
            (halo..width - halo).flat_map(|j| (halo..width - halo).map(move |i| j * width + i));
        let (k, hottest) = interior
            .map(|k| (k, u[k]))
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .expect("the mesh has interior cells");
        self.0
            .poke_field(FieldId::U, k, f64::from_bits(hottest.to_bits() + 1));
    }
}

fn plant(port: Box<dyn TeaLeafPort>) -> Box<dyn TeaLeafPort> {
    Box::new(OneUlpOff(port))
}

impl TeaLeafPort for OneUlpOff {
    fn model(&self) -> ModelId {
        self.0.model()
    }
    fn context(&self) -> &SimContext {
        self.0.context()
    }
    fn context_mut(&mut self) -> &mut SimContext {
        self.0.context_mut()
    }
    fn lowering_caps(&self) -> LoweringCaps {
        self.0.lowering_caps()
    }
    fn init_fields(&mut self, coefficient: Coefficient, rx: f64, ry: f64) {
        self.0.init_fields(coefficient, rx, ry)
    }
    fn halo_update(&mut self, fields: &[FieldId], depth: usize) {
        self.0.halo_update(fields, depth)
    }
    fn cg_init(&mut self, preconditioner: bool) -> f64 {
        self.0.cg_init(preconditioner)
    }
    fn cg_calc_w(&mut self) -> f64 {
        let pw = self.0.cg_calc_w();
        self.plant();
        pw
    }
    fn cg_calc_ur(&mut self, alpha: f64, preconditioner: bool) -> f64 {
        self.0.cg_calc_ur(alpha, preconditioner)
    }
    fn cg_calc_p(&mut self, beta: f64, preconditioner: bool) {
        self.0.cg_calc_p(beta, preconditioner)
    }
    fn cg_fused_ur_p(&mut self, alpha: f64, rro: f64, preconditioner: bool) -> (f64, f64) {
        self.0.cg_fused_ur_p(alpha, rro, preconditioner)
    }
    fn cheby_init(&mut self, theta: f64) {
        self.0.cheby_init(theta)
    }
    fn cheby_iterate(&mut self, alpha: f64, beta: f64) {
        self.0.cheby_iterate(alpha, beta)
    }
    fn ppcg_init_sd(&mut self, theta: f64) {
        self.0.ppcg_init_sd(theta)
    }
    fn ppcg_inner(&mut self, alpha: f64, beta: f64) {
        self.0.ppcg_inner(alpha, beta)
    }
    fn jacobi_iterate(&mut self) -> f64 {
        self.0.jacobi_iterate()
    }
    fn residual(&mut self) {
        self.0.residual()
    }
    fn calc_2norm(&mut self, field: NormField) -> f64 {
        self.0.calc_2norm(field)
    }
    fn finalise(&mut self) {
        self.0.finalise()
    }
    fn field_summary(&mut self) -> Summary {
        self.0.field_summary()
    }
    fn read_u(&mut self) -> Vec<f64> {
        self.0.read_u()
    }
    fn inspect_field(&self, id: FieldId) -> Option<Vec<f64>> {
        self.0.inspect_field(id)
    }
    fn poke_field(&mut self, id: FieldId, k: usize, value: f64) {
        self.0.poke_field(id, k, value)
    }
}

#[test]
fn a_port_one_ulp_off_counts_as_failed() {
    let mut spec = spec(Workload::Paper, false);
    spec.hook = Some(plant);
    let outcome = run_alone(&spec);
    assert!(!outcome.correct, "the gate must not pass a faulty port");
    // Every non-Serial solve carries the fault; every Serial one is clean.
    let per_pass = Workload::Paper.plan(Some(12)).cases.len() as u64;
    let passes = outcome.attempted / per_pass;
    assert_eq!(outcome.failed, outcome.attempted - 2 * passes);
    assert!(outcome.to_json().starts_with("{\"correct\": false"));

    let mut traced = spec.clone();
    traced.trace = true;
    let outcome = run_alone(&traced);
    assert!(!outcome.correct);
    assert!(outcome.value("failed_frac").unwrap() > 0.0);
}
