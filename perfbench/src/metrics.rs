//! Metric names, units and the result line.

use std::fmt::Write as _;

use tealeaf::ModelId;

use crate::timed::Method;
use crate::workload::model_slug;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cell_iters_per_s", "cell-iter/s"),
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// The trait methods CG and PPCG call, whose calls and wall time are
/// reported per method.
pub const REPORTED_METHODS: [Method; 12] = [
    Method::InitFields,
    Method::HaloUpdate,
    Method::CgInit,
    Method::CgCalcW,
    Method::CgCalcUr,
    Method::CgCalcP,
    Method::CgFusedUrP,
    Method::PpcgInitSd,
    Method::PpcgInner,
    Method::Calc2Norm,
    Method::Finalise,
    Method::FieldSummary,
];

/// Per-layer metrics, printed by a traced run, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for model in ModelId::ALL {
        out.push((format!("ports.{}.over_serial", model_slug(model)), "ratio"));
    }
    for method in REPORTED_METHODS {
        out.push((format!("ports.{}.calls", method.name()), "count"));
        out.push((format!("ports.{}.wall_s", method.name()), "s"));
    }
    let fixed: [(&str, &'static str); 39] = [
        ("ports.abstraction_s", "s"),
        ("kernels.serial_s", "s"),
        ("parpool.regions", "count"),
        ("parpool.inline_runs", "count"),
        ("parpool.poster_parks", "count"),
        ("parpool.worker_parks", "count"),
        ("parpool.steals", "count"),
        ("parpool.region_ns", "ns"),
        ("parpool.region_ns_spread", "frac"),
        ("parpool.steal_region_ns", "ns"),
        ("parpool.steal_region_ns_spread", "frac"),
        ("parpool.dispatch_s", "s"),
        ("parpool.dispatch_share", "frac"),
        ("simdev.launches", "count"),
        ("simdev.launch_ns", "ns"),
        ("simdev.launch_ns_spread", "frac"),
        ("simdev.charge_s", "s"),
        ("simdev.sim_s", "s"),
        ("simdev.wall_over_sim", "ratio"),
        ("telemetry.records", "count"),
        ("telemetry.overhead_frac", "frac"),
        ("solver.iterations", "count"),
        ("solver.self_s", "s"),
        ("mpisim.messages", "count"),
        ("mpisim.elements", "count"),
        ("tile.windows", "count"),
        ("tile.hidden_frac", "frac"),
        ("distributed.over_serial", "ratio"),
        ("distributed.rank2_speedup", "ratio"),
        ("resilience.checkpoints", "count"),
        ("resilience.checkpoint_s", "s"),
        ("setup.problem_s", "s"),
        ("setup.port_s", "s"),
        ("setup.pool_spawn_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.attributed_s", "s"),
        ("trace.unattributed_s", "s"),
        ("failed_frac", "frac"),
        ("peak_rss_mb", "MB"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// A run's result: the benchmark's last line of output.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The one-line JSON object. A non-finite value cannot be printed as
    /// JSON; it is written as 0 and the run marked incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn json_line_has_the_result_keys_and_full_precision() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("solve_s_p50".into(), 0.1 + 0.2, "s")],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"solve_s_p50\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_mark_the_run_incorrect() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("x".into(), f64::NAN, "s")],
        };
        assert!(outcome.to_json().starts_with("{\"correct\": false"));
    }
}
