//! The benchmark's workloads: which problems one pass solves, and through
//! which ports, devices and distributed entry points.

use simdev::{devices, DeviceSpec};
use tea_core::config::{SolverKind, TeaConfig};
use tealeaf::ModelId;

/// Solver tolerance of every workload. Looser than the paper deck's
/// 1e-15 so that one pass of the largest workload stays well inside a
/// run; iteration counts stay deterministic, so throughput in
/// cell-iterations per second is comparable across commits.
pub const TL_EPS: f64 = 1.0e-10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every supported port on the CPU and GPU device models, CG and
    /// PPCG, 256², one step (paper Figures 8 and 9).
    Paper,
    /// Distributed CG and PPCG on 1x1 and 2x1 rank grids, plain and
    /// fault-free resilient, beside the Serial port, 512², one step.
    Tiled,
}

/// One solve of a pass.
#[derive(Debug, Clone)]
pub enum Case {
    /// `model` on `device` through `make_port` and `driver::drive`.
    Port {
        problem: usize,
        model: ModelId,
        device: DeviceSpec,
    },
    /// A tiled solve through the distributed entry points: the plain
    /// overlapped one, or the resilient one over a fault-free transport.
    Distributed {
        problem: usize,
        grid: (usize, usize),
        resilient: bool,
    },
}

impl Case {
    pub fn problem(&self) -> usize {
        match self {
            Case::Port { problem, .. } | Case::Distributed { problem, .. } => *problem,
        }
    }
}

/// The solves of one pass over a workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The decks solved; every one has a Serial port case in `cases`.
    pub problems: Vec<TeaConfig>,
    pub cases: Vec<Case>,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Paper, Workload::Tiled];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper-256",
            Workload::Tiled => "tiled-512",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pass at the workload's mesh size, or at `cells` when given
    /// (the tests' tiny meshes).
    pub fn plan(self, cells: Option<usize>) -> Plan {
        let size = match self {
            Workload::Paper => 256,
            Workload::Tiled => 512,
        };
        let problems: Vec<TeaConfig> = [SolverKind::ConjugateGradient, SolverKind::Ppcg]
            .into_iter()
            .map(|solver| {
                let mut cfg = TeaConfig::paper_problem(cells.unwrap_or(size));
                cfg.solver = solver;
                cfg.end_step = 1;
                cfg.tl_eps = TL_EPS;
                cfg
            })
            .collect();
        let device_set = match self {
            Workload::Paper => vec![devices::cpu_xeon_e5_2670_x2(), devices::gpu_k20x()],
            Workload::Tiled => vec![devices::cpu_xeon_e5_2670_x2()],
        };
        let mut cases = Vec::new();
        for problem in 0..problems.len() {
            for device in &device_set {
                for model in ModelId::ALL {
                    let wanted = self != Workload::Tiled || model == ModelId::Serial;
                    if wanted && model.supports(device.kind).is_some() {
                        cases.push(Case::Port {
                            problem,
                            model,
                            device: device.clone(),
                        });
                    }
                }
            }
            if self == Workload::Tiled {
                for grid in [(1, 1), (2, 1)] {
                    for resilient in [false, true] {
                        cases.push(Case::Distributed {
                            problem,
                            grid,
                            resilient,
                        });
                    }
                }
            }
        }
        Plan { problems, cases }
    }
}

/// Short identifier of a model, usable in a metric name.
pub fn model_slug(model: ModelId) -> &'static str {
    match model {
        ModelId::Serial => "serial",
        ModelId::Omp3F90 => "omp3-f90",
        ModelId::Omp3Cpp => "omp3-cpp",
        ModelId::Omp4 => "omp4",
        ModelId::OpenAcc => "openacc",
        ModelId::Kokkos => "kokkos",
        ModelId::KokkosHP => "kokkos-hp",
        ModelId::Raja => "raja",
        ModelId::RajaSimd => "raja-simd",
        ModelId::OpenCl => "opencl",
        ModelId::Cuda => "cuda",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports(plan: &Plan) -> usize {
        plan.cases
            .iter()
            .filter(|c| matches!(c, Case::Port { .. }))
            .count()
    }

    #[test]
    fn paper_pass_covers_every_supported_cpu_and_gpu_port() {
        let plan = Workload::Paper.plan(None);
        // 10 CPU ports + 6 GPU ports, for each of CG and PPCG.
        assert_eq!(ports(&plan), 32);
        assert_eq!(plan.cases.len(), 32);
    }

    #[test]
    fn tiled_pass_has_serial_reference_and_both_entry_points() {
        let plan = Workload::Tiled.plan(None);
        assert_eq!(ports(&plan), 2);
        assert_eq!(plan.cases.len(), 10);
    }

    #[test]
    fn every_problem_has_a_serial_case() {
        for w in Workload::ALL {
            let plan = w.plan(Some(8));
            for p in 0..plan.problems.len() {
                assert!(plan.cases.iter().any(|c| matches!(
                    c,
                    Case::Port { problem, model: ModelId::Serial, .. } if *problem == p
                )));
            }
        }
    }

    #[test]
    fn names_round_trip_and_slugs_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let mut slugs: Vec<_> = ModelId::ALL.iter().map(|&m| model_slug(m)).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), ModelId::ALL.len());
    }
}
