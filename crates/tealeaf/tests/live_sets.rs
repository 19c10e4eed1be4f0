//! The checkpoint field sets of `tealeaf::resilience`, derived rather
//! than asserted.
//!
//! [`READ_ONLY`] comes straight from the kernel IR's read/write sets.
//! [`INPUT`] and [`CARRIED`] come from recorded solves: each solver's
//! kernel calls are walked in order, tracking which fields have had their
//! interior written and which have had their depth-1 ring written (only
//! `halo_update` writes rings; a stencil reads its field's ring). A field
//! read before the walk has written the part it reads is live-in. A
//! kernel that starts reading a new field changes these sets and fails
//! here, instead of silently leaving the field out of every checkpoint.

use simdev::devices;
use tea_core::config::{SolverKind, TeaConfig};
use tea_core::halo::FieldId;
use tealeaf::ir::{KernelDesc, KernelId, KERNELS};
use tealeaf::ports::make_port;
use tealeaf::recorder::{KernelCall, RecordingPort};
use tealeaf::resilience::{CARRIED, INPUT, READ_ONLY};
use tealeaf::{driver, ModelId, NormField, Problem};

/// Kernels only the timestep driver runs, around the solve.
const DRIVER_KERNELS: [KernelId; 4] = [
    KernelId::InitU0,
    KernelId::InitCoeffs,
    KernelId::Finalise,
    KernelId::FieldSummary,
];

const SOLVERS: [SolverKind; 4] = [
    SolverKind::ConjugateGradient,
    SolverKind::Chebyshev,
    SolverKind::Ppcg,
    SolverKind::Jacobi,
];

fn sorted(mut fields: Vec<FieldId>) -> Vec<FieldId> {
    fields.sort_by_key(|f| f.name());
    fields.dedup();
    fields
}

#[test]
fn read_only_is_what_solver_kernels_read_and_never_write() {
    let solver_kernels: Vec<&KernelDesc> = KERNELS
        .iter()
        .filter(|d| !DRIVER_KERNELS.contains(&d.id))
        .collect();
    let written: Vec<FieldId> = solver_kernels
        .iter()
        .flat_map(|d| d.writes)
        .copied()
        .collect();
    let read_only = solver_kernels
        .iter()
        .flat_map(|d| d.reads)
        .copied()
        .filter(|f| !written.contains(f))
        .collect();
    assert_eq!(sorted(read_only), sorted(READ_ONLY.to_vec()));
}

/// The IR kernels one recorded call runs, in order.
fn ir_kernels(call: &KernelCall) -> Vec<KernelId> {
    match call {
        KernelCall::CgInit { .. } => vec![KernelId::CgInit],
        KernelCall::CgCalcW { .. } => vec![KernelId::CgCalcW],
        KernelCall::CgCalcUr { .. } => vec![KernelId::CgCalcUr],
        KernelCall::CgCalcP { .. } => vec![KernelId::CgCalcP],
        KernelCall::CgFusedUrP { .. } => vec![KernelId::CgCalcUr, KernelId::CgCalcP],
        KernelCall::ChebyInit { .. } | KernelCall::ChebyIterate { .. } => {
            vec![KernelId::ChebyCalcP, KernelId::ChebyCalcU]
        }
        KernelCall::PpcgInitSd { .. } => vec![KernelId::PpcgInitSd],
        KernelCall::PpcgInner { .. } => vec![KernelId::PpcgCalcW, KernelId::PpcgUpdate],
        KernelCall::JacobiIterate { .. } => vec![KernelId::JacobiCopy, KernelId::JacobiSolve],
        KernelCall::Residual => vec![KernelId::Residual],
        KernelCall::Calc2Norm { .. } => vec![KernelId::Calc2Norm],
        other => panic!("{} is not a solver call", other.kernel_name()),
    }
}

/// The fields read before the calls themselves write them.
fn live_in(calls: &[KernelCall]) -> Vec<FieldId> {
    let mut interior: Vec<FieldId> = Vec::new();
    let mut ring: Vec<FieldId> = Vec::new();
    let mut live = Vec::new();
    for call in calls {
        if let KernelCall::HaloUpdate { fields, depth } = call {
            assert!(*depth >= 1);
            for &f in fields {
                // The exchange reads the interior it copies into the ring.
                if !interior.contains(&f) {
                    live.push(f);
                }
                ring.push(f);
            }
            continue;
        }
        for id in ir_kernels(call) {
            let desc = id.desc();
            let reads = match call {
                KernelCall::Calc2Norm {
                    field: NormField::U0,
                    ..
                } => &[FieldId::U0][..],
                _ => desc.reads,
            };
            live.extend(reads.iter().filter(|f| !interior.contains(f)));
            live.extend(desc.stencil_read.filter(|f| !ring.contains(f)));
            interior.extend(desc.writes);
        }
    }
    sorted(live)
}

/// The calls of one healthy single-step solve on a 32² Serial port: what
/// the log holds between the driver's `init_fields` + halo of `u` and its
/// `finalise`. The unpreconditioned schedule, matching the IR's read and
/// write sets (the preconditioner's `z` lives only in its counts).
fn solve_log(solver: SolverKind) -> Vec<KernelCall> {
    let mut cfg = TeaConfig::paper_problem(32);
    cfg.solver = solver;
    cfg.end_step = 1;
    cfg.tl_eps = 1.0e-12;
    cfg.tl_max_iters = 4000;
    // Few enough presteps that Chebyshev and PPCG reach their own loops.
    cfg.tl_ch_cg_presteps = 4;
    let device = devices::cpu_xeon_e5_2670_x2();
    let problem = Problem::from_config(&cfg).expect("valid config");
    let port = make_port(ModelId::Serial, device.clone(), &problem, 1).expect("port builds");
    let mut rec = RecordingPort::new(port);
    let report = driver::drive(&mut rec, &problem, &device, &cfg);
    assert!(report.converged, "{solver}");
    assert!(
        report.recoveries.is_empty(),
        "{solver}: {:?}",
        report.recoveries
    );
    let log = rec.log();
    let init = log
        .iter()
        .position(|c| matches!(c, KernelCall::InitFields { .. }))
        .expect("driver initialises the fields");
    assert_eq!(
        log[init + 1],
        KernelCall::HaloUpdate {
            fields: vec![FieldId::U],
            depth: 1
        }
    );
    let end = log
        .iter()
        .position(|c| matches!(c, KernelCall::Finalise))
        .expect("driver finalises the step");
    log[init + 2..end].to_vec()
}

#[test]
fn input_is_the_union_of_every_solvers_live_in_set() {
    let mut union = Vec::new();
    for solver in SOLVERS {
        let live = live_in(&solve_log(solver));
        assert!(
            live.iter().all(|f| INPUT.contains(f)),
            "{solver} reads {live:?} at entry, INPUT is {INPUT:?}"
        );
        union.extend(live);
    }
    assert_eq!(sorted(union), sorted(INPUT.to_vec()));
}

#[test]
fn carried_is_live_at_every_cg_loop_head() {
    for solver in [
        SolverKind::ConjugateGradient,
        SolverKind::Chebyshev,
        SolverKind::Ppcg,
    ] {
        let log = solve_log(solver);
        let heads: Vec<usize> = (0..log.len())
            .filter(|&i| {
                log[i]
                    == KernelCall::HaloUpdate {
                        fields: vec![FieldId::P],
                        depth: 1,
                    }
            })
            .collect();
        assert!(heads.len() >= 4, "{solver}: {} loop heads", heads.len());
        let kernels: Vec<&str> = log.iter().map(KernelCall::kernel_name).collect();
        match solver {
            SolverKind::Chebyshev => assert!(kernels.contains(&"cheby_iterate")),
            SolverKind::Ppcg => assert!(kernels.contains(&"ppcg_inner")),
            _ => {}
        }
        for head in heads {
            let live: Vec<FieldId> = live_in(&log[head..])
                .into_iter()
                .filter(|f| !READ_ONLY.contains(f))
                .collect();
            assert_eq!(
                live,
                sorted(CARRIED.to_vec()),
                "{solver}: live at the loop head at call {head}"
            );
        }
    }
}
