//! Distributed (multi-tile) TeaLeaf over the MPI-like layer.
//!
//! The paper's models are node-level; "inter-node communications … is
//! handled with MPI in TeaLeaf" (§3). This module supplies that layer for
//! the reproduction: the global mesh is decomposed over a 2-D Cartesian
//! [`Grid2d`] of [`mpisim`] ranks, one rectangular [`Tile`] each. Every
//! solver the serial reference implements — Jacobi, CG, Chebyshev and
//! PPCG — runs distributed, exchanging halos with up to eight neighbours
//! (four edges, four corners) per stencil pass and combining reductions
//! with the exactly-ordered carry pipeline in [`crate::tile`].
//!
//! ## Communication/computation overlap
//!
//! Each stencil pass opens a halo window ([`tile::post_halo`]), updates
//! the interior cells — whose 5-point stencil reads no ghost cell — while
//! the exchange is in flight, completes the window, then updates the
//! boundary ring. Because no TeaLeaf kernel writes a field its stencil
//! reads, the split is **bit-identical** to the blocking schedule by
//! construction; [`run_distributed_solver_blocking`] exists so tests can
//! assert exactly that, and [`OverlapStats`] reports what each window hid
//! in deterministic logical units.
//!
//! ## Bit-identity
//!
//! Ranks own contiguous rectangles, reductions are carry-pipelined west
//! to east and folded in rank order (= global row order, thanks to the
//! row-major rank numbering), and ghost cells hold exactly the serial
//! padded-mesh values after every exchange — so a distributed run on any
//! `tiles_x × tiles_y` grid is bit-identical to the serial reference
//! (asserted by the integration tests and the conformance goldens).
//!
//! The one caveat: the distributed drivers replicate the serial solvers'
//! *healthy* control flow and skip the resilience sentinels, which are
//! numerically inert unless they trip. A deck whose serial solve trips a
//! sentinel would diverge — loudly, via the golden/equivalence checks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mpisim::{
    run_spmd, run_spmd_faulty, ExchangeMetrics, FaultDiagnostic, FaultSpec, Grid2d, Rank, Tag,
};
use tea_core::config::{Coefficient, SolverKind, TeaConfig};
use tea_core::summary::Summary;
use tea_telemetry::{Record, TelemetrySink};

use crate::cheby::{estimated_iterations, ChebyCoeffs, ChebyShift};
use crate::eigen::eigenvalue_estimate;
use crate::ir;
use crate::ports::common::{self, Us};
use crate::resilience::{RecoveryAction, RecoveryEvent, SolverHealth};
use crate::solver::cg::CgHistory;
use crate::solver::chebyshev::CHECK_INTERVAL;
use crate::tile::{self, OverlapStats, Span, Tile, TileGeom};

/// Result of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedReport {
    pub ranks: usize,
    pub total_iterations: usize,
    pub converged: bool,
    pub summary: Summary,
}

/// Row range (global interior rows) owned by `rank` of `size` in the
/// 1-D strip decomposition — the y-axis slice of [`tile::tile_span`].
pub fn stripe_rows(y_cells: usize, rank: usize, size: usize) -> (usize, usize) {
    tile::tile_span(y_cells, rank, size)
}

// ---------------------------------------------------------------------------
// per-rank worker
// ---------------------------------------------------------------------------

/// The fields a halo exchange can move, with their base tags and
/// boundary semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ex {
    Density,
    Energy,
    U,
    P,
    Sd,
    /// Jacobi's previous-iterate scratch (stored in `r`).
    RScratch,
}

impl Ex {
    fn base(self) -> Tag {
        match self {
            Ex::Density => 1,
            Ex::Energy => 2,
            Ex::U => 3,
            Ex::P => 4,
            Ex::Sd => 5,
            Ex::RScratch => 6,
        }
    }

    /// Whether the exchange refreshes the local reflective halo first.
    /// Jacobi's scratch is exchanged raw: the serial sweep reads 0.0 in
    /// its physical ghosts (the copy never writes them), so a reflective
    /// update there would change the answer.
    fn reflect(self) -> bool {
        !matches!(self, Ex::RScratch)
    }

    fn name(self) -> &'static str {
        match self {
            Ex::Density => "density",
            Ex::Energy => "energy",
            Ex::U => "u",
            Ex::P => "p",
            Ex::Sd => "sd",
            Ex::RScratch => "r-scratch",
        }
    }
}

/// Borrow the geometry and the field an [`Ex`] names, disjointly.
fn slot(t: &mut Tile, f: Ex) -> (&TileGeom, &mut Vec<f64>) {
    match f {
        Ex::Density => (&t.geom, &mut t.density),
        Ex::Energy => (&t.geom, &mut t.energy),
        Ex::U => (&t.geom, &mut t.u),
        Ex::P => (&t.geom, &mut t.p),
        Ex::Sd => (&t.geom, &mut t.sd),
        Ex::RScratch => (&t.geom, &mut t.r),
    }
}

/// One rank's solve state: its tile plus the exchange/overlap
/// instrumentation. The `clock` is logical — cell updates and exchanged
/// elements each cost one unit — so telemetry spans are bit-reproducible.
struct Worker<'a> {
    rank: &'a Rank,
    config: &'a TeaConfig,
    t: Tile,
    overlap: bool,
    stats: OverlapStats,
    metrics: ExchangeMetrics,
    tel: TelemetrySink,
    clock: f64,
}

impl Worker<'_> {
    /// Blocking exchange of one field's halo (no compute to overlap).
    fn exchange(&mut self, f: Ex, depth: usize) {
        let t0 = self.clock;
        let (geom, field) = slot(&mut self.t, f);
        let got = tile::exchange_halo(
            self.rank,
            geom,
            field,
            f.base(),
            depth,
            f.reflect(),
            &mut self.metrics,
        );
        self.clock = t0 + got as f64;
        self.tel.complete_span(
            "exchange",
            format_args!("{} halo", f.name()),
            t0,
            self.clock,
        );
    }

    /// Batched exchange of two independent fields' halos: both windows'
    /// sends are posted before either is drained, so the wires run
    /// concurrently and the pair is charged the slower exchange rather
    /// than the sum. The fields' tags keep the messages apart and the
    /// buffers are disjoint, so the received bits are identical to two
    /// back-to-back exchanges — which is what blocking mode still runs.
    fn exchange_pair(&mut self, a: Ex, b: Ex, depth: usize) {
        if !self.overlap {
            self.exchange(a, depth);
            self.exchange(b, depth);
            return;
        }
        let t0 = self.clock;
        for f in [a, b] {
            let (geom, field) = slot(&mut self.t, f);
            tile::post_halo(
                self.rank,
                geom,
                field,
                f.base(),
                depth,
                f.reflect(),
                &mut self.metrics,
            );
        }
        let mut slowest = 0u64;
        for f in [a, b] {
            let got = {
                let (geom, field) = slot(&mut self.t, f);
                tile::complete_halo(self.rank, geom, field, f.base(), depth)
            };
            self.tel.complete_span(
                "exchange",
                format_args!("{} halo", f.name()),
                t0,
                t0 + got as f64,
            );
            slowest = slowest.max(got);
        }
        self.clock = t0 + slowest as f64;
    }

    /// One stencil pass around one halo window. Overlapped mode posts
    /// the sends, runs the interior while the exchange is in flight,
    /// completes it, then runs the boundary ring; blocking mode finishes
    /// the exchange first and runs one monolithic pass. Both schedules
    /// write identical bits: no kernel writes a field its stencil reads,
    /// and the ring never runs before its ghosts are in.
    ///
    /// When the IR proves the kernel safe to ring-batch
    /// ([`ir::concurrent_ring`]: its ring stencil reads nothing its
    /// interior sweep writes), the boundary ring is enqueued directly
    /// behind the halo drain — second-stream style — and runs while the
    /// interior tail is still in flight, so the window closes at
    /// `max(interior, exchange + ring)` instead of
    /// `max(interior, exchange) + ring`. The execution order (interior,
    /// complete, ring) is unchanged; only the charged schedule tightens.
    fn overlapped_pass(
        &mut self,
        kernel: ir::KernelId,
        f: Ex,
        depth: usize,
        label: &str,
        run: &mut dyn FnMut(&mut Tile, Span),
    ) {
        let t0 = self.clock;
        if self.overlap {
            {
                let (geom, field) = slot(&mut self.t, f);
                tile::post_halo(
                    self.rank,
                    geom,
                    field,
                    f.base(),
                    depth,
                    f.reflect(),
                    &mut self.metrics,
                );
            }
            let interior = tile::span_cells(&self.t.geom.mesh, Span::Inner);
            run(&mut self.t, Span::Inner);
            let got = {
                let (geom, field) = slot(&mut self.t, f);
                tile::complete_halo(self.rank, geom, field, f.base(), depth)
            };
            // Logical timeline: the exchange and the interior pass share
            // the window's start; the window closes when both are done.
            let t_interior = t0 + interior as f64;
            let t_exchange = t0 + got as f64;
            self.tel.complete_span(
                "exchange",
                format_args!("{} halo", f.name()),
                t0,
                t_exchange,
            );
            self.tel
                .complete_span("interior", format_args!("{label} interior"), t0, t_interior);
            let ring = tile::span_cells(&self.t.geom.mesh, Span::Ring);
            let tb = if ir::concurrent_ring(kernel.desc()) {
                // Batched: the ring rides the drain's stream and overlaps
                // the interior tail.
                t_exchange
            } else {
                // A self-clobbering kernel would have to wait for both.
                t_interior.max(t_exchange)
            };
            run(&mut self.t, Span::Ring);
            self.clock = t_interior.max(tb + ring as f64);
            self.tel.complete_span(
                "boundary",
                format_args!("{label} ring"),
                tb,
                tb + ring as f64,
            );
            self.stats.absorb_window(interior, ring, got);
        } else {
            let got = {
                let (geom, field) = slot(&mut self.t, f);
                tile::exchange_halo(
                    self.rank,
                    geom,
                    field,
                    f.base(),
                    depth,
                    f.reflect(),
                    &mut self.metrics,
                )
            };
            self.clock = t0 + got as f64;
            self.tel.complete_span(
                "exchange",
                format_args!("{} halo", f.name()),
                t0,
                self.clock,
            );
            let all = tile::span_cells(&self.t.geom.mesh, Span::All);
            let ta = self.clock;
            run(&mut self.t, Span::All);
            self.clock = ta + all as f64;
            self.tel
                .complete_span("boundary", format_args!("{label}"), ta, self.clock);
            self.stats.absorb_window(0, all, got);
        }
    }

    /// A full (unsplit) kernel pass run inside a halo window it does not
    /// read from — e.g. the coefficient build riding the `u` exchange.
    fn overlapped_full(
        &mut self,
        f: Ex,
        depth: usize,
        label: &str,
        cells: u64,
        run: impl FnOnce(&mut Tile),
    ) {
        let t0 = self.clock;
        if self.overlap {
            {
                let (geom, field) = slot(&mut self.t, f);
                tile::post_halo(
                    self.rank,
                    geom,
                    field,
                    f.base(),
                    depth,
                    f.reflect(),
                    &mut self.metrics,
                );
            }
            run(&mut self.t);
            let got = {
                let (geom, field) = slot(&mut self.t, f);
                tile::complete_halo(self.rank, geom, field, f.base(), depth)
            };
            let t_run = t0 + cells as f64;
            let t_exchange = t0 + got as f64;
            self.tel.complete_span(
                "exchange",
                format_args!("{} halo", f.name()),
                t0,
                t_exchange,
            );
            self.tel
                .complete_span("interior", format_args!("{label}"), t0, t_run);
            self.clock = t_run.max(t_exchange);
            self.stats.absorb_window(cells, 0, got);
        } else {
            let got = {
                let (geom, field) = slot(&mut self.t, f);
                tile::exchange_halo(
                    self.rank,
                    geom,
                    field,
                    f.base(),
                    depth,
                    f.reflect(),
                    &mut self.metrics,
                )
            };
            self.clock = t0 + got as f64;
            self.tel.complete_span(
                "exchange",
                format_args!("{} halo", f.name()),
                t0,
                self.clock,
            );
            let ta = self.clock;
            run(&mut self.t);
            self.clock = ta + cells as f64;
            self.tel
                .complete_span("boundary", format_args!("{label}"), ta, self.clock);
            self.stats.absorb_window(0, cells, got);
        }
    }

    /// Exactly-ordered global reduction of a per-cell contribution.
    fn reduce(&self, contribution: impl Fn(&Tile, usize) -> f64) -> f64 {
        tile::ordered_reduce(self.rank, &self.t.geom, |k| contribution(&self.t, k))
    }

    /// Four-component analogue (the field summary).
    fn reduce4(&self, contribution: impl Fn(&Tile, usize) -> [f64; 4]) -> [f64; 4] {
        tile::ordered_reduce4(self.rank, &self.t.geom, |k| contribution(&self.t, k))
    }
}

// ---------------------------------------------------------------------------
// kernel passes
// ---------------------------------------------------------------------------
//
// Each pass destructures the tile so written fields get `Us` wrappers
// while read fields stay shared slices, exactly like the serial ports.
// SAFETY throughout: single-threaded within the rank, each cell written
// by exactly one call per pass; `tile::for_cells` visits interior cells
// only, and each pass checks its fields with `common::assert_fields`
// before it reads any (the cell kernels' bounds proof).

fn k_init_u0(t: &mut Tile) {
    let Tile {
        geom,
        density,
        energy,
        u0,
        u,
        ..
    } = t;
    let mesh = &geom.mesh;
    let (u0, u) = (Us::new(u0), Us::new(u));
    for j in mesh.i0()..mesh.j1() {
        unsafe { common::row_init_u0(mesh, j, density, energy, &u0, &u) };
    }
}

fn k_init_coeffs(t: &mut Tile, coefficient: Coefficient, rx: f64, ry: f64) {
    let Tile {
        geom,
        density,
        kx,
        ky,
        ..
    } = t;
    let mesh = &geom.mesh;
    let (kx, ky) = (Us::new(kx), Us::new(ky));
    for j in mesh.i0()..=mesh.j1() {
        unsafe { common::row_init_coeffs(mesh, j, coefficient, rx, ry, density, &kx, &ky) };
    }
}

fn k_cg_init(t: &mut Tile) {
    let Tile {
        geom,
        u,
        u0,
        kx,
        ky,
        w,
        r,
        p,
        z,
        ..
    } = t;
    let mesh = &geom.mesh;
    let width = mesh.width();
    let (w, r, p, z) = (Us::new(w), Us::new(r), Us::new(p), Us::new(z));
    common::assert_fields(mesh, &[u, u0, kx, ky], &[&w, &r, &p, &z]);
    tile::for_cells(mesh, Span::All, |k| {
        let _ = unsafe { common::cell_cg_init(width, k, false, u, u0, kx, ky, &w, &r, &p, &z) };
    });
}

fn k_cg_calc_w(t: &mut Tile, span: Span) {
    let Tile {
        geom, p, kx, ky, w, ..
    } = t;
    let mesh = &geom.mesh;
    let width = mesh.width();
    let w = Us::new(w);
    common::assert_fields(mesh, &[p, kx, ky], &[&w]);
    tile::for_cells(mesh, span, |k| {
        let _ = unsafe { common::cell_cg_calc_w(width, k, p, kx, ky, &w) };
    });
}

fn k_cg_calc_ur(t: &mut Tile, alpha: f64) {
    let Tile {
        geom,
        p,
        w,
        kx,
        ky,
        u,
        r,
        z,
        ..
    } = t;
    let mesh = &geom.mesh;
    let width = mesh.width();
    let (u, r, z) = (Us::new(u), Us::new(r), Us::new(z));
    common::assert_fields(mesh, &[p, w, kx, ky], &[&u, &r, &z]);
    tile::for_cells(mesh, Span::All, |k| {
        let _ =
            unsafe { common::cell_cg_calc_ur(width, k, alpha, false, p, w, kx, ky, &u, &r, &z) };
    });
}

fn k_cg_calc_p(t: &mut Tile, beta: f64) {
    let Tile { geom, r, z, p, .. } = t;
    let p = Us::new(p);
    common::assert_fields(&geom.mesh, &[r, z], &[&p]);
    tile::for_cells(&geom.mesh, Span::All, |k| unsafe {
        common::cell_cg_calc_p(k, beta, false, r, z, &p)
    });
}

fn k_cheby_calc_p(t: &mut Tile, span: Span, first: bool, theta: f64, alpha: f64, beta: f64) {
    let Tile {
        geom,
        u,
        u0,
        kx,
        ky,
        w,
        r,
        p,
        ..
    } = t;
    let mesh = &geom.mesh;
    let width = mesh.width();
    let (w, r, p) = (Us::new(w), Us::new(r), Us::new(p));
    common::assert_fields(mesh, &[u, u0, kx, ky], &[&w, &r, &p]);
    tile::for_cells(mesh, span, |k| unsafe {
        common::cell_cheby_calc_p(
            width, k, first, theta, alpha, beta, u, u0, kx, ky, &w, &r, &p,
        )
    });
}

fn k_add_p_to_u(t: &mut Tile) {
    let Tile { geom, p, u, .. } = t;
    let u = Us::new(u);
    common::assert_fields(&geom.mesh, &[p], &[&u]);
    tile::for_cells(&geom.mesh, Span::All, |k| unsafe {
        common::cell_add_p_to_u(k, p, &u)
    });
}

fn k_sd_init(t: &mut Tile, theta: f64) {
    let Tile { geom, r, sd, .. } = t;
    let sd = Us::new(sd);
    common::assert_fields(&geom.mesh, &[r], &[&sd]);
    tile::for_cells(&geom.mesh, Span::All, |k| unsafe {
        common::cell_sd_init(k, theta, r, &sd)
    });
}

fn k_ppcg_w(t: &mut Tile, span: Span) {
    let Tile {
        geom,
        sd,
        kx,
        ky,
        w,
        ..
    } = t;
    let mesh = &geom.mesh;
    let width = mesh.width();
    let w = Us::new(w);
    common::assert_fields(mesh, &[sd, kx, ky], &[&w]);
    tile::for_cells(mesh, span, |k| unsafe {
        common::cell_ppcg_w(width, k, sd, kx, ky, &w)
    });
}

fn k_ppcg_update(t: &mut Tile, alpha: f64, beta: f64) {
    let Tile {
        geom, w, u, r, sd, ..
    } = t;
    let (u, r, sd) = (Us::new(u), Us::new(r), Us::new(sd));
    common::assert_fields(&geom.mesh, &[w], &[&u, &r, &sd]);
    tile::for_cells(&geom.mesh, Span::All, |k| unsafe {
        common::cell_ppcg_update(k, alpha, beta, w, &u, &r, &sd)
    });
}

/// `r ← u` over the span (the serial `row_jacobi_copy`). The scratch's
/// ghost cells are deliberately untouched: the raw exchange fills the
/// inter-tile ones, the physical ones stay 0.0 as in serial.
fn k_jacobi_copy(t: &mut Tile, span: Span) {
    let Tile { geom, u, r, .. } = t;
    tile::for_cells(&geom.mesh, span, |k| r[k] = u[k]);
}

fn k_jacobi_sweep(t: &mut Tile, span: Span) {
    let Tile {
        geom,
        u0,
        r,
        kx,
        ky,
        u,
        ..
    } = t;
    let mesh = &geom.mesh;
    let width = mesh.width();
    let u = Us::new(u);
    common::assert_fields(mesh, &[u0, r, kx, ky], &[&u]);
    tile::for_cells(mesh, span, |k| {
        let _ = unsafe { common::cell_jacobi_iterate(width, k, u0, r, kx, ky, &u) };
    });
}

fn k_finalise(t: &mut Tile) {
    let Tile {
        geom,
        u,
        density,
        energy,
        ..
    } = t;
    let energy = Us::new(energy);
    common::assert_fields(&geom.mesh, &[u, density], &[&energy]);
    tile::for_cells(&geom.mesh, Span::All, |k| unsafe {
        common::cell_finalise(k, u, density, &energy)
    });
}

// ---------------------------------------------------------------------------
// solver drivers (exact replicas of the serial control flow)
// ---------------------------------------------------------------------------

/// Outcome of one CG phase, mirroring `solver::cg::run_phase`.
struct CgPhase {
    iterations: usize,
    converged: bool,
    /// `rro` after the last iteration — the serial phase's `final_rrn`.
    rro: f64,
    initial: f64,
}

/// The checkpointing context a resilient distributed solve threads
/// through its solver driver (captured at the top of the step, like the
/// serial loop variables at that point).
struct CkptCtx<'s> {
    store: &'s CheckpointStore,
    step: usize,
    total_iterations: usize,
    converged_all: bool,
}

impl CkptCtx<'_> {
    /// Snapshot the worker at `(step, phase, iteration)` if the deck's
    /// checkpoint interval divides `iteration` (iteration 0 included —
    /// the step-start cut every restart can fall back to). Every rank
    /// calls this at the same loop tops, between the same exactly-ordered
    /// reductions, so the set of keys each rank saves is identical: any
    /// key common to all rings is a **consistent cut** of the exchange
    /// graph by construction — no in-flight halo message spans it.
    fn save(&self, wkr: &Worker, phase: u8, iteration: usize, state: LoopState) {
        let interval = wkr.config.tl_checkpoint_interval;
        if interval == 0 || !iteration.is_multiple_of(interval) {
            return;
        }
        wkr.tel.event(
            "resilience",
            format_args!(
                "checkpoint step {} phase {phase} iteration {iteration}",
                self.step
            ),
            wkr.clock,
        );
        self.store.save(
            wkr.rank.id(),
            (self.step, phase, iteration),
            (self.total_iterations, self.converged_all, state),
            &wkr.t,
        );
    }
}

/// One CG phase of at most `max_iters` iterations: `run_phase` with the
/// reductions recomputed from the written fields (bit-equal to the
/// serial fused-kernel partials) and the stencil pass overlapped on the
/// `p` exchange. `start` resumes mid-phase from a checkpoint.
fn cg_phase(
    wkr: &mut Worker,
    max_iters: usize,
    mut history: Option<&mut CgHistory>,
    ckpt: Option<&CkptCtx>,
    start: Option<(f64, f64, usize)>,
) -> CgPhase {
    let (mut rro, initial, mut iterations) = match start {
        Some(s) => s,
        None => {
            k_cg_init(&mut wkr.t);
            let rro = wkr.reduce(|t, k| t.r[k] * t.p[k]);
            (rro, rro, 0)
        }
    };
    let mut converged = initial.abs() <= f64::MIN_POSITIVE; // trivially solved
    while !converged && iterations < max_iters {
        if let Some(ck) = ckpt {
            ck.save(
                wkr,
                PHASE_PRIMARY,
                iterations,
                LoopState::Cg {
                    iteration: iterations,
                    rro,
                    initial,
                    alphas: history
                        .as_deref()
                        .map_or_else(Vec::new, |h| h.alphas.clone()),
                    betas: history
                        .as_deref()
                        .map_or_else(Vec::new, |h| h.betas.clone()),
                },
            );
        }
        wkr.overlapped_pass(
            ir::KernelId::CgCalcW,
            Ex::P,
            1,
            "cg_calc_w",
            &mut |t, span| k_cg_calc_w(t, span),
        );
        let pw = wkr.reduce(|t, k| t.p[k] * t.w[k]);
        let alpha = rro / pw;
        k_cg_calc_ur(&mut wkr.t, alpha);
        let rrn = wkr.reduce(|t, k| common::cell_norm(k, &t.r));
        let beta = rrn / rro;
        k_cg_calc_p(&mut wkr.t, beta);
        if let Some(h) = history.as_deref_mut() {
            h.alphas.push(alpha);
            h.betas.push(beta);
        }
        rro = rrn;
        iterations += 1;
        if rrn.abs() <= wkr.config.tl_eps * initial.abs() {
            converged = true;
        }
    }
    CgPhase {
        iterations,
        converged,
        rro,
        initial,
    }
}

/// One Chebyshev step: the p-update overlapped on the `u` exchange, then
/// the local `u += p` pass — the same two full sweeps `cheby_init` /
/// `cheby_iterate` run serially.
fn cheby_step(wkr: &mut Worker, first: bool, theta: f64, alpha: f64, beta: f64) {
    wkr.overlapped_pass(
        ir::KernelId::ChebyCalcP,
        Ex::U,
        1,
        "cheby_calc_p",
        &mut |t, span| k_cheby_calc_p(t, span, first, theta, alpha, beta),
    );
    k_add_p_to_u(&mut wkr.t);
}

/// The eigenvalue-estimating CG presteps Chebyshev and PPCG share, with
/// the mid-presteps resume path: a phase-0 [`LoopState::Cg`] checkpoint
/// restores the history accumulated so far, so the estimate sees exactly
/// the alphas/betas a clean run would have.
fn presteps_phase(
    wkr: &mut Worker,
    history: &mut CgHistory,
    ckpt: Option<&CkptCtx>,
    resume: Option<&LoopState>,
) -> CgPhase {
    let cfg = wkr.config;
    let presteps = cfg.tl_ch_cg_presteps.min(cfg.tl_max_iters);
    match resume {
        Some(LoopState::Cg {
            iteration,
            rro,
            initial,
            alphas,
            betas,
        }) => {
            history.alphas = alphas.clone();
            history.betas = betas.clone();
            cg_phase(
                wkr,
                presteps,
                Some(history),
                ckpt,
                Some((*rro, *initial, *iteration)),
            )
        }
        _ => cg_phase(wkr, presteps, Some(history), ckpt, None),
    }
}

/// The Chebyshev main loop, entered fresh (after the presteps and the
/// `cheby_init` step, `start_done == 1`) or from a phase-1 checkpoint.
/// The iteration coefficients are replayed, not stored: `ChebyShift` and
/// `ChebyCoeffs` are pure functions of the eigenvalue bounds, so calling
/// `next_pair` `start_done - 1` times reproduces the resumed position's
/// coefficient stream bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn cheby_main(
    wkr: &mut Worker,
    ckpt: Option<&CkptCtx>,
    mut iterations: usize,
    start_done: usize,
    initial: f64,
    eig: (f64, f64),
    budget: usize,
) -> (usize, bool) {
    let cfg = wkr.config;
    let shift = ChebyShift::from_bounds(eig.0, eig.1);
    let mut coeffs = ChebyCoeffs::new(shift);
    for _ in 1..start_done {
        coeffs.next_pair();
    }
    let mut done = start_done;
    let mut converged = false;
    while !converged && done < budget {
        if let Some(ck) = ckpt {
            ck.save(
                wkr,
                PHASE_MAIN,
                done,
                LoopState::ChebyMain {
                    iterations,
                    done,
                    initial,
                    eig,
                    budget,
                },
            );
        }
        let (alpha, beta) = coeffs.next_pair();
        cheby_step(wkr, false, shift.theta, alpha, beta);
        done += 1;
        iterations += 1;
        if done.is_multiple_of(CHECK_INTERVAL) {
            let rrn = wkr.reduce(|t, k| common::cell_norm(k, &t.r));
            if rrn.abs() <= cfg.tl_eps * initial.abs() {
                converged = true;
            }
        }
    }
    if !converged {
        // final norm check at budget exhaustion
        let rrn = wkr.reduce(|t, k| common::cell_norm(k, &t.r));
        converged = rrn.abs() <= cfg.tl_eps * initial.abs();
    }
    (iterations, converged)
}

fn solve_chebyshev(
    wkr: &mut Worker,
    ckpt: Option<&CkptCtx>,
    resume: Option<&LoopState>,
) -> (usize, bool) {
    let cfg = wkr.config;
    let presteps = cfg.tl_ch_cg_presteps.min(cfg.tl_max_iters);
    if let Some(LoopState::ChebyMain {
        iterations,
        done,
        initial,
        eig,
        budget,
    }) = resume
    {
        return cheby_main(wkr, ckpt, *iterations, *done, *initial, *eig, *budget);
    }
    let mut history = CgHistory::default();
    let pre = presteps_phase(wkr, &mut history, ckpt, resume);
    if pre.converged {
        return (pre.iterations, true);
    }
    let initial = pre.initial;
    let Some((eigmin, eigmax)) = eigenvalue_estimate(&history.alphas, &history.betas) else {
        // Degenerate spectrum: finish with CG, like the serial fallback.
        // Uncheckpointed — its keys would collide with the presteps' —
        // so a crash here replays from the last presteps cut.
        let cont = cg_phase(
            wkr,
            cfg.tl_max_iters.saturating_sub(presteps),
            Some(&mut history),
            None,
            None,
        );
        return (pre.iterations + cont.iterations, cont.converged);
    };
    let shift = ChebyShift::from_bounds(eigmin, eigmax);
    let eps_ratio = (cfg.tl_eps * initial.abs() / pre.rro.abs().max(f64::MIN_POSITIVE))
        .clamp(1e-300, 0.999_999);
    let est = estimated_iterations(shift, eps_ratio);
    let budget = (4 * est + CHECK_INTERVAL)
        .max(64)
        .min(cfg.tl_max_iters.saturating_sub(presteps));
    cheby_step(wkr, true, shift.theta, 0.0, 0.0);
    // cheby_init counts as the first Chebyshev step
    cheby_main(
        wkr,
        ckpt,
        pre.iterations + 1,
        1,
        initial,
        (eigmin, eigmax),
        budget,
    )
}

/// The PPCG outer loop, entered fresh (`start_outer == 0`) or from a
/// phase-1 checkpoint. The inner smoothing coefficients are replayed
/// from the eigenvalue bounds like the Chebyshev stream.
fn ppcg_outer(
    wkr: &mut Worker,
    ckpt: Option<&CkptCtx>,
    mut iterations: usize,
    start_outer: usize,
    mut rro: f64,
    initial: f64,
    eig: (f64, f64),
) -> (usize, bool) {
    let cfg = wkr.config;
    let presteps = cfg.tl_ch_cg_presteps.min(cfg.tl_max_iters);
    let shift = ChebyShift::from_bounds(eig.0, eig.1);
    let inner = ChebyCoeffs::take_pairs(shift, cfg.tl_ppcg_inner_steps);
    let max_outer = cfg.tl_max_iters.saturating_sub(presteps);
    let mut outer = start_outer;
    let mut converged = false;
    while !converged && outer < max_outer {
        if let Some(ck) = ckpt {
            ck.save(
                wkr,
                PHASE_MAIN,
                outer,
                LoopState::PpcgOuter {
                    iterations,
                    outer,
                    rro,
                    initial,
                    eig,
                },
            );
        }
        wkr.overlapped_pass(
            ir::KernelId::CgCalcW,
            Ex::P,
            1,
            "cg_calc_w",
            &mut |t, span| k_cg_calc_w(t, span),
        );
        let pw = wkr.reduce(|t, k| t.p[k] * t.w[k]);
        let alpha = rro / pw;
        // The serial outer loop discards this kernel's reduction — only
        // the u/r updates matter, so no allreduce here.
        k_cg_calc_ur(&mut wkr.t, alpha);
        k_sd_init(&mut wkr.t, shift.theta);
        for &(a, b) in &inner {
            wkr.overlapped_pass(
                ir::KernelId::PpcgCalcW,
                Ex::Sd,
                1,
                "ppcg_w",
                &mut |t, span| k_ppcg_w(t, span),
            );
            k_ppcg_update(&mut wkr.t, a, b);
        }
        let rrn = wkr.reduce(|t, k| common::cell_norm(k, &t.r));
        let beta = rrn / rro;
        k_cg_calc_p(&mut wkr.t, beta);
        rro = rrn;
        outer += 1;
        iterations += 1;
        if rrn.abs() <= cfg.tl_eps * initial.abs() {
            converged = true;
        }
    }
    (iterations, converged)
}

fn solve_ppcg(
    wkr: &mut Worker,
    ckpt: Option<&CkptCtx>,
    resume: Option<&LoopState>,
) -> (usize, bool) {
    let cfg = wkr.config;
    let presteps = cfg.tl_ch_cg_presteps.min(cfg.tl_max_iters);
    if let Some(LoopState::PpcgOuter {
        iterations,
        outer,
        rro,
        initial,
        eig,
    }) = resume
    {
        return ppcg_outer(wkr, ckpt, *iterations, *outer, *rro, *initial, *eig);
    }
    let mut history = CgHistory::default();
    let pre = presteps_phase(wkr, &mut history, ckpt, resume);
    if pre.converged {
        return (pre.iterations, true);
    }
    let initial = pre.initial;
    let rro = pre.rro;
    let Some((eigmin, eigmax)) = eigenvalue_estimate(&history.alphas, &history.betas) else {
        // Degenerate spectrum: uncheckpointed CG finish, as in Chebyshev.
        let cont = cg_phase(
            wkr,
            cfg.tl_max_iters.saturating_sub(presteps),
            Some(&mut history),
            None,
            None,
        );
        return (pre.iterations + cont.iterations, cont.converged);
    };
    ppcg_outer(wkr, ckpt, pre.iterations, 0, rro, initial, (eigmin, eigmax))
}

fn solve_jacobi(
    wkr: &mut Worker,
    ckpt: Option<&CkptCtx>,
    resume: Option<&LoopState>,
) -> (usize, bool) {
    let cfg = wkr.config;
    let (mut iterations, mut initial) = match resume {
        Some(LoopState::Jacobi {
            iterations,
            initial,
        }) => (*iterations, *initial),
        _ => (0, 0.0),
    };
    let mut converged = false;
    while !converged && iterations < cfg.tl_max_iters {
        if let Some(ck) = ckpt {
            ck.save(
                wkr,
                PHASE_PRIMARY,
                iterations,
                LoopState::Jacobi {
                    iterations,
                    initial,
                },
            );
        }
        // Double overlap: the u→scratch copy rides the reflective `u`
        // exchange (it reads no ghosts), then the interior sweep rides
        // the raw scratch exchange.
        wkr.overlapped_pass(
            ir::KernelId::JacobiCopy,
            Ex::U,
            1,
            "jacobi_copy",
            &mut |t, span| k_jacobi_copy(t, span),
        );
        wkr.overlapped_pass(
            ir::KernelId::JacobiSolve,
            Ex::RScratch,
            1,
            "jacobi_sweep",
            &mut |t, span| k_jacobi_sweep(t, span),
        );
        let err = wkr.reduce(|t, k| (t.u[k] - t.r[k]).abs());
        iterations += 1;
        if iterations == 1 {
            initial = err;
            if initial == 0.0 {
                converged = true; // already the exact solution
            } else if !initial.is_finite() {
                break; // poisoned inputs; the serial driver bails here too
            }
        } else if err <= cfg.tl_eps * initial {
            converged = true;
        }
    }
    (iterations, converged)
}

// ---------------------------------------------------------------------------
// the SPMD body
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn body(
    rank: &Rank,
    grid: Grid2d,
    config: &TeaConfig,
    solver: SolverKind,
    overlap: bool,
    tel: TelemetrySink,
    store: Option<&CheckpointStore>,
    resume: Option<&TileCheckpoint>,
) -> (DistributedReport, OverlapStats, ExchangeMetrics) {
    // Resuming replays from the snapshot's exact bits: the tile clone
    // already holds the step's generated fields, coefficients and the
    // solver vectors as they were at the checkpointed iteration, so the
    // start-of-run exchanges and the dead step prefix are all skipped.
    let t = match resume {
        Some(ck) => ck.tile.clone(),
        None => Tile::build(config, grid, rank.id()),
    };
    let mut wkr = Worker {
        rank,
        config,
        t,
        overlap,
        stats: OverlapStats::default(),
        metrics: ExchangeMetrics::default(),
        tel,
        clock: 0.0,
    };
    let (rx, ry) = wkr.t.geom.mesh.rx_ry(config.initial_timestep);

    if resume.is_none() {
        wkr.exchange_pair(Ex::Density, Ex::Energy, config.halo_depth);
    }

    let mut total_iterations = resume.map_or(0, |ck| ck.total_iterations);
    let mut converged_all = resume.is_none_or(|ck| ck.converged_all);
    let first_step = resume.map_or(1, |ck| ck.key.0);
    for step in first_step..=config.end_step {
        let resumed = matches!(resume, Some(ck) if ck.key.0 == step);
        if !resumed {
            k_init_u0(&mut wkr.t);
            // The coefficient build reads only density (exchanged at
            // start-of-run depth) and writes kx/ky — it can ride the
            // whole `u` exchange window.
            let mesh = &wkr.t.geom.mesh;
            let coeff_cells = ((mesh.x_cells + 1) * (mesh.y_cells + 1)) as u64;
            wkr.overlapped_full(Ex::U, 1, "init_coeffs", coeff_cells, |t| {
                k_init_coeffs(t, config.coefficient, rx, ry)
            });
        }
        let state = if resumed {
            resume.map(|ck| &ck.state)
        } else {
            None
        };
        let ctx = store.map(|s| CkptCtx {
            store: s,
            step,
            total_iterations,
            converged_all,
        });
        let (iters, converged) = match solver {
            SolverKind::ConjugateGradient => {
                let start = match state {
                    Some(LoopState::Cg {
                        iteration,
                        rro,
                        initial,
                        ..
                    }) => Some((*rro, *initial, *iteration)),
                    _ => None,
                };
                let ph = cg_phase(&mut wkr, config.tl_max_iters, None, ctx.as_ref(), start);
                (ph.iterations, ph.converged)
            }
            SolverKind::Chebyshev => solve_chebyshev(&mut wkr, ctx.as_ref(), state),
            SolverKind::Ppcg => solve_ppcg(&mut wkr, ctx.as_ref(), state),
            SolverKind::Jacobi => solve_jacobi(&mut wkr, ctx.as_ref(), state),
        };
        total_iterations += iters;
        converged_all &= converged;

        k_finalise(&mut wkr.t);
        wkr.exchange(Ex::Energy, 1);
    }

    // global field summary (carry-pipelined; exactly-ordered)
    let vol = wkr.t.geom.mesh.cell_volume();
    let global = wkr.reduce4(|t, k| common::cell_summary(k, &t.density, &t.energy, &t.u, vol));
    let report = DistributedReport {
        ranks: rank.size(),
        total_iterations,
        converged: converged_all,
        summary: Summary {
            volume: global[0],
            mass: global[1],
            internal_energy: global[2],
            temperature: global[3],
        },
    };
    (report, wkr.stats, wkr.metrics)
}

// ---------------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------------

/// Every rank must report the same global result; merge the per-rank
/// instrumentation.
fn agree(
    results: Vec<(DistributedReport, OverlapStats, ExchangeMetrics)>,
) -> (DistributedReport, OverlapStats, ExchangeMetrics) {
    let first = results[0].0.clone();
    let mut stats = OverlapStats::default();
    let mut metrics = ExchangeMetrics::default();
    for (r, s, m) in &results {
        assert_eq!(*r, first, "ranks must agree on the global result");
        stats.merge(s);
        metrics.merge(m);
    }
    (first, stats, metrics)
}

/// Resolve the deck's tile grid for `ranks` ranks (an unset deck means a
/// 1-D column strip), panicking with the typed config error on mismatch.
fn grid_for(ranks: usize, config: &TeaConfig) -> Grid2d {
    let (gx, gy) = config
        .tile_grid(ranks)
        .unwrap_or_else(|e| panic!("invalid tile grid: {e}"));
    Grid2d::new(gx, gy)
}

/// Solve the configured problem with the deck's solver on a
/// `tiles_x × tiles_y` rank grid, overlapping communication with
/// interior compute. Returns the global report (identical on every
/// rank, and bit-identical to the serial reference).
pub fn run_distributed_solver(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
) -> DistributedReport {
    run_distributed_solver_instrumented(tiles_x, tiles_y, config, true).0
}

/// Non-overlapped variant: every exchange completes before its stencil
/// pass. Bit-identical to [`run_distributed_solver`] by construction;
/// exists so tests and benchmarks can assert and measure exactly that.
pub fn run_distributed_solver_blocking(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
) -> DistributedReport {
    run_distributed_solver_instrumented(tiles_x, tiles_y, config, false).0
}

/// [`run_distributed_solver`] returning the merged overlap accounting
/// and per-direction exchange counters alongside the report.
pub fn run_distributed_solver_instrumented(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
    overlap: bool,
) -> (DistributedReport, OverlapStats, ExchangeMetrics) {
    let grid = Grid2d::new(tiles_x, tiles_y);
    let solver = config.solver;
    let results = run_spmd(grid.ranks(), |rank| {
        body(
            rank,
            grid,
            config,
            solver,
            overlap,
            TelemetrySink::disabled(),
            None,
            None,
        )
    });
    agree(results)
}

/// [`run_distributed_solver`] over a fault-injected message layer: the
/// reliable transport must make the run bit-identical to the fault-free
/// one or abort with a [`FaultDiagnostic`] — never a silently wrong
/// answer (asserted by the conformance fault matrix, edge and corner
/// channels alike).
pub fn run_distributed_solver_faulty(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
    spec: FaultSpec,
) -> Result<DistributedReport, FaultDiagnostic> {
    let grid = Grid2d::new(tiles_x, tiles_y);
    let solver = config.solver;
    let results = run_spmd_faulty(grid.ranks(), spec, |rank| {
        body(
            rank,
            grid,
            config,
            solver,
            true,
            TelemetrySink::disabled(),
            None,
            None,
        )
    })?;
    Ok(agree(results).0)
}

/// [`run_distributed_solver`] with rank 0 emitting telemetry spans on a
/// logical clock: `exchange`, `interior` and `boundary` spans per halo
/// window, so `tea-prof` can table how much traffic each solver hides.
pub fn run_distributed_solver_traced(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
) -> (
    DistributedReport,
    OverlapStats,
    ExchangeMetrics,
    Vec<Record>,
) {
    let grid = Grid2d::new(tiles_x, tiles_y);
    let solver = config.solver;
    let (sink, collector) = TelemetrySink::collecting();
    let results = run_spmd(grid.ranks(), |rank| {
        let tel = if rank.id() == 0 {
            sink.clone()
        } else {
            TelemetrySink::disabled()
        };
        body(rank, grid, config, solver, true, tel, None, None)
    });
    let (report, stats, metrics) = agree(results);
    (report, stats, metrics, collector.records())
}

/// Solve the configured problem with CG across `ranks` tiles (the
/// deck's `tl_tiles_x`/`tl_tiles_y` grid, or a 1-D strip when unset);
/// returns the global report (identical on every rank).
pub fn run_distributed_cg(ranks: usize, config: &TeaConfig) -> DistributedReport {
    let grid = grid_for(ranks, config);
    let results = run_spmd(ranks, |rank| {
        body(
            rank,
            grid,
            config,
            SolverKind::ConjugateGradient,
            true,
            TelemetrySink::disabled(),
            None,
            None,
        )
    });
    agree(results).0
}

/// Same as [`run_distributed_cg`] but over a fault-injected message
/// layer. The reliable transport must make the run **bit-identical** to
/// the fault-free one, or abort with a [`FaultDiagnostic`] when its
/// recovery deadline expires — never return a silently wrong answer
/// (asserted by the conformance fault matrix).
pub fn run_distributed_cg_faulty(
    ranks: usize,
    config: &TeaConfig,
    spec: FaultSpec,
) -> Result<DistributedReport, FaultDiagnostic> {
    let grid = grid_for(ranks, config);
    let results = run_spmd_faulty(ranks, spec, |rank| {
        body(
            rank,
            grid,
            config,
            SolverKind::ConjugateGradient,
            true,
            TelemetrySink::disabled(),
            None,
            None,
        )
    })?;
    Ok(agree(results).0)
}

// ---------------------------------------------------------------------------
// checkpoint/restart and elastic re-decomposition
// ---------------------------------------------------------------------------

/// How many checkpoints each rank's ring keeps. Ranks run in lockstep
/// (every solver iteration has ordered allreduces), so any two ranks'
/// latest checkpoints are at most one interval apart — a ring of a few
/// entries always contains a key common to all ranks.
const CHECKPOINT_KEEP: usize = 4;

/// Checkpoint phase of the primary loop: plain CG, the CG presteps of
/// Chebyshev/PPCG, and the Jacobi sweep loop.
const PHASE_PRIMARY: u8 = 0;
/// Checkpoint phase of the post-presteps main loop: the Chebyshev
/// iteration and the PPCG outer loop.
const PHASE_MAIN: u8 = 1;

/// Checkpoint key: `(step, phase, iteration)`, ordered lexicographically
/// so "latest" means furthest through the run. Phases within a step run
/// in order, and iterations within a phase count up, so tuple order is
/// execution order.
pub type CkptKey = (usize, u8, usize);

/// The solver-loop scalars a checkpoint needs alongside the tile to
/// replay bit-exactly from its key. Everything here comes from global
/// exactly-ordered reductions (or deck constants), so every rank stores
/// identical values — which is what lets an elastic re-decomposition
/// seed a *different* number of ranks from one rank's loop state.
#[derive(Debug, Clone, PartialEq)]
enum LoopState {
    /// Plain CG or the CG presteps of Chebyshev/PPCG. `alphas`/`betas`
    /// carry the eigenvalue-estimation history accumulated so far (empty
    /// for plain CG, which keeps none).
    Cg {
        iteration: usize,
        rro: f64,
        initial: f64,
        alphas: Vec<f64>,
        betas: Vec<f64>,
    },
    /// Chebyshev main loop at `done` completed Chebyshev steps; the
    /// coefficient stream is replayed from the eigenvalue bounds.
    ChebyMain {
        iterations: usize,
        done: usize,
        initial: f64,
        eig: (f64, f64),
        budget: usize,
    },
    /// PPCG outer loop at `outer` completed outer iterations.
    PpcgOuter {
        iterations: usize,
        outer: usize,
        rro: f64,
        initial: f64,
        eig: (f64, f64),
    },
    /// Jacobi at `iterations` completed sweeps.
    Jacobi { iterations: usize, initial: f64 },
}

/// One rank's mid-solve snapshot: the complete tile (halo cells
/// included) plus the loop state needed to replay from here bit-exactly.
#[derive(Clone)]
struct TileCheckpoint {
    key: CkptKey,
    total_iterations: usize,
    converged_all: bool,
    state: LoopState,
    tile: Tile,
}

/// The eleven solver fields a tile snapshot carries, in one fixed order
/// (shared by the reassembly reader and writer).
fn tile_fields(t: &Tile) -> [&Vec<f64>; 11] {
    [
        &t.density, &t.energy, &t.u, &t.u0, &t.p, &t.r, &t.w, &t.z, &t.sd, &t.kx, &t.ky,
    ]
}

fn tile_fields_mut(t: &mut Tile) -> [&mut Vec<f64>; 11] {
    [
        &mut t.density,
        &mut t.energy,
        &mut t.u,
        &mut t.u0,
        &mut t.p,
        &mut t.r,
        &mut t.w,
        &mut t.z,
        &mut t.sd,
        &mut t.kx,
        &mut t.ky,
    ]
}

impl TileCheckpoint {
    /// Field bytes this snapshot restores into a restarted rank — the
    /// unit of the recovery log's "bytes replayed" ledger.
    fn payload_bytes(&self) -> u64 {
        let elements: usize = tile_fields(&self.tile).iter().map(|f| f.len()).sum();
        (elements * std::mem::size_of::<f64>()) as u64
    }
}

/// Shared checkpoint registry for one resilient distributed run: one
/// bounded ring of [`TileCheckpoint`]s per rank, written by the rank
/// threads mid-solve and read by the restart loop after a world dies.
pub struct CheckpointStore {
    slots: Vec<Mutex<VecDeque<TileCheckpoint>>>,
    saves: AtomicU64,
}

impl CheckpointStore {
    fn new(ranks: usize) -> Self {
        CheckpointStore {
            slots: (0..ranks).map(|_| Mutex::new(VecDeque::new())).collect(),
            saves: AtomicU64::new(0),
        }
    }

    /// Save `tile` under `key` with its loop position
    /// `(total_iterations, converged_all, state)`.
    fn save(
        &self,
        rank: usize,
        key: CkptKey,
        (total_iterations, converged_all, state): (usize, bool, LoopState),
        tile: &Tile,
    ) {
        self.saves.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.slots[rank].lock().expect("checkpoint lock");
        // A restarted attempt re-saves the same keys with identical bits
        // (the replay is deterministic); replace rather than duplicate.
        ring.retain(|c| c.key != key);
        // Evict the oldest entry first and refill its buffers field by
        // field, instead of cloning a new tile beside a full ring. (The
        // derived `Tile::clone_from` would reallocate every field.)
        let tile = if ring.len() >= CHECKPOINT_KEEP {
            let mut old = ring
                .pop_front()
                .expect("a full ring has an oldest entry")
                .tile;
            old.geom.clone_from(&tile.geom);
            for (dst, src) in tile_fields_mut(&mut old).into_iter().zip(tile_fields(tile)) {
                dst.clone_from(src);
            }
            old
        } else {
            tile.clone()
        };
        ring.push_back(TileCheckpoint {
            key,
            total_iterations,
            converged_all,
            state,
            tile,
        });
    }

    /// Checkpoints written so far (re-saves of a replayed key included).
    fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Every rank's ring keys, oldest first.
    fn keys(&self) -> Vec<Vec<CkptKey>> {
        self.slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("checkpoint lock")
                    .iter()
                    .map(|c| c.key)
                    .collect()
            })
            .collect()
    }

    /// The consistent cut a restart resumes from. `None` means no common
    /// checkpoint exists yet (restart from scratch).
    fn latest_common(&self) -> Option<CkptKey> {
        latest_common_key(&self.keys())
    }

    /// Clone rank `rank`'s checkpoint for `key`, if present.
    fn get(&self, rank: usize, key: CkptKey) -> Option<TileCheckpoint> {
        self.slots[rank]
            .lock()
            .expect("checkpoint lock")
            .iter()
            .find(|c| c.key == key)
            .cloned()
    }
}

/// The most advanced [`CkptKey`] present in **every** ring — the latest
/// consistent cut of the checkpoint rings. Pure so the property tests
/// can fuzz it directly: the result is always a member of every ring,
/// and no strictly greater key is.
pub fn latest_common_key(rings: &[Vec<CkptKey>]) -> Option<CkptKey> {
    let (first, rest) = rings.split_first()?;
    first
        .iter()
        .copied()
        .filter(|k| rest.iter().all(|ring| ring.contains(k)))
        .max()
}

// ---------------------------------------------------------------------------
// elastic re-decomposition
// ---------------------------------------------------------------------------

/// Copy `tile`'s cells into the global padded canvas at their global
/// coordinates. A tile's local padded cell `(li, lj)` sits at global
/// padded `(c0 + li, r0 + lj)` where `(c0, r0)` are its interior span
/// starts — the halo offsets cancel.
fn blit_into_global(config: &TeaConfig, global: &mut Tile, tile: &Tile, interior_only: bool) {
    let g = &tile.geom;
    let (c0, _) = tile::tile_span(config.x_cells, g.tx, g.grid.tiles_x());
    let (r0, _) = tile::tile_span(config.y_cells, g.ty, g.grid.tiles_y());
    let (lw, lh) = (g.mesh.width(), g.mesh.height());
    let (li0, li1, lj1) = (g.mesh.i0(), g.mesh.i1(), g.mesh.j1());
    let gw = global.geom.mesh.width();
    let (is, js) = if interior_only {
        (li0..li1, li0..lj1)
    } else {
        (0..lw, 0..lh)
    };
    let src = tile_fields(tile);
    for (dst, src) in tile_fields_mut(global).into_iter().zip(src) {
        for lj in js.clone() {
            for li in is.clone() {
                dst[(r0 + lj) * gw + (c0 + li)] = src[lj * lw + li];
            }
        }
    }
}

/// Reassemble the global padded fields from every surviving tile at one
/// consistent cut. Full padded blocks land first (they are the only
/// cover of the global boundary ring, where the reflective halo values
/// live), then interiors in rank order — interiors are authoritative
/// where blocks overlap. Every cell a resumed solve reads before its
/// next halo refresh ends up holding exactly the serial padded-mesh
/// value, because the exchange invariant (ghosts = serial values at the
/// same global coordinate) held when the cut was taken.
fn reassemble_global(config: &TeaConfig, tiles: &[&Tile]) -> Tile {
    let mut global = Tile::build(config, Grid2d::new(1, 1), 0);
    for t in tiles {
        blit_into_global(config, &mut global, t, false);
    }
    for t in tiles {
        blit_into_global(config, &mut global, t, true);
    }
    global
}

/// Carve rank `rank`'s tile of `grid` out of the global canvas — the
/// inverse of [`blit_into_global`], ghost cells included.
fn carve_tile(config: &TeaConfig, global: &Tile, grid: Grid2d, rank: usize) -> Tile {
    let mut t = Tile::build(config, grid, rank);
    let (c0, _) = tile::tile_span(config.x_cells, t.geom.tx, grid.tiles_x());
    let (r0, _) = tile::tile_span(config.y_cells, t.geom.ty, grid.tiles_y());
    let (lw, lh) = (t.geom.mesh.width(), t.geom.mesh.height());
    let gw = global.geom.mesh.width();
    let src = tile_fields(global);
    for (dst, src) in tile_fields_mut(&mut t).into_iter().zip(src) {
        for lj in 0..lh {
            for li in 0..lw {
                dst[lj * lw + li] = src[(r0 + lj) * gw + (c0 + li)];
            }
        }
    }
    t
}

/// Re-tile one consistent cut's checkpoints onto a smaller grid: gather
/// the surviving tile state into the global canvas, carve one fresh tile
/// per new rank, and stamp each with the cut's loop state (identical on
/// every old rank — it is all global-reduction output).
fn regrid_checkpoints(
    config: &TeaConfig,
    old: &[TileCheckpoint],
    to: Grid2d,
) -> Vec<TileCheckpoint> {
    let tiles: Vec<&Tile> = old.iter().map(|c| &c.tile).collect();
    let global = reassemble_global(config, &tiles);
    let meta = &old[0];
    (0..to.ranks())
        .map(|r| TileCheckpoint {
            key: meta.key,
            total_iterations: meta.total_iterations,
            converged_all: meta.converged_all,
            state: meta.state.clone(),
            tile: carve_tile(config, &global, to, r),
        })
        .collect()
}

/// One rung down the elastic ladder: halve the taller tile axis with
/// ceiling division, so `2x2 → 2x1 → 1x1` and `4x1 → 2x1 → 1x1`.
fn degrade(grid: Grid2d) -> Grid2d {
    let (gx, gy) = (grid.tiles_x(), grid.tiles_y());
    if gy >= gx && gy > 1 {
        Grid2d::new(gx, gy.div_ceil(2))
    } else {
        Grid2d::new(gx.div_ceil(2), gy)
    }
}

/// What one resilient distributed run did to stay alive: the recovery
/// timeline plus the counters `tea-prof --recovery` tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryLog {
    /// Every restart and regrid, in order, stamped with the timestep of
    /// the cut it resumed from (0 = restarted from scratch).
    pub events: Vec<RecoveryEvent>,
    /// World relaunches on the same tile grid.
    pub restarts: usize,
    /// Elastic re-decompositions onto a smaller grid.
    pub regrids: usize,
    /// Checkpoints written across all attempts and grid levels.
    pub checkpoints_taken: u64,
    /// Worlds lost to a transport fault (one per failed attempt).
    pub ranks_lost: usize,
    /// Checkpoint field bytes loaded into restarted worlds.
    pub replayed_bytes: u64,
    /// The tile grid the run finished on.
    pub final_grid: (usize, usize),
}

/// The self-healing driver behind every resilient entry point: restart
/// the world from the latest consistent cut up to `restart_budget` times
/// per grid level; when a level's budget is exhausted (a rank that stays
/// dead — e.g. a permanent [`mpisim::KillSpec`]), optionally gather the
/// surviving tile state and re-tile onto a smaller grid. Transient kills
/// are dropped after they fire (the node comes back); permanent kills
/// re-arm on every same-grid restart and only go away when a regrid
/// removes the dead rank from the world. Fault seeds are remixed
/// deterministically per attempt; none of this affects numerics, so any
/// recovered report is **bit-identical** to the clean run's.
#[allow(clippy::too_many_arguments)]
fn resilient_core(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
    solver: SolverKind,
    spec: FaultSpec,
    restart_budget: usize,
    allow_regrid: bool,
    tel: &TelemetrySink,
) -> Result<(DistributedReport, RecoveryLog), FaultDiagnostic> {
    let mut grid = Grid2d::new(tiles_x, tiles_y);
    let mut carried: Option<Vec<TileCheckpoint>> = None;
    let mut armed_kill = spec.kill_rank;
    let mut log = RecoveryLog {
        final_grid: (tiles_x, tiles_y),
        ..RecoveryLog::default()
    };
    let mut attempt = 0u64; // across grid levels, for seed remixing
    let mut tick = 0.0; // driver-side event clock
    loop {
        let store = CheckpointStore::new(grid.ranks());
        let mut level_restarts = 0usize;
        let outcome = loop {
            let mut attempt_spec = spec;
            attempt_spec.kill_rank = armed_kill.filter(|k| k.rank < grid.ranks());
            if attempt > 0 {
                // Deterministic remix: a restarted transport draws a
                // fresh but reproducible fault schedule.
                attempt_spec.seed = spec.seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            let resumes: Vec<Option<TileCheckpoint>> = match store.latest_common() {
                Some(key) => (0..grid.ranks()).map(|r| store.get(r, key)).collect(),
                None => match &carried {
                    Some(seeds) => seeds.iter().cloned().map(Some).collect(),
                    None => (0..grid.ranks()).map(|_| None).collect(),
                },
            };
            log.replayed_bytes += resumes
                .iter()
                .flatten()
                .map(TileCheckpoint::payload_bytes)
                .sum::<u64>();
            let result = run_spmd_faulty(grid.ranks(), attempt_spec, |rank| {
                let sink = if rank.id() == 0 {
                    tel.clone()
                } else {
                    TelemetrySink::disabled()
                };
                body(
                    rank,
                    grid,
                    config,
                    solver,
                    true,
                    sink,
                    Some(&store),
                    resumes[rank.id()].as_ref(),
                )
            });
            attempt += 1;
            match result {
                Ok(results) => break Ok(agree(results).0),
                Err(diag) => {
                    log.ranks_lost += 1;
                    tel.event("resilience", format_args!("world died: {diag}"), tick);
                    tick += 1.0;
                    if let Some(k) = armed_kill {
                        if !k.permanent {
                            armed_kill = None; // transient crash: the node comes back
                        }
                    }
                    if level_restarts >= restart_budget {
                        break Err(diag);
                    }
                    level_restarts += 1;
                    log.restarts += 1;
                    let cut = store
                        .latest_common()
                        .or_else(|| carried.as_ref().map(|s| s[0].key));
                    let (estep, eiter) = cut.map_or((0, 0), |k| (k.0, k.2));
                    log.events.push(RecoveryEvent {
                        step: estep,
                        trigger: SolverHealth::DistributedFault { rank: diag.rank },
                        action: RecoveryAction::Restart {
                            step: estep,
                            iteration: eiter,
                        },
                    });
                    tel.event(
                        "resilience",
                        format_args!(
                            "restart from (step {estep}, iteration {eiter}) on {}x{} tiles",
                            grid.tiles_x(),
                            grid.tiles_y()
                        ),
                        tick,
                    );
                    tick += 1.0;
                }
            }
        };
        log.checkpoints_taken += store.saves();
        match outcome {
            Ok(report) => {
                log.final_grid = (grid.tiles_x(), grid.tiles_y());
                return Ok((report, log));
            }
            Err(diag) => {
                if !(allow_regrid && grid.ranks() > 1) {
                    return Err(diag);
                }
                let to = degrade(grid);
                let source: Option<Vec<TileCheckpoint>> = match store.latest_common() {
                    Some(key) => Some(
                        (0..grid.ranks())
                            .map(|r| store.get(r, key).expect("common key present on every rank"))
                            .collect(),
                    ),
                    None => carried.take(),
                };
                let estep = source.as_ref().map_or(0, |s| s[0].key.0);
                log.events.push(RecoveryEvent {
                    step: estep,
                    trigger: SolverHealth::DistributedFault { rank: diag.rank },
                    action: RecoveryAction::Regrid {
                        from: (grid.tiles_x(), grid.tiles_y()),
                        to: (to.tiles_x(), to.tiles_y()),
                    },
                });
                tel.event(
                    "resilience",
                    format_args!(
                        "regrid {}x{} -> {}x{} on surviving state",
                        grid.tiles_x(),
                        grid.tiles_y(),
                        to.tiles_x(),
                        to.tiles_y()
                    ),
                    tick,
                );
                tick += 1.0;
                log.regrids += 1;
                carried = source.map(|old| regrid_checkpoints(config, &old, to));
                grid = to;
                // The dead node is not part of the smaller world.
                armed_kill = None;
            }
        }
    }
}

/// Self-healing distributed solve of the deck's solver on a
/// `tiles_x × tiles_y` grid over the fault-injected transport:
/// checkpoint rings every `tl_checkpoint_interval` iterations, world
/// restarts from the latest consistent cut (`tl_max_recoveries` per grid
/// level), and — when `tl_elastic_regrid` allows — re-decomposition onto
/// a smaller grid when a rank stays dead. Either the returned report is
/// bit-identical to the clean run's, or the run aborts loudly with a
/// [`FaultDiagnostic`] — never a silently wrong answer.
pub fn run_distributed_solver_resilient(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
    spec: FaultSpec,
) -> Result<(DistributedReport, RecoveryLog), FaultDiagnostic> {
    resilient_core(
        tiles_x,
        tiles_y,
        config,
        config.solver,
        spec,
        config.tl_max_recoveries,
        config.tl_elastic_regrid,
        &TelemetrySink::disabled(),
    )
}

/// [`run_distributed_solver_resilient`] with the resilience timeline
/// traced: rank 0 emits checkpoint events on the logical clock and the
/// driver emits restart/regrid events, so `tea-prof --recovery` can
/// table the recovery story.
pub fn run_distributed_solver_resilient_traced(
    tiles_x: usize,
    tiles_y: usize,
    config: &TeaConfig,
    spec: FaultSpec,
) -> Result<(DistributedReport, RecoveryLog, Vec<Record>), FaultDiagnostic> {
    let (sink, collector) = TelemetrySink::collecting();
    let (report, log) = resilient_core(
        tiles_x,
        tiles_y,
        config,
        config.solver,
        spec,
        config.tl_max_recoveries,
        config.tl_elastic_regrid,
        &sink,
    )?;
    Ok((report, log, collector.records()))
}

/// Checkpoint-restarting distributed CG: run under the fault-injected
/// transport, checkpointing every `tl_checkpoint_interval` CG iterations
/// into a [`CheckpointStore`]; when the world dies (e.g. an injected
/// [`mpisim::KillSpec`] rank loss), relaunch it up to `max_restarts`
/// times, resuming every rank from the latest checkpoint present on
/// *all* ranks. Returns the report and the number of restarts used.
/// (The legacy fixed-grid entry point: no elastic re-decomposition.)
pub fn run_distributed_cg_resilient(
    ranks: usize,
    config: &TeaConfig,
    spec: FaultSpec,
    max_restarts: usize,
) -> Result<(DistributedReport, usize), FaultDiagnostic> {
    let grid = grid_for(ranks, config);
    let (report, log) = resilient_core(
        grid.tiles_x(),
        grid.tiles_y(),
        config,
        SolverKind::ConjugateGradient,
        spec,
        max_restarts,
        false,
        &TelemetrySink::disabled(),
    )?;
    Ok((report, log.restarts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_partition_covers_all_rows() {
        for y in [7usize, 16, 33] {
            for size in 1..=4 {
                let mut covered = 0;
                for rank in 0..size {
                    let (r0, r1) = stripe_rows(y, rank, size);
                    assert!(r0 <= r1);
                    covered += r1 - r0;
                    if rank > 0 {
                        assert_eq!(r0, stripe_rows(y, rank - 1, size).1, "contiguous stripes");
                    }
                }
                assert_eq!(covered, y);
            }
        }
    }

    #[test]
    fn one_rank_runs() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        let report = run_distributed_cg(1, &cfg);
        assert!(report.converged);
        assert_eq!(report.ranks, 1);
    }

    #[test]
    fn all_solvers_agree_across_grids_and_overlap_modes() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        for solver in [
            SolverKind::ConjugateGradient,
            SolverKind::Chebyshev,
            SolverKind::Ppcg,
            SolverKind::Jacobi,
        ] {
            cfg.solver = solver;
            let reference = run_distributed_solver(1, 1, &cfg);
            assert!(reference.converged, "{solver:?} must converge");
            for (gx, gy) in [(1usize, 2usize), (2, 1), (2, 2)] {
                let overlapped = run_distributed_solver(gx, gy, &cfg);
                let blocking = run_distributed_solver_blocking(gx, gy, &cfg);
                assert_eq!(
                    overlapped.summary, reference.summary,
                    "{solver:?} on {gx}x{gy} must be bit-identical to 1 rank"
                );
                assert_eq!(overlapped.total_iterations, reference.total_iterations);
                assert_eq!(overlapped.converged, reference.converged);
                assert_eq!(
                    blocking.summary, overlapped.summary,
                    "{solver:?} on {gx}x{gy}: overlap must not change bits"
                );
                assert_eq!(blocking.total_iterations, overlapped.total_iterations);
            }
        }
    }

    #[test]
    fn overlapped_windows_hide_traffic_and_cross_corners() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        let (_, stats, metrics) = run_distributed_solver_instrumented(2, 2, &cfg, true);
        assert!(stats.windows > 0);
        assert!(stats.hidden_elements > 0, "overlap must hide some traffic");
        assert!(stats.overlap_efficiency() > 0.0);
        assert!(
            metrics.corner_elements() > 0,
            "a 2x2 grid must exchange corner blocks"
        );
        assert!(metrics.edge_elements() > metrics.corner_elements());
        let (_, blocking_stats, _) = run_distributed_solver_instrumented(2, 2, &cfg, false);
        assert_eq!(blocking_stats.hidden_elements, 0);
        assert_eq!(blocking_stats.overlap_efficiency(), 0.0);
    }

    #[test]
    fn deck_tile_keys_steer_the_legacy_entry_point() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        let strips = run_distributed_cg(2, &cfg);
        // Splitting columns instead of rows exercises the E/W exchange
        // and the carry pipeline — the bits must not move.
        cfg.tl_tiles_x = 2;
        cfg.tl_tiles_y = 1;
        let columns = run_distributed_cg(2, &cfg);
        assert_eq!(columns, strips);
    }

    #[test]
    fn traced_run_emits_phase_spans() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        let (report, stats, _, records) = run_distributed_solver_traced(2, 1, &cfg);
        assert!(report.converged);
        assert!(stats.windows > 0);
        let cat_count = |want: &str| {
            records
                .iter()
                .filter(|r| matches!(r, Record::Complete { cat, .. } if *cat == want))
                .count()
        };
        assert!(cat_count("exchange") > 0);
        assert!(cat_count("interior") > 0);
        assert!(cat_count("boundary") > 0);
    }

    #[test]
    fn faulty_world_reproduces_plain_distributed_run() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        let plain = run_distributed_cg(2, &cfg);
        let clean =
            run_distributed_cg_faulty(2, &cfg, FaultSpec::clean(11)).expect("clean transport");
        assert_eq!(clean, plain);
        let mut spec = FaultSpec::lossy(11);
        spec.quiet = std::time::Duration::from_millis(2);
        let lossy = run_distributed_cg_faulty(2, &cfg, spec).expect("recoverable network");
        assert_eq!(lossy, plain, "recovered run must be bit-identical");
    }

    #[test]
    fn resilient_run_without_faults_uses_no_restarts() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg.tl_checkpoint_interval = 5;
        let plain = run_distributed_cg(2, &cfg);
        let (report, restarts) =
            run_distributed_cg_resilient(2, &cfg, FaultSpec::clean(31), 2).expect("clean world");
        assert_eq!(restarts, 0);
        assert_eq!(report, plain, "checkpointing must be numerically inert");
    }

    #[test]
    fn killed_rank_replays_from_checkpoint_bit_identically() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_checkpoint_interval = 2;
        let plain = run_distributed_cg(2, &cfg);

        let mut spec = FaultSpec::clean(37);
        spec.quiet = std::time::Duration::from_millis(2);
        spec.deadline = std::time::Duration::from_millis(250);
        // Kill rank 1 deep enough into its send schedule that both ranks
        // are mid-CG with checkpoints behind them.
        spec.kill_rank = Some(mpisim::KillSpec::transient(1, 25));
        // Without restart, the world must die loudly...
        run_distributed_cg_faulty(2, &cfg, spec).expect_err("a dead rank cannot finish");
        // ...with restart, it must finish bit-identical to the clean run.
        let (report, restarts) =
            run_distributed_cg_resilient(2, &cfg, spec, 2).expect("restart must recover");
        assert!(restarts >= 1, "the kill must have forced a restart");
        assert_eq!(
            report, plain,
            "replay from checkpoint must be bit-identical"
        );
    }

    #[test]
    fn kill_before_any_checkpoint_restarts_from_scratch() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        // Interval larger than the iteration count: only the iteration-0
        // checkpoint exists, so the restart is effectively from scratch —
        // still bit-identical.
        cfg.tl_checkpoint_interval = 10_000;
        let plain = run_distributed_cg(2, &cfg);
        let mut spec = FaultSpec::clean(41);
        spec.quiet = std::time::Duration::from_millis(2);
        spec.deadline = std::time::Duration::from_millis(250);
        spec.kill_rank = Some(mpisim::KillSpec::transient(0, 2));
        let (report, restarts) =
            run_distributed_cg_resilient(2, &cfg, spec, 2).expect("restart must recover");
        assert!(restarts >= 1);
        assert_eq!(report, plain);
    }

    #[test]
    fn all_solvers_replay_transient_kill_bit_identically() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg.tl_checkpoint_interval = 2;
        for solver in [
            SolverKind::ConjugateGradient,
            SolverKind::Chebyshev,
            SolverKind::Ppcg,
            SolverKind::Jacobi,
        ] {
            cfg.solver = solver;
            let plain = run_distributed_solver(2, 2, &cfg);
            let mut spec = FaultSpec::clean(43);
            spec.quiet = std::time::Duration::from_millis(2);
            spec.deadline = std::time::Duration::from_millis(250);
            spec.kill_rank = Some(mpisim::KillSpec::transient(1, 25));
            let (report, log) = run_distributed_solver_resilient(2, 2, &cfg, spec)
                .unwrap_or_else(|d| panic!("{solver:?} must recover, got {d}"));
            assert!(log.restarts >= 1, "{solver:?}: kill must force a restart");
            assert_eq!(log.regrids, 0, "{solver:?}: a transient kill never regrids");
            assert_eq!(log.final_grid, (2, 2));
            assert!(
                log.events
                    .iter()
                    .any(|e| matches!(e.action, RecoveryAction::Restart { .. })),
                "{solver:?}: restart must be on the timeline: {:?}",
                log.events
            );
            assert_eq!(
                report, plain,
                "{solver:?}: replay from checkpoint must be bit-identical"
            );
        }
    }

    #[test]
    fn permanent_kill_regrids_onto_survivors_bit_identically() {
        let mut cfg = TeaConfig::paper_problem(16);
        // Two tighter steps: long enough that the re-armed kill fires
        // again in every same-grid restart (a resumed world replays only
        // the tail, so a short deck would finish under the kill's send
        // count and never exhaust the budget).
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_checkpoint_interval = 2;
        cfg.tl_max_recoveries = 1;
        let plain = run_distributed_solver(2, 2, &cfg);
        let mut spec = FaultSpec::clean(47);
        spec.quiet = std::time::Duration::from_millis(2);
        spec.deadline = std::time::Duration::from_millis(250);
        // Rank 3 never comes back: same-grid restarts keep dying until
        // the budget forces an elastic re-decomposition.
        spec.kill_rank = Some(mpisim::KillSpec::permanent(3, 25));
        let (report, log) =
            run_distributed_solver_resilient(2, 2, &cfg, spec).expect("regrid must recover");
        assert!(log.regrids >= 1, "budget exhaustion must regrid: {log:?}");
        assert!(log.restarts >= 1);
        assert!(log.ranks_lost >= 2, "initial attempt plus restart died");
        assert!(
            log.events.iter().any(|e| matches!(
                e.action,
                RecoveryAction::Regrid {
                    from: (2, 2),
                    to: (2, 1)
                }
            )),
            "2x2 must degrade to 2x1 first: {:?}",
            log.events
        );
        assert!(log.final_grid.0 * log.final_grid.1 < 4);
        // The report's rank count legitimately shrinks with the world;
        // every numeric field must stay bit-identical to the clean run.
        assert_eq!(report.ranks, log.final_grid.0 * log.final_grid.1);
        assert_eq!(report.total_iterations, plain.total_iterations);
        assert_eq!(report.converged, plain.converged);
        assert_eq!(
            report.summary, plain.summary,
            "re-decomposed continuation must be bit-identical"
        );
    }

    #[test]
    fn permanent_kill_without_elastic_regrid_aborts_loudly() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 2;
        cfg.tl_eps = 1.0e-12;
        cfg.tl_checkpoint_interval = 2;
        cfg.tl_max_recoveries = 1;
        cfg.tl_elastic_regrid = false;
        let mut spec = FaultSpec::clean(47);
        spec.quiet = std::time::Duration::from_millis(2);
        spec.deadline = std::time::Duration::from_millis(250);
        spec.kill_rank = Some(mpisim::KillSpec::permanent(3, 25));
        let diag = run_distributed_solver_resilient(2, 2, &cfg, spec)
            .expect_err("a permanently dead rank with regrid off cannot finish");
        // The surfaced diagnostic is the first rank's in rank order:
        // either the kill itself or a survivor's starved deadline.
        assert!(diag.rank < 4);
    }

    #[test]
    fn resilient_solver_clean_run_has_inert_log() {
        let mut cfg = TeaConfig::paper_problem(16);
        cfg.end_step = 1;
        cfg.tl_eps = 1.0e-10;
        cfg.tl_checkpoint_interval = 3;
        cfg.solver = SolverKind::Ppcg;
        let plain = run_distributed_solver(2, 1, &cfg);
        let (report, log) = run_distributed_solver_resilient(2, 1, &cfg, FaultSpec::clean(53))
            .expect("clean world");
        assert_eq!(report, plain, "checkpointing must be numerically inert");
        assert_eq!(log.restarts, 0);
        assert_eq!(log.regrids, 0);
        assert_eq!(log.ranks_lost, 0);
        assert_eq!(log.replayed_bytes, 0);
        assert!(log.events.is_empty());
        assert_eq!(log.final_grid, (2, 1));
        assert!(log.checkpoints_taken > 0, "the rings must actually fill");
    }

    #[test]
    fn latest_common_key_is_max_of_intersection() {
        let a = vec![(1, 0, 0), (1, 0, 2), (1, 1, 1)];
        let b = vec![(1, 0, 2), (1, 1, 1), (1, 1, 3)];
        assert_eq!(latest_common_key(&[a.clone(), b.clone()]), Some((1, 1, 1)));
        assert_eq!(latest_common_key(&[a, vec![]]), None);
        assert_eq!(latest_common_key(&[]), None);
    }

    #[test]
    #[should_panic]
    fn too_many_ranks_rejected() {
        // 8 rows across 8 ranks → 1-row stripes < halo depth 2
        let mut cfg = TeaConfig::paper_problem(8);
        cfg.end_step = 1;
        let _ = run_distributed_cg(8, &cfg);
    }
}
