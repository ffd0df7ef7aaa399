//! Solver-layer benchmark: host wall-clock as a first-class quantity.
//!
//! The plan/workspace layer exists to shrink *host* time — the simulated
//! device cost of an iteration is identical whether the SpMV re-partitions
//! every call or replays a plan, but the host work is not. This experiment
//! measures both: per-solver rows report `sim_ms` next to measured
//! `host_ms` per iteration, and a planned-vs-per-call PCG comparison
//! quantifies what plan reuse buys. A `phases` table splits each solver's
//! simulated time by phase from its [`SolveReport`]'s ledger, and a
//! `levels` table shows the merge-path tile each operator of the AMG
//! hierarchy was partitioned at ([`mps_core::tile_spacing`]). [`report`]
//! is the `solvers` experiment of `mps bench` (`BENCH_solvers.json`), so
//! the trajectory is tracked across PRs, and [`gates`] checks it.

use std::time::Instant;

use mps_core::{merge_spmv, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::{Device, PhaseEntry, PhaseLedger};
use mps_solvers::blas1;
use mps_solvers::pcg::JacobiPreconditioner;
use mps_solvers::{cg, pcg, AmgHierarchy, AmgOptions, SolveReport, SolverOptions};
use mps_sparse::{gen, CsrMatrix};

use crate::report::{Gates, Report};

/// One solver measurement.
#[derive(Debug, Clone)]
pub struct SolverRow {
    pub solver: &'static str,
    pub n: usize,
    pub nnz: usize,
    pub iterations: usize,
    pub sim_ms: f64,
    pub host_ms: f64,
    /// `sim_ms` by phase.
    pub ledger: PhaseLedger,
}

impl SolverRow {
    fn new(solver: &'static str, a: &CsrMatrix, r: SolveReport) -> SolverRow {
        SolverRow {
            solver,
            n: a.num_rows,
            nnz: a.nnz(),
            iterations: r.iterations,
            sim_ms: r.sim_ms,
            host_ms: r.host_ms,
            ledger: r.ledger,
        }
    }

    /// Measured host wall-clock per solver iteration, ms.
    pub fn host_ms_per_iter(&self) -> f64 {
        self.host_ms / self.iterations.max(1) as f64
    }
}

/// One operator of an AMG hierarchy and its planned SpMV launch.
#[derive(Debug, Clone)]
pub struct LevelRow {
    /// `A<l>`, `P<l>` or `P<l>^T` for level `l`.
    pub operator: String,
    pub rows: usize,
    pub nnz: usize,
    /// Nonzeros per CTA of the operator's merge-path partition.
    pub tile: usize,
    /// CTAs of its single-pass launch.
    pub ctas: usize,
    /// Simulated µs of one planned SpMV.
    pub spmv_sim_us: f64,
}

impl LevelRow {
    fn new(operator: String, plan: &SpmvPlan) -> LevelRow {
        let part = plan.partition_structure();
        LevelRow {
            operator,
            rows: part.num_rows,
            nnz: part.nnz,
            tile: part.nv,
            ctas: plan.reduction_stats().per_cta_cycles.len(),
            spmv_sim_us: plan.execute_sim_ms() * 1e3,
        }
    }
}

/// Every operator of `h`, level by level: `A`, then `P` and `Pᵀ` on every
/// level but the coarsest.
pub fn levels(h: &AmgHierarchy) -> Vec<LevelRow> {
    h.levels
        .iter()
        .enumerate()
        .flat_map(|(l, level)| {
            [
                (format!("A{l}"), Some(&level.a_plan)),
                (format!("P{l}"), level.p_plan.as_ref()),
                (format!("P{l}^T"), level.pt_plan.as_ref()),
            ]
            .into_iter()
            .filter_map(|(name, plan)| plan.map(|p| LevelRow::new(name, p)))
        })
        .collect()
}

/// Planned-vs-per-call PCG comparison on one operator.
#[derive(Debug, Clone)]
pub struct PlanComparison {
    pub n: usize,
    pub nnz: usize,
    pub iterations: usize,
    /// Host ms/iter when every SpMV re-runs the full simulated pipeline.
    pub per_call_host_ms_per_iter: f64,
    /// Host ms/iter through the plan's numeric-execute path.
    pub planned_host_ms_per_iter: f64,
}

impl PlanComparison {
    pub fn speedup(&self) -> f64 {
        if self.planned_host_ms_per_iter <= 0.0 {
            return 0.0;
        }
        self.per_call_host_ms_per_iter / self.planned_host_ms_per_iter
    }
}

fn point_source(n: usize) -> Vec<f64> {
    let mut b = vec![0.0; n];
    b[n / 2] = 1.0;
    b
}

/// Jacobi-PCG with a one-shot [`merge_spmv`] per iteration — the pre-plan
/// code path, kept as the baseline the plan API is measured against. Only
/// its host cost is of interest. Its simulated charges would differ from
/// the planned path's by more than the partition phase: it runs `p·A·p`
/// and the CG update as separate launches, which `pcg` folds into the
/// SpMV and one streaming launch.
pub fn pcg_per_call_host_ms(
    device: &Device,
    a: &CsrMatrix,
    b: &[f64],
    opts: &SolverOptions,
) -> (usize, f64) {
    let inv_diag = mps_solvers::smoothers::inverse_diagonal(a);
    let cfg = SpmvConfig::default();
    let host_start = Instant::now();
    let mut x = vec![0.0; a.num_rows];
    let mut r = b.to_vec();
    let (bn, _) = blas1::norm2(device, b);
    let target = (opts.rel_tolerance * bn).max(f64::MIN_POSITIVE);
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let (mut rz, _) = blas1::dot(device, &r, &z);
    let mut iterations = 0;
    let (rn0, _) = blas1::norm2(device, &r);
    while rn0 > target && iterations < opts.max_iterations {
        // The per-call path: partition + simulate + allocate, every time.
        let spmv = merge_spmv(device, a, &p, &cfg);
        let ap = spmv.y;
        let (pap, _) = blas1::dot(device, &p, &ap);
        if pap <= 0.0 || rz == 0.0 {
            break;
        }
        let alpha = rz / pap;
        blas1::axpy(device, alpha, &p, &mut x);
        blas1::axpy(device, -alpha, &ap, &mut r);
        iterations += 1;
        let (rn, _) = blas1::norm2(device, &r);
        if rn <= target {
            break;
        }
        z.clear();
        z.extend(r.iter().zip(&inv_diag).map(|(ri, di)| ri * di));
        let (rz_next, _) = blas1::dot(device, &r, &z);
        blas1::xpby(device, &z, rz_next / rz, &mut p);
        rz = rz_next;
    }
    (iterations, host_start.elapsed().as_secs_f64() * 1e3)
}

/// Timing windows of [`plan_comparison`]; each runs one solve per path.
const WINDOWS: usize = 5;

/// Compare planned against per-call Jacobi-PCG host time on a Poisson
/// operator of `grid`×`grid` unknowns, iterating a fixed count so both
/// paths do identical numeric work. The two paths' solves alternate, and
/// each path keeps its fastest window: preemption and VM jitter only ever
/// add time, and alternating exposes both paths to the same drift in
/// machine load (the `spmm_exp` method).
pub fn plan_comparison(device: &Device, grid: usize, iterations: usize) -> PlanComparison {
    let a = gen::stencil_5pt(grid, grid);
    let b = point_source(a.num_rows);
    let opts = SolverOptions {
        max_iterations: iterations,
        rel_tolerance: 0.0, // fixed-iteration cost measurement
    };
    let pre = JacobiPreconditioner::new(&a);
    // Warm both paths once so first-touch effects don't skew either side.
    pcg(device, &a, &b, &pre, &opts);
    pcg_per_call_host_ms(device, &a, &b, &opts);

    let mut planned_ms = f64::INFINITY;
    let mut per_call_ms = f64::INFINITY;
    let mut iters = usize::MAX;
    for _ in 0..WINDOWS {
        let planned = pcg(device, &a, &b, &pre, &opts);
        planned_ms = planned_ms.min(planned.host_ms / planned.iterations.max(1) as f64);
        let (iters_pc, ms) = pcg_per_call_host_ms(device, &a, &b, &opts);
        per_call_ms = per_call_ms.min(ms / iters_pc.max(1) as f64);
        iters = iters.min(planned.iterations).min(iters_pc);
    }
    PlanComparison {
        n: a.num_rows,
        nnz: a.nnz(),
        iterations: iters,
        per_call_host_ms_per_iter: per_call_ms,
        planned_host_ms_per_iter: planned_ms,
    }
}

/// Raw planned-vs-per-call SpMV host cost: `iters` products with the same
/// operator, plan built once vs rebuilt per call.
pub fn spmv_plan_comparison(device: &Device, a: &CsrMatrix, iters: usize) -> PlanComparison {
    let cfg = SpmvConfig::default();
    let x: Vec<f64> = (0..a.num_cols)
        .map(|i| 1.0 + (i % 9) as f64 * 0.25)
        .collect();

    // Per-call: full pipeline each product.
    merge_spmv(device, a, &x, &cfg); // warm
    let t0 = Instant::now();
    for _ in 0..iters {
        merge_spmv(device, a, &x, &cfg);
    }
    let per_call_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Planned: structure once, numeric executes after.
    let plan = SpmvPlan::new(device, a, &cfg);
    let mut ws = Workspace::new();
    let mut y: Vec<f64> = Vec::new();
    plan.execute_into(a, &x, &mut y, &mut ws); // warm
    let t1 = Instant::now();
    for _ in 0..iters {
        plan.execute_into(a, &x, &mut y, &mut ws);
    }
    let planned_ms = t1.elapsed().as_secs_f64() * 1e3;

    PlanComparison {
        n: a.num_rows,
        nnz: a.nnz(),
        iterations: iters,
        per_call_host_ms_per_iter: per_call_ms / iters.max(1) as f64,
        planned_host_ms_per_iter: planned_ms / iters.max(1) as f64,
    }
}

/// Run the solver suite on the finest operator of `h`, AMG-PCG
/// preconditioned by `h`.
pub fn run(device: &Device, h: &AmgHierarchy) -> Vec<SolverRow> {
    let a = &h.levels[0].a;
    let b = point_source(a.num_rows);
    let opts = SolverOptions::default();
    let jacobi = JacobiPreconditioner::new(a);
    vec![
        SolverRow::new("cg", a, cg(device, a, &b, &opts)),
        SolverRow::new("pcg_jacobi", a, pcg(device, a, &b, &jacobi, &opts)),
        SolverRow::new("pcg_amg", a, pcg(device, a, &b, h, &opts)),
    ]
}

/// The AMG hierarchy of the Poisson operator on a `grid`×`grid` grid.
fn poisson_hierarchy(device: &Device, grid: usize) -> AmgHierarchy {
    AmgHierarchy::build(device, gen::stencil_5pt(grid, grid), AmgOptions::default())
}

/// The device every solvers report runs on.
fn device() -> Device {
    Device::titan()
}

/// `(grid, iterations, spmv_grid)` of the smoke run.
const TINY: (usize, usize, usize) = (24, 5, 24);
/// `(grid, iterations, spmv_grid)` of the committed artifact.
const FULL: (usize, usize, usize) = (48, 25, 96);

/// Run the solver rows and both plan comparisons, print them, and return
/// the report.
pub fn report(tiny: bool) -> Report {
    let device = device();
    let (grid, iters, spmv_grid) = if tiny { TINY } else { FULL };
    let hierarchy = poisson_hierarchy(&device, grid);
    let rows = run(&device, &hierarchy);
    let levels = levels(&hierarchy);
    let phases: Vec<(&str, PhaseEntry)> = rows
        .iter()
        .flat_map(|r| r.ledger.entries().into_iter().map(move |e| (r.solver, e)))
        .collect();
    let spmv_op = gen::stencil_5pt(spmv_grid, spmv_grid);
    let comparisons = [
        ("pcg", plan_comparison(&device, grid, iters)),
        ("spmv", spmv_plan_comparison(&device, &spmv_op, iters)),
    ];
    println!("{}", render(&rows));
    for r in &rows {
        println!("{}:\n{}", r.solver, r.ledger.render());
    }
    println!("{}", render_levels(&levels));
    for (kind, c) in &comparisons {
        println!(
            "{kind} host ms/iter: per-call {:.4}, planned {:.4} ({:.2}x)",
            c.per_call_host_ms_per_iter,
            c.planned_host_ms_per_iter,
            c.speedup()
        );
    }
    Report::new("solvers", tiny)
        .with_table(
            "solvers",
            &rows,
            &[
                ("solver", "", |r| r.solver.into()),
                ("n", "rows", |r| r.n.into()),
                ("nnz", "count", |r| r.nnz.into()),
                ("iterations", "count", |r| r.iterations.into()),
                ("sim_ms", "ms", |r| r.sim_ms.into()),
                ("ledger_ms", "ms", |r| r.ledger.total_ms().into()),
                ("host_ms", "ms", |r| r.host_ms.into()),
                ("host_ms_per_iter", "ms", |r| r.host_ms_per_iter().into()),
            ],
        )
        .with_table(
            "phases",
            &phases,
            &[
                ("solver", "", |(s, _)| (*s).into()),
                ("phase", "", |(_, e)| e.phase.as_str().into()),
                ("launches", "count", |(_, e)| e.launches.into()),
                ("sim_ms", "ms", |(_, e)| e.sim_ms.into()),
                ("share", "ratio", |(_, e)| e.fraction.into()),
            ],
        )
        .with_table(
            "levels",
            &levels,
            &[
                ("operator", "", |l| l.operator.as_str().into()),
                ("rows", "count", |l| l.rows.into()),
                ("nnz", "count", |l| l.nnz.into()),
                ("tile", "nnz", |l| l.tile.into()),
                ("ctas", "count", |l| l.ctas.into()),
                ("spmv_sim_us", "us", |l| l.spmv_sim_us.into()),
            ],
        )
        .with_table(
            "plan_comparisons",
            &comparisons,
            &[
                ("comparison", "", |(kind, _)| (*kind).into()),
                ("n", "rows", |(_, c)| c.n.into()),
                ("nnz", "count", |(_, c)| c.nnz.into()),
                ("iterations", "count", |(_, c)| c.iterations.into()),
                ("per_call_host_ms_per_iter", "ms", |(_, c)| {
                    c.per_call_host_ms_per_iter.into()
                }),
                ("planned_host_ms_per_iter", "ms", |(_, c)| {
                    c.planned_host_ms_per_iter.into()
                }),
                ("speedup", "x", |(_, c)| c.speedup().into()),
            ],
        )
}

/// What a solvers report must show: AMG-PCG needs under a third of
/// Jacobi-PCG's iterations and less simulated time than CG and Jacobi-PCG,
/// every row's phase ledger adds up to its simulated time, and every
/// hierarchy operator's tile follows [`mps_core::tile_spacing`]: one
/// with fewer nonzeros than the SMs fill at the configured tile launches
/// at most one CTA per SM, and every larger one keeps the configured
/// tile. Host times are not gated.
pub fn gates(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let rows = r.rows("solvers");
    let solver = |name: &str| rows.iter().find(|row| row.text("solver") == name);
    match (solver("cg"), solver("pcg_jacobi"), solver("pcg_amg")) {
        (Some(cg), Some(jacobi), Some(amg)) => {
            g.check(
                3.0 * amg.num("iterations") < jacobi.num("iterations"),
                "pcg_amg iterations < pcg_jacobi iterations / 3",
            );
            g.check(
                amg.num("sim_ms") < cg.num("sim_ms") && amg.num("sim_ms") < jacobi.num("sim_ms"),
                "pcg_amg sim_ms < cg and pcg_jacobi sim_ms",
            );
        }
        _ => g.check(false, "solvers: cg, pcg_jacobi and pcg_amg rows"),
    }
    g.each(
        &rows,
        "solver",
        &[("ledger_ms == sim_ms", |row| {
            (row.num("ledger_ms") - row.num("sim_ms")).abs() <= 1e-12
        })],
    );
    let levels = r.rows("levels");
    g.check(!levels.is_empty(), "levels: at least one row");
    g.each(
        &levels,
        "operator",
        &[
            ("sub-threshold ctas <= num_sms", |l| {
                let (sms, nv) = merge_tile();
                l.num("nnz") >= (sms * nv) as f64 || l.num("ctas") <= sms as f64
            }),
            ("tile == nv at or above num_sms·nv nonzeros", |l| {
                let (sms, nv) = merge_tile();
                l.num("nnz") < (sms * nv) as f64 || l.num("tile") == nv as f64
            }),
        ],
    );
    g.failures()
}

/// The SM count and configured merge tile the report's plans were built
/// with.
fn merge_tile() -> (usize, usize) {
    (device().props.num_sms, SpmvConfig::default().nv())
}

/// Render the levels table.
pub fn render_levels(levels: &[LevelRow]) -> String {
    let data: Vec<Vec<String>> = levels
        .iter()
        .map(|l| {
            vec![
                l.operator.clone(),
                l.rows.to_string(),
                l.nnz.to_string(),
                l.tile.to_string(),
                l.ctas.to_string(),
                format!("{:.3}", l.spmv_sim_us),
            ]
        })
        .collect();
    crate::render_table(
        &["operator", "rows", "nnz", "tile", "ctas", "spmv_sim_us"],
        &data,
    )
}

/// Render the solver table.
pub fn render(rows: &[SolverRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.solver.to_string(),
                r.n.to_string(),
                r.iterations.to_string(),
                format!("{:.3}", r.sim_ms),
                format!("{:.3}", r.host_ms),
                format!("{:.4}", r.host_ms_per_iter()),
            ]
        })
        .collect();
    crate::render_table(
        &["solver", "n", "iters", "sim_ms", "host_ms", "host_ms/iter"],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn rows_report_host_time() {
        let rows = run(&dev(), &poisson_hierarchy(&dev(), 16));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.host_ms > 0.0, "{} must measure host time", r.solver);
            assert!(r.sim_ms > 0.0);
            assert!(r.iterations > 0);
        }
    }

    #[test]
    fn gates_pass_and_name_a_ledger_that_does_not_add_up() {
        let mut r = report(true);
        assert_eq!(gates(&r), Vec::<String>::new());
        assert!(!r.rows("phases").is_empty());
        *r.cell_mut("solvers", 2, "ledger_ms").expect("cell") = 1.0.into();
        assert_eq!(gates(&r), ["ledger_ms == sim_ms (pcg_amg)"]);
    }

    #[test]
    fn levels_gate_names_an_operator_off_the_tile_rule() {
        let mut r = report(true);
        let levels = r.rows("levels");
        let (sms, nv) = merge_tile();
        let small = levels
            .iter()
            .position(|l| l.num("nnz") < (sms * nv) as f64)
            .expect("the 24×24 hierarchy has sub-threshold operators");
        let name = levels[small].text("operator").to_string();
        *r.cell_mut("levels", small, "ctas").expect("cell") = (sms + 1).into();
        assert_eq!(
            gates(&r),
            [format!("sub-threshold ctas <= num_sms ({name})")]
        );
    }

    #[test]
    fn levels_follow_the_tile_rule_on_the_48_grid() {
        let rows = levels(&poisson_hierarchy(&dev(), 48));
        let names: Vec<&str> = rows.iter().map(|l| l.operator.as_str()).collect();
        assert_eq!(
            names,
            ["A0", "P0", "P0^T", "A1", "P1", "P1^T", "A2", "P2", "P2^T", "A3"]
        );
        let (sms, nv) = merge_tile();
        for l in &rows {
            let want = mps_core::tile_spacing(sms, l.nnz, SpmvConfig::default().block_threads, nv);
            assert_eq!(l.tile, want, "{}", l.operator);
            assert_eq!(l.ctas, l.nnz.div_ceil(l.tile), "{}", l.operator);
        }
        // A1 fills every SM at the configured tile; A2 spreads its
        // 2776 nonzeros over all 14.
        assert_eq!((rows[3].tile, rows[3].ctas), (nv, 28));
        assert_eq!((rows[6].nnz, rows[6].ctas), (2776, sms));
    }

    #[test]
    fn planned_spmv_is_measurably_faster_on_host() {
        // The per-call path re-simulates the whole grid every product; the
        // planned path is a flat numeric loop. The gap is large — assert a
        // conservative bound so scheduler noise can't flake the test.
        let a = gen::stencil_5pt(64, 64);
        let cmp = spmv_plan_comparison(&dev(), &a, 20);
        assert!(
            cmp.planned_host_ms_per_iter < cmp.per_call_host_ms_per_iter,
            "planned {} vs per-call {}",
            cmp.planned_host_ms_per_iter,
            cmp.per_call_host_ms_per_iter
        );
    }

    #[test]
    fn pcg_plan_comparison_reports_speedup() {
        let cmp = plan_comparison(&dev(), 32, 15);
        assert!(cmp.per_call_host_ms_per_iter > 0.0);
        assert!(cmp.planned_host_ms_per_iter > 0.0);
        assert!(
            cmp.planned_host_ms_per_iter < cmp.per_call_host_ms_per_iter,
            "plans must lower host cost per iteration: planned {} vs per-call {}",
            cmp.planned_host_ms_per_iter,
            cmp.per_call_host_ms_per_iter
        );
    }
}
