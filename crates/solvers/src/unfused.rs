//! Test-only reference solvers that run every vector pass unfused on the
//! host, as separate loops after plain planned products: the formulas and
//! operation order the fused epilogues and the fused CG update must
//! reproduce bit for bit. Only values are computed here, no costs.

use mps_core::{SpmvPlan, Workspace};
use mps_sparse::CsrMatrix;

use crate::amg::AmgHierarchy;
use crate::coarse::CoarseSolve;
use crate::krylov::SolverOptions;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

fn product(plan: &SpmvPlan, a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = Vec::new();
    plan.execute_into(a, x, &mut y, &mut Workspace::new());
    y
}

fn residual(plan: &SpmvPlan, a: &CsrMatrix, b: &[f64], x: &[f64]) -> Vec<f64> {
    let ax = product(plan, a, x);
    b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect()
}

/// One V-cycle from `level` down, on `x`.
pub(crate) fn v_cycle(h: &AmgHierarchy, level: usize, b: &[f64], x: &mut Vec<f64>) {
    let lvl = &h.levels[level];
    let (Some(p), Some(pt)) = (&lvl.p, &lvl.pt) else {
        match h.coarse() {
            CoarseSolve::Direct(lu) => {
                lu.solve_into(&mps_simt::Device::titan(), b, x);
            }
            CoarseSolve::Cg => panic!("the reference covers direct coarse solves"),
        }
        return;
    };
    let omega = h.options.omega;
    let sweep = |x: &mut Vec<f64>| {
        let ax = product(&lvl.a_plan, &lvl.a, x);
        for i in 0..x.len() {
            x[i] += omega * lvl.inv_diag[i] * (b[i] - ax[i]);
        }
    };
    for _ in 0..h.options.pre_sweeps {
        sweep(x);
    }
    let r = residual(&lvl.a_plan, &lvl.a, b, x);
    let rc = product(lvl.pt_plan.as_ref().expect("interior"), pt, &r);
    let mut xc = vec![0.0; pt.num_rows];
    v_cycle(h, level + 1, &rc, &mut xc);
    let correction = product(lvl.p_plan.as_ref().expect("interior"), p, &xc);
    for (xi, ci) in x.iter_mut().zip(&correction) {
        *xi += ci;
    }
    for _ in 0..h.options.post_sweeps {
        sweep(x);
    }
}

/// `(x, iterations, relative residual)` of a solve.
pub(crate) type Outcome = (Vec<f64>, usize, f64);

/// AMG-preconditioned CG, as [`crate::pcg::pcg`] reports it.
pub(crate) fn pcg(a: &CsrMatrix, b: &[f64], h: &AmgHierarchy, opts: &SolverOptions) -> Outcome {
    let plan = &h.levels[0].a_plan;
    let precondition = |r: &[f64]| {
        let mut z = vec![0.0; r.len()];
        v_cycle(h, 0, r, &mut z);
        z
    };
    let mut x = vec![0.0; a.num_rows];
    let mut r = b.to_vec();
    let bn = norm2(b);
    let target = (opts.rel_tolerance * bn).max(f64::MIN_POSITIVE);
    let mut z = precondition(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut iterations = 0;
    let converged = norm2(&r) <= target;
    while !converged && iterations < opts.max_iterations {
        let ap = product(plan, a, &p);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || rz == 0.0 {
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        iterations += 1;
        if norm2(&r) <= target {
            break;
        }
        z = precondition(&r);
        let rz_next = dot(&r, &z);
        xpby(&z, rz_next / rz, &mut p);
        rz = rz_next;
    }
    let rn = norm2(&residual_ref(a, b, &x));
    (x, iterations, if bn == 0.0 { rn } else { rn / bn })
}

fn residual_ref(a: &CsrMatrix, b: &[f64], x: &[f64]) -> Vec<f64> {
    let ax = mps_sparse::ops::spmv_ref(a, x);
    b.iter().zip(&ax).map(|(p, q)| p - q).collect()
}

/// Unpreconditioned CG through `plan`, as [`crate::krylov::cg`] reports it.
pub(crate) fn cg(plan: &SpmvPlan, a: &CsrMatrix, b: &[f64], opts: &SolverOptions) -> Outcome {
    let mut x = vec![0.0; a.num_rows];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    let target = (opts.rel_tolerance * norm2(b)).max(f64::MIN_POSITIVE);
    let mut iterations = 0;
    let mut converged = rr.sqrt() <= target;
    while !converged && iterations < opts.max_iterations {
        let ap = product(plan, a, &p);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            break;
        }
        let alpha = rr / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rr_next = dot(&r, &r);
        iterations += 1;
        if rr_next.sqrt() <= target {
            converged = true;
        } else {
            xpby(&r, rr_next / rr, &mut p);
        }
        rr = rr_next;
    }
    let rn = norm2(&residual(plan, a, b, &x));
    let bn = norm2(b);
    (x, iterations, if bn == 0.0 { rn } else { rn / bn })
}

/// V-cycle iteration, as [`AmgHierarchy::solve`] reports it.
pub(crate) fn amg_solve(h: &AmgHierarchy, b: &[f64], opts: &SolverOptions) -> Outcome {
    let lvl0 = &h.levels[0];
    let mut x = vec![0.0; lvl0.a.num_rows];
    let bn = norm2(b);
    let target = (opts.rel_tolerance * bn).max(f64::MIN_POSITIVE);
    let mut iterations = 0;
    while iterations < opts.max_iterations {
        v_cycle(h, 0, b, &mut x);
        iterations += 1;
        if norm2(&residual(&lvl0.a_plan, &lvl0.a, b, &x)) <= target {
            break;
        }
    }
    let ax = product(&lvl0.a_plan, &lvl0.a, &x);
    let rn = b
        .iter()
        .zip(&ax)
        .map(|(bi, yi)| (bi - yi) * (bi - yi))
        .sum::<f64>()
        .sqrt();
    (x, iterations, if bn == 0.0 { rn } else { rn / bn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amg::AmgOptions;
    use crate::krylov::SolveReport;
    use crate::SimClock;
    use mps_simt::{Device, Phase};
    use mps_sparse::gen;

    fn assert_same(got: &SolveReport, want: &Outcome) {
        assert_eq!(got.iterations, want.1);
        assert_eq!(got.relative_residual.to_bits(), want.2.to_bits());
        assert_eq!(got.x.len(), want.0.len());
        for (p, q) in got.x.iter().zip(&want.0) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// A smooth mode plus seeded noise of amplitude `amp` on the `grid`²
    /// unknowns.
    fn rhs(grid: usize, seed: u64, amp: f64) -> Vec<f64> {
        let g = grid as f64 + 1.0;
        let mut state = seed;
        (0..grid * grid)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let (x, y) = ((i % grid) as f64 + 1.0, (i / grid) as f64 + 1.0);
                (std::f64::consts::PI * x / g).sin() * (2.0 * std::f64::consts::PI * y / g).sin()
                    + amp * (2.0 * u - 1.0)
            })
            .collect()
    }

    fn opts() -> SolverOptions {
        SolverOptions {
            max_iterations: 100,
            rel_tolerance: 1e-8,
        }
    }

    #[test]
    fn fused_v_cycle_matches_the_unfused_reference_bitwise() {
        let dev = Device::titan();
        for grid in [24, 48] {
            for pre_sweeps in [1, 2] {
                let options = AmgOptions {
                    pre_sweeps,
                    ..AmgOptions::default()
                };
                let a = gen::stencil_5pt(grid, grid);
                let h = AmgHierarchy::build(&dev, a.clone(), options);
                // Level 0, then at least one coarse interior level whose
                // first sweep the restriction writes.
                let interior = h.levels.len() - 1;
                assert!(interior >= 2, "{grid}: {} levels", h.levels.len());
                let b = rhs(grid, 2, 1.0);
                let (mut fused, mut reference) = (vec![0.5; a.num_rows], vec![0.5; a.num_rows]);
                let mut ws = Workspace::new();
                for _ in 0..2 {
                    let mut clock = SimClock::default();
                    h.cycle(&dev, 0, &b, &mut fused, 0, &mut ws, &mut clock);
                    v_cycle(&h, 0, &b, &mut reference);
                    // Every interior level runs its sweeps, the residual,
                    // the restriction and the correction as one SpMV each,
                    // less the first sweep of each coarse interior level.
                    let spmvs = (clock.ledger.entries().into_iter())
                        .find(|e| e.phase == Phase::Reduction)
                        .map_or(0, |e| e.launches);
                    let unfolded = interior * (pre_sweeps + h.options.post_sweeps + 3);
                    assert_eq!(
                        spmvs as usize,
                        unfolded - (interior - 1),
                        "{grid}, {pre_sweeps}"
                    );
                }
                for (p, q) in fused.iter().zip(&reference) {
                    assert_eq!(p.to_bits(), q.to_bits(), "{grid}, {pre_sweeps}");
                }
            }
        }
    }

    #[test]
    fn fused_solves_match_the_unfused_reference_bitwise() {
        let dev = Device::titan();
        for (grid, seed, amp) in [(48, 1, 0.5), (48, 3, 2.0), (24, 4, 1.0)] {
            let a = gen::stencil_5pt(grid, grid);
            let b = rhs(grid, seed, amp);
            let h = AmgHierarchy::build(&dev, a.clone(), AmgOptions::default());
            assert_same(
                &crate::pcg::pcg(&dev, &a, &b, &h, &opts()),
                &pcg(&a, &b, &h, &opts()),
            );
            assert_same(&h.solve(&dev, &b, &opts()), &amg_solve(&h, &b, &opts()));
            let cg_opts = SolverOptions {
                max_iterations: 1000,
                ..opts()
            };
            assert_same(
                &crate::krylov::cg(&dev, &a, &b, &cg_opts),
                &cg(&h.levels[0].a_plan, &a, &b, &cg_opts),
            );
        }
    }

    #[test]
    fn solve_ledgers_add_up_to_sim_ms() {
        let dev = Device::titan();
        let a = gen::stencil_5pt(24, 24);
        let b = rhs(24, 2, 1.0);
        let h = AmgHierarchy::build(&dev, a.clone(), AmgOptions::default());
        let jacobi = crate::pcg::JacobiPreconditioner::new(&a);
        for report in [
            crate::pcg::pcg(&dev, &a, &b, &h, &opts()),
            crate::pcg::pcg(&dev, &a, &b, &jacobi, &opts()),
            crate::krylov::cg(&dev, &a, &b, &opts()),
            crate::krylov::bicgstab(&dev, &a, &b, &opts()),
            h.solve(&dev, &b, &opts()),
        ] {
            assert!(report.converged);
            let total = report.ledger.total_ms();
            assert!(
                (report.sim_ms - total).abs() <= 1e-12,
                "{} vs {total}",
                report.sim_ms
            );
            assert_eq!(report.ledger.phase_ms(mps_simt::Phase::Unattributed), 0.0);
        }
    }

    #[test]
    fn a_traced_v_cycle_launches_only_its_coarse_substitution() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let a = gen::stencil_5pt(48, 48);
        let h = AmgHierarchy::build(&dev, a.clone(), AmgOptions::default());
        tracer.clear();
        let mut x = vec![0.0; a.num_rows];
        h.v_cycle(&dev, &rhs(48, 2, 1.0), &mut x);
        assert_eq!(crate::launches(&tracer, "blas1_stream"), 0);
        assert_eq!(crate::launches(&tracer, "coarse_lu_solve"), 1);
        assert_eq!(tracer.records().len(), 1);
    }

    #[test]
    fn a_nine_iteration_amg_pcg_solve_issues_36_blas1_launches() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let a = gen::stencil_5pt(48, 48);
        let b = rhs(48, 2, 1.0);
        let h = AmgHierarchy::build(&dev, a.clone(), AmgOptions::default());
        tracer.clear();
        let report = crate::pcg::pcg(&dev, &a, &b, &h, &opts());
        assert!(report.converged);
        assert_eq!(report.iterations, 9);
        // Per solve: ‖b‖ and r·z once; per iteration the CG update, the
        // V-cycle's first sweep from z = 0 (a streaming pass, not an
        // SpMV), and r·z and the direction update before every further
        // iteration: 2 + 2·9 + 2·8.
        assert_eq!(crate::launches(&tracer, "blas1_stream"), 36);
        assert_eq!(crate::launches(&tracer, "coarse_lu_solve"), 9);
        assert_eq!(tracer.records().len(), 45);
        let blas1 = report
            .ledger
            .entries()
            .into_iter()
            .find(|e| e.phase == mps_simt::Phase::Blas1)
            .expect("blas1 launches");
        assert_eq!(blas1.launches, 45);
    }
}
