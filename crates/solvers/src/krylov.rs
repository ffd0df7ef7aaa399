//! Krylov solvers: conjugate gradients and BiCGStab.
//!
//! Every matrix-vector product runs through the merge-path SpMV, so solver
//! cost inherits the kernel's predictability: solve time ≈ iterations ×
//! (2·nnz work), independent of row structure.

use std::time::Instant;

use mps_core::{Epilogue, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::{Device, Phase, PhaseLedger};
use mps_sparse::CsrMatrix;

use crate::blas1;
use crate::SimClock;

/// Stopping criteria for the Krylov solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    pub max_iterations: usize,
    /// Relative residual reduction target: stop when
    /// `|r| <= rel_tolerance * |b|`.
    pub rel_tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 1000,
            rel_tolerance: 1e-10,
        }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    pub x: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// Final true relative residual `|b - Ax| / |b|`.
    pub relative_residual: f64,
    /// Accumulated simulated device time (SpMV + vector kernels), ms.
    pub sim_ms: f64,
    /// `sim_ms` split by phase: planned products under Reduction, vector
    /// launches and coarse substitutions under Blas1, a plan the solve
    /// builds under Partition.
    pub ledger: PhaseLedger,
    /// Measured host wall-clock of the whole solve, ms. Unlike `sim_ms`
    /// (the cost model's estimate of device time), this is real time spent
    /// by the host driving the solve — the quantity the plan/workspace
    /// layer exists to shrink.
    pub host_ms: f64,
}

/// Final true relative residual `|b - A x| / |b|`, through the solve's own
/// plan: one more numeric execute, no second partition.
fn true_residual(
    device: &Device,
    plan: &SpmvPlan,
    a: &CsrMatrix,
    b: &[f64],
    x: &[f64],
    ws: &mut Workspace,
) -> f64 {
    let mut ax = ws.take_f64();
    plan.execute_into(a, x, &mut ax, ws);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
    ws.put_f64(ax);
    let (rn, _) = blas1::norm2(device, &r);
    let (bn, _) = blas1::norm2(device, b);
    if bn == 0.0 {
        rn
    } else {
        rn / bn
    }
}

/// Unpreconditioned conjugate gradients for SPD systems.
///
/// # Panics
/// Panics if the system is not square or `b` has the wrong length.
pub fn cg(device: &Device, a: &CsrMatrix, b: &[f64], opts: &SolverOptions) -> SolveReport {
    assert_eq!(a.num_rows, a.num_cols, "CG needs a square system");
    assert_eq!(b.len(), a.num_rows, "right-hand side length mismatch");
    let host_start = Instant::now();
    // The operator is fixed across iterations: plan once. Every per-
    // iteration product is a pure numeric execute into a reused buffer.
    let plan = SpmvPlan::new(device, a, &SpmvConfig::default());
    let mut clock = SimClock::default();
    clock.charge(Phase::Partition, &plan.partition);
    let mut report = cg_planned(device, &plan, a, b, opts, &mut Workspace::new(), clock);
    report.host_ms = host_start.elapsed().as_secs_f64() * 1e3;
    report
}

/// [`cg`] through a caller's plan for `a`'s pattern and scratch, adding
/// to `clock` (which holds the plan build when the caller paid for it).
/// The report's `host_ms` covers only this call.
pub(crate) fn cg_planned(
    device: &Device,
    plan: &SpmvPlan,
    a: &CsrMatrix,
    b: &[f64],
    opts: &SolverOptions,
    ws: &mut Workspace,
    mut clock: SimClock,
) -> SolveReport {
    let host_start = Instant::now();
    let mut ap = ws.take_f64();

    let mut x = vec![0.0; a.num_rows];
    let mut r = b.to_vec();
    let mut p = r.clone();
    // `r` starts as `b`, so `r·r` also gives ‖b‖.
    let (mut rr, s) = blas1::dot(device, &r, &r);
    clock.add_blas1(&s);
    let bn = rr.sqrt();
    let target = (opts.rel_tolerance * bn).max(f64::MIN_POSITIVE);

    let mut iterations = 0;
    let mut converged = bn <= target;
    while !converged && iterations < opts.max_iterations {
        // A·p with p·A·p folded into the same SpMV.
        let fused = plan.execute_fused_into(a, &p, &mut ap, ws, &Epilogue::dot_with(&p));
        clock.add_fused(&fused);
        let pap = fused.dot.expect("folded dot");
        if pap <= 0.0 {
            break; // not SPD (or breakdown): bail with the best iterate
        }
        let alpha = rr / pap;
        let (rr_next, s) = blas1::cg_update(device, alpha, &p, &ap, &mut x, &mut r);
        clock.add_blas1(&s);
        iterations += 1;
        if rr_next.sqrt() <= target {
            converged = true;
        } else {
            clock.add_blas1(&blas1::xpby(device, &r, rr_next / rr, &mut p));
        }
        rr = rr_next;
    }
    ws.put_f64(ap);

    let relative_residual = true_residual(device, plan, a, b, &x, ws);
    SolveReport {
        x,
        iterations,
        converged,
        relative_residual,
        sim_ms: clock.ms,
        ledger: clock.ledger,
        host_ms: host_start.elapsed().as_secs_f64() * 1e3,
    }
}

/// BiCGStab for general (nonsymmetric) systems.
///
/// # Panics
/// Panics if the system is not square or `b` has the wrong length.
pub fn bicgstab(device: &Device, a: &CsrMatrix, b: &[f64], opts: &SolverOptions) -> SolveReport {
    assert_eq!(a.num_rows, a.num_cols, "BiCGStab needs a square system");
    assert_eq!(b.len(), a.num_rows, "right-hand side length mismatch");
    let host_start = Instant::now();
    let cfg = SpmvConfig::default();
    let mut clock = SimClock::default();
    let n = a.num_rows;
    // The operator is fixed across iterations: partition once.
    let plan = SpmvPlan::new(device, a, &cfg);
    clock.charge(Phase::Partition, &plan.partition);
    let mut ws = Workspace::new();
    let mut v: Vec<f64> = Vec::new();
    let mut t: Vec<f64> = Vec::new();

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let r0 = r.clone();
    let mut p = r.clone();
    let (bn, s) = blas1::norm2(device, b);
    clock.add_blas1(&s);
    let target = (opts.rel_tolerance * bn).max(f64::MIN_POSITIVE);
    let (mut rho, s) = blas1::dot(device, &r0, &r);
    clock.add_blas1(&s);

    let mut iterations = 0;
    let mut converged = false;
    while iterations < opts.max_iterations {
        plan.execute_into(a, &p, &mut v, &mut ws);
        clock.add_spmv(&plan);
        let (r0v, s) = blas1::dot(device, &r0, &v);
        clock.add_blas1(&s);
        if r0v == 0.0 || rho == 0.0 {
            break;
        }
        let alpha = rho / r0v;
        // s_vec = r - alpha * v
        let mut s_vec = r.clone();
        clock.add_blas1(&blas1::axpy(device, -alpha, &v, &mut s_vec));
        let (sn, st) = blas1::norm2(device, &s_vec);
        clock.add_blas1(&st);
        if sn <= target {
            clock.add_blas1(&blas1::axpy(device, alpha, &p, &mut x));
            iterations += 1;
            converged = true;
            break;
        }
        plan.execute_into(a, &s_vec, &mut t, &mut ws);
        clock.add_spmv(&plan);
        let (ts, st2) = blas1::dot(device, &t, &s_vec);
        clock.add_blas1(&st2);
        let (tt, st3) = blas1::dot(device, &t, &t);
        clock.add_blas1(&st3);
        if tt == 0.0 {
            break;
        }
        let omega = ts / tt;
        clock.add_blas1(&blas1::axpy(device, alpha, &p, &mut x));
        clock.add_blas1(&blas1::axpy(device, omega, &s_vec, &mut x));
        r = s_vec;
        clock.add_blas1(&blas1::axpy(device, -omega, &t, &mut r));
        iterations += 1;
        let (rn, st4) = blas1::norm2(device, &r);
        clock.add_blas1(&st4);
        if rn <= target {
            converged = true;
            break;
        }
        let (rho_next, st5) = blas1::dot(device, &r0, &r);
        clock.add_blas1(&st5);
        let beta = (rho_next / rho) * (alpha / omega);
        // p = r + beta * (p - omega * v)
        clock.add_blas1(&blas1::axpy(device, -omega, &v, &mut p));
        clock.add_blas1(&blas1::xpby(device, &r, beta, &mut p));
        rho = rho_next;
    }

    let relative_residual = true_residual(device, &plan, a, b, &x, &mut ws);
    SolveReport {
        x,
        iterations,
        converged,
        relative_residual,
        sim_ms: clock.ms,
        ledger: clock.ledger,
        host_ms: host_start.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    fn point_source(n: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        b[n / 2] = 1.0;
        b
    }

    #[test]
    fn cg_solves_poisson() {
        let a = gen::stencil_5pt(24, 24);
        let b = point_source(a.num_rows);
        let report = cg(&dev(), &a, &b, &SolverOptions::default());
        assert!(report.converged, "stalled at {}", report.relative_residual);
        assert!(report.relative_residual < 1e-9);
        assert!(report.sim_ms > 0.0);
        assert!(report.host_ms > 0.0, "host wall-clock must be measured");
        assert!(report.iterations > 5 && report.iterations < 500);
    }

    #[test]
    fn cg_identity_converges_in_one_iteration() {
        let a = mps_sparse::CsrMatrix::identity(50);
        let b = vec![2.0; 50];
        let report = cg(&dev(), &a, &b, &SolverOptions::default());
        assert!(report.converged);
        assert_eq!(report.iterations, 1);
        for xi in &report.x {
            assert!((xi - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cg_respects_iteration_cap() {
        let a = gen::stencil_5pt(32, 32);
        let b = point_source(a.num_rows);
        let opts = SolverOptions {
            max_iterations: 3,
            rel_tolerance: 1e-14,
        };
        let report = cg(&dev(), &a, &b, &opts);
        assert!(!report.converged);
        assert_eq!(report.iterations, 3);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_system() {
        // Poisson plus a skew perturbation: nonsymmetric but well posed.
        let mut a = gen::stencil_5pt(16, 16);
        for r in 0..a.num_rows {
            let (lo, hi) = (a.row_offsets[r], a.row_offsets[r + 1]);
            for i in lo..hi {
                if (a.col_idx[i] as usize) > r {
                    a.values[i] *= 0.7; // break symmetry
                }
            }
        }
        let b = point_source(a.num_rows);
        let report = bicgstab(&dev(), &a, &b, &SolverOptions::default());
        assert!(report.converged, "residual {}", report.relative_residual);
        assert!(report.relative_residual < 1e-8);
    }

    #[test]
    fn bicgstab_matches_cg_on_spd_system() {
        let a = gen::stencil_5pt(12, 12);
        let b = point_source(a.num_rows);
        let rc = cg(&dev(), &a, &b, &SolverOptions::default());
        let rb = bicgstab(&dev(), &a, &b, &SolverOptions::default());
        for (x, y) in rc.x.iter().zip(&rb.x) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn each_solve_plans_its_operator_once() {
        // The final true residual executes the solve's plan; it does not
        // partition the operator a second time.
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let a = gen::stencil_5pt(12, 12);
        let b = point_source(a.num_rows);
        for solve in [cg, bicgstab] {
            tracer.clear();
            let report = solve(&dev, &a, &b, &SolverOptions::default());
            assert!(report.converged);
            assert_eq!(crate::launches(&tracer, "spmv_partition"), 1);
        }
    }

    #[test]
    fn zero_rhs_is_immediately_converged() {
        let a = gen::stencil_5pt(8, 8);
        let report = cg(
            &dev(),
            &a,
            &vec![0.0; a.num_rows],
            &SolverOptions::default(),
        );
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
    }
}
