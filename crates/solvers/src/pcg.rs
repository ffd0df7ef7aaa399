//! Preconditioned conjugate gradients.
//!
//! The production pattern for the paper's kernels: an AMG hierarchy (built
//! with SpGEMM) supplies the preconditioner, merge SpMV drives the Krylov
//! iteration, and one V-cycle per iteration turns CG's O(√κ) iteration
//! count into a grid-size-independent handful.

use std::time::Instant;

use mps_core::{Epilogue, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::{Device, Phase};
use mps_sparse::CsrMatrix;

use crate::amg::AmgHierarchy;
use crate::blas1;
use crate::krylov::{SolveReport, SolverOptions};
use crate::smoothers::inverse_diagonal;
use crate::SimClock;

/// Application of an approximate inverse `z ≈ A⁻¹ r`.
pub trait Preconditioner {
    /// Write `z ≈ A⁻¹ r` into the caller's buffer, resized to `r.len()`,
    /// drawing scratch from `ws` and charging every launch to `clock`.
    fn apply(
        &self,
        device: &Device,
        r: &[f64],
        z: &mut Vec<f64>,
        ws: &mut Workspace,
        clock: &mut SimClock,
    );

    /// An SpMV plan this preconditioner already holds for `a`'s sparsity
    /// pattern, which a solver can execute instead of building its own.
    /// On the device the plan was built on, a plan depends only on the
    /// pattern, so borrowing one there changes no bit of the solution. On
    /// a device with another SM count, an operator too small to fill
    /// every SM is partitioned differently (`mps_core::tile_spacing`), so
    /// the borrowed plan's bits are its build device's, not those a
    /// fresh plan would give. A plan also charges each execute at the
    /// price of the device it was built on, so a solve on another device
    /// pays the owner's SpMV cost, as the products inside an AMG V-cycle
    /// already do.
    fn plan_for(&self, _a: &CsrMatrix) -> Option<&SpmvPlan> {
        None
    }
}

/// Diagonal (Jacobi) preconditioner.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// # Panics
    /// Panics if any diagonal entry is missing or zero.
    pub fn new(a: &CsrMatrix) -> Self {
        JacobiPreconditioner {
            inv_diag: inverse_diagonal(a),
        }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(
        &self,
        device: &Device,
        r: &[f64],
        z: &mut Vec<f64>,
        _ws: &mut Workspace,
        clock: &mut SimClock,
    ) {
        z.clear();
        z.extend(r.iter().zip(&self.inv_diag).map(|(ri, di)| ri * di));
        // One streaming pass: read r and the diagonal, write z.
        clock.add_blas1(&blas1::streaming_launch(device, r.len(), 2, 1, 0));
    }
}

/// One multigrid V-cycle from a zero initial guess — the standard AMG
/// preconditioner.
impl Preconditioner for AmgHierarchy {
    /// From `z = 0` the finest level's first Jacobi sweep is
    /// `0 + (ω·dᵢ)·rᵢ`: the Jacobi epilogue's bits, since no level holds a
    /// non-finite entry (`A·0 = +0`), as a coarse level's restriction
    /// already relies on. So it runs as one streaming pass, not an SpMV
    /// of the zero vector, and the cycle starts one sweep in.
    fn apply(
        &self,
        device: &Device,
        r: &[f64],
        z: &mut Vec<f64>,
        ws: &mut Workspace,
        clock: &mut SimClock,
    ) {
        let fine = &self.levels[0];
        z.clear();
        let swept = if fine.p.is_some() && self.options.pre_sweeps > 0 {
            let omega = self.options.omega;
            z.extend(
                r.iter()
                    .zip(&fine.inv_diag)
                    .map(|(ri, di)| 0.0 + omega * di * ri),
            );
            // Read r and the diagonal, write z.
            clock.add_blas1(&blas1::streaming_launch(device, r.len(), 2, 1, 0));
            1
        } else {
            z.resize(r.len(), 0.0);
            0
        };
        self.cycle(device, 0, r, z, swept, ws, clock);
    }

    /// The finest level's plan, when `a` has that level's pattern (an
    /// O(nnz) comparison). It is priced on the device the hierarchy was
    /// built on.
    fn plan_for(&self, a: &CsrMatrix) -> Option<&SpmvPlan> {
        let fine = &self.levels[0];
        let same_pattern = fine.a.num_cols == a.num_cols
            && fine.a.row_offsets == a.row_offsets
            && fine.a.col_idx == a.col_idx;
        same_pattern.then_some(&fine.a_plan)
    }
}

/// Preconditioned conjugate gradients for SPD systems.
///
/// # Panics
/// Panics if the system is not square or `b` has the wrong length.
pub fn pcg(
    device: &Device,
    a: &CsrMatrix,
    b: &[f64],
    preconditioner: &impl Preconditioner,
    opts: &SolverOptions,
) -> SolveReport {
    assert_eq!(a.num_rows, a.num_cols, "PCG needs a square system");
    assert_eq!(b.len(), a.num_rows, "right-hand side length mismatch");
    let host_start = Instant::now();
    let mut clock = SimClock::default();
    // Plan once: the operator is fixed for the whole solve, so each
    // iteration's product is a pure numeric execute into a warm buffer.
    // A preconditioner that holds a plan for the pattern lends it; its
    // build was charged to the preconditioner's setup.
    let own_plan;
    let plan = match preconditioner.plan_for(a) {
        Some(plan) => plan,
        None => {
            own_plan = SpmvPlan::new(device, a, &SpmvConfig::default());
            clock.charge(Phase::Partition, &own_plan.partition);
            &own_plan
        }
    };
    let mut ws = Workspace::new();
    let mut ap: Vec<f64> = Vec::new();

    let mut x = vec![0.0; a.num_rows];
    let mut r = b.to_vec();
    // `r` starts as `b`, so ‖b‖ is also the initial residual norm.
    let (bn, s) = blas1::norm2(device, b);
    clock.add_blas1(&s);
    let target = (opts.rel_tolerance * bn).max(f64::MIN_POSITIVE);

    let mut z: Vec<f64> = Vec::new();
    preconditioner.apply(device, &r, &mut z, &mut ws, &mut clock);
    let mut p = z.clone();
    let (mut rz, s) = blas1::dot(device, &r, &z);
    clock.add_blas1(&s);

    let mut iterations = 0;
    let mut converged = bn <= target;
    while !converged && iterations < opts.max_iterations {
        // A·p with p·A·p folded into the same SpMV.
        let fused = plan.execute_fused_into(a, &p, &mut ap, &mut ws, &Epilogue::dot_with(&p));
        clock.add_fused(&fused);
        let pap = fused.dot.expect("folded dot");
        if pap <= 0.0 || rz == 0.0 {
            break;
        }
        let alpha = rz / pap;
        let (rr, s) = blas1::cg_update(device, alpha, &p, &ap, &mut x, &mut r);
        clock.add_blas1(&s);
        iterations += 1;
        if rr.sqrt() <= target {
            converged = true;
            break;
        }
        preconditioner.apply(device, &r, &mut z, &mut ws, &mut clock);
        let (rz_next, s) = blas1::dot(device, &r, &z);
        clock.add_blas1(&s);
        clock.add_blas1(&blas1::xpby(device, &z, rz_next / rz, &mut p));
        rz = rz_next;
    }

    // True residual through the reference kernel.
    let ax = mps_sparse::ops::spmv_ref(a, &x);
    let rn = b
        .iter()
        .zip(&ax)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    SolveReport {
        x,
        iterations,
        converged,
        relative_residual: if bn == 0.0 { rn } else { rn / bn },
        sim_ms: clock.ms,
        ledger: clock.ledger,
        host_ms: host_start.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amg::AmgOptions;
    use crate::krylov::cg;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    fn system(n: usize) -> (CsrMatrix, Vec<f64>) {
        let a = gen::stencil_5pt(n, n);
        let mut b = vec![0.0; a.num_rows];
        b[a.num_rows / 2] = 1.0;
        (a, b)
    }

    #[test]
    fn jacobi_pcg_solves_poisson() {
        let (a, b) = system(20);
        let m = JacobiPreconditioner::new(&a);
        let report = pcg(&dev(), &a, &b, &m, &SolverOptions::default());
        assert!(report.converged, "residual {}", report.relative_residual);
        assert!(report.relative_residual < 1e-9);
    }

    #[test]
    fn amg_pcg_needs_far_fewer_iterations_than_cg() {
        let (a, b) = system(32);
        let plain = cg(&dev(), &a, &b, &SolverOptions::default());
        let h = AmgHierarchy::build(&dev(), a.clone(), AmgOptions::default());
        let amg = pcg(&dev(), &a, &b, &h, &SolverOptions::default());
        assert!(amg.converged);
        assert!(
            amg.iterations * 3 < plain.iterations,
            "AMG-PCG {} vs CG {}",
            amg.iterations,
            plain.iterations
        );
        // Solutions agree.
        for (p, q) in amg.x.iter().zip(&plain.x) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn amg_apply_equals_a_cycle_from_zero_with_one_spmv_fewer() {
        let dev = dev();
        let (a, _) = system(48);
        // Signs and a −0 entry: the first sweep must give the Jacobi
        // epilogue's bits on each.
        let mut r: Vec<f64> = (0..a.num_rows)
            .map(|i| (i % 7) as f64 * 0.5 - 1.5)
            .collect();
        r[1] = -0.0;
        let launches = |clock: &SimClock, phase| {
            let entries = clock.ledger.entries().into_iter();
            entries
                .filter(|e| e.phase == phase)
                .map(|e| e.launches)
                .sum::<u64>()
        };
        for pre_sweeps in [0, 1, 2] {
            let options = AmgOptions {
                pre_sweeps,
                ..AmgOptions::default()
            };
            let h = AmgHierarchy::build(&dev, a.clone(), options);
            let mut ws = Workspace::new();
            let (mut applied, mut cycled) = (Vec::new(), vec![0.0; a.num_rows]);
            let (mut by_apply, mut by_cycle) = (SimClock::default(), SimClock::default());
            h.apply(&dev, &r, &mut applied, &mut ws, &mut by_apply);
            h.cycle(&dev, 0, &r, &mut cycled, 0, &mut ws, &mut by_cycle);
            for (p, q) in applied.iter().zip(&cycled) {
                assert_eq!(p.to_bits(), q.to_bits(), "{pre_sweeps}");
            }
            // The first sweep's SpMV becomes one streaming launch.
            let saved = u64::from(pre_sweeps > 0);
            assert_eq!(
                launches(&by_apply, Phase::Reduction) + saved,
                launches(&by_cycle, Phase::Reduction)
            );
            assert_eq!(
                launches(&by_apply, Phase::Blas1),
                launches(&by_cycle, Phase::Blas1) + saved
            );
        }
    }

    /// Delegates every V-cycle to the hierarchy but lends no plan.
    struct Withholding<'a>(&'a AmgHierarchy);

    impl Preconditioner for Withholding<'_> {
        fn apply(
            &self,
            device: &Device,
            r: &[f64],
            z: &mut Vec<f64>,
            ws: &mut Workspace,
            clock: &mut SimClock,
        ) {
            self.0.apply(device, r, z, ws, clock);
        }
    }

    #[test]
    fn amg_pcg_borrows_the_hierarchy_plan_bitwise() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let (a, b) = system(24);
        let h = AmgHierarchy::build(&dev, a.clone(), AmgOptions::default());
        tracer.clear();
        let lent = pcg(&dev, &a, &b, &h, &SolverOptions::default());
        assert_eq!(
            crate::launches(&tracer, "spmv_partition"),
            0,
            "the hierarchy's plan serves A"
        );
        tracer.clear();
        let own = pcg(&dev, &a, &b, &Withholding(&h), &SolverOptions::default());
        assert_eq!(crate::launches(&tracer, "spmv_partition"), 1);

        assert!(lent.converged);
        assert_eq!(lent.iterations, own.iterations);
        assert_eq!(
            lent.relative_residual.to_bits(),
            own.relative_residual.to_bits()
        );
        for (p, q) in lent.x.iter().zip(&own.x) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // The borrowed plan's build was charged to the hierarchy's setup.
        assert!(lent.sim_ms < own.sim_ms);
    }

    #[test]
    fn an_operator_with_another_pattern_gets_its_own_plan() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let (a, b) = system(16);
        let h = AmgHierarchy::build(&dev, a.clone(), AmgOptions::default());
        let mut rescaled = a.clone();
        for v in &mut rescaled.values {
            *v *= 2.0;
        }
        assert!(h.plan_for(&rescaled).is_some(), "values do not matter");
        // Poisson plus a symmetric coupling between rows 0 and 2: still
        // diagonally dominant, so still SPD.
        let mut coo = mps_sparse::CooMatrix::new(a.num_rows, a.num_cols);
        for r in 0..a.num_rows {
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                coo.push(r as u32, c, v);
            }
        }
        coo.push(0, 2, -0.5);
        coo.push(2, 0, -0.5);
        let other = coo.to_csr();
        assert!(h.plan_for(&other).is_none());

        tracer.clear();
        let report = pcg(&dev, &other, &b, &h, &SolverOptions::default());
        assert_eq!(crate::launches(&tracer, "spmv_partition"), 1);
        assert!(report.converged, "residual {}", report.relative_residual);
    }

    #[test]
    fn amg_pcg_iterations_stay_flat_with_grid_size() {
        // Mesh-independence: the hallmark of multigrid preconditioning.
        let mut counts = Vec::new();
        for n in [16usize, 32] {
            let (a, b) = system(n);
            let h = AmgHierarchy::build(&dev(), a.clone(), AmgOptions::default());
            let report = pcg(&dev(), &a, &b, &h, &SolverOptions::default());
            assert!(report.converged);
            counts.push(report.iterations);
        }
        // 4x unknowns should cost at most ~2x the iterations.
        assert!(
            counts[1] <= 2 * counts[0] + 2,
            "iterations grew too fast: {counts:?}"
        );
    }
}
