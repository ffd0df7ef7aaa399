//! Power iteration — the spectral-radius estimate smoothed aggregation
//! needs to scale its prolongator smoother.

use mps_core::{SpmvConfig, SpmvPlan, Workspace};
use mps_simt::Device;
use mps_sparse::CsrMatrix;

use crate::blas1;
use crate::SimClock;

/// Estimate of the dominant eigenvalue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    pub eigenvalue: f64,
    pub iterations: usize,
    pub sim_ms: f64,
}

/// Power iteration from a deterministic start vector.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn power_method(device: &Device, a: &CsrMatrix, iterations: usize) -> PowerEstimate {
    assert_eq!(
        a.num_rows, a.num_cols,
        "power iteration needs a square matrix"
    );
    if a.num_rows == 0 {
        return PowerEstimate {
            eigenvalue: 0.0,
            iterations: 0,
            sim_ms: 0.0,
        };
    }
    // Plan once; each iteration's product is a numeric execute.
    let plan = SpmvPlan::new(device, a, &SpmvConfig::default());
    let est = power_method_planned(device, &plan, a, iterations);
    PowerEstimate {
        sim_ms: plan.partition.sim_ms + est.sim_ms,
        ..est
    }
}

/// [`power_method`] on non-empty square `a` through a plan built for any
/// operator with `a`'s pattern. The estimate's `sim_ms` leaves out the
/// plan build, which the plan's owner paid.
pub(crate) fn power_method_planned(
    device: &Device,
    plan: &SpmvPlan,
    a: &CsrMatrix,
    iterations: usize,
) -> PowerEstimate {
    let mut clock = SimClock::default();
    let mut ws = Workspace::new();
    let mut av: Vec<f64> = Vec::new();
    // Deterministic pseudo-random start avoids symmetry traps.
    let mut v: Vec<f64> = (0..a.num_rows)
        .map(|i| 1.0 + ((i * 37 + 11) % 17) as f64 / 17.0)
        .collect();
    let mut lambda = 0.0;
    let mut done = 0;
    for _ in 0..iterations {
        plan.execute_into(a, &v, &mut av, &mut ws);
        clock.add_spmv(plan);
        let (norm, s) = blas1::norm2(device, &av);
        clock.add_blas1(&s);
        if norm == 0.0 {
            lambda = 0.0;
            done += 1;
            break;
        }
        lambda = norm;
        v.clear();
        v.extend(av.iter().map(|x| x / norm));
        done += 1;
    }
    PowerEstimate {
        eigenvalue: lambda,
        iterations: done,
        sim_ms: clock.ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::dense::from_dense;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn diagonal_matrix_dominant_eigenvalue() {
        let a = from_dense(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let est = power_method(&dev(), &a, 100);
        assert!((est.eigenvalue - 5.0).abs() < 1e-6, "{}", est.eigenvalue);
    }

    #[test]
    fn poisson_spectral_radius_below_eight() {
        // The 5-point Laplacian's eigenvalues lie in (0, 8).
        let a = gen::stencil_5pt(16, 16);
        let est = power_method(&dev(), &a, 200);
        assert!(
            est.eigenvalue < 8.0 && est.eigenvalue > 6.0,
            "{}",
            est.eigenvalue
        );
    }

    #[test]
    fn planned_iteration_matches_bitwise_through_a_plan_of_the_pattern() {
        // AMG runs the iteration on D⁻¹A through the plan of A: same
        // pattern, other values.
        let a = gen::stencil_5pt(9, 7);
        let mut scaled = a.clone();
        for v in &mut scaled.values {
            *v *= 0.3;
        }
        let plan = SpmvPlan::new(&dev(), &a, &SpmvConfig::default());
        let own = power_method(&dev(), &scaled, 12);
        let lent = power_method_planned(&dev(), &plan, &scaled, 12);
        assert_eq!(own.eigenvalue.to_bits(), lent.eigenvalue.to_bits());
        assert_eq!(own.iterations, lent.iterations);
        assert!((own.sim_ms - (lent.sim_ms + plan.partition.sim_ms)).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_gives_zero() {
        let a = CsrMatrix::zeros(5, 5);
        let est = power_method(&dev(), &a, 10);
        assert_eq!(est.eigenvalue, 0.0);
    }
}
