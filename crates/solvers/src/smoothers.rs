//! Stationary relaxation: (weighted) Jacobi sweeps.
//!
//! Each sweep is one merge SpMV whose epilogue applies the update to every
//! row as its launch finishes it — the AMG building block whose per-sweep
//! cost the flat decomposition keeps proportional to nnz regardless of
//! structure.

use mps_core::{Epilogue, FusedExecute, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::{Device, Phase};
use mps_sparse::CsrMatrix;

use crate::SimClock;

/// Extract 1/diag(A).
///
/// # Panics
/// Panics if any diagonal entry is missing or zero.
pub fn inverse_diagonal(a: &CsrMatrix) -> Vec<f64> {
    (0..a.num_rows)
        .map(|r| {
            let d = a
                .row_cols(r)
                .iter()
                .zip(a.row_vals(r))
                .find(|(c, _)| **c as usize == r)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            assert!(d != 0.0, "row {r} has no usable diagonal");
            1.0 / d
        })
        .collect()
}

/// One weighted-Jacobi sweep: `x += ω D⁻¹ (b − A x)`. Plans the SpMV for
/// this one sweep; returns simulated ms, the plan build included.
pub fn jacobi_sweep(
    device: &Device,
    a: &CsrMatrix,
    inv_diag: &[f64],
    b: &[f64],
    x: &mut [f64],
    omega: f64,
) -> f64 {
    let plan = SpmvPlan::new(device, a, &SpmvConfig::default());
    let mut x_new = Vec::new();
    let fused = plan.execute_fused_into(
        a,
        x,
        &mut x_new,
        &mut Workspace::new(),
        &Epilogue::jacobi(omega, inv_diag, b),
    );
    x.copy_from_slice(&x_new);
    plan.build_sim_ms() + fused.sim_ms()
}

/// [`jacobi_sweep`] against a pre-built [`SpmvPlan`]: one fused SpMV whose
/// Jacobi epilogue reads x, b and D⁻¹ for each row it finishes. The new
/// iterate is written to `x_new`, because other CTAs still gather the old
/// `x`; the buffers are then swapped, so `x` holds the new iterate.
/// Returns the fused execute's price.
#[allow(clippy::too_many_arguments)]
pub fn jacobi_sweep_planned<'p>(
    plan: &'p SpmvPlan,
    a: &CsrMatrix,
    inv_diag: &[f64],
    b: &[f64],
    x: &mut Vec<f64>,
    omega: f64,
    x_new: &mut Vec<f64>,
    ws: &mut Workspace,
) -> FusedExecute<'p> {
    let fused = plan.execute_fused_into(a, x, x_new, ws, &Epilogue::jacobi(omega, inv_diag, b));
    std::mem::swap(x, x_new);
    fused
}

/// Run `sweeps` weighted-Jacobi iterations; returns simulated ms.
///
/// Plans the SpMV once and reuses the numeric-execute path across sweeps.
pub fn jacobi(
    device: &Device,
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    omega: f64,
    sweeps: usize,
) -> f64 {
    let inv_diag = inverse_diagonal(a);
    let cfg = SpmvConfig::default();
    let plan = SpmvPlan::new(device, a, &cfg);
    let mut ws = Workspace::new();
    let (mut cur, mut next) = (x.to_vec(), Vec::new());
    let mut clock = SimClock::default();
    clock.charge(Phase::Partition, &plan.partition);
    for _ in 0..sweeps {
        clock.add_fused(&jacobi_sweep_planned(
            &plan, a, &inv_diag, b, &mut cur, omega, &mut next, &mut ws,
        ));
    }
    x.copy_from_slice(&cur);
    clock.ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn inverse_diagonal_of_stencil() {
        let a = gen::stencil_5pt(4, 4);
        let inv = inverse_diagonal(&a);
        for v in inv {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "no usable diagonal")]
    fn missing_diagonal_panics() {
        let a = mps_sparse::CooMatrix::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]).to_csr();
        inverse_diagonal(&a);
    }

    #[test]
    fn jacobi_reduces_the_residual() {
        let a = gen::stencil_5pt(10, 10);
        let b = vec![1.0; a.num_rows];
        let mut x = vec![0.0; a.num_rows];
        let r0: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        jacobi(&dev(), &a, &b, &mut x, 2.0 / 3.0, 20);
        let ax = mps_sparse::ops::spmv_ref(&a, &x);
        let r: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, yi)| (bi - yi) * (bi - yi))
            .sum::<f64>()
            .sqrt();
        assert!(r < 0.6 * r0, "residual {r} vs initial {r0}");
    }

    #[test]
    fn planned_sweep_matches_one_shot_sweep_bitwise() {
        let a = gen::stencil_5pt(9, 7);
        let b: Vec<f64> = (0..a.num_rows).map(|i| (i as f64).sin()).collect();
        let inv_diag = inverse_diagonal(&a);
        let mut x1 = vec![0.0; a.num_rows];
        let mut x2 = vec![0.0; a.num_rows];
        let plan = SpmvPlan::new(&dev(), &a, &SpmvConfig::default());
        let mut x_new = Vec::new();
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let ms1 = jacobi_sweep(&dev(), &a, &inv_diag, &b, &mut x1, 0.7);
            let fused =
                jacobi_sweep_planned(&plan, &a, &inv_diag, &b, &mut x2, 0.7, &mut x_new, &mut ws);
            // The planned sweep amortizes the partition: per-sweep cost is
            // exactly the one-shot cost minus the partition phase.
            let ms2 = fused.sim_ms();
            assert!(
                (ms1 - (ms2 + plan.partition.sim_ms)).abs() < 1e-12,
                "one-shot {ms1} vs planned {ms2} + partition {}",
                plan.partition.sim_ms
            );
            // The fused sweep undercuts the product plus a separate update
            // pass reading x, b, A·x and D⁻¹ and writing x.
            let unfused = plan.execute_sim_ms()
                + crate::blas1::streaming_launch(&dev(), a.num_rows, 4, 1, 0).sim_ms;
            assert!(ms2 < unfused, "fused {ms2} vs unfused {unfused}");
        }
        for (p, q) in x1.iter().zip(&x2) {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "planned sweep must be bitwise identical"
            );
        }
    }

    #[test]
    fn fused_sweep_matches_the_unfused_update_bitwise() {
        // Small tiles: rows end on tile boundaries and span CTAs, so many
        // rows are finished after a look-back fold.
        let a = gen::random_uniform(300, 300, 7.0, 3.0, 5);
        let inv_diag: Vec<f64> = (0..a.num_rows)
            .map(|i| 0.1 + (i % 3) as f64 * 0.05)
            .collect();
        let b: Vec<f64> = (0..a.num_rows).map(|i| (0.3 * i as f64).cos()).collect();
        let cfg = SpmvConfig {
            block_threads: 32,
            items_per_thread: 2,
            force_no_compaction: false,
        };
        let plan = SpmvPlan::new(&dev(), &a, &cfg);
        let mut ws = Workspace::new();
        let (mut fused_x, mut x_new) = (vec![0.25; a.num_rows], Vec::new());
        let mut unfused_x = fused_x.clone();
        let mut ax = Vec::new();
        for _ in 0..3 {
            jacobi_sweep_planned(
                &plan,
                &a,
                &inv_diag,
                &b,
                &mut fused_x,
                0.6,
                &mut x_new,
                &mut ws,
            );
            plan.execute_into(&a, &unfused_x, &mut ax, &mut ws);
            for i in 0..unfused_x.len() {
                unfused_x[i] += 0.6 * inv_diag[i] * (b[i] - ax[i]);
            }
        }
        for (p, q) in fused_x.iter().zip(&unfused_x) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn jacobi_fixed_point_is_the_solution() {
        // If x already solves the system, sweeps must not move it.
        let a = mps_sparse::CsrMatrix::identity(10);
        let b = vec![3.0; 10];
        let mut x = b.clone();
        jacobi(&dev(), &a, &b, &mut x, 1.0, 5);
        for xi in &x {
            assert!((xi - 3.0).abs() < 1e-12);
        }
    }
}
