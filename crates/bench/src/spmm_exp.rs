//! SpMM benchmark: tiled multi-vector kernel vs repeated planned SpMVs.
//!
//! For each block width `K ∈ {1, 4, 16, 64}` this experiment times
//! `Y = A·X` two ways on the same operator:
//!
//! * **tiled** — one [`SpmmPlan`] execution (`⌈K / TILE_K⌉` column-tiled
//!   passes over A's nonzeros with wide operand loads);
//! * **repeated** — `K` executions of a [`SpmvPlan`], one per column (the
//!   pre-SpMM way to apply an operator to a block).
//!
//! Both simulated device time (the cost model sees A streamed fewer times
//! and the wide gathers coalescing) and measured host wall-clock (both
//! paths are allocation-free plan replays; the tiled loop touches A once
//! per tile) are reported, with the row-per-warp baseline alongside.
//! [`report`] is the `spmm` experiment of `mps bench` (`BENCH_spmm.json`).

use std::time::Instant;

use mps_baselines::spmm::spmm_row_warp;
use mps_core::{SpmmConfig, SpmmPlan, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::Device;
use mps_sparse::{gen, CsrMatrix, DenseBlock};

use crate::report::Report;

/// One block-width measurement.
#[derive(Debug, Clone)]
pub struct SpmmRow {
    pub k: usize,
    pub n: usize,
    pub nnz: usize,
    /// Simulated ms of one tiled SpMM execution.
    pub spmm_sim_ms: f64,
    /// Simulated ms of `k` planned SpMV executions.
    pub repeated_spmv_sim_ms: f64,
    /// Simulated ms of the row-per-warp baseline.
    pub row_warp_sim_ms: f64,
    /// Measured host ms per tiled SpMM execution.
    pub spmm_host_ms: f64,
    /// Measured host ms per `k` planned SpMV executions.
    pub repeated_spmv_host_ms: f64,
}

impl SpmmRow {
    /// Simulated speedup of tiled SpMM over `k` repeated planned SpMVs.
    pub fn sim_speedup(&self) -> f64 {
        if self.spmm_sim_ms <= 0.0 {
            return 0.0;
        }
        self.repeated_spmv_sim_ms / self.spmm_sim_ms
    }

    /// Host-time speedup of tiled SpMM over `k` repeated planned SpMVs.
    pub fn host_speedup(&self) -> f64 {
        if self.spmm_host_ms <= 0.0 {
            return 0.0;
        }
        self.repeated_spmv_host_ms / self.spmm_host_ms
    }
}

fn operand(a: &CsrMatrix, k: usize) -> DenseBlock {
    DenseBlock::from_fn(a.num_cols, k, |r, c| {
        1.0 + ((r * 7 + c * 13) % 17) as f64 * 0.25
    })
}

/// Measure one block width on one operator. `reps` host repetitions are
/// averaged for the wall-clock numbers (both paths warmed first).
pub fn measure(device: &Device, a: &CsrMatrix, k: usize, reps: usize) -> SpmmRow {
    let x = operand(a, k);
    let spmm_cfg = SpmmConfig::default();
    let spmv_cfg = SpmvConfig::default();
    let spmm_plan = SpmmPlan::new(device, a, k, &spmm_cfg);
    let spmv_plan = SpmvPlan::new(device, a, &spmv_cfg);
    let columns: Vec<Vec<f64>> = (0..k).map(|c| x.column(c)).collect();

    // Small-k executions finish in microseconds; scale the rep count so
    // every k times a comparable wall-clock window, and take the *minimum*
    // over several timing windows — scheduler preemption and VM jitter
    // only ever add time, so the per-window minimum is the best estimate
    // of the uncontended steady-state cost. The two paths' windows are
    // *interleaved* (tiled, repeated, tiled, ...) so slow drift in machine
    // load biases both numerators equally and the host_speedup ratio stays
    // reproducible on shared machines.
    let host_reps = (reps * (64 / k).max(1)).max(1);
    let windows = 12usize;
    let per_window = (host_reps / windows).max(1);
    let mut ws = Workspace::new();
    let mut y = DenseBlock::zeros(0, 0);
    let mut yv: Vec<f64> = Vec::new();

    // Warm both paths (first call sizes buffers and faults pages in).
    spmm_plan.execute_into(a, &x, &mut y, &mut ws);
    for col in &columns {
        spmv_plan.execute_into(a, col, &mut yv, &mut ws);
    }

    let mut spmm_host_ms = f64::INFINITY;
    let mut repeated_spmv_host_ms = f64::INFINITY;
    for _ in 0..windows {
        let t = Instant::now();
        for _ in 0..per_window {
            spmm_plan.execute_into(a, &x, &mut y, &mut ws);
        }
        spmm_host_ms = spmm_host_ms.min(t.elapsed().as_secs_f64() * 1e3 / per_window as f64);

        let t = Instant::now();
        for _ in 0..per_window {
            for col in &columns {
                spmv_plan.execute_into(a, col, &mut yv, &mut ws);
            }
        }
        repeated_spmv_host_ms =
            repeated_spmv_host_ms.min(t.elapsed().as_secs_f64() * 1e3 / per_window as f64);
    }

    let (_, row_warp) = spmm_row_warp(device, a, &x);

    SpmmRow {
        k,
        n: a.num_rows,
        nnz: a.nnz(),
        spmm_sim_ms: spmm_plan.execute_sim_ms(),
        repeated_spmv_sim_ms: k as f64 * spmv_plan.execute_sim_ms(),
        row_warp_sim_ms: row_warp.sim_ms,
        spmm_host_ms,
        repeated_spmv_host_ms,
    }
}

/// Run the block-width sweep `K ∈ {1, 4, 16, 64}` on a uniform random
/// operator of `n` rows and ~`avg_nnz_per_row` nonzeros per row.
pub fn run(device: &Device, n: usize, avg_nnz_per_row: f64, reps: usize) -> Vec<SpmmRow> {
    let a = gen::random_uniform(n, n, avg_nnz_per_row, avg_nnz_per_row / 2.0, 42);
    [1usize, 4, 16, 64]
        .iter()
        .map(|&k| measure(device, &a, k, reps))
        .collect()
}

/// `(n, avg_nnz_per_row, reps)` of the smoke run.
const TINY: (usize, f64, usize) = (300, 6.0, 2);
/// `(n, avg_nnz_per_row, reps)` of the committed artifact.
const FULL: (usize, f64, usize) = (4000, 16.0, 24);

/// Run the block-width sweep, print its table, and return the report.
pub fn report(tiny: bool) -> Report {
    let (n, avg_nnz_per_row, reps) = if tiny { TINY } else { FULL };
    let rows = run(&Device::titan(), n, avg_nnz_per_row, reps);
    println!("{}", render(&rows));
    Report::new("spmm", tiny).with_table(
        "spmm_vs_repeated_spmv",
        &rows,
        &[
            ("k", "columns", |r| r.k.into()),
            ("n", "rows", |r| r.n.into()),
            ("nnz", "count", |r| r.nnz.into()),
            ("spmm_sim_ms", "ms", |r| r.spmm_sim_ms.into()),
            ("repeated_spmv_sim_ms", "ms", |r| {
                r.repeated_spmv_sim_ms.into()
            }),
            ("row_warp_sim_ms", "ms", |r| r.row_warp_sim_ms.into()),
            ("sim_speedup", "x", |r| r.sim_speedup().into()),
            ("spmm_host_ms", "ms", |r| r.spmm_host_ms.into()),
            ("repeated_spmv_host_ms", "ms", |r| {
                r.repeated_spmv_host_ms.into()
            }),
            ("host_speedup", "x", |r| r.host_speedup().into()),
        ],
    )
}

/// Render the sweep table.
pub fn render(rows: &[SpmmRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.n.to_string(),
                r.nnz.to_string(),
                format!("{:.3}", r.spmm_sim_ms),
                format!("{:.3}", r.repeated_spmv_sim_ms),
                format!("{:.3}", r.row_warp_sim_ms),
                format!("{:.2}", r.sim_speedup()),
                format!("{:.2}", r.host_speedup()),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "k",
            "n",
            "nnz",
            "spmm_sim_ms",
            "k*spmv_sim_ms",
            "row_warp_sim_ms",
            "sim_speedup",
            "host_speedup",
        ],
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
    fn tiled_spmm_beats_repeated_spmvs_in_sim_time_for_k_ge_4() {
        let rows = run(&dev(), 600, 8.0, 2);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.spmm_sim_ms > 0.0);
            assert!(r.row_warp_sim_ms > 0.0);
            if r.k >= 4 {
                assert!(
                    r.sim_speedup() > 1.0,
                    "k={}: speedup {} must exceed 1",
                    r.k,
                    r.sim_speedup()
                );
            }
        }
    }
}
