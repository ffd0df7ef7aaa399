//! Planned execution for the CMRS strip format.
//!
//! [`CmrsSpmvPlan`] is the backend of an [`AdvisedSpmvPlan`] whose
//! [`FormatAdvisor`] picked CMRS, and the planned counterpart of the
//! one-shot kernel `mps_baselines::format_spmv::spmv_cmrs`: the conversion
//! and the kernel cost simulation happen once at build, and every execute
//! replays the cached [`LaunchStats`] while computing the numerics with a
//! plain row-wise dot over the *original* CSR operand. That works because
//! the strip kernel accumulates each row's products in its CSR entry order
//! starting from `-0.0` (the `Iterator::sum` identity) — the result is
//! bitwise identical to the sequential row dot, so the plan never needs
//! the converted value array and stays correct across in-place value
//! updates. The execute path allocates nothing once the output vector is
//! warm.
//!
//! [`AdvisedSpmvPlan`]: crate::advisor::AdvisedSpmvPlan
//! [`FormatAdvisor`]: crate::advisor::FormatAdvisor

use crate::error::PlanError;
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::cmrs::CmrsMatrix;
use mps_sparse::CsrMatrix;

/// Threads per CTA of the CMRS strip kernel (matches the baselines
/// kernel, so a plan's price equals the one-shot kernel's bitwise; the
/// conformance oracle checks that on every case).
pub(crate) const FORMAT_BLOCK_THREADS: usize = 128;

/// Grid geometry shared by the strip kernel and the advisor's cost
/// prediction: CTAs cover `groups` strips of `group_height` rows, packing
/// as many strips per CTA as the block has threads. Returns
/// `(groups_per_cta, num_ctas)`.
pub(crate) fn format_grid(groups: usize, group_height: usize) -> (usize, usize) {
    let per_cta = (FORMAT_BLOCK_THREADS / group_height.max(1)).max(1);
    (per_cta, groups.div_ceil(per_cta).max(1))
}

/// Sequential row-wise SpMV: each row accumulated in entry order from
/// `-0.0` — `Iterator::sum`'s empty identity, so empty rows too are
/// bitwise equal to [`mps_sparse::ops::spmv_ref`]. This is the shared
/// numeric ground truth of every row-split format kernel in the repo.
pub fn spmv_rowwise(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    for (r, out) in y.iter_mut().enumerate().take(a.num_rows) {
        let mut acc = -0.0;
        for (c, v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
            acc += v * x[*c as usize];
        }
        *out = acc;
    }
}

fn check_operand(
    num_rows: usize,
    num_cols: usize,
    a: &CsrMatrix,
    x: &[f64],
) -> Result<(), PlanError> {
    if a.num_rows != num_rows || a.num_cols != num_cols {
        return Err(PlanError::ShapeMismatch {
            left: (num_rows, num_cols),
            right: (a.num_rows, a.num_cols),
        });
    }
    if x.len() != num_cols {
        return Err(PlanError::ShapeMismatch {
            left: (num_cols, 1),
            right: (x.len(), 1),
        });
    }
    Ok(())
}

/// A built CMRS SpMV execution: strip layout priced once, numerics served
/// row-wise from the original CSR.
#[derive(Debug, Clone)]
pub struct CmrsSpmvPlan {
    num_rows: usize,
    num_cols: usize,
    strip_height: usize,
    num_strips: usize,
    stats: LaunchStats,
}

impl CmrsSpmvPlan {
    /// Convert `a` to CMRS (transiently) and simulate the strip kernel
    /// once, caching its cost.
    pub fn new(device: &Device, a: &CsrMatrix) -> CmrsSpmvPlan {
        let m = CmrsMatrix::from_csr(a);
        let (strips_per_cta, num_ctas) = format_grid(m.num_strips(), m.strip_height);
        let (_, stats) = launch_map_phased(
            device,
            "cmrs_spmv",
            Phase::CmrsStrip,
            LaunchConfig::new(num_ctas, FORMAT_BLOCK_THREADS),
            |cta| {
                let s_lo = cta.cta_id * strips_per_cta;
                let s_hi = (s_lo + strips_per_cta).min(m.num_strips());
                let row_lo = s_lo * m.strip_height;
                let row_hi = (s_hi * m.strip_height).min(m.num_rows);
                for s in s_lo..s_hi {
                    let (lo, hi) = (m.strip_ptr[s], m.strip_ptr[s + 1]);
                    let entries = hi - lo;
                    cta.read_coalesced(entries, 2);
                    cta.read_coalesced(entries, 4);
                    cta.read_coalesced(entries, 8);
                    cta.gather(m.col_idx[lo..hi].iter().map(|&c| c as usize), 8);
                    cta.shmem(2 * entries as u64);
                    cta.alu(2 * entries as u64);
                }
                cta.write_coalesced(row_hi.saturating_sub(row_lo), 8);
            },
        );
        CmrsSpmvPlan {
            num_rows: a.num_rows,
            num_cols: a.num_cols,
            strip_height: m.strip_height,
            num_strips: m.num_strips(),
            stats,
        }
    }

    pub fn strip_height(&self) -> usize {
        self.strip_height
    }

    pub fn num_strips(&self) -> usize {
        self.num_strips
    }

    /// Cached simulated cost of one strip-kernel execution.
    pub fn stats(&self) -> &LaunchStats {
        &self.stats
    }

    /// Simulated milliseconds of one planned execution.
    pub fn execute_sim_ms(&self) -> f64 {
        self.stats.sim_ms
    }

    /// Execute against the original CSR operand; returns the simulated
    /// kernel milliseconds. Allocation-free once `y` has capacity.
    pub fn execute_into(&self, a: &CsrMatrix, x: &[f64], y: &mut Vec<f64>) -> f64 {
        self.try_execute_into(a, x, y).expect("format plan operand")
    }

    /// Non-panicking [`CmrsSpmvPlan::execute_into`].
    pub fn try_execute_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut Vec<f64>,
    ) -> Result<f64, PlanError> {
        check_operand(self.num_rows, self.num_cols, a, x)?;
        y.clear();
        y.resize(self.num_rows, 0.0);
        spmv_rowwise(a, x, y);
        Ok(self.stats.sim_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;
    use mps_sparse::ops::spmv_ref;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn format_plans_match_rowwise_reference_bitwise() {
        for m in [
            gen::random_uniform(400, 400, 8.0, 4.0, 5),
            gen::power_law(500, 500, 1, 1.5, 300, 9),
        ] {
            let x: Vec<f64> = (0..m.num_cols).map(|i| 0.5 + (i % 7) as f64).collect();
            let want = spmv_ref(&m, &x);
            let mut y = Vec::new();
            let cmrs = CmrsSpmvPlan::new(&dev(), &m);
            let ms = cmrs.execute_into(&m, &x, &mut y);
            assert!(ms > 0.0);
            assert_eq!(y, want);
        }
    }

    #[test]
    fn plans_survive_value_updates() {
        // The plan prices structure only; numerics come from the operand
        // passed at execute time, so new values flow through untouched.
        let mut m = gen::random_uniform(200, 200, 6.0, 3.0, 2);
        let x = vec![1.0; 200];
        let cmrs = CmrsSpmvPlan::new(&dev(), &m);
        for v in &mut m.values {
            *v *= -3.0;
        }
        let want = spmv_ref(&m, &x);
        let mut y = Vec::new();
        cmrs.execute_into(&m, &x, &mut y);
        assert_eq!(y, want);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let m = gen::random_uniform(50, 60, 4.0, 2.0, 1);
        let other = gen::random_uniform(50, 61, 4.0, 2.0, 1);
        let plan = CmrsSpmvPlan::new(&dev(), &m);
        let mut y = Vec::new();
        assert!(plan
            .try_execute_into(&other, &vec![0.0; 61], &mut y)
            .is_err());
        assert!(plan.try_execute_into(&m, &[0.0; 3], &mut y).is_err());
    }

    #[test]
    fn grid_geometry_packs_groups_per_block() {
        assert_eq!(format_grid(100, 16), (8, 13));
        assert_eq!(format_grid(3, 32), (4, 1));
        assert_eq!(format_grid(0, 16), (8, 1));
        assert_eq!(format_grid(10, 512), (1, 10));
    }
}
