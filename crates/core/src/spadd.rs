//! Balanced-path SpAdd (Section III-B).
//!
//! Addition of two sorted sparse matrices is a set union over (row,col)
//! tuples (Algorithm 1's tuple ordering = lexicographic order of the packed
//! 64-bit key). The matrices are expanded to COO keys, partitioned with
//! balanced path so that matched tuples never split across CTAs, and
//! reduced in two passes: count (to size C exactly) and fill. Work per CTA
//! is `nv ± 1` input entries — perfectly balanced irrespective of row
//! structure, which is why Figure 8 reports a correlation of 1.0 between
//! time and `|A| + |B|`.
//!
//! **Plan/execute split.** Key expansion, the balanced-path partition, the
//! count/fill walk and the output pattern depend only on the two sparsity
//! patterns — never on the values. [`SpAddPlan`] runs the whole pipeline
//! once with *provenance indices* in place of values (an index pair has the
//! same 8-byte footprint as an `f64`, so the charged cost is identical) and
//! records, for every output nonzero, which input entries feed it. Each
//! execute is then one flat pass over that source map.

use rayon::prelude::*;

use mps_merge::set_ops::{set_op_pairs, SetOp, SetOpStats};
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::{pack_key, CsrMatrix};

use crate::assemble;
use crate::config::SpAddConfig;
use crate::error::PlanError;

/// Result of a balanced-path SpAdd.
#[derive(Debug, Clone)]
pub struct SpAddResult {
    pub c: CsrMatrix,
    /// Cost of expanding CSR rows to COO keys.
    pub expand: LaunchStats,
    /// Cost of the balanced-path partition + count + fill passes.
    pub union: LaunchStats,
}

impl SpAddResult {
    /// Total simulated kernel time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.expand.sim_ms + self.union.sim_ms
    }
}

/// Expand a CSR matrix into packed (row,col) keys on the host, using the
/// same per-CTA tiles the device kernel is charged for: each chunk seeks
/// its starting row with one binary search, then walks the offsets.
fn expand_keys_host(m: &CsrMatrix, nv: usize) -> Vec<u64> {
    let nnz = m.nnz();
    if nnz == 0 {
        return Vec::new();
    }
    let chunks = nnz.div_ceil(nv);
    let parts: Vec<Vec<u64>> = (0..chunks)
        .into_par_iter()
        .map(|chunk| {
            let lo = chunk * nv;
            let hi = (lo + nv).min(nnz);
            // Row containing nonzero `lo`: last row whose offset is ≤ lo
            // (ties from empty rows resolve to the owning row).
            let mut r = m.row_offsets.partition_point(|&o| o <= lo) - 1;
            let mut keys = Vec::with_capacity(hi - lo);
            let mut i = lo;
            while i < hi {
                while m.row_offsets[r + 1] <= i {
                    r += 1;
                }
                let end = m.row_offsets[r + 1].min(hi);
                keys.extend(m.col_idx[i..end].iter().map(|&c| pack_key(r as u32, c)));
                i = end;
            }
            keys
        })
        .collect();
    let mut keys = Vec::with_capacity(nnz);
    for p in parts {
        keys.extend(p);
    }
    keys
}

/// Expand a CSR matrix into packed (row,col) keys, charging one pass.
/// Shared with [`crate::delta`], whose union side is an expanded matrix too.
pub(crate) fn expand_keys(device: &Device, m: &CsrMatrix, nv: usize) -> (Vec<u64>, LaunchStats) {
    let nnz = m.nnz();
    let num_ctas = nnz.div_ceil(nv).max(1);
    let keys = expand_keys_host(m, nv);
    let cfg = LaunchConfig::new(num_ctas, 128);
    let (_, stats) = launch_map_phased(device, "coo_expand", Phase::Expand, cfg, |cta| {
        let lo = cta.cta_id * nv;
        let hi = (lo + nv).min(nnz);
        cta.read_coalesced(hi - lo, 4);
        cta.alu((hi - lo) as u64);
        cta.write_coalesced(hi - lo, 8);
    });
    (keys, stats)
}

/// Sentinel marking "no contribution from this operand" in a source pair.
/// Shared with [`crate::delta`], which reuses the provenance-pair union.
pub(crate) const NONE: u32 = u32::MAX;

/// Precomputed SpAdd state for a fixed pair of sparsity patterns: the
/// output pattern, a per-output source map into the operands' value arrays,
/// and the cached simulated cost of every phase.
///
/// The build runs the exact pipeline `merge_spadd` used to run per call —
/// expansion launches, balanced-path partition, count and fill passes —
/// but carries `(a index, b index)` provenance pairs through the union
/// instead of values. A pair is 8 bytes, the same as an `f64`, so the
/// charged cost is identical to a numeric run. Each
/// [`SpAddPlan::execute_into`] is then a single flat loop: `a_only` entries
/// copy, `b_only` entries copy, matched entries add — in exactly the order
/// and with exactly the floating-point combination the fused kernel used.
#[derive(Debug, Clone)]
pub struct SpAddPlan {
    num_rows: usize,
    num_cols: usize,
    a_nnz: usize,
    b_nnz: usize,
    /// Output pattern.
    row_offsets: Vec<usize>,
    col_idx: Vec<u32>,
    /// Per-output (index into a.values, index into b.values); [`NONE`]
    /// marks an absent operand.
    src: Vec<(u32, u32)>,
    /// Cached cost of the two expansion launches.
    expand: LaunchStats,
    /// Cached per-phase cost of the partition + count + fill passes.
    union: SetOpStats,
}

impl SpAddPlan {
    /// Build the plan for `a + b`'s sparsity patterns, charging the full
    /// pipeline cost against `device` once.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn new(device: &Device, a: &CsrMatrix, b: &CsrMatrix, cfg: &SpAddConfig) -> SpAddPlan {
        Self::try_new(device, a, b, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`SpAddPlan::new`]: returns [`PlanError`] when the
    /// operand shapes differ or the configuration is invalid.
    pub fn try_new(
        device: &Device,
        a: &CsrMatrix,
        b: &CsrMatrix,
        cfg: &SpAddConfig,
    ) -> Result<SpAddPlan, PlanError> {
        if (a.num_rows, a.num_cols) != (b.num_rows, b.num_cols) {
            return Err(PlanError::ShapeMismatch {
                left: (a.num_rows, a.num_cols),
                right: (b.num_rows, b.num_cols),
            });
        }
        if cfg.nv <= 1 {
            return Err(PlanError::InvalidConfig(
                "SpAdd nv must exceed 1 (balanced tiles shift by one)",
            ));
        }

        let (a_keys, mut expand) = expand_keys(device, a, cfg.nv);
        let (b_keys, expand_b) = expand_keys(device, b, cfg.nv);
        expand.add(&expand_b);

        // Provenance pairs ride through the union where values normally
        // would; the combine records the matched pair.
        let a_src: Vec<(u32, u32)> = (0..a.nnz() as u32).map(|i| (i, NONE)).collect();
        let b_src: Vec<(u32, u32)> = (0..b.nnz() as u32).map(|j| (NONE, j)).collect();
        let (keys, src, union) = set_op_pairs(
            device,
            SetOp::Union,
            &a_keys,
            &a_src,
            &b_keys,
            &b_src,
            |x, y| (x.0, y.1),
            cfg.nv,
        );

        let offsets = assemble::row_offsets_from_sorted_keys(a.num_rows, &keys);
        let cols = assemble::cols_from_keys(&keys);
        Ok(SpAddPlan {
            num_rows: a.num_rows,
            num_cols: a.num_cols,
            a_nnz: a.nnz(),
            b_nnz: b.nnz(),
            row_offsets: offsets,
            col_idx: cols,
            src,
            expand,
            union,
        })
    }

    /// Number of nonzeros in the output pattern.
    pub fn output_nnz(&self) -> usize {
        self.src.len()
    }

    /// Simulated milliseconds charged at plan build (expand + union).
    pub fn build_sim_ms(&self) -> f64 {
        self.expand.sim_ms + self.union.sim_ms()
    }

    /// Cached cost of the two key-expansion launches.
    pub fn expand_stats(&self) -> &LaunchStats {
        &self.expand
    }

    /// Cached per-phase cost of the balanced-path union (partition, count,
    /// fill).
    pub fn union_stats(&self) -> &SetOpStats {
        &self.union
    }

    fn check_inputs(&self, a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(
            (a.num_rows, a.num_cols, a.nnz()),
            (self.num_rows, self.num_cols, self.a_nnz),
            "matrix A does not match the plan"
        );
        assert_eq!(
            (b.num_rows, b.num_cols, b.nnz()),
            (self.num_rows, self.num_cols, self.b_nnz),
            "matrix B does not match the plan"
        );
    }

    /// Steady-state execution: write the output values for `a + b` into a
    /// caller-owned buffer (the pattern lives in the plan). Performs no
    /// heap allocation once `values` has warmed to capacity.
    ///
    /// Returns the simulated milliseconds of the planned pipeline (from the
    /// cached stats — structure work is not re-simulated).
    ///
    /// # Panics
    /// Panics if either matrix does not match the planned patterns.
    pub fn execute_into(&self, a: &CsrMatrix, b: &CsrMatrix, values: &mut Vec<f64>) -> f64 {
        self.check_inputs(a, b);
        values.clear();
        values.reserve(self.src.len());
        for &(i, j) in &self.src {
            let v = if j == NONE {
                a.values[i as usize]
            } else if i == NONE {
                b.values[j as usize]
            } else {
                a.values[i as usize] + b.values[j as usize]
            };
            values.push(v);
        }
        self.build_sim_ms()
    }

    /// Run the planned addition, assembling a full [`SpAddResult`] (clones
    /// the cached pattern and stats). `device` is unused beyond API
    /// symmetry — the cost was charged at plan build.
    pub fn execute(&self, _device: &Device, a: &CsrMatrix, b: &CsrMatrix) -> SpAddResult {
        let mut values = Vec::new();
        self.execute_into(a, b, &mut values);
        SpAddResult {
            c: CsrMatrix {
                num_rows: self.num_rows,
                num_cols: self.num_cols,
                row_offsets: self.row_offsets.clone(),
                col_idx: self.col_idx.clone(),
                values,
            },
            expand: self.expand.clone(),
            union: self.union.combined(),
        }
    }
}

/// C = A + B via balanced-path set union.
///
/// # Panics
/// Panics if the shapes differ.
pub fn merge_spadd(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &SpAddConfig,
) -> SpAddResult {
    SpAddPlan::new(device, a, b, cfg).execute(device, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::dense::{from_dense, to_dense};
    use mps_sparse::gen;
    use mps_sparse::ops::spadd_ref;
    use proptest::prelude::*;

    fn dev() -> Device {
        Device::titan()
    }

    fn cfg() -> SpAddConfig {
        SpAddConfig::default()
    }

    #[test]
    fn a_plus_a_doubles_values() {
        let a = gen::stencil_5pt(10, 10);
        let r = merge_spadd(&dev(), &a, &a, &cfg());
        assert_eq!(r.c.nnz(), a.nnz());
        for (x, y) in r.c.values.iter().zip(&a.values) {
            assert_eq!(*x, 2.0 * y);
        }
        r.c.validate().expect("well-formed");
    }

    #[test]
    fn disjoint_patterns_concatenate() {
        let a = from_dense(&[vec![1.0, 0.0], vec![0.0, 0.0]]);
        let b = from_dense(&[vec![0.0, 2.0], vec![3.0, 0.0]]);
        let r = merge_spadd(&dev(), &a, &b, &cfg());
        assert_eq!(to_dense(&r.c), vec![vec![1.0, 2.0], vec![3.0, 0.0]]);
    }

    #[test]
    fn empty_plus_empty() {
        let a = CsrMatrix::zeros(4, 7);
        let r = merge_spadd(&dev(), &a, &a, &cfg());
        assert_eq!(r.c.nnz(), 0);
        assert_eq!(r.c.num_cols, 7);
    }

    #[test]
    fn matches_reference_on_suite_families() {
        for (a, b) in [
            (
                gen::banded(200, 12.0, 4.0, 40, 1),
                gen::banded(200, 8.0, 3.0, 30, 2),
            ),
            (
                gen::power_law(300, 300, 1, 1.5, 100, 3),
                gen::random_uniform(300, 300, 4.0, 2.0, 4),
            ),
        ] {
            let r = merge_spadd(&dev(), &a, &b, &cfg());
            assert_eq!(r.c, spadd_ref(&a, &b));
        }
    }

    #[test]
    fn small_tiles_still_correct() {
        let a = gen::random_uniform(50, 50, 5.0, 3.0, 7);
        let b = gen::random_uniform(50, 50, 5.0, 3.0, 8);
        let tiny = SpAddConfig {
            block_threads: 32,
            nv: 2,
        };
        let r = merge_spadd(&dev(), &a, &b, &tiny);
        assert_eq!(r.c, spadd_ref(&a, &b));
    }

    #[test]
    fn cost_tracks_total_nonzeros() {
        let small = gen::random_uniform(2000, 2000, 4.0, 2.0, 9);
        let big = gen::random_uniform(20_000, 20_000, 4.0, 2.0, 10);
        let rs = merge_spadd(&dev(), &small, &small, &cfg());
        let rb = merge_spadd(&dev(), &big, &big, &cfg());
        assert!(rb.sim_ms() > rs.sim_ms());
    }

    #[test]
    fn plan_reuse_with_new_values_matches_one_shot() {
        let a = gen::random_uniform(200, 200, 5.0, 3.0, 21);
        let b = gen::random_uniform(200, 200, 5.0, 3.0, 22);
        let plan = SpAddPlan::new(&dev(), &a, &b, &cfg());

        let planned = plan.execute(&dev(), &a, &b);
        let one_shot = merge_spadd(&dev(), &a, &b, &cfg());
        assert_eq!(planned.c, one_shot.c, "same values: byte-identical output");
        assert_eq!(
            planned.sim_ms(),
            one_shot.sim_ms(),
            "provenance run must cost the same"
        );

        // Same patterns, different values: the plan still applies.
        let mut a2 = a.clone();
        for v in &mut a2.values {
            *v *= -3.0;
        }
        let planned2 = plan.execute(&dev(), &a2, &b);
        assert_eq!(planned2.c, spadd_ref(&a2, &b));
    }

    #[test]
    fn execute_into_reuses_buffer_without_reallocating() {
        let a = gen::random_uniform(100, 100, 5.0, 3.0, 31);
        let b = gen::random_uniform(100, 100, 5.0, 3.0, 32);
        let plan = SpAddPlan::new(&dev(), &a, &b, &cfg());
        let mut values = Vec::new();
        plan.execute_into(&a, &b, &mut values);
        assert_eq!(values.len(), plan.output_nnz());
        let cap = values.capacity();
        let ptr = values.as_ptr();
        plan.execute_into(&a, &b, &mut values);
        assert_eq!(values.capacity(), cap);
        assert_eq!(values.as_ptr(), ptr, "warm buffer must be reused in place");
        assert_eq!(values, spadd_ref(&a, &b).values);
    }

    #[test]
    #[should_panic(expected = "identical shape")]
    fn shape_mismatch_panics() {
        merge_spadd(
            &dev(),
            &CsrMatrix::zeros(2, 2),
            &CsrMatrix::zeros(2, 3),
            &cfg(),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_pairs_match_reference(
            rows in 1usize..60,
            cols in 1usize..60,
            s1 in 0u64..500,
            s2 in 500u64..1000,
            nv in 2usize..512,
        ) {
            let a = gen::random_uniform(rows, cols, 4.0, 3.0, s1);
            let b = gen::random_uniform(rows, cols, 4.0, 3.0, s2);
            let c = SpAddConfig { block_threads: 64, nv };
            let r = merge_spadd(&dev(), &a, &b, &c);
            prop_assert_eq!(r.c, spadd_ref(&a, &b));
        }
    }
}
