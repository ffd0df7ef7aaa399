//! Merge-path SpGEMM (Section III-C).
//!
//! C = A·B decomposed flatly over the intermediate *products* rather than
//! rows: every CTA expands and locally reduces exactly `nv` products,
//! irrespective of how the input rows distribute them. The pipeline
//! (Figure 3) splits into a **symbolic** half, a pure function of the two
//! sparsity patterns:
//!
//! 1. **Setup** — segmented prefix sum `S` of per-A-nonzero product counts;
//! 2. **Block Sort** — per-CTA expansion + single-pass column radix sort +
//!    local duplicate reduction (values never formed);
//! 3. **Global Sort** — permutation-only two-pass radix sort of the
//!    reduced (row,col) pairs, then CSR assembly of C's pattern;
//!
//! and a **numeric** half that forms and reduces the actual values. The
//! numeric half is bin-adaptive ([`bins`]): rows are classed by their
//! intermediate-product count, tiny rows scatter through a dense
//! shared-memory accumulator, mid rows reduce through a hash table sized
//! from the symbolic counts ([`hash`]), and only heavy rows pay the
//! paper's original two-pass Product Compute / Product Reduce machinery.
//! [`SpgemmPlan`] caches the symbolic half so repeated-pattern multiplies
//! re-run the numeric half alone.

pub mod bins;
pub mod block_sort;
pub mod hash;
pub mod plan;
pub mod product;
pub mod setup;

use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase, PhaseLedger};
use mps_sparse::CsrMatrix;

use crate::config::SpgemmConfig;
pub use bins::{BinClass, BinSummary, RowBins};
pub use hash::HashAccumulator;
pub use plan::SpgemmPlan;

/// The pipeline's phases in Figure 11's legend order, with the
/// bin-adaptive numeric passes slotted between the sorts and the
/// heavy-bin pair: the columns of the Fig. 11 breakdown. The symbolic
/// phases are Setup, Block Sort, Global Sort and Other; the other four
/// are the numeric pass.
pub const FIG11_PHASES: [Phase; 8] = [
    Phase::Setup,
    Phase::BlockSort,
    Phase::GlobalSort,
    Phase::NumericTiny,
    Phase::NumericMid,
    Phase::ProductCompute,
    Phase::ProductReduce,
    Phase::Other,
];

/// Result of a merge SpGEMM.
#[derive(Debug, Clone)]
pub struct SpgemmResult {
    pub c: CsrMatrix,
    /// Intermediate products expanded (the paper's work measure).
    pub products: u64,
    /// Per-phase simulated time: the Figure 11 breakdown (Setup, Block
    /// Sort, Global Sort, Other) plus the bin-adaptive numeric passes
    /// (Tiny Scatter, Mid Hash, and the heavy bin's Product Compute /
    /// Product Reduce).
    pub phases: PhaseLedger,
    /// Bin occupancy of the numeric pass (rows/products per class).
    /// Default (all zeros) for pipelines that do not bin.
    pub bins: BinSummary,
    /// Aggregated launch statistics over all phases.
    pub stats: LaunchStats,
    /// The symbolic half's time plus one numeric pass's
    /// ([`SpgemmPlan::symbolic_ms`] + [`SpgemmPlan::numeric_ms`]).
    sim_ms: f64,
}

impl SpgemmResult {
    /// Total simulated kernel time in milliseconds: the symbolic half
    /// plus one numeric pass. It equals `phases.total_ms()` to 1e-9; the
    /// ledger adds the same phases in another order.
    pub fn sim_ms(&self) -> f64 {
        self.sim_ms
    }

    /// Achieved GFLOP/s under simulated time, counting the paper's
    /// 2·products flops (a multiply and an add per intermediate product).
    ///
    /// Empty inputs (zero products, zero phase-total time) report 0.0
    /// rather than NaN/inf.
    pub fn gflops(&self) -> f64 {
        if self.sim_ms <= 0.0 {
            return 0.0;
        }
        2.0 * self.products as f64 / (self.sim_ms * 1e-3) / 1e9
    }
}

/// C = A·B with the two-level merge-path decomposition.
///
/// One-shot convenience over [`SpgemmPlan`]: builds the plan (charging the
/// full five-phase pipeline) and executes it once.
///
/// # Panics
/// Panics if `a.num_cols != b.num_rows`.
pub fn merge_spgemm(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &SpgemmConfig,
) -> SpgemmResult {
    SpgemmPlan::new(device, a, b, cfg).execute(device, a, b)
}

/// Charge the CSR-assembly kernel (allocation + row-offset count pass) for
/// an output of `n` nonzeros. The host-side pattern build itself is the
/// parallel [`crate::assemble`] pass.
pub(crate) fn charge_assemble(device: &Device, n: usize) -> LaunchStats {
    let nv = 4096;
    let (_, stats) = launch_map_phased(
        device,
        "csr_assemble",
        Phase::Other,
        LaunchConfig::new(n.div_ceil(nv).max(1), 128),
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(n);
            cta.read_coalesced(hi - lo, 8);
            cta.alu((hi - lo) as u64);
            cta.write_coalesced(hi - lo, 4);
        },
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::dense::to_dense;
    use mps_sparse::ops::{spgemm_products, spgemm_ref};
    use mps_sparse::{gen, CooMatrix};
    use proptest::prelude::*;

    fn dev() -> Device {
        Device::titan()
    }

    fn paper_ab() -> (CsrMatrix, CsrMatrix) {
        let a = CooMatrix::from_triplets(
            4,
            4,
            [
                (0, 0, 10.0),
                (1, 1, 20.0),
                (1, 2, 30.0),
                (1, 3, 40.0),
                (2, 3, 50.0),
                (3, 1, 60.0),
            ],
        )
        .to_csr();
        let b = CooMatrix::from_triplets(
            4,
            4,
            [
                (0, 0, 1.0),
                (1, 1, 2.0),
                (1, 3, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (3, 1, 6.0),
                (3, 3, 7.0),
            ],
        )
        .to_csr();
        (a, b)
    }

    #[test]
    fn paper_worked_example() {
        let (a, b) = paper_ab();
        let r = merge_spgemm(&dev(), &a, &b, &SpgemmConfig::default());
        assert_eq!(r.products, 11);
        let expected = vec![
            vec![10.0, 0.0, 0.0, 0.0],
            vec![120.0, 430.0, 0.0, 340.0],
            vec![0.0, 300.0, 0.0, 350.0],
            vec![0.0, 120.0, 0.0, 180.0],
        ];
        assert_eq!(to_dense(&r.c), expected);
        r.c.validate().expect("well-formed product");
    }

    #[test]
    fn tiny_tiles_split_rows_across_ctas() {
        // Force many CTAs so that single output rows span several tiles
        // and cross-tile duplicates exercise the global reduce.
        let (a, b) = paper_ab();
        let cfg = SpgemmConfig {
            block_threads: 1,
            items_per_thread: 2,
            global_sort_nv: 3,
            ..SpgemmConfig::default()
        };
        let r = merge_spgemm(&dev(), &a, &b, &cfg);
        assert!(r.c.approx_eq(&spgemm_ref(&a, &b), 1e-12));
    }

    #[test]
    fn identity_product() {
        let a = gen::random_uniform(40, 40, 5.0, 2.0, 3);
        let i = CsrMatrix::identity(40);
        let r = merge_spgemm(&dev(), &a, &i, &SpgemmConfig::default());
        assert_eq!(r.c, a);
        let r = merge_spgemm(&dev(), &i, &a, &SpgemmConfig::default());
        assert_eq!(r.c, a);
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let a = CsrMatrix::zeros(5, 4);
        let b = CsrMatrix::zeros(4, 6);
        let r = merge_spgemm(&dev(), &a, &b, &SpgemmConfig::default());
        assert_eq!(r.c.nnz(), 0);
        assert_eq!((r.c.num_rows, r.c.num_cols), (5, 6));
        assert_eq!(r.products, 0);
    }

    #[test]
    fn empty_input_gflops_is_zero_not_nan() {
        // Regression: with zero products the phase-total time is 0.0 and a
        // naive rate divides 0/0.
        let a = CsrMatrix::zeros(5, 4);
        let b = CsrMatrix::zeros(4, 6);
        let r = merge_spgemm(&dev(), &a, &b, &SpgemmConfig::default());
        assert_eq!(r.products, 0);
        assert_eq!(r.gflops(), 0.0);
        assert!(r.gflops().is_finite());
        // The other degenerate corner: no charged time at all.
        let zeroed = SpgemmResult {
            c: CsrMatrix::zeros(1, 1),
            products: 0,
            phases: PhaseLedger::new(),
            bins: BinSummary::default(),
            stats: LaunchStats::default(),
            sim_ms: 0.0,
        };
        assert_eq!(zeroed.gflops(), 0.0);
        assert!(zeroed.gflops().is_finite());
    }

    #[test]
    fn gflops_positive_for_nontrivial_product() {
        let a = gen::random_uniform(100, 100, 5.0, 2.0, 19);
        let r = merge_spgemm(&dev(), &a, &a, &SpgemmConfig::default());
        assert!(r.gflops() > 0.0);
    }

    #[test]
    fn rectangular_product() {
        let a = gen::random_uniform(30, 50, 6.0, 3.0, 5);
        let b = gen::random_uniform(50, 20, 4.0, 2.0, 6);
        let r = merge_spgemm(&dev(), &a, &b, &SpgemmConfig::default());
        assert!(r.c.approx_eq(&spgemm_ref(&a, &b), 1e-12));
        assert_eq!(r.products, spgemm_products(&a, &b));
    }

    #[test]
    fn a_times_a_transpose_lp_shape() {
        let a = gen::lp_like(20, 500, 30.0, 40.0, 7);
        let at = a.transpose();
        let r = merge_spgemm(&dev(), &a, &at, &SpgemmConfig::default());
        assert!(r.c.approx_eq(&spgemm_ref(&a, &at), 1e-12));
    }

    #[test]
    fn phase_ledger_covers_total() {
        let a = gen::random_uniform(200, 200, 8.0, 4.0, 8);
        let r = merge_spgemm(&dev(), &a, &a, &SpgemmConfig::default());
        let p = &r.phases;
        assert!(r.sim_ms() > 0.0);
        assert!((p.total_ms() - r.sim_ms()).abs() < 1e-9);
        let frac_sum: f64 = p.fractions().iter().map(|(_, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
        assert!(p.phase_ms(Phase::BlockSort) > 0.0 && p.phase_ms(Phase::GlobalSort) > 0.0);
        let numeric = [
            Phase::NumericTiny,
            Phase::NumericMid,
            Phase::ProductCompute,
            Phase::ProductReduce,
        ];
        assert!(
            numeric.iter().any(|&ph| p.phase_ms(ph) > 0.0),
            "numeric pass must be charged"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_products_match_reference(
            m in 1usize..40,
            k in 1usize..40,
            n in 1usize..40,
            s1 in 0u64..100,
            s2 in 100u64..200,
            items in 1usize..4,
        ) {
            let a = gen::random_uniform(m, k, 3.0, 2.0, s1);
            let b = gen::random_uniform(k, n, 3.0, 2.0, s2);
            let cfg = SpgemmConfig {
                block_threads: 16,
                items_per_thread: items,
                global_sort_nv: 64,
                ..SpgemmConfig::default()
            };
            let r = merge_spgemm(&dev(), &a, &b, &cfg);
            prop_assert!(r.c.approx_eq(&spgemm_ref(&a, &b), 1e-12));
        }
    }
}
