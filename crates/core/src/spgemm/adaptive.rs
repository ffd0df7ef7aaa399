//! Adaptive segmented/unsegmented SpGEMM — the paper's future work.
//!
//! The conclusion of the paper: *"we plan to address the deficiencies of
//! sort based SpGEMM methods by adaptively introducing segmented
//! approaches when necessary. Detecting specific cases like the Dense
//! matrix is relatively simple but would also require a more detailed
//! model to accurately predict the trade-off…"*.
//!
//! This module implements that plan:
//!
//! * [`segmented_spgemm`] — a row-wise (segmented) pipeline: each output
//!   row accumulates its products in an on-chip table and sorts only its
//!   own column set, never materializing the global intermediate matrix.
//!   On inputs like Dense — almost no duplicate (row,col) pairs per CTA —
//!   this removes the flat pipeline's pathological global sort.
//! * [`AdaptivePolicy`] — the detection model: a cheap sampled estimate of
//!   the duplicate compression ratio plus the mean products per row
//!   decides which pipeline wins.
//! * [`adaptive_spgemm`] — dispatches and reports the decision.

use mps_simt::block::radix_sort::block_radix_sort_keys;
use mps_simt::grid::{launch_map_named, LaunchConfig};
use mps_simt::Device;
use mps_sparse::CsrMatrix;

use super::bins::BinSummary;
use super::block_sort::bits_for;
use super::{merge_spgemm, PhaseTimes, SpgemmResult};
use crate::config::SpgemmConfig;

/// Which pipeline the adaptive dispatcher chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineChoice {
    /// The flat two-level merge-path pipeline (Section III-C).
    FlatMerge,
    /// The row-wise segmented pipeline.
    Segmented,
}

/// Decision thresholds for the adaptive dispatcher.
///
/// The flat pipeline's CTA-local reduction only finds duplicates that land
/// in the same `nv`-product tile. A tile covers `nv / avg|B_row|`
/// expansions, so once the average referenced B row approaches the tile
/// size there is nothing to reduce locally and the global sort carries the
/// full product volume — the Dense pathology. That ratio is what the
/// detector keys on, exactly the "relatively simple" detection the paper's
/// conclusion sketches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Rows sampled for the estimate.
    pub sample_rows: usize,
    /// Segment once the mean expansion per A nonzero exceeds this fraction
    /// of the CTA tile (local dedup opportunity gone).
    pub expansion_tile_fraction: f64,
    /// Minimum mean products per output row for the segmented pipeline to
    /// amortize its per-row setup.
    pub min_products_per_row: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            sample_rows: 32,
            expansion_tile_fraction: 0.25,
            min_products_per_row: 256.0,
        }
    }
}

impl AdaptivePolicy {
    /// Sample rows of `a`, estimate the mean expansion per nonzero and the
    /// mean products per row, and return the pipeline choice for a tile of
    /// `nv` products.
    pub fn choose(&self, a: &CsrMatrix, b: &CsrMatrix, nv: usize) -> PipelineChoice {
        let rows = a.num_rows;
        if rows == 0 {
            return PipelineChoice::FlatMerge;
        }
        let step = (rows / self.sample_rows.max(1)).max(1);
        let mut sampled_products = 0usize;
        let mut sampled_nnz = 0usize;
        let mut sampled_rows = 0usize;
        for r in (0..rows).step_by(step).take(self.sample_rows) {
            for &k in a.row_cols(r) {
                sampled_products += b.row_len(k as usize);
            }
            sampled_nnz += a.row_len(r);
            sampled_rows += 1;
        }
        if sampled_rows == 0 || sampled_nnz == 0 {
            return PipelineChoice::FlatMerge;
        }
        let avg_expansion = sampled_products as f64 / sampled_nnz as f64;
        let per_row = sampled_products as f64 / sampled_rows as f64;
        if avg_expansion > self.expansion_tile_fraction * nv as f64
            && per_row > self.min_products_per_row
        {
            PipelineChoice::Segmented
        } else {
            PipelineChoice::FlatMerge
        }
    }
}

/// Row-wise segmented SpGEMM: one CTA per output row; the row's products
/// accumulate into an on-chip table (charged as shared-memory traffic up
/// to the table capacity, spilling to scattered global traffic beyond it)
/// and only the row's unique columns are sorted.
pub fn segmented_spgemm(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &SpgemmConfig,
) -> SpgemmResult {
    assert_eq!(a.num_cols, b.num_rows, "inner dimensions must agree");
    let rows = a.num_rows;
    let col_bits = bits_for(b.num_cols);
    // On-chip accumulator capacity: one (col, value) slot per shared-memory
    // entry pair available to the CTA.
    let capacity = device.props.shared_mem_per_sm / device.props.max_ctas_per_sm / 12;

    let (tiles, stats) = launch_map_named(
        device,
        "spgemm_segmented",
        LaunchConfig::new(rows.max(1), cfg.block_threads),
        |cta| {
            let r = cta.cta_id;
            if r >= rows {
                return (Vec::new(), Vec::new(), 0u64);
            }
            let mut products = 0usize;
            for &k in a.row_cols(r) {
                products += b.row_len(k as usize);
            }
            cta.read_coalesced(a.row_len(r), 12);
            cta.gather_range(0..products, 12);
            cta.alu(2 * products as u64);

            // Accumulate (semantics: dense-marker per row; cost: table traffic).
            let mut acc: Vec<(u32, f64)> = Vec::new();
            let mut marker: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for (k, av) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                for (c, bv) in b.row_cols(*k as usize).iter().zip(b.row_vals(*k as usize)) {
                    match marker.get(c) {
                        Some(&slot) => acc[slot].1 += av * bv,
                        None => {
                            marker.insert(*c, acc.len());
                            acc.push((*c, av * bv));
                        }
                    }
                }
            }
            if acc.len() <= capacity {
                cta.shmem(3 * products as u64);
            } else {
                // Accumulator spills: table traffic becomes scattered DRAM.
                cta.scatter((0..products).map(|p| (p * 2654435761) % (1 << 22)), 12);
            }

            // Sort the row's unique columns with a single block radix sort over
            // the meaningful column bits only.
            let mut keys: Vec<u32> = acc.iter().map(|&(c, _)| c).collect();
            block_radix_sort_keys(cta, &mut keys, 0, col_bits);
            acc.sort_unstable_by_key(|&(c, _)| c);

            cta.write_coalesced(acc.len(), 12);
            let (cols, vals): (Vec<u32>, Vec<f64>) = acc.into_iter().unzip();
            (cols, vals, products as u64)
        },
    );

    let mut row_offsets = vec![0usize; rows + 1];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    let mut products = 0u64;
    // The grid is clamped to one CTA even for a 0-row A, so the launch can
    // hand back more tiles than output rows; only the first `rows` carry
    // row data (the rest are the empty placeholders CTAs beyond `rows`
    // return).
    for (r, (cols, vals, p)) in tiles.into_iter().enumerate().take(rows) {
        row_offsets[r + 1] = row_offsets[r] + cols.len();
        col_idx.extend(cols);
        values.extend(vals);
        products += p;
    }
    let phases = PhaseTimes {
        // The segmented pipeline is one fused kernel; report it under
        // Block Sort (the on-chip phase) for breakdown purposes.
        block_sort: stats.sim_ms,
        ..PhaseTimes::default()
    };
    SpgemmResult {
        c: CsrMatrix {
            num_rows: rows,
            num_cols: b.num_cols,
            row_offsets,
            col_idx,
            values,
        },
        products,
        phases,
        bins: BinSummary::default(),
        stats,
    }
}

/// Adaptive SpGEMM: chooses between the flat merge pipeline and the
/// segmented row-wise pipeline using [`AdaptivePolicy`].
pub fn adaptive_spgemm(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &SpgemmConfig,
    policy: &AdaptivePolicy,
) -> (SpgemmResult, PipelineChoice) {
    match policy.choose(a, b, cfg.nv()) {
        PipelineChoice::Segmented => (
            segmented_spgemm(device, a, b, cfg),
            PipelineChoice::Segmented,
        ),
        PipelineChoice::FlatMerge => (merge_spgemm(device, a, b, cfg), PipelineChoice::FlatMerge),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::dense::to_dense;
    use mps_sparse::gen;
    use mps_sparse::ops::spgemm_ref;

    fn dev() -> Device {
        Device::titan()
    }

    fn cfg() -> SpgemmConfig {
        SpgemmConfig::default()
    }

    #[test]
    fn segmented_matches_reference() {
        for a in [
            gen::dense(40, 40),
            gen::random_uniform(120, 120, 6.0, 3.0, 1),
            gen::power_law(150, 150, 1, 1.5, 100, 2),
        ] {
            let got = segmented_spgemm(&dev(), &a, &a, &cfg());
            assert!(got.c.approx_eq(&spgemm_ref(&a, &a), 1e-12));
        }
    }

    #[test]
    fn segmented_rectangular() {
        let a = gen::random_uniform(30, 50, 5.0, 2.0, 3);
        let b = gen::random_uniform(50, 20, 4.0, 2.0, 4);
        let got = segmented_spgemm(&dev(), &a, &b, &cfg());
        assert_eq!(to_dense(&got.c), to_dense(&spgemm_ref(&a, &b)));
    }

    #[test]
    fn segmented_handles_zero_row_operands() {
        use mps_sparse::CsrMatrix;
        for (m, k, n) in [(0, 0, 0), (0, 5, 3), (4, 5, 0)] {
            let a = CsrMatrix::zeros(m, k);
            let b = CsrMatrix::zeros(k, n);
            let got = segmented_spgemm(&dev(), &a, &b, &cfg());
            got.c
                .validate()
                .unwrap_or_else(|e| panic!("{m}x{k}·{k}x{n}: {e}"));
            assert_eq!(to_dense(&got.c), to_dense(&spgemm_ref(&a, &b)));
        }
    }

    #[test]
    fn policy_picks_segmented_for_wide_dense() {
        // Dense 600×600: each expansion is a 600-entry B row — far beyond
        // a quarter of the 1408-product tile, so no local dedup is
        // possible and the detector must segment.
        let a = gen::dense(600, 600);
        let choice = AdaptivePolicy::default().choose(&a, &a, cfg().nv());
        assert_eq!(choice, PipelineChoice::Segmented);
    }

    #[test]
    fn policy_picks_flat_for_sparse_irregular() {
        let a = gen::power_law(2000, 2000, 1, 1.5, 800, 5);
        let choice = AdaptivePolicy::default().choose(&a, &a, cfg().nv());
        assert_eq!(choice, PipelineChoice::FlatMerge);
    }

    #[test]
    fn segmented_beats_flat_when_expansions_exceed_tiles() {
        // B rows of ~700 entries dwarf the 1408-product tile: the flat
        // pipeline's block sort reduces almost nothing and its global sort
        // carries nearly every product; the segmented pipeline keeps each
        // row on chip.
        let a = gen::dense(192, 192);
        let seg = segmented_spgemm(&dev(), &a, &a, &cfg());
        let flat = merge_spgemm(&dev(), &a, &a, &cfg());
        assert!(seg.c.approx_eq(&flat.c, 1e-12));
        assert!(
            seg.sim_ms() < flat.sim_ms(),
            "segmented {} should beat flat {}",
            seg.sim_ms(),
            flat.sim_ms()
        );
    }

    #[test]
    fn adaptive_result_is_correct_either_way() {
        let policy = AdaptivePolicy::default();
        for a in [
            gen::dense(64, 64),
            gen::random_uniform(200, 200, 5.0, 3.0, 6),
        ] {
            let (r, _) = adaptive_spgemm(&dev(), &a, &a, &cfg(), &policy);
            assert!(r.c.approx_eq(&spgemm_ref(&a, &a), 1e-12));
        }
    }

    #[test]
    fn empty_inputs_choose_flat_and_return_empty() {
        let z = CsrMatrix::zeros(4, 4);
        let (r, choice) = adaptive_spgemm(&dev(), &z, &z, &cfg(), &AdaptivePolicy::default());
        assert_eq!(choice, PipelineChoice::FlatMerge);
        assert_eq!(r.c.nnz(), 0);
    }
}
