//! A cuSPARSE-like closed-source comparator, simulated.
//!
//! The paper compares against cuSPARSE as an opaque package. Its observed
//! behaviour across the figures is that of a well-tuned *row-structured*
//! (segmentation-aware) library: excellent on regular matrices (Dense,
//! Protein, Wind), degraded on power-law and short-wide inputs (Webbase,
//! LP), and — for SpGEMM — runtime essentially uncorrelated with the flat
//! product count (ρ = −0.02 in Figure 10b). This module implements exactly
//! that class of algorithm:
//!
//! * SpMV: vectorized CSR with an *adaptive* threads-per-row choice driven
//!   by the matrix's average row length;
//! * SpAdd: row-pair merge, one warp per output row;
//! * SpGEMM: row-wise hash-table accumulation with a shared-memory table
//!   and a slow global-memory fallback for rows whose intermediate
//!   products overflow it.

use mps_simt::grid::{launch_map_named, LaunchConfig, LaunchStats};
use mps_simt::Device;
use mps_sparse::CsrMatrix;

/// Threads assigned per row by the adaptive SpMV heuristic.
fn threads_per_row(avg_row: f64, warp: usize) -> usize {
    let mut t = 2usize;
    while (t as f64) < avg_row && t < warp {
        t *= 2;
    }
    t
}

/// Adaptive vectorized CSR SpMV (the Cusparse bars of Figure 5).
pub fn spmv(device: &Device, a: &CsrMatrix, x: &[f64]) -> (Vec<f64>, LaunchStats) {
    assert_eq!(x.len(), a.num_cols, "x length must equal num_cols");
    let rows = a.num_rows;
    let warp = device.props.warp_size;
    let avg = if rows == 0 {
        0.0
    } else {
        a.nnz() as f64 / rows as f64
    };
    let tpr = threads_per_row(avg, warp);
    let threads = 128;
    let rows_per_cta = threads / tpr;
    let num_ctas = rows.div_ceil(rows_per_cta).max(1);
    let (tiles, stats) = launch_map_named(
        device,
        "cusparse_spmv",
        LaunchConfig::new(num_ctas, threads),
        |cta| {
            let row_lo = cta.cta_id * rows_per_cta;
            let row_hi = (row_lo + rows_per_cta).min(rows);
            let mut y = Vec::with_capacity(row_hi - row_lo);
            for r in row_lo..row_hi {
                let len = a.row_len(r);
                cta.read_coalesced(len, 12);
                cta.gather(a.row_cols(r).iter().map(|&c| c as usize), 8);
                // Each SIMD step engages tpr lanes; the thread group reduces
                // partials in log2(tpr) steps.
                let steps = len.div_ceil(tpr).max(1) as u64;
                cta.alu(steps * tpr as u64 * 2 + tpr.ilog2().max(1) as u64 * tpr as u64);
                let mut acc = 0.0;
                for (c, v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                    acc += v * x[*c as usize];
                }
                y.push(acc);
            }
            cta.write_coalesced(row_hi - row_lo, 8);
            y
        },
    );
    let mut y = Vec::with_capacity(rows);
    for t in tiles {
        y.extend(t);
    }
    (y, stats)
}

/// Row-merge SpAdd in CSR, one warp per output row (the Cusparse bars of
/// Figure 7; cuSPARSE's `csrgeam` operates directly on CSR).
pub fn spadd(device: &Device, a: &CsrMatrix, b: &CsrMatrix) -> (CsrMatrix, LaunchStats) {
    assert_eq!(
        (a.num_rows, a.num_cols),
        (b.num_rows, b.num_cols),
        "SpAdd operands must have identical shape"
    );
    let rows = a.num_rows;
    let warp = device.props.warp_size;
    let rows_per_cta = (128 / warp).max(1);
    let num_ctas = rows.div_ceil(rows_per_cta).max(1);
    let (tiles, stats) = launch_map_named(
        device,
        "cusparse_spadd",
        LaunchConfig::new(num_ctas, 128),
        |cta| {
            let row_lo = cta.cta_id * rows_per_cta;
            let row_hi = (row_lo + rows_per_cta).min(rows);
            let mut out: Vec<(u32, f64)> = Vec::new();
            let mut lens = Vec::with_capacity(row_hi - row_lo);
            for r in row_lo..row_hi {
                let (ac, av) = (a.row_cols(r), a.row_vals(r));
                let (bc, bv) = (b.row_cols(r), b.row_vals(r));
                cta.read_coalesced(ac.len() + bc.len(), 12);
                cta.alu(3 * (ac.len() + bc.len()) as u64);
                let before = out.len();
                let (mut i, mut j) = (0, 0);
                while i < ac.len() || j < bc.len() {
                    if j >= bc.len() || (i < ac.len() && ac[i] < bc[j]) {
                        out.push((ac[i], av[i]));
                        i += 1;
                    } else if i >= ac.len() || bc[j] < ac[i] {
                        out.push((bc[j], bv[j]));
                        j += 1;
                    } else {
                        out.push((ac[i], av[i] + bv[j]));
                        i += 1;
                        j += 1;
                    }
                }
                lens.push(out.len() - before);
                cta.write_coalesced(out.len() - before, 12);
            }
            (lens, out)
        },
    );
    let mut row_offsets = vec![0usize; rows + 1];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    let mut r = 0usize;
    for (lens, out) in tiles {
        for len in lens {
            row_offsets[r + 1] = row_offsets[r] + len;
            r += 1;
        }
        for (c, v) in out {
            col_idx.push(c);
            values.push(v);
        }
    }
    (
        CsrMatrix {
            num_rows: rows,
            num_cols: a.num_cols,
            row_offsets,
            col_idx,
            values,
        },
        stats,
    )
}

/// Hash-table capacity (entries) assumed available in shared memory.
const SHARED_HASH_CAPACITY: usize = 2048;
/// Cost multiplier for rows that spill the hash table to global memory.
const GLOBAL_FALLBACK_PENALTY: u64 = 24;
/// Fixed per-row thread-ops for the multi-kernel row pipeline (size
/// analysis, bin assignment, hash-table initialization). Row-structured
/// libraries pay this regardless of how little work the row holds — the
/// reason their runtime decouples from the flat product count on suites
/// with many small rows (Figure 10b).
const ROW_SETUP_THREAD_OPS: u64 = 150_000;

/// Row-wise hash-based SpGEMM (the Cusparse bars of Figure 9).
///
/// Each output row accumulates its products in a hash table: shared memory
/// when the row's intermediate product count fits, a global-memory table
/// at `GLOBAL_FALLBACK_PENALTY` times the cost otherwise. Runtime is
/// governed by per-row product counts and the hash traffic, not the flat
/// total — which is why its Figure 10 correlation with products collapses
/// on skewed suites.
pub fn spgemm(device: &Device, a: &CsrMatrix, b: &CsrMatrix) -> (CsrMatrix, LaunchStats) {
    assert_eq!(a.num_cols, b.num_rows, "inner dimensions must agree");
    let rows = a.num_rows;
    let num_ctas = rows.max(1); // one CTA per output row
    let (tiles, stats) = launch_map_named(
        device,
        "cusparse_spgemm_row",
        LaunchConfig::new(num_ctas, 128),
        |cta| {
            let r = cta.cta_id;
            if r >= rows {
                return (Vec::new(), Vec::new());
            }
            // Row products: every referenced B row streams through the table.
            let mut products = 0usize;
            for &k in a.row_cols(r) {
                products += b.row_len(k as usize);
            }
            cta.read_coalesced(a.row_len(r), 12);
            cta.alu(ROW_SETUP_THREAD_OPS);
            let spills = products > SHARED_HASH_CAPACITY;
            let per_insert_alu = 6u64;
            if spills {
                // Global-memory hash: every probe is an irregular DRAM access.
                cta.alu(products as u64 * per_insert_alu * GLOBAL_FALLBACK_PENALTY);
                cta.gather((0..products).map(|p| (p * 2654435761) % (1 << 22)), 16);
            } else {
                cta.alu(products as u64 * per_insert_alu);
                cta.shmem(3 * products as u64);
            }
            // Gather the referenced B segments.
            cta.gather(0..products, 12);

            // Semantics: dense-marker accumulation, then sort the output row.
            let mut acc: Vec<(u32, f64)> = Vec::new();
            let mut marker: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for (k, av) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                let k = *k as usize;
                for (c, bv) in b.row_cols(k).iter().zip(b.row_vals(k)) {
                    match marker.get(c) {
                        Some(&slot) => acc[slot].1 += av * bv,
                        None => {
                            marker.insert(*c, acc.len());
                            acc.push((*c, av * bv));
                        }
                    }
                }
            }
            acc.sort_unstable_by_key(|&(c, _)| c);
            let sort_ops =
                (acc.len() as u64) * (64 - (acc.len() as u64).max(1).leading_zeros()) as u64;
            cta.alu(sort_ops);
            cta.write_coalesced(acc.len(), 12);
            let (cols, vals): (Vec<u32>, Vec<f64>) = acc.into_iter().unzip();
            (cols, vals)
        },
    );
    let mut row_offsets = vec![0usize; rows + 1];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    // The grid is clamped to one CTA even for a 0-row A, so the launch can
    // hand back more tiles than output rows; only the first `rows` carry
    // row data (the rest are the empty placeholders CTAs beyond `rows`
    // return).
    for (r, (cols, vals)) in tiles.into_iter().enumerate().take(rows) {
        row_offsets[r + 1] = row_offsets[r] + cols.len();
        col_idx.extend(cols);
        values.extend(vals);
    }
    (
        CsrMatrix {
            num_rows: rows,
            num_cols: b.num_cols,
            row_offsets,
            col_idx,
            values,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;
    use mps_sparse::ops::{spadd_ref, spgemm_ref, spmv_ref};

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn adaptive_spmv_matches_reference() {
        for m in [
            gen::fixed_per_row(500, 500, 39, 1),
            gen::random_uniform(500, 500, 6.0, 4.0, 2),
            gen::power_law(500, 500, 1, 1.5, 300, 3),
        ] {
            let x: Vec<f64> = (0..m.num_cols).map(|i| (i % 5) as f64 + 0.5).collect();
            let (y, _) = spmv(&dev(), &m, &x);
            let e = spmv_ref(&m, &x);
            for (a, b) in y.iter().zip(&e) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn threads_per_row_heuristic_scales() {
        assert_eq!(threads_per_row(1.0, 32), 2);
        assert_eq!(threads_per_row(5.0, 32), 8);
        assert_eq!(threads_per_row(100.0, 32), 32);
    }

    #[test]
    fn row_merge_spadd_matches_reference() {
        let a = gen::banded(300, 15.0, 5.0, 60, 4);
        let b = gen::banded(300, 10.0, 4.0, 40, 5);
        let (c, _) = spadd(&dev(), &a, &b);
        assert_eq!(c, spadd_ref(&a, &b));
    }

    #[test]
    fn hash_spgemm_matches_reference() {
        let a = gen::random_uniform(120, 120, 5.0, 3.0, 6);
        let (c, _) = spgemm(&dev(), &a, &a);
        assert!(c.approx_eq(&spgemm_ref(&a, &a), 1e-12));
    }

    #[test]
    fn hash_spgemm_handles_zero_row_operands() {
        // Regression: a 0-row A still launches the clamped one-CTA grid,
        // whose placeholder tile must not be written past row_offsets.
        for (m, k, n) in [(0, 0, 0), (0, 5, 3), (4, 5, 0)] {
            let a = CsrMatrix::zeros(m, k);
            let b = CsrMatrix::zeros(k, n);
            let (c, _) = spgemm(&dev(), &a, &b);
            assert_eq!(c, spgemm_ref(&a, &b), "{m}x{k} * {k}x{n}");
            c.validate().expect("well-formed empty product");
        }
    }

    #[test]
    fn hash_spgemm_spills_cost_more_per_product() {
        // Rows below vs above the shared-memory capacity: per-product cost
        // must jump across the spill threshold. 40 entries/row squared is
        // 1600 products/row (fits); 60 entries/row is 3600 (spills). Row
        // counts are equal so the fixed per-row pipeline cost cancels.
        let fits = gen::fixed_per_row(1000, 1000, 40, 7);
        let spills = gen::fixed_per_row(1000, 1000, 60, 8);
        let (_, sf) = spgemm(&dev(), &fits, &fits);
        let (_, sp) = spgemm(&dev(), &spills, &spills);
        let prods_f = mps_sparse::ops::spgemm_products(&fits, &fits) as f64;
        let prods_s = mps_sparse::ops::spgemm_products(&spills, &spills) as f64;
        let pp_fits = sf.sim_ms / prods_f;
        let pp_spills = sp.sim_ms / prods_s;
        assert!(
            pp_spills > 1.5 * pp_fits,
            "spilled rows should cost more per product: {pp_spills} vs {pp_fits}"
        );
    }

    #[test]
    fn empty_inputs() {
        let z = CsrMatrix::zeros(4, 4);
        assert_eq!(spadd(&dev(), &z, &z).0.nnz(), 0);
        assert_eq!(spgemm(&dev(), &z, &z).0.nnz(), 0);
        assert_eq!(spmv(&dev(), &z, &[0.0; 4]).0, vec![0.0; 4]);
    }
}
