//! Format-specialized SpMV kernels (Bell & Garland, the paper's cited
//! SpMV tradition).
//!
//! These kernels demonstrate the other side of the paper's argument: a
//! format tuned to a matrix class beats general CSR there (ELL on uniform
//! rows, DIA on stencils) but pays padding, conversion, and inapplicability
//! everywhere else. The ablation bench `ablation_spmv_formats` quantifies
//! the comparison against the format-agnostic merge kernel.

use mps_simt::grid::{launch_map_named, launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::cmrs::CmrsMatrix;
use mps_sparse::formats::{DiaMatrix, EllMatrix, HybMatrix, ELL_PAD};

/// ELL SpMV: one thread per row marching down the padded columns. Loads of
/// the column-major-equivalent padded table are fully coalesced; padding
/// slots still burn bandwidth and lanes.
pub fn spmv_ell(device: &Device, m: &EllMatrix, x: &[f64]) -> (Vec<f64>, LaunchStats) {
    assert_eq!(x.len(), m.num_cols, "x length must equal num_cols");
    let threads = 128;
    let rows = m.num_rows;
    let num_ctas = rows.div_ceil(threads).max(1);
    let (tiles, stats) = launch_map_named(
        device,
        "ell_spmv",
        LaunchConfig::new(num_ctas, threads),
        |cta| {
            let row_lo = cta.cta_id * threads;
            let row_hi = (row_lo + threads).min(rows);
            let count = row_hi - row_lo;
            // Every padded slot is touched: width steps of coalesced loads.
            cta.read_coalesced(count * m.width, 12);
            cta.alu(2 * (count * m.width) as u64);
            let mut y = Vec::with_capacity(count);
            for r in row_lo..row_hi {
                let mut acc = 0.0;
                let mut gathered = Vec::new();
                for i in 0..m.width {
                    let c = m.col_idx[r * m.width + i];
                    if c != ELL_PAD {
                        gathered.push(c as usize);
                        acc += m.values[r * m.width + i] * x[c as usize];
                    }
                }
                cta.gather(gathered, 8);
                y.push(acc);
            }
            cta.write_coalesced(count, 8);
            y
        },
    );
    let mut y = Vec::with_capacity(rows);
    for t in tiles {
        y.extend(t);
    }
    (y, stats)
}

/// DIA SpMV: one thread per row, one pass per stored diagonal. The x
/// accesses are unit-stride shifted windows — the best memory behaviour
/// any SpMV can have, available only to stencil-structured matrices.
pub fn spmv_dia(device: &Device, m: &DiaMatrix, x: &[f64]) -> (Vec<f64>, LaunchStats) {
    assert_eq!(x.len(), m.num_cols, "x length must equal num_cols");
    let threads = 128;
    let rows = m.num_rows;
    let num_ctas = rows.div_ceil(threads).max(1);
    let ndiag = m.offsets.len();
    let (tiles, stats) = launch_map_named(
        device,
        "dia_spmv",
        LaunchConfig::new(num_ctas, threads),
        |cta| {
            let row_lo = cta.cta_id * threads;
            let row_hi = (row_lo + threads).min(rows);
            let count = row_hi - row_lo;
            // Diagonal values stream; x windows are contiguous per diagonal.
            cta.read_coalesced(count * ndiag, 8);
            cta.read_coalesced(count * ndiag, 8);
            cta.alu(2 * (count * ndiag) as u64);
            let mut y = vec![0.0; count];
            for (d, &off) in m.offsets.iter().enumerate() {
                for r in row_lo..row_hi {
                    let c = r as i64 + off;
                    if c >= 0 && (c as usize) < m.num_cols {
                        y[r - row_lo] += m.values[d * rows + r] * x[c as usize];
                    }
                }
            }
            cta.write_coalesced(count, 8);
            y
        },
    );
    let mut y = Vec::with_capacity(rows);
    for t in tiles {
        y.extend(t);
    }
    (y, stats)
}

/// HYB SpMV: the ELL part plus a flat COO pass over the tail, combined on
/// the host (on hardware the COO kernel accumulates with atomics; the cost
/// model charges it as a scattered read-modify-write).
pub fn spmv_hyb(device: &Device, m: &HybMatrix, x: &[f64]) -> (Vec<f64>, LaunchStats) {
    let (mut y, mut stats) = spmv_ell(device, &m.ell, x);
    let tail = m.coo_vals.len();
    if tail > 0 {
        let nv = 4096;
        let num_ctas = tail.div_ceil(nv).max(1);
        let (parts, coo_stats) = launch_map_named(
            device,
            "hyb_coo_tail",
            LaunchConfig::new(num_ctas, 128),
            |cta| {
                let lo = cta.cta_id * nv;
                let hi = (lo + nv).min(tail);
                cta.read_coalesced(hi - lo, 16);
                cta.gather(m.coo_cols[lo..hi].iter().map(|&c| c as usize), 8);
                // Atomic accumulation into y.
                cta.scatter(m.coo_rows[lo..hi].iter().map(|&r| r as usize), 8);
                cta.alu(2 * (hi - lo) as u64);
                (lo..hi)
                    .map(|i| {
                        (
                            m.coo_rows[i] as usize,
                            m.coo_vals[i] * x[m.coo_cols[i] as usize],
                        )
                    })
                    .collect::<Vec<_>>()
            },
        );
        for part in parts {
            for (r, v) in part {
                y[r] += v;
            }
        }
        stats.add(&coo_stats);
    }
    (y, stats)
}

/// Threads per CTA of the CMRS strip kernel.
pub const FORMAT_THREADS: usize = 128;

/// CMRS SpMV: each CTA owns a run of strips; threads stream the strip's
/// interleaved (tag, col, val) triples — fully coalesced, zero padding —
/// and accumulate into per-row shared-memory slots routed by the tag.
/// Rows accumulate in their CSR entry order, so results are bitwise equal
/// to a sequential row-wise dot.
pub fn spmv_cmrs(device: &Device, m: &CmrsMatrix, x: &[f64]) -> (Vec<f64>, LaunchStats) {
    assert_eq!(x.len(), m.num_cols, "x length must equal num_cols");
    let strips_per_cta = (FORMAT_THREADS / m.strip_height).max(1);
    let num_ctas = m.num_strips().div_ceil(strips_per_cta).max(1);
    let (tiles, stats) = launch_map_phased(
        device,
        "cmrs_spmv",
        Phase::CmrsStrip,
        LaunchConfig::new(num_ctas, FORMAT_THREADS),
        |cta| {
            let s_lo = cta.cta_id * strips_per_cta;
            let s_hi = (s_lo + strips_per_cta).min(m.num_strips());
            let row_lo = s_lo * m.strip_height;
            let row_hi = (s_hi * m.strip_height).min(m.num_rows);
            // -0.0 is `Iterator::sum`'s empty identity: rows with no
            // entries come out bitwise equal to the sequential reference.
            let mut y = vec![-0.0; row_hi - row_lo];
            for s in s_lo..s_hi {
                let (lo, hi) = (m.strip_ptr[s], m.strip_ptr[s + 1]);
                let entries = hi - lo;
                // Tag stream (2 B) + column stream (4 B) + value stream
                // (8 B): CMRS's extra traffic over CSR is exactly the tags.
                cta.read_coalesced(entries, 2);
                cta.read_coalesced(entries, 4);
                cta.read_coalesced(entries, 8);
                cta.gather(m.col_idx[lo..hi].iter().map(|&c| c as usize), 8);
                // Read-modify-write of the shared accumulator per entry.
                cta.shmem(2 * entries as u64);
                cta.alu(2 * entries as u64);
                let base = s * m.strip_height - row_lo;
                for k in lo..hi {
                    y[base + m.row_in_strip[k] as usize] += m.values[k] * x[m.col_idx[k] as usize];
                }
            }
            cta.write_coalesced(row_hi - row_lo, 8);
            y
        },
    );
    let mut y = Vec::with_capacity(m.num_rows);
    for t in tiles {
        y.extend(t);
    }
    (y, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;
    use mps_sparse::ops::spmv_ref;

    fn dev() -> Device {
        Device::titan()
    }

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn ell_spmv_matches_reference() {
        let m = gen::fixed_per_row(300, 300, 12, 1);
        let x: Vec<f64> = (0..300).map(|i| 1.0 + (i % 5) as f64).collect();
        let ell = EllMatrix::from_csr(&m);
        let (y, _) = spmv_ell(&dev(), &ell, &x);
        assert!(close(&y, &spmv_ref(&m, &x)));
    }

    #[test]
    fn dia_spmv_matches_reference_on_stencil() {
        let m = gen::stencil_5pt(20, 20);
        let x: Vec<f64> = (0..m.num_cols).map(|i| (i % 7) as f64 - 3.0).collect();
        let dia = DiaMatrix::from_csr(&m, 8).expect("stencil");
        let (y, _) = spmv_dia(&dev(), &dia, &x);
        assert!(close(&y, &spmv_ref(&m, &x)));
    }

    #[test]
    fn hyb_spmv_matches_reference_on_power_law() {
        let m = gen::power_law(400, 400, 1, 1.5, 300, 2);
        let x: Vec<f64> = (0..400).map(|i| 0.5 + (i % 3) as f64).collect();
        let hyb = HybMatrix::from_csr(&m, HybMatrix::heuristic_width(&m));
        let (y, _) = spmv_hyb(&dev(), &hyb, &x);
        assert!(close(&y, &spmv_ref(&m, &x)));
    }

    #[test]
    fn ell_wastes_time_on_skewed_matrices() {
        // Same matrix through ELL (huge padding) vs HYB (tail split): the
        // hybrid must be substantially faster — Bell & Garland's insight.
        // The skew is constructed explicitly (a handful of enormous rows
        // over a short tail) so the contrast doesn't hinge on one RNG
        // stream happening to sample an extreme power-law draw.
        let mut coo = mps_sparse::CooMatrix::new(3000, 3000);
        for r in 0..3000u32 {
            let len = if r % 500 == 0 { 2000usize } else { 2 };
            for k in 0..len {
                coo.push(r, ((r as usize * 17 + k * 31) % 3000) as u32, 1.0);
            }
        }
        let m = coo.to_csr();
        let x = vec![1.0; 3000];
        let ell = EllMatrix::from_csr(&m);
        let hyb = HybMatrix::from_csr(&m, HybMatrix::heuristic_width(&m));
        let (_, se) = spmv_ell(&dev(), &ell, &x);
        let (_, sh) = spmv_hyb(&dev(), &hyb, &x);
        assert!(
            se.sim_ms > 1.5 * sh.sim_ms,
            "ELL {} should trail HYB {}",
            se.sim_ms,
            sh.sim_ms
        );
    }

    #[test]
    fn dia_beats_general_kernels_on_its_home_turf() {
        let m = gen::stencil_5pt(120, 120);
        let x = vec![1.0; m.num_cols];
        let dia = DiaMatrix::from_csr(&m, 8).expect("stencil");
        let (_, sd) = spmv_dia(&dev(), &dia, &x);
        let (_, sc) = crate::cusp::spmv_vector(&dev(), &m, &x);
        assert!(
            sd.sim_ms < sc.sim_ms,
            "DIA {} vs vector CSR {}",
            sd.sim_ms,
            sc.sim_ms
        );
    }

    #[test]
    fn cmrs_spmv_is_bitwise_equal_to_rowwise_reference() {
        // Strip interleaving preserves each row's entry order, so the
        // accumulation is the same f64 sequence as the reference dot.
        for m in [
            gen::random_uniform(500, 500, 9.0, 4.0, 3),
            gen::power_law(600, 600, 1, 1.5, 400, 8),
            gen::stencil_5pt(25, 17),
        ] {
            let x: Vec<f64> = (0..m.num_cols).map(|i| 0.25 + (i % 11) as f64).collect();
            let cmrs = CmrsMatrix::from_csr(&m);
            let (y, _) = spmv_cmrs(&dev(), &cmrs, &x);
            assert_eq!(y, spmv_ref(&m, &x));
        }
    }

    #[test]
    fn empty_tail_hyb_equals_ell() {
        let m = gen::fixed_per_row(100, 100, 6, 4);
        let x = vec![1.0; 100];
        let hyb = HybMatrix::from_csr(&m, 6);
        assert!(hyb.coo_vals.is_empty());
        let (yh, _) = spmv_hyb(&dev(), &hyb, &x);
        let (ye, _) = spmv_ell(&dev(), &hyb.ell, &x);
        assert_eq!(yh, ye);
    }
}
