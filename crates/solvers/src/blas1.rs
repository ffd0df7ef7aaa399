//! Level-1 vector operations with device cost accounting.
//!
//! Streaming kernels: a dot product reads both vectors once and reduces; an
//! axpy reads both and writes one. The grid covers the vector at 4096
//! elements per CTA, so cost scales like the SpMV phases around them.
//! Dots fold sequentially on the host ([`sequential_dot`]) while the launch
//! prices per-CTA partials; [`cg_update`] fuses a CG step's two axpys and
//! its residual dot into one pass.

use mps_core::sequential_dot;
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::DenseBlock;

const NV: usize = 4096;

/// Price one streaming pass over `n` elements: `streams_read` vectors
/// read and `streams_written` written.
pub(crate) fn streaming_launch(
    device: &Device,
    n: usize,
    streams_read: usize,
    streams_written: usize,
) -> LaunchStats {
    let cfg = LaunchConfig::new(n.div_ceil(NV).max(1), 128);
    let (_, stats) = launch_map_phased(device, "blas1_stream", Phase::Blas1, cfg, |cta| {
        let lo = cta.cta_id * NV;
        let hi = (lo + NV).min(n);
        cta.read_coalesced((hi - lo) * streams_read, 8);
        cta.alu(2 * (hi - lo) as u64);
        cta.write_coalesced((hi - lo) * streams_written, 8);
    });
    stats
}

/// Device dot product.
pub fn dot(device: &Device, a: &[f64], b: &[f64]) -> (f64, LaunchStats) {
    assert_eq!(a.len(), b.len(), "dot operands must match");
    let stats = streaming_launch(device, a.len(), 2, 0);
    (sequential_dot(a, b), stats)
}

/// Device `y += alpha * x`.
pub fn axpy(device: &Device, alpha: f64, x: &[f64], y: &mut [f64]) -> LaunchStats {
    assert_eq!(x.len(), y.len(), "axpy operands must match");
    let stats = streaming_launch(device, x.len(), 2, 1);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    stats
}

/// Device `y = x + beta * y` (the CG direction update).
pub fn xpby(device: &Device, x: &[f64], beta: f64, y: &mut [f64]) -> LaunchStats {
    assert_eq!(x.len(), y.len(), "xpby operands must match");
    let stats = streaming_launch(device, x.len(), 2, 1);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
    stats
}

/// The CG step `x += α·p; r −= α·Ap`, returning `r·r`: one streaming
/// launch that reads p, Ap, x and r and writes x and r. Each element sees
/// the operations of `axpy(α, p, x)`, `axpy(−α, Ap, r)` and `dot(r, r)` in
/// that order, so every bit matches the three separate launches.
pub fn cg_update(
    device: &Device,
    alpha: f64,
    p: &[f64],
    ap: &[f64],
    x: &mut [f64],
    r: &mut [f64],
) -> (f64, LaunchStats) {
    let n = p.len();
    assert!(
        ap.len() == n && x.len() == n && r.len() == n,
        "cg_update operands must match"
    );
    let stats = streaming_launch(device, n, 4, 2);
    let neg = -alpha;
    for i in 0..n {
        x[i] += alpha * p[i];
        r[i] += neg * ap[i];
    }
    (sequential_dot(r, r), stats)
}

/// Euclidean norm.
pub fn norm2(device: &Device, a: &[f64]) -> (f64, LaunchStats) {
    let (d, stats) = dot(device, a, a);
    (d.sqrt(), stats)
}

/// Per-column dot products of two row-major blocks, one streaming pass
/// over both operands. Column `c`'s sum accumulates in row order — the
/// same floating-point order as [`dot`] on the extracted column vectors.
pub fn block_dots(device: &Device, a: &DenseBlock, b: &DenseBlock) -> (Vec<f64>, LaunchStats) {
    assert_eq!(
        (a.rows, a.cols),
        (b.rows, b.cols),
        "block dot operands must match"
    );
    let stats = streaming_launch(device, a.rows * a.cols, 2, 0);
    let mut out = vec![0.0; a.cols];
    for r in 0..a.rows {
        for ((o, x), y) in out.iter_mut().zip(a.row(r)).zip(b.row(r)) {
            *o += x * y;
        }
    }
    (out, stats)
}

/// Per-column `y_c += alphas[c] * x_c` over active columns; inactive
/// columns are left untouched bit for bit (on hardware the lanes would be
/// predicated off — the streaming charge still covers the whole block).
pub fn block_axpy(
    device: &Device,
    alphas: &[f64],
    active: &[bool],
    x: &DenseBlock,
    y: &mut DenseBlock,
) -> LaunchStats {
    assert_eq!(
        (x.rows, x.cols),
        (y.rows, y.cols),
        "axpy operands must match"
    );
    assert_eq!(alphas.len(), x.cols, "one alpha per column");
    assert_eq!(active.len(), x.cols, "one mask entry per column");
    let stats = streaming_launch(device, x.rows * x.cols, 2, 1);
    for r in 0..x.rows {
        let xr = x.row(r);
        for (c, yv) in y.row_mut(r).iter_mut().enumerate() {
            if active[c] {
                *yv += alphas[c] * xr[c];
            }
        }
    }
    stats
}

/// Per-column `y_c = x_c + betas[c] * y_c` over active columns (the block
/// CG direction update); inactive columns are left untouched.
pub fn block_xpby(
    device: &Device,
    x: &DenseBlock,
    betas: &[f64],
    active: &[bool],
    y: &mut DenseBlock,
) -> LaunchStats {
    assert_eq!(
        (x.rows, x.cols),
        (y.rows, y.cols),
        "xpby operands must match"
    );
    assert_eq!(betas.len(), x.cols, "one beta per column");
    assert_eq!(active.len(), x.cols, "one mask entry per column");
    let stats = streaming_launch(device, x.rows * x.cols, 2, 1);
    for r in 0..x.rows {
        let xr = x.row(r);
        for (c, yv) in y.row_mut(r).iter_mut().enumerate() {
            if active[c] {
                *yv = xr[c] + betas[c] * *yv;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn dot_and_norm() {
        let a = vec![3.0, 4.0];
        let (n, _) = norm2(&dev(), &a);
        assert!((n - 5.0).abs() < 1e-12);
        let (d, _) = dot(&dev(), &a, &[1.0, 2.0]);
        assert_eq!(d, 11.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(&dev(), 2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn xpby_computes_direction_update() {
        let mut p = vec![10.0, 20.0];
        xpby(&dev(), &[1.0, 2.0], 0.5, &mut p);
        assert_eq!(p, vec![6.0, 12.0]);
    }

    #[test]
    fn cg_update_matches_its_three_launches_bitwise_in_one() {
        let n = 5000; // two CTAs
        let p: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let ap: Vec<f64> = (0..n).map(|i| (0.7 * i as f64).cos() - 0.2).collect();
        let x0: Vec<f64> = (0..n).map(|i| i as f64 * 1e-3).collect();
        let r0: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let alpha = 0.37;
        let (mut x1, mut r1) = (x0.clone(), r0.clone());
        let mut separate = axpy(&dev(), alpha, &p, &mut x1);
        separate.add(&axpy(&dev(), -alpha, &ap, &mut r1));
        let (rr1, s) = dot(&dev(), &r1, &r1);
        separate.add(&s);
        let (mut x2, mut r2) = (x0, r0);
        let (rr2, fused) = cg_update(&dev(), alpha, &p, &ap, &mut x2, &mut r2);
        assert_eq!(rr1.to_bits(), rr2.to_bits());
        for (a, b) in x1.iter().chain(&r1).zip(x2.iter().chain(&r2)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Four streams read and two written, against six and three.
        assert_eq!(fused.per_cta_cycles.len(), 2);
        assert_eq!(fused.totals.dram_bytes(), 6 * 8 * n as u64);
        assert_eq!(separate.totals.dram_bytes(), 8 * 8 * n as u64);
        assert!(fused.sim_ms < separate.sim_ms);
    }

    #[test]
    fn costs_scale_with_length() {
        let a = vec![1.0; 2_000_000];
        let b = vec![1.0; 20_000];
        let (_, big) = dot(&dev(), &a, &a);
        let (_, small) = dot(&dev(), &b, &b);
        assert!(big.sim_ms > small.sim_ms);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_panic() {
        dot(&dev(), &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn block_dots_match_per_column_dots() {
        let a = DenseBlock::from_fn(40, 3, |r, c| (r * 3 + c) as f64 * 0.25 - 2.0);
        let b = DenseBlock::from_fn(40, 3, |r, c| 1.0 + ((r + c) % 5) as f64);
        let (ds, _) = block_dots(&dev(), &a, &b);
        for (c, &got) in ds.iter().enumerate() {
            let (want, _) = dot(&dev(), &a.column(c), &b.column(c));
            assert_eq!(got, want, "column {c} must match the vector dot bitwise");
        }
    }

    #[test]
    fn block_axpy_and_xpby_respect_the_mask() {
        let x = DenseBlock::from_fn(5, 2, |r, _| r as f64 + 1.0);
        let mut y = DenseBlock::zeros(5, 2);
        block_axpy(&dev(), &[2.0, 100.0], &[true, false], &x, &mut y);
        assert_eq!(y.column(0), vec![2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(y.column(1), vec![0.0; 5], "inactive column untouched");
        block_xpby(&dev(), &x, &[0.5, 9.0], &[true, false], &mut y);
        assert_eq!(y.column(0), vec![2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(y.column(1), vec![0.0; 5]);
    }
}
