//! Level-1 vector operations with device cost accounting.
//!
//! Streaming kernels: a dot product reads both vectors once and reduces; an
//! axpy reads both and writes one. The grid covers the vector at 4096
//! elements per CTA, so cost scales like the SpMV phases around them.

use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::DenseBlock;

const NV: usize = 4096;

/// Price one streaming pass over `n` elements: `streams_read` vectors
/// read, one written if `writes`.
pub(crate) fn streaming_launch(
    device: &Device,
    n: usize,
    streams_read: usize,
    writes: bool,
) -> LaunchStats {
    let cfg = LaunchConfig::new(n.div_ceil(NV).max(1), 128);
    let (_, stats) = launch_map_phased(device, "blas1_stream", Phase::Blas1, cfg, |cta| {
        let lo = cta.cta_id * NV;
        let hi = (lo + NV).min(n);
        cta.read_coalesced((hi - lo) * streams_read, 8);
        cta.alu(2 * (hi - lo) as u64);
        if writes {
            cta.write_coalesced(hi - lo, 8);
        }
    });
    stats
}

/// Device dot product.
pub fn dot(device: &Device, a: &[f64], b: &[f64]) -> (f64, LaunchStats) {
    assert_eq!(a.len(), b.len(), "dot operands must match");
    let stats = streaming_launch(device, a.len(), 2, false);
    (a.iter().zip(b).map(|(x, y)| x * y).sum(), stats)
}

/// Device `y += alpha * x`.
pub fn axpy(device: &Device, alpha: f64, x: &[f64], y: &mut [f64]) -> LaunchStats {
    assert_eq!(x.len(), y.len(), "axpy operands must match");
    let stats = streaming_launch(device, x.len(), 2, true);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    stats
}

/// Device `y = x + beta * y` (the CG direction update).
pub fn xpby(device: &Device, x: &[f64], beta: f64, y: &mut [f64]) -> LaunchStats {
    assert_eq!(x.len(), y.len(), "xpby operands must match");
    let stats = streaming_launch(device, x.len(), 2, true);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
    stats
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
    let stats = streaming_launch(device, a.rows * a.cols, 2, false);
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
    let stats = streaming_launch(device, x.rows * x.cols, 2, true);
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
    let stats = streaming_launch(device, x.rows * x.cols, 2, true);
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
