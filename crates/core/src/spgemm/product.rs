//! SpGEMM numeric phases: product formation and reduction.
//!
//! No numerical values exist before this point — everything earlier is a
//! function of the two sparsity patterns. The one-shot kernels
//! ([`product_compute`] / [`product_reduce`]) are the paper's original
//! phases 3–4: each CTA re-runs its expansion to form the actual
//! products, permutes them with the stored block-sort permutation,
//! segment-reduces duplicates with the precomputed head flags, and
//! scatters the locally reduced values to their *globally sorted*
//! positions; a last reduce-by-key pass folds cross-tile duplicates.
//!
//! The bin-adaptive charge kernels below them price the numeric pass of a
//! cached symbolic plan: tiny rows through a dense-accumulator scatter,
//! mid rows through a hash reduction (probe counts measured host-side),
//! and only heavy rows through the original two-pass machinery.

use std::ops::Range;

use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::CsrMatrix;

use super::block_sort::TileReduced;
use super::setup::Expansion;
use crate::config::SpgemmConfig;

/// Phase 3: recompute, permute and locally reduce products, writing each
/// reduced value to its global sorted position.
///
/// `rank[i]` is the globally sorted position of reduced entry `i` (tile
/// entries concatenated in tile order). Returns values aligned with the
/// globally sorted key order.
pub fn product_compute(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    exp: &Expansion,
    tiles: &[TileReduced],
    rank: &[u32],
    cfg: &SpgemmConfig,
) -> (Vec<f64>, LaunchStats) {
    let nv = cfg.nv();
    let total = exp.products;
    let num_ctas = total.div_ceil(nv).max(1);
    debug_assert_eq!(num_ctas, tiles.len());

    // Global offset of each tile's reduced entries.
    let mut tile_offsets = Vec::with_capacity(tiles.len() + 1);
    tile_offsets.push(0usize);
    for t in tiles {
        tile_offsets.push(tile_offsets.last().expect("non-empty") + t.unique_keys.len());
    }
    let reduced_total = *tile_offsets.last().expect("non-empty");
    debug_assert_eq!(reduced_total, rank.len());

    let launch = LaunchConfig::new(num_ctas, cfg.block_threads);
    let tile_offsets_ref = &tile_offsets;
    let (scattered, stats) = launch_map_phased(
        device,
        "spgemm_product_compute",
        Phase::ProductCompute,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(total);
            let count = hi - lo;
            let tile = &tiles[cta.cta_id];

            // Second expansion: this time the values are fetched and formed.
            let mut vals: Vec<f64> = Vec::with_capacity(count);
            exp.walk_tile(cta, lo, hi, |_, j, t| {
                let brow = a.col_idx[j] as usize;
                let bpos = b.row_offsets[brow] + t;
                vals.push(a.values[j] * b.values[bpos]);
            });
            cta.read_coalesced(count, 4); // A col idx
            cta.gather_range(lo..hi, 8); // B values (per-row contiguous)
            cta.alu(count as u64); // multiplies

            // Load the stored permutation and head flags, permute in shared
            // memory, and segment-reduce duplicate runs.
            cta.read_coalesced(count, 2);
            cta.read_coalesced(count.div_ceil(8), 1);
            cta.shmem(2 * count as u64);
            cta.sync();
            cta.alu(2 * count as u64);

            let base = tile_offsets_ref[cta.cta_id];
            let mut out: Vec<(u32, f64)> = Vec::with_capacity(tile.unique_keys.len());
            let mut local = 0usize;
            for s in 0..count {
                let v = vals[tile.perm[s] as usize];
                if tile.head[s] {
                    out.push((rank[base + local], v));
                    local += 1;
                } else {
                    out.last_mut().expect("head precedes body").1 += v;
                }
            }
            // Scatter reduced values to their globally sorted positions.
            cta.scatter(out.iter().map(|&(r, _)| r as usize), 8);
            out
        },
    );

    let mut ordered = vec![0.0f64; reduced_total];
    for tile in scattered {
        for (r, v) in tile {
            ordered[r as usize] = v;
        }
    }
    (ordered, stats)
}

/// Phase 4: reduce-by-key over globally sorted keys/values, producing the
/// final unique coordinate list of C.
pub fn product_reduce(
    device: &Device,
    sorted_keys: &[u64],
    ordered_vals: &[f64],
    cfg: &SpgemmConfig,
) -> (Vec<u64>, Vec<f64>, LaunchStats) {
    debug_assert_eq!(sorted_keys.len(), ordered_vals.len());
    let n = sorted_keys.len();
    let nv = cfg.global_sort_nv;
    let num_ctas = n.div_ceil(nv).max(1);

    let launch = LaunchConfig::new(num_ctas, cfg.block_threads);
    let (parts, stats) = launch_map_phased(
        device,
        "spgemm_product_reduce",
        Phase::ProductReduce,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(n);
            cta.read_coalesced(hi - lo, 16);
            cta.alu(3 * (hi - lo) as u64);
            // Segmented reduce within the tile; the trailing run is the carry.
            let mut keys = Vec::new();
            let mut vals: Vec<f64> = Vec::new();
            for i in lo..hi {
                if keys.last() == Some(&sorted_keys[i]) {
                    *vals.last_mut().expect("parallel vectors") += ordered_vals[i];
                } else {
                    keys.push(sorted_keys[i]);
                    vals.push(ordered_vals[i]);
                }
            }
            cta.write_coalesced(keys.len(), 16);
            (keys, vals)
        },
    );

    // Stitch tiles: a run spanning a tile boundary merges with the
    // previous tile's trailing entry (the carry of the SpMV update phase,
    // applied to keys).
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    let mut vals: Vec<f64> = Vec::with_capacity(n);
    for (tk, tv) in parts {
        let mut start = 0;
        if let (Some(&last), Some(&first)) = (keys.last(), tk.first()) {
            if last == first {
                *vals.last_mut().expect("parallel vectors") += tv[0];
                start = 1;
            }
        }
        keys.extend_from_slice(&tk[start..]);
        vals.extend_from_slice(&tv[start..]);
    }
    (keys, vals, stats)
}

/// The products of one numeric bin as one stream: its rows' ranges of the
/// plan's per-product maps, in row order, read in place. Ranges of rows
/// that follow each other in product space merge, so a bin of adjacent
/// rows is a single range.
#[derive(Debug, Clone)]
pub(crate) struct BinProducts<'p> {
    a_idx: &'p [u32],
    b_pos: &'p [u32],
    /// Disjoint ascending product-index ranges.
    ranges: Vec<Range<usize>>,
    /// Stream position of each range's first product.
    starts: Vec<usize>,
    len: usize,
}

impl<'p> BinProducts<'p> {
    pub(crate) fn new(a_idx: &'p [u32], b_pos: &'p [u32]) -> Self {
        debug_assert_eq!(a_idx.len(), b_pos.len());
        BinProducts {
            a_idx,
            b_pos,
            ranges: Vec::new(),
            starts: Vec::new(),
            len: 0,
        }
    }

    /// Append the products `q` to the stream.
    pub(crate) fn push(&mut self, q: Range<usize>) {
        if q.is_empty() {
            return;
        }
        match self.ranges.last_mut() {
            Some(last) if last.end == q.start => last.end = q.end,
            _ => {
                self.starts.push(self.len);
                self.ranges.push(q.clone());
            }
        }
        self.len += q.len();
    }

    /// Products in the stream.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Product indices at stream positions `lo..hi`.
    fn products(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        let first = self.starts.partition_point(|&s| s <= lo).saturating_sub(1);
        self.ranges[first..]
            .iter()
            .zip(&self.starts[first..])
            .take_while(move |&(_, &start)| start < hi)
            .flat_map(move |(range, &start)| {
                range.start + lo.saturating_sub(start)..range.start + (hi - start).min(range.len())
            })
    }

    /// A-value indices of the products at stream positions `lo..hi`.
    fn a_idx(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        self.products(lo, hi).map(|q| self.a_idx[q] as usize)
    }

    /// B-value indices of the products at stream positions `lo..hi`.
    fn b_pos(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        self.products(lo, hi).map(|q| self.b_pos[q] as usize)
    }
}

/// Proportional share of `total` items owned by the slice `lo..hi` of `n`.
#[inline]
fn share(total: usize, lo: usize, hi: usize, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    hi * total / n - lo * total / n
}

/// Numeric pass over tiny-binned rows: stream the slot map, gather both
/// source values, one FMA per product into a dense shared-memory
/// accumulator, coalesced write of the bin's output values.
///
/// `bin` holds the bin's products (row-major), whose source indices are
/// the gather targets; `out_nnz` is the bin's output nonzeros.
pub(crate) fn numeric_tiny(
    device: &Device,
    bin: &BinProducts,
    out_nnz: usize,
    cfg: &SpgemmConfig,
) -> LaunchStats {
    let n = bin.len();
    let nv = cfg.nv();
    let launch = LaunchConfig::new(n.div_ceil(nv).max(1), cfg.block_threads);
    let (_, stats) = launch_map_phased(
        device,
        "spgemm_numeric_tiny",
        Phase::NumericTiny,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(n);
            let count = hi - lo;
            cta.read_coalesced(count, 8); // slot map + source indices
            cta.gather(bin.a_idx(lo, hi), 8);
            cta.gather(bin.b_pos(lo, hi), 8);
            cta.alu(2 * count as u64); // one FMA per product
            cta.shmem(2 * count as u64); // accumulator read-modify-write
            cta.sync();
            cta.write_coalesced(share(out_nnz, lo, hi, n), 8);
        },
    );
    stats
}

/// Numeric pass over mid-binned rows: like the tiny pass but reducing
/// through a shared-memory hash table sized from the symbolic counts.
/// `probes` is the measured total slot inspections over the bin (from
/// [`super::hash::HashAccumulator`]), so clustering costs what it costs.
pub(crate) fn numeric_mid(
    device: &Device,
    bin: &BinProducts,
    out_nnz: usize,
    probes: u64,
    cfg: &SpgemmConfig,
) -> LaunchStats {
    let n = bin.len();
    let nv = cfg.nv();
    let launch = LaunchConfig::new(n.div_ceil(nv).max(1), cfg.block_threads);
    let (_, stats) = launch_map_phased(
        device,
        "spgemm_numeric_mid",
        Phase::NumericMid,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(n);
            let count = hi - lo;
            let probe_share = share(probes as usize, lo, hi, n) as u64;
            cta.read_coalesced(count, 8); // slot map + source indices
            cta.gather(bin.a_idx(lo, hi), 8);
            cta.gather(bin.b_pos(lo, hi), 8);
            cta.alu(count as u64 + probe_share); // multiply + key hashing
            cta.shmem(2 * probe_share); // probe + insert traffic
            cta.sync();
            cta.write_coalesced(share(out_nnz, lo, hi, n), 8);
        },
    );
    stats
}

/// Numeric pass over heavy-binned rows, first half: the paper's product
/// compute restricted to the heavy products. `ranks` are the globally
/// sorted positions of the bin's locally reduced entries (the scatter
/// targets).
pub(crate) fn numeric_heavy_compute(
    device: &Device,
    bin: &BinProducts,
    ranks: &[u32],
    cfg: &SpgemmConfig,
) -> LaunchStats {
    let n = bin.len();
    let nv = cfg.nv();
    let launch = LaunchConfig::new(n.div_ceil(nv).max(1), cfg.block_threads);
    let (_, stats) = launch_map_phased(
        device,
        "spgemm_product_compute",
        Phase::ProductCompute,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(n);
            let count = hi - lo;
            cta.read_coalesced(count, 4); // A col idx
            cta.gather(bin.a_idx(lo, hi), 8);
            cta.gather(bin.b_pos(lo, hi), 8);
            cta.alu(count as u64); // multiplies

            // Stored permutation + head flags, permute in shared memory,
            // segment-reduce duplicate runs.
            cta.read_coalesced(count, 2);
            cta.read_coalesced(count.div_ceil(8), 1);
            cta.shmem(2 * count as u64);
            cta.sync();
            cta.alu(2 * count as u64);
            // Scatter reduced values to their globally sorted positions.
            let r_lo = (lo * ranks.len()).checked_div(n).unwrap_or(0);
            let r_hi = (hi * ranks.len()).checked_div(n).unwrap_or(0);
            cta.scatter(ranks[r_lo..r_hi].iter().map(|&r| r as usize), 8);
        },
    );
    stats
}

/// Numeric pass over heavy-binned rows, second half: reduce-by-key over
/// the bin's `n_reduced` globally sorted entries into `out_nnz` outputs.
pub(crate) fn numeric_heavy_reduce(
    device: &Device,
    n_reduced: usize,
    out_nnz: usize,
    cfg: &SpgemmConfig,
) -> LaunchStats {
    let nv = cfg.global_sort_nv;
    let launch = LaunchConfig::new(n_reduced.div_ceil(nv).max(1), cfg.block_threads);
    let (_, stats) = launch_map_phased(
        device,
        "spgemm_product_reduce",
        Phase::ProductReduce,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(n_reduced);
            cta.read_coalesced(hi - lo, 16);
            cta.alu(3 * (hi - lo) as u64);
            cta.write_coalesced(share(out_nnz, lo, hi, n_reduced), 16);
        },
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::titan()
    }

    fn cfg() -> SpgemmConfig {
        SpgemmConfig {
            global_sort_nv: 4,
            ..SpgemmConfig::default()
        }
    }

    #[test]
    fn share_partitions_exactly() {
        // Per-CTA output shares must tile the total with no gap/overlap.
        let (total, n, nv) = (13usize, 100usize, 8usize);
        let mut sum = 0;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + nv).min(n);
            sum += share(total, lo, hi, n);
            lo = hi;
        }
        assert_eq!(sum, total);
        assert_eq!(share(5, 0, 0, 0), 0);
    }

    #[test]
    fn bin_charges_scale_with_products() {
        let d = dev();
        let small: Vec<u32> = (0..64u32).collect();
        let big: Vec<u32> = (0..4096u32).collect();
        let c = SpgemmConfig::default();
        let whole = |v: &'static [u32]| {
            let mut bin = BinProducts::new(v, v);
            bin.push(0..v.len());
            bin
        };
        let (small, big) = (whole(small.leak()), whole(big.leak()));
        let t_small = numeric_tiny(&d, &small, 32, &c).sim_ms;
        let t_big = numeric_tiny(&d, &big, 2048, &c).sim_ms;
        assert!(t_big > t_small);
        let m_small = numeric_mid(&d, &small, 32, 128, &c).sim_ms;
        let m_big = numeric_mid(&d, &big, 2048, 8192, &c).sim_ms;
        assert!(m_big > m_small);
        let h_small = numeric_heavy_reduce(&d, 64, 32, &c).sim_ms;
        let h_big = numeric_heavy_reduce(&d, 4096, 2048, &c).sim_ms;
        assert!(h_big > h_small);
    }

    #[test]
    fn reduce_by_key_folds_runs_within_tiles() {
        let keys = vec![1u64, 1, 2, 3, 3, 3];
        let vals = vec![1.0, 2.0, 4.0, 1.0, 1.0, 1.0];
        let (k, v, _) = product_reduce(&dev(), &keys, &vals, &cfg());
        assert_eq!(k, vec![1, 2, 3]);
        assert_eq!(v, vec![3.0, 4.0, 3.0]);
    }

    #[test]
    fn reduce_by_key_folds_runs_across_tile_boundaries() {
        // nv = 4 puts the run of 7s across the boundary.
        let keys = vec![5u64, 7, 7, 7, 7, 9];
        let vals = vec![1.0, 1.0, 1.0, 1.0, 1.0, 2.0];
        let (k, v, _) = product_reduce(&dev(), &keys, &vals, &cfg());
        assert_eq!(k, vec![5, 7, 9]);
        assert_eq!(v, vec![1.0, 4.0, 2.0]);
    }

    #[test]
    fn reduce_of_empty_input() {
        let (k, v, _) = product_reduce(&dev(), &[], &[], &cfg());
        assert!(k.is_empty() && v.is_empty());
    }

    #[test]
    fn reduce_single_giant_run() {
        let keys = vec![42u64; 23];
        let vals = vec![0.5f64; 23];
        let (k, v, _) = product_reduce(&dev(), &keys, &vals, &cfg());
        assert_eq!(k, vec![42]);
        assert!((v[0] - 11.5).abs() < 1e-12);
    }

    #[test]
    fn a_bin_streams_its_ranges_in_order_across_tiles() {
        let maps: Vec<u32> = (0..40u32).collect();
        let mut bin = BinProducts::new(&maps, &maps);
        for q in [2..5, 5..9, 12..12, 20..31, 35..36] {
            bin.push(q);
        }
        let want: Vec<usize> = (2..9).chain(20..31).chain(35..36).collect();
        assert_eq!(bin.len(), want.len());
        assert_eq!(bin.ranges.len(), 3, "adjacent rows merge into one range");
        for tile in [1, 3, 7, 19] {
            let mut got = Vec::new();
            let mut lo = 0;
            while lo < bin.len() {
                let hi = (lo + tile).min(bin.len());
                got.extend(bin.a_idx(lo, hi));
                lo = hi;
            }
            assert_eq!(got, want, "tile {tile}");
        }
    }
}
