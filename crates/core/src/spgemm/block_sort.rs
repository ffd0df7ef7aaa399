//! SpGEMM phase 1: CTA-local expansion, single-pass radix sort, and local
//! duplicate reduction (the "Block Sort" bar of Figure 11; Figure 3 b–d).
//!
//! The key observation of Section III-C: because products expand in A's
//! storage order, each tile's entries are already ordered by output row, so
//! **one** stable radix sort on the column index makes all duplicates
//! adjacent — half the passes of two-phase ESC sorting (Figure 4). The sort
//! width is `⌈log2(num_cols)⌉` bits only, and when column bits plus
//! permutation bits fit in 32 the permutation rides in the unused upper
//! key bits, turning the pair sort into a cheaper keys-only sort.

use mps_simt::block::radix_sort::{block_radix_sort_keys, block_radix_sort_pairs};
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::{pack_key, CsrMatrix};

use super::setup::Expansion;
use crate::config::SpgemmConfig;

/// Output of one CTA's block-sort phase.
#[derive(Debug, Clone)]
pub struct TileReduced {
    /// Locally unique (row,col) keys in the tile's (col, row) sort order.
    pub unique_keys: Vec<u64>,
    /// Sorted position → original product offset within the tile. Stored to
    /// global memory as 16-bit integers (a tile holds at most
    /// [`SpgemmConfig::MAX_TILE_PRODUCTS`] products; 1408 by default).
    pub perm: Vec<u16>,
    /// `head[s]` marks sorted position `s` as the first of a duplicate run.
    pub head: Vec<bool>,
}

/// Bits needed to radix-sort values in `0..n`.
pub fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Run the block-sort phase over the whole product space.
pub fn block_sort(
    device: &Device,
    a: &CsrMatrix,
    b: &CsrMatrix,
    exp: &Expansion,
    cfg: &SpgemmConfig,
) -> (Vec<TileReduced>, LaunchStats) {
    let nv = cfg.nv();
    let total = exp.products;
    let num_ctas = total.div_ceil(nv).max(1);
    let col_bits = bits_for(b.num_cols);
    let perm_bits = bits_for(nv);
    let keys_only = col_bits + perm_bits <= 32;

    let launch = LaunchConfig::new(num_ctas, cfg.block_threads);
    let (tiles, stats) = launch_map_phased(
        device,
        "spgemm_block_sort",
        Phase::BlockSort,
        launch,
        |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(total);
            let count = hi - lo;

            // Expand the tile's (row, col) coordinates, one A nonzero's run
            // of B's row at a time. Values are NOT formed in this phase (the
            // χ placeholders of Figure 3a).
            let mut rows: Vec<u32> = Vec::with_capacity(count);
            let mut keys: Vec<u32> = Vec::with_capacity(count);
            exp.walk_segments(cta, lo, hi, |j, ts| {
                let (row, bpos) = (exp.a_row_of_nnz[j], b.row_offsets[a.col_idx[j] as usize]);
                // Runs are often a single product: push, not a copy call.
                for &col in &b.col_idx[bpos + ts.start..bpos + ts.end] {
                    rows.push(row);
                    keys.push(col);
                }
            });
            // Traffic: A column indices (sequential), B row offsets and column
            // indices (gathered by referenced row, contiguous runs inside it).
            cta.read_coalesced(count, 4);
            cta.gather_range(lo..hi, 4);

            // Single-pass stable radix sort on the column index. The sorted
            // permutation either rides in the upper key bits (keys-only sort)
            // or travels as an explicit 16-bit value (pair sort); either way
            // the low `col_bits` of each sorted key are its column.
            let perm: Vec<u16> = if keys_only {
                for (i, k) in keys.iter_mut().enumerate() {
                    *k |= (i as u32) << col_bits;
                }
                block_radix_sort_keys(cta, &mut keys, 0, col_bits);
                keys.iter().map(|&k| (k >> col_bits) as u16).collect()
            } else {
                let mut vals: Vec<u32> = (0..count as u32).collect();
                block_radix_sort_pairs(cta, &mut keys, &mut vals, 0, col_bits);
                vals.iter().map(|&v| v as u16).collect()
            };
            let col_mask = u32::MAX.checked_shr(32 - col_bits).unwrap_or(0);

            // Scan sorted entries for duplicate heads and reduce locally. Two
            // entries are duplicates when both row and col match; rows within a
            // column group are non-decreasing, so duplicates are adjacent.
            cta.alu(3 * count as u64);
            let mut unique_keys = Vec::with_capacity(count);
            let mut head = Vec::with_capacity(count);
            let mut prev: Option<(u32, u32)> = None;
            for (&p, &k) in perm.iter().zip(&keys) {
                let rc = (rows[p as usize], k & col_mask);
                let is_head = prev != Some(rc);
                head.push(is_head);
                if is_head {
                    unique_keys.push(pack_key(rc.0, rc.1));
                }
                prev = Some(rc);
            }

            // Store: 16-bit permutation + packed head bits + the reduced pairs.
            cta.write_coalesced(count, 2);
            cta.write_coalesced(count.div_ceil(8), 1);
            cta.write_coalesced(unique_keys.len(), 8);

            TileReduced {
                unique_keys,
                perm,
                head,
            }
        },
    );
    (tiles, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spgemm::setup::setup;
    use mps_sparse::{unpack_key, CooMatrix};

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

    /// Figure 3 b–d: with two tiles of ~6 products, tile 0's six entries
    /// reduce to four unique pairs and tile 1's five stay five.
    #[test]
    fn figure_three_tiles_reduce_locally() {
        let (a, b) = paper_ab();
        let (exp, _) = setup(&dev(), &a, &b);
        let cfg = SpgemmConfig {
            block_threads: 2,
            items_per_thread: 3,
            global_sort_nv: 64,
            ..SpgemmConfig::default()
        };
        let (tiles, _) = block_sort(&dev(), &a, &b, &exp, &cfg);
        assert_eq!(tiles.len(), 2);
        // Tile 0 = products 0..6: (0,0),(1,3),(1,1),(1,1),(1,0),(1,3)
        // → unique {(0,0),(1,0),(1,1),(1,3)}.
        let t0: Vec<(u32, u32)> = tiles[0]
            .unique_keys
            .iter()
            .map(|&k| unpack_key(k))
            .collect();
        assert_eq!(t0.len(), 4);
        assert!(t0.contains(&(0, 0)) && t0.contains(&(1, 0)));
        assert!(t0.contains(&(1, 1)) && t0.contains(&(1, 3)));
        // Tile 1 = products 6..11: (1,1),(2,3),(2,1),(3,3),(3,1) — all unique.
        assert_eq!(tiles[1].unique_keys.len(), 5);
    }

    #[test]
    fn duplicates_are_adjacent_after_column_sort() {
        let (a, b) = paper_ab();
        let (exp, _) = setup(&dev(), &a, &b);
        let cfg = SpgemmConfig::default(); // everything in one tile
        let (tiles, _) = block_sort(&dev(), &a, &b, &exp, &cfg);
        assert_eq!(tiles.len(), 1);
        let t = &tiles[0];
        // 11 products → 9 unique pairs within one tile (Figure 3d+e merged):
        // (1,1) appears 3× and (1,3) 2×.
        assert_eq!(t.unique_keys.len(), 8);
        assert_eq!(t.head.iter().filter(|&&h| h).count(), 8);
        assert_eq!(t.perm.len(), 11);
    }

    #[test]
    fn permutation_is_valid() {
        let (a, b) = paper_ab();
        let (exp, _) = setup(&dev(), &a, &b);
        let (tiles, _) = block_sort(&dev(), &a, &b, &exp, &SpgemmConfig::default());
        for t in &tiles {
            let mut seen = vec![false; t.perm.len()];
            for &p in &t.perm {
                assert!(!seen[p as usize], "duplicate perm entry");
                seen[p as usize] = true;
            }
        }
    }

    #[test]
    fn bits_for_covers_powers_of_two() {
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(1024), 10);
        assert_eq!(bits_for(1025), 11);
    }

    #[test]
    fn empty_product_space_gives_empty_tiles() {
        let a = CsrMatrix::zeros(3, 3);
        let b = CsrMatrix::zeros(3, 3);
        let (exp, _) = setup(&dev(), &a, &b);
        let (tiles, _) = block_sort(&dev(), &a, &b, &exp, &SpgemmConfig::default());
        assert_eq!(tiles.len(), 1);
        assert!(tiles[0].unique_keys.is_empty());
    }
}
