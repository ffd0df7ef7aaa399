//! Device-level LSD radix sort over global memory.
//!
//! The SpGEMM pipeline's *Global Sort* phase and the ESC baseline both rest
//! on this primitive. Like the paper's implementation it can compute the
//! sorting **permutation only** (no payload movement), and it sorts only
//! the meaningful low bits of the key — `⌈log2(num_cols)⌉ + ⌈log2(num_rows)⌉`
//! for packed (row,col) pairs — so narrower matrices need fewer passes.
//!
//! Each digit pass runs two grid launches, mirroring hardware: an upsweep
//! that histograms each tile, and a downsweep that rank-scatters elements
//! to their pass destinations. Scatter traffic uses the *actual* destination
//! indices, so the coalescing model sees the genuine locality of the data
//! (nearly-sorted inputs scatter coherently, random inputs do not).

use mps_simt::grid::{launch_map_named, LaunchConfig, LaunchStats};
use mps_simt::Device;

/// Bits per digit pass of the device-wide sort.
pub const DIGIT_BITS: u32 = 8;

const RADIX: usize = 1 << DIGIT_BITS;

/// Digit passes needed to sort `bits` key bits.
pub fn device_passes_for_bits(bits: u32) -> u32 {
    bits.div_ceil(DIGIT_BITS)
}

/// Stable sorting permutation of `keys` by their low `bits` bits.
///
/// Returns `perm` such that `keys[perm[0]] <= keys[perm[1]] <= …` (stable:
/// equal keys keep input order), along with the simulated cost.
pub fn sort_permutation(
    device: &Device,
    keys: &[u64],
    bits: u32,
    nv: usize,
) -> (Vec<u32>, LaunchStats) {
    sort_permutation_with_payload(device, keys, bits, nv, 0)
}

/// Like [`sort_permutation`], but charges an additional `payload_bytes` of
/// per-element traffic on every digit pass — the cost profile of a sort
/// that drags its value payload through each pass (the ESC baseline's
/// behaviour) rather than computing a permutation only.
pub fn sort_permutation_with_payload(
    device: &Device,
    keys: &[u64],
    bits: u32,
    nv: usize,
    payload_bytes: usize,
) -> (Vec<u32>, LaunchStats) {
    assert!(nv > 0, "tile size must be positive");
    assert!(bits <= 64, "keys are 64-bit");
    let n = keys.len();
    let mut stats = LaunchStats::default();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if n <= 1 || bits == 0 {
        return (perm, stats);
    }

    // Current key and source index of each rank position, and the next
    // pass's, swapped after every pass.
    let mut cur: Vec<u64> = keys.to_vec();
    let mut next_keys = vec![0u64; n];
    let mut next_perm = vec![0u32; n];
    let num_tiles = n.div_ceil(nv);
    let cfg = LaunchConfig::new(num_tiles, 128);

    let passes = device_passes_for_bits(bits);
    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        let digit = |k: u64| ((k >> shift) as usize) & (RADIX - 1);

        // Upsweep: per-tile digit histograms.
        let cur_ref = &cur;
        let (histograms, up_stats) = launch_map_named(device, "radix_upsweep", cfg, move |cta| {
            let lo = cta.cta_id * nv;
            let hi = (lo + nv).min(n);
            cta.read_coalesced(hi - lo, 8);
            cta.alu(2 * (hi - lo) as u64);
            let mut hist = [0u32; RADIX];
            for &k in &cur_ref[lo..hi] {
                hist[digit(k)] += 1;
            }
            hist
        });
        stats.add(&up_stats);

        // Device-wide exclusive scan over (digit, tile) in digit-major
        // order — the standard radix offset table. Charged as one coalesced
        // pass over the histogram table.
        let mut offsets = vec![0u32; RADIX * num_tiles];
        let mut running = 0u32;
        for d in 0..RADIX {
            for (t, hist) in histograms.iter().enumerate() {
                offsets[d * num_tiles + t] = running;
                running += hist[d];
            }
        }

        // Downsweep: rank each tile's elements to their destinations.
        let offsets_ref = &offsets;
        let (destinations, down_stats) =
            launch_map_named(device, "radix_downsweep", cfg, move |cta| {
                let lo = cta.cta_id * nv;
                let hi = (lo + nv).min(n);
                cta.read_coalesced(2 * (hi - lo), 8 + payload_bytes);
                cta.alu(4 * (hi - lo) as u64);
                cta.shmem(4 * (hi - lo) as u64);
                cta.sync();
                let mut cursor = [0u32; RADIX];
                for d in 0..RADIX {
                    cursor[d] = offsets_ref[d * num_tiles + cta.cta_id];
                }
                let dst: Vec<u32> = cur_ref[lo..hi]
                    .iter()
                    .map(|&k| {
                        let d = digit(k);
                        cursor[d] += 1;
                        cursor[d] - 1
                    })
                    .collect();
                // Charge the genuine scatter pattern (key + permutation entry,
                // plus any payload riding along in this pass).
                cta.scatter(dst.iter().map(|&d| d as usize), 12 + payload_bytes);
                dst
            });
        stats.add(&down_stats);

        // Move every element to its destination.
        for (t, dst) in destinations.iter().enumerate() {
            let lo = t * nv;
            for (i, &d) in dst.iter().enumerate() {
                next_keys[d as usize] = cur[lo + i];
                next_perm[d as usize] = perm[lo + i];
            }
        }
        std::mem::swap(&mut cur, &mut next_keys);
        std::mem::swap(&mut perm, &mut next_perm);
    }
    (perm, stats)
}

/// Fully sort `(key, value)` pairs by the low `bits` of the key, dragging
/// the payload through every digit pass (the ESC/global-sort baseline cost
/// profile — the paper's Merge pipeline avoids exactly this by sorting a
/// permutation only).
pub fn sort_pairs<V: Copy + Send + Sync>(
    device: &Device,
    keys: &[u64],
    values: &[V],
    bits: u32,
    nv: usize,
) -> (Vec<u64>, Vec<V>, LaunchStats) {
    assert_eq!(keys.len(), values.len(), "keys/values length mismatch");
    let payload = std::mem::size_of::<V>();
    let (perm, mut stats) = sort_permutation_with_payload(device, keys, bits, nv, payload);
    // Payload gather pass: one launch applying the permutation.
    let n = keys.len();
    let num_tiles = n.div_ceil(nv.max(1)).max(1);
    let cfg = LaunchConfig::new(num_tiles, 128);
    let perm_ref = &perm;
    let vbytes = std::mem::size_of::<V>().max(1) + 8;
    let (tiles, gather_stats) = launch_map_named(device, "radix_gather", cfg, move |cta| {
        let lo = cta.cta_id * nv;
        let hi = (lo + nv).min(n);
        cta.gather(perm_ref[lo..hi].iter().map(|&p| p as usize), vbytes);
        cta.write_coalesced(hi - lo, vbytes);
        perm_ref[lo..hi]
            .iter()
            .map(|&p| (keys[p as usize], values[p as usize]))
            .collect::<Vec<_>>()
    });
    stats.add(&gather_stats);
    let mut out_keys = Vec::with_capacity(n);
    let mut out_vals = Vec::with_capacity(n);
    for tile in tiles {
        for (k, v) in tile {
            out_keys.push(k);
            out_vals.push(v);
        }
    }
    (out_keys, out_vals, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn permutation_sorts_small_input() {
        let keys = vec![5u64, 1, 9, 1, 0];
        let (perm, _) = sort_permutation(&dev(), &keys, 64, 2);
        let sorted: Vec<u64> = perm.iter().map(|&p| keys[p as usize]).collect();
        assert_eq!(sorted, vec![0, 1, 1, 5, 9]);
        // Stability: the two 1s keep input order (indices 1 then 3).
        assert_eq!(&perm[1..3], &[1, 3]);
    }

    #[test]
    fn limited_bits_ignore_high_bits() {
        let keys = vec![0x100u64 | 2, 0x200 | 1, 0x300 | 3];
        let (perm, _) = sort_permutation(&dev(), &keys, 8, 4);
        let low: Vec<u64> = perm.iter().map(|&p| keys[p as usize] & 0xff).collect();
        assert_eq!(low, vec![1, 2, 3]);
    }

    #[test]
    fn empty_and_singleton() {
        let (perm, _) = sort_permutation(&dev(), &[], 64, 8);
        assert!(perm.is_empty());
        let (perm, _) = sort_permutation(&dev(), &[42], 64, 8);
        assert_eq!(perm, vec![0]);
    }

    #[test]
    fn sort_pairs_moves_payload() {
        let keys = vec![3u64, 1, 2];
        let vals = vec!["c", "a", "b"];
        let (k, v, _) = sort_pairs(&dev(), &keys, &vals, 8, 2);
        assert_eq!(k, vec![1, 2, 3]);
        assert_eq!(v, vec!["a", "b", "c"]);
    }

    #[test]
    fn fewer_bits_cost_less() {
        let keys: Vec<u64> = (0..20_000)
            .map(|i| (i * 2654435761u64) & 0xffff_ffff)
            .collect();
        let (_, wide) = sort_permutation(&dev(), &keys, 32, 1024);
        let (_, narrow) = sort_permutation(&dev(), &keys, 16, 1024);
        assert!(narrow.sim_ms < wide.sim_ms);
    }

    proptest! {
        #[test]
        fn permutation_is_stable_sort(
            keys in proptest::collection::vec(0u64..1000, 0..500),
            nv in 1usize..600,
        ) {
            let (perm, _) = sort_permutation(&dev(), &keys, 64, nv);
            // perm is a permutation
            let mut seen = vec![false; keys.len()];
            for &p in &perm {
                prop_assert!(!seen[p as usize]);
                seen[p as usize] = true;
            }
            // sorted and stable
            let pairs: Vec<(u64, u32)> = perm.iter().map(|&p| (keys[p as usize], p)).collect();
            for w in pairs.windows(2) {
                prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
            }
        }
    }

    /// The downsweep as it was written before: per element a
    /// `(destination, key, permutation)` tuple, gathered into fresh
    /// buffers every pass. Kept to pin the simulated cost and the order.
    fn reference_sort_permutation(
        device: &Device,
        keys: &[u64],
        bits: u32,
        nv: usize,
        payload_bytes: usize,
    ) -> (Vec<u32>, LaunchStats) {
        let n = keys.len();
        let mut stats = LaunchStats::default();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        if n <= 1 || bits == 0 {
            return (perm, stats);
        }
        let mut cur: Vec<u64> = keys.to_vec();
        let num_tiles = n.div_ceil(nv);
        let cfg = LaunchConfig::new(num_tiles, 128);
        for pass in 0..device_passes_for_bits(bits) {
            let shift = pass * DIGIT_BITS;
            let digit = |k: u64| ((k >> shift) as usize) & (RADIX - 1);
            let cur_ref = &cur;
            let (histograms, up_stats) = launch_map_named(device, "radix_upsweep", cfg, |cta| {
                let lo = cta.cta_id * nv;
                let hi = (lo + nv).min(n);
                cta.read_coalesced(hi - lo, 8);
                cta.alu(2 * (hi - lo) as u64);
                let mut hist = vec![0u32; RADIX];
                for &k in &cur_ref[lo..hi] {
                    hist[digit(k)] += 1;
                }
                hist
            });
            stats.add(&up_stats);
            let mut offsets = vec![0u32; RADIX * num_tiles];
            let mut running = 0u32;
            for d in 0..RADIX {
                for (t, hist) in histograms.iter().enumerate() {
                    offsets[d * num_tiles + t] = running;
                    running += hist[d];
                }
            }
            let (offsets_ref, perm_ref) = (&offsets, &perm);
            let (scattered, down_stats) = launch_map_named(device, "radix_downsweep", cfg, |cta| {
                let lo = cta.cta_id * nv;
                let hi = (lo + nv).min(n);
                cta.read_coalesced(2 * (hi - lo), 8 + payload_bytes);
                cta.alu(4 * (hi - lo) as u64);
                cta.shmem(4 * (hi - lo) as u64);
                cta.sync();
                let mut cursor = vec![0u32; RADIX];
                let mut moves: Vec<(u32, u64, u32)> = Vec::with_capacity(hi - lo);
                for i in lo..hi {
                    let d = digit(cur_ref[i]);
                    let dst = offsets_ref[d * num_tiles + cta.cta_id] + cursor[d];
                    cursor[d] += 1;
                    moves.push((dst, cur_ref[i], perm_ref[i]));
                }
                cta.scatter(
                    moves.iter().map(|&(dst, _, _)| dst as usize),
                    12 + payload_bytes,
                );
                moves
            });
            stats.add(&down_stats);
            let mut next_keys = vec![0u64; n];
            let mut next_perm = vec![0u32; n];
            for tile in scattered {
                for (dst, key, p) in tile {
                    next_keys[dst as usize] = key;
                    next_perm[dst as usize] = p;
                }
            }
            cur = next_keys;
            perm = next_perm;
        }
        (perm, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        #[test]
        fn sort_matches_the_tuple_downsweep_bit_for_bit(
            keys in proptest::collection::vec(any::<u64>(), 0..1500),
            bits in 0u32..65,
            nv in 1usize..700,
            payload in 0usize..9,
            spread in 0u32..3,
        ) {
            // Narrow key ranges give long equal-digit runs (stability).
            let keys: Vec<u64> = keys.iter().map(|&k| if spread == 0 { k % 97 } else { k }).collect();
            let (perm, stats) = sort_permutation_with_payload(&dev(), &keys, bits, nv, payload);
            let (want, want_stats) = reference_sort_permutation(&dev(), &keys, bits, nv, payload);
            prop_assert_eq!(perm, want);
            prop_assert_eq!(&stats.per_cta_cycles, &want_stats.per_cta_cycles);
            prop_assert_eq!(stats.totals, want_stats.totals);
            prop_assert_eq!(stats.sim_ms.to_bits(), want_stats.sim_ms.to_bits());
        }
    }
}
