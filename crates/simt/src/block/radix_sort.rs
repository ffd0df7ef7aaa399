//! Block-wide LSD radix sort (CUB-style).
//!
//! Sorts a CTA tile of `u32` keys (optionally carrying a `u32` value) over a
//! caller-chosen bit range. The digit width is [`RADIX_BITS`] bits per pass,
//! so narrowing the sorted bit range reduces the number of ranking passes —
//! the optimization Figure 4 of the paper quantifies (`1P(28-bits)` …
//! `1P(12-bits)`), enabled by sorting only `ceil(log2(n_cols))` bits and
//! embedding permutation indices in the unused upper key bits.
//!
//! Cost per digit pass per item: ranking through shared memory (8 shared
//! ops, 16 ALU) plus 3 barriers per pass; moving a value payload adds 2
//! shared + 2 ALU per item per pass.

use crate::cta::Cta;

/// Digit width of one ranking pass.
pub const RADIX_BITS: u32 = 4;

/// Ranking passes needed to sort `bits` key bits.
pub fn passes_for_bits(bits: u32) -> u32 {
    bits.div_ceil(RADIX_BITS)
}

/// Cost facts reported by a block sort invocation (consumed by the Fig. 4
/// microbenchmark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSortCost {
    pub digit_passes: u32,
    pub items: usize,
}

const SHMEM_PER_ITEM_PASS: u64 = 8;
const ALU_PER_ITEM_PASS: u64 = 16;
const VALUE_SHMEM_PER_ITEM_PASS: u64 = 2;
const VALUE_ALU_PER_ITEM_PASS: u64 = 2;
const SYNCS_PER_PASS: u64 = 3;

fn charge_passes(cta: &mut Cta, items: usize, passes: u32, with_values: bool) {
    let n = items as u64;
    let p = passes as u64;
    let mut shmem = SHMEM_PER_ITEM_PASS;
    let mut alu = ALU_PER_ITEM_PASS;
    if with_values {
        shmem += VALUE_SHMEM_PER_ITEM_PASS;
        alu += VALUE_ALU_PER_ITEM_PASS;
    }
    cta.shmem(shmem * n * p);
    cta.alu(alu * n * p);
    for _ in 0..p * SYNCS_PER_PASS {
        cta.sync();
    }
}

/// Widest digit the host counting sort ranks per pass.
const HOST_DIGIT_BITS: u32 = 8;

/// Stable LSD counting sort of `keys` (and `values`, moved alongside when
/// given) by the bit range `[begin_bit, end_bit)`: the same order a stable
/// comparison sort on the masked key gives, in passes of up to
/// [`HOST_DIGIT_BITS`] bits.
fn counting_sort(keys: &mut [u32], mut values: Option<&mut [u32]>, begin_bit: u32, end_bit: u32) {
    assert!(
        begin_bit <= end_bit && end_bit <= 32,
        "bit range {begin_bit}..{end_bit} is not within a 32-bit key"
    );
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let mut key_tmp = vec![0u32; n];
    let mut value_tmp = vec![0u32; if values.is_some() { n } else { 0 }];
    let mut counts = [0usize; 1 << HOST_DIGIT_BITS];
    let mut shift = begin_bit;
    while shift < end_bit {
        let bits = HOST_DIGIT_BITS.min(end_bit - shift);
        let mask = (1u32 << bits) - 1;
        let digit = |k: u32| ((k >> shift) & mask) as usize;
        let counts = &mut counts[..1 << bits];
        counts.fill(0);
        for &k in keys.iter() {
            counts[digit(k)] += 1;
        }
        let mut running = 0;
        for c in counts.iter_mut() {
            let here = *c;
            *c = running;
            running += here;
        }
        for (i, &k) in keys.iter().enumerate() {
            let d = digit(k);
            key_tmp[counts[d]] = k;
            if let Some(v) = values.as_deref() {
                value_tmp[counts[d]] = v[i];
            }
            counts[d] += 1;
        }
        keys.copy_from_slice(&key_tmp);
        if let Some(v) = values.as_deref_mut() {
            v.copy_from_slice(&value_tmp);
        }
        shift += bits;
    }
}

/// Stable keys-only sort of the bit range `[begin_bit, end_bit)`.
pub fn block_radix_sort_keys(
    cta: &mut Cta,
    keys: &mut [u32],
    begin_bit: u32,
    end_bit: u32,
) -> BlockSortCost {
    let passes = passes_for_bits(end_bit - begin_bit);
    charge_passes(cta, keys.len(), passes, false);
    counting_sort(keys, None, begin_bit, end_bit);
    BlockSortCost {
        digit_passes: passes,
        items: keys.len(),
    }
}

/// Stable key-value pair sort of the bit range `[begin_bit, end_bit)`.
pub fn block_radix_sort_pairs(
    cta: &mut Cta,
    keys: &mut [u32],
    values: &mut [u32],
    begin_bit: u32,
    end_bit: u32,
) -> BlockSortCost {
    assert_eq!(
        keys.len(),
        values.len(),
        "pair sort needs equal-length tiles"
    );
    let passes = passes_for_bits(end_bit - begin_bit);
    charge_passes(cta, keys.len(), passes, true);
    counting_sort(keys, Some(values), begin_bit, end_bit);
    BlockSortCost {
        digit_passes: passes,
        items: keys.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cta() -> Cta {
        Cta::new(0, 1, 128, 32)
    }

    #[test]
    fn passes_round_up() {
        assert_eq!(passes_for_bits(0), 0);
        assert_eq!(passes_for_bits(1), 1);
        assert_eq!(passes_for_bits(4), 1);
        assert_eq!(passes_for_bits(5), 2);
        assert_eq!(passes_for_bits(32), 8);
    }

    #[test]
    fn keys_sort_full_range() {
        let mut c = cta();
        let mut keys = vec![5u32, 1, 4, 1, 3];
        block_radix_sort_keys(&mut c, &mut keys, 0, 32);
        assert_eq!(keys, vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn partial_bit_range_sort_is_stable_on_upper_bits() {
        let mut c = cta();
        // Low byte is the sort key; high byte is a payload tag that must
        // keep insertion order within equal low bytes (stability).
        let mut keys = vec![0x0102u32, 0x0201, 0x0301, 0x0402];
        block_radix_sort_keys(&mut c, &mut keys, 0, 8);
        assert_eq!(keys, vec![0x0201, 0x0301, 0x0102, 0x0402]);
    }

    #[test]
    fn pair_sort_carries_values() {
        let mut c = cta();
        let mut keys = vec![3u32, 1, 2];
        let mut vals = vec![30u32, 10, 20];
        block_radix_sort_pairs(&mut c, &mut keys, &mut vals, 0, 32);
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(vals, vec![10, 20, 30]);
    }

    #[test]
    fn narrower_bits_cost_fewer_cycles() {
        let model = crate::cost::CostModel::default();
        let mut wide = cta();
        let mut keys: Vec<u32> = (0..1408).rev().collect();
        block_radix_sort_keys(&mut wide, &mut keys.clone(), 0, 28);
        let mut narrow = cta();
        block_radix_sort_keys(&mut narrow, &mut keys, 0, 12);
        let cw = model.cta_cycles(wide.counters());
        let cn = model.cta_cycles(narrow.counters());
        assert!(cn < cw, "12-bit sort {cn} should beat 28-bit {cw}");
    }

    #[test]
    fn pair_sort_costs_more_than_keys_only() {
        let model = crate::cost::CostModel::default();
        let keys: Vec<u32> = (0..1408).rev().collect();
        let mut a = cta();
        block_radix_sort_keys(&mut a, &mut keys.clone(), 0, 32);
        let mut b = cta();
        let mut vals = vec![0u32; 1408];
        block_radix_sort_pairs(&mut b, &mut keys.clone(), &mut vals, 0, 32);
        assert!(model.cta_cycles(b.counters()) > model.cta_cycles(a.counters()));
    }

    #[test]
    fn zero_width_range_leaves_tile_untouched() {
        let mut c = cta();
        let mut keys = vec![9u32, 3, 7];
        block_radix_sort_keys(&mut c, &mut keys, 8, 8);
        assert_eq!(keys, vec![9, 3, 7]);
        assert_eq!(c.counters().syncs, 0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn pair_sort_length_mismatch_panics() {
        let mut c = cta();
        block_radix_sort_pairs(&mut c, &mut [1u32, 2], &mut [1u32], 0, 32);
    }

    /// The sort written as a stable comparison sort on the masked key.
    fn reference_order(pairs: &mut [(u32, u32)], begin_bit: u32, end_bit: u32) {
        let width = end_bit - begin_bit;
        let mask = if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        pairs.sort_by_key(|&(k, _)| {
            if width == 0 {
                0
            } else {
                (k >> begin_bit) & mask
            }
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(120))]

        #[test]
        fn counting_sort_matches_a_stable_sort_on_the_masked_key(
            keys in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..1500),
            begin in 0u32..33,
            width in 0u32..33,
            narrow in 0u32..3,
        ) {
            let sampled = (begin.min(32), (begin + width).min(32));
            // Every sample also runs the empty range, the full 32-bit
            // range and ranges starting above bit 0.
            for (begin_bit, end_bit) in [sampled, (0, 0), (0, 32), (9, 9), (7, 32), (31, 32), (4, 13)] {
                // Keys drawn from a few values exercise equal digits (stability).
                let keys: Vec<u32> = keys.iter().map(|&k| if narrow == 0 { (k % 7) << begin_bit.min(28) } else { k }).collect();
                let vals: Vec<u32> = (0..keys.len() as u32).collect();
                let mut want: Vec<(u32, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
                reference_order(&mut want, begin_bit, end_bit);

                let mut k = keys.clone();
                let mut c = cta();
                block_radix_sort_keys(&mut c, &mut k, begin_bit, end_bit);
                let want_keys: Vec<u32> = want.iter().map(|p| p.0).collect();
                proptest::prop_assert_eq!(&k, &want_keys);

                let (mut k, mut v) = (keys.clone(), vals.clone());
                let mut c = cta();
                block_radix_sort_pairs(&mut c, &mut k, &mut v, begin_bit, end_bit);
                let got: Vec<(u32, u32)> = k.into_iter().zip(v).collect();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn charges_depend_on_the_bit_range_only() {
        let mut a = cta();
        block_radix_sort_pairs(&mut a, &mut [5u32, 1, 4], &mut [0, 1, 2], 3, 21);
        let k = a.counters();
        // 18 bits = 5 passes of 4 bits over 3 items, values riding along.
        assert_eq!(
            (k.shmem_ops, k.alu_ops, k.syncs),
            (10 * 3 * 5, 18 * 3 * 5, 15)
        );
    }
}
