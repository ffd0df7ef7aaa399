//! Block-wide segmented reduction.
//!
//! The workhorse of the merge SpMV reduction phase: a CTA holds a tile of
//! per-nonzero products in blocked order together with each product's
//! (non-decreasing) segment id — the expanded row index. A segmented scan
//! produces the sum of every segment that *ends* inside the tile; the
//! trailing segment may continue into the next CTA, so its partial sum is
//! returned as the carry-out and folded in later by the update phase.
//!
//! Cost: a flag-augmented scan — `3n` ALU (combine + flag test), `2n`
//! shared ops and two barriers.

use crate::cta::Cta;

/// Result of a segmented reduction over one CTA tile.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedReduceOut {
    /// `(segment id, sum)` for every segment whose last element lies in
    /// this tile, in segment order — excluding the tile's final segment.
    pub complete: Vec<(usize, f64)>,
    /// Partial sum of the tile's final segment (the CTA carry-out).
    /// `None` only for an empty tile.
    pub carry: Option<(usize, f64)>,
}

/// Charge a segmented reduction over a tile of `items` entries: the
/// flag-augmented scan of [`block_segmented_reduce`]. Kernels that find
/// their segments by walking row offsets, rather than materializing
/// per-item segment ids, charge the same scan through this.
pub fn charge_segmented_reduce(cta: &mut Cta, items: usize) {
    cta.alu(3 * items as u64);
    cta.shmem(2 * items as u64);
    cta.sync();
    cta.sync();
}

/// Segmented sum over `values`, where `segments[i]` is the non-decreasing
/// segment id of `values[i]`.
///
/// The plan builds find their segments from row offsets and charge the
/// scan through [`charge_segmented_reduce`]; this materializing form is
/// what their references (`mps_core::reference`) run.
///
/// # Panics
/// Debug-asserts that `segments` is non-decreasing and the slices have
/// equal length.
pub fn block_segmented_reduce(
    cta: &mut Cta,
    values: &[f64],
    segments: &[usize],
) -> SegmentedReduceOut {
    debug_assert_eq!(values.len(), segments.len());
    debug_assert!(segments.windows(2).all(|w| w[0] <= w[1]));

    let n = values.len();
    charge_segmented_reduce(cta, n);

    let mut complete = Vec::new();
    let mut carry = None;
    let mut i = 0;
    while i < n {
        let seg = segments[i];
        let mut sum = 0.0;
        while i < n && segments[i] == seg {
            sum += values[i];
            i += 1;
        }
        if i == n {
            carry = Some((seg, sum));
        } else {
            complete.push((seg, sum));
        }
    }
    SegmentedReduceOut { complete, carry }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cta() -> Cta {
        Cta::new(0, 1, 128, 32)
    }

    #[test]
    fn single_segment_is_all_carry() {
        let mut c = cta();
        let out = block_segmented_reduce(&mut c, &[1.0, 2.0, 3.0], &[5, 5, 5]);
        assert!(out.complete.is_empty());
        assert_eq!(out.carry, Some((5, 6.0)));
    }

    #[test]
    fn interior_segments_complete_trailing_is_carry() {
        let mut c = cta();
        let vals = [1.0, 1.0, 2.0, 3.0, 4.0, 4.0];
        let segs = [0, 0, 1, 2, 3, 3];
        let out = block_segmented_reduce(&mut c, &vals, &segs);
        assert_eq!(out.complete, vec![(0, 2.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(out.carry, Some((3, 8.0)));
    }

    #[test]
    fn empty_tile_has_no_carry() {
        let mut c = cta();
        let out = block_segmented_reduce(&mut c, &[], &[]);
        assert!(out.complete.is_empty());
        assert!(out.carry.is_none());
    }

    #[test]
    fn segment_ids_may_skip_values() {
        // Empty rows never appear as segment ids; ids just jump.
        let mut c = cta();
        let out = block_segmented_reduce(&mut c, &[1.0, 2.0], &[0, 7]);
        assert_eq!(out.complete, vec![(0, 1.0)]);
        assert_eq!(out.carry, Some((7, 2.0)));
    }

    #[test]
    fn cost_charges_scan_shape() {
        let mut c = cta();
        block_segmented_reduce(&mut c, &[0.0; 64], &[0; 64]);
        assert_eq!(c.counters().alu_ops, 192);
        assert_eq!(c.counters().shmem_ops, 128);
        assert_eq!(c.counters().syncs, 2);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn decreasing_segments_panic_in_debug() {
        let mut c = cta();
        block_segmented_reduce(&mut c, &[1.0, 1.0], &[1, 0]);
    }
}
