//! Partitioning searches: merge-path diagonal search and offset search.
//!
//! `merge_path_search` is the binary search along a cross diagonal of the
//! merge grid (Green et al., ICS'12; Figure 1a of the paper): given sorted
//! sequences `a` (x-axis) and `b` (y-axis) and a diagonal `d`, it returns
//! how many elements of `a` lie on the path before the diagonal. Equal keys
//! are consumed from `a` first, matching the serial stable merge.
//!
//! `binary_search_partition` finds, for a work-item index, the enclosing
//! segment in a sorted offsets array — the per-CTA row search of the SpMV
//! partition phase and the SpGEMM expansion setup.

use crate::cta::Cta;

fn log2_cost(n: usize) -> u64 {
    (usize::BITS - n.max(1).leading_zeros()) as u64
}

/// Merge-path diagonal search with an explicit "take from `a`" predicate.
///
/// `a_wins(x, y)` must return true when element `x` of `a` should be
/// consumed before element `y` of `b` (for a stable merge: `x <= y`).
/// Returns `i` such that the merge path crosses diagonal `diag` at
/// coordinates `(i, diag - i)`.
pub fn merge_path_search_by<T, F>(cta: &mut Cta, a: &[T], b: &[T], diag: usize, a_wins: F) -> usize
where
    F: Fn(&T, &T) -> bool,
{
    debug_assert!(diag <= a.len() + b.len());
    let mut lo = diag.saturating_sub(b.len());
    let mut hi = diag.min(a.len());
    cta.alu(log2_cost(hi - lo + 1) * 2);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if a_wins(&a[mid], &b[diag - 1 - mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merge-path diagonal search for `Ord` keys (stable: ties go to `a`).
pub fn merge_path_search<T: Ord>(cta: &mut Cta, a: &[T], b: &[T], diag: usize) -> usize {
    merge_path_search_by(cta, a, b, diag, |x, y| x <= y)
}

/// Index of the last offset `<= value` in a sorted `offsets` array
/// (`offsets[i] <= value < offsets[i+1]` ⇒ returns `i`). This locates the
/// segment (row) containing global work item `value`.
///
/// # Panics
/// Panics if `offsets` is empty or `value < offsets[0]`.
pub fn binary_search_partition(cta: &mut Cta, offsets: &[usize], value: usize) -> usize {
    assert!(!offsets.is_empty(), "offsets must be non-empty");
    assert!(value >= offsets[0], "value precedes the first segment");
    cta.alu(log2_cost(offsets.len()) * 2);
    // partition_point gives the count of offsets <= value; subtract one for
    // the enclosing segment index.
    offsets.partition_point(|&o| o <= value) - 1
}

/// Load-balancing search (ModernGPU's "load-balance" primitive): map each
/// of the work items `lo..hi` to the segment owning it, given the
/// exclusive prefix `scan` of segment sizes. This is the flat-expansion
/// walk underlying the SpGEMM product decomposition: one binary search
/// locates the first segment, then the cursor advances monotonically.
///
/// Calls `f(item, segment, rank)` where `rank = item - scan[segment]`.
///
/// # Panics
/// Panics (in the initial search) if `scan` is empty or `lo` precedes it.
pub fn load_balance_search(
    cta: &mut Cta,
    scan: &[usize],
    lo: usize,
    hi: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    load_balance_segments(cta, scan, lo, hi, |seg, ranks| {
        for rank in ranks {
            f(scan[seg] + rank, seg, rank);
        }
    });
}

/// [`load_balance_search`] handing over each owning segment once: calls
/// `f(segment, ranks)` for every segment with items in `lo..hi`, in order,
/// where `ranks` are those items' ranks within the segment. Charges
/// exactly what the per-item walk charges.
///
/// # Panics
/// Panics (in the initial search) if `scan` is empty or `lo` precedes it.
pub fn load_balance_segments(
    cta: &mut Cta,
    scan: &[usize],
    lo: usize,
    hi: usize,
    mut f: impl FnMut(usize, std::ops::Range<usize>),
) {
    if lo >= hi {
        return;
    }
    let mut seg = binary_search_partition(cta, scan, lo);
    cta.alu(2 * (hi - lo) as u64);
    let mut item = lo;
    while item < hi {
        while scan[seg + 1] <= item {
            seg += 1;
        }
        let end = scan[seg + 1].min(hi);
        f(seg, item - scan[seg]..end - scan[seg]);
        item = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cta() -> Cta {
        Cta::new(0, 1, 128, 32)
    }

    #[test]
    fn diagonal_endpoints() {
        let mut c = cta();
        let a = [1, 3, 5];
        let b = [2, 4, 6];
        assert_eq!(merge_path_search(&mut c, &a, &b, 0), 0);
        assert_eq!(merge_path_search(&mut c, &a, &b, 6), 3);
    }

    #[test]
    fn path_matches_serial_merge() {
        // Merging [1,3,5] and [2,4,6]: path consumes 1,2,3,4,5,6.
        // After d elements, i = count from a.
        let mut c = cta();
        let a = [1, 3, 5];
        let b = [2, 4, 6];
        let expected_i = [0, 1, 1, 2, 2, 3, 3];
        for (d, &want) in expected_i.iter().enumerate() {
            assert_eq!(merge_path_search(&mut c, &a, &b, d), want, "diag {d}");
        }
    }

    #[test]
    fn ties_consume_a_first() {
        let mut c = cta();
        let a = [7, 7];
        let b = [7, 7];
        // First two path steps must take both elements of a.
        assert_eq!(merge_path_search(&mut c, &a, &b, 1), 1);
        assert_eq!(merge_path_search(&mut c, &a, &b, 2), 2);
        assert_eq!(merge_path_search(&mut c, &a, &b, 3), 2);
    }

    #[test]
    fn one_empty_side() {
        let mut c = cta();
        let a: [u32; 0] = [];
        let b = [1, 2, 3];
        assert_eq!(merge_path_search(&mut c, &a, &b, 2), 0);
        assert_eq!(merge_path_search(&mut c, &b, &a, 2), 2);
    }

    #[test]
    fn partition_search_locates_enclosing_segment() {
        let mut c = cta();
        let offsets = [0usize, 3, 3, 7, 10];
        assert_eq!(binary_search_partition(&mut c, &offsets, 0), 0);
        assert_eq!(binary_search_partition(&mut c, &offsets, 2), 0);
        // value 3: rows 1 (empty) and 2 start at 3; last offset <= 3 wins.
        assert_eq!(binary_search_partition(&mut c, &offsets, 3), 2);
        assert_eq!(binary_search_partition(&mut c, &offsets, 9), 3);
        assert_eq!(binary_search_partition(&mut c, &offsets, 100), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn partition_search_rejects_empty() {
        let mut c = cta();
        binary_search_partition(&mut c, &[], 0);
    }

    #[test]
    fn load_balance_maps_items_to_segments() {
        let mut c = cta();
        // Segments of sizes [2, 0, 3, 1] → scan [0, 2, 2, 5, 6].
        let scan = [0usize, 2, 2, 5, 6];
        let mut seen = Vec::new();
        load_balance_search(&mut c, &scan, 0, 6, |item, seg, rank| {
            seen.push((item, seg, rank));
        });
        assert_eq!(
            seen,
            vec![
                (0, 0, 0),
                (1, 0, 1),
                (2, 2, 0), // empty segment 1 skipped
                (3, 2, 1),
                (4, 2, 2),
                (5, 3, 0),
            ]
        );
    }

    #[test]
    fn load_balance_partial_ranges_compose() {
        let mut c = cta();
        let scan = [0usize, 4, 4, 9, 12];
        let mut full = Vec::new();
        load_balance_search(&mut c, &scan, 0, 12, |i, s, r| full.push((i, s, r)));
        let mut parts = Vec::new();
        load_balance_search(&mut c, &scan, 0, 5, |i, s, r| parts.push((i, s, r)));
        load_balance_search(&mut c, &scan, 5, 12, |i, s, r| parts.push((i, s, r)));
        assert_eq!(full, parts);
    }

    #[test]
    fn load_balance_empty_range_is_noop() {
        let mut c = cta();
        load_balance_search(&mut c, &[0, 3], 2, 2, |_, _, _| panic!("no items"));
    }

    #[test]
    fn searches_charge_logarithmic_alu() {
        let mut c = cta();
        let offsets: Vec<usize> = (0..1024).collect();
        binary_search_partition(&mut c, &offsets, 500);
        assert!(c.counters().alu_ops <= 2 * 11);
    }
}
