//! Parallel set operations over sorted sequences via balanced path.
//!
//! The paper extends merge-path partitioning to *set unions* for SpAdd; the
//! same key-rank decomposition supports intersection, difference and
//! symmetric difference (its citation \[4\], ModernGPU). Duplicate keys pair
//! up by rank: rank `r` in `a` matches rank `r` in `b`; matched pairs are
//! combined, unmatched surplus flows through according to the operation.
//!
//! Following Section III-B the operation runs in two balanced-path passes:
//! a *count* pass sizes the output (so the caller can allocate exactly),
//! then a *fill* pass materializes it. Each tile is (nv ± 1) input elements
//! regardless of duplication structure — perfectly balanced work.

use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};

use crate::balanced_path::{partition_balanced, BalancedPoint};
use crate::Key;

/// Per-phase cost of a balanced-path set operation: the partition search,
/// the count pass, and the fill pass (the paper's SpAdd breakdown).
#[derive(Debug, Clone, Default)]
pub struct SetOpStats {
    pub partition: LaunchStats,
    pub count: LaunchStats,
    pub fill: LaunchStats,
}

impl SetOpStats {
    /// All three phases folded into one [`LaunchStats`].
    pub fn combined(&self) -> LaunchStats {
        let mut stats = self.partition.clone();
        stats.add(&self.count);
        stats.add(&self.fill);
        stats
    }

    /// Total simulated milliseconds across the three phases.
    pub fn sim_ms(&self) -> f64 {
        self.partition.sim_ms + self.count.sim_ms + self.fill.sim_ms
    }
}

/// A set operation over sorted multisets with rank-matched duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Every rank present in either input (matched ranks combined).
    Union,
    /// Only ranks present in both inputs.
    Intersection,
    /// Ranks of `a` with no matching rank in `b`.
    Difference,
    /// Ranks present in exactly one input.
    SymmetricDifference,
}

impl SetOp {
    fn emit_a_only(self) -> bool {
        matches!(
            self,
            SetOp::Union | SetOp::Difference | SetOp::SymmetricDifference
        )
    }

    fn emit_b_only(self) -> bool {
        matches!(self, SetOp::Union | SetOp::SymmetricDifference)
    }

    fn emit_matched(self) -> bool {
        matches!(self, SetOp::Union | SetOp::Intersection)
    }
}

/// One step of the rank-zipped traversal.
#[derive(Debug, Clone, Copy)]
enum Visit {
    /// Element of `a` with no matching rank in `b`.
    AOnly(usize),
    /// Element of `b` with no matching rank in `a`.
    BOnly(usize),
    /// Rank-matched pair `(a index, b index)`.
    Both(usize, usize),
}

/// Serial rank-zipped traversal of one tile.
fn tile_walk<K: Ord + Copy>(a: &[K], b: &[K], mut f: impl FnMut(Visit)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i] < b[j]) {
            f(Visit::AOnly(i));
            i += 1;
        } else if i >= a.len() || b[j] < a[i] {
            f(Visit::BOnly(j));
            j += 1;
        } else {
            f(Visit::Both(i, j));
            i += 1;
            j += 1;
        }
    }
}

fn tile_count<K: Ord + Copy>(op: SetOp, a: &[K], b: &[K]) -> usize {
    let mut count = 0;
    tile_walk(a, b, |v| {
        count += match v {
            Visit::AOnly(_) => op.emit_a_only() as usize,
            Visit::BOnly(_) => op.emit_b_only() as usize,
            Visit::Both(..) => op.emit_matched() as usize,
        }
    });
    count
}

/// Sequential reference implementation (the oracle used in tests).
pub fn set_op_ref<K: Key, V: Copy>(
    op: SetOp,
    a_keys: &[K],
    a_vals: &[V],
    b_keys: &[K],
    b_vals: &[V],
    combine: impl Fn(V, V) -> V,
) -> (Vec<K>, Vec<V>) {
    let mut keys = Vec::new();
    let mut vals = Vec::new();
    tile_walk(a_keys, b_keys, |visit| match visit {
        Visit::AOnly(i) if op.emit_a_only() => {
            keys.push(a_keys[i]);
            vals.push(a_vals[i]);
        }
        Visit::BOnly(j) if op.emit_b_only() => {
            keys.push(b_keys[j]);
            vals.push(b_vals[j]);
        }
        Visit::Both(i, j) if op.emit_matched() => {
            keys.push(a_keys[i]);
            vals.push(combine(a_vals[i], b_vals[j]));
        }
        _ => {}
    });
    (keys, vals)
}

/// Parallel set operation over key-value sequences sorted by key.
///
/// Returns the output keys/values and the accumulated simulated cost of the
/// partition, count and fill kernels.
///
/// # Panics
/// Panics if key/value lengths mismatch or inputs are unsorted (debug).
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature: two key/value operand pairs
pub fn set_op_pairs<K: Key, V: Copy + Send + Sync>(
    device: &Device,
    op: SetOp,
    a_keys: &[K],
    a_vals: &[V],
    b_keys: &[K],
    b_vals: &[V],
    combine: impl Fn(V, V) -> V + Sync,
    nv: usize,
) -> (Vec<K>, Vec<V>, SetOpStats) {
    assert_eq!(a_keys.len(), a_vals.len(), "a keys/values length mismatch");
    assert_eq!(b_keys.len(), b_vals.len(), "b keys/values length mismatch");
    let val_bytes = std::mem::size_of::<V>().max(1);
    let (tiles, total, stats) = run_set_op(device, op, a_keys, b_keys, val_bytes, nv, |p0, p1| {
        let (ta, tb) = (&a_keys[p0.a..p1.a], &b_keys[p0.b..p1.b]);
        let (va, vb) = (&a_vals[p0.a..p1.a], &b_vals[p0.b..p1.b]);
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        tile_walk(ta, tb, |visit| match visit {
            Visit::AOnly(i) if op.emit_a_only() => {
                keys.push(ta[i]);
                vals.push(va[i]);
            }
            Visit::BOnly(j) if op.emit_b_only() => {
                keys.push(tb[j]);
                vals.push(vb[j]);
            }
            Visit::Both(i, j) if op.emit_matched() => {
                keys.push(ta[i]);
                vals.push(combine(va[i], vb[j]));
            }
            _ => {}
        });
        (keys, vals)
    });

    let mut keys = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for (tk, tv) in tiles {
        keys.extend(tk);
        vals.extend(tv);
    }
    debug_assert_eq!(keys.len(), total, "count pass disagrees with fill pass");
    (keys, vals, stats)
}

/// The launches of [`set_op_pairs`] for values of `val_bytes` bytes, for a
/// caller that assembles the output itself: returns the output length
/// the count pass found and the same simulated cost, materializing no
/// tile.
pub fn set_op_count<K: Key>(
    device: &Device,
    op: SetOp,
    a_keys: &[K],
    b_keys: &[K],
    val_bytes: usize,
    nv: usize,
) -> (usize, SetOpStats) {
    let (_, total, stats) = run_set_op(device, op, a_keys, b_keys, val_bytes, nv, |_, _| ());
    (total, stats)
}

/// The three kernels of a balanced-path set operation: the partition, the
/// count pass, and the fill pass, whose tiles `fill` materializes from
/// their partition points. Returns the tiles, the output length and the
/// cost.
fn run_set_op<K: Key, T: Send>(
    device: &Device,
    op: SetOp,
    a_keys: &[K],
    b_keys: &[K],
    val_bytes: usize,
    nv: usize,
    fill: impl Fn(BalancedPoint, BalancedPoint) -> T + Sync,
) -> (Vec<T>, usize, SetOpStats) {
    debug_assert!(a_keys.windows(2).all(|w| w[0] <= w[1]), "a not sorted");
    debug_assert!(b_keys.windows(2).all(|w| w[0] <= w[1]), "b not sorted");

    let (points, partition_stats) = partition_balanced(device, a_keys, b_keys, nv);
    let num_tiles = points.len() - 1;
    let tile_ranges = |t: usize| -> (BalancedPoint, BalancedPoint) { (points[t], points[t + 1]) };

    // Pass 1: count outputs per tile (the allocation pass of Section III-B).
    let cfg = LaunchConfig::new(num_tiles, 128);
    let (counts, count_stats) =
        launch_map_phased(device, "set_op_count", Phase::Count, cfg, |cta| {
            let (p0, p1) = tile_ranges(cta.cta_id);
            let (ta, tb) = (&a_keys[p0.a..p1.a], &b_keys[p0.b..p1.b]);
            cta.read_coalesced(ta.len() + tb.len(), K::BYTES);
            cta.alu(2 * (ta.len() + tb.len()) as u64);
            tile_count(op, ta, tb)
        });

    // Host-side exclusive scan of tile counts (a single cheap kernel on the
    // device; charged as one coalesced pass).
    let total: usize = counts.iter().sum();

    // Pass 2: fill. Each tile stages its slice in shared memory, walks the
    // zip order, and writes its compacted range of the counted length.
    let counts_ref = &counts;
    let (tiles, fill_stats) = launch_map_phased(device, "set_op_fill", Phase::Fill, cfg, |cta| {
        let (p0, p1) = tile_ranges(cta.cta_id);
        let items = (p1.a - p0.a) + (p1.b - p0.b);
        cta.read_coalesced(items, K::BYTES + val_bytes);
        cta.shmem(2 * items as u64);
        cta.alu(4 * items as u64);
        cta.sync();
        let tile = fill(p0, p1);
        cta.write_coalesced(counts_ref[cta.cta_id], K::BYTES + val_bytes);
        tile
    });

    (
        tiles,
        total,
        SetOpStats {
            partition: partition_stats,
            count: count_stats,
            fill: fill_stats,
        },
    )
}

/// Keys-only parallel set operation (the Figure 2 `keys-*` variants).
pub fn set_op_keys<K: Key>(
    device: &Device,
    op: SetOp,
    a: &[K],
    b: &[K],
    nv: usize,
) -> (Vec<K>, LaunchStats) {
    let unit_a = vec![(); a.len()];
    let unit_b = vec![(); b.len()];
    let (keys, _, stats) = set_op_pairs(device, op, a, &unit_a, b, &unit_b, |_, _| (), nv);
    (keys, stats.combined())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dev() -> Device {
        Device::titan()
    }

    fn sum(a: f64, b: f64) -> f64 {
        a + b
    }

    #[test]
    fn union_of_figure_example() {
        // A = [a,b,c,c,c,e], B = [c,c,c,c,d,f] → union keeps max-multiplicity.
        let a = [0u32, 1, 2, 2, 2, 4];
        let b = [2u32, 2, 2, 2, 3, 5];
        let (keys, _) = set_op_keys(&dev(), SetOp::Union, &a, &b, 3);
        assert_eq!(keys, vec![0, 1, 2, 2, 2, 2, 3, 4, 5]);
    }

    #[test]
    fn union_combines_matched_values() {
        let ak = [1u64, 3, 5];
        let av = [10.0, 30.0, 50.0];
        let bk = [3u64, 5, 7];
        let bv = [1.0, 2.0, 3.0];
        let (k, v, _) = set_op_pairs(&dev(), SetOp::Union, &ak, &av, &bk, &bv, sum, 4);
        assert_eq!(k, vec![1, 3, 5, 7]);
        assert_eq!(v, vec![10.0, 31.0, 52.0, 3.0]);
    }

    #[test]
    fn intersection_keeps_only_matches() {
        let a = [1u32, 2, 2, 3];
        let b = [2u32, 3, 4];
        let (keys, _) = set_op_keys(&dev(), SetOp::Intersection, &a, &b, 3);
        assert_eq!(keys, vec![2, 3]);
    }

    #[test]
    fn difference_removes_matched_ranks() {
        let a = [1u32, 2, 2, 3];
        let b = [2u32, 3, 4];
        let (keys, _) = set_op_keys(&dev(), SetOp::Difference, &a, &b, 3);
        // One '2' pairs off; the second survives.
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn symmetric_difference_keeps_unpaired_of_both() {
        let a = [1u32, 2, 2, 3];
        let b = [2u32, 3, 4];
        let (keys, _) = set_op_keys(&dev(), SetOp::SymmetricDifference, &a, &b, 3);
        assert_eq!(keys, vec![1, 2, 4]);
    }

    #[test]
    fn empty_inputs() {
        let e: [u32; 0] = [];
        let (keys, _) = set_op_keys(&dev(), SetOp::Union, &e, &e, 4);
        assert!(keys.is_empty());
        let (keys, _) = set_op_keys(&dev(), SetOp::Union, &[1, 2], &e, 4);
        assert_eq!(keys, vec![1, 2]);
        let (keys, _) = set_op_keys(&dev(), SetOp::Intersection, &[1, 2], &e, 4);
        assert!(keys.is_empty());
    }

    proptest! {
        /// Device result equals the sequential reference for every op, any
        /// duplication structure, and any tile size.
        #[test]
        fn device_matches_reference(
            mut a in proptest::collection::vec(0u32..50, 0..300),
            mut b in proptest::collection::vec(0u32..50, 0..300),
            nv in 2usize..300,
            op_idx in 0usize..4,
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let op = [SetOp::Union, SetOp::Intersection, SetOp::Difference,
                      SetOp::SymmetricDifference][op_idx];
            let av: Vec<f64> = (0..a.len()).map(|i| i as f64).collect();
            let bv: Vec<f64> = (0..b.len()).map(|i| 1000.0 + i as f64).collect();
            let (dk, dv, _) = set_op_pairs(&dev(), op, &a, &av, &b, &bv, sum, nv);
            let (rk, rv) = set_op_ref(op, &a, &av, &b, &bv, sum);
            prop_assert_eq!(dk, rk);
            prop_assert_eq!(dv, rv);
        }

        /// Union multiplicity law: count(k, A ∪ B) = max(count(k,A), count(k,B)).
        #[test]
        fn union_multiplicity_is_max(
            mut a in proptest::collection::vec(0u32..20, 0..200),
            mut b in proptest::collection::vec(0u32..20, 0..200),
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let (keys, _) = set_op_keys(&dev(), SetOp::Union, &a, &b, 32);
            for k in 0u32..20 {
                let ca = a.iter().filter(|&&x| x == k).count();
                let cb = b.iter().filter(|&&x| x == k).count();
                let cu = keys.iter().filter(|&&x| x == k).count();
                prop_assert_eq!(cu, ca.max(cb), "key {}", k);
            }
            prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }

        /// Counting without materializing charges what materializing does.
        #[test]
        fn count_only_launches_charge_like_the_pairs(
            mut a in proptest::collection::vec(0u32..50, 0..300),
            mut b in proptest::collection::vec(0u32..50, 0..300),
            op_idx in 0usize..4,
            nv in 2usize..64,
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let op = [SetOp::Union, SetOp::Intersection, SetOp::Difference,
                      SetOp::SymmetricDifference][op_idx];
            let av: Vec<(u32, u32)> = (0..a.len() as u32).map(|i| (i, 0)).collect();
            let bv: Vec<(u32, u32)> = (0..b.len() as u32).map(|j| (0, j)).collect();
            let (keys, _, pairs) = set_op_pairs(&dev(), op, &a, &av, &b, &bv, |x, y| (x.0, y.1), nv);
            let (total, counted) = set_op_count(&dev(), op, &a, &b, 8, nv);
            prop_assert_eq!(total, keys.len());
            for (p, c) in [(&pairs.partition, &counted.partition), (&pairs.count, &counted.count), (&pairs.fill, &counted.fill)] {
                prop_assert_eq!(&p.per_cta_cycles, &c.per_cta_cycles);
                prop_assert_eq!(p.totals, c.totals);
                prop_assert_eq!(p.sim_ms.to_bits(), c.sim_ms.to_bits());
            }
        }
    }
}
