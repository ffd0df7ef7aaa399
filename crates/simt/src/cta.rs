//! Per-CTA execution context.
//!
//! A [`Cta`] is handed to the kernel body for every block in the grid. It
//! identifies the block, exposes the device's geometry, and provides the
//! *memory accounting* interface: kernels call `read_*`/`write_*`/`gather`
//! to declare their global-memory traffic, and `alu`/`shmem`/`sync` for
//! on-chip work. Semantically the kernel body is ordinary Rust operating on
//! host slices — the Cta only records what the access pattern would have
//! cost on the virtual device.

use std::ops::Range;

use crate::cost::{coalesced_transactions, CostModel, Counters, TX_BYTES};
use crate::sched::{SyncPoint, PUBLISH_SLOTS};

/// Widest warp the coalescing model counts: its per-warp scratch is
/// fixed-size, so a warp holds at most this many lanes.
pub const MAX_WARP_LANES: usize = 64;

/// Bytes of the ready flag stored beside each published value.
pub const FLAG_BYTES: usize = 4;

/// Execution context for a single cooperative thread array.
#[derive(Debug)]
pub struct Cta {
    /// Block index within the grid.
    pub cta_id: usize,
    /// Number of blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block.
    pub threads: usize,
    /// Warp width of the device.
    pub warp_size: usize,
    counters: Counters,
    /// Publishes and look-backs so far, each with the counters at its
    /// point. Empty, and unallocated, in a CTA that links to no other.
    sync_points: Vec<(Counters, SyncPoint)>,
}

/// What a launch keeps of one finished CTA.
#[derive(Debug)]
pub(crate) struct CtaCost {
    pub(crate) counters: Counters,
    pub(crate) cycles: u64,
    pub(crate) sync_points: Vec<(Counters, SyncPoint)>,
}

impl Cta {
    /// # Panics
    /// Panics if `warp_size` is zero or above [`MAX_WARP_LANES`].
    #[inline]
    pub fn new(cta_id: usize, grid_dim: usize, threads: usize, warp_size: usize) -> Self {
        assert!(
            (1..=MAX_WARP_LANES).contains(&warp_size),
            "warp_size must be 1..={MAX_WARP_LANES}, got {warp_size}"
        );
        Cta {
            cta_id,
            grid_dim,
            threads,
            warp_size,
            counters: Counters::default(),
            sync_points: Vec::new(),
        }
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Price the finished CTA under `cost` (used by the launcher).
    #[inline]
    pub(crate) fn into_cost(self, cost: &CostModel) -> CtaCost {
        CtaCost {
            counters: self.counters,
            cycles: cost.cta_cycles(&self.counters),
            sync_points: self.sync_points,
        }
    }

    /// Add counters charged elsewhere: a kernel re-priced from the
    /// counters it kept at build starts from them.
    pub fn charge(&mut self, counters: &Counters) {
        self.counters.add(counters);
    }

    // ---- links between CTAs ----------------------------------------------------

    fn record(&mut self, point: SyncPoint) {
        self.sync_points.push((self.counters, point));
    }

    /// Publish a value of `value_bytes` bytes in `slot` for later CTAs of
    /// the grid (a carry, a partial): one coalesced write of the value and
    /// its ready flag. The value is visible from this point of the CTA's
    /// program on, so a [`Cta::look_back`] at it waits until here, not
    /// until this CTA ends.
    ///
    /// # Panics
    /// Panics if `slot` is not below [`PUBLISH_SLOTS`].
    pub fn publish(&mut self, slot: usize, value_bytes: usize) {
        assert!(slot < PUBLISH_SLOTS, "publish slot {slot} out of range");
        self.write_coalesced(1, FLAG_BYTES + value_bytes);
        self.record(SyncPoint::Publish { slot: slot as u8 });
    }

    /// Read the values CTAs `ctas` published in `slot`: the rest of this
    /// CTA starts no earlier than the latest of those publishes (the wave
    /// scheduler holds it in its slot until then). Priced with the
    /// model's existing terms: the flags and values as one coalesced read,
    /// the spin on the flags as one barrier. An empty range reads nothing
    /// and waits for nothing.
    ///
    /// # Panics
    /// Panics if `ctas` reaches this CTA or past it, or `slot` is not
    /// below [`PUBLISH_SLOTS`].
    pub fn look_back(&mut self, ctas: Range<usize>, slot: usize, value_bytes: usize) {
        if ctas.is_empty() {
            return;
        }
        assert!(
            ctas.end <= self.cta_id,
            "CTA {} can look back only at earlier CTAs, not {ctas:?}",
            self.cta_id
        );
        assert!(slot < PUBLISH_SLOTS, "publish slot {slot} out of range");
        self.record(SyncPoint::LookBack {
            slot: slot as u8,
            first: ctas.start as u32,
            end: ctas.end as u32,
        });
        self.read_coalesced(ctas.len(), FLAG_BYTES + value_bytes);
        self.sync();
    }

    // ---- on-chip cost charging -------------------------------------------------

    /// Charge `n` arithmetic thread-operations.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.counters.alu_ops += n;
    }

    /// Charge `n` shared-memory accesses.
    #[inline]
    pub fn shmem(&mut self, n: u64) {
        self.counters.shmem_ops += n;
    }

    /// Charge one block-wide barrier.
    #[inline]
    pub fn sync(&mut self) {
        self.counters.syncs += 1;
    }

    // ---- global memory accounting ----------------------------------------------

    /// Charge a perfectly coalesced read of `count` elements of `elem_bytes`
    /// bytes each (e.g. a strided tile load of consecutive values).
    pub fn read_coalesced(&mut self, count: usize, elem_bytes: usize) {
        let bytes = (count * elem_bytes) as u64;
        self.counters.dram_read_bytes += bytes;
        self.counters.dram_transactions += coalesced_transactions(bytes);
    }

    /// Charge a perfectly coalesced write of `count` elements.
    pub fn write_coalesced(&mut self, count: usize, elem_bytes: usize) {
        let bytes = (count * elem_bytes) as u64;
        self.counters.dram_write_bytes += bytes;
        self.counters.dram_transactions += coalesced_transactions(bytes);
    }

    /// Charge a data-dependent gather: `indices` are *element* indices into
    /// an array of `elem_bytes`-sized elements. Transactions are counted per
    /// warp as the number of distinct 128-byte segments the warp touches —
    /// the standard coalescing model. Consecutive indices therefore cost the
    /// same as `read_coalesced`; scattered indices cost up to one
    /// transaction per lane.
    pub fn gather<I>(&mut self, indices: I, elem_bytes: usize)
    where
        I: IntoIterator<Item = usize>,
    {
        let tx = self.access_transactions(indices, elem_bytes);
        self.counters.dram_transactions += tx.0;
        self.counters.dram_read_bytes += tx.1;
    }

    /// [`gather`] of the consecutive indices `range`, priced in closed form:
    /// each warp touches every segment between its first and last lane.
    ///
    /// [`gather`]: Cta::gather
    pub fn gather_range(&mut self, range: Range<usize>, elem_bytes: usize) {
        let tx = self.range_transactions(range, elem_bytes);
        self.counters.dram_transactions += tx.0;
        self.counters.dram_read_bytes += tx.1;
    }

    /// Charge a data-dependent scatter (same coalescing model as [`gather`]).
    ///
    /// [`gather`]: Cta::gather
    pub fn scatter<I>(&mut self, indices: I, elem_bytes: usize)
    where
        I: IntoIterator<Item = usize>,
    {
        let tx = self.access_transactions(indices, elem_bytes);
        self.counters.dram_transactions += tx.0;
        self.counters.dram_write_bytes += tx.1;
    }

    /// Charge a *wide* data-dependent gather: each index names the first of
    /// `width` consecutive elements (a row of a row-major dense column
    /// tile), and the lane loads the whole run. Transactions are counted per
    /// warp as the distinct 128-byte segments the union of the runs touches,
    /// so one `width`-wide gather is priced far below `width` independent
    /// narrow gathers of the same indices — the coalescing advantage tiled
    /// multi-vector kernels exist to exploit. The payload also accrues to
    /// the [`Counters::dram_wide_bytes`] counter.
    pub fn gather_wide<I>(&mut self, indices: I, elem_bytes: usize, width: usize)
    where
        I: IntoIterator<Item = usize>,
    {
        let tx = self.wide_access_transactions(indices, elem_bytes, width);
        self.counters.dram_transactions += tx.0;
        self.counters.dram_read_bytes += tx.1;
        self.counters.dram_wide_bytes += tx.1;
    }

    /// Charge a wide data-dependent scatter (same model as [`gather_wide`]).
    ///
    /// [`gather_wide`]: Cta::gather_wide
    pub fn scatter_wide<I>(&mut self, indices: I, elem_bytes: usize, width: usize)
    where
        I: IntoIterator<Item = usize>,
    {
        let tx = self.wide_access_transactions(indices, elem_bytes, width);
        self.counters.dram_transactions += tx.0;
        self.counters.dram_write_bytes += tx.1;
        self.counters.dram_wide_bytes += tx.1;
    }

    /// Returns (transactions, payload bytes) for an indexed access pattern.
    fn access_transactions<I>(&self, indices: I, elem_bytes: usize) -> (u64, u64)
    where
        I: IntoIterator<Item = usize>,
    {
        let per_tx = elems_per_segment(elem_bytes);
        let (transactions, n) = if per_tx.is_power_of_two() {
            let shift = per_tx.trailing_zeros();
            count_segments(indices, self.warp_size, |i| i >> shift)
        } else {
            count_segments(indices, self.warp_size, |i| i / per_tx)
        };
        (transactions, n * elem_bytes as u64)
    }

    /// Returns (transactions, payload bytes) for the consecutive indices
    /// `range`: every warp's lanes ascend, so it touches exactly the
    /// segments from its first lane's to its last lane's.
    fn range_transactions(&self, range: Range<usize>, elem_bytes: usize) -> (u64, u64) {
        let per_tx = elems_per_segment(elem_bytes);
        let mut transactions = 0u64;
        let mut first = range.start;
        while first < range.end {
            let last = (first + self.warp_size).min(range.end) - 1;
            transactions += (last / per_tx - first / per_tx) as u64 + 1;
            first = last + 1;
        }
        (transactions, range.len() as u64 * elem_bytes as u64)
    }

    /// Returns (transactions, payload bytes) for a wide indexed access:
    /// every index pulls `width` consecutive elements, and a warp coalesces
    /// over the union of all its lanes' runs.
    fn wide_access_transactions<I>(&self, indices: I, elem_bytes: usize, width: usize) -> (u64, u64)
    where
        I: IntoIterator<Item = usize>,
    {
        let width = width.max(1);
        let per_tx = elems_per_segment(elem_bytes);
        let (pow2, shift) = (per_tx.is_power_of_two(), per_tx.trailing_zeros());
        let segment_of = |i: usize| if pow2 { i >> shift } else { i / per_tx };
        let mut set = SpanSet::new();
        let (transactions, n) = for_each_warp(
            indices,
            self.warp_size,
            // Segments spanned by elements [idx, idx + width).
            |idx| (segment_of(idx), segment_of(idx + width - 1)),
            |spans| {
                if spans.windows(2).all(|w| w[0].0 <= w[1].0) {
                    // Runs starting in order: sweep the union, `hi` being
                    // the highest segment covered so far.
                    let (mut count, mut hi) = (spans[0].1 - spans[0].0 + 1, spans[0].1);
                    for &(lo, up) in &spans[1..] {
                        count += if lo > hi {
                            up - lo + 1
                        } else {
                            up.saturating_sub(hi)
                        };
                        hi = hi.max(up);
                    }
                    count as u64
                } else {
                    let (lo, hi) = spans
                        .iter()
                        .fold((usize::MAX, 0), |(lo, hi), &s| (lo.min(s.0), hi.max(s.1)));
                    if hi - lo < WINDOW {
                        // Set each run's bits in a window bitmap.
                        let bits = spans.iter().fold(0u128, |bits, &(a, b)| {
                            bits | (u128::MAX >> (WINDOW - 1 - (b - a))) << (a - lo)
                        });
                        return u64::from(bits.count_ones());
                    }
                    set.clear();
                    for &(lo, up) in spans {
                        set.insert(lo, up);
                    }
                    set.covered()
                }
            },
        );
        (transactions, n * width as u64 * elem_bytes as u64)
    }
}

/// Split `indices` into warps of `warp_size` lanes, map each lane through
/// `lane`, and sum `count` over every warp's lanes (the last warp may be
/// partial). Returns (the sum, the number of lanes).
#[inline]
fn for_each_warp<I, L: Copy + Default>(
    indices: I,
    warp_size: usize,
    lane: impl Fn(usize) -> L,
    mut count: impl FnMut(&[L]) -> u64,
) -> (u64, u64)
where
    I: IntoIterator<Item = usize>,
{
    let mut lanes = [L::default(); MAX_WARP_LANES];
    let mut indices = indices.into_iter();
    let (mut total, mut n) = (0u64, 0u64);
    loop {
        let mut len = 0;
        for (slot, idx) in lanes[..warp_size].iter_mut().zip(indices.by_ref()) {
            *slot = lane(idx);
            len += 1;
        }
        if len == 0 {
            break;
        }
        n += len as u64;
        total += count(&lanes[..len]);
        if len < warp_size {
            break;
        }
    }
    (total, n)
}

/// Elements of `elem_bytes` bytes per 128-byte segment (at least one).
fn elems_per_segment(elem_bytes: usize) -> usize {
    (TX_BYTES as usize / elem_bytes).max(1)
}

/// Count each warp's distinct segments over `indices`, with `segment_of`
/// mapping an element index to its segment. Returns (transactions, lanes).
///
/// A warp whose segments ascend counts its runs. Any other warp whose
/// segments fit a window of [`WINDOW`] segments counts the bits it sets
/// in a window bitmap; the rest go through a [`SegmentSet`].
#[inline]
fn count_segments<I>(
    indices: I,
    warp_size: usize,
    segment_of: impl Fn(usize) -> usize,
) -> (u64, u64)
where
    I: IntoIterator<Item = usize>,
{
    let mut set = SegmentSet::new();
    for_each_warp(indices, warp_size, segment_of, |segments| {
        if segments.windows(2).all(|w| w[0] <= w[1]) {
            return 1 + segments.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        }
        let (lo, hi) = segments
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        if hi - lo < WINDOW {
            let bits = segments.iter().fold(0u128, |bits, &s| bits | 1 << (s - lo));
            return u64::from(bits.count_ones());
        }
        set.clear();
        for &seg in segments {
            set.insert(seg);
        }
        set.len()
    })
}

/// Segments one window bitmap covers.
const WINDOW: usize = 128;

/// Fixed-size set of one warp's segment ids: the distinct ids in
/// insertion order. Only a warp whose segments neither ascend nor fit a
/// [`WINDOW`] lands here; on serve-churn's stand-ins that is the radix
/// downsweep's scatter alone, its lanes spread over the whole product
/// array. Nothing is a sentinel: every `usize` is a valid id.
struct SegmentSet {
    ids: [usize; MAX_WARP_LANES],
    len: usize,
}

impl SegmentSet {
    fn new() -> Self {
        SegmentSet {
            ids: [0; MAX_WARP_LANES],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Distinct segments inserted since the last clear.
    fn len(&self) -> u64 {
        self.len as u64
    }

    /// Add `seg`. A warp inserts at most [`MAX_WARP_LANES`] ids.
    #[inline]
    fn insert(&mut self, seg: usize) {
        if self.ids[..self.len].contains(&seg) {
            return;
        }
        self.ids[self.len] = seg;
        self.len += 1;
    }
}

/// Fixed-size set of one warp's wide-lane segment spans, kept as sorted
/// disjoint inclusive ranges. Each lane adds at most one range, so a warp
/// never holds more than [`MAX_WARP_LANES`], however many segments a lane
/// spans.
struct SpanSet {
    spans: [(usize, usize); MAX_WARP_LANES],
    len: usize,
}

impl SpanSet {
    fn new() -> Self {
        SpanSet {
            spans: [(0, 0); MAX_WARP_LANES],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Add the segments `lo..=hi`, merging every range they overlap.
    fn insert(&mut self, lo: usize, hi: usize) {
        let spans = &self.spans[..self.len];
        // Ranges [start, end) overlap lo..=hi.
        let start = spans.partition_point(|s| s.1 < lo);
        let end = spans.partition_point(|s| s.0 <= hi);
        if start == end {
            self.spans.copy_within(start..self.len, start + 1);
            self.spans[start] = (lo, hi);
            self.len += 1;
        } else {
            let merged = (lo.min(spans[start].0), hi.max(spans[end - 1].1));
            self.spans[start] = merged;
            self.spans.copy_within(end..self.len, start + 1);
            self.len -= end - start - 1;
        }
    }

    /// Segments covered by the ranges.
    fn covered(&self) -> u64 {
        self.spans[..self.len]
            .iter()
            .map(|&(lo, hi)| (hi - lo) as u64 + 1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cta() -> Cta {
        Cta::new(0, 1, 128, 32)
    }

    #[test]
    fn coalesced_read_counts_payload_and_segments() {
        let mut c = cta();
        c.read_coalesced(32, 4); // 128 bytes = 1 transaction
        assert_eq!(c.counters().dram_transactions, 1);
        assert_eq!(c.counters().dram_read_bytes, 128);
    }

    #[test]
    fn contiguous_gather_is_coalesced() {
        let mut c = cta();
        c.gather(0..32usize, 4); // one warp, one 128B segment
        assert_eq!(c.counters().dram_transactions, 1);
    }

    #[test]
    fn strided_gather_pays_one_transaction_per_lane() {
        let mut c = cta();
        // Stride of 32 elements × 4B = every lane in its own segment.
        c.gather((0..32usize).map(|i| i * 32), 4);
        assert_eq!(c.counters().dram_transactions, 32);
    }

    #[test]
    fn gather_of_eight_byte_elems_halves_elems_per_segment() {
        let mut c = cta();
        c.gather(0..32usize, 8); // 256 bytes over one warp = 2 segments
        assert_eq!(c.counters().dram_transactions, 2);
        assert_eq!(c.counters().dram_read_bytes, 256);
    }

    #[test]
    fn partial_warp_still_counted() {
        let mut c = cta();
        c.gather(0..5usize, 4);
        assert_eq!(c.counters().dram_transactions, 1);
        assert_eq!(c.counters().dram_read_bytes, 20);
    }

    #[test]
    fn repeated_index_in_warp_coalesces_to_one_segment() {
        let mut c = cta();
        c.gather(std::iter::repeat_n(7usize, 32), 4);
        assert_eq!(c.counters().dram_transactions, 1);
    }

    #[test]
    fn wide_gather_of_width_one_matches_narrow_gather() {
        let mut narrow = cta();
        narrow.gather((0..32usize).map(|i| i * 16), 8);
        let mut wide = cta();
        wide.gather_wide((0..32usize).map(|i| i * 16), 8, 1);
        assert_eq!(
            narrow.counters().dram_transactions,
            wide.counters().dram_transactions
        );
        assert_eq!(
            narrow.counters().dram_read_bytes,
            wide.counters().dram_read_bytes
        );
        assert_eq!(wide.counters().dram_wide_bytes, 32 * 8);
    }

    #[test]
    fn wide_gather_is_cheaper_than_repeated_narrow_gathers() {
        // 16 scattered dense rows of width 16 (a column tile): one wide
        // gather per row vs 16 narrow gathers of the same rows.
        let k = 16usize;
        let rows: Vec<usize> = (0..16).map(|i| i * 331).collect();
        let mut wide = cta();
        wide.gather_wide(rows.iter().map(|r| r * k), 8, k);
        let mut narrow = cta();
        for j in 0..k {
            narrow.gather(rows.iter().map(|r| r * k + j), 8);
        }
        assert_eq!(
            wide.counters().dram_read_bytes,
            narrow.counters().dram_read_bytes,
            "same payload either way"
        );
        assert!(
            wide.counters().dram_transactions < narrow.counters().dram_transactions / 4,
            "wide {} vs narrow {}",
            wide.counters().dram_transactions,
            narrow.counters().dram_transactions
        );
        assert_eq!(narrow.counters().dram_wide_bytes, 0);
        assert!(wide.counters().dram_wide_bytes > 0);
    }

    #[test]
    fn wide_scatter_spans_run_segments() {
        let mut c = cta();
        // One lane writing 32 consecutive f64s = 256 bytes = 2 segments.
        c.scatter_wide(std::iter::once(0usize), 8, 32);
        assert_eq!(c.counters().dram_transactions, 2);
        assert_eq!(c.counters().dram_write_bytes, 256);
        assert_eq!(c.counters().dram_wide_bytes, 256);
    }

    #[test]
    fn on_chip_charges_accumulate() {
        let mut c = cta();
        c.alu(10);
        c.shmem(20);
        c.sync();
        c.sync();
        let k = c.counters();
        assert_eq!((k.alu_ops, k.shmem_ops, k.syncs), (10, 20, 2));
    }

    /// The coalescing model written out naively: per warp, the set of
    /// 128-byte segments its lanes' runs of `width` elements touch.
    fn reference_transactions(
        indices: &[usize],
        elem_bytes: usize,
        width: usize,
        warp: usize,
    ) -> u64 {
        let per_tx = (TX_BYTES as usize / elem_bytes).max(1);
        indices
            .chunks(warp)
            .map(|lanes| {
                let mut segments = std::collections::BTreeSet::new();
                for &i in lanes {
                    segments.extend(i / per_tx..=(i + (width - 1)) / per_tx);
                }
                segments.len() as u64
            })
            .sum()
    }

    /// An index stream of the given kind: ascending, descending, random,
    /// duplicate-heavy, contiguous, or random within a narrow window.
    fn index_stream(kind: usize, len: usize, seed: u64) -> Vec<usize> {
        let mut state = seed | 1;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as usize
        };
        let base = next(1 << 20);
        let mut v: Vec<usize> = match kind {
            0 | 1 => {
                let mut at = base;
                (0..len)
                    .map(|_| {
                        at += next(40);
                        at
                    })
                    .collect()
            }
            2 => (0..len).map(|_| next(1 << 16)).collect(),
            3 => (0..len).map(|_| base + next(6) * 37).collect(),
            4 => (base..base + len).collect(),
            _ => (0..len).map(|_| base + next(3000)).collect(),
        };
        if kind == 1 {
            v.reverse();
        }
        v
    }

    const ELEM_BYTES: [usize; 7] = [1, 2, 4, 8, 12, 16, 20];
    const WARPS: [usize; 3] = [1, 16, 32];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        #[test]
        fn coalescing_count_matches_the_naive_warp_sets(
            e in 0usize..7,
            w in 0usize..3,
            kind in 0usize..6,
            len in 0usize..200,
            width in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (elem, warp) = (ELEM_BYTES[e], WARPS[w]);
            let idx = index_stream(kind, len, seed);
            let narrow = reference_transactions(&idx, elem, 1, warp);
            let wide = reference_transactions(&idx, elem, width, warp);
            let payload = (len * elem) as u64;

            let mut c = Cta::new(0, 1, 128, warp);
            c.gather(idx.iter().copied(), elem);
            proptest::prop_assert_eq!((c.counters().dram_transactions, c.counters().dram_read_bytes), (narrow, payload));
            let mut c = Cta::new(0, 1, 128, warp);
            c.scatter(idx.iter().copied(), elem);
            proptest::prop_assert_eq!((c.counters().dram_transactions, c.counters().dram_write_bytes), (narrow, payload));
            let mut c = Cta::new(0, 1, 128, warp);
            c.gather_wide(idx.iter().copied(), elem, width);
            let k = *c.counters();
            proptest::prop_assert_eq!((k.dram_transactions, k.dram_read_bytes, k.dram_wide_bytes), (wide, payload * width as u64, payload * width as u64));
            let mut c = Cta::new(0, 1, 128, warp);
            c.scatter_wide(idx.iter().copied(), elem, width);
            let k = *c.counters();
            proptest::prop_assert_eq!((k.dram_transactions, k.dram_write_bytes, k.dram_wide_bytes), (wide, payload * width as u64, payload * width as u64));
            if kind == 4 && len > 0 {
                let mut c = Cta::new(0, 1, 128, warp);
                c.gather_range(idx[0]..idx[0] + len, elem);
                proptest::prop_assert_eq!((c.counters().dram_transactions, c.counters().dram_read_bytes), (narrow, payload));
            }
        }
    }

    #[test]
    fn a_warp_of_distinct_scattered_segments_fills_the_set() {
        // 64 lanes, each in its own segment, out of order: the set must
        // hold every one (no sentinel collides with segment 0 or MAX).
        let idx: Vec<usize> = (0..64usize)
            .rev()
            .map(|i| if i == 0 { usize::MAX } else { i * 977 * 16 })
            .collect();
        let mut c = Cta::new(0, 1, 128, 64);
        c.gather(idx.iter().copied(), 8);
        assert_eq!(
            c.counters().dram_transactions,
            reference_transactions(&idx, 8, 1, 64)
        );
        assert_eq!(c.counters().dram_transactions, 64);
    }

    #[test]
    fn wide_lanes_spanning_many_segments_count_their_union() {
        // Descending lanes of 100 f64s each (7 segments a lane) overlap
        // their neighbours: the union, not the sum, is charged.
        let idx: Vec<usize> = (0..32usize).rev().map(|i| i * 50).collect();
        let mut c = Cta::new(0, 1, 128, 32);
        c.gather_wide(idx.iter().copied(), 8, 100);
        assert_eq!(
            c.counters().dram_transactions,
            reference_transactions(&idx, 8, 100, 32)
        );
    }

    #[test]
    fn wide_lanes_at_segment_zero_count_once() {
        let mut c = Cta::new(0, 1, 128, 32);
        c.gather_wide([0usize, 0, 3, 40], 8, 20);
        assert_eq!(
            c.counters().dram_transactions,
            reference_transactions(&[0, 0, 3, 40], 8, 20, 32)
        );
    }

    #[test]
    #[should_panic(expected = "warp_size")]
    fn warps_wider_than_the_scratch_are_rejected() {
        Cta::new(0, 1, 128, MAX_WARP_LANES + 1);
    }
}
