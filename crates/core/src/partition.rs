//! Shared merge-path partition (phase 1 of Section III-A).
//!
//! Both the SpMV and SpMM plans start from the same structural object: one
//! binary search per CTA boundary into the CSR row offsets (with the
//! adaptive empty-row compaction pass in front when the matrix has empty
//! rows), yielding the auxiliary buffer `S` of per-CTA starting rows.
//!
//! The boundaries sit [`tile_spacing`] nonzeros apart: the configured tile
//! `nv` once the operator fills every SM with one, and below that the
//! operator spread over one CTA per SM, each with at least a nonzero per
//! thread. So the partition depends on the sparsity pattern, `nv`, the
//! CTA width and the device's SM count, never on numeric values or on how
//! many output columns a consumer wants. A [`MergePartition`] is built
//! **once** per (pattern, configuration, device) and shared:
//! [`crate::spmv::SpmvPlan`] executes it against one vector at a time,
//! [`crate::spmm::SpmmPlan`] re-walks the identical boundaries for every
//! column tile of a dense multi-vector block. Every merge path reads the
//! spacing from the partition, so on one device they all sum in the same
//! order; an operator below the threshold sums in a different order, and
//! so may round differently, on a device with a different SM count.

use std::ops::Range;

use mps_simt::block::binary_search_partition;
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::CsrMatrix;

/// The merge-path partition of one CSR matrix at a fixed tile size:
/// possibly compacted row offsets, the logical→physical row map, and the
/// per-CTA starting rows, together with the simulated cost of computing
/// them on the device.
#[derive(Debug, Clone)]
pub struct MergePartition {
    /// Nonzeros of the partitioned matrix.
    pub nnz: usize,
    /// Physical row count of the partitioned matrix.
    pub num_rows: usize,
    /// Nonzeros per CTA tile the boundaries were searched at: the
    /// [`tile_spacing`] of the operator on the build device (the
    /// configured tile itself for an operator with no nonzeros).
    pub nv: usize,
    /// Possibly compacted row offsets.
    pub offsets: Vec<usize>,
    /// Logical→physical row map when compaction ran.
    pub row_ids: Option<Vec<u32>>,
    /// Per-CTA starting rows (the paper's auxiliary buffer S).
    pub s: Vec<usize>,
    /// Cost of the partition boundary searches, paid once at build.
    pub stats: LaunchStats,
    /// Cost of the adaptive empty-row compaction pass (zero when the raw
    /// path ran). Kept separate so phase reports can attribute it.
    pub fixup: LaunchStats,
}

/// Nonzeros between the CTA boundaries of a merge-path partition of `nnz`
/// nonzeros on `num_sms` SMs, for CTAs of `block_threads` threads and a
/// configured tile of `nv` nonzeros: clamp(⌈nnz/num_sms⌉, block_threads,
/// nv).
///
/// An operator of at least `num_sms·nv` nonzeros keeps the configured
/// tile, as the paper sizes it. A smaller one would leave SMs idle at that
/// tile, so it spreads over at most one CTA per SM instead, each still
/// holding a nonzero per thread. The spread stops at the SM count, as
/// `mps_solvers`' streaming BLAS-1 grid does, because the cost model gives
/// every CTA one SM's share of the DRAM bandwidth: CTAs sharing an SM
/// would together draw more than the device has.
pub fn tile_spacing(num_sms: usize, nnz: usize, block_threads: usize, nv: usize) -> usize {
    nnz.div_ceil(num_sms).max(block_threads).min(nv)
}

impl MergePartition {
    /// Run the boundary searches (and, adaptively, the empty-row
    /// compaction pass) for `a` at [`tile_spacing`] nonzeros per CTA on
    /// `device`, for CTAs of `block_threads` threads and a configured
    /// tile of `nv` nonzeros, charging the device for the partition
    /// kernel.
    pub fn build(
        device: &Device,
        a: &CsrMatrix,
        block_threads: usize,
        nv: usize,
        force_no_compaction: bool,
    ) -> MergePartition {
        let nnz = a.nnz();
        if nnz == 0 {
            return MergePartition {
                nnz,
                num_rows: a.num_rows,
                nv,
                offsets: vec![0],
                row_ids: None,
                s: Vec::new(),
                stats: LaunchStats::default(),
                fixup: LaunchStats::default(),
            };
        }

        // Adaptive path selection: detect empty rows and compact the
        // offsets so the partition search and the row walker never see
        // zero-length rows.
        let has_empty = a.empty_rows() > 0;
        let compacted = has_empty && !force_no_compaction;
        let (offsets, row_ids): (Vec<usize>, Option<Vec<u32>>) = if compacted {
            let (off, ids) = a.compact_rows();
            (off, Some(ids))
        } else {
            (a.row_offsets.clone(), None)
        };
        let logical_rows = offsets.len() - 1;
        let nv = tile_spacing(device.props.num_sms, nnz, block_threads, nv);
        let num_ctas = nnz.div_ceil(nv);

        // The compaction pass streams the raw offsets, flags non-empties,
        // scans, and scatters the surviving offsets/ids — one coalesced
        // sweep over the physical rows, charged as a real kernel so the
        // trace attributes it to the empty-row fixup phase.
        let fixup = if compacted {
            let rows = a.num_rows + 1;
            let per_cta = 128 * 8;
            let cfg_fix = LaunchConfig::cover(rows, per_cta, 128);
            let survivors_per_cta = logical_rows.div_ceil(cfg_fix.grid_dim.max(1));
            let (_, fix_stats) = launch_map_phased(
                device,
                "row_compaction",
                Phase::EmptyRowFixup,
                cfg_fix,
                |cta| {
                    let lo = cta.cta_id * per_cta;
                    let hi = (lo + per_cta).min(rows);
                    let span = hi.saturating_sub(lo);
                    cta.read_coalesced(span, 8);
                    cta.alu(2 * span as u64);
                    cta.write_coalesced(survivors_per_cta.min(span), 12);
                },
            );
            fix_stats
        } else {
            LaunchStats::default()
        };

        // One boundary search per CTA; S[i] = row containing nonzero i*nv.
        let offsets_ref = &offsets;
        let cfg_part = LaunchConfig::new(num_ctas + 1, 64);
        let (s, stats) = launch_map_phased(
            device,
            "spmv_partition",
            Phase::Partition,
            cfg_part,
            |cta| {
                let item = (cta.cta_id * nv).min(nnz.saturating_sub(1));
                cta.read_coalesced(2 * usize::BITS as usize, 8);
                binary_search_partition(cta, offsets_ref, item)
            },
        );

        MergePartition {
            nnz,
            num_rows: a.num_rows,
            nv,
            offsets,
            row_ids,
            s,
            stats,
            fixup,
        }
    }

    /// Simulated milliseconds of the whole build (searches + compaction).
    pub fn build_sim_ms(&self) -> f64 {
        self.stats.sim_ms + self.fixup.sim_ms
    }

    /// Whether the adaptive empty-row compaction path ran.
    pub fn compacted(&self) -> bool {
        self.row_ids.is_some()
    }

    /// Rows after compaction (equals `num_rows` on the raw path).
    pub fn logical_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of CTA tiles covering the nonzeros.
    pub fn num_ctas(&self) -> usize {
        self.nnz.div_ceil(self.nv)
    }

    /// Map a logical (possibly compacted) row back to its physical index.
    #[inline]
    pub fn to_physical(&self, logical: usize) -> usize {
        match &self.row_ids {
            Some(ids) => ids[logical] as usize,
            None => logical,
        }
    }

    /// One walk over the rows, yielding what a plan keeps of them:
    ///
    /// - the physical rows the row-run walk ([`Self::walk_row_runs`]) may
    ///   leave unassigned: empty rows (on the raw path it stores the +0
    ///   of an empty run into those inside a tile, as pre-zeroing does),
    ///   plus rows whose nonzeros end exactly on a CTA-tile boundary
    ///   (every segment of such a row is a trailing carry, folded into `y`
    ///   with `+=`). Executors pre-zero exactly these rows instead of
    ///   zero-filling the whole output — every other row is overwritten by
    ///   a finished run, so the result is identical for any prior buffer
    ///   contents;
    /// - how each CTA of a single-pass launch over this partition meets
    ///   its neighbours (see [`TileLink`]), in CTA order. A row is
    ///   finished by the CTA holding its last nonzero; a row with none (an
    ///   empty row, compacted away or not) by the CTA holding the next
    ///   nonzero after it, or by the last CTA when none follows, so each
    ///   CTA finishes one contiguous run of physical rows. An operator
    ///   with no nonzeros gets one CTA finishing every row (the one an
    ///   epilogue launches), none when it has no rows either.
    ///
    /// O(rows + CTAs), structure only, computed once at plan build.
    pub(crate) fn walk_rows(&self) -> (Vec<u32>, Vec<TileLink>) {
        if self.nnz == 0 {
            let links = (self.num_rows > 0)
                .then_some(TileLink {
                    rows_start: 0,
                    rows_end: self.num_rows as u32,
                    fold_from: 0,
                })
                .into_iter()
                .collect();
            return ((0..self.num_rows as u32).collect(), links);
        }
        let ctas = self.num_ctas();
        let nv = self.nv;
        let mut unassigned = Vec::new();
        let mut finished = vec![0u32; ctas];
        // The CTA holding an item (the last CTA past the last item),
        // walked forward: the items asked about never decrease, so the
        // walk costs O(rows + CTAs) and no division.
        let (mut owner, mut owner_end) = (0, nv);
        let mut owner_of = |item: usize| {
            while item >= owner_end && owner + 1 < ctas {
                owner += 1;
                owner_end += nv;
            }
            owner
        };
        let mut next_physical = 0;
        for r in 0..self.logical_rows() {
            let (start, end) = (self.offsets[r], self.offsets[r + 1]);
            let physical = self.to_physical(r);
            if physical > next_physical {
                // The empty rows compaction dropped before this one sit
                // where its first nonzero does.
                finished[owner_of(start)] += (physical - next_physical) as u32;
                unassigned.extend(next_physical as u32..physical as u32);
            }
            finished[owner_of(end.max(start + 1) - 1)] += 1;
            // The final segment assigns iff it ends strictly inside its
            // CTA tile: `end % nv == 0` or `end == nnz` means it ends at
            // the tile's end, i.e. the row only ever carries.
            let carry_only = end % nv == 0 || end == self.nnz;
            if end == start || carry_only {
                unassigned.push(physical as u32);
            }
            next_physical = physical + 1;
        }
        finished[ctas - 1] += (self.num_rows - next_physical) as u32;
        unassigned.extend(next_physical as u32..self.num_rows as u32);

        // A CTA whose first row started in an earlier tile and ends in
        // its own folds the partials of the CTAs since the row's start.
        let mut rows_start = 0u32;
        let links = (0..ctas)
            .map(|c| {
                let (lo, hi) = (c * nv, ((c + 1) * nv).min(self.nnz));
                let row = self.tile_segments(c).next().map_or(0, |seg| seg.row);
                let (start, end) = (self.offsets[row], self.offsets[row + 1]);
                let fold_from = if start < lo && end <= hi {
                    start / nv
                } else {
                    c
                };
                let link = TileLink {
                    rows_start,
                    rows_end: rows_start + finished[c],
                    fold_from: fold_from as u32,
                };
                rows_start = link.rows_end;
                link
            })
            .collect();
        (unassigned, links)
    }

    /// Row range `[start, end]` a CTA's nonzeros fall into (logical rows).
    #[inline]
    pub fn cta_row_range(&self, cta_id: usize) -> (usize, usize) {
        let row_lo = self.s[cta_id];
        // The last boundary search used item nnz-1; the row range for the
        // final CTA ends at the row containing its last item.
        let row_hi = if cta_id + 1 < self.s.len() {
            self.s[cta_id + 1]
        } else {
            self.logical_rows() - 1
        };
        (row_lo, row_hi)
    }

    /// Every tile's row runs, tile by tile: the segments
    /// [`Self::tile_segments`] yields, walked with one offset load and one
    /// compare per row. `runs` finishes each row that ends inside its
    /// tile (the tile's first row from the tile's start, since it may
    /// begin in an earlier tile, then whole rows) and carries each tile's
    /// trailing segment, which becomes the CTA's carry even when its row
    /// ends exactly on the tile's end. On the raw path an empty row inside
    /// a tile is finished with no items. Rows reach `runs` as physical
    /// rows: the raw and the compacted row map each get their own loop.
    ///
    /// `#[inline(always)]`: the numeric executes run it inside walks
    /// compiled once per SIMD tier, so the loop and the gathered dots
    /// `runs` computes compile into one function under that tier's
    /// target features.
    #[inline(always)]
    pub(crate) fn walk_row_runs(&self, runs: &mut impl RowRuns) {
        match &self.row_ids {
            None => self.walk_mapped::<false>(&[], runs),
            Some(ids) => self.walk_mapped::<true>(ids, runs),
        }
    }

    /// [`Self::walk_row_runs`] with the row map fixed at compile time.
    #[inline(always)]
    fn walk_mapped<const COMPACTED: bool>(&self, ids: &[u32], runs: &mut impl RowRuns) {
        let (nnz, nv, offsets) = (self.nnz, self.nv, &self.offsets[..]);
        for (cta_id, &first) in self.s.iter().take(self.num_ctas()).enumerate() {
            let lo = cta_id * nv;
            let hi = (lo + nv).min(nnz);
            // `first` holds item `lo`: S is searched for the last row
            // starting at or before it.
            let (mut row, mut start) = (first, lo);
            let mut end = offsets[row + 1];
            while end < hi {
                runs.finish(physical::<COMPACTED>(ids, row), start..end);
                (row, start) = (row + 1, end);
                end = offsets[row + 1];
            }
            runs.carry(physical::<COMPACTED>(ids, row), start..hi);
        }
    }

    /// The row segments of CTA `cta_id`'s tile, in order, walked from the
    /// offsets: one step per row the tile touches, never one per nonzero.
    /// Every segment but the last ends inside the tile (a complete row);
    /// the last ends at the tile's end (the CTA's carry). These are
    /// exactly the segments a segmented reduction over the tile's per-item
    /// row ids finds, so a reduction CTA learns its complete rows and its
    /// carry row without expanding a row id per nonzero.
    pub fn tile_segments(&self, cta_id: usize) -> TileSegments<'_> {
        let lo = cta_id * self.nv;
        let (row_lo, row_hi) = self.cta_row_range(cta_id);
        TileSegments {
            offsets: &self.offsets,
            row: row_lo,
            row_hi,
            item: lo,
            hi: (lo + self.nv).min(self.nnz),
        }
    }
}

/// What a row-run walk ([`MergePartition::walk_row_runs`]) does with each
/// run of a tile's items in one physical row. Implementations mark both
/// methods `#[inline(always)]`, so they compile into the walk.
pub(crate) trait RowRuns {
    /// Row `row` ends inside the tile: `items` are its items there.
    fn finish(&mut self, row: usize, items: Range<usize>);
    /// The tile's trailing segment, in row `row`: the CTA's carry.
    fn carry(&mut self, row: usize, items: Range<usize>);
}

/// Physical row of logical `row` under a row map fixed at compile time.
#[inline(always)]
fn physical<const COMPACTED: bool>(ids: &[u32], row: usize) -> usize {
    if COMPACTED {
        ids[row] as usize
    } else {
        row
    }
}

/// How one CTA of a single-pass launch (SpMV's reduction, an SpMM column
/// tile) meets its neighbours: which rows it finishes and whose trailing
/// partials it folds in. Every CTA but the last publishes its own
/// trailing partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileLink {
    /// The CTA finishes physical rows `rows_start..rows_end`: it stores
    /// them, epilogue applied. Consecutive CTAs' runs tile the rows.
    pub(crate) rows_start: u32,
    pub(crate) rows_end: u32,
    /// The CTA folds the trailing partials of CTAs `fold_from..` itself
    /// into its first row, in CTA order: that row started in CTA
    /// `fold_from`'s tile and ends in this one. Equal to the CTA's own id
    /// when there is nothing to fold.
    pub(crate) fold_from: u32,
}

impl TileLink {
    /// Rows the CTA finishes.
    pub(crate) fn rows(&self) -> usize {
        (self.rows_end - self.rows_start) as usize
    }
}

/// The items `start..end` of a CTA tile, all in logical row `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSegment {
    pub row: usize,
    pub start: usize,
    pub end: usize,
}

/// Iterator over one tile's [`RowSegment`]s (see
/// [`MergePartition::tile_segments`]).
#[derive(Debug, Clone)]
pub struct TileSegments<'p> {
    offsets: &'p [usize],
    row: usize,
    row_hi: usize,
    item: usize,
    hi: usize,
}

impl Iterator for TileSegments<'_> {
    type Item = RowSegment;

    fn next(&mut self) -> Option<RowSegment> {
        if self.item >= self.hi {
            return None;
        }
        // The row of `item`: rows ending at or before it are skipped (the
        // empty rows of the raw path among them); the walk never passes
        // the CTA's last row.
        while self.row < self.row_hi && self.offsets[self.row + 1] <= self.item {
            self.row += 1;
        }
        let end = if self.row < self.row_hi {
            self.offsets[self.row + 1].min(self.hi)
        } else {
            self.hi
        };
        let segment = RowSegment {
            row: self.row,
            start: self.item,
            end,
        };
        self.item = end;
        Some(segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpmvConfig, SpmvPlan};
    use mps_sparse::{gen, CooMatrix};

    fn dev() -> Device {
        Device::titan()
    }

    /// The default SpMV/SpMM tile: 128 threads × 7 items.
    fn build(device: &Device, a: &CsrMatrix) -> MergePartition {
        MergePartition::build(device, a, 128, 896, false)
    }

    /// `nnz` nonzeros in rows of 16.
    fn with_nnz(nnz: usize) -> CsrMatrix {
        let trips = (0..nnz).map(|i| ((i / 16) as u32, (i % 16) as u32, 1.0));
        CooMatrix::from_triplets(nnz.div_ceil(16), 16, trips).to_csr()
    }

    #[test]
    fn partition_is_deterministic_and_charged() {
        let a = gen::banded(400, 12.0, 5.0, 40, 3);
        let p1 = build(&dev(), &a);
        let p2 = build(&dev(), &a);
        assert_eq!(p1.s, p2.s);
        assert!(p1.stats.sim_ms > 0.0);
        // Below 14·896 nonzeros the operator spreads over the Titan's 14
        // SMs rather than stopping at ⌈nnz/896⌉ CTAs.
        assert!(a.nnz() > 14 * 128 && a.nnz() < 14 * 896);
        assert_eq!(p1.nv, a.nnz().div_ceil(14));
        assert_eq!(p1.num_ctas(), 14);
        assert_eq!(p1.s.len(), 15);
        assert!(!p1.compacted());
        assert_eq!(p1.logical_rows(), a.num_rows);
    }

    #[test]
    fn tile_spacing_spreads_only_sub_threshold_operators() {
        let (sms, threads, nv) = (14, 128, 896);
        let spacing = |nnz| tile_spacing(sms, nnz, threads, nv);
        let ctas = |nnz: usize| nnz.div_ceil(spacing(nnz));
        // From num_sms·nv nonzeros up, the configured tile.
        for nnz in [sms * nv, sms * nv + 1, 100 * nv + 17] {
            assert_eq!(spacing(nnz), nv, "{nnz}");
        }
        // Below num_sms·block_threads, one nonzero per thread:
        // ⌈nnz/block_threads⌉ CTAs.
        for nnz in [1, 601, sms * threads - 1] {
            assert_eq!(spacing(nnz), threads, "{nnz}");
            assert_eq!(ctas(nnz), nnz.div_ceil(threads), "{nnz}");
        }
        // In between, exactly one CTA per SM.
        for nnz in sms * threads..sms * nv {
            let s = spacing(nnz);
            assert!((threads..=nv).contains(&s), "{nnz}: {s}");
            assert_eq!(ctas(nnz), sms, "{nnz}");
        }
    }

    #[test]
    fn boundary_operators_partition_by_the_rule() {
        let dev = dev();
        // Exactly num_sms·nv nonzeros keeps the configured tile.
        let p = build(&dev, &with_nnz(14 * 896));
        assert_eq!((p.nv, p.num_ctas()), (896, 14));
        // One nonzero fewer still launches one CTA per SM.
        let p = build(&dev, &with_nnz(14 * 896 - 1));
        assert_eq!((p.nv, p.num_ctas()), (896, 14));
        let p = build(&dev, &with_nnz(14 * 896 / 2));
        assert_eq!((p.nv, p.num_ctas()), (448, 14));
        // Under num_sms·block_threads, ⌈nnz/block_threads⌉ CTAs.
        let p = build(&dev, &with_nnz(601));
        assert_eq!((p.nv, p.num_ctas()), (128, 5));
        assert_eq!(p.s.len(), 6);
    }

    #[test]
    fn the_sm_count_moves_only_sub_threshold_partitions() {
        let devices = Device::presets();
        let sms: Vec<usize> = devices.iter().map(|d| d.props.num_sms).collect();
        assert_eq!(sms, [8, 13, 14, 24]);
        // About 5000 nonzeros fill none of the four devices at 896 per
        // CTA: each spreads them over its own SMs.
        let small = gen::banded(400, 12.0, 5.0, 40, 3);
        let parts: Vec<MergePartition> = devices.iter().map(|d| build(d, &small)).collect();
        for (p, &n) in parts.iter().zip(&sms) {
            assert_eq!((p.nv, p.num_ctas()), (small.nnz().div_ceil(n), n));
        }
        for (i, p) in parts.iter().enumerate() {
            for q in &parts[i + 1..] {
                assert_ne!(p.s, q.s);
            }
        }
        // So their products round differently, within the oracle's 1e-9
        // cross-family tolerance.
        let products = |a: &CsrMatrix| -> Vec<Vec<f64>> {
            let x: Vec<f64> = (0..a.num_cols)
                .map(|i| 1.0 + (i % 13) as f64 * 0.37)
                .collect();
            let cfg = SpmvConfig::default();
            let plans = devices.iter().map(|d| (d, SpmvPlan::new(d, a, &cfg)));
            plans.map(|(d, plan)| plan.execute(d, a, &x).y).collect()
        };
        let ys = products(&small);
        for y in &ys[1..] {
            for (p, q) in y.iter().zip(&ys[0]) {
                assert!((p - q).abs() <= 1e-9 * (1.0 + p.abs().max(q.abs())));
            }
        }
        // 24·896 nonzeros and more fill every preset: one partition.
        let large = gen::banded(2000, 12.0, 5.0, 40, 3);
        assert!(large.nnz() >= 24 * 896);
        let parts: Vec<MergePartition> = devices.iter().map(|d| build(d, &large)).collect();
        for p in &parts {
            assert_eq!((p.nv, p.num_ctas()), (896, large.nnz().div_ceil(896)));
            assert_eq!(p.s, parts[0].s);
        }
        let ys = products(&large);
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for y in &ys[1..] {
            assert_eq!(bits(y), bits(&ys[0]));
        }
    }

    #[test]
    fn compaction_engages_on_empty_rows() {
        let a = CooMatrix::from_triplets(10, 10, [(2, 1, 1.0), (7, 3, 2.0)]).to_csr();
        let p = build(&dev(), &a);
        assert!(p.compacted());
        assert_eq!(p.logical_rows(), 2);
        assert_eq!(p.to_physical(0), 2);
        assert_eq!(p.to_physical(1), 7);
        let raw = MergePartition::build(&dev(), &a, 128, 896, true);
        assert!(!raw.compacted());
        assert_eq!(raw.to_physical(7), 7);
    }

    #[test]
    fn empty_matrix_partitions_to_nothing() {
        let a = CsrMatrix::zeros(4, 4);
        let p = build(&dev(), &a);
        assert_eq!(p.num_ctas(), 0);
        assert_eq!(p.nv, 896);
        assert_eq!(p.stats.sim_ms, 0.0);
    }

    #[test]
    fn unassigned_rows_are_empty_or_boundary_ending() {
        // nv = 4 over offsets [0, 4, 6, 9, 9]: row 0 ends exactly on the
        // first CTA boundary (carry-only), row 1 ends strictly inside
        // CTA 1 (assigned), row 2 ends at nnz (the final CTA's trailing
        // carry), row 3 is empty. Both the compacted and raw partitions
        // must report physical rows {0, 2, 3}.
        let mut trips = Vec::new();
        for c in 0..4u32 {
            trips.push((0u32, c, 1.0));
        }
        for c in 0..2u32 {
            trips.push((1u32, c, 1.0));
        }
        for c in 0..3u32 {
            trips.push((2u32, c, 1.0));
        }
        let a = CooMatrix::from_triplets(4, 10, trips).to_csr();
        for force_raw in [false, true] {
            let p = MergePartition::build(&dev(), &a, 4, 4, force_raw);
            assert_eq!((p.nv, p.num_ctas()), (4, 3));
            assert_eq!(p.walk_rows().0, vec![0, 2, 3], "force_raw={force_raw}");
        }
    }

    #[test]
    fn all_rows_unassigned_when_empty() {
        let a = CsrMatrix::zeros(3, 3);
        let p = build(&dev(), &a);
        assert_eq!(p.walk_rows().0, vec![0, 1, 2]);
    }
}
