//! Merge-path SpMM: CSR × dense multi-vector (column-tiled).
//!
//! Extends the Section III-A flat decomposition from one dense vector to a
//! block of `k` column vectors (the operand shape of block-Krylov solvers
//! and batched PageRank). The design follows the row-major / column-tiled
//! decomposition popularized by Yang, Buluç and Owens for merge-based SpMM:
//!
//! * The **partition** phase is unchanged — boundaries depend only on the
//!   sparsity pattern, the tile configuration and the device's SM count
//!   ([`crate::partition::tile_spacing`]), never on how many output columns
//!   are produced. A plan builds one [`MergePartition`] and re-walks the
//!   identical CTA boundaries for every column tile, so with the SpMV
//!   defaults on one device each column sums exactly as a planned SpMV.
//! * The **reduction** phase processes a tile of `TILE_K` output columns
//!   per launch: each nonzero gathers a contiguous `TILE_K`-wide run of the
//!   operand block's row (row-major [`DenseBlock`] layout) instead of one
//!   scalar, and the CTA-wide segmented scan carries `TILE_K` partial sums
//!   per segment. A's column indices and values are streamed once per tile
//!   rather than once per column.
//! * There is no separate **update** launch: as in
//!   [`crate::spmv::SpmvPlan`], every CTA but the last publishes its
//!   `TILE_K`-wide trailing partial, and the CTA that finishes a row folds its
//!   predecessors' partials by look-back inside the tile's launch, then
//!   stores every row it finishes with wide scatters.
//!
//! The payoff over `k` independent SpMVs is twofold and the cost model sees
//! both: A's CSR arrays are read `⌈k / TILE_K⌉` times instead of `k` times,
//! and the operand gathers are *wide* — one nonzero's `TILE_K` doubles span
//! a handful of 128-byte segments, where `k` scalar gathers of the same
//! data pay a transaction each (see `Cta::gather_wide` and the
//! `dram_wide_bytes` counter).
//!
//! **Plan/execute split.** Exactly as for [`crate::spmv::SpmvPlan`]: every
//! launch cost is structure-only, charged once at [`SpmmPlan::new`], and
//! [`SpmmPlan::execute_into`] is a pure flat loop that reproduces, column
//! by column, the bitwise floating-point summation order of the planned
//! SpMV — column `c` of the product equals `SpmvPlan::execute` on column
//! `c` of the operand, bit for bit.

use mps_simt::block::{charge_exchange, charge_segmented_reduce};
use mps_simt::cta::Cta;
use mps_simt::grid::{launch_map_into_phased, LaunchBuffers, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::config::SpmmConfig;
use crate::error::PlanError;
use crate::partition::{MergePartition, TileLink};
use crate::simd::{dot_gather_strided_impl, seg_dot_impl};
use crate::spmv::{spmv_segment_walk, CARRY_SLOT};
use crate::workspace::Workspace;

/// Column tiles of a `k`-wide block at width `tile`: `(first_col, width)`.
pub(crate) fn column_tiles(k: usize, tile: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k)
        .step_by(tile)
        .map(move |col0| (col0, tile.min(k - col0)))
}

/// The single-pass part of an SpMM tile CTA's program over column tile
/// `[col0, col0 + w)` of a `k`-wide block, after its segmented scan: as
/// [`crate::spmv::finish_rows`] without an epilogue, with `w`-wide
/// partials and each finished row stored as a `w`-wide run.
pub(crate) fn finish_tile_rows(cta: &mut Cta, link: &TileLink, k: usize, col0: usize, w: usize) {
    let id = cta.cta_id;
    if id + 1 < cta.grid_dim {
        cta.publish(CARRY_SLOT, 8 * w);
    }
    cta.look_back(link.fold_from as usize..id, CARRY_SLOT, 8 * w);
    cta.alu(((id - link.fold_from as usize) * w) as u64);
    cta.scatter_wide(
        (link.rows_start as usize..link.rows_end as usize).map(|row| row * k + col0),
        8,
        w,
    );
}

/// Result of a merge SpMM: the product block plus per-phase simulated cost.
#[derive(Debug, Clone)]
pub struct SpmmResult {
    pub y: DenseBlock,
    pub partition: LaunchStats,
    pub reduction: LaunchStats,
    /// Whether the adaptive empty-row compaction path ran.
    pub compacted: bool,
}

impl SpmmResult {
    /// Total simulated kernel time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.partition.sim_ms + self.reduction.sim_ms
    }

    /// Achieved double-precision GFLOP/s under simulated time, counting
    /// 2·nnz·k flops.
    pub fn gflops(&self, nnz: usize, k: usize) -> f64 {
        if self.sim_ms() == 0.0 {
            return 0.0;
        }
        2.0 * nnz as f64 * k as f64 / (self.sim_ms() * 1e-3) / 1e9
    }
}

/// Precomputed SpMM state for a fixed matrix and block width `k`: the
/// shared merge-path partition plus the cached simulated cost of the
/// per-tile single-pass launches.
///
/// Block solvers apply the same operator to the same `k` right-hand sides
/// every iteration, so the plan charges the full tiled pipeline once —
/// `⌈k / TILE_K⌉` launches, staged through one reused [`LaunchBuffers`] —
/// and each [`SpmmPlan::execute_into`] afterwards is flat numeric work with
/// no allocation in steady state.
#[derive(Debug, Clone)]
pub struct SpmmPlan {
    pub(crate) cfg: SpmmConfig,
    pub(crate) k: usize,
    num_cols: usize,
    /// Shared merge-path partition (phase 1), reused by every tile.
    pub(crate) part: MergePartition,
    /// Cost of the partition boundary searches, paid at plan build.
    pub partition: LaunchStats,
    /// Cost of the empty-row compaction pass (zero on the raw path), paid
    /// at plan build alongside the partition.
    pub fixup: LaunchStats,
    /// Cached cost of all tile launches.
    pub(crate) reduction: LaunchStats,
    /// Physical rows the walk never assigns (empty or carry-only); the
    /// executor zeroes exactly these rows of `y` instead of the whole
    /// block.
    prezero: Vec<u32>,
}

impl SpmmPlan {
    /// Non-panicking [`SpmmPlan::new`]: validates the configuration and
    /// returns [`PlanError`] instead of asserting.
    pub fn try_new(
        device: &Device,
        a: &CsrMatrix,
        k: usize,
        cfg: &SpmmConfig,
    ) -> Result<SpmmPlan, PlanError> {
        cfg.validate()?;
        Ok(SpmmPlan::new(device, a, k, cfg))
    }

    /// Build the partition for `a` and charge the value-independent cost of
    /// the tile launches for a `k`-column operand block.
    pub fn new(device: &Device, a: &CsrMatrix, k: usize, cfg: &SpmmConfig) -> SpmmPlan {
        Self::build(device, a, k, cfg, SpmmPlan::charge_tiled_phases)
    }

    /// [`SpmmPlan::new`] with the tiled phases charged by `charge`.
    pub(crate) fn build(
        device: &Device,
        a: &CsrMatrix,
        k: usize,
        cfg: &SpmmConfig,
        charge: fn(&mut SpmmPlan, &Device, &CsrMatrix, &[TileLink]),
    ) -> SpmmPlan {
        let mut part = MergePartition::build(
            device,
            a,
            cfg.block_threads,
            cfg.nv(),
            cfg.force_no_compaction,
        );
        let partition = std::mem::take(&mut part.stats);
        let fixup = std::mem::take(&mut part.fixup);
        let (prezero, links) = part.walk_rows();
        let mut plan = SpmmPlan {
            cfg: *cfg,
            k,
            num_cols: a.num_cols,
            part,
            partition,
            fixup,
            reduction: LaunchStats::default(),
            prezero,
        };
        if plan.part.nnz > 0 && k > 0 {
            charge(&mut plan, device, a, &links);
        }
        plan
    }

    /// Block width the plan was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of column tiles per execution.
    pub fn num_tiles(&self) -> usize {
        self.k.div_ceil(self.cfg.tile())
    }

    /// Whether the adaptive empty-row compaction path ran.
    pub fn compacted(&self) -> bool {
        self.part.compacted()
    }

    /// The shared merge-path partition underlying this plan.
    pub fn partition_structure(&self) -> &MergePartition {
        &self.part
    }

    /// Cached simulated cost of the tile launches.
    pub fn reduction_stats(&self) -> &LaunchStats {
        &self.reduction
    }

    /// Simulated milliseconds of one planned execution (all tiles'
    /// launches).
    pub fn execute_sim_ms(&self) -> f64 {
        self.reduction.sim_ms
    }

    /// Simulated milliseconds paid once at plan build (partition searches
    /// plus any empty-row compaction).
    pub fn build_sim_ms(&self) -> f64 {
        self.partition.sim_ms + self.fixup.sim_ms
    }

    /// Simulate one single-pass launch per column tile over `links` (the
    /// partition's, from [`MergePartition::walk_rows`]), staging every
    /// launch through the same [`LaunchBuffers`]. The numeric outputs are
    /// discarded — only the cost survives in the plan.
    pub(crate) fn charge_tiled_phases(
        &mut self,
        device: &Device,
        a: &CsrMatrix,
        links: &[TileLink],
    ) {
        let nnz = self.part.nnz;
        let nv = self.part.nv;
        let k = self.k;
        let part = &self.part;

        let mut bufs: LaunchBuffers<()> = LaunchBuffers::new();
        let mut unit_out: Vec<()> = Vec::new();
        let mut tile_stats = LaunchStats::default();
        let mut reduction = LaunchStats::default();

        for (col0, w) in column_tiles(k, self.cfg.tile()) {
            let cfg_red = LaunchConfig::new(links.len(), self.cfg.block_threads);
            launch_map_into_phased(
                device,
                "spmm_reduce",
                Phase::TileTraversal,
                cfg_red,
                |cta| {
                    let lo = cta.cta_id * nv;
                    let hi = (lo + nv).min(nnz);
                    let count = hi - lo;
                    let (row_lo, row_hi) = part.cta_row_range(cta.cta_id);

                    // Row offsets for the CTA's rows into shared memory.
                    cta.read_coalesced(row_hi - row_lo + 2, 8);
                    cta.shmem((row_hi - row_lo + 2) as u64);

                    // A's column indices and values, streamed once per tile
                    // (this is the traffic k independent SpMVs pay k times).
                    cta.read_coalesced(count, 4);
                    cta.read_coalesced(count, 8);

                    // Wide gather of operand rows: each nonzero loads a
                    // contiguous w-wide run of X's row-major storage.
                    cta.gather_wide(
                        a.col_idx[lo..hi].iter().map(|&c| c as usize * k + col0),
                        8,
                        w,
                    );

                    // One multiply per nonzero per column slot.
                    cta.alu((count * w) as u64);

                    // Expand logical row ids by walking the shared offsets.
                    cta.alu(count as u64);

                    // Striped→blocked exchange of the row-id tile plus the
                    // w-wide product tile.
                    charge_exchange(cta, (1 + w) * count);

                    // Segmented scan: the base routine prices one value
                    // lane; the remaining w-1 lanes share the segment
                    // bookkeeping and add only their adds and staging.
                    charge_segmented_reduce(cta, count);
                    cta.alu((3 * count * (w - 1)) as u64);
                    cta.shmem((2 * count * (w - 1)) as u64);

                    finish_tile_rows(cta, &links[cta.cta_id], k, col0, w);
                },
                &mut bufs,
                &mut unit_out,
                &mut tile_stats,
            );
            reduction.add(&tile_stats);
        }

        self.reduction = reduction;
    }

    /// The numeric phases as pure flat loops, tile by tile. Within a tile
    /// each CTA runs the fused product-and-segmented-sum with a `w`-wide
    /// accumulator; per column slot the floating-point op sequence is
    /// exactly [`crate::spmv::SpmvPlan`]'s (products in item order within
    /// each row segment, complete rows assigned, trailing partials folded
    /// as carries in CTA order), so every column of the result is bitwise
    /// identical to a planned SpMV on that operand column.
    fn numeric_execute(
        &self,
        a: &CsrMatrix,
        x: &DenseBlock,
        y: &mut DenseBlock,
        acc: &mut Vec<f64>,
        carries: &mut Vec<(usize, f64)>,
    ) {
        if y.rows != self.part.num_rows || y.cols != self.k {
            // Cold or resized buffer: full zero-fill.
            y.reset(self.part.num_rows, self.k);
        } else {
            // Warm buffer: zero only the rows the walk below will not
            // assign (empty rows and carry-only rows, precomputed at plan
            // build); every other row is overwritten by complete-segment
            // assignments across the column passes, so the result is
            // identical to a full zero-fill without streaming the whole
            // `n × k` block twice per execution.
            if self.k == 1 {
                // Degenerate single-column block: same store pattern as
                // `SpmvPlan` (no slice construction per row).
                for &r in self.prezero.iter() {
                    y.data[r as usize] = 0.0;
                }
            } else {
                for &r in self.prezero.iter() {
                    let base = r as usize * self.k;
                    y.data[base..base + self.k].fill(0.0);
                }
            }
        }
        if self.part.nnz == 0 || self.k == 0 {
            return;
        }
        let k = self.k;

        if k == 1 {
            // Degenerate single-column block: y's backing storage *is* a
            // vector, so run the planned-SpMV segment walk — not a copy
            // of it, the *same instantiation* `SpmvPlan` executes
            // (`spmv_segment_walk` is `#[inline(never)]`). No column-tile
            // iterator, no strided addressing, no width dispatch: a k=1
            // SpMM is the planned SpMV in machine code, bits, and cost.
            spmv_segment_walk(&self.part, a, &x.data, &mut y.data, carries);
            return;
        }

        // The simulated kernel walks ⌈k / TILE_K⌉ column tiles and that is
        // what the plan charged; the host numeric walk fuses adjacent tiles
        // into passes of up to `HOST_TILE` columns so A's CSR arrays stream
        // fewer times and each gathered operand row is consumed in one go.
        // Tile width never affects the bits — per column the summation
        // order is width-invariant (asserted by
        // `tile_width_does_not_change_the_result_bits`) — so the fused walk
        // is bitwise identical to the charged decomposition.
        const HOST_TILE: usize = 64;
        for (col0, w) in column_tiles(k, self.cfg.tile().max(HOST_TILE)) {
            carries.clear();
            // One SIMD-feature dispatch per pass, not per segment: the
            // whole CTA walk is compiled per feature tier, so the inner
            // kernels inline into it and the lane accumulators stay in
            // registers across the segment loop.
            #[cfg(target_arch = "x86_64")]
            {
                // 512-bit lanes only pay off once the accumulator set
                // overflows the sixteen 256-bit register names; narrower
                // tiles measure faster under plain AVX2.
                if w >= 32 && crate::simd::have_avx512() {
                    // SAFETY: AVX-512F support was just verified at runtime.
                    unsafe { self.tile_pass_avx512(a, x, y, acc, carries, col0, w) };
                } else if crate::simd::have_avx2() {
                    // SAFETY: AVX2 support was just verified at runtime.
                    unsafe { self.tile_pass_avx2(a, x, y, acc, carries, col0, w) };
                } else {
                    self.tile_pass_portable(a, x, y, acc, carries, col0, w);
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            self.tile_pass_portable(a, x, y, acc, carries, col0, w);

            for &(idx, sum) in carries.iter() {
                y.data[idx] += sum;
            }
        }
    }

    /// One fused column pass `[col0, col0 + w)` over every CTA: the
    /// segment walk with a `w`-wide accumulator (or the strided scalar
    /// dot when `w == 1`), complete rows assigned into `y`, trailing
    /// segments appended to `carries` as flat `y` indices. Marked
    /// `#[inline(always)]` so each `tile_pass_*` wrapper compiles its own
    /// copy under its target features.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tile_pass_body(
        &self,
        a: &CsrMatrix,
        x: &DenseBlock,
        y: &mut DenseBlock,
        acc: &mut Vec<f64>,
        carries: &mut Vec<(usize, f64)>,
        col0: usize,
        w: usize,
    ) {
        let nnz = self.part.nnz;
        let nv = self.part.nv;
        let k = self.k;
        let num_ctas = self.part.num_ctas();

        if w == 1 {
            // Scalar tile: exactly the planned-SpMV segment walk with a
            // stride-k operand and output, so a single-column SpMM pays
            // no tiling overhead (no width-w accumulator, no per-item
            // slice juggling) and stays bitwise identical to SpMV.
            for cta_id in 0..num_ctas {
                let hi = (cta_id * nv + nv).min(nnz);
                for seg in self.part.tile_segments(cta_id) {
                    let sum = dot_gather_strided_impl(
                        &a.values[seg.start..seg.end],
                        &a.col_idx[seg.start..seg.end],
                        &x.data,
                        k,
                        col0,
                    );
                    let base = self.part.to_physical(seg.row) * k + col0;
                    if seg.end == hi {
                        carries.push((base, sum));
                    } else {
                        y.data[base] = sum;
                    }
                }
            }
        } else {
            acc.clear();
            acc.resize(w, 0.0);
            for cta_id in 0..num_ctas {
                let hi = (cta_id * nv + nv).min(nnz);
                // Segment-wise walk (see `SpmvPlan::numeric_execute`):
                // the w-wide accumulator folds each segment's products
                // in item order from zero, complete rows store w
                // contiguous doubles, the trailing segment carries.
                for seg in self.part.tile_segments(cta_id) {
                    let base = self.part.to_physical(seg.row) * k + col0;
                    // Complete rows write their lane sums straight into
                    // `y`; only the CTA's trailing segment goes through
                    // the scratch accumulator (to be carried).
                    let dst: &mut [f64] = if seg.end == hi {
                        &mut acc[..w]
                    } else {
                        &mut y.data[base..base + w]
                    };
                    seg_dot_impl(
                        &a.values[seg.start..seg.end],
                        &a.col_idx[seg.start..seg.end],
                        &x.data,
                        k,
                        col0,
                        dst,
                    );
                    if seg.end == hi {
                        for (t, &s) in acc.iter().enumerate() {
                            carries.push((base + t, s));
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn tile_pass_portable(
        &self,
        a: &CsrMatrix,
        x: &DenseBlock,
        y: &mut DenseBlock,
        acc: &mut Vec<f64>,
        carries: &mut Vec<(usize, f64)>,
        col0: usize,
        w: usize,
    ) {
        self.tile_pass_body(a, x, y, acc, carries, col0, w)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_pass_avx2(
        &self,
        a: &CsrMatrix,
        x: &DenseBlock,
        y: &mut DenseBlock,
        acc: &mut Vec<f64>,
        carries: &mut Vec<(usize, f64)>,
        col0: usize,
        w: usize,
    ) {
        self.tile_pass_body(a, x, y, acc, carries, col0, w)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_pass_avx512(
        &self,
        a: &CsrMatrix,
        x: &DenseBlock,
        y: &mut DenseBlock,
        acc: &mut Vec<f64>,
        carries: &mut Vec<(usize, f64)>,
        col0: usize,
        w: usize,
    ) {
        self.tile_pass_body(a, x, y, acc, carries, col0, w)
    }

    /// Swap the numeric values of the planned matrix in place without
    /// re-partitioning (see [`crate::spmv::SpmvPlan::update_values`]; the
    /// tiled traversal is equally pattern-only).
    ///
    /// Errors (leaving `a` untouched) if `a` does not carry the planned
    /// pattern or `values` is not one value per planned nonzero.
    pub fn update_values(&self, a: &mut CsrMatrix, values: Vec<f64>) -> Result<(), PlanError> {
        let expected = (self.part.num_rows, self.num_cols, self.part.nnz);
        let got = (a.num_rows, a.num_cols, a.nnz());
        if expected != got {
            return Err(PlanError::PatternMismatch { expected, got });
        }
        if values.len() != self.part.nnz {
            return Err(PlanError::ValueLengthMismatch {
                expected: self.part.nnz,
                got: values.len(),
            });
        }
        a.values = values;
        Ok(())
    }

    fn check_inputs(&self, a: &CsrMatrix, x: &DenseBlock) {
        assert_eq!(
            x.rows, self.num_cols,
            "operand block must have num_cols rows"
        );
        assert_eq!(
            x.cols, self.k,
            "operand block width must equal the planned k"
        );
        assert_eq!(
            (a.num_rows, a.num_cols, a.nnz()),
            (self.part.num_rows, self.num_cols, self.part.nnz),
            "matrix does not match the plan"
        );
    }

    /// Run the tile launches against the planned matrix.
    ///
    /// Convenience wrapper over [`SpmmPlan::execute_into`] that allocates
    /// the output block and clones the cached phase stats. `device` is
    /// unused beyond API symmetry — the cost was charged at plan build.
    ///
    /// # Panics
    /// Panics if `a` does not match the planned matrix's shape/nnz or `x`
    /// is not `num_cols × k`.
    pub fn execute(&self, _device: &Device, a: &CsrMatrix, x: &DenseBlock) -> SpmmResult {
        self.check_inputs(a, x);
        let mut y = DenseBlock::zeros(0, 0);
        let mut acc = Vec::new();
        let mut carries = Vec::new();
        self.numeric_execute(a, x, &mut y, &mut acc, &mut carries);
        SpmmResult {
            y,
            partition: LaunchStats::default(),
            reduction: self.reduction.clone(),
            compacted: self.compacted(),
        }
    }

    /// Steady-state execution: write `Y = A·X` into a caller-owned block
    /// using workspace scratch, returning the simulated milliseconds of the
    /// tile launches (from the plan's cached stats).
    ///
    /// After one warm-up call with the same `y`/`ws`, this performs no heap
    /// allocation.
    ///
    /// # Panics
    /// Panics if `a` does not match the planned matrix's shape/nnz or `x`
    /// is not `num_cols × k`.
    pub fn execute_into(
        &self,
        a: &CsrMatrix,
        x: &DenseBlock,
        y: &mut DenseBlock,
        ws: &mut Workspace,
    ) -> f64 {
        self.check_inputs(a, x);
        let mut acc = ws.take_f64();
        let mut carries = ws.take_carries();
        self.numeric_execute(a, x, y, &mut acc, &mut carries);
        ws.put_f64(acc);
        ws.put_carries(carries);
        self.execute_sim_ms()
    }
}

/// Y = A·X with the column-tiled merge-path decomposition; `k` is taken
/// from the operand block.
///
/// # Panics
/// Panics if `x.rows != a.num_cols`.
pub fn merge_spmm(device: &Device, a: &CsrMatrix, x: &DenseBlock, cfg: &SpmmConfig) -> SpmmResult {
    let plan = SpmmPlan::new(device, a, x.cols, cfg);
    let mut result = plan.execute(device, a, x);
    result.partition = plan.partition;
    result.partition.add(&plan.fixup);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpmvConfig;
    use crate::spmv::SpmvPlan;
    use mps_sparse::dense::spmm_ref;
    use mps_sparse::{gen, CooMatrix};

    fn dev() -> Device {
        Device::titan()
    }

    fn x_block(rows: usize, cols: usize) -> DenseBlock {
        DenseBlock::from_fn(rows, cols, |r, c| {
            1.0 + ((r * 7 + c * 13) % 23) as f64 * 0.25 - (c % 3) as f64
        })
    }

    fn assert_close_block(a: &DenseBlock, b: &DenseBlock) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols));
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                "flat index {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_reference_on_generated_matrices() {
        for m in [
            gen::stencil_5pt(18, 18),
            gen::banded(250, 16.0, 6.0, 50, 2),
            gen::random_uniform(300, 280, 7.0, 4.0, 5),
            gen::power_law(350, 350, 1, 1.5, 140, 11),
        ] {
            for k in [1usize, 3, 16, 33] {
                let x = x_block(m.num_cols, k);
                let r = merge_spmm(&dev(), &m, &x, &SpmmConfig::default());
                assert_close_block(&r.y, &spmm_ref(&m, &x));
            }
        }
    }

    #[test]
    fn update_values_matches_fresh_plan_bitwise_and_validates() {
        let a0 = gen::random_uniform(180, 180, 6.0, 3.0, 17);
        let k = 5;
        let plan = SpmmPlan::new(&dev(), &a0, k, &SpmmConfig::default());
        let x = x_block(a0.num_cols, k);
        let mut a = a0.clone();
        let new_vals: Vec<f64> = a0.values.iter().map(|v| v * -0.5 + 1.0).collect();
        plan.update_values(&mut a, new_vals).expect("same pattern");
        let swapped = plan.execute(&dev(), &a, &x);
        let fresh = SpmmPlan::new(&dev(), &a, k, &SpmmConfig::default()).execute(&dev(), &a, &x);
        assert!(
            swapped
                .y
                .data
                .iter()
                .zip(&fresh.y.data)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "value swap must replay bitwise identically to a fresh plan"
        );
        assert!(matches!(
            plan.update_values(&mut a, vec![1.0]),
            Err(PlanError::ValueLengthMismatch {
                expected: _,
                got: 1
            })
        ));
        let mut b = gen::stencil_5pt(7, 7);
        let n = b.nnz();
        assert!(matches!(
            plan.update_values(&mut b, vec![0.0; n]),
            Err(PlanError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn k1_is_bitwise_identical_to_planned_spmv() {
        for m in [
            gen::banded(300, 14.0, 5.0, 45, 7),
            gen::power_law(250, 250, 1, 1.5, 100, 3),
            // Empty rows: the compaction path.
            CooMatrix::from_triplets(40, 40, [(2, 1, 2.5), (25, 39, -1.0), (26, 0, 4.0)]).to_csr(),
        ] {
            let x = x_block(m.num_cols, 1);
            let spmm = SpmmPlan::new(&dev(), &m, 1, &SpmmConfig::default());
            let spmv = SpmvPlan::new(&dev(), &m, &SpmvConfig::default());
            let ym = spmm.execute(&dev(), &m, &x);
            let yv = spmv.execute(&dev(), &m, &x.column(0));
            assert_eq!(ym.y.data, yv.y, "k=1 SpMM must be bitwise SpMV");
        }
    }

    #[test]
    fn warm_dirty_output_buffer_is_bitwise_clean() {
        // The targeted pre-zero must make any prior `y` contents
        // invisible: scribble NaN over the warm buffer between
        // executions and demand bitwise equality with the fresh result.
        // A row that is never re-zeroed nor assigned would keep (or
        // propagate, via the carry `+=`) the NaN. Small CTAs put row
        // ends on tile boundaries; the COO matrix adds empty rows.
        let cfg = SpmmConfig {
            block_threads: 32,
            items_per_thread: 2,
            ..SpmmConfig::default()
        };
        for m in [
            gen::random_uniform(300, 300, 6.0, 3.0, 21),
            CooMatrix::from_triplets(40, 40, [(2, 1, 2.5), (25, 39, -1.0), (26, 0, 4.0)]).to_csr(),
        ] {
            for k in [1usize, 5, 16, 64] {
                let x = x_block(m.num_cols, k);
                let plan = SpmmPlan::new(&dev(), &m, k, &cfg);
                let mut ws = Workspace::new();
                let mut y = DenseBlock::zeros(0, 0);
                plan.execute_into(&m, &x, &mut y, &mut ws);
                let fresh = y.data.clone();
                y.data.iter_mut().for_each(|v| *v = f64::NAN);
                plan.execute_into(&m, &x, &mut y, &mut ws);
                assert!(
                    fresh
                        .iter()
                        .zip(&y.data)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "k={k}: dirty warm buffer changed the result"
                );
            }
        }
    }

    #[test]
    fn columns_are_bitwise_identical_to_planned_spmv_columns() {
        let m = gen::random_uniform(220, 220, 6.0, 3.0, 9);
        let k = 9;
        let x = x_block(m.num_cols, k);
        let spmm = SpmmPlan::new(
            &dev(),
            &m,
            k,
            &SpmmConfig {
                tile_k: 4,
                ..SpmmConfig::default()
            },
        );
        let spmv = SpmvPlan::new(&dev(), &m, &SpmvConfig::default());
        let ym = spmm.execute(&dev(), &m, &x);
        for c in 0..k {
            let yv = spmv.execute(&dev(), &m, &x.column(c));
            assert_eq!(ym.y.column(c), yv.y, "column {c}");
        }
    }

    #[test]
    fn tile_width_does_not_change_the_result_bits() {
        let m = gen::banded(280, 18.0, 7.0, 55, 21);
        let x = x_block(m.num_cols, 13);
        let mut reference: Option<DenseBlock> = None;
        for tile_k in [1usize, 2, 5, 13, 64] {
            let cfg = SpmmConfig {
                tile_k,
                ..SpmmConfig::default()
            };
            let r = merge_spmm(&dev(), &m, &x, &cfg);
            match &reference {
                None => reference = Some(r.y),
                Some(want) => assert_eq!(&r.y, want, "tile_k={tile_k}"),
            }
        }
    }

    #[test]
    fn tiled_execution_beats_k_repeated_planned_spmvs() {
        let m = gen::random_uniform(2000, 2000, 12.0, 6.0, 17);
        let spmv = SpmvPlan::new(&dev(), &m, &SpmvConfig::default());
        for k in [4usize, 16, 64] {
            let spmm = SpmmPlan::new(&dev(), &m, k, &SpmmConfig::default());
            let tiled = spmm.execute_sim_ms();
            let repeated = k as f64 * spmv.execute_sim_ms();
            assert!(
                tiled < repeated,
                "k={k}: tiled {tiled} ms !< {repeated} ms for repeated SpMVs"
            );
        }
    }

    #[test]
    fn wide_loads_show_up_in_the_dram_counters() {
        let m = gen::stencil_5pt(40, 40);
        let plan = SpmmPlan::new(&dev(), &m, 16, &SpmmConfig::default());
        assert!(plan.reduction_stats().totals.dram_wide_bytes > 0);
        // The SpMV plan never issues wide accesses.
        let spmv = SpmvPlan::new(&dev(), &m, &SpmvConfig::default());
        assert_eq!(spmv.reduction_stats().totals.dram_wide_bytes, 0);
    }

    #[test]
    fn empty_rows_trigger_compaction_and_stay_zero() {
        let a = CooMatrix::from_triplets(6, 6, [(1, 0, 2.0), (4, 5, 3.0)]).to_csr();
        let x = x_block(6, 3);
        let r = merge_spmm(&dev(), &a, &x, &SpmmConfig::default());
        assert!(r.compacted);
        assert_close_block(&r.y, &spmm_ref(&a, &x));
        assert_eq!(r.y.row(0), &[0.0; 3]);
        assert_eq!(r.y.row(3), &[0.0; 3]);
    }

    #[test]
    fn empty_matrix_gives_zero_block() {
        let a = mps_sparse::CsrMatrix::zeros(5, 5);
        let x = x_block(5, 4);
        let r = merge_spmm(&dev(), &a, &x, &SpmmConfig::default());
        assert_eq!(r.y.data, vec![0.0; 20]);
        assert_eq!(r.sim_ms(), 0.0);
    }

    #[test]
    fn execute_into_is_bitwise_identical_and_reuses_buffers() {
        let m = gen::power_law(400, 400, 1, 1.5, 160, 29);
        let k = 8;
        let x = x_block(m.num_cols, k);
        let plan = SpmmPlan::new(&dev(), &m, k, &SpmmConfig::default());
        let one_shot = plan.execute(&dev(), &m, &x);
        let mut ws = Workspace::new();
        let mut y = DenseBlock::zeros(0, 0);
        let ms = plan.execute_into(&m, &x, &mut y, &mut ws);
        assert_eq!(y, one_shot.y);
        assert!((ms - plan.execute_sim_ms()).abs() < 1e-12);
        // Warm re-run: same result, same backing buffer.
        let ptr = y.data.as_ptr();
        plan.execute_into(&m, &x, &mut y, &mut ws);
        assert_eq!(y, one_shot.y);
        assert_eq!(y.data.as_ptr(), ptr, "output storage must be reused");
    }

    #[test]
    fn num_tiles_covers_k() {
        let m = gen::stencil_5pt(10, 10);
        let cfg = SpmmConfig {
            tile_k: 16,
            ..SpmmConfig::default()
        };
        assert_eq!(SpmmPlan::new(&dev(), &m, 1, &cfg).num_tiles(), 1);
        assert_eq!(SpmmPlan::new(&dev(), &m, 16, &cfg).num_tiles(), 1);
        assert_eq!(SpmmPlan::new(&dev(), &m, 17, &cfg).num_tiles(), 2);
        assert_eq!(SpmmPlan::new(&dev(), &m, 64, &cfg).num_tiles(), 4);
    }

    #[test]
    #[should_panic(expected = "operand block width")]
    fn plan_rejects_mismatched_block_width() {
        let m = gen::stencil_5pt(6, 6);
        let plan = SpmmPlan::new(&dev(), &m, 4, &SpmmConfig::default());
        let x = x_block(m.num_cols, 5);
        plan.execute(&dev(), &m, &x);
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn plan_rejects_mismatched_matrix() {
        let a = gen::stencil_5pt(8, 8);
        let b = gen::stencil_5pt(9, 9);
        let plan = SpmmPlan::new(&dev(), &a, 2, &SpmmConfig::default());
        // Operand sized for the plan so the shape check is what fires.
        let x = x_block(a.num_cols, 2);
        plan.execute(&dev(), &b, &x);
    }
}
