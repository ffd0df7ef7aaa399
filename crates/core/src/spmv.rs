//! Merge-path SpMV (Section III-A).
//!
//! Flat decomposition: each CTA processes the same number of nonzeros
//! regardless of row geometry: the configured tile `nv`, or, for an
//! operator too small to fill every SM at that tile, its nonzeros spread
//! over one CTA per SM ([`crate::partition::tile_spacing`]). The tile, and
//! so the summation order, depends on the pattern, `nv`, the CTA width and
//! the device's SM count; every path below reads it from the partition.
//!
//! 1. **Partition** — one binary search per CTA boundary into the CSR row
//!    offsets, recording the row containing each CTA's first nonzero in the
//!    auxiliary buffer `S`. A plan runs it once, at build.
//! 2. **Reduction** — each CTA loads its nonzeros in striped (coalesced)
//!    order, gathers `x`, forms the products, transposes to blocked order
//!    and runs a CTA-wide segmented scan.
//! 3. **Update** — the paper ends with a separate one-CTA launch that folds
//!    the CTAs' trailing partial sums (carries) into `y`. The one-shot
//!    [`merge_spmv`] prices this paper kernel as published. A [`SpmvPlan`]
//!    folds the carries inside the reduction launch instead, by decoupled
//!    look-back: every CTA but the last publishes its trailing partial
//!    right after its scan, and the CTA holding a row's last nonzero reads
//!    its predecessors' partials for that row
//!    ([`mps_simt::Cta::look_back`]), adds them in CTA order and stores the
//!    row. Each CTA then stores every row it finishes as one contiguous run
//!    (its tile link). Both add the carries in the same order, so the two
//!    differ only in price, never in a bit.
//!
//! Empty rows: the fast path walks the raw row offsets; when the input has
//! empty rows the kernel adaptively compacts the offsets array first (the
//! paper's "slightly slower method"), charging the extra pass. In a plan's
//! single pass an empty row is stored by the CTA whose rows surround it.
//!
//! **Plan/execute split.** Every phase's simulated cost is a function of the
//! sparsity structure and the device alone — the partition boundaries, the
//! row walk, the segment layout and the carry links never depend on the
//! numeric values. A [`SpmvPlan`] therefore charges the full pipeline once
//! at build time and caches the launch's [`LaunchStats`]; each
//! [`SpmvPlan::execute_into`]
//! afterwards is a pure flat loop over the precomputed maps that reproduces
//! the kernel's floating-point summation order exactly (per-CTA segmented
//! sums, then the carries added in CTA order onto the row's last segment, or
//! onto 0.0 for a row that only carries) without re-simulating any launch —
//! and, given a warmed [`Workspace`], without allocating.
//!
//! **Host walk.** That loop visits each CTA tile as row runs
//! (`MergePartition::walk_row_runs`): the tile's first row from the
//! tile's start, the rows that end inside the tile with one offset load
//! and one compare each, and the trailing segment that becomes the
//! carry. The whole walk is compiled once per SIMD tier and row map, and
//! an execute tests the CPU once, so each row's gathered dot runs inline
//! with no call per row (see the crate's `simd` module).
//!
//! **Epilogues.** An iterative solver rarely wants `A·x` itself: it wants
//! a residual, a smoothed iterate, a corrected vector or a dot product of
//! the result. [`SpmvPlan::execute_fused_into`] applies an [`Epilogue`] to
//! each finished row sum inside the launch: the CTA that stores a row
//! applies it there, and the last CTA combines the CTAs' dot partials by
//! look-back. One form also stores a second vector beside `A·x`: a
//! multigrid restriction writes the next level's first Jacobi sweep from
//! a zero guess ([`SpmvPlan::execute_fused_sweep_into`]). The launch is
//! priced from the per-CTA counters the plan recorded at build plus the
//! streams its rows read and write. The host replay applies the epilogue
//! in one pass after the product: it is elementwise on finished row sums,
//! so where it runs cannot change a bit.

use std::ops::Range;
use std::sync::OnceLock;

use mps_simt::block::{charge_exchange, charge_segmented_reduce};
use mps_simt::cta::Cta;
use mps_simt::grid::{launch_map_phased, price_ctas, LaunchConfig, LaunchStats};
use mps_simt::{Counters, Device, Phase};
use mps_sparse::CsrMatrix;

use crate::config::SpmvConfig;
use crate::error::PlanError;
use crate::partition::{MergePartition, RowRuns, TileLink};
use crate::simd::dot_gather;
use crate::workspace::Workspace;

/// Publish slot of a CTA's trailing partial (its carry).
pub(crate) const CARRY_SLOT: usize = 0;
/// Publish slot of a CTA's folded-dot partial.
const DOT_SLOT: usize = 1;

/// Result of a merge SpMV: the product vector plus per-phase simulated cost.
#[derive(Debug, Clone)]
pub struct SpmvResult {
    pub y: Vec<f64>,
    pub partition: LaunchStats,
    pub reduction: LaunchStats,
    /// The paper's Update launch, which only the one-shot [`merge_spmv`]
    /// runs; empty for a planned execute.
    pub update: LaunchStats,
    /// Whether the adaptive empty-row compaction path ran.
    pub compacted: bool,
}

impl SpmvResult {
    /// Total simulated kernel time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.partition.sim_ms + self.reduction.sim_ms + self.update.sim_ms
    }

    /// Achieved double-precision GFLOP/s under simulated time, counting the
    /// paper's 2·nnz flops.
    pub fn gflops(&self, nnz: usize) -> f64 {
        if self.sim_ms() == 0.0 {
            return 0.0;
        }
        2.0 * nnz as f64 / (self.sim_ms() * 1e-3) / 1e9
    }
}

/// Precomputed SpMV state: the phase-1 partition (boundary searches plus
/// any empty-row compaction) for a fixed matrix, together with the cached
/// simulated cost of the value-dependent launch.
///
/// Iterative solvers apply the same operator hundreds of times. Everything
/// the simulated pipeline does except the arithmetic itself — partitioning,
/// the row walk, segment layout, carry links, and therefore the entire
/// cost model — depends only on the sparsity pattern and the device, so a
/// plan pays all of it once: [`SpmvPlan::new`] runs the partition *and* charges the
/// single-pass reduction launch against the device, and every subsequent
/// [`SpmvPlan::execute`]/[`SpmvPlan::execute_into`] performs only the flat
/// numeric work.
#[derive(Debug, Clone)]
pub struct SpmvPlan {
    pub(crate) cfg: SpmvConfig,
    num_cols: usize,
    /// Shared merge-path partition (phase 1), reused by every execute.
    pub(crate) part: MergePartition,
    /// Cost of the partition boundary searches, paid at plan build.
    pub partition: LaunchStats,
    /// Cost of the empty-row compaction pass (zero on the raw path), paid
    /// at plan build alongside the partition.
    pub fixup: LaunchStats,
    /// Cached cost of the reduction launch (structure-only; charged once).
    reduction: LaunchStats,
    /// Physical rows the walk never assigns (empty or carry-only); the
    /// executor zeroes exactly these instead of the whole output.
    prezero: Vec<u32>,
    /// Per reduction CTA: its counters at build up to its carry publish
    /// (the tile's reduction), which no epilogue changes.
    heads: Vec<Counters>,
    /// Per reduction CTA: the rows it finishes and the partials it folds.
    links: Vec<TileLink>,
    /// The device the plan was built on, untraced: fused executes are
    /// priced on it, as plain executes are.
    pub(crate) device: Device,
    /// The price of a fused execute per epilogue shape, computed on first
    /// use (see [`Epilogue::shape`]).
    fused_prices: [OnceLock<Box<LaunchStats>>; Epilogue::SHAPES],
}

/// What a fused execute does with each finished row sum `sᵢ = (A·x)ᵢ`.
#[derive(Debug, Clone, Copy)]
pub enum EpilogueForm<'a> {
    /// `yᵢ = α·sᵢ + β·zᵢ`. As in BLAS, `z` is not read when `β` is zero.
    Axpby { alpha: f64, beta: f64, z: &'a [f64] },
    /// One weighted-Jacobi update `yᵢ = xᵢ + (ω·dᵢ)·(bᵢ − sᵢ)`, where `x`
    /// is the vector the product gathers and `d` the inverse diagonal.
    Jacobi {
        omega: f64,
        inv_diag: &'a [f64],
        b: &'a [f64],
    },
    /// `yᵢ = sᵢ`, and beside it, into a second output, the first
    /// weighted-Jacobi sweep from a zero guess on a system whose
    /// right-hand side is `y`: `x₁ᵢ = 0 + (ω·dᵢ)·sᵢ`, where `d` is that
    /// system's inverse diagonal. It equals [`EpilogueForm::Jacobi`]'s
    /// bits on that system from `x = 0` whenever its operator maps 0 to
    /// 0 (no NaN or ±Inf entry), which saves the sweep's product. A
    /// multigrid restriction writes the next level's first pre-sweep this
    /// way.
    ZeroGuessJacobi { omega: f64, inv_diag: &'a [f64] },
}

/// A per-row [`EpilogueForm`] plus an optional folded dot `Σ wᵢ·yᵢ` over
/// the finished output.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a> {
    pub form: EpilogueForm<'a>,
    /// The `w` of the folded dot.
    pub dot: Option<&'a [f64]>,
}

impl<'a> Epilogue<'a> {
    /// `y = α·A·x + β·z`.
    pub fn axpby(alpha: f64, beta: f64, z: &'a [f64]) -> Self {
        Epilogue {
            form: EpilogueForm::Axpby { alpha, beta, z },
            dot: None,
        }
    }

    /// `y = x + (ω·D⁻¹)·(b − A·x)`.
    pub fn jacobi(omega: f64, inv_diag: &'a [f64], b: &'a [f64]) -> Self {
        Epilogue {
            form: EpilogueForm::Jacobi { omega, inv_diag, b },
            dot: None,
        }
    }

    /// `y = A·x`, and `x₁ = 0 + (ω·D⁻¹)·y` into a second output (see
    /// [`EpilogueForm::ZeroGuessJacobi`] and
    /// [`SpmvPlan::execute_fused_sweep_into`]).
    pub fn zero_guess_jacobi(omega: f64, inv_diag: &'a [f64]) -> Self {
        Epilogue {
            form: EpilogueForm::ZeroGuessJacobi { omega, inv_diag },
            dot: None,
        }
    }

    /// `y = A·x`, folding `w·y`.
    pub fn dot_with(w: &'a [f64]) -> Self {
        Epilogue::axpby(1.0, 0.0, &[]).with_dot(w)
    }

    /// This epilogue, also folding `w·y`.
    pub fn with_dot(self, w: &'a [f64]) -> Self {
        Epilogue {
            dot: Some(w),
            ..self
        }
    }

    /// Distinct prices an epilogue can have.
    const SHAPES: usize = 8;

    /// What the price depends on: the form (with `z` read or not) and
    /// whether a dot is folded. Values of α, β, ω and the vectors never
    /// change it.
    fn shape(&self) -> usize {
        let form = match self.form {
            EpilogueForm::Axpby { beta: 0.0, .. } => 0,
            EpilogueForm::Axpby { .. } => 1,
            EpilogueForm::Jacobi { .. } => 2,
            EpilogueForm::ZeroGuessJacobi { .. } => 3,
        };
        2 * form + usize::from(self.dot.is_some())
    }

    /// Vectors each epilogue row reads, besides the row sum.
    fn streams(&self) -> usize {
        let form = match self.form {
            EpilogueForm::Axpby { beta, .. } => usize::from(beta != 0.0),
            EpilogueForm::Jacobi { .. } => 3,
            EpilogueForm::ZeroGuessJacobi { .. } => 1,
        };
        form + usize::from(self.dot.is_some())
    }

    /// Arithmetic per epilogue row.
    fn alu_per_row(&self) -> u64 {
        let form = match self.form {
            EpilogueForm::Axpby { beta: 0.0, .. } => 1,
            EpilogueForm::Axpby { .. } => 3,
            EpilogueForm::Jacobi { .. } => 4,
            EpilogueForm::ZeroGuessJacobi { .. } => 2,
        };
        form + 2 * u64::from(self.dot.is_some())
    }

    /// Whether the form stores a second output row beside each `yᵢ`.
    fn writes_sweep(&self) -> bool {
        matches!(self.form, EpilogueForm::ZeroGuessJacobi { .. })
    }

    /// The extra work of a CTA that finishes `rows` rows: their streams
    /// read coalesced (a CTA's rows are contiguous), their arithmetic and
    /// any second output's stores.
    fn charge_rows(&self, cta: &mut Cta, rows: usize) {
        cta.read_coalesced(rows * self.streams(), 8);
        cta.alu(self.alu_per_row() * rows as u64);
        if self.writes_sweep() {
            cta.write_coalesced(rows, 8);
        }
    }

    fn check(&self, rows: usize, x: &[f64]) {
        match self.form {
            EpilogueForm::Axpby { beta, z, .. } => {
                assert!(
                    beta == 0.0 || z.len() == rows,
                    "z length must equal num_rows"
                );
            }
            EpilogueForm::Jacobi { inv_diag, b, .. } => {
                assert_eq!(x.len(), rows, "a Jacobi epilogue needs a square operator");
                assert_eq!(inv_diag.len(), rows, "inv_diag length must equal num_rows");
                assert_eq!(b.len(), rows, "b length must equal num_rows");
            }
            EpilogueForm::ZeroGuessJacobi { inv_diag, .. } => {
                assert_eq!(inv_diag.len(), rows, "inv_diag length must equal num_rows");
            }
        }
        if let Some(w) = self.dot {
            assert_eq!(w.len(), rows, "dot operand length must equal num_rows");
        }
    }
}

/// Outcome of a fused execute: the price of its launch, as the plan holds
/// it, and the folded dot, when the epilogue asked for one.
#[derive(Debug, Clone, Copy)]
pub struct FusedExecute<'p> {
    pub reduction: &'p LaunchStats,
    pub dot: Option<f64>,
}

impl FusedExecute<'_> {
    /// Simulated milliseconds of the launch.
    pub fn sim_ms(&self) -> f64 {
        self.reduction.sim_ms
    }
}

/// The single-pass part of a reduction CTA's program, after its tile's
/// segmented scan: publish the trailing partial (every CTA but the last,
/// whose partial no CTA reads), fold the partials of `link`'s earlier CTAs
/// into the first row by look-back (one add each, in CTA order), and store
/// the rows `link` gives it with `epilogue` applied. With a folded dot,
/// every CTA but the last publishes its partial and the last one looks
/// back at all of them, combines them and stores the dot. [`SpmvPlan`]'s
/// launch, its fused prices and the reference build all run this one body.
pub(crate) fn finish_rows(cta: &mut Cta, link: &TileLink, epilogue: Option<&Epilogue>) {
    let (id, last) = (cta.cta_id, cta.grid_dim - 1);
    if id < last {
        cta.publish(CARRY_SLOT, 8);
    }
    cta.look_back(link.fold_from as usize..id, CARRY_SLOT, 8);
    cta.alu((id - link.fold_from as usize) as u64);
    cta.write_coalesced(link.rows(), 8);
    let Some(e) = epilogue else { return };
    e.charge_rows(cta, link.rows());
    if e.dot.is_some() {
        if id < last {
            cta.publish(DOT_SLOT, 8);
        } else {
            cta.look_back(0..last, DOT_SLOT, 8);
            cta.alu(last as u64);
            cta.write_coalesced(1, 8);
        }
    }
}

/// A reduction CTA's tile up to and including its segmented scan: the
/// loads, the `x` gather, the products, the exchange and the scan. Both
/// pricings of merge SpMV (the plans' single pass and the one-shot's
/// three phases) start every reduction CTA with this body.
fn charge_tile(cta: &mut Cta, part: &MergePartition, a: &CsrMatrix) {
    let nv = part.nv;
    let lo = cta.cta_id * nv;
    let hi = (lo + nv).min(part.nnz);
    let count = hi - lo;
    let (row_lo, row_hi) = part.cta_row_range(cta.cta_id);

    // Row offsets for the CTA's rows into shared memory.
    cta.read_coalesced(row_hi - row_lo + 2, 8);
    cta.shmem((row_hi - row_lo + 2) as u64);

    // Strided loads of column indices and values (coalesced).
    cta.read_coalesced(count, 4); // col_idx
    cta.read_coalesced(count, 8); // values

    // Gather x by column index: the data-dependent access.
    cta.gather(a.col_idx[lo..hi].iter().map(|&c| c as usize), 8);

    // Form products (one multiply per item — the 2·nnz flops together
    // with the adds inside the segmented reduction).
    cta.alu(count as u64);

    // Expand logical row ids by walking the shared offsets.
    cta.alu(count as u64);

    // On hardware the strided register tile is transposed to blocked
    // order through shared memory before the scan; the exchange covers
    // two tiles (products and row indices).
    charge_exchange(cta, 2 * count);

    // The segmented scan over the tile. Its segments are the tile's row
    // segments.
    charge_segmented_reduce(cta, count);
}

/// The paper's three launches after the partition, as the one-shot
/// [`merge_spmv`] prices them: a reduction launch whose CTAs store the
/// rows completed inside their tiles and leave their trailing partial as
/// a carry, then a one-CTA **Update** launch that reads every carry and
/// folds it into its row. Returns (reduction, update); both are empty for
/// an operator with no nonzeros.
fn charge_three_phase(
    device: &Device,
    part: &MergePartition,
    a: &CsrMatrix,
    cfg: &SpmvConfig,
) -> (LaunchStats, LaunchStats) {
    let (nnz, nv) = (part.nnz, part.nv);
    if nnz == 0 {
        return Default::default();
    }
    let cfg_red = LaunchConfig::new(part.num_ctas(), cfg.block_threads);
    let (carries, reduction) =
        launch_map_phased(device, "spmv_reduce", Phase::Reduction, cfg_red, |cta| {
            charge_tile(cta, part, a);
            // Every segment but the tile's last is a row the tile
            // completes; the last is the carry.
            let hi = ((cta.cta_id + 1) * nv).min(nnz);
            let (mut complete, mut carry) = (0, 0);
            for seg in part.tile_segments(cta.cta_id) {
                if seg.end == hi {
                    carry = seg.row;
                } else {
                    complete += 1;
                }
            }
            cta.write_coalesced(complete, 8);
            carry
        });
    let cfg_upd = LaunchConfig::new(1, cfg.block_threads);
    let (_, update) = launch_map_phased(device, "spmv_update", Phase::Update, cfg_upd, |cta| {
        cta.read_coalesced(carries.len(), 12);
        cta.alu(2 * carries.len() as u64);
        cta.scatter(carries.iter().copied(), 8);
    });
    (reduction, update)
}

/// `Σ aᵢ·bᵢ` folded in index order from the sum's identity: the one
/// summation order of every host dot in the solvers, folded epilogue dots
/// included.
pub fn sequential_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// What one charge of the reduction launch records.
pub(crate) struct NumericCharge {
    pub(crate) reduction: LaunchStats,
    pub(crate) heads: Vec<Counters>,
    /// Tile links the charge derived itself (the reference does, per
    /// nonzero); `None` when it ran on the plan's own.
    pub(crate) links: Option<Vec<TileLink>>,
}

/// A charge of the reduction launch: the plan, the device, the matrix and
/// an optional epilogue in, what the launch recorded out.
pub(crate) type ChargeFn = fn(&SpmvPlan, &Device, &CsrMatrix, Option<&Epilogue>) -> NumericCharge;

impl SpmvPlan {
    /// Non-panicking [`SpmvPlan::new`]: validates the configuration and
    /// returns [`PlanError`] instead of asserting.
    pub fn try_new(
        device: &Device,
        a: &CsrMatrix,
        cfg: &SpmvConfig,
    ) -> Result<SpmvPlan, PlanError> {
        cfg.validate()?;
        Ok(SpmvPlan::new(device, a, cfg))
    }

    /// Build the partition for `a` (phase 1 of Section III-A) and charge
    /// the value-independent cost of the reduction launch.
    pub fn new(device: &Device, a: &CsrMatrix, cfg: &SpmvConfig) -> SpmvPlan {
        Self::build(device, a, cfg, SpmvPlan::charge_numeric_phases)
    }

    /// [`SpmvPlan::new`] with the reduction launch charged by `charge`.
    pub(crate) fn build(
        device: &Device,
        a: &CsrMatrix,
        cfg: &SpmvConfig,
        charge: ChargeFn,
    ) -> SpmvPlan {
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
        let mut plan = SpmvPlan {
            cfg: *cfg,
            num_cols: a.num_cols,
            part,
            partition,
            fixup,
            reduction: LaunchStats::default(),
            prezero,
            heads: Vec::new(),
            links,
            device: Device {
                tracer: None,
                ..device.clone()
            },
            fused_prices: Default::default(),
        };
        let charge = charge(&plan, device, a, None);
        plan.reduction = charge.reduction;
        plan.heads = charge.heads;
        if let Some(links) = charge.links {
            plan.links = links;
        }
        plan
    }

    /// Whether the adaptive empty-row compaction path ran.
    pub fn compacted(&self) -> bool {
        self.part.compacted()
    }

    /// The shared merge-path partition underlying this plan.
    pub fn partition_structure(&self) -> &MergePartition {
        &self.part
    }

    /// Cached simulated cost of the reduction launch.
    pub fn reduction_stats(&self) -> &LaunchStats {
        &self.reduction
    }

    /// Simulated milliseconds of one planned execution.
    pub fn execute_sim_ms(&self) -> f64 {
        self.reduction.sim_ms
    }

    /// Simulated milliseconds paid once at plan build (partition searches
    /// plus any empty-row compaction).
    pub fn build_sim_ms(&self) -> f64 {
        self.partition.sim_ms + self.fixup.sim_ms
    }

    /// Simulate the reduction launch once over the plan's tile links,
    /// charging the device with the traffic of the single-pass kernel,
    /// plus `epilogue`'s extra work when given. The numeric outputs are
    /// discarded — only the per-CTA counters and the cost survive in the
    /// plan. An operator with no nonzeros launches only for an epilogue:
    /// one CTA that finishes every row.
    pub(crate) fn charge_numeric_phases(
        &self,
        device: &Device,
        a: &CsrMatrix,
        epilogue: Option<&Epilogue>,
    ) -> NumericCharge {
        let nnz = self.part.nnz;
        let part = &self.part;
        let links = &self.links;
        if nnz == 0 && (epilogue.is_none() || links.is_empty()) {
            return NumericCharge {
                reduction: LaunchStats::default(),
                heads: vec![Counters::default(); links.len()],
                links: None,
            };
        }
        let cfg_red = LaunchConfig::new(links.len(), self.cfg.block_threads);
        let (heads, reduction) =
            launch_map_phased(device, "spmv_reduce", Phase::Reduction, cfg_red, |cta| {
                if nnz > 0 {
                    charge_tile(cta, part, a);
                }
                let head = *cta.counters();
                finish_rows(cta, &links[cta.cta_id], epilogue);
                head
            });
        NumericCharge {
            reduction,
            heads,
            links: None,
        }
    }

    /// The price of a fused execute with `epilogue`, from the counters
    /// recorded at build plus the epilogue's extra work, through the build
    /// device's cost model and linked wave scheduler: O(CTAs) host work
    /// and no launch simulation. Equal, counter for counter and cycle for
    /// cycle, to [`Self::simulate_fused`].
    fn price_fused(&self, epilogue: &Epilogue) -> LaunchStats {
        let ctas = self.links.len();
        let (threads, warp) = (self.cfg.block_threads, self.device.props.warp_size);
        let priced = self.heads.iter().zip(&self.links).enumerate();
        price_ctas(
            &self.device,
            priced.map(|(id, (head, link))| {
                let mut cta = Cta::new(id, ctas, threads, warp);
                cta.charge(head);
                finish_rows(&mut cta, link, Some(epilogue));
                cta
            }),
        )
    }

    /// Simulate the fused reduction launch in full on the build device,
    /// for checking the price [`Self::execute_fused_into`] reports, which
    /// comes from counters kept at build.
    pub fn simulate_fused(&self, a: &CsrMatrix, epilogue: &Epilogue) -> LaunchStats {
        self.charge_numeric_phases(&self.device, a, Some(epilogue))
            .reduction
    }

    /// The numeric phases as pure flat loops: per-CTA fused product-and-
    /// segmented-sum (bitwise identical to the simulated kernel's grouping:
    /// products accumulate in item order within each row segment), complete
    /// rows assigned, trailing partials added in CTA order — the
    /// look-back fold's order.
    fn numeric_execute(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut [f64],
        carries: &mut Vec<(usize, f64)>,
    ) {
        // Zero only the rows the walk below will not assign (empty rows
        // and carry-only rows, precomputed at plan build); every other
        // row is overwritten by a complete-segment assignment, so the
        // result is identical to a full zero-fill for any prior `y`
        // contents — without streaming the whole output twice.
        for &r in self.prezero.iter() {
            y[r as usize] = 0.0;
        }
        spmv_segment_walk(&self.part, a, x, y, carries);
    }

    /// Swap the numeric values of the planned matrix in place without
    /// re-partitioning. The partition, segment layout, carry structure and
    /// cached phase costs are all pattern-only, so a value swap leaves the
    /// plan fully valid: the next [`SpmvPlan::execute`] computes with the
    /// new values at replay cost.
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

    fn check_inputs(&self, a: &CsrMatrix, x: &[f64]) {
        assert_eq!(x.len(), self.num_cols, "x length must equal num_cols");
        assert_eq!(
            (a.num_rows, a.num_cols, a.nnz()),
            (self.part.num_rows, self.num_cols, self.part.nnz),
            "matrix does not match the plan"
        );
    }

    /// Run the reduction launch against the planned matrix.
    ///
    /// Convenience wrapper over [`SpmvPlan::execute_into`] that allocates
    /// the output vector and clones the cached phase stats. `device` is
    /// unused beyond API symmetry — the cost was charged at plan build.
    ///
    /// # Panics
    /// Panics if `a` does not match the planned matrix's shape/nnz or `x`
    /// has the wrong length.
    pub fn execute(&self, _device: &Device, a: &CsrMatrix, x: &[f64]) -> SpmvResult {
        self.check_inputs(a, x);
        let mut y = vec![0.0; self.part.num_rows];
        let mut carries = Vec::new();
        self.numeric_execute(a, x, &mut y, &mut carries);
        SpmvResult {
            y,
            partition: LaunchStats::default(),
            reduction: self.reduction.clone(),
            update: LaunchStats::default(),
            compacted: self.compacted(),
        }
    }

    /// Steady-state execution: write `y = A·x` into a caller-owned buffer
    /// using workspace scratch, returning the simulated milliseconds of the
    /// reduction launch (from the plan's cached stats).
    ///
    /// After one warm-up call with the same `y`/`ws`, this performs no heap
    /// allocation.
    ///
    /// # Panics
    /// Panics if `a` does not match the planned matrix's shape/nnz or `x`
    /// has the wrong length.
    pub fn execute_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut Vec<f64>,
        ws: &mut Workspace,
    ) -> f64 {
        self.check_inputs(a, x);
        // Size only: `numeric_execute` zero-fills, so a correctly sized
        // warm buffer skips the redundant resize-time zeroing.
        if y.len() != self.part.num_rows {
            y.clear();
            y.resize(self.part.num_rows, 0.0);
        }
        let mut carries = ws.take_carries();
        self.numeric_execute(a, x, y, &mut carries);
        ws.put_carries(carries);
        self.execute_sim_ms()
    }

    /// [`Self::execute_into`] with an [`Epilogue`] applied to every row
    /// sum inside the launch, by the CTA that finishes it: `y` receives the epilogue's
    /// output, never `A·x` itself. Each row's value is the epilogue's
    /// host formula applied to the bits [`Self::execute_into`] would have
    /// produced, and the folded dot is [`sequential_dot`] of the finished
    /// output, so results match the unfused passes bit for bit. The
    /// launches are priced from counters kept at build, once per epilogue
    /// shape; later executes of the shape reuse that price. `y` must not
    /// be the vector the product gathers (the borrow rules see to that):
    /// a pass that updates `x` writes a second buffer.
    ///
    /// # Panics
    /// Panics as [`Self::execute_into`] does, if an epilogue operand does
    /// not have one entry per row, or if the form writes a second output
    /// ([`EpilogueForm::ZeroGuessJacobi`], which
    /// [`Self::execute_fused_sweep_into`] runs).
    pub fn execute_fused_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut Vec<f64>,
        ws: &mut Workspace,
        epilogue: &Epilogue,
    ) -> FusedExecute<'_> {
        assert!(
            !epilogue.writes_sweep(),
            "a zero-guess Jacobi epilogue writes a second output: use execute_fused_sweep_into"
        );
        self.fused_into(a, x, y, None, ws, epilogue)
    }

    /// [`Self::execute_fused_into`] for an [`EpilogueForm::ZeroGuessJacobi`]
    /// epilogue: `y` receives `A·x` and `x1` (resized to the row count)
    /// the sweep `0 + (ω·dᵢ)·yᵢ`, both stored by the CTA that finishes
    /// the row.
    ///
    /// # Panics
    /// Panics as [`Self::execute_fused_into`] does, or if the form is not
    /// [`EpilogueForm::ZeroGuessJacobi`].
    pub fn execute_fused_sweep_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut Vec<f64>,
        x1: &mut Vec<f64>,
        ws: &mut Workspace,
        epilogue: &Epilogue,
    ) -> FusedExecute<'_> {
        assert!(
            epilogue.writes_sweep(),
            "only a zero-guess Jacobi epilogue writes a sweep"
        );
        self.fused_into(a, x, y, Some(x1), ws, epilogue)
    }

    fn fused_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut Vec<f64>,
        x1: Option<&mut Vec<f64>>,
        ws: &mut Workspace,
        epilogue: &Epilogue,
    ) -> FusedExecute<'_> {
        self.check_inputs(a, x);
        epilogue.check(self.part.num_rows, x);
        if y.len() != self.part.num_rows {
            y.clear();
            y.resize(self.part.num_rows, 0.0);
        }
        let mut carries = ws.take_carries();
        self.numeric_execute(a, x, y, &mut carries);
        ws.put_carries(carries);
        // The epilogue is elementwise on finished row sums, so the replay
        // applies it in one pass after the product: where it runs cannot
        // change a bit. Which CTA applies it to which row decides only the
        // price.
        match epilogue.form {
            EpilogueForm::Axpby {
                alpha, beta: 0.0, ..
            } => y.iter_mut().for_each(|s| *s *= alpha),
            EpilogueForm::Axpby { alpha, beta, z } => {
                for (s, zi) in y.iter_mut().zip(z) {
                    *s = alpha * *s + beta * zi;
                }
            }
            EpilogueForm::Jacobi { omega, inv_diag, b } => {
                for (((s, xi), di), bi) in y.iter_mut().zip(x).zip(inv_diag).zip(b) {
                    *s = xi + omega * di * (bi - *s);
                }
            }
            EpilogueForm::ZeroGuessJacobi { omega, inv_diag } => {
                let x1 = x1.expect("a sweep output");
                x1.clear();
                // The Jacobi form's `xᵢ + ω·dᵢ·(bᵢ − sᵢ)` at xᵢ = 0 and
                // sᵢ = ±0: the leading `0 +` turns a −0 product into +0,
                // as the sweep does.
                x1.extend(y.iter().zip(inv_diag).map(|(s, di)| 0.0 + omega * di * s));
            }
        }
        let price = self.fused_prices[epilogue.shape()]
            .get_or_init(|| Box::new(self.price_fused(epilogue)));
        FusedExecute {
            reduction: price,
            dot: epilogue.dot.map(|w| sequential_dot(w, y)),
        }
    }
}

/// The planned-SpMV numeric walk over one CTA partition: per tile, the
/// row runs of [`MergePartition::walk_row_runs`] summed as gathered dots
/// (products folding in item order from 0.0), each row that ends inside
/// its tile stored, and the tile's trailing run kept as a carry; then the
/// carries added onto their rows in CTA order after all CTAs: the order
/// in which the single-pass kernel's look-back folds them.
///
/// Shared by [`SpmvPlan`] and the `k == 1` degenerate path of
/// [`crate::spmm::SpmmPlan`]: both execute this *single instantiation*
/// (`#[inline(never)]` pins one copy), so a single-column SpMM is the
/// planned SpMV — the same machine code, the same bits, the same cost.
/// It tests the CPU once and runs the walk compiled for its tier (see
/// [`crate::simd`]). Callers pre-zero the rows the walk never assigns
/// (see [`MergePartition::walk_rows`]).
#[inline(never)]
pub(crate) fn spmv_segment_walk(
    part: &MergePartition,
    a: &CsrMatrix,
    x: &[f64],
    y: &mut [f64],
    carries: &mut Vec<(usize, f64)>,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::have_avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { spmv_walk_avx2(part, a, x, y, carries) };
    }
    spmv_walk(part, a, x, y, carries);
}

/// [`spmv_walk`] compiled with 256-bit lanes.
///
/// # Safety
/// The CPU must support AVX2 ([`crate::simd::have_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn spmv_walk_avx2(
    part: &MergePartition,
    a: &CsrMatrix,
    x: &[f64],
    y: &mut [f64],
    carries: &mut Vec<(usize, f64)>,
) {
    spmv_walk(part, a, x, y, carries);
}

/// The walk each tier compiles, wherever it is inlined: the row runs,
/// then the carries in CTA order.
#[inline(always)]
pub(crate) fn spmv_walk(
    part: &MergePartition,
    a: &CsrMatrix,
    x: &[f64],
    y: &mut [f64],
    carries: &mut Vec<(usize, f64)>,
) {
    carries.clear();
    part.walk_row_runs(&mut SpmvRuns {
        vals: &a.values,
        cols: &a.col_idx,
        x,
        y,
        carries,
    });
    for &(row, sum) in carries.iter() {
        y[row] += sum;
    }
}

/// The SpMV walk's runs: a finished row's dot is stored, a tile's trailing
/// run's dot is kept as a carry of its physical row.
struct SpmvRuns<'a> {
    vals: &'a [f64],
    cols: &'a [u32],
    x: &'a [f64],
    y: &'a mut [f64],
    carries: &'a mut Vec<(usize, f64)>,
}

impl SpmvRuns<'_> {
    #[inline(always)]
    fn dot(&self, items: Range<usize>) -> f64 {
        dot_gather(&self.vals[items.clone()], &self.cols[items], self.x)
    }
}

impl RowRuns for SpmvRuns<'_> {
    #[inline(always)]
    fn finish(&mut self, row: usize, items: Range<usize>) {
        self.y[row] = self.dot(items);
    }

    #[inline(always)]
    fn carry(&mut self, row: usize, items: Range<usize>) {
        let sum = self.dot(items);
        self.carries.push((row, sum));
    }
}

/// y = A·x with the merge-path flat decomposition, priced as the paper's
/// kernel: partition, reduction and a one-CTA update launch over the
/// carries. The result bits are a planned execute's; only the price
/// differs, since [`SpmvPlan`] folds the carries inside its reduction
/// launch.
///
/// # Panics
/// Panics if `x.len() != a.num_cols`.
pub fn merge_spmv(device: &Device, a: &CsrMatrix, x: &[f64], cfg: &SpmvConfig) -> SpmvResult {
    assert_eq!(x.len(), a.num_cols, "x length must equal num_cols");
    let mut part = MergePartition::build(
        device,
        a,
        cfg.block_threads,
        cfg.nv(),
        cfg.force_no_compaction,
    );
    let (reduction, update) = charge_three_phase(device, &part, a, cfg);
    let mut y = vec![0.0; a.num_rows];
    spmv_segment_walk(&part, a, x, &mut y, &mut Vec::new());
    let mut partition = std::mem::take(&mut part.stats);
    partition.add(&part.fixup);
    SpmvResult {
        y,
        partition,
        reduction,
        update,
        compacted: part.compacted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::ops::spmv_ref;
    use mps_sparse::{gen, CooMatrix};
    use proptest::prelude::*;

    fn dev() -> Device {
        Device::titan()
    }

    fn x_for(m: &CsrMatrix) -> Vec<f64> {
        (0..m.num_cols)
            .map(|i| 1.0 + (i % 13) as f64 * 0.5)
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                "row {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_reference_on_paper_matrix() {
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
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let r = merge_spmv(&dev(), &a, &x, &SpmvConfig::default());
        assert_eq!(r.y, vec![10.0, 290.0, 200.0, 120.0]);
        assert!(!r.compacted);
    }

    #[test]
    fn warm_dirty_output_buffer_is_bitwise_clean() {
        // The targeted pre-zero must make any prior `y` contents
        // invisible: scribble NaN over the warm buffer between executions
        // and demand bitwise equality with the fresh result. Small CTAs
        // put row ends on tile boundaries (the carry-only pre-zero set);
        // the COO matrix adds empty rows (the compaction path).
        let cfg = SpmvConfig {
            block_threads: 32,
            items_per_thread: 2,
            force_no_compaction: false,
        };
        for m in [
            gen::random_uniform(400, 400, 6.0, 3.0, 13),
            CooMatrix::from_triplets(40, 40, [(2, 1, 2.5), (25, 39, -1.0), (26, 0, 4.0)]).to_csr(),
        ] {
            let x = x_for(&m);
            let plan = SpmvPlan::new(&dev(), &m, &cfg);
            let mut ws = Workspace::new();
            let mut y = Vec::new();
            plan.execute_into(&m, &x, &mut y, &mut ws);
            let fresh = y.clone();
            y.iter_mut().for_each(|v| *v = f64::NAN);
            plan.execute_into(&m, &x, &mut y, &mut ws);
            assert!(
                fresh
                    .iter()
                    .zip(&y)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "dirty warm buffer changed the result"
            );
        }
    }

    #[test]
    fn rows_spanning_many_ctas_accumulate_via_carries() {
        // One row with far more nonzeros than a CTA tile.
        let cfg = SpmvConfig {
            block_threads: 32,
            items_per_thread: 2,
            force_no_compaction: false,
        };
        let n = 10 * cfg.nv() + 17;
        let mut coo = CooMatrix::new(2, n);
        for c in 0..n {
            coo.push(0, c as u32, 1.0);
        }
        coo.push(1, 0, 5.0);
        let a = coo.to_csr();
        let x = vec![1.0; n];
        let r = merge_spmv(&dev(), &a, &x, &cfg);
        assert_close(&r.y, &[n as f64, 5.0]);
    }

    #[test]
    fn empty_rows_trigger_compaction_and_stay_zero() {
        let a = CooMatrix::from_triplets(6, 6, [(1, 0, 2.0), (4, 5, 3.0)]).to_csr();
        let x = vec![1.0; 6];
        let r = merge_spmv(&dev(), &a, &x, &SpmvConfig::default());
        assert!(r.compacted);
        assert_eq!(r.y, vec![0.0, 2.0, 0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn forced_raw_path_still_correct_with_empty_rows() {
        let cfg = SpmvConfig {
            force_no_compaction: true,
            ..SpmvConfig::default()
        };
        let a = CooMatrix::from_triplets(6, 6, [(1, 0, 2.0), (4, 5, 3.0)]).to_csr();
        let r = merge_spmv(&dev(), &a, &[1.0; 6], &cfg);
        assert!(!r.compacted);
        assert_eq!(r.y, vec![0.0, 2.0, 0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_vector() {
        let a = CsrMatrix::zeros(5, 5);
        let r = merge_spmv(&dev(), &a, &[1.0; 5], &SpmvConfig::default());
        assert_eq!(r.y, vec![0.0; 5]);
        assert_eq!(r.sim_ms(), 0.0);
    }

    #[test]
    fn matches_reference_on_generated_matrices() {
        for m in [
            gen::stencil_5pt(20, 20),
            gen::banded(300, 20.0, 8.0, 60, 1),
            gen::random_uniform(400, 400, 6.0, 4.0, 2),
            gen::power_law(500, 500, 1, 1.5, 200, 3),
        ] {
            let x = x_for(&m);
            let r = merge_spmv(&dev(), &m, &x, &SpmvConfig::default());
            assert_close(&r.y, &spmv_ref(&m, &x));
        }
    }

    #[test]
    fn gflops_positive_for_nontrivial_matrix() {
        let m = gen::stencil_5pt(50, 50);
        let x = x_for(&m);
        let r = merge_spmv(&dev(), &m, &x, &SpmvConfig::default());
        assert!(r.gflops(m.nnz()) > 0.0);
        assert!(r.sim_ms() > 0.0);
    }

    #[test]
    fn plan_reuse_matches_direct_and_skips_partition_cost() {
        let a = gen::banded(500, 20.0, 6.0, 60, 5);
        let x1 = x_for(&a);
        let x2: Vec<f64> = x1.iter().map(|v| v * 2.0 - 1.0).collect();
        let cfg = SpmvConfig::default();

        let plan = SpmvPlan::new(&dev(), &a, &cfg);
        let direct1 = merge_spmv(&dev(), &a, &x1, &cfg);
        let planned1 = plan.execute(&dev(), &a, &x1);
        assert_close(&planned1.y, &direct1.y);
        // The planned run carries no partition cost.
        assert_eq!(planned1.partition.sim_ms, 0.0);
        assert!(direct1.partition.sim_ms > 0.0);

        // Different vector, same plan.
        let planned2 = plan.execute(&dev(), &a, &x2);
        assert_close(&planned2.y, &spmv_ref(&a, &x2));
    }

    #[test]
    fn execute_into_is_bitwise_identical_to_one_shot() {
        for m in [
            gen::banded(400, 15.0, 6.0, 50, 9),
            gen::power_law(300, 300, 1, 1.5, 120, 4),
            // Empty rows: the compaction path.
            CooMatrix::from_triplets(50, 50, [(3, 1, 2.5), (30, 49, -1.0), (31, 0, 4.0)]).to_csr(),
        ] {
            let x = x_for(&m);
            let one_shot = merge_spmv(&dev(), &m, &x, &SpmvConfig::default());
            let plan = SpmvPlan::new(&dev(), &m, &SpmvConfig::default());
            let mut ws = Workspace::new();
            let mut y = Vec::new();
            let ms = plan.execute_into(&m, &x, &mut y, &mut ws);
            assert_eq!(y, one_shot.y, "planned result must be byte-identical");
            // The one-shot prices the paper's reduction and update
            // launches; the plan folds the update into its one launch.
            assert!(one_shot.update.sim_ms > 0.0);
            assert!(ms < one_shot.reduction.sim_ms + one_shot.update.sim_ms);
            // Re-run with the warmed workspace: still identical.
            plan.execute_into(&m, &x, &mut y, &mut ws);
            assert_eq!(y, one_shot.y);
        }
    }

    #[test]
    fn cached_numeric_stats_match_legacy_per_call_charges() {
        // The build-time charge must equal what the per-call kernels used
        // to charge: nonzero reduction cost and identical totals between
        // two identical plans.
        let a = gen::random_uniform(600, 600, 8.0, 4.0, 13);
        let cfg = SpmvConfig::default();
        let p1 = SpmvPlan::new(&dev(), &a, &cfg);
        let p2 = SpmvPlan::new(&dev(), &a, &cfg);
        assert!(p1.reduction_stats().sim_ms > 0.0);
        assert_eq!(p1.reduction_stats().sim_ms, p2.reduction_stats().sim_ms);
        assert_eq!(
            p1.reduction_stats().totals.dram_read_bytes,
            p2.reduction_stats().totals.dram_read_bytes
        );
        assert!(p1.execute_sim_ms() > 0.0);
    }

    #[test]
    fn plan_handles_empty_rows() {
        let a = CooMatrix::from_triplets(8, 8, [(1, 0, 2.0), (6, 7, 3.0)]).to_csr();
        let plan = SpmvPlan::new(&dev(), &a, &SpmvConfig::default());
        assert!(plan.compacted());
        let r = plan.execute(&dev(), &a, &[1.0; 8]);
        assert_eq!(r.y, vec![0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn update_values_matches_fresh_plan_bitwise_and_validates() {
        let a0 = gen::random_uniform(200, 200, 6.0, 3.0, 21);
        let plan = SpmvPlan::new(&dev(), &a0, &SpmvConfig::default());
        let x = x_for(&a0);
        let mut a = a0.clone();
        let new_vals: Vec<f64> = a0.values.iter().map(|v| v * 1.5 + 0.25).collect();
        plan.update_values(&mut a, new_vals).expect("same pattern");
        let swapped = plan.execute(&dev(), &a, &x);
        let fresh = SpmvPlan::new(&dev(), &a, &SpmvConfig::default()).execute(&dev(), &a, &x);
        assert!(
            swapped
                .y
                .iter()
                .zip(&fresh.y)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "value swap must replay bitwise identically to a fresh plan"
        );
        assert!(matches!(
            plan.update_values(&mut a, vec![0.0; 3]),
            Err(PlanError::ValueLengthMismatch {
                expected: _,
                got: 3
            })
        ));
        let mut b = gen::stencil_5pt(9, 9);
        let n = b.nnz();
        assert!(matches!(
            plan.update_values(&mut b, vec![0.0; n]),
            Err(PlanError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn fused_epilogues_reach_every_row_once_bitwise() {
        // 32-nonzero tiles: 421 nonzeros would fill 7 of the Titan's 14
        // SMs at 64 per CTA, so they spread to one per thread instead.
        // Row 0 spans seven tiles; rows 2 and 5 end exactly on tile
        // boundaries (256 and 320), so they only carry; rows 1 and 4 and
        // every row past 9 are empty.
        let cfg = SpmvConfig {
            block_threads: 32,
            items_per_thread: 2,
            force_no_compaction: false,
        };
        let lens = [200usize, 0, 56, 10, 0, 54, 3, 7, 1, 90];
        let n = 256;
        let mut coo = CooMatrix::new(n, n);
        for (r, &len) in lens.iter().enumerate() {
            for k in 0..len {
                coo.push(
                    r as u32,
                    ((r * 3 + k) % n) as u32,
                    1.0 + (k % 5) as f64 * 0.25,
                );
            }
        }
        let a = coo.to_csr();
        let x = x_for(&a);
        let z: Vec<f64> = (0..n).map(|i| 0.5 - i as f64 * 0.125).collect();
        let d: Vec<f64> = (0..n).map(|i| 0.2 + (i % 3) as f64 * 0.1).collect();
        for force_no_compaction in [false, true] {
            let cfg = SpmvConfig {
                force_no_compaction,
                ..cfg
            };
            let plan = SpmvPlan::new(&dev(), &a, &cfg);
            assert_eq!(plan.part.nv, 32);
            assert_eq!(plan.compacted(), !force_no_compaction);
            for row in [1, 2, 4, 5] {
                assert!(plan.prezero.contains(&row), "row {row} is never assigned");
            }
            let mut ws = Workspace::new();
            let mut sums = Vec::new();
            plan.execute_into(&a, &x, &mut sums, &mut ws);
            type Formula<'f> = &'f dyn Fn(usize, f64) -> f64;
            let cases: [(Epilogue, Formula); 3] = [
                (Epilogue::axpby(-1.0, 1.0, &z), &|i, s| z[i] - s),
                (Epilogue::jacobi(0.7, &d, &z).with_dot(&z), &|i, s| {
                    x[i] + 0.7 * d[i] * (z[i] - s)
                }),
                (Epilogue::dot_with(&d), &|_, s| s),
            ];
            for (epilogue, formula) in cases {
                let mut y = vec![f64::NAN; n];
                let fused = plan.execute_fused_into(&a, &x, &mut y, &mut ws, &epilogue);
                let want: Vec<f64> = (0..n).map(|i| formula(i, sums[i])).collect();
                assert!(y.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()));
                assert_eq!(
                    fused.dot.map(f64::to_bits),
                    epilogue.dot.map(|w| sequential_dot(w, &want).to_bits())
                );
                let simulated = plan.simulate_fused(&a, &epilogue);
                assert_eq!(fused.reduction.per_cta_cycles, simulated.per_cta_cycles);
                assert_eq!(fused.reduction.totals, simulated.totals);
                assert_eq!(fused.reduction.sim_ms.to_bits(), simulated.sim_ms.to_bits());
                // The epilogue costs extra, and the plain execute's price
                // is untouched.
                assert!(fused.sim_ms() > plan.execute_sim_ms());
            }
        }
    }

    #[test]
    fn fused_execute_of_an_empty_operator_still_applies_its_epilogue() {
        let a = CsrMatrix::zeros(4, 4);
        let plan = SpmvPlan::new(&dev(), &a, &SpmvConfig::default());
        let z = [1.0, -2.0, 3.0, -4.0];
        let mut y = Vec::new();
        let fused = plan.execute_fused_into(
            &a,
            &[1.0; 4],
            &mut y,
            &mut Workspace::new(),
            &Epilogue::axpby(2.0, 0.5, &z),
        );
        assert_eq!(y, vec![0.5, -1.0, 1.5, -2.0]);
        assert_eq!(plan.execute_sim_ms(), 0.0);
        // One CTA, with nothing to reduce, finishes all four rows.
        assert_eq!(fused.reduction.per_cta_cycles.len(), 1);
        let simulated = plan.simulate_fused(&a, &Epilogue::axpby(2.0, 0.5, &z));
        assert_eq!(simulated.per_cta_cycles, fused.reduction.per_cta_cycles);
        assert_eq!(fused.reduction.totals.dram_write_bytes, 4 * 8);
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn plan_rejects_mismatched_matrix() {
        let a = gen::stencil_5pt(8, 8);
        let b = gen::stencil_5pt(9, 9);
        let plan = SpmvPlan::new(&dev(), &a, &SpmvConfig::default());
        // x sized for the plan so the shape check is what fires.
        plan.execute(&dev(), &b, &vec![1.0; a.num_cols]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_matrices_match_reference(
            rows in 1usize..80,
            cols in 1usize..80,
            density in 0.0f64..0.4,
            seed in 0u64..1000,
            items in 1usize..4,
        ) {
            let avg = density * cols as f64;
            let m = gen::random_uniform(rows, cols, avg, avg / 2.0, seed);
            let x = x_for(&m);
            let cfg = SpmvConfig { block_threads: 32, items_per_thread: items, force_no_compaction: false };
            let r = merge_spmv(&dev(), &m, &x, &cfg);
            let expect = spmv_ref(&m, &x);
            for (a, b) in r.y.iter().zip(&expect) {
                prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())));
            }
        }
    }
}
