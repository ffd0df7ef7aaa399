//! The format advisor: pick an SpMV storage format + kernel per sparsity
//! pattern from matrix statistics and cost-model predictions, before
//! converting anything.
//!
//! The selection problem is the one Yang, Buluç & Owens formalize for GPU
//! SpMM: no single format wins everywhere. Merge-path CSR is insensitive
//! to row-length skew but pays shared-memory exchange, barriers, and a
//! carry look-back between CTAs on every matrix; CMRS (Koza et al.)
//! stores exactly `nnz` entries but pays a per-entry row tag and strip
//! imbalance. The advisor builds an [`SpmvWorkload`] for each candidate
//! from row lengths plus a warp-exact replay of each kernel's `x`-gather
//! order — no format is materialized — and asks the device's
//! [`mps_simt::CostModel`] to price them. The gather replays are what
//! separate the candidates on real matrices: merge gathers row-major
//! (rewarding within-row column runs), CMRS gathers strip-interleaved
//! (rewarding cross-row locality, the mesh case). CMRS must beat merge by
//! [`FormatAdvisor::DEFAULT_MARGIN`] to be chosen: ties go to merge, whose
//! flat decomposition is the safe default the paper argues for.

use mps_simt::{Device, SpmvWorkload};
use mps_sparse::cmrs::CMRS_DEFAULT_STRIP_HEIGHT;
use mps_sparse::{CsrMatrix, MatrixStats};

use crate::format_spmv::{format_grid, CmrsSpmvPlan};
use crate::{SpmvConfig, SpmvPlan, Workspace};

/// The storage format + kernel an advised plan executes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatChoice {
    /// Merge-path CSR (the paper's kernel: a partition at build, then one
    /// single-pass reduction launch per execute).
    MergeCsr,
    /// CMRS strip-interleaved kernel.
    Cmrs,
}

impl std::fmt::Display for FormatChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FormatChoice::MergeCsr => "merge-csr",
            FormatChoice::Cmrs => "cmrs",
        })
    }
}

/// The advisor's verdict for one pattern: the choice, both predicted
/// costs (so a regression can report both sides of a flipped decision),
/// and the statistics it read.
#[derive(Debug, Clone)]
pub struct FormatDecision {
    pub choice: FormatChoice,
    /// Predicted device cycles for the merge-path CSR kernel.
    pub merge_cycles: f64,
    /// Predicted device cycles for the CMRS strip kernel.
    pub cmrs_cycles: f64,
    /// Row-length statistics the workloads were derived from.
    pub stats: MatrixStats,
}

impl FormatDecision {
    /// Predicted cycles of the chosen format.
    pub fn chosen_cycles(&self) -> f64 {
        match self.choice {
            FormatChoice::MergeCsr => self.merge_cycles,
            FormatChoice::Cmrs => self.cmrs_cycles,
        }
    }
}

/// Builds the merge and CMRS [`SpmvWorkload`]s from a matrix's row lengths
/// and compares their predicted cycles.
#[derive(Debug, Clone)]
pub struct FormatAdvisor {
    /// Factor CMRS's prediction must beat merge's by.
    margin: f64,
}

impl Default for FormatAdvisor {
    fn default() -> Self {
        FormatAdvisor {
            margin: Self::DEFAULT_MARGIN,
        }
    }
}

/// Replays an indexed-access stream exactly the way the simulator's
/// `Cta::gather`/`scatter` price it: 32 lanes coalesce into distinct
/// 128-byte segments, each warp issues independently, and each kernel-side
/// gather call starts a fresh warp. Elements are 8 bytes (an `f64` of `x`
/// or `y`), so 16 elements share a segment.
struct WarpTx {
    segs: Vec<u64>,
    tx: u64,
}

impl WarpTx {
    const LANES: usize = 32;
    const ELEMS_PER_SEG: u64 = mps_simt::cost::TX_BYTES / 8;

    fn new() -> WarpTx {
        WarpTx {
            segs: Vec::with_capacity(Self::LANES),
            tx: 0,
        }
    }

    fn push(&mut self, elem_idx: u64) {
        self.segs.push(elem_idx / Self::ELEMS_PER_SEG);
        if self.segs.len() == Self::LANES {
            self.flush();
        }
    }

    /// Ends the current gather call: the partial warp issues, and the next
    /// push starts at lane 0.
    fn flush(&mut self) {
        self.segs.sort_unstable();
        self.segs.dedup();
        self.tx += self.segs.len() as u64;
        self.segs.clear();
    }
}

/// Busiest-group work as a multiple of the mean over groups of
/// `group_rows` consecutive values (CTA-level imbalance for a row-split
/// kernel whose CTAs each own `group_rows` rows).
fn group_imbalance(work: &[usize], group_rows: usize) -> f64 {
    if work.is_empty() {
        return 1.0;
    }
    let total: usize = work.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let groups = work.len().div_ceil(group_rows);
    let mean = total as f64 / groups as f64;
    let max = work
        .chunks(group_rows)
        .map(|g| g.iter().sum::<usize>())
        .max()
        .unwrap_or(0);
    (max as f64 / mean).max(1.0)
}

impl FormatAdvisor {
    /// Default selection margin: CMRS's predicted cycles must be at least
    /// this factor below merge's. The model's imbalance term is
    /// first-order, so close calls stay on the skew-proof merge kernel.
    pub const DEFAULT_MARGIN: f64 = 1.25;

    pub fn new(margin: f64) -> FormatAdvisor {
        assert!(
            margin >= 1.0,
            "margin below 1 would prefer predicted-worse formats"
        );
        FormatAdvisor { margin }
    }

    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// DRAM transactions for the merge kernel's `x` gather: the column
    /// stream in CSR (row-major) order, warp-coalesced. A warp covers
    /// consecutive entries of one or a few rows, so this rewards
    /// *within-row* column clustering. CTA boundaries are ignored (one
    /// partial warp per CTA — noise at any real size).
    pub fn merge_gather_tx(a: &CsrMatrix) -> u64 {
        let mut w = WarpTx::new();
        for &c in &a.col_idx {
            w.push(c as u64);
        }
        w.flush();
        w.tx
    }

    /// DRAM transactions for the CMRS kernel's `x` gather: the column
    /// stream in strip-interleaved order (entry `j` of each of the strip's
    /// rows, ascending `j`), one gather call per strip. A warp covers the
    /// same depth across adjacent rows, so this rewards *cross-row*
    /// locality — the reason CMRS wins on meshes, where neighboring rows'
    /// j-th neighbors are themselves neighbors.
    pub fn cmrs_gather_tx(a: &CsrMatrix, strip_height: usize) -> u64 {
        let strip_height = strip_height.max(1);
        let mut w = WarpTx::new();
        for lo in (0..a.num_rows).step_by(strip_height) {
            let hi = (lo + strip_height).min(a.num_rows);
            let longest = (lo..hi).map(|r| a.row_len(r)).max().unwrap_or(0);
            for j in 0..longest {
                for r in lo..hi {
                    let cols = a.row_cols(r);
                    if let Some(&c) = cols.get(j) {
                        w.push(c as u64);
                    }
                }
            }
            w.flush();
        }
        w.tx
    }

    /// Workload of the merge-path CSR kernel: flat decomposition (no
    /// imbalance), but per-item shared-memory segmented reduce, two
    /// barriers per CTA, and the carry look-back. `gathers` is the
    /// [`FormatAdvisor::merge_gather_tx`] replay.
    pub fn merge_workload(a: &CsrMatrix, cfg: &SpmvConfig, gathers: u64) -> SpmvWorkload {
        let nnz = a.nnz() as u64;
        let rows = a.num_rows as u64;
        let ctas = a.nnz().div_ceil(cfg.nv()).max(1) as u64;
        SpmvWorkload {
            ctas,
            // Row-offset windows + column stream + value stream + output
            // stores + each CTA's published carry (value and flag), written
            // once and read once by the look-back that folds it.
            streamed_bytes: (rows + 2 * ctas) * 8 + nnz * 12 + rows * 8 + 2 * ctas * 12,
            gathers,
            // Per item: product + row expansion, then the 3-op segmented
            // reduce; plus the carry fold.
            alu_ops: 5 * nnz + 2 * ctas,
            // Striped→blocked exchange of two register tiles (4 ops/item),
            // reduce staging (2 ops/item), and the row-offset window.
            shmem_ops: 6 * nnz + rows + 2 * ctas,
            // Two barriers in the exchange, two in the reduce, and at most
            // one look-back spin.
            syncs: 5 * ctas,
            imbalance: 1.0,
        }
    }

    /// Workload of the CMRS strip kernel at the default strip height:
    /// exactly-nnz streaming plus the 2-byte tag stream, shared-memory
    /// accumulators, and whatever CTA imbalance the row lengths induce.
    /// `gathers` is the [`FormatAdvisor::cmrs_gather_tx`] replay.
    pub fn cmrs_workload(a: &CsrMatrix, gathers: u64) -> SpmvWorkload {
        let nnz = a.nnz() as u64;
        let rows = a.num_rows as u64;
        let strips = a.num_rows.div_ceil(CMRS_DEFAULT_STRIP_HEIGHT);
        let (strips_per_cta, ctas) = format_grid(strips, CMRS_DEFAULT_STRIP_HEIGHT);
        let lens: Vec<usize> = (0..a.num_rows).map(|r| a.row_len(r)).collect();
        SpmvWorkload {
            ctas: ctas as u64,
            // Tag + column + value streams, output stores.
            streamed_bytes: nnz * 14 + rows * 8,
            gathers,
            alu_ops: 2 * nnz,
            shmem_ops: 2 * nnz,
            syncs: 0,
            imbalance: group_imbalance(&lens, strips_per_cta * CMRS_DEFAULT_STRIP_HEIGHT),
        }
    }

    /// Price merge and CMRS for `a` and pick one: CMRS when its predicted
    /// cycles are below merge's divided by the margin, else merge. Reads
    /// row lengths and column locality only — nothing is converted or
    /// executed.
    pub fn advise(&self, device: &Device, a: &CsrMatrix, cfg: &SpmvConfig) -> FormatDecision {
        let props = &device.props;
        let slots = (props.num_sms * props.max_ctas_per_sm) as u64;
        let cost = &device.cost;
        let merge_cycles = cost.predict_spmv(
            &Self::merge_workload(a, cfg, Self::merge_gather_tx(a)),
            slots,
        );
        let cmrs_cycles = cost.predict_spmv(
            &Self::cmrs_workload(a, Self::cmrs_gather_tx(a, CMRS_DEFAULT_STRIP_HEIGHT)),
            slots,
        );
        let choice = if cmrs_cycles < merge_cycles / self.margin {
            FormatChoice::Cmrs
        } else {
            FormatChoice::MergeCsr
        };
        FormatDecision {
            choice,
            merge_cycles,
            cmrs_cycles,
            stats: MatrixStats::of(a),
        }
    }
}

/// The kernel backend an advised plan dispatches to.
#[derive(Debug, Clone)]
enum AdvisedBackend {
    Merge(Box<SpmvPlan>),
    Cmrs(CmrsSpmvPlan),
}

/// A format decision plus the plan built for the chosen format: the
/// advisor runs once, at build, and every execution is the chosen
/// kernel's zero-alloc replay.
#[derive(Debug, Clone)]
pub struct AdvisedSpmvPlan {
    decision: FormatDecision,
    backend: AdvisedBackend,
}

impl AdvisedSpmvPlan {
    /// Advise on `a` and build the chosen format's plan.
    pub fn new(
        device: &Device,
        a: &CsrMatrix,
        cfg: &SpmvConfig,
        advisor: &FormatAdvisor,
    ) -> AdvisedSpmvPlan {
        let decision = advisor.advise(device, a, cfg);
        let backend = match decision.choice {
            FormatChoice::MergeCsr => {
                AdvisedBackend::Merge(Box::new(SpmvPlan::new(device, a, cfg)))
            }
            FormatChoice::Cmrs => AdvisedBackend::Cmrs(CmrsSpmvPlan::new(device, a)),
        };
        AdvisedSpmvPlan { decision, backend }
    }

    pub fn decision(&self) -> &FormatDecision {
        &self.decision
    }

    pub fn choice(&self) -> FormatChoice {
        self.decision.choice
    }

    /// Simulated milliseconds of one execution through the chosen kernel.
    pub fn execute_sim_ms(&self) -> f64 {
        match &self.backend {
            AdvisedBackend::Merge(p) => p.execute_sim_ms(),
            AdvisedBackend::Cmrs(p) => p.execute_sim_ms(),
        }
    }

    /// Simulated milliseconds paid once at build (the merge partition;
    /// zero for CMRS, whose one-time kernel simulation is the cached
    /// execute cost).
    pub fn build_sim_ms(&self) -> f64 {
        match &self.backend {
            AdvisedBackend::Merge(p) => p.build_sim_ms(),
            AdvisedBackend::Cmrs(_) => 0.0,
        }
    }

    /// Execute through the chosen backend. Both backends read the original
    /// CSR operand, so in-place value updates flow through, and both are
    /// allocation-free once `y` and `ws` are warm.
    pub fn execute_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut Vec<f64>,
        ws: &mut Workspace,
    ) -> f64 {
        match &self.backend {
            AdvisedBackend::Merge(p) => p.execute_into(a, x, y, ws),
            AdvisedBackend::Cmrs(p) => p.execute_into(a, x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn structured_uniform_rows_advise_away_from_merge() {
        // A stencil: uniform short rows with tightly clustered columns.
        // The gathers coalesce, so merge's exchange/barrier/look-back
        // overheads are exposed and the strip kernel must win.
        let m = gen::stencil_5pt(96, 64);
        let d = FormatAdvisor::default().advise(&dev(), &m, &SpmvConfig::default());
        assert_eq!(d.choice, FormatChoice::Cmrs, "{d:?}");
        assert!(d.chosen_cycles() * FormatAdvisor::DEFAULT_MARGIN < d.merge_cycles);
        assert!(d.stats.cv() < 0.5);
    }

    #[test]
    fn random_columns_advise_merge() {
        // Same row regularity but scattered columns: the x gather costs
        // both kernels the same ~1 transaction per entry and dwarfs the
        // overhead differences, so the margin keeps merge.
        let m = gen::fixed_per_row(8192, 8192, 16, 3);
        let d = FormatAdvisor::default().advise(&dev(), &m, &SpmvConfig::default());
        assert_eq!(d.choice, FormatChoice::MergeCsr, "{d:?}");
        assert_eq!(d.stats.cv(), 0.0);
    }

    #[test]
    fn heavy_skew_advises_merge() {
        // A few enormous rows: row-split CTAs inherit the skew, while
        // merge's flat decomposition does not.
        let mut coo = mps_sparse::CooMatrix::new(8192, 8192);
        for r in 0..8192u32 {
            let len = if r % 512 == 0 { 4000usize } else { 2 };
            for k in 0..len {
                coo.push(r, ((r as usize * 13 + k * 37) % 8192) as u32, 1.0);
            }
        }
        let m = coo.to_csr();
        let d = FormatAdvisor::default().advise(&dev(), &m, &SpmvConfig::default());
        assert_eq!(d.choice, FormatChoice::MergeCsr, "{d:?}");
        assert!(d.stats.cv() > 1.0);
    }

    #[test]
    fn margin_gates_the_switch() {
        let m = gen::stencil_5pt(128, 128);
        let dev = dev();
        let cfg = SpmvConfig::default();
        let open = FormatAdvisor::new(1.0).advise(&dev, &m, &cfg);
        assert_eq!(open.choice, FormatChoice::Cmrs);
        // An absurd margin forces merge even where CMRS wins on predicted
        // cycles.
        let closed = FormatAdvisor::new(1e6).advise(&dev, &m, &cfg);
        assert_eq!(closed.choice, FormatChoice::MergeCsr);
    }

    #[test]
    fn gather_replays_see_column_locality() {
        let clustered = gen::stencil_5pt(64, 64);
        let nnz = clustered.nnz() as u64;
        // Stencil warps coalesce heavily in every order, and the
        // strip-interleaved walk (same depth across adjacent rows) beats
        // row-major: at each depth the 16 rows' columns are consecutive.
        let merge = FormatAdvisor::merge_gather_tx(&clustered);
        let cmrs = FormatAdvisor::cmrs_gather_tx(&clustered, 16);
        assert!(merge < nnz / 2, "merge {merge} vs nnz {nnz}");
        assert!(cmrs < merge, "cmrs {cmrs} vs merge {merge}");
        // Random columns over a huge span: nearly every lane touches its
        // own segment, in any order.
        let scattered = gen::fixed_per_row(512, 100_000, 8, 1);
        let snnz = scattered.nnz() as u64;
        let smerge = FormatAdvisor::merge_gather_tx(&scattered);
        assert!(smerge > snnz * 9 / 10, "smerge {smerge} vs nnz {snnz}");
        assert!(FormatAdvisor::cmrs_gather_tx(&scattered, 16) > snnz * 9 / 10);
    }

    #[test]
    fn advised_plan_executes_bitwise_like_its_family() {
        // A stencil routes to CMRS, whose numerics are the sequential
        // row-wise dot, bit for bit.
        let m = gen::stencil_5pt(64, 32);
        let x: Vec<f64> = (0..m.num_cols).map(|i| 0.5 + (i % 9) as f64).collect();
        let dev = dev();
        let plan =
            AdvisedSpmvPlan::new(&dev, &m, &SpmvConfig::default(), &FormatAdvisor::default());
        assert_eq!(plan.choice(), FormatChoice::Cmrs);
        let mut y = Vec::new();
        let mut ws = Workspace::new();
        let ms = plan.execute_into(&m, &x, &mut y, &mut ws);
        assert!(ms > 0.0);
        assert!((ms - plan.execute_sim_ms()).abs() < 1e-12);
        let mut want = vec![0.0; m.num_rows];
        crate::spmv_rowwise(&m, &x, &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn merge_choice_reuses_the_reference_spmv_plan() {
        // When the advisor keeps merge, the advised path must be the
        // merge path — identical plan, identical simulated cost.
        let mut coo = mps_sparse::CooMatrix::new(4096, 4096);
        for r in 0..4096u32 {
            let len = if r % 256 == 0 { 3000usize } else { 1 };
            for k in 0..len {
                coo.push(r, ((r as usize * 11 + k * 41) % 4096) as u32, 1.0);
            }
        }
        let m = coo.to_csr();
        let dev = dev();
        let cfg = SpmvConfig::default();
        let plan = AdvisedSpmvPlan::new(&dev, &m, &cfg, &FormatAdvisor::default());
        assert_eq!(plan.choice(), FormatChoice::MergeCsr);
        let reference = SpmvPlan::new(&dev, &m, &cfg);
        assert_eq!(plan.execute_sim_ms(), reference.execute_sim_ms());
        assert_eq!(plan.build_sim_ms(), reference.build_sim_ms());
    }

    #[test]
    fn decision_reports_both_costs() {
        let m = gen::random_uniform(1000, 1000, 8.0, 3.0, 1);
        let d = FormatAdvisor::default().advise(&dev(), &m, &SpmvConfig::default());
        for c in [d.merge_cycles, d.cmrs_cycles] {
            assert!(c.is_finite() && c > 0.0, "{d:?}");
        }
        assert!(d.chosen_cycles() > 0.0);
    }
}
