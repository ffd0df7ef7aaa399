//! Symbolic/numeric split for merge-path SpGEMM.
//!
//! Every phase of the Figure 3 pipeline except the arithmetic itself is a
//! function of the two sparsity patterns: the product-space prefix sum, the
//! block-sort permutations and duplicate heads, the global sort order, and
//! the output pattern never look at a value. [`SpgemmPlan`] runs that
//! **symbolic** half once — setup, block sort, global sort, CSR assembly —
//! and composes everything it learned into three flat maps:
//!
//! * `a_idx` / `b_pos` — for every intermediate product, the input value
//!   indices that form it (the second expansion, precomputed);
//! * `slot` — the output nonzero each product accumulates into (block-sort
//!   permutation ∘ global rank ∘ run-of-key, fused at build);
//!
//! plus the per-row product counts and the bin assignment they imply
//! ([`super::bins`]). A **numeric** execution is then a single flat
//! fused-multiply-add loop — `values[slot[q]] += a[a_idx[q]] · b[b_pos[q]]`
//! — with zero structural work, zero scratch, and zero heap allocation
//! once warm. Buffers are sized from the symbolic counts (the exact
//! output nonzeros), not worst-case product bounds.
//!
//! The numeric pass is charged bin-adaptively at build: tiny rows through
//! the dense-accumulator scatter kernel, mid rows through the hash
//! reduction (probe counts measured with [`super::hash::HashAccumulator`]
//! tables sized from the symbolic counts), heavy rows through the paper's
//! original two-pass product compute / product reduce. The one-shot
//! [`super::merge_spgemm`] is plan build + one execution, so planned
//! replays are bitwise identical to it by construction.

use mps_merge::radix::sort_permutation;
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase, PhaseLedger};
use mps_sparse::{unpack_key, CsrMatrix};

use super::bins::{BinClass, BinSummary, RowBins};
use super::block_sort::{self, bits_for, TileReduced};
use super::hash::HashAccumulator;
use super::product::{self, BinProducts};
use super::setup::{self, Expansion};
use super::{PhaseTimes, SpgemmResult};
use crate::assemble;
use crate::config::SpgemmConfig;
use crate::error::PlanError;
use crate::workspace::Workspace;

/// Cached symbolic state for a fixed pair of sparsity patterns: the fused
/// numeric maps, the output CSR pattern, per-row bins, and the simulated
/// cost of both halves of the pipeline.
#[derive(Debug, Clone)]
pub struct SpgemmPlan {
    a_dims: (usize, usize, usize),
    b_dims: (usize, usize, usize),
    /// Intermediate products (the paper's work measure).
    products: usize,
    /// Per-product index into `a.values` (expansion order).
    a_idx: Vec<u32>,
    /// Per-product index into `b.values` (expansion order).
    b_pos: Vec<u32>,
    /// Per-product output nonzero index (the fused structure map).
    slot: Vec<u32>,
    /// Per-row intermediate-product counts (symbolic).
    row_products: Vec<usize>,
    /// Per-row numeric bin assignment.
    bins: RowBins,
    /// Output pattern.
    row_offsets: Vec<usize>,
    col_idx: Vec<u32>,
    /// Pattern-only cost, paid once per pattern pair at plan build.
    symbolic: PhaseTimes,
    /// Value cost, modelling one numeric execution (bin-adaptive).
    numeric: PhaseTimes,
    symbolic_ledger: PhaseLedger,
    numeric_ledger: PhaseLedger,
    symbolic_stats: LaunchStats,
    numeric_stats: LaunchStats,
}

impl SpgemmPlan {
    /// Build the plan for `a · b`, charging the symbolic pipeline plus one
    /// bin-adaptive numeric pass against `device`.
    ///
    /// # Panics
    /// Panics if `a.num_cols != b.num_rows`.
    pub fn new(device: &Device, a: &CsrMatrix, b: &CsrMatrix, cfg: &SpgemmConfig) -> SpgemmPlan {
        Self::try_new(device, a, b, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`SpgemmPlan::new`]: returns [`PlanError`] when the
    /// inner dimensions disagree or the configuration is invalid.
    pub fn try_new(
        device: &Device,
        a: &CsrMatrix,
        b: &CsrMatrix,
        cfg: &SpgemmConfig,
    ) -> Result<SpgemmPlan, PlanError> {
        if a.num_cols != b.num_rows {
            return Err(PlanError::InnerDimMismatch {
                a_cols: a.num_cols,
                b_rows: b.num_rows,
            });
        }
        cfg.validate()?;
        Ok(Self::build(device, a, b, cfg, &BuildStages::LEAN))
    }

    /// The plan build, with the stages that do per-product host work taken
    /// from `stages`.
    pub(crate) fn build(
        device: &Device,
        a: &CsrMatrix,
        b: &CsrMatrix,
        cfg: &SpgemmConfig,
        stages: &BuildStages,
    ) -> SpgemmPlan {
        let mut symbolic_stats = LaunchStats::default();
        let mut symbolic = PhaseTimes::default();
        let mut symbolic_ledger = PhaseLedger::new();
        let a_dims = (a.num_rows, a.num_cols, a.nnz());
        let b_dims = (b.num_rows, b.num_cols, b.nnz());

        // ---- Symbolic 1: setup ----------------------------------------
        let (exp, setup_stats) = setup::setup(device, a, b);
        symbolic.setup = setup_stats.sim_ms;
        symbolic_ledger.charge(
            Phase::Setup,
            setup_stats.sim_ms,
            setup_stats.totals.dram_bytes(),
        );
        symbolic_stats.add(&setup_stats);

        // Per-row product counts: the prefix sum already holds them.
        let row_products: Vec<usize> = (0..a.num_rows)
            .map(|r| exp.s[a.row_offsets[r + 1]] - exp.s[a.row_offsets[r]])
            .collect();
        let bins = RowBins::classify(&row_products, cfg);

        if exp.products == 0 {
            return SpgemmPlan {
                a_dims,
                b_dims,
                products: 0,
                a_idx: Vec::new(),
                b_pos: Vec::new(),
                slot: Vec::new(),
                row_products,
                bins,
                row_offsets: vec![0; a.num_rows + 1],
                col_idx: Vec::new(),
                symbolic,
                numeric: PhaseTimes::default(),
                symbolic_ledger,
                numeric_ledger: PhaseLedger::new(),
                symbolic_stats,
                numeric_stats: LaunchStats::default(),
            };
        }

        // ---- Symbolic 2: block sort -----------------------------------
        let (tiles, bs_stats) = (stages.block_sort)(device, a, b, &exp, cfg);
        symbolic.block_sort = bs_stats.sim_ms;
        symbolic_ledger.charge(
            Phase::BlockSort,
            bs_stats.sim_ms,
            bs_stats.totals.dram_bytes(),
        );
        symbolic_stats.add(&bs_stats);

        let reduced_keys: Vec<u64> = tiles
            .iter()
            .flat_map(|t| t.unique_keys.iter().copied())
            .collect();

        // ---- Symbolic 3: global sort (permutation only) ---------------
        let col_bits = bits_for(b.num_cols);
        let key_bits = col_bits + bits_for(a.num_rows);
        let sort_keys: Vec<u64> = reduced_keys
            .iter()
            .map(|&k| {
                let (r, c) = unpack_key(k);
                ((r as u64) << col_bits) | c as u64
            })
            .collect();
        let (gperm, gs_stats) = device.phase_scope(Phase::GlobalSort, || {
            sort_permutation(device, &sort_keys, key_bits.max(1), cfg.global_sort_nv)
        });
        symbolic.global_sort = gs_stats.sim_ms;
        symbolic_ledger.charge(
            Phase::GlobalSort,
            gs_stats.sim_ms,
            gs_stats.totals.dram_bytes(),
        );
        symbolic_stats.add(&gs_stats);

        let n_reduced = reduced_keys.len();
        let mut rank = vec![0u32; n_reduced];
        for (pos, &src) in gperm.iter().enumerate() {
            rank[src as usize] = pos as u32;
        }
        let gperm_ref = &gperm;
        let (_, inv_stats) = launch_map_phased(
            device,
            "spgemm_rank_invert",
            Phase::GlobalSort,
            LaunchConfig::new(
                n_reduced.div_ceil(cfg.global_sort_nv).max(1),
                cfg.block_threads,
            ),
            |cta| {
                let lo = cta.cta_id * cfg.global_sort_nv;
                let hi = (lo + cfg.global_sort_nv).min(n_reduced);
                cta.read_coalesced(hi - lo, 4);
                cta.scatter(gperm_ref[lo..hi].iter().map(|&p| p as usize), 4);
            },
        );
        symbolic.global_sort += inv_stats.sim_ms;
        symbolic_ledger.charge(
            Phase::GlobalSort,
            inv_stats.sim_ms,
            inv_stats.totals.dram_bytes(),
        );
        symbolic_stats.add(&inv_stats);

        // Sorted position → output index (runs of equal sorted keys), and
        // the unique key list the pattern assembles from.
        let mut run_of = Vec::with_capacity(n_reduced);
        let mut final_keys: Vec<u64> = Vec::new();
        for &p in &gperm {
            let k = reduced_keys[p as usize];
            if final_keys.last() != Some(&k) {
                final_keys.push(k);
            }
            run_of.push(final_keys.len() as u32 - 1);
        }

        // ---- Symbolic 4: CSR assembly charge + host pattern build -----
        let other_stats = super::charge_assemble(device, final_keys.len());
        symbolic.other = other_stats.sim_ms;
        symbolic_ledger.charge(
            Phase::Other,
            other_stats.sim_ms,
            other_stats.totals.dram_bytes(),
        );
        symbolic_stats.add(&other_stats);
        let row_offsets = assemble::row_offsets_from_sorted_keys(a.num_rows, &final_keys);
        let col_idx = assemble::cols_from_keys(&final_keys);

        // ---- Fuse the structure maps for the numeric replay -----------
        let (a_idx, b_pos) = (stages.product_sources)(a, b, &exp.s);
        let nv = cfg.nv();
        let total = exp.products;
        let mut slot = vec![0u32; total];
        let mut base = 0usize;
        for (t, tile) in tiles.iter().enumerate() {
            let lo = t * nv;
            let hi = (lo + nv).min(total);
            let mut local = 0usize;
            let mut cur = 0u32;
            for s in 0..(hi - lo) {
                let q = lo + tile.perm[s] as usize;
                if tile.head[s] {
                    cur = run_of[rank[base + local] as usize];
                    local += 1;
                }
                slot[q] = cur;
            }
            base += tile.unique_keys.len();
        }

        // ---- Numeric: one bin-adaptive pass, charged from the plan ----
        let (numeric, numeric_ledger, numeric_stats) = (stages.charge_numeric)(
            device,
            &NumericInputs {
                a,
                b,
                cfg,
                bins: &bins,
                row_products: &row_products,
                row_offsets: &row_offsets,
                a_idx: &a_idx,
                b_pos: &b_pos,
                reduced_keys: &reduced_keys,
                rank: &rank,
                s: &exp.s,
            },
        );

        SpgemmPlan {
            a_dims,
            b_dims,
            products: total,
            a_idx,
            b_pos,
            slot,
            row_products,
            bins,
            row_offsets,
            col_idx,
            symbolic,
            numeric,
            symbolic_ledger,
            numeric_ledger,
            symbolic_stats,
            numeric_stats,
        }
    }

    /// Intermediate products expanded by the planned multiply.
    pub fn products(&self) -> u64 {
        self.products as u64
    }

    /// Number of nonzeros in the output pattern.
    pub fn output_nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Combined per-phase simulated times: symbolic build plus one numeric
    /// execution (what the one-shot pipeline reports).
    pub fn phases(&self) -> PhaseTimes {
        self.symbolic.plus(&self.numeric)
    }

    /// Pattern-only phase times, paid once per pattern pair.
    pub fn symbolic_phases(&self) -> PhaseTimes {
        self.symbolic
    }

    /// Value phase times, paid per numeric execution.
    pub fn numeric_phases(&self) -> PhaseTimes {
        self.numeric
    }

    /// Simulated milliseconds of the symbolic (pattern) half.
    pub fn symbolic_ms(&self) -> f64 {
        self.symbolic.total()
    }

    /// Simulated milliseconds of one numeric execution.
    pub fn numeric_ms(&self) -> f64 {
        self.numeric.total()
    }

    /// Launch/time/DRAM ledger of the symbolic half.
    pub fn symbolic_ledger(&self) -> &PhaseLedger {
        &self.symbolic_ledger
    }

    /// Launch/time/DRAM ledger of one numeric execution.
    pub fn numeric_ledger(&self) -> &PhaseLedger {
        &self.numeric_ledger
    }

    /// Combined ledger (symbolic + one numeric execution).
    pub fn ledger(&self) -> PhaseLedger {
        let mut l = self.symbolic_ledger.clone();
        l.merge(&self.numeric_ledger);
        l
    }

    /// Aggregate launch statistics of the symbolic half.
    pub fn symbolic_launch_stats(&self) -> &LaunchStats {
        &self.symbolic_stats
    }

    /// Aggregate launch statistics of one numeric execution.
    pub fn numeric_launch_stats(&self) -> &LaunchStats {
        &self.numeric_stats
    }

    /// Per-row intermediate-product counts discovered by the symbolic
    /// phase.
    pub fn row_products(&self) -> &[usize] {
        &self.row_products
    }

    /// Per-row numeric bin assignment.
    pub fn bins(&self) -> &RowBins {
        &self.bins
    }

    /// Aggregate bin occupancy.
    pub fn bin_summary(&self) -> BinSummary {
        self.bins.summary
    }

    /// Exact bytes a numeric execution touches in plan + output buffers:
    /// three u32 maps over the product space plus the f64 output values.
    /// Sized from the symbolic counts — no worst-case bound anywhere.
    pub fn numeric_bytes(&self) -> usize {
        4 * (self.a_idx.len() + self.b_pos.len() + self.slot.len()) + 8 * self.output_nnz()
    }

    /// Swap the numeric values of the planned **A** operand in place. The
    /// symbolic half (product maps, slot fusion, output pattern, bins) is
    /// a function of the two sparsity patterns alone, so a value swap
    /// keeps the plan fully valid and the next
    /// [`SpgemmPlan::execute_numeric`] is a pure numeric replay with the
    /// new values.
    ///
    /// Errors (leaving `a` untouched) if `a` does not carry the planned
    /// A-pattern or `values` is not one value per planned nonzero.
    pub fn update_values(&self, a: &mut CsrMatrix, values: Vec<f64>) -> Result<(), PlanError> {
        Self::swap_values(self.a_dims, a, values)
    }

    /// Swap the numeric values of the planned **B** operand in place (see
    /// [`SpgemmPlan::update_values`]).
    pub fn update_values_b(&self, b: &mut CsrMatrix, values: Vec<f64>) -> Result<(), PlanError> {
        Self::swap_values(self.b_dims, b, values)
    }

    fn swap_values(
        dims: (usize, usize, usize),
        m: &mut CsrMatrix,
        values: Vec<f64>,
    ) -> Result<(), PlanError> {
        let got = (m.num_rows, m.num_cols, m.nnz());
        if dims != got {
            return Err(PlanError::PatternMismatch {
                expected: dims,
                got,
            });
        }
        if values.len() != dims.2 {
            return Err(PlanError::ValueLengthMismatch {
                expected: dims.2,
                got: values.len(),
            });
        }
        m.values = values;
        Ok(())
    }

    fn check_inputs(&self, a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(
            (a.num_rows, a.num_cols, a.nnz()),
            self.a_dims,
            "matrix A does not match the plan"
        );
        assert_eq!(
            (b.num_rows, b.num_cols, b.nnz()),
            self.b_dims,
            "matrix B does not match the plan"
        );
    }

    /// Numeric re-execution: write the output values for `a · b` into a
    /// caller-owned buffer (the pattern lives in the plan) with zero
    /// structural work — one flat fused-multiply-add loop over the product
    /// space. Performs no heap allocation once `values` has warmed to the
    /// output size.
    ///
    /// Returns the simulated milliseconds of one numeric pass (cached from
    /// the bin-adaptive charge at plan build).
    ///
    /// # Panics
    /// Panics if either matrix does not match the planned patterns.
    pub fn execute_numeric(&self, a: &CsrMatrix, b: &CsrMatrix, values: &mut Vec<f64>) -> f64 {
        self.check_inputs(a, b);
        values.clear();
        values.resize(self.output_nnz(), 0.0);
        let av = &a.values[..];
        let bv = &b.values[..];
        for ((&s, &ai), &bp) in self.slot.iter().zip(&self.a_idx).zip(&self.b_pos) {
            values[s as usize] += av[ai as usize] * bv[bp as usize];
        }
        self.numeric.total()
    }

    /// Steady-state execution in the shared plan API shape: numeric
    /// re-execution via [`SpgemmPlan::execute_numeric`] (the workspace is
    /// accepted for signature parity with the other kernels' plans; the
    /// fused numeric loop needs no scratch).
    ///
    /// Returns the simulated milliseconds of the full planned pipeline
    /// (symbolic + one numeric pass).
    pub fn execute_into(
        &self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        values: &mut Vec<f64>,
        _ws: &mut Workspace,
    ) -> f64 {
        self.execute_numeric(a, b, values);
        self.phases().total()
    }

    /// Numeric re-execution assembling a full output matrix: clones the
    /// cached pattern and fills freshly computed values. This is the
    /// serving path for cached plans — no launch-stat bookkeeping, just
    /// the flat numeric replay plus two pattern clones.
    ///
    /// # Panics
    /// Panics if either matrix does not match the planned patterns.
    pub fn execute_matrix(&self, a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        let mut values = Vec::new();
        self.execute_numeric(a, b, &mut values);
        CsrMatrix {
            num_rows: self.a_dims.0,
            num_cols: self.b_dims.1,
            row_offsets: self.row_offsets.clone(),
            col_idx: self.col_idx.clone(),
            values,
        }
    }

    /// Run the planned multiply, assembling a full [`SpgemmResult`] (clones
    /// the cached pattern and stats). `device` is unused beyond API
    /// symmetry — the cost was charged at plan build.
    pub fn execute(&self, _device: &Device, a: &CsrMatrix, b: &CsrMatrix) -> SpgemmResult {
        let c = self.execute_matrix(a, b);
        let mut stats = self.symbolic_stats.clone();
        stats.add(&self.numeric_stats);
        SpgemmResult {
            c,
            products: self.products as u64,
            phases: self.phases(),
            bins: self.bins.summary,
            stats,
        }
    }
}

/// The stages of a plan build that do per-product host work, as one set
/// of functions: the lean ones every build uses, or the reference ones
/// the tests compare them with ([`crate::reference::spgemm_plan`]).
pub(crate) struct BuildStages {
    pub(crate) block_sort: BlockSortFn,
    pub(crate) product_sources: ProductSourcesFn,
    pub(crate) charge_numeric: NumericChargeFn,
}

pub(crate) type ProductSourcesFn = fn(&CsrMatrix, &CsrMatrix, &[usize]) -> (Vec<u32>, Vec<u32>);

pub(crate) type NumericChargeFn =
    fn(&Device, &NumericInputs) -> (PhaseTimes, PhaseLedger, LaunchStats);

pub(crate) type BlockSortFn = fn(
    &Device,
    &CsrMatrix,
    &CsrMatrix,
    &Expansion,
    &SpgemmConfig,
) -> (Vec<TileReduced>, LaunchStats);

impl BuildStages {
    const LEAN: BuildStages = BuildStages {
        block_sort: block_sort::block_sort,
        product_sources,
        charge_numeric,
    };
}

/// What the numeric charge reads: the operands and configuration, the
/// row bins and counts, the output pattern's row offsets, the
/// per-product source maps, the reduced keys with their global ranks, and
/// the product prefix sum.
pub(crate) struct NumericInputs<'p> {
    pub(crate) a: &'p CsrMatrix,
    pub(crate) b: &'p CsrMatrix,
    pub(crate) cfg: &'p SpgemmConfig,
    pub(crate) bins: &'p RowBins,
    pub(crate) row_products: &'p [usize],
    pub(crate) row_offsets: &'p [usize],
    pub(crate) a_idx: &'p [u32],
    pub(crate) b_pos: &'p [u32],
    pub(crate) reduced_keys: &'p [u64],
    pub(crate) rank: &'p [u32],
    pub(crate) s: &'p [usize],
}

/// Charge one bin-adaptive numeric pass: stream each bin's products from
/// its rows' ranges of the per-product maps, size the mid-bin hash tables
/// from the symbolic output counts and measure their probes, and price
/// the heavy bin through the paper's two-pass kernels. Empty bins launch
/// nothing.
fn charge_numeric(device: &Device, n: &NumericInputs) -> (PhaseTimes, PhaseLedger, LaunchStats) {
    let NumericInputs {
        a,
        b,
        bins,
        row_products,
        row_offsets,
        a_idx,
        b_pos,
        s,
        ..
    } = *n;
    let mut tiny = BinProducts::new(a_idx, b_pos);
    let mut mid = BinProducts::new(a_idx, b_pos);
    let mut heavy = BinProducts::new(a_idx, b_pos);
    let (mut tiny_out, mut mid_out, mut heavy_out) = (0usize, 0usize, 0usize);
    let mut mid_probes = 0u64;
    let mut table = HashAccumulator::with_capacity(0);
    for (r, &class) in bins.class.iter().enumerate() {
        if row_products[r] == 0 {
            continue;
        }
        let q = s[a.row_offsets[r]]..s[a.row_offsets[r + 1]];
        let out = row_offsets[r + 1] - row_offsets[r];
        match class {
            BinClass::Tiny => {
                tiny.push(q);
                tiny_out += out;
            }
            BinClass::Mid => {
                // Table sized from the symbolic count; measure the probes
                // this row's actual column stream costs.
                table.reset(out);
                for &bp in &b_pos[q.clone()] {
                    table.accumulate(b.col_idx[bp as usize] as u64, 1.0);
                }
                mid_probes += table.probes();
                mid.push(q);
                mid_out += out;
            }
            BinClass::Heavy => {
                heavy.push(q);
                heavy_out += out;
            }
        }
    }
    charge_bins(
        device,
        n,
        [(&tiny, tiny_out), (&mid, mid_out), (&heavy, heavy_out)],
        mid_probes,
    )
}

/// Launch the numeric kernel of every occupied bin, given each bin's
/// product stream and output nonzeros (tiny, mid, heavy) and the mid
/// bin's measured probes.
pub(crate) fn charge_bins(
    device: &Device,
    n: &NumericInputs,
    [(tiny, tiny_out), (mid, mid_out), (heavy, heavy_out)]: [(&BinProducts, usize); 3],
    mid_probes: u64,
) -> (PhaseTimes, PhaseLedger, LaunchStats) {
    let cfg = n.cfg;
    let mut numeric = PhaseTimes::default();
    let mut ledger = PhaseLedger::new();
    let mut stats = LaunchStats::default();
    if !tiny.is_empty() {
        let st = product::numeric_tiny(device, tiny, tiny_out, cfg);
        numeric.numeric_tiny = st.sim_ms;
        ledger.charge(Phase::NumericTiny, st.sim_ms, st.totals.dram_bytes());
        stats.add(&st);
    }
    if !mid.is_empty() {
        let st = product::numeric_mid(device, mid, mid_out, mid_probes, cfg);
        numeric.numeric_mid = st.sim_ms;
        ledger.charge(Phase::NumericMid, st.sim_ms, st.totals.dram_bytes());
        stats.add(&st);
    }
    if !heavy.is_empty() {
        // Globally sorted positions of the heavy rows' reduced entries —
        // the scatter targets of the two-pass path.
        let heavy_ranks: Vec<u32> = n
            .reduced_keys
            .iter()
            .zip(n.rank)
            .filter(|(&k, _)| n.bins.class[unpack_key(k).0 as usize] == BinClass::Heavy)
            .map(|(_, &r)| r)
            .collect();
        let st = product::numeric_heavy_compute(device, heavy, &heavy_ranks, cfg);
        numeric.product_compute = st.sim_ms;
        ledger.charge(Phase::ProductCompute, st.sim_ms, st.totals.dram_bytes());
        stats.add(&st);
        let st = product::numeric_heavy_reduce(device, heavy_ranks.len(), heavy_out, cfg);
        numeric.product_reduce = st.sim_ms;
        ledger.charge(Phase::ProductReduce, st.sim_ms, st.totals.dram_bytes());
        stats.add(&st);
    }
    (numeric, ledger, stats)
}

/// Per-product source indices `(a value index, b value index)` in expansion
/// order: A nonzero `j` forms the products `s[j]..s[j + 1]`, one per entry
/// of B's row `a.col_idx[j]`.
fn product_sources(a: &CsrMatrix, b: &CsrMatrix, s: &[usize]) -> (Vec<u32>, Vec<u32>) {
    let total = *s.last().expect("non-empty prefix sum");
    let mut a_idx = Vec::with_capacity(total);
    let mut b_pos = Vec::with_capacity(total);
    for (j, (w, &k)) in s.windows(2).zip(&a.col_idx).enumerate() {
        let first = b.row_offsets[k as usize] as u32;
        for t in 0..(w[1] - w[0]) as u32 {
            a_idx.push(j as u32);
            b_pos.push(first + t);
        }
    }
    (a_idx, b_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spgemm::merge_spgemm;
    use crate::{SpmmConfig, SpmmPlan, SpmvConfig, SpmvPlan};
    use mps_sparse::gen;
    use mps_sparse::ops::spgemm_ref;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn plan_execute_matches_one_shot_bitwise() {
        let a = gen::random_uniform(120, 90, 5.0, 3.0, 41);
        let b = gen::random_uniform(90, 110, 4.0, 2.0, 42);
        let cfg = SpgemmConfig::default();
        let one_shot = merge_spgemm(&dev(), &a, &b, &cfg);
        let plan = SpgemmPlan::new(&dev(), &a, &b, &cfg);
        let planned = plan.execute(&dev(), &a, &b);
        assert_eq!(
            planned.c, one_shot.c,
            "planned result must be byte-identical"
        );
        assert_eq!(planned.products, one_shot.products);
        assert_eq!(planned.phases, one_shot.phases);
        assert_eq!(planned.bins, one_shot.bins);
    }

    #[test]
    fn update_values_matches_fresh_plan_bitwise_and_validates() {
        let a0 = gen::random_uniform(90, 70, 5.0, 2.0, 61);
        let b0 = gen::random_uniform(70, 80, 4.0, 2.0, 62);
        let cfg = SpgemmConfig::default();
        let plan = SpgemmPlan::new(&dev(), &a0, &b0, &cfg);
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let va: Vec<f64> = a0.values.iter().map(|v| v * 2.0 - 0.5).collect();
        let vb: Vec<f64> = b0.values.iter().map(|v| v * -1.0 + 0.25).collect();
        plan.update_values(&mut a, va).expect("same A pattern");
        plan.update_values_b(&mut b, vb).expect("same B pattern");
        let swapped = plan.execute_matrix(&a, &b);
        let fresh = SpgemmPlan::new(&dev(), &a, &b, &cfg).execute_matrix(&a, &b);
        assert_eq!(
            swapped, fresh,
            "value swap must replay bitwise identically to a fresh plan"
        );
        assert!(matches!(
            plan.update_values(&mut a, vec![0.0]),
            Err(PlanError::ValueLengthMismatch {
                expected: _,
                got: 1
            })
        ));
        let mut wrong = gen::stencil_5pt(6, 6);
        let n = wrong.nnz();
        assert!(matches!(
            plan.update_values_b(&mut wrong, vec![0.0; n]),
            Err(PlanError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn plan_reuse_with_new_values() {
        let a = gen::random_uniform(80, 80, 5.0, 3.0, 51);
        let b = gen::random_uniform(80, 80, 5.0, 3.0, 52);
        let cfg = SpgemmConfig {
            block_threads: 16,
            items_per_thread: 3,
            global_sort_nv: 64,
            ..SpgemmConfig::default()
        };
        let plan = SpgemmPlan::new(&dev(), &a, &b, &cfg);
        let mut a2 = a.clone();
        for (i, v) in a2.values.iter_mut().enumerate() {
            *v = (i % 7) as f64 - 2.5;
        }
        let planned = plan.execute(&dev(), &a2, &b);
        assert!(planned.c.approx_eq(&spgemm_ref(&a2, &b), 1e-12));
    }

    #[test]
    fn numeric_reexecution_is_bitwise_identical_to_fresh_one_shot() {
        // Same pattern, mutated values: the cached plan's numeric pass
        // must reproduce a freshly built one-shot result exactly.
        let a = gen::random_uniform(100, 100, 6.0, 3.0, 53);
        let b = gen::random_uniform(100, 100, 5.0, 2.0, 54);
        let cfg = SpgemmConfig::default();
        let plan = SpgemmPlan::new(&dev(), &a, &b, &cfg);
        let mut b2 = b.clone();
        for (i, v) in b2.values.iter_mut().enumerate() {
            *v = 0.25 + (i % 11) as f64;
        }
        let mut values = Vec::new();
        plan.execute_numeric(&a, &b2, &mut values);
        let fresh = merge_spgemm(&dev(), &a, &b2, &cfg);
        assert_eq!(values, fresh.c.values);
    }

    #[test]
    fn tiny_tiles_cross_tile_runs_replay_exactly() {
        // Runs spanning reduce-tile boundaries exercise the fused slot map.
        let a = gen::random_uniform(30, 30, 4.0, 2.0, 61);
        let b = gen::random_uniform(30, 30, 4.0, 2.0, 62);
        let cfg = SpgemmConfig {
            block_threads: 1,
            items_per_thread: 2,
            global_sort_nv: 3,
            ..SpgemmConfig::default()
        };
        let one_shot = merge_spgemm(&dev(), &a, &b, &cfg);
        let plan = SpgemmPlan::new(&dev(), &a, &b, &cfg);
        let planned = plan.execute(&dev(), &a, &b);
        assert_eq!(planned.c, one_shot.c);
        assert!(planned.c.approx_eq(&spgemm_ref(&a, &b), 1e-12));
    }

    #[test]
    fn symbolic_and_numeric_partition_the_total() {
        let a = gen::random_uniform(150, 150, 7.0, 4.0, 63);
        let plan = SpgemmPlan::new(&dev(), &a, &a, &SpgemmConfig::default());
        assert!(plan.symbolic_ms() > 0.0);
        assert!(plan.numeric_ms() > 0.0);
        let total = plan.phases().total();
        assert!((plan.symbolic_ms() + plan.numeric_ms() - total).abs() < 1e-12);
        // Ledgers reconcile with the phase breakdown to 1e-9.
        assert!((plan.symbolic_ledger().total_ms() - plan.symbolic_ms()).abs() < 1e-9);
        assert!((plan.numeric_ledger().total_ms() - plan.numeric_ms()).abs() < 1e-9);
        assert!((plan.ledger().total_ms() - total).abs() < 1e-9);
    }

    #[test]
    fn bins_cover_every_row_and_product() {
        let a = gen::power_law(200, 200, 2, 1.8, 60, 14);
        let plan = SpgemmPlan::new(&dev(), &a, &a, &SpgemmConfig::default());
        let sum = plan.bin_summary();
        assert_eq!(sum.rows(), 200);
        assert_eq!(sum.products(), plan.products() as usize);
        assert_eq!(plan.row_products().len(), 200);
        assert_eq!(
            plan.row_products().iter().sum::<usize>(),
            plan.products() as usize
        );
    }

    #[test]
    fn forced_bin_thresholds_route_rows_and_still_match() {
        // Squeeze the thresholds so all three numeric paths run at once.
        let a = gen::random_uniform(120, 120, 6.0, 4.0, 67);
        let cfg = SpgemmConfig {
            bin_tiny_max: 8,
            bin_mid_max: 40,
            ..SpgemmConfig::default()
        };
        let r = merge_spgemm(&dev(), &a, &a, &cfg);
        assert!(r.bins.tiny_rows > 0 || r.bins.mid_rows > 0 || r.bins.heavy_rows > 0);
        assert!(r.c.approx_eq(&spgemm_ref(&a, &a), 1e-12));
        // The phase breakdown carries whichever bins are occupied.
        if r.bins.mid_products > 0 {
            assert!(r.phases.numeric_mid > 0.0);
        }
        if r.bins.heavy_products > 0 {
            assert!(r.phases.product_compute > 0.0 && r.phases.product_reduce > 0.0);
        }
    }

    #[test]
    fn empty_product_space_plan() {
        let a = CsrMatrix::zeros(5, 4);
        let b = CsrMatrix::zeros(4, 6);
        let plan = SpgemmPlan::new(&dev(), &a, &b, &SpgemmConfig::default());
        assert_eq!(plan.products(), 0);
        assert_eq!(plan.numeric_ms(), 0.0);
        let r = plan.execute(&dev(), &a, &b);
        assert_eq!(r.c.nnz(), 0);
        assert_eq!((r.c.num_rows, r.c.num_cols), (5, 6));
    }

    #[test]
    fn execute_into_reuses_buffers() {
        let a = gen::random_uniform(60, 60, 5.0, 2.0, 71);
        let b = gen::random_uniform(60, 60, 5.0, 2.0, 72);
        let plan = SpgemmPlan::new(&dev(), &a, &b, &SpgemmConfig::default());
        let mut ws = Workspace::new();
        let mut values = Vec::new();
        plan.execute_into(&a, &b, &mut values, &mut ws);
        let expected = values.clone();
        let cap = values.capacity();
        let ptr = values.as_ptr();
        plan.execute_into(&a, &b, &mut values, &mut ws);
        assert_eq!(values, expected);
        assert_eq!(values.capacity(), cap);
        assert_eq!(values.as_ptr(), ptr, "warm buffer must be reused in place");
    }

    #[test]
    fn numeric_bytes_scale_with_symbolic_counts() {
        let a = gen::random_uniform(60, 60, 5.0, 2.0, 73);
        let plan = SpgemmPlan::new(&dev(), &a, &a, &SpgemmConfig::default());
        let expect = 12 * plan.products() as usize + 8 * plan.output_nnz();
        assert_eq!(plan.numeric_bytes(), expect);
    }

    #[test]
    fn unrunnable_tiles_are_typed_errors_not_panics() {
        let a = gen::random_uniform(400, 400, 20.0, 4.0, 91);
        let base = SpgemmConfig::default();
        for cfg in [
            SpgemmConfig {
                items_per_thread: 0,
                ..base
            },
            SpgemmConfig {
                block_threads: 0,
                ..base
            },
            SpgemmConfig {
                global_sort_nv: 0,
                ..base
            },
            SpgemmConfig {
                bin_tiny_max: 513,
                ..base
            },
            // 66 560 products per tile: positions past 65 535 would wrap.
            SpgemmConfig {
                block_threads: 512,
                items_per_thread: 130,
                ..base
            },
        ] {
            assert!(
                matches!(
                    SpgemmPlan::try_new(&dev(), &a, &a, &cfg),
                    Err(PlanError::InvalidConfig(_))
                ),
                "{cfg:?}"
            );
        }
        // The largest tile a 16-bit position holds still multiplies right.
        let at_limit = SpgemmConfig {
            block_threads: 512,
            items_per_thread: 128,
            ..base
        };
        let plan = SpgemmPlan::try_new(&dev(), &a, &a, &at_limit).expect("65 536 products fit");
        assert!(plan.products() > at_limit.nv() as u64);
        assert!(plan
            .execute_matrix(&a, &a)
            .approx_eq(&spgemm_ref(&a, &a), 1e-12));
    }

    #[test]
    fn spmv_and_spmm_reject_unrunnable_tiles() {
        let a = gen::random_uniform(40, 40, 4.0, 2.0, 92);
        for cfg in [
            SpmvConfig {
                block_threads: 0,
                ..SpmvConfig::default()
            },
            SpmvConfig {
                items_per_thread: 0,
                ..SpmvConfig::default()
            },
        ] {
            assert!(matches!(
                SpmvPlan::try_new(&dev(), &a, &cfg),
                Err(PlanError::InvalidConfig(_))
            ));
        }
        for cfg in [
            SpmmConfig {
                block_threads: 0,
                ..SpmmConfig::default()
            },
            SpmmConfig {
                items_per_thread: 0,
                ..SpmmConfig::default()
            },
            SpmmConfig {
                tile_k: 0,
                ..SpmmConfig::default()
            },
        ] {
            assert!(matches!(
                SpmmPlan::try_new(&dev(), &a, 4, &cfg),
                Err(PlanError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn plan_rejects_mismatched_operand() {
        let a = gen::random_uniform(20, 20, 4.0, 2.0, 81);
        let b = gen::random_uniform(20, 20, 4.0, 2.0, 82);
        let other = gen::random_uniform(20, 20, 4.0, 2.0, 83);
        let plan = SpgemmPlan::new(&dev(), &a, &b, &SpgemmConfig::default());
        plan.execute(&dev(), &other, &b);
    }
}
