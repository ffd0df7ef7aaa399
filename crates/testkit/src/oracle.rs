//! The differential oracle runner.
//!
//! For each input matrix, every kernel the workspace owns is executed
//! through every implementation of it, and the results are cross-checked
//! under the tightest policy each pair admits:
//!
//! * **bitwise** (`f64::to_bits` equality) within the merge plan family —
//!   the one-shot kernel, the reusable plan's `execute` and
//!   `execute_into`, and the serving service's batched path all replay
//!   the identical reduction order, so any difference at all is a bug.
//!   Each is checked against [`reference::merge_family`], that order
//!   written per nonzero at the plan's tile, which shares no walk with
//!   any of them;
//! * **bitwise** between a fused SpMV epilogue and its host formula
//!   applied to that anchor, for every epilogue form and the folded dot;
//!   the fused launches' price from the plan's cached counters must equal
//!   a full simulation of them, cycle for cycle;
//! * **bitwise** across every SpAdd implementation — each output value is
//!   a single `a + b` with no reassociation anywhere, so all of them must
//!   agree exactly;
//! * **bitwise** within the row-wise family — the sequential reference,
//!   the CMRS strip kernel, its planned counterpart, and the advised plan
//!   when it picks CMRS — all accumulate each row in CSR entry order from
//!   the `-0.0` sum identity; the CMRS plan's cached price must equal the
//!   one-shot kernel's launch, cycle for cycle;
//! * **relative tolerance** ([`REL_TOL`]) across summation-order families
//!   (merge kernels vs. the sequential reference vs. the Cusp /
//!   cuSPARSE-like / CPU / format-specialized baselines), with sparsity
//!   *structure* still required to match exactly;
//! * **lossless round trips** for the CMRS conversion — `csr → cmrs → csr`
//!   must reproduce pattern and values bit for bit, after passing the
//!   format's own `validate()`;
//! * **structural invariants** ([`CsrMatrix::validate`]) on every sparse
//!   output, whatever produced it;
//! * **bit-identical builds** — every SpMV, SpMM and SpGEMM plan build,
//!   each fused SpMV simulation and each delta apply equals its
//!   [`mps_core::reference`] build in per-CTA cycles, counters, simulated
//!   milliseconds, ledgers and structural output.
//!
//! Anything the oracle cannot run (a DIA conversion refusing a matrix
//! with too many diagonals, an ELL padding blow-up) is recorded as an
//! explicit [`Skip`] in the report — never silently dropped.

use std::sync::Arc;

use mps_baselines::{cpu, cusp, cusparse_like, format_spmv, spmm as spmm_base};
use mps_core::{
    apply_delta, merge_spadd, merge_spgemm, merge_spmm, merge_spmv, reference, sequential_dot,
    AdvisedSpmvPlan, CmrsSpmvPlan, CsrDelta, Epilogue, EpilogueForm, FormatAdvisor, FormatChoice,
    SpAddConfig, SpAddPlan, SpgemmConfig, SpgemmPlan, SpmmConfig, SpmmPlan, SpmvConfig, SpmvPlan,
    Workspace,
};
use mps_engine::{EngineError, EngineOutput, Service, ServiceConfig, ServiceTicket, TenantId};
use mps_simt::grid::LaunchStats;
use mps_simt::Device;
use mps_sparse::formats::{DiaMatrix, EllMatrix, HybMatrix};
use mps_sparse::{dense, ops, CmrsMatrix, CooMatrix, CsrMatrix, DenseBlock};

/// Relative tolerance across implementations with different summation
/// orders. Inputs are O(1)-magnitude positive values and row lengths stay
/// far below 2^30, so accumulated rounding is orders of magnitude below
/// this bound; exceeding it means a wrong answer, not noise.
pub const REL_TOL: f64 = 1e-9;

/// Dense output columns used for the SpMM checks.
const SPMM_COLS: usize = 3;

/// ELL padding budget: skip the ELL/HYB format checks when padding the
/// matrix to its longest row would exceed this many cells.
const ELL_CELL_BUDGET: usize = 4_000_000;

/// Diagonal budget handed to [`DiaMatrix::from_csr`].
const DIA_MAX_DIAGS: usize = 512;

/// One implementation disagreeing with its oracle on one case.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub case: String,
    pub kernel: &'static str,
    pub implementation: String,
    pub detail: String,
}

/// One implementation the oracle could not run on one case, and why.
#[derive(Debug, Clone)]
pub struct Skip {
    pub case: String,
    pub implementation: String,
    pub reason: String,
}

/// Outcome of a differential sweep: how much was checked, what was
/// skipped (with reasons), and every divergence found.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// Input matrices swept.
    pub cases: usize,
    /// Individual cross-implementation comparisons performed.
    pub checks: u64,
    pub skips: Vec<Skip>,
    pub divergences: Vec<Divergence>,
}

impl ConformanceReport {
    /// True when the sweep found zero divergences (skips are allowed —
    /// they are visible in [`ConformanceReport::render`]).
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable summary: totals, then every skip and divergence.
    pub fn render(&self) -> String {
        let mut out = format!(
            "conformance: {} cases, {} checks, {} skips, {} divergences\n",
            self.cases,
            self.checks,
            self.skips.len(),
            self.divergences.len()
        );
        for s in &self.skips {
            out.push_str(&format!(
                "  skip [{}] {}: {}\n",
                s.case, s.implementation, s.reason
            ));
        }
        for d in &self.divergences {
            out.push_str(&format!(
                "  DIVERGE [{}] {} / {}: {}\n",
                d.case, d.kernel, d.implementation, d.detail
            ));
        }
        out
    }

    fn diverge(&mut self, case: &str, kernel: &'static str, imp: &str, detail: String) {
        self.divergences.push(Divergence {
            case: case.to_string(),
            kernel,
            implementation: imp.to_string(),
            detail,
        });
    }

    fn skip(&mut self, case: &str, imp: &str, reason: String) {
        self.skips.push(Skip {
            case: case.to_string(),
            implementation: imp.to_string(),
            reason,
        });
    }
}

/// The differential runner: owns a device and a long-lived one-shard
/// serving service, whose queue serves the batched and submitted paths
/// (so sweeping also exercises the shard engine's plan cache and
/// workspace reuse across cases).
pub struct Oracle {
    device: Device,
    service: Service,
}

impl Oracle {
    pub fn new(device: &Device) -> Oracle {
        let cfg = ServiceConfig::builder()
            .shards(1)
            .build()
            .expect("default engine config is valid");
        Oracle {
            device: device.clone(),
            service: Service::with_config(device, cfg),
        }
    }

    /// Submit one request to the service, flush, and redeem it.
    fn serve(
        &self,
        submit: impl FnOnce(&Service) -> Result<ServiceTicket, EngineError>,
    ) -> Result<EngineOutput, String> {
        let ticket = submit(&self.service).map_err(|e| format!("submit failed: {e}"))?;
        self.service.flush();
        self.service
            .take_result(ticket)
            .map_err(|e| format!("take_result failed: {e}"))
    }

    /// Sweep every kernel over every named case.
    pub fn run(&self, cases: &[(String, CsrMatrix)]) -> ConformanceReport {
        let mut report = ConformanceReport {
            cases: cases.len(),
            ..ConformanceReport::default()
        };
        for (name, m) in cases {
            self.check_spmv(name, m, &mut report);
            self.check_spmm(name, m, &mut report);
            self.check_spadd(name, m, &mut report);
            self.check_spgemm(name, m, &mut report);
            self.check_spgemm_repattern(name, m, &mut report);
            self.check_plan_builds(name, m, &mut report);
        }
        report
    }

    /// Every plan build against its reference build, bit for bit: SpMV at
    /// the default, 64-nonzero and raw 64-nonzero tiles with the fused
    /// simulation of every epilogue shape; SpMM at k = 1, 4 and 16;
    /// SpGEMM (`A · Aᵀ`) at the default bins and with thresholds squeezed
    /// so all three bins run; and a delta apply that updates, inserts and
    /// removes.
    pub fn check_plan_builds(&self, case: &str, a: &CsrMatrix, report: &mut ConformanceReport) {
        const K: &str = "plan build";
        let dev = &self.device;
        let small = SpmvConfig {
            block_threads: 32,
            items_per_thread: 2,
            force_no_compaction: false,
        };
        let raw = SpmvConfig {
            force_no_compaction: true,
            ..small
        };
        let n = a.num_rows;
        let z: Vec<f64> = (0..n).map(|i| 0.5 - (i % 7) as f64 * 0.25).collect();
        let d: Vec<f64> = (0..n).map(|i| 0.25 + (i % 3) as f64 * 0.5).collect();
        let mut epilogues = vec![
            ("scale", Epilogue::axpby(2.0, 0.0, &[])),
            ("axpby, dot", Epilogue::axpby(-1.0, 1.0, &z).with_dot(&z)),
            ("product, dot", Epilogue::dot_with(&z)),
            ("axpby", Epilogue::axpby(0.5, 2.0, &z)),
            ("zero-guess jacobi", Epilogue::zero_guess_jacobi(0.7, &d)),
            (
                "zero-guess jacobi, dot",
                Epilogue::zero_guess_jacobi(0.7, &d).with_dot(&z),
            ),
        ];
        if a.num_rows == a.num_cols {
            epilogues.push(("jacobi", Epilogue::jacobi(0.7, &d, &z)));
            epilogues.push(("jacobi, dot", Epilogue::jacobi(0.7, &d, &z).with_dot(&z)));
        }
        for (tile, cfg) in [
            ("default", SpmvConfig::default()),
            ("64", small),
            ("64 raw", raw),
        ] {
            let plan = SpmvPlan::new(dev, a, &cfg);
            let want = reference::spmv_plan(dev, a, &cfg);
            same_build(report, case, K, &format!("spmv {tile}"), &plan, &want);
            for (form, e) in &epilogues {
                same_build(
                    report,
                    case,
                    K,
                    &format!("spmv {tile} fused {form}"),
                    &plan.simulate_fused(a, e),
                    &reference::spmv_simulate_fused(&want, a, e),
                );
            }
        }
        for k in [1, 4, 16] {
            let cfg = SpmmConfig::default();
            same_build(
                report,
                case,
                K,
                &format!("spmm k={k}"),
                &SpmmPlan::new(dev, a, k, &cfg),
                &reference::spmm_plan(dev, a, k, &cfg),
            );
        }
        let b = a.transpose();
        let squeezed = SpgemmConfig {
            bin_tiny_max: 8,
            bin_mid_max: 40,
            ..SpgemmConfig::default()
        };
        for (bins, cfg) in [("default", SpgemmConfig::default()), ("squeezed", squeezed)] {
            same_build(
                report,
                case,
                K,
                &format!("spgemm {bins} bins"),
                &SpgemmPlan::new(dev, a, &b, &cfg),
                &reference::spgemm_plan(dev, a, &b, &cfg),
            );
        }
        let delta = probe_delta(a);
        let cfg = SpAddConfig::default();
        same_build(
            report,
            case,
            K,
            "delta apply",
            &apply_delta(dev, a, &delta, &cfg),
            &reference::apply_delta(dev, a, &delta, &cfg),
        );
    }

    /// SpMV through every implementation: merge family bitwise, baselines
    /// and format kernels against the sequential reference within
    /// [`REL_TOL`].
    pub fn check_spmv(&self, case: &str, a: &CsrMatrix, report: &mut ConformanceReport) {
        const K: &str = "spmv";
        let x = probe_vector(a.num_cols);
        let want = ops::spmv_ref(a, &x);

        // Merge family anchor: the family's order written per nonzero at
        // the plan's tile, which shares no walk with any merge path.
        let plan = SpmvPlan::new(&self.device, a, &SpmvConfig::default());
        let anchor = reference::merge_family(a, plan.partition_structure().nv, &x);
        check_vec_rel(report, case, K, "merge family vs ref", &anchor, &want);

        let one_shot = merge_spmv(&self.device, a, &x, &SpmvConfig::default()).y;
        check_vec_bitwise(report, case, K, "merge one-shot", &one_shot, &anchor);

        let planned = plan.execute(&self.device, a, &x).y;
        check_vec_bitwise(report, case, K, "plan execute", &planned, &anchor);

        let mut y = Vec::new();
        let mut ws = Workspace::new();
        plan.execute_into(a, &x, &mut y, &mut ws);
        check_vec_bitwise(report, case, K, "plan execute_into", &y, &anchor);

        self.check_spmv_epilogues(case, a, &x, report);

        match self.engine_batched_spmv(a, &x) {
            Ok(batched) => check_vec_bitwise(report, case, K, "engine batched", &batched, &anchor),
            Err(e) => report.diverge(case, K, "engine batched", e),
        }

        let (scalar, _) = cusp::spmv_scalar(&self.device, a, &x);
        check_vec_rel(report, case, K, "cusp scalar", &scalar, &want);
        let (vector, _) = cusp::spmv_vector(&self.device, a, &x);
        check_vec_rel(report, case, K, "cusp vector", &vector, &want);
        let (row_adaptive, _) = cusparse_like::spmv(&self.device, a, &x);
        check_vec_rel(report, case, K, "cusparse-like", &row_adaptive, &want);
        let (host, _) = cpu::spmv(&cpu::CpuModel::i7_3820(), a, &x);
        check_vec_rel(report, case, K, "cpu model", &host, &want);

        self.check_format_spmv(case, a, &x, &want, &anchor, report);
    }

    /// Fused epilogue executes: the plain planned execute bitwise equal to
    /// the merge family's order at the plan's tile
    /// ([`reference::merge_family`]), and every form, with and without the
    /// folded dot, bitwise equal to its host formula applied to that
    /// anchor, written over a NaN-filled buffer so every row must be
    /// stored; and each fused execute's price from cached counters equal
    /// to a full simulation of its launches. Runs at the default tile and
    /// at a 64-nonzero tile, which puts more row ends on tile boundaries
    /// and spreads long rows over more CTAs, on both the compacting and
    /// the raw empty-row path.
    pub fn check_spmv_epilogues(
        &self,
        case: &str,
        a: &CsrMatrix,
        x: &[f64],
        report: &mut ConformanceReport,
    ) {
        const K: &str = "spmv epilogue";
        let n = a.num_rows;
        let z: Vec<f64> = (0..n).map(|i| 0.5 - (i % 11) as f64 * 0.125).collect();
        let w: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.375).collect();
        let d: Vec<f64> = (0..n).map(|i| 0.25 + (i % 3) as f64 * 0.5).collect();
        let small = SpmvConfig {
            block_threads: 32,
            items_per_thread: 2,
            force_no_compaction: false,
        };
        let configs = [
            ("default tile", SpmvConfig::default()),
            ("64-nonzero tile", small),
            (
                "64-nonzero tile, raw",
                SpmvConfig {
                    force_no_compaction: true,
                    ..small
                },
            ),
        ];
        type Formula<'f> = Box<dyn Fn(usize, f64) -> f64 + 'f>;
        let mut forms: Vec<(&str, Epilogue, Formula)> = vec![
            (
                "axpby",
                Epilogue::axpby(-1.5, 0.75, &z),
                Box::new(|i, s| -1.5 * s + 0.75 * z[i]),
            ),
            (
                "residual",
                Epilogue::axpby(-1.0, 1.0, &z),
                Box::new(|i, s| z[i] - s),
            ),
            (
                "correction",
                Epilogue::axpby(1.0, 1.0, &z),
                Box::new(|i, s| z[i] + s),
            ),
            (
                "scale",
                Epilogue::axpby(2.5, 0.0, &[]),
                Box::new(|_, s| 2.5 * s),
            ),
            ("product, dot", Epilogue::dot_with(&w), Box::new(|_, s| s)),
            // The product itself; the sweep beside it is checked below.
            (
                "zero-guess jacobi",
                Epilogue::zero_guess_jacobi(0.7, &d),
                Box::new(|_, s| s),
            ),
            (
                "zero-guess jacobi, dot",
                Epilogue::zero_guess_jacobi(0.7, &d).with_dot(&w),
                Box::new(|_, s| s),
            ),
        ];
        if a.num_rows == a.num_cols {
            forms.push((
                "jacobi, dot",
                Epilogue::jacobi(0.7, &d, &z).with_dot(&w),
                Box::new(|i, s| x[i] + 0.7 * d[i] * (z[i] - s)),
            ));
        }
        let mut ws = Workspace::new();
        let (mut sums, mut y, mut x1) = (Vec::new(), Vec::new(), Vec::new());
        for (tile, cfg) in configs {
            let plan = SpmvPlan::new(&self.device, a, &cfg);
            let anchor = reference::merge_family(a, plan.partition_structure().nv, x);
            plan.execute_into(a, x, &mut sums, &mut ws);
            check_vec_bitwise(
                report,
                case,
                K,
                &format!("product ({tile})"),
                &sums,
                &anchor,
            );
            for (form, epilogue, formula) in &forms {
                let imp = format!("{form} ({tile})");
                let want: Vec<f64> = anchor
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| formula(i, s))
                    .collect();
                y.clear();
                y.resize(n, f64::NAN);
                let fused = if let EpilogueForm::ZeroGuessJacobi { .. } = epilogue.form {
                    x1.clear();
                    x1.resize(n, f64::NAN);
                    let fused =
                        plan.execute_fused_sweep_into(a, x, &mut y, &mut x1, &mut ws, epilogue);
                    let sweep: Vec<f64> = (0..n).map(|i| 0.0 + 0.7 * d[i] * want[i]).collect();
                    check_vec_bitwise(report, case, K, &format!("{imp} sweep"), &x1, &sweep);
                    fused
                } else {
                    plan.execute_fused_into(a, x, &mut y, &mut ws, epilogue)
                };
                check_vec_bitwise(report, case, K, &imp, &y, &want);
                let want_dot = epilogue.dot.map(|w| sequential_dot(w, &want));
                report.checks += 1;
                if fused.dot.map(f64::to_bits) != want_dot.map(f64::to_bits) {
                    report.diverge(
                        case,
                        K,
                        &imp,
                        format!("dot {:?} vs {:?}", fused.dot, want_dot),
                    );
                }
                let simulated = plan.simulate_fused(a, epilogue);
                report.checks += 1;
                if !same_launch(fused.reduction, &simulated) {
                    report.diverge(
                        case,
                        K,
                        &format!("{imp} price"),
                        format!("cached {:?} vs simulated {simulated:?}", fused.reduction),
                    );
                }
            }
        }
    }

    fn check_format_spmv(
        &self,
        case: &str,
        a: &CsrMatrix,
        x: &[f64],
        want: &[f64],
        merge_anchor: &[f64],
        report: &mut ConformanceReport,
    ) {
        const K: &str = "spmv";
        let width = (0..a.num_rows).map(|r| a.row_len(r)).max().unwrap_or(0);
        if a.num_rows * width > ELL_CELL_BUDGET {
            report.skip(
                case,
                "format ell/hyb",
                format!(
                    "ELL padding would allocate {} cells (budget {ELL_CELL_BUDGET})",
                    a.num_rows * width
                ),
            );
        } else {
            let ell = EllMatrix::from_csr(a);
            let (y, _) = format_spmv::spmv_ell(&self.device, &ell, x);
            check_vec_rel(report, case, K, "format ell", &y, want);

            let hyb_width = (a.nnz() / a.num_rows.max(1)).max(1);
            let hyb = HybMatrix::from_csr(a, hyb_width);
            let (y, _) = format_spmv::spmv_hyb(&self.device, &hyb, x);
            check_vec_rel(report, case, K, "format hyb", &y, want);
        }
        match DiaMatrix::from_csr(a, DIA_MAX_DIAGS) {
            Some(dia) => {
                let (y, _) = format_spmv::spmv_dia(&self.device, &dia, x);
                check_vec_rel(report, case, K, "format dia", &y, want);
            }
            None => report.skip(
                case,
                "format dia",
                format!("more than {DIA_MAX_DIAGS} populated diagonals"),
            ),
        }

        // CMRS: conversion must survive a lossless round trip, and the
        // strip kernel accumulates each row in CSR entry order from the
        // -0.0 sum identity, so it sits in the row-wise family — bitwise
        // against the sequential reference, not just REL_TOL. The plan
        // prices the same launch once at build, so its cached stats must
        // equal the one-shot kernel's.
        let cmrs = CmrsMatrix::from_csr(a);
        check_format_roundtrip(
            report,
            case,
            "format cmrs",
            cmrs.validate(),
            &cmrs.to_csr(),
            a,
        );
        let (y, kernel_stats) = format_spmv::spmv_cmrs(&self.device, &cmrs, x);
        check_vec_bitwise(report, case, K, "format cmrs kernel", &y, want);
        let plan = CmrsSpmvPlan::new(&self.device, a);
        let mut yp = Vec::new();
        plan.execute_into(a, x, &mut yp);
        check_vec_bitwise(report, case, K, "format cmrs plan", &yp, &y);
        report.checks += 1;
        if !same_launch(plan.stats(), &kernel_stats) {
            report.diverge(
                case,
                K,
                "format cmrs plan price",
                format!("plan {:?} vs kernel {kernel_stats:?}", plan.stats()),
            );
        }

        // Advised: whatever format the advisor picked, the result must be
        // bitwise identical to that family's anchor.
        let plan = AdvisedSpmvPlan::new(
            &self.device,
            a,
            &SpmvConfig::default(),
            &FormatAdvisor::default(),
        );
        let mut advised = Vec::new();
        plan.execute_into(a, x, &mut advised, &mut Workspace::new());
        match plan.choice() {
            FormatChoice::MergeCsr => check_vec_bitwise(
                report,
                case,
                K,
                "advised (merge-csr)",
                &advised,
                merge_anchor,
            ),
            FormatChoice::Cmrs => {
                check_vec_bitwise(report, case, K, "advised (cmrs)", &advised, want)
            }
        }
    }

    /// SpMM through every implementation: merge family bitwise, each
    /// column against the family's order at the plan's tile
    /// ([`reference::merge_family`]), row-warp baseline against the dense
    /// reference within [`REL_TOL`].
    pub fn check_spmm(&self, case: &str, a: &CsrMatrix, report: &mut ConformanceReport) {
        const K: &str = "spmm";
        let x = probe_block(a.num_cols, SPMM_COLS);
        let want = dense::spmm_ref(a, &x);

        let plan = SpmmPlan::new(&self.device, a, SPMM_COLS, &SpmmConfig::default());
        let nv = plan.partition_structure().nv;
        let columns: Vec<Vec<f64>> = (0..x.cols)
            .map(|c| reference::merge_family(a, nv, &x.column(c)))
            .collect();
        let anchor = DenseBlock::from_fn(a.num_rows, x.cols, |r, c| columns[c][r]);
        check_block_rel(report, case, K, "merge family vs ref", &anchor, &want);

        let one_shot = merge_spmm(&self.device, a, &x, &SpmmConfig::default()).y;
        check_block_bitwise(report, case, K, "merge one-shot", &one_shot, &anchor);

        let planned = plan.execute(&self.device, a, &x).y;
        check_block_bitwise(report, case, K, "plan execute", &planned, &anchor);

        let mut y = DenseBlock::zeros(0, 0);
        let mut ws = Workspace::new();
        plan.execute_into(a, &x, &mut y, &mut ws);
        check_block_bitwise(report, case, K, "plan execute_into", &y, &anchor);

        match self.engine_batched_spmm(a, &x) {
            Ok(batched) => {
                check_block_bitwise(report, case, K, "engine batched", &batched, &anchor)
            }
            Err(e) => report.diverge(case, K, "engine batched", e),
        }

        let (warp, _) = spmm_base::spmm_row_warp(&self.device, a, &x);
        check_block_rel(report, case, K, "row-warp baseline", &warp, &want);
    }

    /// SpAdd through every implementation. All of them compute each output
    /// value as one `a + b`, so the comparison is bitwise across the board.
    pub fn check_spadd(&self, case: &str, a: &CsrMatrix, report: &mut ConformanceReport) {
        const K: &str = "spadd";
        let b = spadd_partner(a);
        let want = ops::spadd_ref(a, &b);

        let anchor = merge_spadd(&self.device, a, &b, &SpAddConfig::default()).c;
        check_csr_exact(report, case, K, "merge one-shot vs ref", &anchor, &want);

        let plan = SpAddPlan::new(&self.device, a, &b, &SpAddConfig::default());
        let planned = plan.execute(&self.device, a, &b).c;
        check_csr_exact(report, case, K, "plan execute", &planned, &anchor);

        let (global_sort, _) = cusp::spadd_global_sort(&self.device, a, &b);
        check_csr_exact(report, case, K, "cusp global-sort", &global_sort, &want);
        let (row_merge, _) = cusparse_like::spadd(&self.device, a, &b);
        check_csr_exact(report, case, K, "cusparse-like", &row_merge, &want);
        let (host, _) = cpu::spadd(&cpu::CpuModel::i7_3820(), a, &b);
        check_csr_exact(report, case, K, "cpu model", &host, &want);
    }

    /// SpGEMM (as `A · Aᵀ`, always conformable) through every
    /// implementation: merge family bitwise, every family's structure
    /// exact, values within [`REL_TOL`] across accumulation orders.
    pub fn check_spgemm(&self, case: &str, a: &CsrMatrix, report: &mut ConformanceReport) {
        const K: &str = "spgemm";
        let b = a.transpose();
        let want = ops::spgemm_ref(a, &b);

        let anchor = merge_spgemm(&self.device, a, &b, &SpgemmConfig::default()).c;
        check_csr_rel(report, case, K, "merge one-shot vs ref", &anchor, &want);

        let plan = SpgemmPlan::new(&self.device, a, &b, &SpgemmConfig::default());
        let planned = plan.execute(&self.device, a, &b).c;
        check_csr_bitwise(report, case, K, "plan execute", &planned, &anchor);

        let (esc, _) = cusp::spgemm_esc(&self.device, a, &b);
        check_csr_rel(report, case, K, "cusp esc", &esc, &want);
        let (hash, _) = cusparse_like::spgemm(&self.device, a, &b);
        check_csr_rel(report, case, K, "cusparse-like hash", &hash, &want);
        let (host, _) = cpu::spgemm(&cpu::CpuModel::i7_3820(), a, &b);
        check_csr_rel(report, case, K, "cpu model", &host, &want);

        match self.engine_submitted_spgemm(a, &b) {
            Ok(c) => check_csr_bitwise(report, case, K, "engine submitted", &c, &anchor),
            Err(e) => report.diverge(case, K, "engine submitted", e),
        }
    }

    /// Repeated-pattern numeric re-execution (as `A · Aᵀ`): build the
    /// symbolic plan once, then for several rounds overwrite the operand
    /// values (same pattern, fresh magnitudes) and replay numerically.
    /// Each round's replay must be bitwise identical to a from-scratch
    /// one-shot on the mutated operands, across the plan's `execute_matrix`
    /// and `execute_numeric` paths and the engine's submitted path; every
    /// other SpGEMM family re-runs against the sequential reference within
    /// [`REL_TOL`].
    pub fn check_spgemm_repattern(
        &self,
        case: &str,
        a: &CsrMatrix,
        report: &mut ConformanceReport,
    ) {
        const K: &str = "spgemm-repattern";
        let b = a.transpose();
        let plan = SpgemmPlan::new(&self.device, a, &b, &SpgemmConfig::default());
        for round in 1..=2usize {
            let a2 = remix_values(a, round);
            let b2 = remix_values(&b, round + 7);
            let want = ops::spgemm_ref(&a2, &b2);
            let anchor = merge_spgemm(&self.device, &a2, &b2, &SpgemmConfig::default()).c;
            check_csr_rel(report, case, K, "merge one-shot vs ref", &anchor, &want);

            let replay = plan.execute_matrix(&a2, &b2);
            check_csr_bitwise(report, case, K, "numeric replay", &replay, &anchor);

            let mut values = Vec::new();
            plan.execute_numeric(&a2, &b2, &mut values);
            let flat = CsrMatrix {
                values,
                ..replay.clone()
            };
            check_csr_bitwise(report, case, K, "execute_numeric into", &flat, &anchor);

            let (esc, _) = cusp::spgemm_esc(&self.device, &a2, &b2);
            check_csr_rel(report, case, K, "cusp esc", &esc, &want);
            let (hash, _) = cusparse_like::spgemm(&self.device, &a2, &b2);
            check_csr_rel(report, case, K, "cusparse-like hash", &hash, &want);
            let (host, _) = cpu::spgemm(&cpu::CpuModel::i7_3820(), &a2, &b2);
            check_csr_rel(report, case, K, "cpu model", &host, &want);

            match self.engine_submitted_spgemm(&a2, &b2) {
                Ok(c) => check_csr_bitwise(report, case, K, "engine submitted", &c, &anchor),
                Err(e) => report.diverge(case, K, "engine submitted", e),
            }
        }
    }

    fn engine_submitted_spgemm(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix, String> {
        let (a, b) = (Arc::new(a.clone()), Arc::new(b.clone()));
        match self.serve(|svc| svc.submit_spgemm(TenantId(0), &a, &b, None))? {
            EngineOutput::Matrix(c) => Ok(c),
            other => Err(format!("matrix request returned {}", output_kind(&other))),
        }
    }

    /// Duplicate-tolerant COO conversion against a naive map-based oracle:
    /// structure exact, duplicate sums within [`REL_TOL`] (the two paths
    /// may fold duplicates in different orders).
    pub fn check_coo(&self, case: &str, coo: &CooMatrix, report: &mut ConformanceReport) {
        const K: &str = "coo-canonicalize";
        let want = naive_coo_to_csr(coo);
        let via_to_csr = coo.to_csr();
        check_csr_rel(report, case, K, "to_csr", &via_to_csr, &want);
        match CsrMatrix::try_from_coo(coo) {
            Ok(via_try) => {
                check_csr_bitwise(report, case, K, "try_from_coo", &via_try, &via_to_csr)
            }
            Err(e) => report.diverge(
                case,
                K,
                "try_from_coo",
                format!("rejected valid input: {e}"),
            ),
        }
    }

    fn engine_batched_spmv(&self, a: &CsrMatrix, x: &[f64]) -> Result<Vec<f64>, String> {
        let shared = Arc::new(a.clone());
        match self.serve(|svc| svc.submit_spmv(TenantId(0), &shared, x.to_vec(), None))? {
            EngineOutput::Vector(y) => Ok(y),
            other => Err(format!("vector request returned {}", output_kind(&other))),
        }
    }

    fn engine_batched_spmm(&self, a: &CsrMatrix, x: &DenseBlock) -> Result<DenseBlock, String> {
        let shared = Arc::new(a.clone());
        match self.serve(|svc| svc.submit_spmm(TenantId(0), &shared, x.clone(), None))? {
            EngineOutput::Block(y) => Ok(y),
            other => Err(format!("block request returned {}", output_kind(&other))),
        }
    }
}

fn output_kind(out: &EngineOutput) -> &'static str {
    match out {
        EngineOutput::Vector(_) => "a vector",
        EngineOutput::Block(_) => "a block",
        EngineOutput::Matrix(_) => "a matrix",
    }
}

/// A delta touching `a` every way: an update of its first entry, a
/// removal of its last, an insert into its middle row where the row has
/// room, and a removal of an absent coordinate.
fn probe_delta(a: &CsrMatrix) -> CsrDelta {
    let mut delta = CsrDelta::new();
    if a.num_rows == 0 || a.num_cols == 0 {
        return delta;
    }
    if a.nnz() > 0 {
        let first = a.row_offsets.partition_point(|&o| o == 0) - 1;
        delta.upsert(first as u32, a.col_idx[0], -3.5);
        let last = a.row_offsets.partition_point(|&o| o < a.nnz()) - 1;
        delta.remove(last as u32, a.col_idx[a.nnz() - 1]);
    }
    let mid = a.num_rows / 2;
    let cols = &a.col_idx[a.row_offsets[mid]..a.row_offsets[mid + 1]];
    if let Some(free) = (0..a.num_cols as u32).find(|c| !cols.contains(c)) {
        delta.upsert(mid as u32, free, 9.25);
        delta.remove(mid as u32, free);
        delta.upsert(mid as u32, free, 1.5);
        if let Some(other) = (free + 1..a.num_cols as u32).find(|c| !cols.contains(c)) {
            delta.remove(mid as u32, other);
        }
    }
    delta
}

/// Whether two builds are equal bit for bit. Debug output spells out every
/// field, and a float's Debug form round-trips its exact value, so equal
/// renderings mean equal per-CTA cycles, counters, simulated times,
/// ledgers and structure.
fn same_build<T: std::fmt::Debug>(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &T,
    want: &T,
) {
    report.checks += 1;
    let (got, want) = (format!("{got:?}"), format!("{want:?}"));
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .take_while(|(g, w)| g == w)
            .count();
        let from = at.saturating_sub(60);
        report.diverge(
            case,
            kernel,
            imp,
            format!(
                "differs from its reference at byte {at}: …{}… vs …{}…",
                got.get(from..(at + 60).min(got.len())).unwrap_or(""),
                want.get(from..(at + 60).min(want.len())).unwrap_or("")
            ),
        );
    }
}

/// Same pattern, fresh values: deterministic per-slot overwrite keyed on
/// the mutation round, so repeated-pattern rounds genuinely change every
/// stored value while the sparsity structure stays put.
fn remix_values(m: &CsrMatrix, round: usize) -> CsrMatrix {
    let mut out = m.clone();
    for (i, v) in out.values.iter_mut().enumerate() {
        *v = 0.75 + ((i * 11 + round * 29) % 23) as f64 * 0.125;
    }
    out
}

/// Deterministic probe operand: O(1) positive values, no zeros.
fn probe_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 + (i % 17) as f64 / 16.0).collect()
}

fn probe_block(rows: usize, cols: usize) -> DenseBlock {
    DenseBlock::from_fn(rows, cols, |r, c| {
        0.25 + ((r * 13 + c * 5) % 23) as f64 / 11.0
    })
}

/// Same-shape second operand for SpAdd: a's pattern with rescaled values
/// plus an independent sprinkle (structure overlap and disjoint entries
/// both exercised). Degenerate shapes get an empty partner.
fn spadd_partner(a: &CsrMatrix) -> CsrMatrix {
    if a.num_rows == 0 || a.num_cols == 0 {
        return CsrMatrix::zeros(a.num_rows, a.num_cols);
    }
    let mut coo = CooMatrix::new(a.num_rows, a.num_cols);
    for (i, (r, c, v)) in a.to_coo().iter().enumerate() {
        if i % 2 == 0 {
            coo.push(r, c, v * 0.375);
        }
    }
    let sprinkle =
        crate::strategies::sprinkled(a.num_rows, a.num_cols, 3, 2, a.pattern_fingerprint() | 1);
    for (r, c, v) in sprinkle.to_coo().iter() {
        coo.push(r, c, v);
    }
    coo.to_csr()
}

/// Naive COO→CSR oracle: sort-free map accumulation, then ordered emit.
fn naive_coo_to_csr(coo: &CooMatrix) -> CsrMatrix {
    let mut acc: std::collections::BTreeMap<(u32, u32), f64> = std::collections::BTreeMap::new();
    for (r, c, v) in coo.iter() {
        *acc.entry((r, c)).or_insert(0.0) += v;
    }
    let mut out = CooMatrix::new(coo.num_rows, coo.num_cols);
    for (&(r, c), &v) in &acc {
        out.push(r, c, v);
    }
    out.to_csr()
}

fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(got.abs()).max(1.0)
}

/// Two launches priced identically: per-CTA cycles, counters and
/// simulated time, bit for bit.
fn same_launch(a: &LaunchStats, b: &LaunchStats) -> bool {
    a.per_cta_cycles == b.per_cta_cycles
        && a.totals == b.totals
        && a.sim_ms.to_bits() == b.sim_ms.to_bits()
}

fn vec_detail(idx: usize, got: f64, want: f64) -> String {
    format!(
        "index {idx}: got {got:e} ({:#018x}), want {want:e} ({:#018x})",
        got.to_bits(),
        want.to_bits()
    )
}

fn check_vec_bitwise(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &[f64],
    want: &[f64],
) {
    report.checks += 1;
    if got.len() != want.len() {
        report.diverge(
            case,
            kernel,
            imp,
            format!("length {} vs {}", got.len(), want.len()),
        );
        return;
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            report.diverge(case, kernel, imp, vec_detail(i, *g, *w));
            return;
        }
    }
}

fn check_vec_rel(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &[f64],
    want: &[f64],
) {
    report.checks += 1;
    if got.len() != want.len() {
        report.diverge(
            case,
            kernel,
            imp,
            format!("length {} vs {}", got.len(), want.len()),
        );
        return;
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if rel_err(*g, *w) > REL_TOL {
            report.diverge(case, kernel, imp, vec_detail(i, *g, *w));
            return;
        }
    }
}

fn check_block_bitwise(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &DenseBlock,
    want: &DenseBlock,
) {
    report.checks += 1;
    if (got.rows, got.cols) != (want.rows, want.cols) {
        report.diverge(
            case,
            kernel,
            imp,
            format!(
                "shape {}x{} vs {}x{}",
                got.rows, got.cols, want.rows, want.cols
            ),
        );
        return;
    }
    for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
        if g.to_bits() != w.to_bits() {
            report.diverge(case, kernel, imp, vec_detail(i, *g, *w));
            return;
        }
    }
}

fn check_block_rel(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &DenseBlock,
    want: &DenseBlock,
) {
    report.checks += 1;
    if (got.rows, got.cols) != (want.rows, want.cols) {
        report.diverge(
            case,
            kernel,
            imp,
            format!(
                "shape {}x{} vs {}x{}",
                got.rows, got.cols, want.rows, want.cols
            ),
        );
        return;
    }
    for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
        if rel_err(*g, *w) > REL_TOL {
            report.diverge(case, kernel, imp, vec_detail(i, *g, *w));
            return;
        }
    }
}

/// A format conversion's internal invariants plus its lossless round trip
/// back to CSR: pattern and values must come back bit for bit.
fn check_format_roundtrip(
    report: &mut ConformanceReport,
    case: &str,
    imp: &str,
    validated: Result<(), String>,
    back: &CsrMatrix,
    original: &CsrMatrix,
) {
    report.checks += 1;
    if let Err(e) = validated {
        report.diverge(
            case,
            "format-roundtrip",
            imp,
            format!("conversion violates format invariants: {e}"),
        );
        return;
    }
    check_csr_bitwise(report, case, "format-roundtrip", imp, back, original);
}

/// Shared structure check; returns false (after recording) on mismatch.
fn csr_structure_ok(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &CsrMatrix,
    want: &CsrMatrix,
) -> bool {
    if let Err(e) = got.validate() {
        report.diverge(
            case,
            kernel,
            imp,
            format!("output violates CSR invariants: {e}"),
        );
        return false;
    }
    if (got.num_rows, got.num_cols) != (want.num_rows, want.num_cols) {
        report.diverge(
            case,
            kernel,
            imp,
            format!(
                "shape {}x{} vs {}x{}",
                got.num_rows, got.num_cols, want.num_rows, want.num_cols
            ),
        );
        return false;
    }
    if got.row_offsets != want.row_offsets || got.col_idx != want.col_idx {
        report.diverge(
            case,
            kernel,
            imp,
            format!(
                "sparsity structure differs (nnz {} vs {})",
                got.nnz(),
                want.nnz()
            ),
        );
        return false;
    }
    true
}

fn check_csr_bitwise(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &CsrMatrix,
    want: &CsrMatrix,
) {
    report.checks += 1;
    if !csr_structure_ok(report, case, kernel, imp, got, want) {
        return;
    }
    for (i, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
        if g.to_bits() != w.to_bits() {
            report.diverge(case, kernel, imp, vec_detail(i, *g, *w));
            return;
        }
    }
}

/// Exact: structure and values must both match bitwise.
fn check_csr_exact(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &CsrMatrix,
    want: &CsrMatrix,
) {
    check_csr_bitwise(report, case, kernel, imp, got, want)
}

fn check_csr_rel(
    report: &mut ConformanceReport,
    case: &str,
    kernel: &'static str,
    imp: &str,
    got: &CsrMatrix,
    want: &CsrMatrix,
) {
    report.checks += 1;
    if !csr_structure_ok(report, case, kernel, imp, got, want) {
        return;
    }
    for (i, (g, w)) in got.values.iter().zip(&want.values).enumerate() {
        if rel_err(*g, *w) > REL_TOL {
            report.diverge(case, kernel, imp, vec_detail(i, *g, *w));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial;

    #[test]
    fn tiny_suite_is_clean() {
        let oracle = Oracle::new(&Device::titan());
        let report = oracle.run(&adversarial::suite(adversarial::Scale::Tiny));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.checks > 200, "checks {}", report.checks);
    }

    #[test]
    fn plan_builds_match_their_references_on_both_suites() {
        let oracle = Oracle::new(&Device::titan());
        for scale in [adversarial::Scale::Tiny, adversarial::Scale::Full] {
            let mut report = ConformanceReport::default();
            let cases = adversarial::suite(scale);
            for (name, m) in &cases {
                oracle.check_plan_builds(name, m, &mut report);
            }
            assert!(report.is_clean(), "{}", report.render());
            assert!(
                report.checks >= 20 * cases.len() as u64,
                "{}",
                report.render()
            );
        }
        let ladder = adversarial::bin_threshold_ladder();
        let mut report = ConformanceReport::default();
        oracle.check_plan_builds("ladder", &ladder, &mut report);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn duplicate_coo_inputs_are_clean() {
        let oracle = Oracle::new(&Device::titan());
        let mut report = ConformanceReport::default();
        for seed in 0..8 {
            let coo = adversarial::duplicate_saturated_coo(40, 40, 60, 4, seed);
            oracle.check_coo(&format!("dup seed {seed}"), &coo, &mut report);
        }
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn bin_threshold_ladder_lands_a_row_in_every_bin() {
        // With B = Aᵀ and every column of A used once, products(row) ==
        // row_len: the ladder's lengths [0, 1, 31, 32, 33, 511, 512,
        // 513, 600] split 4/3/2 across the default tiny(≤32) / mid(≤512)
        // / heavy bins, with a row exactly on each inclusive bound.
        let a = adversarial::bin_threshold_ladder();
        let b = a.transpose();
        let plan = SpgemmPlan::new(&Device::titan(), &a, &b, &SpgemmConfig::default());
        let bins = plan.bin_summary();
        assert_eq!(bins.tiny_rows, 4);
        assert_eq!(bins.mid_rows, 3);
        assert_eq!(bins.heavy_rows, 2);
        assert_eq!(bins.tiny_products, 64);
        assert_eq!(bins.mid_products, 33 + 511 + 512);
        assert_eq!(bins.heavy_products, 513 + 600);

        let oracle = Oracle::new(&Device::titan());
        let mut report = ConformanceReport::default();
        oracle.check_spgemm("ladder", &a, &mut report);
        oracle.check_spgemm_repattern("ladder", &a, &mut report);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn repattern_sweep_is_clean_on_hostile_shapes() {
        let oracle = Oracle::new(&Device::titan());
        let mut report = ConformanceReport::default();
        let cases = [
            ("all-empty", CsrMatrix::zeros(40, 23)),
            (
                "one-dense-col",
                adversarial::one_dense_row(60, 60, 2, 18).transpose(),
            ),
            ("power-law", adversarial::heavy_power_law(120, 120, 14)),
        ];
        for (name, m) in &cases {
            oracle.check_spgemm_repattern(name, m, &mut report);
        }
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.checks >= cases.len() as u64 * 2 * 7);
    }

    #[test]
    fn injected_value_corruption_is_reported() {
        let a = crate::strategies::sprinkled(32, 32, 1, 4, 9);
        let mut report = ConformanceReport::default();
        let mut bad = ops::spmv_ref(&a, &probe_vector(32));
        let good = bad.clone();
        bad[7] += 1.0e-3;
        check_vec_rel(&mut report, "corrupt", "spmv", "injected", &bad, &good);
        check_vec_bitwise(&mut report, "corrupt", "spmv", "injected", &bad, &good);
        assert_eq!(report.divergences.len(), 2);
        assert!(!report.is_clean());
        assert!(report.render().contains("DIVERGE"));
    }

    #[test]
    fn structural_violations_are_reported() {
        let mut report = ConformanceReport::default();
        let want = crate::strategies::sprinkled(10, 10, 1, 3, 2);
        let mut got = want.clone();
        got.col_idx[0] = got.col_idx[1]; // duplicate column in a row, or unsorted
        got.values.swap(0, 1);
        check_csr_rel(&mut report, "broken", "spgemm", "injected", &got, &want);
        assert!(!report.is_clean());
    }
}
