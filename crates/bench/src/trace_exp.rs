//! Phase-attribution experiment: where does simulated device time go?
//!
//! For every matrix of the Table II suite, each of the four core kernels
//! runs on its own tracing device; the tracer's phase-attributed records
//! aggregate into a [`PhaseReport`] per `(matrix, kernel)` pair. The
//! breakdown is the simulation's analogue of the paper's per-phase
//! figures (the SpGEMM phase legend of Figure 11 especially): every
//! kernel's time splits across its named phases, and the per-phase
//! fractions sum to one.
//!
//! Kernel → phase taxonomy:
//! * `spmv` — Partition, Empty-Row Fixup (when rows are compacted),
//!   Reduction, Update;
//! * `spmm` — Partition, Empty-Row Fixup, Tile Traversal;
//! * `spadd` — Expand, Partition, Count, Fill;
//! * `spgemm` — the paper's symbolic phases (Setup, Block Sort, Global
//!   Sort, Other) plus the bin-adaptive numeric pass: Tiny Scatter and
//!   Mid Hash for small/medium rows, the paper's Product Compute /
//!   Product Reduce two-pass for heavy rows.
//!
//! [`report`] is the `phases` experiment of `mps bench`
//! (`BENCH_phases.json`).

use std::collections::BTreeSet;

use mps_core::{
    merge_spadd, merge_spgemm, merge_spmm, merge_spmv, SpAddConfig, SpgemmConfig, SpmmConfig,
    SpmvConfig,
};
use mps_simt::{Device, Phase, PhaseEntry, PhaseReport};
use mps_sparse::{suite::SuiteMatrix, CsrMatrix, DenseBlock};

use crate::report::{Gates, Report};
use crate::{DEFAULT_SCALE, DEFAULT_SPGEMM_SCALE};

/// The four traced kernels, in report order.
pub const KERNELS: [&str; 4] = ["spmv", "spmm", "spadd", "spgemm"];

/// Phase breakdown of one kernel on one suite matrix.
#[derive(Debug, Clone)]
pub struct TraceRow {
    pub matrix: &'static str,
    pub kernel: &'static str,
    pub n: usize,
    pub nnz: usize,
    pub report: PhaseReport,
}

impl TraceRow {
    pub fn total_ms(&self) -> f64 {
        self.report.total_ms()
    }

    /// `(phase name, fraction of this kernel's time)` — sums to 1.
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        self.report.fractions()
    }
}

fn traced() -> Device {
    Device::titan().with_tracing()
}

fn finish(matrix: &'static str, kernel: &'static str, a: &CsrMatrix, dev: &Device) -> TraceRow {
    let tracer = dev.tracer.as_ref().expect("tracing enabled");
    TraceRow {
        matrix,
        kernel,
        n: a.num_rows,
        nnz: a.nnz(),
        report: tracer.phase_report(),
    }
}

fn operand(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.25).collect()
}

pub fn trace_spmv(matrix: &'static str, a: &CsrMatrix) -> TraceRow {
    let dev = traced();
    merge_spmv(&dev, a, &operand(a.num_cols), &SpmvConfig::default());
    finish(matrix, "spmv", a, &dev)
}

pub fn trace_spmm(matrix: &'static str, a: &CsrMatrix, k: usize) -> TraceRow {
    let dev = traced();
    let x = DenseBlock::from_fn(a.num_cols, k, |r, c| 1.0 + ((r * 3 + c) % 11) as f64 * 0.5);
    merge_spmm(&dev, a, &x, &SpmmConfig::default());
    finish(matrix, "spmm", a, &dev)
}

pub fn trace_spadd(matrix: &'static str, a: &CsrMatrix) -> TraceRow {
    let dev = traced();
    merge_spadd(&dev, a, a, &SpAddConfig::default());
    finish(matrix, "spadd", a, &dev)
}

pub fn trace_spgemm(matrix: &'static str, a: &CsrMatrix, b: &CsrMatrix) -> TraceRow {
    let dev = traced();
    merge_spgemm(&dev, a, b, &SpgemmConfig::default());
    finish(matrix, "spgemm", a, &dev)
}

/// Trace all four kernels over the suite. SpMV/SpMM/SpAdd share operands
/// generated at `scale`; SpGEMM uses `spgemm_scale` (products grow
/// quadratically). `k` is the SpMM operand width.
pub fn run(scale: f64, spgemm_scale: f64, k: usize) -> Vec<TraceRow> {
    let mut rows = Vec::new();
    for &m in SuiteMatrix::ALL.iter() {
        let a = m.generate(scale);
        rows.push(trace_spmv(m.name(), &a));
        rows.push(trace_spmm(m.name(), &a, k));
        rows.push(trace_spadd(m.name(), &a));
        let (ga, gb) = m.spgemm_operands(spgemm_scale);
        rows.push(trace_spgemm(m.name(), &ga, &gb));
    }
    rows
}

/// `(scale, spgemm_scale, spmm_k)` of the smoke run.
const TINY: (f64, f64, usize) = (0.01, 0.005, 4);
/// `(scale, spgemm_scale, spmm_k)` of the committed artifact.
const FULL: (f64, f64, usize) = (DEFAULT_SCALE, DEFAULT_SPGEMM_SCALE, 8);

/// Trace the suite, print the fraction tables, and return the report.
pub fn report(tiny: bool) -> Report {
    let (scale, spgemm_scale, k) = if tiny { TINY } else { FULL };
    let rows = run(scale, spgemm_scale, k);
    print!("{}", render(&rows));
    to_report(&rows, tiny)
}

fn to_report(rows: &[TraceRow], tiny: bool) -> Report {
    let phases: Vec<(&TraceRow, PhaseEntry)> = rows
        .iter()
        .flat_map(|r| r.report.entries().into_iter().map(move |e| (r, e)))
        .collect();
    Report::new("phases", tiny)
        .with_table(
            "runs",
            rows,
            &[
                ("matrix", "", |r| r.matrix.into()),
                ("kernel", "", |r| r.kernel.into()),
                ("n", "rows", |r| r.n.into()),
                ("nnz", "count", |r| r.nnz.into()),
                ("total_ms", "ms", |r| r.total_ms().into()),
            ],
        )
        .with_table(
            "phases",
            &phases,
            &[
                ("matrix", "", |(r, _)| r.matrix.into()),
                ("kernel", "", |(r, _)| r.kernel.into()),
                ("phase", "", |(_, e)| e.phase.as_str().into()),
                ("launches", "count", |(_, e)| e.launches.into()),
                ("sim_ms", "ms", |(_, e)| e.sim_ms.into()),
                ("fraction", "fraction", |(_, e)| e.fraction.into()),
                ("dram_gb", "GB", |(_, e)| e.dram_gb.into()),
            ],
        )
}

/// Every kernel is traced, and each run's phase fractions sum to one.
pub fn gates(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let runs = r.rows("runs");
    g.check(!runs.is_empty(), "runs: at least one row");
    let kernels: BTreeSet<&str> = runs.iter().map(|run| run.text("kernel")).collect();
    let all = BTreeSet::from(KERNELS);
    g.check(kernels == all, "kernels == {spmv, spmm, spadd, spgemm}");
    let phases = r.rows("phases");
    for run in &runs {
        let (matrix, kernel) = (run.text("matrix"), run.text("kernel"));
        let total: f64 = phases
            .iter()
            .filter(|p| p.text("matrix") == matrix && p.text("kernel") == kernel)
            .map(|p| p.num("fraction"))
            .sum();
        let gate = format!("|sum(fraction) - 1| < 1e-6 ({matrix} {kernel})");
        g.check((total - 1.0).abs() < 1e-6, gate);
    }
    g.failures()
}

/// Render one kernel's suite-wide fraction table: one row per matrix, one
/// column per phase the kernel exercised anywhere in the suite (in
/// [`Phase::ALL`] order), cells in percent of that run's time.
pub fn render_kernel(rows: &[TraceRow], kernel: &str) -> String {
    let rows: Vec<&TraceRow> = rows.iter().filter(|r| r.kernel == kernel).collect();
    let phases: Vec<Phase> = Phase::ALL
        .iter()
        .copied()
        .filter(|&p| {
            rows.iter()
                .any(|r| r.report.entries().iter().any(|e| e.phase == p))
        })
        .collect();
    let mut header: Vec<&str> = vec!["matrix", "total_ms"];
    header.extend(phases.iter().map(|p| p.as_str()));
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.matrix.to_string(), format!("{:.4}", r.total_ms())];
            for &p in &phases {
                let frac = r
                    .report
                    .entries()
                    .iter()
                    .find(|e| e.phase == p)
                    .map_or(0.0, |e| e.fraction);
                cells.push(format!("{:.1}%", 100.0 * frac));
            }
            cells
        })
        .collect();
    crate::render_table(&header, &data)
}

/// Render every kernel's table, titled.
pub fn render(rows: &[TraceRow]) -> String {
    let mut out = String::new();
    for kernel in KERNELS {
        out.push_str(&format!("== {kernel} phase fractions ==\n"));
        out.push_str(&render_kernel(rows, kernel));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Cell;

    const SCALE: f64 = 0.01;
    const GEMM_SCALE: f64 = 0.005;

    #[test]
    fn every_kernel_is_traced_for_every_suite_matrix() {
        let rows = run(SCALE, GEMM_SCALE, 4);
        assert_eq!(rows.len(), SuiteMatrix::ALL.len() * KERNELS.len());
        for kernel in KERNELS {
            assert_eq!(
                rows.iter().filter(|r| r.kernel == kernel).count(),
                SuiteMatrix::ALL.len()
            );
        }
        for r in &rows {
            assert!(
                r.total_ms() > 0.0,
                "{} {} traced no time",
                r.matrix,
                r.kernel
            );
        }
    }

    #[test]
    fn spgemm_reports_the_bin_adaptive_phase_taxonomy() {
        // The symbolic phases always appear; the numeric side shows
        // whichever bins the matrix's rows landed in (Tiny Scatter, Mid
        // Hash, or the paper's heavy two-pass) — nothing else.
        let allowed = [
            "Setup",
            "Block Sort",
            "Global Sort",
            "Tiny Scatter",
            "Mid Hash",
            "Product Compute",
            "Product Reduce",
            "Other",
        ];
        let numeric = [
            "Tiny Scatter",
            "Mid Hash",
            "Product Compute",
            "Product Reduce",
        ];
        let rows = run(SCALE, GEMM_SCALE, 4);
        for r in rows.iter().filter(|r| r.kernel == "spgemm") {
            let names: Vec<&str> = r.fractions().iter().map(|(n, _)| *n).collect();
            for n in &names {
                assert!(
                    allowed.contains(n),
                    "{}: unexpected phase {n} in {names:?}",
                    r.matrix
                );
            }
            for required in ["Setup", "Block Sort", "Global Sort", "Other"] {
                assert!(
                    names.contains(&required),
                    "{}: missing {required}",
                    r.matrix
                );
            }
            assert!(
                names.iter().any(|n| numeric.contains(n)),
                "{}: no numeric phase in {names:?}",
                r.matrix
            );
        }
    }

    #[test]
    fn phase_sums_match_the_tracer_total() {
        let a = SuiteMatrix::Qcd.generate(SCALE);
        let dev = traced();
        merge_spmv(&dev, &a, &operand(a.num_cols), &SpmvConfig::default());
        let tracer = dev.tracer.as_ref().expect("tracing enabled");
        let report = tracer.phase_report();
        assert!((report.total_ms() - tracer.total_ms()).abs() < 1e-9);
        assert!(report.total_ms() > 0.0);
    }

    #[test]
    fn gates_name_a_fraction_sum_off_by_more_than_1e6() {
        let mut r = to_report(&run(SCALE, GEMM_SCALE, 4), true);
        assert_eq!(gates(&r), Vec::<String>::new());
        let Some(Cell::Float(f)) = r.cell_mut("phases", 0, "fraction") else {
            panic!("fraction cell")
        };
        *f += 2e-6;
        let failed = gates(&r);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("|sum(fraction) - 1| < 1e-6"));
    }
}
