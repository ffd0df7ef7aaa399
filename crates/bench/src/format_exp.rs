//! Format-zoo sweep over the Table II suite — [`report`] is the
//! `formats` experiment of `mps bench` (`BENCH_formats.json`).
//!
//! For every suite matrix the harness runs three things:
//!
//! * **Lossless conversion audit** — `csr → cmrs → csr` must validate and
//!   reproduce the original bitwise (pattern and values). Each successful
//!   round trip is counted; the acceptance gate demands exactly one per
//!   suite matrix.
//! * **Advised vs always-merge** — the always-merge arm builds the
//!   reference [`SpmvPlan`]; the advised arm builds an [`AdvisedSpmvPlan`]
//!   for the same matrix, letting the [`FormatAdvisor`] pick merge-CSR or
//!   CMRS per pattern. Both arms report simulated kernel milliseconds;
//!   the gate demands the advised arm matches or beats always-merge on
//!   **every** matrix. When the advisor stays on merge the two arms share
//!   the identical plan, so the speedup is exactly 1.0 by construction —
//!   the interesting rows are the ones that leave it.
//! * **Numeric policy** — a merge choice must be bitwise identical to
//!   the plain merge path; a CMRS choice must be bitwise identical to
//!   the sequential row-wise dot *and* within relative tolerance of
//!   merge. Any violation counts as a divergence (gate: zero).

use mps_core::{AdvisedSpmvPlan, FormatAdvisor, FormatChoice, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::Device;
use mps_sparse::cmrs::CmrsMatrix;
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::CsrMatrix;

use crate::report::{Gates, Report};

/// Relative tolerance across summation-order families (matches the
/// conformance oracle's policy).
pub const REL_TOL: f64 = 1e-9;

/// Harness sizing. [`FormatOptions::full`] is the acceptance run whose
/// scale the pinned decision-table test mirrors; [`FormatOptions::tiny`]
/// the CI smoke with identical structure.
#[derive(Debug, Clone)]
pub struct FormatOptions {
    /// Suite generation scale (fraction of the paper's dimensions).
    pub scale: f64,
    /// Label recorded in the report ("full" / "tiny").
    pub mode: &'static str,
}

impl FormatOptions {
    pub fn full() -> FormatOptions {
        FormatOptions {
            scale: 0.1,
            mode: "full",
        }
    }

    pub fn tiny() -> FormatOptions {
        FormatOptions {
            scale: 0.01,
            mode: "tiny",
        }
    }
}

/// One suite matrix's conversion + advised-vs-merge outcome.
#[derive(Debug, Clone)]
pub struct FormatRow {
    pub name: &'static str,
    pub rows: usize,
    pub nnz: usize,
    /// The advisor's pick, as rendered by [`FormatChoice`]'s `Display`.
    pub choice: String,
    /// Simulated kernel ms of one always-merge execute.
    pub merge_sim_ms: f64,
    /// Simulated kernel ms of one advised execute.
    pub advised_sim_ms: f64,
    /// `merge_sim_ms / advised_sim_ms` (exactly 1.0 for merge choices).
    pub speedup: f64,
    /// Lossless CMRS round trips completed for this matrix (must be 1).
    pub round_trips: usize,
    /// Numeric-policy violations (must be 0).
    pub divergences: usize,
}

/// The sweep's rows and totals.
#[derive(Debug, Clone)]
pub struct FormatBenchReport {
    pub mode: String,
    pub suite: Vec<FormatRow>,
    /// Matrices where the advisor strictly beat always-merge.
    pub advisor_wins: usize,
    pub total_round_trips: usize,
    pub total_divergences: usize,
    pub advice_merge: u64,
    pub advice_cmrs: u64,
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn within_rel(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&p, &q)| (p - q).abs() <= REL_TOL * p.abs().max(q.abs()).max(1.0))
}

/// Audit one lossless round trip; returns 1 when exact, else 0.
fn audit_roundtrip(back: &CsrMatrix, original: &CsrMatrix, valid: Result<(), String>) -> usize {
    usize::from(valid.is_ok() && back == original)
}

fn run_matrix(device: &Device, s: SuiteMatrix, scale: f64) -> FormatRow {
    let a = s.generate(scale);
    let x: Vec<f64> = (0..a.num_cols)
        .map(|i| 1.0 + (i % 13) as f64 * 0.5)
        .collect();

    let cmrs = CmrsMatrix::from_csr(&a);
    let round_trips = audit_roundtrip(&cmrs.to_csr(), &a, cmrs.validate());

    // Always-merge arm: the reference plan every request would get
    // without the advisor.
    let merge_plan = SpmvPlan::new(device, &a, &SpmvConfig::default());
    let mut ws = Workspace::new();
    let mut y_merge = Vec::new();
    merge_plan.execute_into(&a, &x, &mut y_merge, &mut ws);

    // Advised arm: the advisor's pick, built and executed once.
    let advised = AdvisedSpmvPlan::new(
        device,
        &a,
        &SpmvConfig::default(),
        &FormatAdvisor::default(),
    );
    let mut y_advised = Vec::new();
    advised.execute_into(&a, &x, &mut y_advised, &mut ws);

    let mut divergences = 0usize;
    if advised.choice() == FormatChoice::MergeCsr {
        if bits_of(&y_advised) != bits_of(&y_merge) {
            divergences += 1;
        }
    } else {
        let mut y_row = vec![0.0; a.num_rows];
        mps_core::spmv_rowwise(&a, &x, &mut y_row);
        if bits_of(&y_advised) != bits_of(&y_row) {
            divergences += 1;
        }
        if !within_rel(&y_advised, &y_merge) {
            divergences += 1;
        }
    }

    let merge_sim_ms = merge_plan.execute_sim_ms();
    let advised_sim_ms = advised.execute_sim_ms();
    FormatRow {
        name: s.name(),
        rows: a.num_rows,
        nnz: a.nnz(),
        choice: advised.choice().to_string(),
        merge_sim_ms,
        advised_sim_ms,
        speedup: merge_sim_ms / advised_sim_ms.max(1e-12),
        round_trips,
        divergences,
    }
}

/// Run the sweep over the Table II suite.
pub fn run(device: &Device, opts: &FormatOptions) -> FormatBenchReport {
    let suite: Vec<FormatRow> = SuiteMatrix::ALL
        .iter()
        .map(|&s| run_matrix(device, s, opts.scale))
        .collect();
    let advised = |choice: FormatChoice| {
        let name = choice.to_string();
        suite.iter().filter(|r| r.choice == name).count() as u64
    };
    FormatBenchReport {
        mode: opts.mode.to_string(),
        advisor_wins: suite.iter().filter(|r| r.speedup > 1.0).count(),
        total_round_trips: suite.iter().map(|r| r.round_trips).sum(),
        total_divergences: suite.iter().map(|r| r.divergences).sum(),
        advice_merge: advised(FormatChoice::MergeCsr),
        advice_cmrs: advised(FormatChoice::Cmrs),
        suite,
    }
}

// ---- reporting ----------------------------------------------------------

/// Run the sweep, print its table, and return the report.
pub fn report(tiny: bool) -> Report {
    let opts = if tiny {
        FormatOptions::tiny()
    } else {
        FormatOptions::full()
    };
    let r = run(&Device::titan(), &opts);
    print!("{}", render(&r));
    to_report(&r, tiny)
}

fn to_report(f: &FormatBenchReport, tiny: bool) -> Report {
    Report::new("formats", tiny)
        .with_table(
            "suite",
            &f.suite,
            &[
                ("name", "", |s| s.name.into()),
                ("rows", "count", |s| s.rows.into()),
                ("nnz", "count", |s| s.nnz.into()),
                ("choice", "", |s| s.choice.as_str().into()),
                ("merge_sim_ms", "ms", |s| s.merge_sim_ms.into()),
                ("advised_sim_ms", "ms", |s| s.advised_sim_ms.into()),
                ("speedup", "x", |s| s.speedup.into()),
                ("round_trips", "count", |s| s.round_trips.into()),
                ("divergences", "count", |s| s.divergences.into()),
            ],
        )
        .with_table(
            "totals",
            std::slice::from_ref(f),
            &[
                ("advisor_wins", "count", |f| f.advisor_wins.into()),
                ("round_trips", "count", |f| f.total_round_trips.into()),
                ("divergences", "count", |f| f.total_divergences.into()),
                ("advice_merge", "count", |f| f.advice_merge.into()),
                ("advice_cmrs", "count", |f| f.advice_cmrs.into()),
            ],
        )
}

/// Every Table II matrix round trips losslessly and without divergence,
/// and the advisor never loses to always-merge and strictly wins
/// somewhere.
pub fn gates(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let suite = r.rows("suite");
    let n = suite.len() as f64;
    g.check(
        suite.len() == SuiteMatrix::ALL.len(),
        "suite has the 14 Table II rows",
    );
    g.each(
        &suite,
        "name",
        &[
            ("advised_sim_ms <= merge_sim_ms + 1e-12", |s| {
                s.num("advised_sim_ms") <= s.num("merge_sim_ms") + 1e-12
            }),
            // Merge choices share the identical plan, so exactly 1.0.
            ("merge-csr speedup == 1", |s| {
                s.text("choice") != "merge-csr" || s.num("speedup") == 1.0
            }),
            ("non-merge speedup > 1", |s| {
                s.text("choice") == "merge-csr" || s.num("speedup") > 1.0
            }),
            ("round_trips == 1", |s| s.num("round_trips") == 1.0),
            ("divergences == 0", |s| s.num("divergences") == 0.0),
        ],
    );
    let t = r.row("totals");
    g.check(t.num("round_trips") == n, "totals round_trips == rows");
    g.check(t.num("divergences") == 0.0, "totals divergences == 0");
    let advised = t.num("advice_merge") + t.num("advice_cmrs");
    g.check(advised == n, "advice merge + cmrs == rows");
    let wins = suite.iter().any(|s| s.num("speedup") > 1.0);
    g.check(wins, "advisor leaves merge on some matrix");
    g.failures()
}

/// Render the human-readable summary table.
pub fn render(r: &FormatBenchReport) -> String {
    let mut out = format!(
        "format zoo sweep ({} mode): advised vs always-merge over the Table II suite\n",
        r.mode
    );
    let rows: Vec<Vec<String>> = r
        .suite
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.nnz.to_string(),
                s.choice.clone(),
                format!("{:.4}", s.merge_sim_ms),
                format!("{:.4}", s.advised_sim_ms),
                format!("{:.2}x", s.speedup),
                s.round_trips.to_string(),
                s.divergences.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &[
            "matrix",
            "nnz",
            "choice",
            "merge_ms",
            "advised_ms",
            "speedup",
            "roundtrip",
            "diverge",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "advice: {} merge / {} cmrs · {} strict wins · {} round trips · {} divergences\n",
        r.advice_merge, r.advice_cmrs, r.advisor_wins, r.total_round_trips, r.total_divergences,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_name_a_total_divergence() {
        let micro = FormatOptions {
            scale: 0.005,
            mode: "micro",
        };
        let mut r = to_report(&run(&Device::titan(), &micro), true);
        assert_eq!(gates(&r), Vec::<String>::new());
        *r.cell_mut("totals", 0, "divergences").expect("cell") = 1u64.into();
        assert_eq!(gates(&r), ["totals divergences == 0"]);
    }
}
