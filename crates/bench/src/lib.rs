//! # mps-bench — experiment harness
//!
//! One module per experiment of the paper's evaluation section. Each
//! returns structured rows and renders the same table/series the paper
//! plots, so `repro <figN>` regenerates every figure and table:
//!
//! | paper artifact | module | what it reports |
//! |---|---|---|
//! | Table I | [`tables`] | simulated device + host model configuration |
//! | Table II | [`tables`] | suite statistics (paper vs generated) |
//! | Figure 2 | [`fig2`] | set-union throughput vs input size |
//! | Figure 4 | [`fig4`] | CTA radix-sort cycles by variant |
//! | Figures 5–6 | [`spmv_exp`] | SpMV GFLOP/s bars + time-vs-nnz correlation |
//! | Figures 7–8 | [`spadd_exp`] | SpAdd speedup bars + time-vs-work correlation |
//! | Figures 9–11 | [`spgemm_exp`] | SpGEMM speedups, time-vs-products, phase breakdown |
//! | solver layer | [`solver_exp`] | solver sim_ms + measured host wall-clock, plan-vs-per-call |
//! | SpMM layer | [`spmm_exp`] | tiled SpMM vs K repeated planned SpMVs (sim + host) |
//! | host runtime | [`host_exp`] | per-launch overhead, pool-vs-spawn dispatch, host/sim gap |
//! | serving layer | [`serve_exp`] | batched vs unbatched SpMV serving through the engine |
//! | serving service | [`load_exp`] | closed-loop multi-tenant load, QoS fairness, shard scaling |
//! | streaming mutation | [`stream_exp`] | value-update plan reuse vs rebuild, sliding-window PageRank |
//! | phase breakdown | [`trace_exp`] | per-kernel phase-attributed time over the suite |
//! | conformance | [`conformance`] | differential sweep of every implementation vs its oracle |
//!
//! All experiments are deterministic: simulated device time is a pure
//! function of the generated workloads.
//!
//! The nine experiments in [`EXPERIMENTS`] write their results as one
//! [`Report`] schema; `mps bench <name>` runs one and `mps gate` checks
//! an artifact against its experiment's gates.

pub mod conformance;
pub mod fig2;
pub mod fig4;
pub mod format_exp;
pub mod host_exp;
pub mod load_exp;
pub mod report;
pub mod sensitivity;
pub mod serve_exp;
pub mod solver_exp;
pub mod spadd_exp;
pub mod spgemm_exp;
pub mod spmm_exp;
pub mod spmv_exp;
pub mod stats;
pub mod stream_exp;
pub mod tables;
pub mod trace_exp;

pub use report::Report;

/// One `mps bench` experiment.
pub struct Experiment {
    /// `mps bench <name>` writes `BENCH_<name>.json`.
    pub name: &'static str,
    /// Run at tiny or full size, print the text tables, return the report.
    pub report: fn(tiny: bool) -> Report,
    /// The gates `mps gate` applies (`None`: not gated); each returned
    /// string names a gate the report fails.
    pub gates: Option<fn(&Report) -> Vec<String>>,
}

const fn exp(
    name: &'static str,
    report: fn(bool) -> Report,
    gates: Option<fn(&Report) -> Vec<String>>,
) -> Experiment {
    Experiment {
        name,
        report,
        gates,
    }
}

/// Every experiment that writes an artifact.
pub static EXPERIMENTS: [Experiment; 9] = [
    exp("phases", trace_exp::report, Some(trace_exp::gates)),
    exp("spgemm", spgemm_exp::report, Some(spgemm_exp::gates)),
    exp("load", load_exp::report, Some(load_exp::gates)),
    exp("stream", stream_exp::report, Some(stream_exp::gates)),
    exp("formats", format_exp::report, Some(format_exp::gates)),
    exp("host", host_exp::report, Some(host_exp::gates)),
    exp("serve", serve_exp::report, None),
    exp("solvers", solver_exp::report, Some(solver_exp::gates)),
    exp("spmm", spmm_exp::report, None),
];

pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Give the worker pool four lanes unless `RAYON_NUM_THREADS` pins it:
/// the multi-threaded experiments need a parallel runtime even on a
/// single-core machine.
pub fn default_pool_threads() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        let _ = rayon::set_num_threads(4);
    }
}

/// Default generation scale for SpMV/SpAdd experiments (fraction of the
/// paper's matrix dimensions).
pub const DEFAULT_SCALE: f64 = 0.2;

/// Default generation scale for SpGEMM experiments (products grow
/// quadratically, so the suite is scaled further down).
pub const DEFAULT_SPGEMM_SCALE: f64 = 0.02;

/// Render aligned columns: a header row then data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("long-name"));
    }
}
