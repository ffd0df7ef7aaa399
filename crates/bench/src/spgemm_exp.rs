//! Figures 9, 10 and 11: SpGEMM (A·A; A·Aᵀ for LP) across the suite,
//! plus the symbolic/numeric split experiment.
//!
//! Figure 9 plots speedup over the sequential CPU Gustavson implementation
//! for Cusp (ESC), Cusparse (row-wise hash) and Merge (two-level sort).
//! Figure 10 plots Merge and Cusparse time against the number of
//! intermediate products (paper: ρ_Merge = 0.98, ρ_Cusparse = −0.02).
//! Figure 11 decomposes the Merge pipeline's time into its phases.
//!
//! The split experiment ([`run_split`], [`run_repeated`]) measures what
//! the [`mps_core::SpgemmPlan`] symbolic/numeric split buys: per suite
//! matrix, the symbolic (pattern) cost vs the numeric (value) replay and
//! the per-bin row/product fractions; and an AMG-style repeated-pattern
//! loop where only the values change between multiplies — numeric-only
//! replay vs rebuilding the whole pipeline every round, plus the same
//! loop served through the engine's symbolic plan cache. [`report`] is
//! the `spgemm` experiment of `mps bench` (`BENCH_spgemm.json`).

use std::sync::Arc;
use std::time::Instant;

use mps_baselines::cpu::{self, CpuModel};
use mps_baselines::{cusp, cusparse_like};
use mps_core::spgemm::FIG11_PHASES;
use mps_core::{merge_spgemm, SpgemmConfig, SpgemmPlan};
use mps_engine::{Service, ServiceConfig, TenantId};
use mps_simt::{Device, PhaseLedger};
use mps_sparse::ops::spgemm_products;
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::CsrMatrix;

use crate::report::{Gates, Report};
use crate::stats::pearson;

/// One suite row of the SpGEMM experiment.
#[derive(Debug, Clone)]
pub struct SpgemmRow {
    pub name: &'static str,
    pub products: u64,
    pub cpu_ms: f64,
    pub cusp_ms: f64,
    pub cusparse_ms: f64,
    pub merge_ms: f64,
    pub phases: PhaseLedger,
}

impl SpgemmRow {
    pub fn cusp_speedup(&self) -> f64 {
        self.cpu_ms / self.cusp_ms
    }

    pub fn cusparse_speedup(&self) -> f64 {
        self.cpu_ms / self.cusparse_ms
    }

    pub fn merge_speedup(&self) -> f64 {
        self.cpu_ms / self.merge_ms
    }
}

/// Matrices included in the SpGEMM sweep. The paper's Figure 11 skips
/// Dense (its intermediate matrix exhausted GPU memory for the sort-based
/// schemes); `include_dense` keeps it in Figures 9/10 where Cusparse still
/// has a bar.
pub fn spgemm_suite(include_dense: bool) -> Vec<SuiteMatrix> {
    SuiteMatrix::ALL
        .iter()
        .copied()
        .filter(|&m| include_dense || m != SuiteMatrix::Dense)
        .collect()
}

/// Run the SpGEMM comparison at the given generation scale.
pub fn run(device: &Device, scale: f64, include_dense: bool) -> Vec<SpgemmRow> {
    let cfg = SpgemmConfig::default();
    let cpu_model = CpuModel::default();
    spgemm_suite(include_dense)
        .into_iter()
        .map(|m| {
            let (a, b) = m.spgemm_operands(scale);
            let products = spgemm_products(&a, &b);
            let (_, cpu_ms) = cpu::spgemm(&cpu_model, &a, &b);
            let (_, cusp_stats) = cusp::spgemm_esc(device, &a, &b);
            let (_, cusparse_stats) = cusparse_like::spgemm(device, &a, &b);
            let merge = merge_spgemm(device, &a, &b, &cfg);
            SpgemmRow {
                name: m.name(),
                products,
                cpu_ms,
                cusp_ms: cusp_stats.sim_ms,
                cusparse_ms: cusparse_stats.sim_ms,
                merge_ms: merge.sim_ms(),
                phases: merge.phases,
            }
        })
        .collect()
}

/// Rows without the Dense matrix — Figures 10 and 11 exclude it (its
/// intermediate matrix exceeded the real GPU's memory for the sort-based
/// schemes, so the paper has no Merge data point for it).
pub fn without_dense(rows: &[SpgemmRow]) -> Vec<SpgemmRow> {
    rows.iter().filter(|r| r.name != "Dense").cloned().collect()
}

/// Figure 10 correlations: (ρ_merge, ρ_cusparse) of time vs products.
pub fn correlations(rows: &[SpgemmRow]) -> (f64, f64) {
    let prods: Vec<f64> = rows.iter().map(|r| r.products as f64).collect();
    let merge: Vec<f64> = rows.iter().map(|r| r.merge_ms).collect();
    let cusparse: Vec<f64> = rows.iter().map(|r| r.cusparse_ms).collect();
    (pearson(&prods, &merge), pearson(&prods, &cusparse))
}

/// Render Figure 9 (speedup bars).
pub fn render_fig9(rows: &[SpgemmRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.products.to_string(),
                format!("{:.2}", r.cusp_speedup()),
                format!("{:.2}", r.cusparse_speedup()),
                format!("{:.2}", r.merge_speedup()),
            ]
        })
        .collect();
    crate::render_table(
        &["matrix", "products", "Cusp x", "Cusparse x", "Merge x"],
        &data,
    )
}

/// Render Figure 10 (time vs products + correlations). Dense is excluded
/// as in the paper.
pub fn render_fig10(rows: &[SpgemmRow]) -> String {
    let rows = without_dense(rows);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.products.to_string(),
                format!("{:.3}", r.merge_ms),
                format!("{:.3}", r.cusparse_ms),
            ]
        })
        .collect();
    let (rm, rc) = correlations(&rows);
    let mut s = crate::render_table(&["matrix", "products", "Merge ms", "Cusparse ms"], &data);
    s.push_str(&format!("\nrho_Merge = {rm:.2}   rho_Cusparse = {rc:.2}\n"));
    s
}

/// Render Figure 11 (phase breakdown percentages + total time). Dense is
/// excluded as in the paper.
pub fn render_fig11(rows: &[SpgemmRow]) -> String {
    let rows = without_dense(rows);
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let total = r.merge_ms.max(f64::MIN_POSITIVE);
            let mut cells = vec![r.name.to_string()];
            cells.extend(
                FIG11_PHASES
                    .iter()
                    .map(|&p| format!("{:.1}", r.phases.phase_ms(p) / total * 100.0)),
            );
            cells.push(format!("{:.2}", r.merge_ms));
            cells
        })
        .collect();
    crate::render_table(
        &[
            "matrix",
            "Setup%",
            "BlockSort%",
            "GlobalSort%",
            "Tiny%",
            "MidHash%",
            "ProdCompute%",
            "ProdReduce%",
            "Other%",
            "total ms",
        ],
        &data,
    )
}

// ---- symbolic/numeric split experiment ---------------------------------

/// One suite row of the symbolic/numeric split: what a cached pattern
/// saves, and where the numeric pass routes its rows.
#[derive(Debug, Clone)]
pub struct SplitRow {
    pub name: &'static str,
    pub products: u64,
    pub out_nnz: usize,
    /// Pattern-only cost (setup, block sort, global sort, assembly) —
    /// paid once per pattern pair.
    pub symbolic_sim_ms: f64,
    /// Bin-adaptive value cost — paid per numeric execution.
    pub numeric_sim_ms: f64,
    /// `(bin, fraction of rows)` for tiny/mid/heavy.
    pub row_fractions: [(&'static str, f64); 3],
    /// `(bin, fraction of intermediate products)` for tiny/mid/heavy.
    pub product_fractions: [(&'static str, f64); 3],
}

impl SplitRow {
    /// Numeric replay cost as a fraction of the symbolic build — what a
    /// steady-state repeated-pattern multiply pays relative to the
    /// one-time pattern cost.
    pub fn numeric_symbolic_ratio(&self) -> f64 {
        if self.symbolic_sim_ms == 0.0 {
            0.0
        } else {
            self.numeric_sim_ms / self.symbolic_sim_ms
        }
    }
}

/// Build one [`SpgemmPlan`] per suite matrix and read the split off it.
pub fn run_split(device: &Device, scale: f64, include_dense: bool) -> Vec<SplitRow> {
    let cfg = SpgemmConfig::default();
    spgemm_suite(include_dense)
        .into_iter()
        .map(|m| {
            let (a, b) = m.spgemm_operands(scale);
            let plan = SpgemmPlan::new(device, &a, &b, &cfg);
            SplitRow {
                name: m.name(),
                products: plan.products(),
                out_nnz: plan.output_nnz(),
                symbolic_sim_ms: plan.symbolic_ms(),
                numeric_sim_ms: plan.numeric_ms(),
                row_fractions: plan.bin_summary().row_fractions(),
                product_fractions: plan.bin_summary().product_fractions(),
            }
        })
        .collect()
}

/// Render the split table (per-bin row fractions included).
pub fn render_split(rows: &[SplitRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.products.to_string(),
                r.out_nnz.to_string(),
                format!("{:.3}", r.symbolic_sim_ms),
                format!("{:.3}", r.numeric_sim_ms),
                format!("{:.3}", r.numeric_symbolic_ratio()),
                format!("{:.0}%", r.row_fractions[0].1 * 100.0),
                format!("{:.0}%", r.row_fractions[1].1 * 100.0),
                format!("{:.0}%", r.row_fractions[2].1 * 100.0),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "matrix",
            "products",
            "out_nnz",
            "symbolic_ms",
            "numeric_ms",
            "num/sym",
            "tiny rows",
            "mid rows",
            "heavy rows",
        ],
        &data,
    )
}

/// One matrix of the AMG-style repeated-pattern loop: the sparsity
/// pattern is fixed, values change every round (a coefficient update),
/// and the product is recomputed each time.
#[derive(Debug, Clone)]
pub struct RepeatRow {
    pub name: &'static str,
    pub rounds: usize,
    /// Totals over all rounds: plan-once + numeric replay per round.
    pub numeric_sim_ms: f64,
    pub numeric_host_ms: f64,
    /// Totals over all rounds: full one-shot pipeline per round.
    pub full_rebuild_sim_ms: f64,
    pub full_rebuild_host_ms: f64,
    /// Steady-state symbolic-cache hit rate of the same loop served
    /// through [`Service::submit_spgemm`] (1.0 = every round replayed).
    pub engine_hit_rate: f64,
    pub engine_symbolic_builds: u64,
    pub engine_numeric_execs: u64,
}

impl RepeatRow {
    pub fn host_speedup(&self) -> f64 {
        self.full_rebuild_host_ms / self.numeric_host_ms
    }

    pub fn sim_speedup(&self) -> f64 {
        self.full_rebuild_sim_ms / self.numeric_sim_ms
    }
}

/// Deterministic value refresh: overwrites every stored value as a
/// function of (position, round), so both measured loops see identical
/// operands each round.
fn mutate_values(m: &mut CsrMatrix, round: usize) {
    for (i, v) in m.values.iter_mut().enumerate() {
        *v = 0.5 + ((i * 7 + round * 13) % 17) as f64 * 0.25;
    }
}

/// Run the repeated-pattern loop on the given suite matrices. Value
/// mutation happens outside the timed region; the timers cover only the
/// multiply itself (numeric replay vs full rebuild).
pub fn run_repeated(
    device: &Device,
    matrices: &[SuiteMatrix],
    scale: f64,
    rounds: usize,
) -> Vec<RepeatRow> {
    let cfg = SpgemmConfig::default();
    matrices
        .iter()
        .map(|&m| {
            let (mut a, b) = m.spgemm_operands(scale);

            // Numeric-only: symbolic once, value replay per round.
            let plan = SpgemmPlan::new(device, &a, &b, &cfg);
            let mut values = Vec::new();
            let (mut numeric_sim, mut numeric_host) = (0.0, 0.0);
            for round in 0..rounds {
                mutate_values(&mut a, round);
                let t = Instant::now();
                numeric_sim += plan.execute_numeric(&a, &b, &mut values);
                numeric_host += t.elapsed().as_secs_f64() * 1e3;
            }

            // Full rebuild: the entire one-shot pipeline per round.
            let (mut full_sim, mut full_host) = (0.0, 0.0);
            for round in 0..rounds {
                mutate_values(&mut a, round);
                let t = Instant::now();
                full_sim += merge_spgemm(device, &a, &b, &cfg).sim_ms();
                full_host += t.elapsed().as_secs_f64() * 1e3;
            }

            // The same loop through a one-shard service: after one warm-up
            // flush, every round must hit the cached symbolic plan.
            let cfg = ServiceConfig::builder()
                .shards(1)
                .build()
                .expect("valid service config");
            let svc = Service::with_config(device, cfg);
            let serve = |a: &CsrMatrix| {
                let t = svc
                    .submit_spgemm(
                        TenantId(0),
                        &Arc::new(a.clone()),
                        &Arc::new(b.clone()),
                        None,
                    )
                    .expect("admitted");
                svc.flush();
                svc.take_result(t).expect("served");
            };
            serve(&a);
            svc.reset_stats();
            for round in 0..rounds {
                mutate_values(&mut a, round);
                serve(&a);
            }
            let s = svc.stats().aggregate();

            RepeatRow {
                name: m.name(),
                rounds,
                numeric_sim_ms: numeric_sim,
                numeric_host_ms: numeric_host,
                full_rebuild_sim_ms: full_sim,
                full_rebuild_host_ms: full_host,
                engine_hit_rate: s.cache_hit_rate(),
                engine_symbolic_builds: s.spgemm_symbolic_builds,
                engine_numeric_execs: s.spgemm_numeric_execs,
            }
        })
        .collect()
}

/// Render the repeated-pattern table.
pub fn render_repeated(rows: &[RepeatRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.rounds.to_string(),
                format!("{:.3}", r.numeric_host_ms),
                format!("{:.3}", r.full_rebuild_host_ms),
                format!("{:.1}", r.host_speedup()),
                format!("{:.1}", r.sim_speedup()),
                format!("{:.0}%", r.engine_hit_rate * 100.0),
                r.engine_symbolic_builds.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "matrix",
            "rounds",
            "numeric_host_ms",
            "rebuild_host_ms",
            "host x",
            "sim x",
            "engine hit",
            "sym builds",
        ],
        &data,
    )
}

/// Matrices of the repeated-pattern loop.
const REPEAT_SUITE: [SuiteMatrix; 4] = [
    SuiteMatrix::Qcd,
    SuiteMatrix::Economics,
    SuiteMatrix::Epidemiology,
    SuiteMatrix::Webbase,
];
/// `(scale, rounds)` of the smoke run.
const TINY: (f64, usize) = (0.01, 3);
/// `(scale, rounds)` of the committed artifact.
const FULL: (f64, usize) = (0.03, 20);

/// Run the split and the repeated-pattern loop, print their tables, and
/// return the report.
pub fn report(tiny: bool) -> Report {
    let device = Device::titan();
    let (scale, rounds) = if tiny { TINY } else { FULL };
    let split = run_split(&device, scale, false);
    let repeat = run_repeated(&device, &REPEAT_SUITE, scale, rounds);
    println!("== symbolic/numeric split ==");
    println!("{}", render_split(&split));
    println!("== repeated-pattern loop ==");
    println!("{}", render_repeated(&repeat));
    to_report(&split, &repeat, tiny)
}

fn to_report(split: &[SplitRow], repeat: &[RepeatRow], tiny: bool) -> Report {
    Report::new("spgemm", tiny)
        .with_table(
            "symbolic_numeric_split",
            split,
            &[
                ("matrix", "", |s| s.name.into()),
                ("products", "count", |s| s.products.into()),
                ("out_nnz", "count", |s| s.out_nnz.into()),
                ("symbolic_sim_ms", "ms", |s| s.symbolic_sim_ms.into()),
                ("numeric_sim_ms", "ms", |s| s.numeric_sim_ms.into()),
                ("numeric_symbolic_ratio", "ratio", |s| {
                    s.numeric_symbolic_ratio().into()
                }),
                ("tiny_row_frac", "fraction", |s| s.row_fractions[0].1.into()),
                ("mid_row_frac", "fraction", |s| s.row_fractions[1].1.into()),
                ("heavy_row_frac", "fraction", |s| {
                    s.row_fractions[2].1.into()
                }),
                ("tiny_product_frac", "fraction", |s| {
                    s.product_fractions[0].1.into()
                }),
                ("mid_product_frac", "fraction", |s| {
                    s.product_fractions[1].1.into()
                }),
                ("heavy_product_frac", "fraction", |s| {
                    s.product_fractions[2].1.into()
                }),
            ],
        )
        .with_table(
            "repeated_pattern_loop",
            repeat,
            &[
                ("matrix", "", |l| l.name.into()),
                ("rounds", "count", |l| l.rounds.into()),
                ("numeric_host_ms", "ms", |l| l.numeric_host_ms.into()),
                ("full_rebuild_host_ms", "ms", |l| {
                    l.full_rebuild_host_ms.into()
                }),
                ("host_speedup", "x", |l| l.host_speedup().into()),
                ("numeric_sim_ms", "ms", |l| l.numeric_sim_ms.into()),
                ("full_rebuild_sim_ms", "ms", |l| {
                    l.full_rebuild_sim_ms.into()
                }),
                ("sim_speedup", "x", |l| l.sim_speedup().into()),
                ("engine_hit_rate", "ratio", |l| l.engine_hit_rate.into()),
                ("engine_symbolic_builds", "count", |l| {
                    l.engine_symbolic_builds.into()
                }),
                ("engine_numeric_execs", "count", |l| {
                    l.engine_numeric_execs.into()
                }),
            ],
        )
}

/// Bin fractions sum to one and both halves cost time; numeric replay
/// never loses to a rebuild, the engine never rebuilds a cached pattern,
/// and the best replay is at least 3x faster on the host.
pub fn gates(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let split = r.rows("symbolic_numeric_split");
    g.check(
        !split.is_empty(),
        "symbolic_numeric_split: at least one row",
    );
    g.each(
        &split,
        "matrix",
        &[
            ("|sum(row fractions) - 1| < 1e-5", |s| {
                let sum = s.num("tiny_row_frac") + s.num("mid_row_frac") + s.num("heavy_row_frac");
                (sum - 1.0).abs() < 1e-5
            }),
            ("|sum(product fractions) - 1| < 1e-5", |s| {
                let sum = s.num("tiny_product_frac")
                    + s.num("mid_product_frac")
                    + s.num("heavy_product_frac");
                (sum - 1.0).abs() < 1e-5
            }),
            ("symbolic_sim_ms > 0 and numeric_sim_ms > 0", |s| {
                s.num("symbolic_sim_ms") > 0.0 && s.num("numeric_sim_ms") > 0.0
            }),
        ],
    );
    let repeat = r.rows("repeated_pattern_loop");
    g.check(
        !repeat.is_empty(),
        "repeated_pattern_loop: at least one row",
    );
    g.each(
        &repeat,
        "matrix",
        &[
            ("numeric_host_ms <= full_rebuild_host_ms", |l| {
                l.num("numeric_host_ms") <= l.num("full_rebuild_host_ms")
            }),
            ("engine_hit_rate == 1", |l| l.num("engine_hit_rate") == 1.0),
            ("engine_symbolic_builds == 0", |l| {
                l.num("engine_symbolic_builds") == 0.0
            }),
        ],
    );
    let best = repeat.iter().map(|l| l.num("host_speedup"));
    g.check(
        best.fold(f64::NEG_INFINITY, f64::max) >= 3.0,
        "best host_speedup >= 3",
    );
    g.failures()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SpgemmRow> {
        run(&Device::titan(), 0.01, false)
    }

    #[test]
    fn merge_time_tracks_products_cusparse_does_not() {
        let rows = rows();
        let (rho_merge, rho_cusparse) = correlations(&rows);
        assert!(rho_merge > 0.85, "paper reports 0.98, got {rho_merge}");
        assert!(
            rho_cusparse < rho_merge,
            "row-wise comparator should correlate worse: {rho_cusparse} vs {rho_merge}"
        );
    }

    #[test]
    fn merge_beats_esc_on_substantial_instances() {
        // Figure 9: "the Merge approach sustains performance improvement
        // compared to Cusp in all instances." The paper's instances all
        // expand millions of products; below ~half a million the fixed
        // phase overheads of the two-level pipeline dominate, so the claim
        // is asserted on the substantial instances of the scaled suite.
        let rows = rows();
        let mut checked = 0;
        for r in rows.iter().filter(|r| r.products > 500_000) {
            assert!(
                r.merge_ms < r.cusp_ms,
                "{}: merge {} vs cusp {}",
                r.name,
                r.merge_ms,
                r.cusp_ms
            );
            checked += 1;
        }
        assert!(
            checked >= 6,
            "expected several substantial instances, got {checked}"
        );
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        for r in rows() {
            let s: f64 = r.phases.fractions().iter().map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: {s}", r.name);
        }
    }

    #[test]
    fn split_rows_cover_the_suite_and_numeric_is_the_cheap_half() {
        let rows = run_split(&Device::titan(), 0.01, false);
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!(r.symbolic_sim_ms > 0.0, "{}", r.name);
            assert!(r.numeric_sim_ms > 0.0, "{}", r.name);
            assert!(
                r.numeric_sim_ms < r.symbolic_sim_ms,
                "{}: replay {} must undercut the symbolic build {}",
                r.name,
                r.numeric_sim_ms,
                r.symbolic_sim_ms
            );
            let rf: f64 = r.row_fractions.iter().map(|(_, f)| f).sum();
            let pf: f64 = r.product_fractions.iter().map(|(_, f)| f).sum();
            assert!((rf - 1.0).abs() < 1e-9, "{}: row fracs {rf}", r.name);
            assert!((pf - 1.0).abs() < 1e-9, "{}: product fracs {pf}", r.name);
        }
    }

    #[test]
    fn repeated_pattern_replay_beats_full_rebuild() {
        let rows = run_repeated(
            &Device::titan(),
            &[SuiteMatrix::Qcd, SuiteMatrix::Economics],
            0.01,
            3,
        );
        for r in &rows {
            assert!(
                r.sim_speedup() > 3.0,
                "{}: sim speedup {}",
                r.name,
                r.sim_speedup()
            );
            assert!(
                r.numeric_host_ms < r.full_rebuild_host_ms,
                "{}: numeric host {} vs rebuild host {}",
                r.name,
                r.numeric_host_ms,
                r.full_rebuild_host_ms
            );
            assert_eq!(r.engine_symbolic_builds, 0, "{}", r.name);
            assert_eq!(r.engine_numeric_execs, r.rounds as u64, "{}", r.name);
            assert!((r.engine_hit_rate - 1.0).abs() < 1e-15, "{}", r.name);
        }
    }

    #[test]
    fn gates_name_a_symbolic_rebuild_in_the_engine_loop() {
        let split = run_split(&Device::titan(), 0.005, false);
        let repeat = run_repeated(&Device::titan(), &[SuiteMatrix::Qcd], 0.005, 2);
        let mut r = to_report(&split, &repeat, true);
        let before = gates(&r);
        assert!(
            before.iter().all(|f| f.starts_with("best host_speedup")),
            "{before:?}"
        );
        *r.cell_mut("repeated_pattern_loop", 0, "engine_symbolic_builds")
            .expect("cell") = 1u64.into();
        let failed = gates(&r);
        assert_eq!(failed.len(), before.len() + 1, "{failed:?}");
        let gate = format!("engine_symbolic_builds == 0 ({})", SuiteMatrix::Qcd.name());
        assert!(failed.contains(&gate), "{failed:?}");
    }
}
