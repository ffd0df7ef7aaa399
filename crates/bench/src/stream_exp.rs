//! Plan reuse under value mutation vs full rebuild, plus the streaming
//! sliding-window PageRank scenario — [`report`] is the `stream`
//! experiment of `mps bench` (`BENCH_stream.json`).
//!
//! Two scenarios:
//!
//! * **Value rounds over the Table II suite** — each suite matrix gets
//!   one [`SpmvPlan`] built up front; every round swaps fresh numeric
//!   values into the pattern through [`SpmvPlan::update_values`] and
//!   replays the cached partition. The comparison arm rebuilds from
//!   scratch each round: partition the identically-valued matrix, then
//!   execute. Both arms are timed in host wall-clock (matrix assembly
//!   and value generation are outside both timers) and every round's
//!   outputs are compared **bitwise** — the update path must be a pure
//!   shortcut, not an approximation. Each arm's time per matrix is its
//!   fastest round: preemption and VM stalls only ever add time, and a
//!   single multi-millisecond stall would otherwise swamp a
//!   few-millisecond update arm (the `spmm_exp` and
//!   `solver_exp::plan_comparison` method). The headline number is the
//!   per-suite and total rebuild/update speedup; the acceptance gate
//!   demands ≥3x and zero divergences. (The engine/service layers ride
//!   the same mechanism through `submit_update`, but memoize pattern
//!   fingerprints per `Arc`, so the plan level is where the reuse-vs-
//!   rebuild gap is measured undiluted.)
//! * **Sliding-window PageRank** — the [`mps_graph::stream`] scenario run
//!   end-to-end through a sharded [`Service`] on a cyclic edge stream:
//!   one warm period builds every window pattern's plan, then the steady
//!   phase must be 100% plan-cache hits while pattern deltas patch the
//!   registered transition operator between rounds.

use std::time::Instant;

use mps_core::{SpmvConfig, SpmvPlan, Workspace};
use mps_engine::{Service, TenantId};
use mps_graph::{edge_stream, sliding_pagerank, StreamConfig};
use mps_simt::Device;
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::CsrMatrix;

use crate::report::{Gates, Report};

/// Harness sizing. [`StreamOptions::full`] is the acceptance run;
/// [`StreamOptions::tiny`] the CI smoke with identical structure.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Mutation rounds per suite matrix (per arm).
    pub rounds: usize,
    /// Suite generation scale (fraction of the paper's dimensions).
    pub scale: f64,
    /// Vertices in the PageRank stream graph.
    pub nodes: usize,
    /// Edges per PageRank window.
    pub window: usize,
    /// Edges the window slides per round.
    pub stride: usize,
    /// Edges in one period of the cyclic stream (multiple of `stride`).
    pub period: usize,
    /// Periods the steady phase spans.
    pub periods: usize,
    /// Label recorded in the report ("full" / "tiny").
    pub mode: &'static str,
}

impl StreamOptions {
    pub fn full() -> StreamOptions {
        StreamOptions {
            rounds: 8,
            scale: 0.05,
            nodes: 64,
            window: 96,
            stride: 4,
            period: 112,
            periods: 3,
            mode: "full",
        }
    }

    pub fn tiny() -> StreamOptions {
        StreamOptions {
            rounds: 3,
            scale: 0.01,
            nodes: 32,
            window: 48,
            stride: 4,
            period: 64,
            periods: 3,
            mode: "tiny",
        }
    }
}

/// One suite matrix's update-vs-rebuild outcome.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    pub name: &'static str,
    pub rows: usize,
    pub nnz: usize,
    pub rounds: usize,
    /// Host wall-clock of the fastest update-path round (value swap +
    /// cached-plan execute).
    pub update_round_ms: f64,
    /// Host wall-clock of the fastest rebuild-path round (cold plan +
    /// execute).
    pub rebuild_round_ms: f64,
    /// `rebuild_round_ms / update_round_ms`.
    pub speedup: f64,
    /// Rounds whose two arms disagreed bitwise (must be 0).
    pub divergences: usize,
}

/// Sliding-window PageRank scenario outcome.
#[derive(Debug, Clone)]
pub struct PageRankStreamReport {
    pub nodes: usize,
    pub window: usize,
    pub stride: usize,
    pub rounds: usize,
    pub converged_rounds: usize,
    /// Balanced-path union patches applied in the steady phase.
    pub delta_applies: u64,
    /// Deltas that exceeded the threshold and rebuilt instead.
    pub delta_fallbacks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Steady-phase plan-cache hit rate (must be exactly 1.0).
    pub steady_hit_rate: f64,
}

/// Both scenarios' results.
#[derive(Debug, Clone)]
pub struct StreamBenchReport {
    pub mode: String,
    pub suite: Vec<SuiteRow>,
    /// Sums of the matrices' fastest rounds.
    pub total_update_round_ms: f64,
    pub total_rebuild_round_ms: f64,
    pub total_speedup: f64,
    pub total_divergences: usize,
    pub pagerank: PageRankStreamReport,
}

/// Deterministic per-round replacement values.
fn round_values(nnz: usize, round: usize) -> Vec<f64> {
    (0..nnz)
        .map(|i| {
            let k = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round as u64 * 0x1000_0000_01B3);
            0.25 + (k % 4096) as f64 / 1024.0 - (round % 5) as f64 * 0.125
        })
        .collect()
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run the update-vs-rebuild arms for one matrix.
fn run_matrix(device: &Device, name: &'static str, m: CsrMatrix, rounds: usize) -> SuiteRow {
    let (n_rows, nnz) = (m.num_rows, m.nnz());
    let x: Vec<f64> = (0..m.num_cols)
        .map(|i| 1.0 + (i % 13) as f64 * 0.5)
        .collect();

    // Update arm: one plan built up front; every round is a value swap
    // plus a cached-partition replay into reused buffers. Rebuild arm:
    // identical values, but the partition is planned from scratch every
    // round (matrix assembly and value generation stay off the clock;
    // planning and execution are on it). The arms alternate round by
    // round, so a slow spell of the host falls on both, and each keeps
    // its fastest round.
    assert!(rounds > 0, "at least one round per arm");
    let cfg = SpmvConfig::default();
    let plan = SpmvPlan::new(device, &m, &cfg);
    let mut a = m.clone();
    let mut ws = Workspace::new();
    let mut y = Vec::new();
    plan.execute_into(&a, &x, &mut y, &mut ws); // warm buffers, off the clock
    let (mut update_ns, mut rebuild_ns) = (u128::MAX, u128::MAX);
    let mut divergences = 0usize;
    for r in 0..rounds {
        let vals = round_values(nnz, r);
        let mut fresh = m.clone();
        fresh.values = vals.clone();
        let t0 = Instant::now();
        plan.update_values(&mut a, vals).expect("matching length");
        plan.execute_into(&a, &x, &mut y, &mut ws);
        update_ns = update_ns.min(t0.elapsed().as_nanos());
        let expected = bits_of(&y);

        let t0 = Instant::now();
        let cold = SpmvPlan::new(device, &fresh, &cfg);
        cold.execute_into(&fresh, &x, &mut y, &mut ws);
        rebuild_ns = rebuild_ns.min(t0.elapsed().as_nanos());
        if bits_of(&y) != expected {
            divergences += 1;
        }
    }

    let update_round_ms = update_ns as f64 / 1e6;
    let rebuild_round_ms = rebuild_ns as f64 / 1e6;
    SuiteRow {
        name,
        rows: n_rows,
        nnz,
        rounds,
        update_round_ms,
        rebuild_round_ms,
        speedup: rebuild_round_ms / update_round_ms.max(1e-9),
        divergences,
    }
}

/// Run the sliding-window PageRank scenario through a sharded service.
pub fn run_pagerank_stream(device: &Device, opts: &StreamOptions) -> PageRankStreamReport {
    assert!(
        opts.period.is_multiple_of(opts.stride),
        "period must tile by stride"
    );
    let svc = Service::new(device);
    let cfg = StreamConfig {
        nodes: opts.nodes,
        window: opts.window,
        stride: opts.stride,
        ..StreamConfig::default()
    };
    let base = edge_stream(opts.nodes, opts.period, 42);
    let edges: Vec<(u32, u32)> = base
        .iter()
        .copied()
        .cycle()
        .take(opts.periods * opts.period)
        .collect();
    // Warm one full period (including boundary-straddling windows), then
    // measure the steady phase from clean ledgers.
    sliding_pagerank(&svc, TenantId(0), &edges[..opts.period + opts.window], &cfg).expect("warm");
    svc.reset_stats();
    let report = sliding_pagerank(&svc, TenantId(0), &edges, &cfg).expect("steady");
    let stats = svc.stats();
    let agg = stats.aggregate();
    PageRankStreamReport {
        nodes: opts.nodes,
        window: opts.window,
        stride: opts.stride,
        rounds: report.rounds.len(),
        converged_rounds: report.rounds.iter().filter(|r| r.converged).count(),
        delta_applies: agg.delta_applies,
        delta_fallbacks: agg.delta_fallbacks,
        cache_hits: agg.cache_hits,
        cache_misses: agg.cache_misses,
        steady_hit_rate: agg.cache_hits as f64 / (agg.cache_hits + agg.cache_misses).max(1) as f64,
    }
}

/// Run both scenarios over the Table II suite.
pub fn run(device: &Device, opts: &StreamOptions) -> StreamBenchReport {
    let suite: Vec<SuiteRow> = SuiteMatrix::ALL
        .iter()
        .map(|s| run_matrix(device, s.name(), s.generate(opts.scale), opts.rounds))
        .collect();
    let total_update: f64 = suite.iter().map(|r| r.update_round_ms).sum();
    let total_rebuild: f64 = suite.iter().map(|r| r.rebuild_round_ms).sum();
    StreamBenchReport {
        mode: opts.mode.to_string(),
        total_update_round_ms: total_update,
        total_rebuild_round_ms: total_rebuild,
        total_speedup: total_rebuild / total_update.max(1e-9),
        total_divergences: suite.iter().map(|r| r.divergences).sum(),
        suite,
        pagerank: run_pagerank_stream(device, opts),
    }
}

// ---- reporting ----------------------------------------------------------

/// Run both scenarios on a pool of [`crate::default_pool_threads`],
/// print the summary tables, and return the report.
pub fn report(tiny: bool) -> Report {
    crate::default_pool_threads();
    let opts = if tiny {
        StreamOptions::tiny()
    } else {
        StreamOptions::full()
    };
    let r = run(&Device::titan(), &opts);
    print!("{}", render(&r));
    to_report(&r, tiny)
}

fn to_report(s: &StreamBenchReport, tiny: bool) -> Report {
    Report::new("stream", tiny)
        .with_table(
            "suite",
            &s.suite,
            &[
                ("name", "", |m| m.name.into()),
                ("rows", "count", |m| m.rows.into()),
                ("nnz", "count", |m| m.nnz.into()),
                ("rounds", "count", |m| m.rounds.into()),
                ("update_round_ms", "ms", |m| m.update_round_ms.into()),
                ("rebuild_round_ms", "ms", |m| m.rebuild_round_ms.into()),
                ("speedup", "x", |m| m.speedup.into()),
                ("divergences", "count", |m| m.divergences.into()),
            ],
        )
        .with_table(
            "total",
            std::slice::from_ref(s),
            &[
                ("update_round_ms", "ms", |s| s.total_update_round_ms.into()),
                ("rebuild_round_ms", "ms", |s| {
                    s.total_rebuild_round_ms.into()
                }),
                ("speedup", "x", |s| s.total_speedup.into()),
                ("divergences", "count", |s| s.total_divergences.into()),
            ],
        )
        .with_table(
            "pagerank",
            std::slice::from_ref(&s.pagerank),
            &[
                ("nodes", "count", |p| p.nodes.into()),
                ("window", "edges", |p| p.window.into()),
                ("stride", "edges", |p| p.stride.into()),
                ("rounds", "count", |p| p.rounds.into()),
                ("converged_rounds", "count", |p| p.converged_rounds.into()),
                ("delta_applies", "count", |p| p.delta_applies.into()),
                ("delta_fallbacks", "count", |p| p.delta_fallbacks.into()),
                ("cache_hits", "count", |p| p.cache_hits.into()),
                ("cache_misses", "count", |p| p.cache_misses.into()),
                ("steady_hit_rate", "ratio", |p| p.steady_hit_rate.into()),
            ],
        )
}

/// Value updates beat rebuilds 3x (fastest rounds) with zero
/// divergences; the PageRank
/// stream's steady phase is all hits, converges every round, and
/// exercises deltas.
pub fn gates(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let suite = r.rows("suite");
    g.check(!suite.is_empty(), "suite: at least one row");
    g.each(
        &[r.row("total")],
        "",
        &[
            ("total speedup >= 3", |t| t.num("speedup") >= 3.0),
            ("total divergences == 0", |t| t.num("divergences") == 0.0),
        ],
    );
    g.each(
        &suite,
        "name",
        &[("divergences == 0", |m| m.num("divergences") == 0.0)],
    );
    g.each(
        &[r.row("pagerank")],
        "",
        &[
            ("pagerank cache_misses == 0", |p| {
                p.num("cache_misses") == 0.0
            }),
            ("pagerank steady_hit_rate == 1", |p| {
                p.num("steady_hit_rate") == 1.0
            }),
            ("pagerank converged_rounds == rounds", |p| {
                p.num("converged_rounds") == p.num("rounds")
            }),
            ("pagerank delta_applies + delta_fallbacks > 0", |p| {
                p.num("delta_applies") + p.num("delta_fallbacks") > 0.0
            }),
        ],
    );
    g.failures()
}

/// Render the human-readable summary tables.
pub fn render(r: &StreamBenchReport) -> String {
    let mut out = format!(
        "value-mutation rounds ({} mode): fastest of {} rounds per matrix, update vs cold rebuild\n",
        r.mode,
        r.suite.first().map(|s| s.rounds).unwrap_or(0)
    );
    let rows: Vec<Vec<String>> = r
        .suite
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.nnz.to_string(),
                format!("{:.3}", s.update_round_ms),
                format!("{:.3}", s.rebuild_round_ms),
                format!("{:.2}x", s.speedup),
                s.divergences.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &[
            "matrix",
            "nnz",
            "update_ms",
            "rebuild_ms",
            "speedup",
            "diverge",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "total: update {:.3} ms vs rebuild {:.3} ms -> {:.2}x, {} divergences\n",
        r.total_update_round_ms, r.total_rebuild_round_ms, r.total_speedup, r.total_divergences
    ));
    let p = &r.pagerank;
    out.push_str(&format!(
        "\nsliding-window PageRank: {} rounds over {} nodes (window {}, stride {})\n\
         converged {}/{} · {} delta patches, {} fallbacks · steady cache hit rate {:.3} \
         ({} hits / {} misses)\n",
        p.rounds,
        p.nodes,
        p.window,
        p.stride,
        p.converged_rounds,
        p.rounds,
        p.delta_applies,
        p.delta_fallbacks,
        p.steady_hit_rate,
        p.cache_hits,
        p.cache_misses
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::titan()
    }

    fn micro() -> StreamOptions {
        StreamOptions {
            rounds: 3,
            scale: 0.005,
            nodes: 32,
            window: 48,
            stride: 16,
            period: 64,
            periods: 2,
            mode: "micro",
        }
    }

    #[test]
    fn update_rounds_beat_rebuild_rounds_with_zero_divergence() {
        let r = run(&dev(), &micro());
        assert_eq!(r.suite.len(), SuiteMatrix::ALL.len());
        assert_eq!(r.total_divergences, 0, "update path must be bit-exact");
        assert!(
            r.total_speedup >= 3.0,
            "plan reuse must dominate: got {:.2}x",
            r.total_speedup
        );
    }

    #[test]
    fn gates_name_a_pagerank_cache_miss() {
        let mut r = to_report(&run(&dev(), &micro()), true);
        assert_eq!(gates(&r), Vec::<String>::new());
        *r.cell_mut("pagerank", 0, "cache_misses").expect("cell") = 1u64.into();
        assert_eq!(gates(&r), ["pagerank cache_misses == 0"]);
    }
}
