//! Serving-engine benchmark: batched vs unbatched SpMV request serving.
//!
//! At each concurrency level `C` the same wave of `C` SpMV requests on one
//! matrix is served two ways:
//!
//! * **batched** — all `C` requests are submitted to a one-shard
//!   [`Service`] and one [`Service::flush`] coalesces them into a single
//!   column-tiled SpMM traversal (results split back per request, bitwise
//!   identical);
//! * **unbatched** — the same `C` requests on a second one-shard
//!   service, one request per flush, so each runs alone through the
//!   cached SpMV plan.
//!
//! Both paths run against a warmed service (plans cached, workspaces
//! pooled), then stats are reset so the measured phase reports
//! steady-state serving: simulated device time, measured host wall-clock
//! per wave, plan-cache hit rate, pool reuse, mean batch size, and the
//! wide-access DRAM bytes only the batched path generates. [`report`] is
//! the `serve` experiment of `mps bench` (`BENCH_serve.json`).

use std::sync::Arc;
use std::time::Instant;

use mps_engine::{EngineStats, Service, ServiceConfig, TenantId};
use mps_simt::Device;
use mps_sparse::{gen, CsrMatrix};

use crate::report::Report;

/// One concurrency-level measurement.
#[derive(Debug, Clone)]
pub struct ServeRow {
    pub concurrency: usize,
    pub n: usize,
    pub nnz: usize,
    /// Measured request waves (after a warm-up wave).
    pub rounds: usize,
    /// Simulated ms of the batched path over all measured waves.
    pub batched_sim_ms: f64,
    /// Simulated ms of the unbatched path over all measured waves.
    pub unbatched_sim_ms: f64,
    /// Measured host ms per wave, batched (submit + flush + collect).
    pub batched_host_ms: f64,
    /// Measured host ms per wave, unbatched (`C` one-request flushes).
    pub unbatched_host_ms: f64,
    /// Steady-state plan-cache hit rate on the batched engine.
    pub cache_hit_rate: f64,
    /// Steady-state workspace reuse rate on the batched engine.
    pub pool_reuse_rate: f64,
    /// Mean coalesced batch size over the measured waves.
    pub mean_batch: f64,
    /// Wide-access DRAM payload from the column-tiled batched traversals.
    pub dram_wide_bytes: u64,
}

impl ServeRow {
    /// Simulated speedup of batched over unbatched serving.
    pub fn sim_speedup(&self) -> f64 {
        if self.batched_sim_ms <= 0.0 {
            return 0.0;
        }
        self.unbatched_sim_ms / self.batched_sim_ms
    }

    /// Host-time speedup of batched over unbatched serving.
    pub fn host_speedup(&self) -> f64 {
        if self.batched_host_ms <= 0.0 {
            return 0.0;
        }
        self.unbatched_host_ms / self.batched_host_ms
    }
}

/// Deterministic operand for request slot `slot`.
fn operand(n: usize, slot: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 7 + slot * 13) % 17) as f64 * 0.25)
        .collect()
}

/// Serve `rounds` waves of `concurrency` requests both ways on a pair of
/// one-shard services, returning steady-state numbers (one warm wave
/// excluded).
pub fn measure(device: &Device, a: &Arc<CsrMatrix>, concurrency: usize, rounds: usize) -> ServeRow {
    let xs: Vec<Vec<f64>> = (0..concurrency).map(|s| operand(a.num_cols, s)).collect();
    let service = || {
        let cfg = ServiceConfig::builder()
            .shards(1)
            .build()
            .expect("valid service config");
        Service::with_config(device, cfg)
    };

    // Batched path: warm one wave (builds + caches the SpMM plan, pools
    // the workspace), reset the ledger, then measure.
    let batched = service();
    serve_wave(&batched, a, &xs);
    batched.reset_stats();
    let t0 = Instant::now();
    for _ in 0..rounds {
        serve_wave(&batched, a, &xs);
    }
    let batched_host_ms = t0.elapsed().as_secs_f64() * 1e3 / rounds.max(1) as f64;
    let bstats: EngineStats = batched.stats().aggregate();

    // Unbatched path: same warm-reset-measure shape, one request per
    // flush.
    let unbatched = service();
    let serve_alone = || {
        for x in &xs {
            serve_wave(&unbatched, a, std::slice::from_ref(x));
        }
    };
    serve_alone();
    unbatched.reset_stats();
    let t1 = Instant::now();
    for _ in 0..rounds {
        serve_alone();
    }
    let unbatched_host_ms = t1.elapsed().as_secs_f64() * 1e3 / rounds.max(1) as f64;
    let ustats = unbatched.stats().aggregate();

    ServeRow {
        concurrency,
        n: a.num_rows,
        nnz: a.nnz(),
        rounds,
        batched_sim_ms: bstats.exec_sim_ms,
        unbatched_sim_ms: ustats.exec_sim_ms,
        batched_host_ms,
        unbatched_host_ms,
        cache_hit_rate: bstats.cache_hit_rate(),
        pool_reuse_rate: bstats.pool_reuse_rate(),
        mean_batch: bstats.mean_batch_size(),
        dram_wide_bytes: bstats.totals.dram_wide_bytes,
    }
}

fn serve_wave(svc: &Service, a: &Arc<CsrMatrix>, xs: &[Vec<f64>]) {
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| {
            svc.submit_spmv(TenantId(0), a, x.clone(), None)
                .expect("bench waves stay under the tenant quota")
        })
        .collect();
    svc.flush();
    for t in tickets {
        svc.take_result(t).expect("flushed request has a result");
    }
}

/// Concurrency sweep `C ∈ {1, 2, 4, 8, 16}` on a uniform random operator.
pub fn run(device: &Device, n: usize, avg_nnz_per_row: f64, rounds: usize) -> Vec<ServeRow> {
    let a = Arc::new(gen::random_uniform(
        n,
        n,
        avg_nnz_per_row,
        avg_nnz_per_row / 2.0,
        42,
    ));
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&c| measure(device, &a, c, rounds))
        .collect()
}

/// `(n, avg_nnz_per_row, rounds)` of the smoke run.
const TINY: (usize, f64, usize) = (300, 6.0, 2);
/// `(n, avg_nnz_per_row, rounds)` of the committed artifact.
const FULL: (usize, f64, usize) = (4000, 16.0, 10);

/// Run the concurrency sweep, print its table, and return the report.
pub fn report(tiny: bool) -> Report {
    let (n, avg_nnz_per_row, rounds) = if tiny { TINY } else { FULL };
    let rows = run(&Device::titan(), n, avg_nnz_per_row, rounds);
    println!("{}", render(&rows));
    Report::new("serve", tiny).with_table(
        "batched_vs_unbatched_serving",
        &rows,
        &[
            ("concurrency", "requests", |r| r.concurrency.into()),
            ("n", "rows", |r| r.n.into()),
            ("nnz", "count", |r| r.nnz.into()),
            ("rounds", "count", |r| r.rounds.into()),
            ("batched_sim_ms", "ms", |r| r.batched_sim_ms.into()),
            ("unbatched_sim_ms", "ms", |r| r.unbatched_sim_ms.into()),
            ("sim_speedup", "x", |r| r.sim_speedup().into()),
            ("batched_host_ms", "ms", |r| r.batched_host_ms.into()),
            ("unbatched_host_ms", "ms", |r| r.unbatched_host_ms.into()),
            ("host_speedup", "x", |r| r.host_speedup().into()),
            ("cache_hit_rate", "ratio", |r| r.cache_hit_rate.into()),
            ("pool_reuse_rate", "ratio", |r| r.pool_reuse_rate.into()),
            ("mean_batch", "requests", |r| r.mean_batch.into()),
            ("dram_wide_bytes", "bytes", |r| r.dram_wide_bytes.into()),
        ],
    )
}

/// Render the sweep table.
pub fn render(rows: &[ServeRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.concurrency.to_string(),
                format!("{:.3}", r.batched_sim_ms),
                format!("{:.3}", r.unbatched_sim_ms),
                format!("{:.2}", r.sim_speedup()),
                format!("{:.2}", r.host_speedup()),
                format!("{:.0}%", 100.0 * r.cache_hit_rate),
                format!("{:.0}%", 100.0 * r.pool_reuse_rate),
                format!("{:.1}", r.mean_batch),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "C",
            "batched_sim_ms",
            "unbatched_sim_ms",
            "sim_speedup",
            "host_speedup",
            "cache_hit",
            "pool_reuse",
            "mean_batch",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn batched_serving_beats_unbatched_in_sim_at_concurrency_4_plus() {
        let rows = run(&dev(), 400, 8.0, 3);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.batched_sim_ms > 0.0);
            assert!(
                r.cache_hit_rate > 0.9,
                "C={}: steady-state hit rate {} must exceed 90%",
                r.concurrency,
                r.cache_hit_rate
            );
            assert!(r.pool_reuse_rate > 0.9, "C={}", r.concurrency);
            if r.concurrency >= 4 {
                assert!(
                    r.sim_speedup() > 1.0,
                    "C={}: sim speedup {} must exceed 1",
                    r.concurrency,
                    r.sim_speedup()
                );
                assert!(r.dram_wide_bytes > 0, "batched path is column-tiled");
            }
        }
    }
}
