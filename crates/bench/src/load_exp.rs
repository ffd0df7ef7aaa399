//! Closed-loop load harness for the sharded serving [`Service`].
//!
//! Three scenarios, all deterministic in their workloads, reported
//! together by [`report`], the `load` experiment of `mps bench`
//! (`BENCH_load.json`):
//!
//! * **Closed loop** — W worker threads, one tenant each, drive the
//!   service as hard as it will go: every worker submits a request
//!   against its own matrices (mostly SpMV, every 16th a 2-column SpMM),
//!   flushes, redeems, and immediately submits the next. Latency is the
//!   submit→redeem host wall-clock per request (p50/p99/p999), throughput
//!   is total redeemed requests over the run. Every redeemed result is
//!   checked **bitwise** against a single-threaded reference [`Engine`]
//!   serving the same `(matrix, operand)` pair — the harness is also the
//!   concurrency-equivalence proof. A warm-up pass builds every plan
//!   before stats reset, so the steady-state per-tenant cache hit rate
//!   must be exactly 1.0.
//! * **Fairness under overload (open loop)** — one shard, three tenants
//!   with DRR weights 3:1:1, each topping its injector backlog up to
//!   quota every round while the per-flush drain budget admits only a
//!   fraction (submission rate ≈ 2x drain rate). Completed shares must
//!   track weight shares; submissions past quota surface as
//!   tenant-attributed [`EngineError::Overloaded`], and a chaos
//!   deadline-storm sub-run checks expiries attribute the right tenant.
//! * **Shard scaling (simulated time)** — the same repeated-pattern
//!   workload served at 1, 2, 4 … shards. The host has however many
//!   cores it has (often one, in CI), so the scaling claim is made in
//!   the simulator's currency like every other experiment in this tree:
//!   the makespan of a shard count is the *maximum* per-shard simulated
//!   execution time (shards drain concurrently), and the gain is the
//!   single-shard makespan over it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mps_engine::{
    ChaosConfig, Engine, EngineConfig, EngineError, Service, ServiceConfig, TenantId, TenantSpec,
};
use mps_simt::Device;
use mps_sparse::{gen, CsrMatrix, DenseBlock};

use crate::report::{Gates, Report};

/// Distinct operand vectors cycled per matrix.
const SLOTS: usize = 4;
/// Every `SPMM_EVERY`-th closed-loop request is a 2-column SpMM.
const SPMM_EVERY: usize = 16;
/// Column count of the closed-loop SpMM requests.
const SPMM_K: usize = 2;

/// Harness sizing. [`LoadOptions::full`] is the 10^5-request acceptance
/// run; [`LoadOptions::tiny`] is the CI smoke with identical structure.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Total closed-loop requests across all workers.
    pub requests: usize,
    /// Closed-loop worker threads (= tenants; each owns its matrices).
    pub workers: usize,
    /// Service shards for the closed-loop run.
    pub shards: usize,
    /// Matrix dimension for generated operators.
    pub n: usize,
    /// Open-loop fairness flush rounds.
    pub fairness_rounds: usize,
    /// Repeated-pattern waves per shard count in the scaling sweep.
    pub scaling_rounds: usize,
    /// Shard counts swept by the scaling scenario (must start at 1).
    pub scaling_shards: Vec<usize>,
    /// Label recorded in the report ("full" / "tiny").
    pub mode: &'static str,
}

impl LoadOptions {
    /// The acceptance-scale run: 10^5 mixed-tenant closed-loop requests.
    pub fn full() -> LoadOptions {
        LoadOptions {
            requests: 100_000,
            workers: 8,
            shards: 4,
            n: 256,
            fairness_rounds: 10,
            scaling_rounds: 8,
            scaling_shards: vec![1, 2, 4, 8],
            mode: "full",
        }
    }

    /// CI smoke: same structure, ~25x fewer requests.
    pub fn tiny() -> LoadOptions {
        LoadOptions {
            requests: 4_000,
            workers: 4,
            shards: 4,
            n: 128,
            fairness_rounds: 6,
            scaling_rounds: 3,
            scaling_shards: vec![1, 4],
            mode: "tiny",
        }
    }
}

/// Per-tenant closed-loop outcome (engine ledger + service ledger merged).
#[derive(Debug, Clone)]
pub struct TenantRow {
    pub tenant: u32,
    pub requests: u64,
    pub hits: u64,
    pub overloads: u64,
    pub deadline_misses: u64,
    pub hit_rate: f64,
}

/// Closed-loop scenario results.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    pub requests: usize,
    pub workers: usize,
    pub shards: usize,
    pub tenants: usize,
    pub elapsed_ms: f64,
    pub throughput_rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    /// Redeemed results that matched the single-threaded reference
    /// engine bit-for-bit (must equal `requests`).
    pub bitwise_checked: usize,
    pub bitwise_mismatches: usize,
    /// Steady-state plan-cache hit rate of the repeated-pattern tenant
    /// (tenant 0) — must be exactly 1.0 after warm-up.
    pub repeat_tenant_hit_rate: f64,
    /// Aggregate steady-state cache hit rate across all shards.
    pub cache_hit_rate: f64,
    pub per_tenant: Vec<TenantRow>,
}

/// One tenant's share of the overloaded open-loop drain.
#[derive(Debug, Clone)]
pub struct FairnessRow {
    pub tenant: u32,
    pub weight: u32,
    pub completed: u64,
    pub share: f64,
    pub expected_share: f64,
    /// `share / expected_share` — 1.0 is perfectly fair.
    pub deviation: f64,
}

/// Fairness-under-overload scenario results.
#[derive(Debug, Clone)]
pub struct FairnessReport {
    pub drain_budget: usize,
    pub rounds: usize,
    pub completed_total: u64,
    pub per_tenant: Vec<FairnessRow>,
    /// Worst `max(deviation, 1/deviation)` across tenants.
    pub max_deviation: f64,
    /// Quota rejections observed (every one carried the right tenant).
    pub quota_overloads: u64,
    /// Whether every `Overloaded` error named the submitting tenant.
    pub overload_attribution_ok: bool,
    /// Deadline-storm expiries observed (chaos-forced).
    pub storm_deadline_misses: u64,
    /// Whether every `DeadlineExceeded` named the submitting tenant.
    pub storm_attribution_ok: bool,
}

/// One shard count's simulated-time makespan.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    pub shards: usize,
    /// Max per-shard simulated execution ms (shards drain concurrently,
    /// so the slowest shard is the wave's critical path).
    pub makespan_sim_ms: f64,
    /// Total simulated execution ms across shards (work conservation
    /// check: must match the single-shard makespan).
    pub total_sim_ms: f64,
    /// Single-shard makespan over this makespan.
    pub gain: f64,
}

/// All three scenarios' results.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub mode: String,
    pub closed: ClosedLoopReport,
    pub fairness: FairnessReport,
    pub scaling: Vec<ScalingRow>,
}

/// Deterministic operand for `(matrix, slot)`.
fn operand(n: usize, mat: usize, slot: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + ((i * 7 + mat * 31 + slot * 13 + 3) % 23) as f64 * 0.25 - (slot % 3) as f64)
        .collect()
}

fn block_operand(n: usize, mat: usize) -> DenseBlock {
    DenseBlock::from_fn(n, SPMM_K, |r, c| operand(n, mat, c)[r] + r as f64 * 0.0625)
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e3
}

// ---- closed loop --------------------------------------------------------

/// Run the multi-threaded closed loop and verify every result bitwise
/// against a single-threaded reference engine.
pub fn run_closed_loop(device: &Device, opts: &LoadOptions) -> ClosedLoopReport {
    let workers = opts.workers.max(1);
    let mats_per_worker = 2usize;
    let mats: Vec<Arc<CsrMatrix>> = (0..workers * mats_per_worker)
        .map(|m| {
            Arc::new(gen::random_uniform(
                opts.n,
                opts.n,
                6.0,
                2.0,
                1000 + m as u64,
            ))
        })
        .collect();

    // Single-threaded reference: expected bits per (matrix, slot) and the
    // expected SpMM block per matrix.
    let reference = Engine::new(device);
    let want_vec: Vec<Vec<Vec<u64>>> = mats
        .iter()
        .enumerate()
        .map(|(m, a)| {
            (0..SLOTS)
                .map(|s| bits_of(&reference.spmv(a, &operand(opts.n, m, s))))
                .collect()
        })
        .collect();
    let want_blk: Vec<Vec<u64>> = mats
        .iter()
        .enumerate()
        .map(|(m, a)| bits_of(&reference.spmm(a, &block_operand(opts.n, m)).data))
        .collect();

    let cfg = ServiceConfig::builder()
        .shards(opts.shards)
        .engine(
            EngineConfig::builder()
                // Result TTL is counted in shard flush epochs, and *every*
                // worker's flush() advances *every* shard's epoch — W
                // concurrent flushers spin epochs fast enough to evict a
                // completed result while its submitter is descheduled.
                // Workers redeem immediately and hold one outstanding
                // ticket each, so an unbounded TTL keeps the completed
                // maps at most `workers` entries deep.
                .result_ttl_flushes(u64::MAX)
                .build()
                .expect("valid engine config"),
        )
        .default_tenant(TenantSpec::new(1, 64))
        .build()
        .expect("valid service config");
    let svc = Service::with_config(device, cfg);

    // Warm-up: build every plan (SpMV and width-2 SpMM per matrix) so the
    // measured phase is pure steady state, then zero the ledgers.
    // Separate flushes per kind: coalescing the vector and the block into
    // one traversal would warm a k=3 plan instead of the k=1/k=2 plans
    // the measured phase actually uses.
    for (m, a) in mats.iter().enumerate() {
        let t = svc
            .submit_spmv(TenantId(0), a, operand(opts.n, m, 0), None)
            .expect("warm-up admitted");
        svc.flush();
        svc.take_result(t).expect("warm-up spmv");
        let tb = svc
            .submit_spmm(TenantId(0), a, block_operand(opts.n, m), None)
            .expect("warm-up admitted");
        svc.flush();
        svc.take_result(tb).expect("warm-up spmm");
    }
    svc.reset_stats();

    let per_worker = opts.requests / workers;
    let mismatches = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let svc = &svc;
                let mats = &mats;
                let want_vec = &want_vec;
                let want_blk = &want_blk;
                let mismatches = &mismatches;
                scope.spawn(move || {
                    let tenant = TenantId(w as u32);
                    let mut lats = Vec::with_capacity(per_worker);
                    for i in 0..per_worker {
                        let m = w * mats_per_worker + (i % mats_per_worker);
                        let a = &mats[m];
                        let slot = i % SLOTS;
                        let spmm = i % SPMM_EVERY == SPMM_EVERY - 1;
                        let req0 = Instant::now();
                        let ticket = loop {
                            let sub = if spmm {
                                svc.submit_spmm(tenant, a, block_operand(a.num_cols, m), None)
                            } else {
                                svc.submit_spmv(tenant, a, operand(a.num_cols, m, slot), None)
                            };
                            match sub {
                                Ok(t) => break t,
                                // Quota full: drain and retry (closed loop
                                // self-pacing under shared shards).
                                Err(EngineError::Overloaded { .. }) => {
                                    svc.flush();
                                }
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        };
                        let out = loop {
                            svc.flush();
                            match svc.take_result(ticket) {
                                Ok(o) => break o,
                                Err(EngineError::NotReady(_)) => continue,
                                Err(e) => panic!("unexpected redemption error: {e}"),
                            }
                        };
                        lats.push(req0.elapsed().as_nanos() as u64);
                        let ok = if spmm {
                            bits_of(&out.into_block().data) == want_blk[m]
                        } else {
                            bits_of(&out.into_vector()) == want_vec[m][slot]
                        };
                        if !ok {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    latencies.sort_unstable();

    let stats = svc.stats();
    let agg = stats.aggregate();
    let per_tenant: Vec<TenantRow> = agg
        .tenants
        .iter()
        .map(|(t, c)| TenantRow {
            tenant: t.0,
            requests: c.requests,
            hits: c.hits,
            overloads: c.overloads,
            deadline_misses: c.deadline_misses,
            hit_rate: c.hit_rate(),
        })
        .collect();
    let repeat_tenant_hit_rate = agg.tenants.get(TenantId(0)).hit_rate();
    let total = latencies.len();
    ClosedLoopReport {
        requests: total,
        workers,
        shards: opts.shards,
        tenants: workers,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_rps: total as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        p999_us: percentile_us(&latencies, 99.9),
        bitwise_checked: total,
        bitwise_mismatches: mismatches.load(Ordering::Relaxed),
        repeat_tenant_hit_rate,
        cache_hit_rate: agg.cache_hit_rate(),
        per_tenant,
    }
}

// ---- fairness under overload -------------------------------------------

/// Open-loop overload: three tenants (weights 3:1:1) keep their injector
/// backlogs topped up while a bounded drain budget admits ~half the
/// offered rate; completed shares must track weights.
pub fn run_fairness(device: &Device, opts: &LoadOptions) -> FairnessReport {
    let tenants: [(TenantId, u32); 3] = [(TenantId(1), 3), (TenantId(2), 1), (TenantId(3), 1)];
    let quota = 128usize;
    let budget = 64usize;
    let mut builder = ServiceConfig::builder().shards(1).drain_budget(budget);
    for &(t, w) in &tenants {
        builder = builder.tenant(t, TenantSpec::new(w, quota));
    }
    let svc = Service::with_config(device, builder.build().expect("valid service config"));

    let mats: Vec<Arc<CsrMatrix>> = (0..tenants.len())
        .map(|m| {
            Arc::new(gen::random_uniform(
                opts.n,
                opts.n,
                5.0,
                2.0,
                7000 + m as u64,
            ))
        })
        .collect();
    let mut outstanding: Vec<Vec<mps_engine::ServiceTicket>> = vec![Vec::new(); tenants.len()];
    let mut completed = vec![0u64; tenants.len()];
    let mut quota_overloads = 0u64;
    let mut overload_attribution_ok = true;

    for round in 0..opts.fairness_rounds {
        // Offered load: every tenant tops its backlog to quota, plus a
        // deliberate over-quota burst so rejections (with attribution)
        // are part of every round.
        for (ti, &(t, _)) in tenants.iter().enumerate() {
            let mut slot = round * quota;
            loop {
                match svc.submit_spmv(t, &mats[ti], operand(opts.n, ti, slot % SLOTS), None) {
                    Ok(ticket) => outstanding[ti].push(ticket),
                    Err(e @ EngineError::Overloaded { .. }) => {
                        quota_overloads += 1;
                        overload_attribution_ok &= e.tenant() == Some(t);
                        break;
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
                slot += 1;
            }
        }
        svc.flush();
        for (ti, tickets) in outstanding.iter_mut().enumerate() {
            tickets.retain(|&ticket| match svc.take_result(ticket) {
                Ok(_) => {
                    completed[ti] += 1;
                    false
                }
                Err(EngineError::NotReady(_)) => true,
                Err(e) => panic!("unexpected redemption error: {e}"),
            });
        }
    }

    let total: u64 = completed.iter().sum();
    let weight_sum: u32 = tenants.iter().map(|&(_, w)| w).sum();
    let mut max_deviation: f64 = 1.0;
    let per_tenant: Vec<FairnessRow> = tenants
        .iter()
        .enumerate()
        .map(|(ti, &(t, w))| {
            let share = completed[ti] as f64 / total.max(1) as f64;
            let expected = w as f64 / weight_sum as f64;
            let deviation = share / expected;
            max_deviation = max_deviation.max(deviation.max(1.0 / deviation.max(1e-12)));
            FairnessRow {
                tenant: t.0,
                weight: w,
                completed: completed[ti],
                share,
                expected_share: expected,
                deviation,
            }
        })
        .collect();

    // Deadline storm: chaos forces every deadline-carrying request to
    // expire at the engine; each expiry must name its tenant.
    let storm_cfg = ServiceConfig::builder()
        .shards(1)
        .engine(
            EngineConfig::builder()
                .chaos(ChaosConfig {
                    seed: 99,
                    deadline_expiry_p: 1.0,
                    ..ChaosConfig::default()
                })
                .build()
                .expect("valid engine config"),
        )
        .build()
        .expect("valid service config");
    let storm = Service::with_config(device, storm_cfg);
    let mut storm_deadline_misses = 0u64;
    let mut storm_attribution_ok = true;
    for (ti, &(t, _)) in tenants.iter().enumerate() {
        let tickets: Vec<_> = (0..8)
            .map(|s| {
                storm
                    .submit_spmv(
                        t,
                        &mats[ti],
                        operand(opts.n, ti, s % SLOTS),
                        Some(Duration::from_secs(3600)),
                    )
                    .expect("admitted")
            })
            .collect();
        storm.flush();
        for ticket in tickets {
            match storm.take_result(ticket) {
                Err(e @ EngineError::DeadlineExceeded { .. }) => {
                    storm_deadline_misses += 1;
                    storm_attribution_ok &= e.tenant() == Some(t);
                }
                other => panic!("storm request should expire, got {other:?}"),
            }
        }
    }

    FairnessReport {
        drain_budget: budget,
        rounds: opts.fairness_rounds,
        completed_total: total,
        per_tenant,
        max_deviation,
        quota_overloads,
        overload_attribution_ok,
        storm_deadline_misses,
        storm_attribution_ok,
    }
}

// ---- shard scaling ------------------------------------------------------

/// Serve the same repeated-pattern workload at each shard count and
/// report the simulated-time makespan (max per-shard exec ms).
pub fn run_scaling(device: &Device, opts: &LoadOptions) -> Vec<ScalingRow> {
    let patterns = 32usize;
    let mats: Vec<Arc<CsrMatrix>> = (0..patterns)
        .map(|m| {
            Arc::new(gen::random_uniform(
                opts.n,
                opts.n,
                6.0,
                2.0,
                5000 + m as u64,
            ))
        })
        .collect();

    let mut rows: Vec<ScalingRow> = Vec::new();
    for &shards in &opts.scaling_shards {
        let svc = Service::with_config(
            device,
            ServiceConfig::builder()
                .shards(shards)
                .default_tenant(TenantSpec::new(1, patterns + 1))
                .build()
                .expect("valid service config"),
        );
        let wave = |slot: usize| {
            let tickets: Vec<_> = mats
                .iter()
                .enumerate()
                .map(|(m, a)| {
                    svc.submit_spmv(TenantId(0), a, operand(opts.n, m, slot % SLOTS), None)
                        .expect("admitted")
                })
                .collect();
            svc.flush();
            for t in tickets {
                svc.take_result(t).expect("completed");
            }
        };
        wave(0); // warm: build every plan
        svc.reset_stats();
        for r in 0..opts.scaling_rounds {
            wave(r + 1);
        }
        let stats = svc.stats();
        let makespan = stats
            .shards
            .iter()
            .map(|s| s.exec_sim_ms)
            .fold(0.0f64, f64::max);
        let total: f64 = stats.shards.iter().map(|s| s.exec_sim_ms).sum();
        rows.push(ScalingRow {
            shards,
            makespan_sim_ms: makespan,
            total_sim_ms: total,
            gain: 0.0,
        });
    }
    let base = rows.first().map(|r| r.makespan_sim_ms).unwrap_or(0.0);
    for r in &mut rows {
        r.gain = if r.makespan_sim_ms > 0.0 {
            base / r.makespan_sim_ms
        } else {
            0.0
        };
    }
    rows
}

/// Run all three scenarios.
pub fn run(device: &Device, opts: &LoadOptions) -> LoadReport {
    LoadReport {
        mode: opts.mode.to_string(),
        closed: run_closed_loop(device, opts),
        fairness: run_fairness(device, opts),
        scaling: run_scaling(device, opts),
    }
}

// ---- reporting ----------------------------------------------------------

/// Run all three scenarios on a pool of [`crate::default_pool_threads`],
/// print the summary tables, and return the report.
pub fn report(tiny: bool) -> Report {
    crate::default_pool_threads();
    let opts = if tiny {
        LoadOptions::tiny()
    } else {
        LoadOptions::full()
    };
    let r = run(&Device::titan(), &opts);
    print!("{}", render(&r));
    to_report(&r, tiny)
}

fn to_report(l: &LoadReport, tiny: bool) -> Report {
    Report::new("load", tiny)
        .with_table(
            "closed_loop",
            std::slice::from_ref(&l.closed),
            &[
                ("requests", "count", |c| c.requests.into()),
                ("workers", "count", |c| c.workers.into()),
                ("shards", "count", |c| c.shards.into()),
                ("tenants", "count", |c| c.tenants.into()),
                ("elapsed_ms", "ms", |c| c.elapsed_ms.into()),
                ("throughput_rps", "req/s", |c| c.throughput_rps.into()),
                ("p50_us", "us", |c| c.p50_us.into()),
                ("p99_us", "us", |c| c.p99_us.into()),
                ("p999_us", "us", |c| c.p999_us.into()),
                ("bitwise_checked", "count", |c| c.bitwise_checked.into()),
                ("bitwise_mismatches", "count", |c| {
                    c.bitwise_mismatches.into()
                }),
                ("repeat_tenant_hit_rate", "ratio", |c| {
                    c.repeat_tenant_hit_rate.into()
                }),
                ("cache_hit_rate", "ratio", |c| c.cache_hit_rate.into()),
            ],
        )
        .with_table(
            "closed_loop_tenants",
            &l.closed.per_tenant,
            &[
                ("tenant", "id", |t| t.tenant.into()),
                ("requests", "count", |t| t.requests.into()),
                ("hits", "count", |t| t.hits.into()),
                ("overloads", "count", |t| t.overloads.into()),
                ("deadline_misses", "count", |t| t.deadline_misses.into()),
                ("hit_rate", "ratio", |t| t.hit_rate.into()),
            ],
        )
        .with_table(
            "fairness",
            std::slice::from_ref(&l.fairness),
            &[
                ("drain_budget", "count", |f| f.drain_budget.into()),
                ("rounds", "count", |f| f.rounds.into()),
                ("completed_total", "count", |f| f.completed_total.into()),
                ("max_deviation", "ratio", |f| f.max_deviation.into()),
                ("quota_overloads", "count", |f| f.quota_overloads.into()),
                ("overload_attribution_ok", "bool", |f| {
                    f.overload_attribution_ok.into()
                }),
                ("storm_deadline_misses", "count", |f| {
                    f.storm_deadline_misses.into()
                }),
                ("storm_attribution_ok", "bool", |f| {
                    f.storm_attribution_ok.into()
                }),
            ],
        )
        .with_table(
            "fairness_tenants",
            &l.fairness.per_tenant,
            &[
                ("tenant", "id", |t| t.tenant.into()),
                ("weight", "count", |t| t.weight.into()),
                ("completed", "count", |t| t.completed.into()),
                ("share", "fraction", |t| t.share.into()),
                ("expected_share", "fraction", |t| t.expected_share.into()),
                ("deviation", "ratio", |t| t.deviation.into()),
            ],
        )
        .with_table(
            "scaling",
            &l.scaling,
            &[
                ("shards", "count", |s| s.shards.into()),
                ("makespan_sim_ms", "ms", |s| s.makespan_sim_ms.into()),
                ("total_sim_ms", "ms", |s| s.total_sim_ms.into()),
                ("gain", "x", |s| s.gain.into()),
            ],
        )
}

/// The closed loop is bitwise clean and all hits with ordered tails;
/// overload drains track weights and attribute every error; sharding
/// gains more than 1.5x from four shards up.
pub fn gates(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    g.each(
        &[r.row("closed_loop")],
        "",
        &[
            ("requests > 0 and throughput_rps > 0", |c| {
                c.num("requests") > 0.0 && c.num("throughput_rps") > 0.0
            }),
            ("p50_us <= p99_us <= p999_us", |c| {
                c.num("p50_us") <= c.num("p99_us") && c.num("p99_us") <= c.num("p999_us")
            }),
            ("bitwise_mismatches == 0", |c| {
                c.num("bitwise_mismatches") == 0.0
            }),
            ("bitwise_checked == requests", |c| {
                c.num("bitwise_checked") == c.num("requests")
            }),
            ("repeat_tenant_hit_rate == 1", |c| {
                c.num("repeat_tenant_hit_rate") == 1.0
            }),
        ],
    );
    g.each(
        &[r.row("fairness")],
        "",
        &[
            ("completed_total > 0", |f| f.num("completed_total") > 0.0),
            ("max_deviation < 1.5", |f| f.num("max_deviation") < 1.5),
            ("quota_overloads > 0 and overload_attribution_ok", |f| {
                f.num("quota_overloads") > 0.0 && f.flag("overload_attribution_ok")
            }),
            ("storm_deadline_misses > 0 and storm_attribution_ok", |f| {
                f.num("storm_deadline_misses") > 0.0 && f.flag("storm_attribution_ok")
            }),
        ],
    );
    let scaling = r.rows("scaling");
    g.check(
        scaling
            .first()
            .is_some_and(|s| s.num("shards") == 1.0 && (s.num("gain") - 1.0).abs() < 1e-9),
        "scaling starts at shards == 1 with |gain - 1| < 1e-9",
    );
    g.each(
        &scaling,
        "",
        &[("gain > 1.5 from 4 shards up", |s| {
            s.num("shards") < 4.0 || s.num("gain") > 1.5
        })],
    );
    g.failures()
}

/// Render the human-readable summary tables.
pub fn render(r: &LoadReport) -> String {
    let c = &r.closed;
    let mut out = format!(
        "closed loop ({} mode): {} requests, {} workers x {} shards\n\
           throughput {:.0} req/s · p50 {:.1} us · p99 {:.1} us · p999 {:.1} us\n\
           bitwise: {}/{} matched reference · repeat-tenant hit rate {:.3}\n",
        r.mode,
        c.requests,
        c.workers,
        c.shards,
        c.throughput_rps,
        c.p50_us,
        c.p99_us,
        c.p999_us,
        c.bitwise_checked - c.bitwise_mismatches,
        c.bitwise_checked,
        c.repeat_tenant_hit_rate,
    );
    let tenant_rows: Vec<Vec<String>> = c
        .per_tenant
        .iter()
        .map(|t| {
            vec![
                format!("tenant#{}", t.tenant),
                t.requests.to_string(),
                format!("{:.0}%", 100.0 * t.hit_rate),
                t.overloads.to_string(),
                t.deadline_misses.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &["tenant", "requests", "hit_rate", "overloads", "dl_miss"],
        &tenant_rows,
    ));

    let f = &r.fairness;
    out.push_str(&format!(
        "\nfairness under overload: budget {}/flush x {} rounds, {} completed, \
         {} quota rejections, max deviation {:.3}\n",
        f.drain_budget, f.rounds, f.completed_total, f.quota_overloads, f.max_deviation
    ));
    let fair_rows: Vec<Vec<String>> = f
        .per_tenant
        .iter()
        .map(|t| {
            vec![
                format!("tenant#{}", t.tenant),
                t.weight.to_string(),
                t.completed.to_string(),
                format!("{:.3}", t.share),
                format!("{:.3}", t.expected_share),
                format!("{:.3}", t.deviation),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &[
            "tenant",
            "weight",
            "completed",
            "share",
            "expected",
            "deviation",
        ],
        &fair_rows,
    ));

    out.push_str("\nshard scaling (simulated makespan):\n");
    let scale_rows: Vec<Vec<String>> = r
        .scaling
        .iter()
        .map(|s| {
            vec![
                s.shards.to_string(),
                format!("{:.3}", s.makespan_sim_ms),
                format!("{:.3}", s.total_sim_ms),
                format!("{:.2}x", s.gain),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &["shards", "makespan_sim_ms", "total_sim_ms", "gain"],
        &scale_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::titan()
    }

    fn micro() -> LoadOptions {
        LoadOptions {
            requests: 256,
            workers: 2,
            shards: 2,
            n: 64,
            fairness_rounds: 3,
            scaling_rounds: 1,
            scaling_shards: vec![1, 4],
            mode: "micro",
        }
    }

    #[test]
    fn closed_loop_is_bitwise_clean_and_steady_state_hits() {
        let c = run_closed_loop(&dev(), &micro());
        assert_eq!(c.bitwise_mismatches, 0);
        assert_eq!(c.bitwise_checked, c.requests);
        assert!(c.throughput_rps > 0.0);
        assert!(c.p50_us <= c.p99_us && c.p99_us <= c.p999_us);
        assert_eq!(
            c.repeat_tenant_hit_rate, 1.0,
            "warm-up must cover all plans"
        );
        assert_eq!(c.cache_hit_rate, 1.0, "no tenant should miss post warm-up");
    }

    #[test]
    fn fairness_tracks_weights_and_attributes_errors() {
        let f = run_fairness(&dev(), &micro());
        assert!(f.completed_total > 0);
        assert!(
            f.max_deviation < 1.3,
            "shares {:?} strayed from weights",
            f.per_tenant
        );
        assert!(f.quota_overloads > 0, "over-quota bursts must be rejected");
        assert!(f.overload_attribution_ok);
        assert_eq!(f.storm_deadline_misses, 24);
        assert!(f.storm_attribution_ok);
    }

    #[test]
    fn scaling_gains_exceed_threshold_at_4_shards() {
        let rows = run_scaling(&dev(), &micro());
        assert!((rows[0].gain - 1.0).abs() < 1e-9);
        for r in &rows {
            // Work conservation: sharding moves work, it never adds or
            // loses any.
            assert!(
                (r.total_sim_ms - rows[0].total_sim_ms).abs() / rows[0].total_sim_ms < 1e-9,
                "shards={} total {} vs base {}",
                r.shards,
                r.total_sim_ms,
                rows[0].total_sim_ms
            );
            if r.shards >= 4 {
                assert!(r.gain > 1.5, "shards={} gain {}", r.shards, r.gain);
            }
        }
    }

    #[test]
    fn gates_name_a_fairness_deviation_of_1_5() {
        let mut r = to_report(&run(&dev(), &micro()), true);
        assert_eq!(gates(&r), Vec::<String>::new());
        *r.cell_mut("fairness", 0, "max_deviation").expect("cell") = 1.5.into();
        assert_eq!(gates(&r), ["max_deviation < 1.5"]);
    }
}
