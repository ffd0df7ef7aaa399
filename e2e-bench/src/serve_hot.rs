//! serve-hot: batched serving of fixed patterns.
//!
//! The 14 Table II stand-ins, fixed values, seeded operands. Each round
//! submits [`W`] requests (matrix uniform, about one in eight a
//! [`SPMM_K`]-column SpMM), flushes once and redeems all of them. This is
//! the main serving path with repeating patterns and no mutation: batch
//! coalescing, plan lookups, and planned SpMV/SpMM on the paper's
//! irregular matrices. SpMM plans are keyed by batch width, so the varied
//! widths of coalesced groups keep some plan builds in steady state.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mps_core::{SpmmConfig, SpmmPlan, SpmvConfig, SpmvPlan, Workspace};
use mps_engine::{
    EngineConfig, EngineError, EngineOutput, EngineStats, Service, ServiceConfig, ServiceTicket,
    TenantId,
};
use mps_simt::{Device, Phase};
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::report::{phase_share_name, Measured, Metrics};
use crate::rng::{Digest, Rng};
use crate::stats::{percentile, ratio};
use crate::trace::Tracer;
use crate::{Workload, REPLAY_OPS};

/// Table II stand-ins at 2% of their dimensions (20k–232k nonzeros).
pub const SCALE: f64 = 0.02;
/// Requests per round (one flush each). With the default four shards,
/// about 2% of flush groups build a plan and about 17% of ops wait on a
/// round whose flush built one: the median sits in the hit mode and the
/// 99th percentile well inside the build mode.
pub const W: usize = 12;
/// Share of requests that are SpMM rather than SpMV.
pub const SPMM_SHARE: f64 = 1.0 / 8.0;
/// Columns of an SpMM request.
pub const SPMM_K: usize = 4;
/// Rounds in the schedule; a run cycles through it.
pub const ROUNDS: usize = 4096;
/// Rounds replayed by set-up to reach steady state.
const WARMUP_ROUNDS: usize = 256;
const VEC_SLOTS: usize = 4;
const BLOCK_SLOTS: usize = 2;
const SETUP_REPS: usize = 5;
const TENANT: TenantId = TenantId(0);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Spmv { m: usize, slot: usize },
    Spmm { m: usize, slot: usize },
}

impl Req {
    fn matrix(self) -> usize {
        match self {
            Req::Spmv { m, .. } | Req::Spmm { m, .. } => m,
        }
    }

    fn cols(self) -> usize {
        match self {
            Req::Spmv { .. } => 1,
            Req::Spmm { .. } => SPMM_K,
        }
    }
}

pub type Round = [Req; W];

/// The op sequence of a seed.
pub fn schedule(seed: u64) -> Vec<Round> {
    let mut rng = Rng::fork(seed, 1);
    let n = SuiteMatrix::ALL.len();
    (0..ROUNDS)
        .map(|_| {
            std::array::from_fn(|_| {
                let m = rng.below(n);
                if rng.chance(SPMM_SHARE) {
                    Req::Spmm {
                        m,
                        slot: rng.below(BLOCK_SLOTS),
                    }
                } else {
                    Req::Spmv {
                        m,
                        slot: rng.below(VEC_SLOTS),
                    }
                }
            })
        })
        .collect()
}

pub fn digest(rounds: &[Round]) -> u64 {
    let mut d = Digest::default();
    for r in rounds.iter().flatten() {
        let (kind, m, slot) = match *r {
            Req::Spmv { m, slot } => (1, m, slot),
            Req::Spmm { m, slot } => (2, m, slot),
        };
        d.word(kind);
        d.word(m as u64);
        d.word(slot as u64);
    }
    d.finish()
}

/// The Service's default config, except the unbounded result TTL a
/// closed loop needs (results are redeemed only after the whole round).
pub fn service_config() -> ServiceConfig {
    ServiceConfig::builder()
        .engine(
            EngineConfig::builder()
                .result_ttl_flushes(u64::MAX)
                .build()
                .expect("valid engine config"),
        )
        .build()
        .expect("valid service config")
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn seeded_vec(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect()
}

/// Computed bytes one traversal of `a` moves for `k` columns: the CSR
/// arrays once, the operand and result blocks once each.
pub fn traversal_bytes(a: &CsrMatrix, k: usize) -> f64 {
    let csr = (a.num_rows + 1) * std::mem::size_of::<usize>() + a.nnz() * (4 + 8);
    (csr + 8 * k * (a.num_cols + a.num_rows)) as f64
}

struct Inputs {
    mats: Vec<Arc<CsrMatrix>>,
    vecs: Vec<Vec<Vec<f64>>>,
    blocks: Vec<Vec<DenseBlock>>,
    want_vec: Vec<Vec<Vec<u64>>>,
    want_blk: Vec<Vec<Vec<u64>>>,
}

impl Inputs {
    /// Matrices, seeded operands, and references from standalone plans.
    fn new(dev: &Device, seed: u64) -> Inputs {
        let mats: Vec<Arc<CsrMatrix>> = SuiteMatrix::ALL
            .iter()
            .map(|m| Arc::new(m.generate(SCALE)))
            .collect();
        let mut rng = Rng::fork(seed, 2);
        let vecs: Vec<Vec<Vec<f64>>> = mats
            .iter()
            .map(|a| {
                (0..VEC_SLOTS)
                    .map(|_| seeded_vec(&mut rng, a.num_cols))
                    .collect()
            })
            .collect();
        let blocks: Vec<Vec<DenseBlock>> = mats
            .iter()
            .map(|a| {
                (0..BLOCK_SLOTS)
                    .map(|_| DenseBlock::from_fn(a.num_cols, SPMM_K, |_, _| 2.0 * rng.unit() - 1.0))
                    .collect()
            })
            .collect();
        let mut ws = Workspace::new();
        let want_vec = mats
            .iter()
            .zip(&vecs)
            .map(|(a, xs)| {
                let plan = SpmvPlan::new(dev, a, &SpmvConfig::default());
                xs.iter()
                    .map(|x| {
                        let mut y = Vec::new();
                        plan.execute_into(a, x, &mut y, &mut ws);
                        bits(&y)
                    })
                    .collect()
            })
            .collect();
        let want_blk = mats
            .iter()
            .zip(&blocks)
            .map(|(a, xs)| {
                let plan = SpmmPlan::new(dev, a, SPMM_K, &SpmmConfig::default());
                xs.iter()
                    .map(|x| {
                        let mut y = DenseBlock::zeros(0, 0);
                        plan.execute_into(a, x, &mut y, &mut ws);
                        bits(&y.data)
                    })
                    .collect()
            })
            .collect();
        Inputs {
            mats,
            vecs,
            blocks,
            want_vec,
            want_blk,
        }
    }
}

/// A standalone plan with its warm output buffer, so the timed
/// execute is the allocation-free steady state the engine runs.
enum CorePlan {
    Spmv(SpmvPlan, Vec<f64>),
    Spmm(SpmmPlan, DenseBlock),
}

pub struct ServeHot {
    dev: Device,
    inp: Inputs,
    rounds: Vec<Round>,
    svc: Option<Service>,
    next: usize,
    /// Ops run in the current phase.
    ops: usize,
    first_phase: bool,
    setup_attempted: u64,
    setup_failed: u64,
    stats: EngineStats,
    replay: String,
    tally: ServingTally,
    /// Standalone plans the traced phase times the core kernels with.
    core_plans: BTreeMap<(usize, usize), CorePlan>,
    ws: Workspace,
}

impl ServeHot {
    pub fn new(seed: u64) -> ServeHot {
        let dev = Device::titan();
        let inp = Inputs::new(&dev, seed);
        let rounds = schedule(seed);
        let replay = format!("schedule_digest={:#018x}", digest(&rounds));
        ServeHot {
            dev,
            inp,
            rounds,
            svc: None,
            next: 0,
            ops: 0,
            first_phase: true,
            setup_attempted: 0,
            setup_failed: 0,
            stats: EngineStats::default(),
            replay,
            tally: ServingTally::default(),
            core_plans: BTreeMap::new(),
            ws: Workspace::new(),
        }
    }

    fn check(&self, r: Req, out: Result<EngineOutput, EngineError>) -> bool {
        match (r, out) {
            (Req::Spmv { m, slot }, Ok(EngineOutput::Vector(y))) => {
                bits(&y) == self.inp.want_vec[m][slot]
            }
            (Req::Spmm { m, slot }, Ok(EngineOutput::Block(y))) => {
                y.cols == SPMM_K && bits(&y.data) == self.inp.want_blk[m][slot]
            }
            _ => false,
        }
    }

    /// One round: W submits, one flush, W redeems. Returns the round's
    /// timed interval (µs) and each op's latency (µs) and check result.
    fn round(&mut self, tr: &mut Tracer, op0: u64) -> (f64, Vec<(f64, bool)>) {
        let round = self.rounds[self.next % ROUNDS];
        self.next += 1;
        let svc = self.svc.as_ref().expect("set up before running rounds");
        // The operands are the client's data: copied before the clock starts.
        let payloads: Vec<Result<Vec<f64>, DenseBlock>> = round
            .iter()
            .map(|r| match *r {
                Req::Spmv { m, slot } => Ok(self.inp.vecs[m][slot].clone()),
                Req::Spmm { m, slot } => Err(self.inp.blocks[m][slot].clone()),
            })
            .collect();
        let root = tr.open("serve_hot.round", op0, None);
        let t0 = Instant::now();
        let mut subs: Vec<(Result<ServiceTicket, EngineError>, Instant, Instant)> =
            Vec::with_capacity(W);
        for (i, (r, p)) in round.iter().zip(payloads).enumerate() {
            let a = &self.inp.mats[r.matrix()];
            let start = Instant::now();
            let t = tr.span("service.submit", op0 + i as u64, root, || match p {
                Ok(x) => svc.submit_spmv(TENANT, a, x, None),
                Err(x) => svc.submit_spmm(TENANT, a, x, None),
            });
            subs.push((t, start, Instant::now()));
        }
        let flush_start = Instant::now();
        tr.span("service.flush", op0, root, || svc.flush());
        let mut outs = Vec::with_capacity(W);
        for (i, (t, start, _)) in subs.iter().enumerate() {
            let out = match t {
                Ok(t) => tr.span("service.redeem", op0 + i as u64, root, || {
                    svc.take_result(*t)
                }),
                Err(e) => Err(e.clone()),
            };
            outs.push((out, start.elapsed()));
        }
        let busy = t0.elapsed().as_secs_f64() * 1e6;
        tr.close(root);

        let done: Vec<(f64, bool)> = round
            .iter()
            .zip(outs)
            .map(|(r, (out, l))| (l.as_secs_f64() * 1e6, self.check(*r, out)))
            .collect();
        if tr.on() {
            for (_, _, end) in &subs {
                let wait = flush_start.saturating_duration_since(*end);
                self.tally.queue_wait_us.push(wait.as_secs_f64() * 1e6);
            }
            self.tally
                .after_flush(self.svc.as_ref().expect("set up"), W);
            self.time_core(tr, op0, &round);
        }
        (busy, done)
    }

    /// Time the core kernels directly on the round's own operands, one
    /// call per group the engine ran: requests on one matrix coalesce in
    /// submission order up to the engine's column budget.
    fn time_core(&mut self, tr: &mut Tracer, op: u64, round: &Round) {
        let budget = EngineConfig::default().max_batch();
        let mut groups: Vec<(usize, Vec<Req>)> = Vec::new();
        for r in round {
            let open = groups.iter_mut().rev().find(|(m, _)| *m == r.matrix());
            match open {
                Some((_, g)) if g.iter().map(|q| q.cols()).sum::<usize>() + r.cols() <= budget => {
                    g.push(*r)
                }
                _ => groups.push((r.matrix(), vec![*r])),
            }
        }
        for (m, g) in groups {
            let a = &self.inp.mats[m];
            let k: usize = g.iter().map(|q| q.cols()).sum();
            let dev = &self.dev;
            let plan = self.core_plans.entry((m, k)).or_insert_with(|| {
                if k == 1 {
                    let p = tr.span("core.spmv_build", op, None, || {
                        SpmvPlan::new(dev, a, &SpmvConfig::default())
                    });
                    CorePlan::Spmv(p, Vec::new())
                } else {
                    let p = tr.span("core.spmm_build", op, None, || {
                        SpmmPlan::new(dev, a, k, &SpmmConfig::default())
                    });
                    CorePlan::Spmm(p, DenseBlock::zeros(0, 0))
                }
            });
            let ws = &mut self.ws;
            match plan {
                CorePlan::Spmv(p, y) => {
                    let slot = match g[0] {
                        Req::Spmv { slot, .. } => slot,
                        Req::Spmm { .. } => unreachable!("a one-column group is an SpMV"),
                    };
                    let x = &self.inp.vecs[m][slot];
                    tr.span("core.spmv_execute", op, None, || {
                        p.execute_into(a, x, y, ws)
                    });
                }
                CorePlan::Spmm(p, y) => {
                    let cols: Vec<(usize, usize)> = g
                        .iter()
                        .flat_map(|q| match *q {
                            Req::Spmv { slot, .. } => vec![(usize::MAX, slot)],
                            Req::Spmm { slot, .. } => (0..SPMM_K).map(|c| (c, slot)).collect(),
                        })
                        .collect();
                    let x = DenseBlock::from_fn(a.num_cols, k, |r, c| match cols[c] {
                        (usize::MAX, slot) => self.inp.vecs[m][slot][r],
                        (col, slot) => self.inp.blocks[m][slot].get(r, col),
                    });
                    tr.span("core.spmm_execute", op, None, || {
                        p.execute_into(a, &x, y, ws)
                    });
                }
            }
            self.tally.nnz += a.nnz() as f64;
            self.tally.bytes += traversal_bytes(a, k);
        }
    }
}

impl Workload for ServeHot {
    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        self.svc = None;
        self.next = 0;
        let t = Instant::now();
        self.svc = Some(tr.span("service.new", 0, None, || {
            Service::with_config(&self.dev, service_config())
        }));
        let mut program_s = t.elapsed().as_secs_f64();
        for i in 0..WARMUP_ROUNDS {
            let (busy, done) = self.round(tr, (i * W) as u64);
            program_s += busy / 1e6;
            self.setup_attempted += done.len() as u64;
            self.setup_failed += done.iter().filter(|(_, ok)| !ok).count() as u64;
        }
        program_s
    }

    fn setup_reps(&self) -> usize {
        SETUP_REPS
    }

    fn begin(&mut self, tr: &mut Tracer) {
        self.svc.as_ref().expect("set up").reset_stats();
        self.ops = 0;
        self.tally = ServingTally::default();
        self.core_plans.clear();
        if tr.on() {
            for a in &self.inp.mats {
                tr.span("sparse.fingerprint", 0, None, || {
                    std::hint::black_box(a.pattern_fingerprint())
                });
            }
        }
    }

    fn step(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let (busy, done) = self.round(tr, self.ops as u64);
        self.ops += done.len();
        for (lat, ok) in done {
            m.op(lat, busy / W as f64, ok);
        }
        if self.first_phase && self.ops >= REPLAY_OPS && self.ops - W < REPLAY_OPS {
            let s = self.svc.as_ref().expect("set up").stats().aggregate();
            self.replay.push_str(&format!(
                " window_ops={} plan_hits={} plan_misses={} plan_evictions={} traversals={} group_miss_share={:.4}",
                self.ops,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.batches,
                ratio(s.cache_misses as f64, (s.cache_hits + s.cache_misses) as f64),
            ));
        }
    }

    fn end(&mut self, m: &mut Measured) {
        self.stats = self.svc.as_ref().expect("set up").stats().aggregate();
        m.sim_ms += self.stats.exec_sim_ms + self.stats.plan_build_sim_ms;
        m.attempted += self.setup_attempted;
        m.failed += self.setup_failed;
        self.setup_attempted = 0;
        self.setup_failed = 0;
        self.first_phase = false;
    }

    fn layers(&self, tr: &Tracer, m: &Measured, _setup_s: f64, out: &mut Metrics) {
        self.tally.metrics(tr, m, &self.stats, self.ops as f64, out);
    }

    fn replay(&self) -> String {
        self.replay.clone()
    }
}

/// Per-layer accounting both serving workloads keep in a traced phase.
#[derive(Default)]
pub struct ServingTally {
    pub queue_wait_us: Vec<f64>,
    /// Nonzeros and computed bytes of the core executes timed directly.
    pub nnz: f64,
    pub bytes: f64,
    rebuild_ops: u64,
    misses_seen: u64,
}

impl ServingTally {
    /// Read the plan-cache counters after a flush: its `ops` ops waited on
    /// a plan build if the misses rose.
    pub fn after_flush(&mut self, svc: &Service, ops: usize) {
        let misses = svc.stats().aggregate().cache_misses;
        if misses > self.misses_seen {
            self.rebuild_ops += ops as u64;
        }
        self.misses_seen = misses;
    }

    /// The per-layer metrics both serving workloads read the same way:
    /// engine and simt counters from the phase's aggregated engine stats,
    /// core rates and the engine overhead estimate from the spans.
    pub fn metrics(&self, tr: &Tracer, m: &Measured, s: &EngineStats, ops: f64, out: &mut Metrics) {
        out.set(
            "service.queue_wait_us",
            percentile(&self.queue_wait_us, 0.5).unwrap_or(0.0),
        );
        out.set("service.failed", m.failed as f64);
        out.set("engine.plan_hit_ratio", s.cache_hit_rate());
        out.set("engine.plan_evictions", s.cache_evictions as f64);
        out.set("engine.requests_per_traversal", s.mean_batch_size());
        out.set("engine.pool_reuse_ratio", s.pool_reuse_rate());
        out.set(
            "engine.spgemm_symbolic_builds",
            s.spgemm_symbolic_builds as f64,
        );
        out.set("engine.spgemm_numeric_execs", s.spgemm_numeric_execs as f64);
        out.set("engine.delta_applies", s.delta_applies as f64);
        out.set("engine.delta_fallbacks", s.delta_fallbacks as f64);
        out.set("engine.value_updates", s.value_updates as f64);
        let exec_us = core_execute_us(tr);
        let core_us = exec_us + tr.total_us("core.spgemm_numeric");
        out.set(
            "engine.overhead_us_per_op",
            ratio(tr.total_us("service.flush") - core_us, ops),
        );
        out.set(
            "engine.rebuild_op_share",
            ratio(self.rebuild_ops as f64, ops),
        );
        out.set("core.nnz_per_s", ratio(self.nnz, exec_us / 1e6));
        out.set("core.bytes_per_op", ratio(self.bytes, ops));
        out.set("simt.exec_sim_us_per_op", ratio(s.exec_sim_ms * 1e3, ops));
        out.set(
            "simt.build_sim_us_per_op",
            ratio(s.plan_build_sim_ms * 1e3, ops),
        );
        out.set(
            "simt.dram_bytes_per_op",
            ratio(
                (s.totals.dram_read_bytes + s.totals.dram_write_bytes) as f64,
                ops,
            ),
        );
        let total = s.phases.total_ms();
        for p in Phase::ALL {
            out.set(&phase_share_name(p), ratio(s.phases.phase_ms(p), total));
        }
    }
}

/// Total µs of the directly timed SpMV and SpMM executes.
pub fn core_execute_us(tr: &Tracer) -> f64 {
    tr.total_us("core.spmv_execute") + tr.total_us("core.spmm_execute")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_digest() {
        assert_eq!(digest(&schedule(11)), digest(&schedule(11)));
        assert_ne!(digest(&schedule(11)), digest(&schedule(12)));
    }

    #[test]
    fn spmm_share_is_one_in_eight() {
        for seed in [1, 2, 3] {
            let reqs: Vec<Req> = schedule(seed).into_iter().flatten().collect();
            let spmm = reqs
                .iter()
                .filter(|r| matches!(r, Req::Spmm { .. }))
                .count();
            let share = spmm as f64 / reqs.len() as f64;
            assert!((0.115..0.135).contains(&share), "SpMM share {share}");
            // Every matrix is drawn: the working set is all 14 patterns.
            for m in 0..SuiteMatrix::ALL.len() {
                assert!(reqs.iter().any(|r| r.matrix() == m));
            }
        }
    }
}
