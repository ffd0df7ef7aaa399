//! serve-churn: writes beside reads on the same engine.
//!
//! Eight Table II stand-ins are registered with `Service::register`, one
//! tenant each, each with a small fixed right operand for SpGEMM. Each op
//! picks a handle and, by seeded shares, swaps its values
//! (`submit_update`), applies a small pattern delta below the replan
//! threshold (`submit_delta`), or leaves it; then submits one SpMV, or an
//! SpGEMM for a share of ops, flushes it alone and redeems it. Nothing
//! coalesces, and fingerprinting, plan builds, delta unions, SpGEMM
//! symbolic builds versus numeric replays, and LRU eviction all work: a
//! change that makes plans costlier to build so they run faster gains on
//! serve-hot and loses here.

use std::sync::Arc;
use std::time::Instant;

use mps_core::{
    apply_delta, apply_delta_reference, merge_spgemm, CsrDelta, SpAddConfig, SpgemmConfig,
    SpgemmPlan, SpmvConfig, SpmvPlan, Workspace,
};
use mps_engine::{
    EngineError, EngineOutput, EngineStats, MatrixHandle, Service, ServiceTicket, TenantId,
};
use mps_simt::Device;
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::{CooMatrix, CsrMatrix};

use crate::report::{Measured, Metrics};
use crate::rng::{Digest, Rng};
use crate::serve_hot::{service_config, traversal_bytes, ServingTally};
use crate::trace::Tracer;
use crate::{Workload, REPLAY_OPS};

/// The registered stand-ins (2% scale, 20k–87k nonzeros each).
pub const MATRICES: [SuiteMatrix; 8] = [
    SuiteMatrix::Protein,
    SuiteMatrix::Cantilever,
    SuiteMatrix::Harbor,
    SuiteMatrix::Qcd,
    SuiteMatrix::Economics,
    SuiteMatrix::Epidemiology,
    SuiteMatrix::Accelerator,
    SuiteMatrix::Circuit,
];
pub const SCALE: f64 = 0.02;
/// Seeded shares of ops that first swap values / apply a delta.
pub const UPDATE_SHARE: f64 = 0.5;
pub const DELTA_SHARE: f64 = 0.1;
/// Share of ops whose read is an SpGEMM rather than an SpMV.
pub const SPGEMM_SHARE: f64 = 0.1;
/// Ops in the schedule; a run cycles through it.
pub const OPS: usize = 8192;
/// Ops replayed by set-up to reach steady state.
const WARMUP_OPS: usize = 256;
/// Columns of each SpGEMM right operand (one nonzero per row).
const B_COLS: usize = 32;
const VEC_SLOTS: usize = 4;
const SETUP_REPS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    None,
    Update,
    Delta,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub handle: usize,
    pub mutation: Mutation,
    pub spgemm: bool,
    pub slot: usize,
    /// Seeds the op's new values or delta entries.
    pub salt: u64,
}

/// The op sequence of a seed.
pub fn schedule(seed: u64) -> Vec<Op> {
    let mut rng = Rng::fork(seed, 3);
    (0..OPS)
        .map(|_| {
            let handle = rng.below(MATRICES.len());
            let u = rng.unit();
            let mutation = if u < UPDATE_SHARE {
                Mutation::Update
            } else if u < UPDATE_SHARE + DELTA_SHARE {
                Mutation::Delta
            } else {
                Mutation::None
            };
            Op {
                handle,
                mutation,
                spgemm: rng.chance(SPGEMM_SHARE),
                slot: rng.below(VEC_SLOTS),
                salt: rng.next_u64(),
            }
        })
        .collect()
}

pub fn digest(ops: &[Op]) -> u64 {
    let mut d = Digest::default();
    for op in ops {
        d.word(op.handle as u64);
        d.word(op.mutation as u64);
        d.word(u64::from(op.spgemm));
        d.word(op.slot as u64);
        d.word(op.salt);
    }
    d.finish()
}

/// A delta of four entries, far below the engine's replan threshold: two
/// upserts at seeded coordinates (almost always inserts, so the pattern
/// changes), one value edit and one removal of existing entries.
pub fn make_delta(a: &CsrMatrix, salt: u64) -> CsrDelta {
    let mut rng = Rng::new(salt);
    let mut d = CsrDelta::new();
    for _ in 0..2 {
        let (r, c) = (rng.below(a.num_rows), rng.below(a.num_cols));
        d.upsert(r as u32, c as u32, 2.0 * rng.unit() - 1.0);
    }
    let coord = |k: usize| {
        let r = a.row_offsets.partition_point(|&o| o <= k) - 1;
        (r as u32, a.col_idx[k])
    };
    let (r, c) = coord(rng.below(a.nnz()));
    d.upsert(r, c, 2.0 * rng.unit() - 1.0);
    let (r, c) = coord(rng.below(a.nnz()));
    d.remove(r, c);
    d
}

fn same_bits(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.num_rows == b.num_rows
        && a.num_cols == b.num_cols
        && a.row_offsets == b.row_offsets
        && a.col_idx == b.col_idx
        && a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The fixed right operand of a stand-in: `rows × B_COLS`, one nonzero
/// per row.
fn right_operand(rows: usize, m: usize) -> CsrMatrix {
    let mut rng = Rng::fork(0xB0B, m as u64);
    let mut coo = CooMatrix::new(rows, B_COLS);
    for r in 0..rows {
        coo.push(r as u32, rng.below(B_COLS) as u32, 2.0 * rng.unit() - 1.0);
    }
    coo.to_csr()
}

pub struct ServeChurn {
    dev: Device,
    base: Vec<Arc<CsrMatrix>>,
    rights: Vec<Arc<CsrMatrix>>,
    xs: Vec<Vec<Vec<f64>>>,
    ops: Vec<Op>,
    svc: Option<Service>,
    handles: Vec<MatrixHandle>,
    next: usize,
    /// Ops run in the current phase.
    n: usize,
    first_phase: bool,
    setup_attempted: u64,
    setup_failed: u64,
    stats: EngineStats,
    replay: String,
    tally: ServingTally,
    ws: Workspace,
}

impl ServeChurn {
    pub fn new(seed: u64) -> ServeChurn {
        let base: Vec<Arc<CsrMatrix>> = MATRICES
            .iter()
            .map(|m| Arc::new(m.generate(SCALE)))
            .collect();
        let rights = base
            .iter()
            .enumerate()
            .map(|(m, a)| Arc::new(right_operand(a.num_cols, m)))
            .collect();
        let mut rng = Rng::fork(seed, 4);
        let xs = base
            .iter()
            .map(|a| {
                (0..VEC_SLOTS)
                    .map(|_| (0..a.num_cols).map(|_| 2.0 * rng.unit() - 1.0).collect())
                    .collect()
            })
            .collect();
        let ops = schedule(seed);
        let replay = format!("schedule_digest={:#018x}", digest(&ops));
        ServeChurn {
            dev: Device::titan(),
            base,
            rights,
            xs,
            ops,
            svc: None,
            handles: Vec::new(),
            next: 0,
            n: 0,
            first_phase: true,
            setup_attempted: 0,
            setup_failed: 0,
            stats: EngineStats::default(),
            replay,
            tally: ServingTally::default(),
            ws: Workspace::new(),
        }
    }

    /// One op: optional mutation, one submit, a flush, one redeem.
    /// Returns the timed interval (s), the latency from submit to redeem
    /// (µs), and whether the op succeeded and checked out.
    fn op(&mut self, tr: &mut Tracer, id: u64) -> (f64, f64, bool) {
        let op = self.ops[self.next % OPS];
        self.next += 1;
        let svc = self.svc.as_ref().expect("set up before running ops");
        let h = self.handles[op.handle];
        let tenant = TenantId(op.handle as u32);
        let b = &self.rights[op.handle];

        // The client's own work happens before the clock starts: new
        // values, delta entries, and the operand copy. Holding no snapshot
        // across the op lets `submit_update` swap values in place.
        type Prep = (Option<Vec<f64>>, Option<(CsrDelta, Arc<CsrMatrix>)>);
        let prep: Result<Prep, EngineError> = match op.mutation {
            Mutation::None => Ok((None, None)),
            Mutation::Update => svc.matrix(h).map(|cur| {
                let f = 0.5 + Rng::new(op.salt).unit();
                (Some(cur.values.iter().map(|v| v * f).collect()), None)
            }),
            Mutation::Delta => svc
                .matrix(h)
                .map(|cur| (None, Some((make_delta(&cur, op.salt), cur)))),
        };
        let Ok((mut values, delta)) = prep else {
            return (0.0, 0.0, false);
        };
        let x = (!op.spgemm).then(|| self.xs[op.handle][op.slot].clone());

        let root = tr.open("serve_churn.op", id, None);
        let t0 = Instant::now();
        let mut delta_outcome = None;
        let snapshot = if let Some(v) = values.take() {
            tr.span("service.mutate", id, root, || {
                svc.submit_update(tenant, h, v)
            })
        } else {
            if let Some((d, _)) = &delta {
                delta_outcome = Some(tr.span("service.mutate", id, root, || {
                    svc.submit_delta(tenant, h, d)
                }));
            }
            match &delta_outcome {
                Some(Err(e)) => Err(e.clone()),
                _ => tr.span("service.matrix", id, root, || svc.matrix(h)),
            }
        };
        let submit_start = Instant::now();
        let ticket: Result<(Arc<CsrMatrix>, ServiceTicket), EngineError> = snapshot.and_then(|a| {
            let t = tr.span("service.submit", id, root, || match x {
                Some(x) => svc.submit_spmv(tenant, &a, x, None),
                None => svc.submit_spgemm(tenant, &a, b, None),
            })?;
            Ok((a, t))
        });
        let submit_end = Instant::now();
        let flush_start = Instant::now();
        tr.span("service.flush", id, root, || svc.flush());
        let out = ticket.and_then(|(a, t)| {
            tr.span("service.redeem", id, root, || svc.take_result(t))
                .map(|o| (a, o))
        });
        let end = Instant::now();
        tr.close(root);
        let busy = (end - t0).as_secs_f64();
        let lat = (end - submit_start).as_secs_f64() * 1e6;

        if tr.on() {
            let wait = flush_start.saturating_duration_since(submit_end);
            self.tally.queue_wait_us.push(wait.as_secs_f64() * 1e6);
            self.tally.after_flush(svc, 1);
        }
        let ok = match out {
            Ok((a, out)) => {
                let mutation_ok = match &delta {
                    Some((d, before)) => {
                        let outcome = delta_outcome.and_then(Result::ok);
                        self.check_delta(tr, id, before, d, &a, outcome)
                    }
                    None => true,
                };
                mutation_ok && self.check_read(tr, id, op, &a, out)
            }
            Err(_) => false,
        };
        (busy, lat, ok)
    }

    /// The service's post-delta snapshot must equal the reference rebuild
    /// of the pre-delta one. Traced phases also time the core union and
    /// the fingerprint of a new pattern.
    fn check_delta(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        before: &CsrMatrix,
        d: &CsrDelta,
        after: &CsrMatrix,
        outcome: Option<mps_engine::DeltaOutcome>,
    ) -> bool {
        let Ok(want) = apply_delta_reference(before, d) else {
            return false;
        };
        if tr.on() {
            let applied = tr.span("core.delta_apply", id, None, || {
                apply_delta(&self.dev, before, d, &SpAddConfig::default())
            });
            if !applied.is_ok_and(|c| same_bits(&c.c, &want)) {
                return false;
            }
            if outcome.is_some_and(|o| o.pattern_changed) {
                tr.span("sparse.fingerprint", id, None, || {
                    std::hint::black_box(after.pattern_fingerprint())
                });
            }
        }
        same_bits(after, &want)
    }

    /// SpMV must match a fresh `SpmvPlan` on the same snapshot bitwise,
    /// SpGEMM must match `merge_spgemm`. The spans time the core calls
    /// that make these references.
    fn check_read(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        op: Op,
        a: &CsrMatrix,
        out: EngineOutput,
    ) -> bool {
        match (op.spgemm, out) {
            (false, EngineOutput::Vector(y)) => {
                let x = &self.xs[op.handle][op.slot];
                let plan = tr.span("core.spmv_build", id, None, || {
                    SpmvPlan::new(&self.dev, a, &SpmvConfig::default())
                });
                let mut want = Vec::new();
                let ws = &mut self.ws;
                tr.span("core.spmv_execute", id, None, || {
                    plan.execute_into(a, x, &mut want, ws)
                });
                if tr.on() {
                    self.tally.nnz += a.nnz() as f64;
                    self.tally.bytes += traversal_bytes(a, 1);
                }
                y.len() == want.len()
                    && y.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (true, EngineOutput::Matrix(c)) => {
                let b = &self.rights[op.handle];
                let want = if tr.on() {
                    let plan = tr.span("core.spgemm_symbolic", id, None, || {
                        SpgemmPlan::new(&self.dev, a, b, &SpgemmConfig::default())
                    });
                    let mut values = Vec::new();
                    tr.span("core.spgemm_numeric", id, None, || {
                        plan.execute_numeric(a, b, &mut values)
                    });
                    plan.execute(&self.dev, a, b).c
                } else {
                    merge_spgemm(&self.dev, a, b, &SpgemmConfig::default()).c
                };
                same_bits(&c, &want)
            }
            _ => false,
        }
    }
}

impl Workload for ServeChurn {
    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        self.svc = None;
        self.next = 0;
        let t = Instant::now();
        let svc = tr.span("service.new", 0, None, || {
            Service::with_config(&self.dev, service_config())
        });
        self.handles = self
            .base
            .iter()
            .enumerate()
            .map(|(i, a)| {
                tr.span("service.register", 0, None, || {
                    svc.register(TenantId(i as u32), a)
                })
            })
            .collect();
        self.svc = Some(svc);
        let mut program_s = t.elapsed().as_secs_f64();
        for i in 0..WARMUP_OPS {
            let (busy, _, ok) = self.op(tr, i as u64);
            program_s += busy;
            self.setup_attempted += 1;
            self.setup_failed += u64::from(!ok);
        }
        program_s
    }

    fn setup_reps(&self) -> usize {
        SETUP_REPS
    }

    fn begin(&mut self, _tr: &mut Tracer) {
        self.svc.as_ref().expect("set up").reset_stats();
        self.n = 0;
        self.tally = ServingTally::default();
    }

    fn step(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let (busy, lat, ok) = self.op(tr, self.n as u64);
        self.n += 1;
        m.op(lat, busy * 1e6, ok);
        if self.first_phase && self.n == REPLAY_OPS {
            let s = self.svc.as_ref().expect("set up").stats().aggregate();
            self.replay.push_str(&format!(
                " window_ops={} plan_hits={} plan_misses={} plan_evictions={} spgemm_symbolic_builds={} delta_applies={} delta_fallbacks={} value_updates={}",
                self.n,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.spgemm_symbolic_builds,
                s.delta_applies,
                s.delta_fallbacks,
                s.value_updates,
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
        self.tally.metrics(tr, m, &self.stats, self.n as f64, out);
    }

    fn replay(&self) -> String {
        self.replay.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_digest() {
        assert_eq!(digest(&schedule(5)), digest(&schedule(5)));
        assert_ne!(digest(&schedule(5)), digest(&schedule(6)));
    }

    #[test]
    fn op_mix_lands_in_its_bands() {
        for seed in [1, 2, 3] {
            let ops = schedule(seed);
            let share = |f: &dyn Fn(&Op) -> bool| {
                ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
            };
            let updates = share(&|o| o.mutation == Mutation::Update);
            let deltas = share(&|o| o.mutation == Mutation::Delta);
            let spgemm = share(&|o| o.spgemm);
            assert!((0.47..0.53).contains(&updates), "update share {updates}");
            assert!((0.08..0.12).contains(&deltas), "delta share {deltas}");
            assert!((0.08..0.12).contains(&spgemm), "SpGEMM share {spgemm}");
            for h in 0..MATRICES.len() {
                let mine = share(&|o| o.handle == h);
                assert!((0.10..0.15).contains(&mine), "handle {h} share {mine}");
            }
        }
    }

    #[test]
    fn deltas_stay_below_the_replan_threshold() {
        let a = SuiteMatrix::Circuit.generate(SCALE);
        let d = make_delta(&a, 42);
        let threshold = mps_engine::EngineConfig::default().delta_replan_threshold();
        assert!((d.len() as f64) < threshold * a.nnz() as f64);
        let after = apply_delta_reference(&a, &d).expect("in-bounds delta");
        assert_ne!(after.pattern_fingerprint(), a.pattern_fingerprint());
    }
}
