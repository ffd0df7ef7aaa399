//! # mps-engine — serving layer over the merge-path plan kernels
//!
//! The plan/execute split in [`mps_core`] makes every structure-dependent
//! phase a one-time cost, but each caller still owns its own plans and
//! workspaces and executes alone. This crate adds the layer a serving
//! system needs on top, reached through one entry point, the [`Service`]:
//!
//! * **Queue** — the [`Service`] admits requests per tenant (quotas,
//!   deadlines), routes each to the shard owning its matrix's
//!   [`CsrMatrix::pattern_fingerprint`], drains shards by weighted
//!   round-robin and stores every result for [`Service::take_result`].
//!   It is the only way to run work on an engine.
//! * **Plan cache** — each shard's engine keeps a bounded LRU of built
//!   `SpmvPlan`/`SpmmPlan`/`SpgemmPlan` instances keyed by pattern
//!   fingerprint (plus operand width for SpMM, and the right operand's
//!   fingerprint for SpGEMM), so repeated requests on one sparsity
//!   pattern never re-partition.
//! * **Workspace pool** — checked-out [`Workspace`] arenas, prewarmed to
//!   the pool's recorded high-water marks, keeping steady-state serving
//!   zero-alloc.
//! * **Batching** — a flush coalesces the SpMV *and* SpMM requests on one
//!   matrix (one `Arc` allocation, so same-pattern matrices with
//!   different values never share a traversal), up to
//!   [`EngineConfig::max_batch`] output columns at a time, into a single
//!   column-tiled [`SpmmPlan`] traversal; the result columns are split
//!   back to the submitters as typed [`EngineOutput`]s. Because the tiled
//!   SpMM computes each output column in exactly the SpMV reduction order
//!   (the per-column equivalence `tests/plan_equivalence.rs` pins), the
//!   batched results are **bitwise identical** to running every request
//!   alone through a freshly built [`SpmvPlan`].
//! * **Stats** — an [`EngineStats`] snapshot per shard covering cache hit
//!   rate, batch-size histogram, pool reuse, admission refusals and
//!   expiries, simt counters, and a per-phase ledger of everything the
//!   shard simulated.
//!
//! ```
//! use std::sync::Arc;
//! use mps_core::{SpmvConfig, SpmvPlan};
//! use mps_engine::{Service, ServiceConfig, TenantId};
//! use mps_simt::Device;
//! use mps_sparse::CsrMatrix;
//!
//! let device = Device::titan();
//! let a = Arc::new(CsrMatrix::identity(64));
//! let x = vec![1.0; 64];
//!
//! // Submissions to a (here one-shard) service coalesce into one SpMM
//! // traversal and redeem as typed outputs.
//! let cfg = ServiceConfig::builder().shards(1).build().unwrap();
//! let svc = Service::with_config(&device, cfg);
//! let t0 = svc.submit_spmv(TenantId(0), &a, x.clone(), None).unwrap();
//! let t1 = svc.submit_spmv(TenantId(0), &a, x.clone(), None).unwrap();
//! svc.flush();
//!
//! // Each result is bitwise what a freshly built plan computes alone.
//! let y = SpmvPlan::new(&device, &a, &SpmvConfig::default())
//!     .execute(&device, &a, &x)
//!     .y;
//! assert_eq!(svc.take_result(t0).unwrap().into_vector(), y);
//! assert_eq!(svc.take_result(t1).unwrap().into_vector(), y);
//! ```
//!
//! Configuration goes through a validating builder (the only
//! construction path — fields are private, so every config in the
//! program has passed validation):
//!
//! ```
//! use mps_engine::EngineConfig;
//!
//! let cfg = EngineConfig::builder()
//!     .plan_capacity(128)
//!     .result_ttl_flushes(64)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.plan_capacity(), 128);
//! assert!(EngineConfig::builder().plan_capacity(0).build().is_err());
//! ```
//!
//! The [`FormatAdvisor`] and [`AdvisedSpmvPlan`] pick and build an SpMV
//! storage format per pattern for callers that own their plans; no
//! served request reaches them.

pub mod advisor;
mod batch;
mod cache;
mod chaos;
mod config;
mod error;
mod fingerprint;
mod flush;
mod pool;
mod service;
mod stats;

pub use advisor::{AdvisedSpmvPlan, FormatAdvisor, FormatChoice, FormatDecision};
pub use chaos::{ChaosConfig, ChaosCounters};
pub use config::{EngineConfig, EngineConfigBuilder};
pub use error::{EngineError, TenantId};
pub use fingerprint::FingerprintCache;
pub use service::{
    Service, ServiceConfig, ServiceConfigBuilder, ServiceStats, ServiceTicket, TenantSpec,
};
pub use stats::{EngineStats, TenantCounters, TenantTable};

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mps_core::{
    apply_delta, apply_delta_reference, CsrDelta, DeltaApplied, SpAddConfig, SpgemmConfig,
    SpgemmPlan, SpmmConfig, SpmmPlan, SpmvConfig, SpmvPlan, Workspace,
};
use mps_simt::{Device, Phase};
use mps_sparse::{CsrMatrix, DenseBlock};

use batch::Request;
use cache::{CachedPlan, PlanCache, PlanKey};
use chaos::ChaosState;
use pool::WorkspacePool;

/// Typed result redeemed from a ticket: vector submissions
/// ([`Service::submit_spmv`]) resolve to `Vector`, block submissions
/// ([`Service::submit_spmm`]) to `Block` — regardless of how the flush
/// grouped them into traversals — and SpGEMM submissions
/// ([`Service::submit_spgemm`]) to `Matrix`.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOutput {
    Vector(Vec<f64>),
    Block(DenseBlock),
    Matrix(CsrMatrix),
}

impl EngineOutput {
    /// Unwrap a vector result.
    ///
    /// # Panics
    /// Panics if the output is a dense block or a sparse matrix.
    pub fn into_vector(self) -> Vec<f64> {
        match self {
            EngineOutput::Vector(v) => v,
            EngineOutput::Block(b) => panic!(
                "engine output is a {}-column dense block, not a vector",
                b.cols
            ),
            EngineOutput::Matrix(_) => panic!("engine output is a sparse matrix, not a vector"),
        }
    }

    /// Unwrap a dense-block result.
    ///
    /// # Panics
    /// Panics if the output is a vector or a sparse matrix.
    pub fn into_block(self) -> DenseBlock {
        match self {
            EngineOutput::Block(b) => b,
            EngineOutput::Vector(_) => panic!("engine output is a vector, not a dense block"),
            EngineOutput::Matrix(_) => {
                panic!("engine output is a sparse matrix, not a dense block")
            }
        }
    }

    /// Unwrap a sparse-matrix result ([`Service::submit_spgemm`]).
    ///
    /// # Panics
    /// Panics if the output is a vector or a dense block.
    pub fn into_matrix(self) -> CsrMatrix {
        match self {
            EngineOutput::Matrix(m) => m,
            EngineOutput::Vector(_) => panic!("engine output is a vector, not a sparse matrix"),
            EngineOutput::Block(_) => {
                panic!("engine output is a dense block, not a sparse matrix")
            }
        }
    }
}

/// Typed handle to a matrix registered with [`Service::register`].
/// Streaming callers mutate the registered matrix in place through
/// [`Service::submit_update`] / [`Service::submit_delta`] and keep
/// submitting by the current snapshot, so repeat rounds on a fixed
/// pattern are numeric-only: the pattern fingerprint — and with it every
/// cached plan — survives value mutation. Handles are scoped to the
/// service and the tenant that registered them; any other returns
/// [`EngineError::UnknownHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixHandle(u64);

impl MatrixHandle {
    /// The raw handle id (diagnostics; handles are service-scoped).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What [`Service::submit_delta`] did to the registered matrix. The
/// per-entry counts are tracked only on the union-patch path; a
/// fallback rebuild reports them as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Entries that created a new nonzero.
    pub inserted: usize,
    /// Entries that overwrote an existing nonzero's value.
    pub updated: usize,
    /// Entries that removed an existing nonzero.
    pub removed: usize,
    /// Whether the sparsity pattern changed (any insert or remove). A
    /// value-only delta keeps the pattern fingerprint, so every cached
    /// plan for the pattern stays valid; a pattern change moves the
    /// matrix to a new fingerprint and plans rebuild on next use.
    pub pattern_changed: bool,
    /// Whether the delta exceeded
    /// [`EngineConfig::delta_replan_threshold`] and was applied as a
    /// full COO rebuild instead of a balanced-path union patch.
    pub fallback: bool,
}

struct Inner {
    cache: PlanCache,
    pool: WorkspacePool,
    stats: EngineStats,
    /// Reusable operand/result blocks for batched flushes (capacity
    /// survives between batches). `scratch_x`/`scratch_x2` double-buffer
    /// the operand so a flush can assemble the next group's columns while
    /// the current group executes.
    scratch_x: DenseBlock,
    scratch_x2: DenseBlock,
    scratch_y: DenseBlock,
    /// Fault-decision stream for [`EngineConfig::chaos`].
    chaos: ChaosState,
}

impl Inner {
    fn checkout_ws(&mut self, chaos_cfg: &ChaosConfig) -> Workspace {
        if self.chaos.roll(chaos_cfg.pool_exhaust_p) {
            self.pool.exhaust();
            self.stats.chaos.pool_exhaustions += 1;
        }
        let before = self.pool.reuses;
        let ws = self.pool.checkout();
        self.stats.pool_checkouts += 1;
        if self.pool.reuses > before {
            self.stats.pool_reuses += 1;
        }
        ws
    }

    /// Chaos hook run before every plan-cache lookup: with probability
    /// [`ChaosConfig::cache_storm_p`], every cached plan is dropped and
    /// the lookup proceeds against an empty cache. Storm drops count as
    /// cache evictions (that is what callers observe).
    fn maybe_cache_storm(&mut self, chaos_cfg: &ChaosConfig) {
        if self.chaos.roll(chaos_cfg.cache_storm_p) {
            let dropped = self.cache.clear();
            self.stats.cache_evictions += dropped as u64;
            self.stats.chaos.cache_storms += 1;
        }
    }

    /// Chaos hook run once per deadline-carrying request as its flush
    /// group forms: with probability [`ChaosConfig::deadline_expiry_p`]
    /// it expires regardless of the clock, and is counted here.
    fn forced_expiry(&mut self, chaos_cfg: &ChaosConfig, r: &Request) -> bool {
        let forced = r.deadline.is_some() && self.chaos.roll(chaos_cfg.deadline_expiry_p);
        if forced {
            self.stats.chaos.forced_deadline_expiries += 1;
            self.stats.rejected_deadline += 1;
            self.stats.tenants.record_deadline_miss(r.tenant);
        }
        forced
    }
}

/// One [`Service`] shard's executor: its plan cache, workspace pool and
/// stats ledger. Shareable across threads (`&Engine` is `Sync`); all
/// mutable state sits behind one mutex, while kernel executions
/// themselves run outside it on `Arc`-shared plans. Every plan it builds
/// uses its kernel's default config.
pub(crate) struct Engine {
    device: Device,
    cfg: EngineConfig,
    /// Memoized fingerprints. Lives outside the engine mutex (it is
    /// internally synchronized); a [`Service`]'s shards all share the
    /// service's memo, which routes their requests and keys their
    /// SpGEMM right operands and deltas.
    fp: Arc<FingerprintCache>,
    inner: Mutex<Inner>,
}

impl Engine {
    /// A shard engine for `cfg`, which the owning [`Service`] has
    /// validated, memoizing fingerprints in the service's `fp`.
    pub(crate) fn for_shard(
        device: &Device,
        cfg: EngineConfig,
        fp: Arc<FingerprintCache>,
    ) -> Engine {
        Engine {
            device: device.clone(),
            fp,
            inner: Mutex::new(Inner {
                cache: PlanCache::new(cfg.plan_capacity),
                pool: WorkspacePool::new(),
                stats: EngineStats::default(),
                scratch_x: DenseBlock::zeros(0, 0),
                scratch_x2: DenseBlock::zeros(0, 0),
                scratch_y: DenseBlock::zeros(0, 0),
                chaos: ChaosState::new(cfg.chaos.seed),
            }),
            cfg,
        }
    }

    /// Snapshot of the accumulated serving telemetry.
    pub(crate) fn stats(&self) -> EngineStats {
        self.inner.lock().stats.clone()
    }

    /// Zero the telemetry (e.g. after a warm-up phase, so steady-state
    /// rates are not diluted by cold misses).
    pub(crate) fn reset_stats(&self) {
        self.inner.lock().stats = EngineStats::default();
    }

    /// Update the telemetry under the engine lock: a [`Service`] shard
    /// counts its injector's refusals, expiries, evictions and value
    /// swaps here, so each shard keeps one ledger.
    pub(crate) fn record(&self, f: impl FnOnce(&mut EngineStats)) {
        f(&mut self.inner.lock().stats)
    }

    /// Delta-apply a snapshot of a matrix registered with a [`Service`],
    /// charging this engine's stats: the union patch below
    /// [`EngineConfig::delta_replan_threshold`], a full rebuild above it.
    pub(crate) fn apply_delta_snapshot(
        &self,
        arc: &Arc<CsrMatrix>,
        delta: &CsrDelta,
    ) -> Result<(Arc<CsrMatrix>, DeltaOutcome), EngineError> {
        let limit = (self.cfg.delta_replan_threshold * arc.nnz() as f64).ceil() as usize;
        if delta.len() > limit {
            // Hash the rebuilt pattern once, into the memo, so the next
            // submit of it hits.
            let c = Arc::new(apply_delta_reference(arc, delta)?);
            let pattern_changed = self.fp.get(&c) != self.fp.get(arc);
            self.inner.lock().stats.delta_fallbacks += 1;
            return Ok((
                c,
                DeltaOutcome {
                    pattern_changed,
                    fallback: true,
                    ..DeltaOutcome::default()
                },
            ));
        }
        let applied = apply_delta(&self.device, arc, delta, &SpAddConfig::default())?;
        let mut inner = self.inner.lock();
        inner.stats.delta_applies += 1;
        charge_delta_apply(&mut inner.stats, &applied);
        drop(inner);
        let outcome = DeltaOutcome {
            inserted: applied.inserted,
            updated: applied.updated,
            removed: applied.removed,
            pattern_changed: applied.pattern_changed(),
            fallback: false,
        };
        let c = Arc::new(applied.c);
        if !outcome.pattern_changed {
            self.fp.carry(&c, self.fp.get(arc));
        }
        Ok((c, outcome))
    }
}

fn record_lookup(stats: &mut EngineStats, hit: bool, evicted: bool) {
    if hit {
        stats.cache_hits += 1;
    } else {
        stats.cache_misses += 1;
    }
    if evicted {
        stats.cache_evictions += 1;
    }
}

/// Accumulate one executed SpMV replay into totals and the phase ledger.
fn charge_spmv_exec(stats: &mut EngineStats, plan: &SpmvPlan) {
    let r = plan.reduction_stats();
    stats.totals.add(&r.totals);
    stats
        .phases
        .charge(Phase::Reduction, r.sim_ms, r.totals.dram_bytes());
}

/// Accumulate one executed SpMM replay into totals and the phase ledger,
/// charged to the SpMM tile-traversal phase.
fn charge_spmm_exec(stats: &mut EngineStats, plan: &SpmmPlan) {
    let r = plan.reduction_stats();
    stats.totals.add(&r.totals);
    stats
        .phases
        .charge(Phase::TileTraversal, r.sim_ms, r.totals.dram_bytes());
}

/// Charge one balanced-path delta apply ([`Service::submit_delta`]'s
/// union patch): the expand, then the balanced-path partition, count and
/// fill of the union with the delta's resolved entries.
fn charge_delta_apply(stats: &mut EngineStats, d: &DeltaApplied) {
    stats.exec_sim_ms += d.sim_ms();
    stats
        .phases
        .charge(Phase::Expand, d.expand.sim_ms, d.expand.totals.dram_bytes());
    stats.totals.add(&d.expand.totals);
    let u = &d.union;
    stats.phases.charge(
        Phase::Partition,
        u.partition.sim_ms,
        u.partition.totals.dram_bytes(),
    );
    stats
        .phases
        .charge(Phase::Count, u.count.sim_ms, u.count.totals.dram_bytes());
    stats
        .phases
        .charge(Phase::Fill, u.fill.sim_ms, u.fill.totals.dram_bytes());
    stats.totals.add(&u.partition.totals);
    stats.totals.add(&u.count.totals);
    stats.totals.add(&u.fill.totals);
}

/// Accumulate one executed SpGEMM numeric replay (a value-only pass over
/// a cached symbolic plan) into the split counters, totals, and ledger.
fn charge_spgemm_exec(stats: &mut EngineStats, plan: &SpgemmPlan, host: Duration) {
    let ms = plan.numeric_ms();
    stats.exec_sim_ms += ms;
    stats.spgemm_numeric_execs += 1;
    stats.spgemm_numeric_sim_ms += ms;
    stats.spgemm_numeric_host_ms += host.as_secs_f64() * 1e3;
    stats.totals.add(&plan.numeric_launch_stats().totals);
    stats.phases.merge(plan.numeric_ledger());
}

/// Generic plan-cache lookup under the engine lock: one cache-storm
/// draw, one recency-tracked lookup, and — on a miss — one call into
/// [`CachedPlan::charge_build`], which knows what every plan kind pays
/// at build time. The typed wrappers below only choose the key and the
/// build closure.
fn cached_plan_locked(
    cfg: &EngineConfig,
    inner: &mut Inner,
    key: PlanKey,
    build: impl FnOnce() -> CachedPlan,
) -> CachedPlan {
    inner.maybe_cache_storm(&cfg.chaos);
    let t0 = Instant::now();
    let l = inner.cache.get_or_insert_with(key, build);
    record_lookup(&mut inner.stats, l.hit, l.evicted);
    if !l.hit {
        l.plan.charge_build(&mut inner.stats, t0.elapsed());
    }
    l.plan
}

/// Cache lookup for an SpGEMM symbolic plan keyed on the pattern-
/// fingerprint pair. A miss builds the plan (host wall-clock timed) and
/// charges only the symbolic half — setup, block sort, global sort, CSR
/// assembly — to `plan_build_sim_ms` and the ledger; the numeric side is
/// charged per execution by [`charge_spgemm_exec`].
fn spgemm_plan_locked(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp_a: u64,
    fp_b: u64,
    a: &CsrMatrix,
    b: &CsrMatrix,
) -> Arc<SpgemmPlan> {
    cached_plan_locked(cfg, inner, PlanKey::Spgemm { a: fp_a, b: fp_b }, || {
        let plan = SpgemmPlan::new(device, a, b, &SpgemmConfig::default());
        CachedPlan::Spgemm(Arc::new(plan))
    })
    .expect_spgemm()
}

fn spmv_plan_locked(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp: u64,
    a: &CsrMatrix,
) -> Arc<SpmvPlan> {
    cached_plan_locked(cfg, inner, PlanKey::Spmv { pattern: fp }, || {
        CachedPlan::Spmv(Arc::new(SpmvPlan::new(device, a, &SpmvConfig::default())))
    })
    .expect_spmv()
}

fn spmm_plan_locked(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp: u64,
    a: &CsrMatrix,
    k: usize,
) -> Arc<SpmmPlan> {
    cached_plan_locked(cfg, inner, PlanKey::Spmm { pattern: fp, k }, || {
        let plan = SpmmPlan::new(device, a, k, &SpmmConfig::default());
        CachedPlan::Spmm(Arc::new(plan))
    })
    .expect_spmm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn device() -> Device {
        Device::titan()
    }

    fn matrix() -> Arc<CsrMatrix> {
        Arc::new(gen::random_uniform(300, 300, 9.0, 3.0, 7))
    }

    fn operand(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(seed).wrapping_add(11) % 1000) as f64 / 999.0 - 0.5)
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `a · x` through a freshly built plan: the bitwise reference for
    /// every served SpMV.
    fn fresh_spmv(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let dev = device();
        SpmvPlan::new(&dev, a, &SpmvConfig::default())
            .execute(&dev, a, x)
            .y
    }

    /// `a · x` for a dense block through a freshly built plan.
    fn fresh_spmm(a: &CsrMatrix, x: &DenseBlock) -> DenseBlock {
        let dev = device();
        SpmmPlan::new(&dev, a, x.cols, &SpmmConfig::default())
            .execute(&dev, a, x)
            .y
    }

    const T: TenantId = TenantId(0);

    /// A one-shard service whose engine is built from `cfg`.
    fn service(cfg: EngineConfig) -> Service {
        let cfg = ServiceConfig::builder()
            .shards(1)
            .engine(cfg)
            .build()
            .expect("valid config");
        Service::with_config(&device(), cfg)
    }

    /// Submit one SpMV alone, flush, and redeem it.
    fn serve_spmv(svc: &Service, a: &Arc<CsrMatrix>, x: &[f64]) -> Vec<f64> {
        let t = svc.submit_spmv(T, a, x.to_vec(), None).expect("admitted");
        svc.flush();
        svc.take_result(t).expect("completed").into_vector()
    }

    /// The shard's one ledger (a one-shard service's aggregate).
    fn stats(svc: &Service) -> EngineStats {
        svc.stats().aggregate()
    }

    #[test]
    fn served_spmv_hits_cache_on_repeat() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let x = operand(a.num_cols, 3);
        let y1 = serve_spmv(&svc, &a, &x);
        let y2 = serve_spmv(&svc, &a, &x);
        assert_eq!(bits(&y1), bits(&y2));
        let s = stats(&svc);
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.pool_checkouts, 2);
        assert_eq!(s.pool_reuses, 1);
        assert_eq!(s.requests, 2);
        assert!(s.exec_sim_ms > 0.0);
        assert!(s.plan_build_sim_ms > 0.0);
    }

    #[test]
    fn batched_results_are_bitwise_equal_to_sequential() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let sequential: Vec<Vec<f64>> = (0..5)
            .map(|s| fresh_spmv(&a, &operand(a.num_cols, s)))
            .collect();
        let tickets: Vec<ServiceTicket> = (0..5)
            .map(|s| {
                svc.submit_spmv(T, &a, operand(a.num_cols, s), None)
                    .expect("admitted")
            })
            .collect();
        assert_eq!(svc.pending_requests(), 5);
        assert_eq!(svc.flush(), 5);
        assert_eq!(svc.pending_requests(), 0);
        for (t, want) in tickets.into_iter().zip(&sequential) {
            let got = svc.take_result(t).expect("completed").into_vector();
            assert_eq!(bits(&got), bits(want));
        }
        let s = stats(&svc);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_requests, 5);
        assert!(s.totals.dram_wide_bytes > 0, "batched path is column-tiled");
    }

    #[test]
    fn oversized_waves_split_into_max_batch_groups() {
        let cfg = EngineConfig::builder()
            .max_batch(4)
            .build()
            .expect("valid config");
        let svc = service(cfg);
        let a = matrix();
        let tickets: Vec<ServiceTicket> = (0..9)
            .map(|s| {
                svc.submit_spmv(T, &a, operand(a.num_cols, s), None)
                    .expect("admitted")
            })
            .collect();
        assert_eq!(svc.flush(), 9);
        for t in tickets {
            svc.take_result(t).expect("completed");
        }
        let s = stats(&svc);
        assert_eq!(s.batches, 3);
        assert_eq!(s.batch_histogram, vec![0, 1, 0, 0, 2]); // 4 + 4 + 1
    }

    #[test]
    fn expired_deadline_resolves_to_typed_error() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let t_expired = svc
            .submit_spmv(T, &a, operand(a.num_cols, 1), Some(Duration::ZERO))
            .expect("admitted");
        let t_live = svc
            .submit_spmv(
                T,
                &a,
                operand(a.num_cols, 2),
                Some(Duration::from_secs(3600)),
            )
            .expect("admitted");
        assert_eq!(svc.flush(), 2);
        assert_eq!(
            svc.take_result(t_expired),
            Err(EngineError::DeadlineExceeded { tenant: Some(T) })
        );
        assert!(svc.take_result(t_live).is_ok());
        assert_eq!(stats(&svc).rejected_deadline, 1);
    }

    #[test]
    fn tickets_redeem_once_and_unknown_tickets_error() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let t = svc
            .submit_spmv(T, &a, operand(a.num_cols, 1), None)
            .expect("admitted");
        svc.flush();
        assert!(svc.take_result(t).is_ok());
        assert_eq!(svc.take_result(t), Err(EngineError::UnknownTicket(t.raw())));
    }

    #[test]
    fn same_pattern_different_values_never_share_a_batch() {
        // Reviewer repro: identity(4) and 2*identity(4) share a sparsity
        // pattern (and a cached plan) but must not share a queue, or the
        // second submission computes with the first matrix's values.
        let svc = service(EngineConfig::default());
        let a = Arc::new(CsrMatrix::identity(4));
        let mut doubled = CsrMatrix::identity(4);
        doubled.values = vec![2.0; 4];
        let b = Arc::new(doubled);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let ta = svc.submit_spmv(T, &a, x.clone(), None).expect("admitted");
        let tb = svc.submit_spmv(T, &b, x.clone(), None).expect("admitted");
        assert_eq!(svc.flush(), 2);
        assert_eq!(svc.take_result(ta).expect("a result").into_vector(), x);
        assert_eq!(
            svc.take_result(tb).expect("b result").into_vector(),
            vec![2.0, 4.0, 6.0, 8.0]
        );
        // Distinct queues → two single-request batches, one shared plan.
        let s = stats(&svc);
        assert_eq!(s.batches, 2);
        assert_eq!((s.cache_misses, s.cache_hits), (1, 1));
    }

    #[test]
    fn pending_ticket_is_not_ready_until_flushed() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let t = svc
            .submit_spmv(T, &a, operand(a.num_cols, 1), None)
            .expect("admitted");
        assert_eq!(svc.take_result(t), Err(EngineError::NotReady(t.raw())));
        svc.flush();
        assert!(svc.take_result(t).is_ok());
    }

    #[test]
    fn unclaimed_results_age_out_of_completion_store() {
        let cfg = EngineConfig::builder()
            .result_ttl_flushes(2)
            .build()
            .expect("valid config");
        let svc = service(cfg);
        let a = matrix();
        let t = svc
            .submit_spmv(T, &a, operand(a.num_cols, 1), None)
            .expect("admitted");
        assert_eq!(svc.flush(), 1);
        // The unclaimed result stays redeemable until `result_ttl_flushes`
        // further flushes have completed…
        svc.flush();
        assert_eq!(stats(&svc).results_evicted, 0);
        // …then ages out.
        svc.flush();
        assert_eq!(stats(&svc).results_evicted, 1);
        assert_eq!(svc.take_result(t), Err(EngineError::UnknownTicket(t.raw())));
    }

    #[test]
    fn fingerprint_memo_avoids_rehash_but_not_correctness() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(200, 300, 5.0, 2.0, 13));
        let ta = svc
            .submit_spmv(T, &a, operand(a.num_cols, 1), None)
            .expect("admitted");
        let tb = svc
            .submit_spmv(T, &b, operand(b.num_cols, 2), None)
            .expect("admitted");
        svc.flush();
        assert_eq!(
            svc.take_result(ta).expect("a result").into_vector().len(),
            a.num_rows
        );
        assert_eq!(
            svc.take_result(tb).expect("b result").into_vector().len(),
            b.num_rows
        );
        // Separate queues → separate single-request batches.
        assert_eq!(stats(&svc).batches, 2);
    }

    #[test]
    fn spmm_and_spgemm_share_the_cache() {
        let svc = service(EngineConfig::default());
        let a = Arc::new(gen::random_uniform(120, 120, 6.0, 2.0, 3));
        let b = Arc::new(gen::random_uniform(120, 120, 6.0, 2.0, 4));
        let x = DenseBlock::from_fn(120, 3, |r, c| (r * 3 + c) as f64);
        let mut blocks = Vec::new();
        let mut products = Vec::new();
        for _ in 0..2 {
            let tm = svc.submit_spmm(T, &a, x.clone(), None).expect("admitted");
            let tg = svc.submit_spgemm(T, &a, &b, None).expect("admitted");
            assert_eq!(svc.flush(), 2);
            blocks.push(svc.take_result(tm).expect("block").into_block());
            products.push(svc.take_result(tg).expect("matrix").into_matrix());
        }
        assert_eq!(blocks[0], blocks[1]);
        assert_eq!(products[0], products[1]);
        let s = stats(&svc);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.requests, 4);
    }

    #[test]
    fn builder_validates_and_builds() {
        let cfg = EngineConfig::builder()
            .plan_capacity(8)
            .max_batch(4)
            .result_ttl_flushes(7)
            .build()
            .expect("valid config");
        assert_eq!(cfg.plan_capacity(), 8);
        assert_eq!(cfg.max_batch(), 4);
        assert_eq!(cfg.result_ttl_flushes(), 7);

        for (built, what) in [
            (
                EngineConfig::builder().plan_capacity(0).build(),
                "plan_capacity",
            ),
            (EngineConfig::builder().max_batch(0).build(), "max_batch"),
            (
                EngineConfig::builder().result_ttl_flushes(0).build(),
                "result_ttl_flushes",
            ),
        ] {
            match built {
                Err(EngineError::InvalidConfig(msg)) => {
                    assert!(msg.contains(what), "{msg} should mention {what}")
                }
                other => panic!("expected InvalidConfig for {what}, got {other:?}"),
            }
        }
        // Service construction re-validates its engine template too
        // (defense in depth — the struct literal is only reachable inside
        // this crate).
        let cfg = ServiceConfig {
            engine: EngineConfig {
                max_batch: 0,
                ..EngineConfig::default()
            },
            ..ServiceConfig::default()
        };
        assert!(Service::try_with_config(&device(), cfg).is_err());
    }

    #[test]
    fn submit_spmm_coalesces_with_vectors_bitwise_identically() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let block =
            DenseBlock::from_fn(a.num_cols, 3, |r, c| operand(a.num_cols, 20 + c as u64)[r]);
        let xv = operand(a.num_cols, 5);
        let want_block = fresh_spmm(&a, &block);
        let want_vec = fresh_spmv(&a, &xv);
        let tb = svc
            .submit_spmm(T, &a, block.clone(), None)
            .expect("admitted");
        let tv = svc.submit_spmv(T, &a, xv.clone(), None).expect("admitted");
        assert_eq!(svc.flush(), 2);
        let got_block = svc.take_result(tb).expect("block result").into_block();
        let got_vec = svc.take_result(tv).expect("vector result").into_vector();
        assert_eq!(bits(&got_block.data), bits(&want_block.data));
        assert_eq!(bits(&got_vec), bits(&want_vec));
        // One coalesced traversal of 4 output columns, two requests.
        let s = stats(&svc);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_requests, 2);
    }

    #[test]
    fn column_budget_packs_blocks_and_vectors() {
        let cfg = EngineConfig::builder()
            .max_batch(4)
            .build()
            .expect("valid config");
        let svc = service(cfg);
        let a = matrix();
        let block = DenseBlock::from_fn(a.num_cols, 3, |r, _| r as f64 / 7.0);
        let t0 = svc.submit_spmm(T, &a, block, None).expect("admitted");
        let t1 = svc
            .submit_spmv(T, &a, operand(a.num_cols, 1), None)
            .expect("admitted");
        let t2 = svc
            .submit_spmv(T, &a, operand(a.num_cols, 2), None)
            .expect("admitted");
        assert_eq!(svc.flush(), 3);
        for t in [t0, t1, t2] {
            svc.take_result(t).expect("completed");
        }
        // Budget of 4 columns: [block(3) + vector(1)] then [vector(1)].
        let s = stats(&svc);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batch_histogram, vec![0, 1, 1]);
    }

    #[test]
    fn oversized_block_request_still_runs_alone() {
        let cfg = EngineConfig::builder()
            .max_batch(2)
            .build()
            .expect("valid config");
        let svc = service(cfg);
        let a = matrix();
        let block = DenseBlock::from_fn(a.num_cols, 5, |r, c| (r + c) as f64 / 11.0);
        let want = fresh_spmm(&a, &block);
        let t = svc.submit_spmm(T, &a, block, None).expect("admitted");
        assert_eq!(svc.flush(), 1);
        assert_eq!(svc.take_result(t).expect("completed").into_block(), want);
        assert_eq!(stats(&svc).batches, 1);
    }

    #[test]
    fn phase_ledger_reconciles_with_sim_time_totals() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(300, 300, 7.0, 2.0, 19));
        // A lone SpMV (the SpMV plan), a lone 2-column block (an SpMM
        // plan), then three coalesced SpMVs beside an SpGEMM.
        serve_spmv(&svc, &a, &operand(a.num_cols, 1));
        let blk = DenseBlock::from_fn(a.num_cols, 2, |r, _| r as f64);
        svc.submit_spmm(T, &a, blk, None).expect("admitted");
        svc.flush();
        for s in 0..3 {
            svc.submit_spmv(T, &a, operand(a.num_cols, s), None)
                .expect("admitted");
        }
        svc.submit_spgemm(T, &a, &b, None).expect("admitted");
        svc.flush();
        let s = stats(&svc);
        let ledger_ms = s.phases.total_ms();
        let sim_ms = s.plan_build_sim_ms + s.exec_sim_ms;
        assert!(
            (ledger_ms - sim_ms).abs() < 1e-9,
            "phase ledger {ledger_ms} vs sim totals {sim_ms}"
        );
        assert!(s.phases.phase_ms(Phase::Partition) > 0.0);
        assert!(s.phases.phase_ms(Phase::Reduction) > 0.0);
        assert!(s.phases.phase_ms(Phase::TileTraversal) > 0.0);
        // These ~20-product rows land in the mid (hash) bin, so the
        // numeric SpGEMM time shows up there rather than in the heavy
        // two-pass phases.
        assert!(s.phases.phase_ms(Phase::NumericMid) > 0.0);
        assert!(s.phases.phase_ms(Phase::Setup) > 0.0);
        assert!(s.render().contains("% of total"));
    }

    #[test]
    fn submit_spgemm_matches_a_fresh_plan_bitwise() {
        let dev = device();
        let svc = service(EngineConfig::default());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(300, 280, 6.0, 2.0, 23));
        let want = SpgemmPlan::new(&dev, &a, &b, &SpgemmConfig::default()).execute(&dev, &a, &b);
        for _ in 0..2 {
            let t = svc.submit_spgemm(T, &a, &b, None).expect("admitted");
            assert_eq!(svc.pending_requests(), 1);
            assert_eq!(svc.take_result(t), Err(EngineError::NotReady(t.raw())));
            assert_eq!(svc.flush(), 1);
            let got = svc.take_result(t).expect("completed").into_matrix();
            assert_eq!(got, want.c, "flushed SpGEMM must be bitwise identical");
        }
        let s = stats(&svc);
        assert_eq!(s.spgemm_symbolic_builds, 1, "one symbolic build shared");
        assert_eq!(s.spgemm_numeric_execs, 2);
        assert_eq!((s.cache_misses, s.cache_hits), (1, 1));
    }

    #[test]
    fn repeated_pattern_spgemm_reaches_full_cache_hit_rate() {
        // AMG-style serving loop: the pattern pair is fixed, the values
        // change every round. After warm-up the engine must serve every
        // round as a numeric-only replay — 100% symbolic-cache hit rate,
        // zero symbolic builds — and say so in the rendered stats.
        let svc = service(EngineConfig::default());
        let a0 = gen::random_uniform(200, 200, 6.0, 2.0, 31);
        let b0 = gen::random_uniform(200, 200, 5.0, 2.0, 32);
        let warm = svc
            .submit_spgemm(T, &Arc::new(a0.clone()), &Arc::new(b0.clone()), None)
            .expect("admitted");
        svc.flush();
        svc.take_result(warm).expect("warmed");
        svc.reset_stats();

        let rounds = 5;
        for round in 0..rounds {
            let mut a = a0.clone();
            for (i, v) in a.values.iter_mut().enumerate() {
                *v = 0.5 + ((i + round) % 9) as f64;
            }
            let (a, b) = (Arc::new(a), Arc::new(b0.clone()));
            let t = svc.submit_spgemm(T, &a, &b, None).expect("admitted");
            assert_eq!(svc.flush(), 1);
            let got = svc.take_result(t).expect("completed").into_matrix();
            let fresh = mps_core::merge_spgemm(&device(), &a, &b, &SpgemmConfig::default());
            assert_eq!(got, fresh.c, "replay must match a fresh one-shot");
        }

        let s = stats(&svc);
        assert_eq!(s.cache_misses, 0, "steady state never rebuilds");
        assert_eq!(s.cache_hits, rounds as u64);
        assert!((s.cache_hit_rate() - 1.0).abs() < 1e-15);
        assert_eq!(s.spgemm_symbolic_builds, 0);
        assert_eq!(s.spgemm_numeric_execs, rounds as u64);
        assert!(s.spgemm_numeric_sim_ms > 0.0);
        assert_eq!(s.spgemm_symbolic_sim_ms, 0.0);
        let r = s.render();
        assert!(r.contains("100.0% hit rate"), "{r}");
        assert!(r.contains("0 symbolic builds / 5 numeric execs"), "{r}");
    }

    #[test]
    fn spgemm_deadline_expires_to_typed_error() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let b = Arc::new(gen::random_uniform(300, 300, 5.0, 2.0, 37));
        let t_expired = svc
            .submit_spgemm(T, &a, &b, Some(Duration::ZERO))
            .expect("admitted");
        let t_live = svc
            .submit_spgemm(T, &a, &b, Some(Duration::from_secs(3600)))
            .expect("admitted");
        assert_eq!(svc.flush(), 2);
        assert_eq!(
            svc.take_result(t_expired),
            Err(EngineError::DeadlineExceeded { tenant: Some(T) })
        );
        assert!(svc.take_result(t_live).is_ok());
        assert_eq!(stats(&svc).rejected_deadline, 1);
    }

    #[test]
    fn tenant_tagged_submissions_populate_the_ledger() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let alice = TenantId(1);
        let bob = TenantId(2);
        // Two rounds for alice: the first misses the plan cache, the
        // second hits it.
        for seed in [1, 2] {
            let t = svc
                .submit_spmv(alice, &a, operand(a.num_cols, seed), None)
                .expect("admitted");
            svc.flush();
            svc.take_result(t).expect("completed");
        }
        // An expired deadline for bob carries his identity.
        let t = svc
            .submit_spmv(bob, &a, operand(a.num_cols, 3), Some(Duration::ZERO))
            .expect("admitted");
        svc.flush();
        let err = svc.take_result(t).expect_err("expired");
        assert_eq!(err, EngineError::DeadlineExceeded { tenant: Some(bob) });
        assert_eq!(err.tenant(), Some(bob));
        let s = stats(&svc);
        let ca = s.tenants.get(alice);
        assert_eq!((ca.requests, ca.hits), (2, 1));
        let cb = s.tenants.get(bob);
        assert_eq!((cb.requests, cb.deadline_misses), (0, 1));
        assert!(s.render().contains("tenant#1"), "{}", s.render());
    }

    #[test]
    fn value_update_reuses_cached_plans_and_matches_a_fresh_plan_bitwise() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let h = svc.register(T, &a);
        let x = operand(a.num_cols, 5);
        let y0 = serve_spmv(&svc, &a, &x);
        let misses = stats(&svc).cache_misses;
        let vals: Vec<f64> = (0..a.nnz())
            .map(|i| (i as f64).mul_add(0.25, -3.0))
            .collect();
        let snap = svc.submit_update(T, h, vals.clone()).expect("valid update");
        assert!(Arc::ptr_eq(&snap, &svc.matrix(h).expect("registered")));
        // Reference: a fresh plan of the mutated matrix.
        let mut fresh = (*a).clone();
        fresh.values = vals;
        let want = fresh_spmv(&fresh, &x);
        let got = serve_spmv(&svc, &snap, &x);
        assert_eq!(bits(&got), bits(&want), "numeric-only round must be exact");
        let s = stats(&svc);
        assert_eq!(s.cache_misses, misses, "value swap must not replan");
        assert_eq!(s.value_updates, 1);
        assert!(s.render().contains("1 value updates"), "{}", s.render());
        // The caller's pre-update snapshot still holds the old values.
        assert_eq!(bits(&serve_spmv(&svc, &a, &x)), bits(&y0));
    }

    #[test]
    fn rejected_mutations_leave_the_registered_matrix_untouched() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let h = svc.register(T, &a);
        let err = svc
            .submit_update(T, h, vec![1.0; 3])
            .expect_err("wrong length");
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
        assert!(err.to_string().contains("mutation rejected"), "{err}");
        assert!(Arc::ptr_eq(&svc.matrix(h).expect("still registered"), &a));
        let bogus = MatrixHandle(9999);
        assert_eq!(
            svc.submit_update(T, bogus, vec![])
                .expect_err("never issued"),
            EngineError::UnknownHandle(9999)
        );
        assert_eq!(
            svc.matrix(bogus).expect_err("never issued"),
            EngineError::UnknownHandle(9999)
        );
        let mut oob = CsrDelta::new();
        oob.upsert(a.num_rows as u32, 0, 1.0);
        let err = svc.submit_delta(T, h, &oob).expect_err("row out of bounds");
        assert!(matches!(err, EngineError::Plan(_)), "{err}");
        let s = stats(&svc);
        assert_eq!(s.value_updates, 0);
        assert_eq!(s.delta_applies, 0);
    }

    #[test]
    fn small_deltas_patch_and_large_deltas_fall_back_both_matching_reference() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let h = svc.register(T, &a);
        // Small delta: one insert at a guaranteed-empty spot is impossible
        // to know a priori, so upsert twice (one likely-new, one value
        // tweak on the first stored entry) and remove one existing entry.
        let (r0, c0) = {
            let r = (0..a.num_rows)
                .find(|&r| a.row_offsets[r + 1] > a.row_offsets[r])
                .expect("nonempty matrix");
            (r as u32, a.col_idx[a.row_offsets[r]])
        };
        let mut d = CsrDelta::new();
        d.upsert(0, 0, 2.5).remove(r0, c0);
        let out = svc.submit_delta(T, h, &d).expect("in bounds");
        assert!(!out.fallback);
        assert!(
            out.pattern_changed,
            "an insert or remove changes the pattern"
        );
        assert_eq!(out.removed, 1);
        let want = apply_delta_reference(&a, &d).expect("reference applies");
        let got = svc.matrix(h).expect("advanced");
        assert_eq!(*got, want, "patched matrix must equal the COO rebuild");
        assert_eq!(bits(&got.values), bits(&want.values));
        // Large delta: more than ceil(threshold * nnz) entries falls back.
        let threshold = svc.config().engine().delta_replan_threshold();
        let limit = (threshold * got.nnz() as f64).ceil() as usize;
        let mut big = CsrDelta::new();
        for i in 0..=limit as u32 {
            big.upsert(
                i % got.num_rows as u32,
                i / got.num_rows as u32,
                0.125 * i as f64,
            );
        }
        let want = apply_delta_reference(&got, &big).expect("reference applies");
        let out = svc.submit_delta(T, h, &big).expect("in bounds");
        assert!(out.fallback);
        let after = svc.matrix(h).expect("advanced");
        assert_eq!(*after, want);
        let s = stats(&svc);
        assert_eq!((s.delta_applies, s.delta_fallbacks), (1, 1));
        assert!(s.render().contains("1 deltas applied"), "{}", s.render());
    }

    #[test]
    fn value_only_delta_preserves_the_pattern_fingerprint() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let h = svc.register(T, &a);
        let (r0, c0) = (0u32, a.col_idx[a.row_offsets[0]]);
        let mut d = CsrDelta::new();
        d.upsert(r0, c0, 42.0);
        let out = svc.submit_delta(T, h, &d).expect("in bounds");
        assert!(!out.pattern_changed);
        assert_eq!((out.inserted, out.updated, out.removed), (0, 1, 0));
        let got = svc.matrix(h).expect("advanced");
        assert_eq!(got.pattern_fingerprint(), a.pattern_fingerprint());
        // Same fingerprint → the plan built pre-mutation keeps serving.
        serve_spmv(&svc, &a, &operand(a.num_cols, 1));
        let misses = stats(&svc).cache_misses;
        serve_spmv(&svc, &got, &operand(a.num_cols, 1));
        assert_eq!(stats(&svc).cache_misses, misses);
    }

    #[test]
    fn value_swaps_and_value_only_deltas_never_rehash() {
        let svc = service(EngineConfig::default());
        let a = matrix();
        let h = svc.register(T, &a);
        let (r0, c0) = (0u32, a.col_idx[a.row_offsets[0]]);
        drop(a);
        let check = |snap: &Arc<CsrMatrix>, seed: u64| {
            let x = operand(snap.num_cols, seed);
            assert_eq!(
                bits(&serve_spmv(&svc, snap, &x)),
                bits(&fresh_spmv(snap, &x))
            );
        };
        for round in 0..4u64 {
            let nnz = svc.matrix(h).expect("registered").nnz();
            let snap = svc
                .submit_update(T, h, operand(nnz, round + 2))
                .expect("same nnz");
            check(&snap, round);
        }
        let hashes = || svc.stats().fingerprint_hashes;
        assert_eq!(hashes(), 1, "one hash for the pattern, none per swap");
        let mut d = CsrDelta::new();
        d.upsert(r0, c0, 42.0);
        assert!(
            !svc.submit_delta(T, h, &d)
                .expect("in bounds")
                .pattern_changed
        );
        check(&svc.matrix(h).expect("registered"), 9);
        assert_eq!(hashes(), 1, "a value-only delta carries too");
        assert_eq!(stats(&svc).cache_misses, 1);
    }

    #[test]
    fn lru_eviction_keeps_cache_bounded() {
        let cfg = EngineConfig::builder()
            .plan_capacity(2)
            .build()
            .expect("valid config");
        let svc = service(cfg);
        for s in 0..4 {
            let m = Arc::new(gen::random_uniform(80, 80, 4.0, 1.5, 100 + s));
            serve_spmv(&svc, &m, &operand(m.num_cols, s));
        }
        let s = stats(&svc);
        assert_eq!(s.cache_misses, 4);
        assert_eq!(s.cache_evictions, 2);
    }
}
