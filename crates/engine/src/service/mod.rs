//! Sharded multi-tenant serving service: the one way to queue work.
//!
//! Each shard owns a private engine that plans and executes; this module
//! queues requests for it across threads and tenants, and is the only way
//! to run work on an engine:
//!
//! * **Shards** — N independent engines, each with its own plan cache,
//!   workspace, stats ledger and chaos stream (seeds derived per
//!   shard, so fault schedules stay replayable), all sharing the
//!   service's one fingerprint memo. A submission routes to the shard
//!   owning its matrix's pattern fingerprint, so one pattern's plans are
//!   built exactly once service-wide and same-pattern requests keep
//!   coalescing into shared traversals.
//! * **Thread-safe submission** — `submit_*` methods take `&self` and
//!   touch only the target shard's injector mutex (fingerprints come from
//!   the lock-free-read [`FingerprintCache`]), so submitters on different
//!   shards never contend and submitters on one shard serialize briefly.
//! * **QoS** — per-tenant pending quotas at submission
//!   ([`EngineError::Overloaded`] with tenant attribution; the quota is
//!   the only admission limit), deadlines checked in the injector, and
//!   deficit-round-robin draining under overload: each flush spends a
//!   bounded drain budget across backlogged tenants in proportion to
//!   their [`TenantSpec::weight`].
//! * **Concurrent flush** — [`Service::flush`] drains ready shards in
//!   parallel on the persistent worker pool. Each shard's drain selects
//!   requests by DRR and hands them, in drain order, to one flush of the
//!   shard engine, which groups them per matrix in first-arrival order
//!   and writes every result into the shard's completion store. Every
//!   result is bitwise identical to the same request run alone, and
//!   chaos draws and cache lookups happen in one deterministic order per
//!   shard.
//!
//! ```
//! use std::sync::Arc;
//! use mps_engine::{Service, TenantId};
//! use mps_simt::Device;
//! use mps_sparse::CsrMatrix;
//!
//! let svc = Service::new(&Device::titan());
//! let a = Arc::new(CsrMatrix::identity(64));
//! let t = svc
//!     .submit_spmv(TenantId(0), &a, vec![1.0; 64], None)
//!     .unwrap();
//! svc.flush();
//! assert_eq!(svc.take_result(t).unwrap().into_vector(), vec![1.0; 64]);
//! ```

mod qos;
mod stats;

pub use qos::TenantSpec;
pub use stats::ServiceStats;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rayon::prelude::*;

use mps_core::{CsrDelta, PlanError};
use mps_simt::Device;
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::batch::{Request, RequestPayload};
use crate::error::{EngineError, TenantId};
use crate::fingerprint::FingerprintCache;
use crate::{DeltaOutcome, Engine, EngineConfig, EngineOutput, MatrixHandle};

use qos::DrainAction;
pub(crate) use qos::ShardState;

/// Shards are packed into the low bits of a [`ServiceTicket`].
const SHARD_BITS: u32 = 16;
const MAX_SHARDS: usize = 1 << SHARD_BITS;

/// Handle to a request submitted through the [`Service`]; redeem with
/// [`Service::take_result`] after a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceTicket(u64);

impl ServiceTicket {
    pub(crate) fn new(seq: u64, shard: usize) -> ServiceTicket {
        ServiceTicket((seq << SHARD_BITS) | shard as u64)
    }

    fn shard(self) -> usize {
        (self.0 & (MAX_SHARDS as u64 - 1)) as usize
    }

    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

/// Service tuning: shard count, the engine template every shard is built
/// from, per-tenant QoS specs, and the drain budget that bounds how much
/// work one flush admits per shard.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub(crate) shards: usize,
    pub(crate) engine: EngineConfig,
    pub(crate) tenants: BTreeMap<TenantId, TenantSpec>,
    pub(crate) default_spec: TenantSpec,
    pub(crate) drain_budget: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            engine: EngineConfig::default(),
            tenants: BTreeMap::new(),
            default_spec: TenantSpec::default(),
            drain_budget: 256,
        }
    }
}

impl ServiceConfig {
    /// Start a validating builder seeded with the defaults (the only
    /// construction path, like [`EngineConfig::builder`]).
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: ServiceConfig::default(),
        }
    }

    /// Engine shards the service routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The engine template shards are built from (each shard derives its
    /// own chaos seed from this template's).
    pub fn engine(&self) -> &EngineConfig {
        &self.engine
    }

    /// Requests one flush hands to each shard's engine before the rest
    /// of the backlog waits for the next flush.
    pub fn drain_budget(&self) -> usize {
        self.drain_budget
    }

    /// The QoS spec for `tenant` (the default spec when unregistered).
    pub fn spec(&self, tenant: TenantId) -> TenantSpec {
        self.tenants
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_spec)
    }

    /// Check the invariants [`Service`] construction relies on.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(EngineError::InvalidConfig(
                "shards must be between 1 and 65536",
            ));
        }
        if self.drain_budget == 0 {
            return Err(EngineError::InvalidConfig(
                "drain_budget must be at least 1",
            ));
        }
        for spec in self
            .tenants
            .values()
            .chain(std::iter::once(&self.default_spec))
        {
            if spec.weight == 0 {
                return Err(EngineError::InvalidConfig(
                    "tenant weight must be at least 1",
                ));
            }
            if spec.max_pending == 0 {
                return Err(EngineError::InvalidConfig(
                    "tenant max_pending must be at least 1",
                ));
            }
        }
        self.engine.validate()
    }
}

/// Validating builder for [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Engine shards ([`ServiceConfig::shards`]).
    pub fn shards(mut self, n: usize) -> Self {
        self.cfg.shards = n;
        self
    }

    /// Engine template every shard is built from.
    pub fn engine(mut self, cfg: EngineConfig) -> Self {
        self.cfg.engine = cfg;
        self
    }

    /// Register a tenant's QoS spec (weight and pending quota).
    pub fn tenant(mut self, tenant: TenantId, spec: TenantSpec) -> Self {
        self.cfg.tenants.insert(tenant, spec);
        self
    }

    /// QoS spec applied to tenants without a registered one.
    pub fn default_tenant(mut self, spec: TenantSpec) -> Self {
        self.cfg.default_spec = spec;
        self
    }

    /// Per-shard, per-flush admission budget
    /// ([`ServiceConfig::drain_budget`]).
    pub fn drain_budget(mut self, n: usize) -> Self {
        self.cfg.drain_budget = n;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServiceConfig, EngineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

struct Shard {
    engine: Engine,
    state: Mutex<ShardState>,
}

/// The sharded serving layer. Shareable across threads (`&Service` is
/// `Sync`): submissions lock only their target shard's injector, flushes
/// drain shards concurrently on the worker pool.
pub struct Service {
    cfg: ServiceConfig,
    shards: Vec<Shard>,
    /// The one fingerprint memo of the service: it routes submissions,
    /// and every shard engine keys plans and queues through it too.
    fp: Arc<FingerprintCache>,
    /// Tenant-scoped handles to registered matrices, mutable through
    /// [`Service::submit_update`] / [`Service::submit_delta`]. The
    /// registry lives above the shards: value mutation preserves the
    /// pattern fingerprint (so the handle keeps routing to the shard
    /// whose caches are warm), while a pattern-changing delta simply
    /// re-routes future submissions by the new fingerprint.
    registry: Mutex<HashMap<u64, (TenantId, Arc<CsrMatrix>)>>,
    next_handle: AtomicU64,
    next_seq: AtomicU64,
    flushes: AtomicU64,
}

impl Service {
    pub fn new(device: &Device) -> Service {
        Service::with_config(device, ServiceConfig::default())
    }

    /// Like [`Service::try_with_config`], but panics on an invalid config.
    pub fn with_config(device: &Device, cfg: ServiceConfig) -> Service {
        Service::try_with_config(device, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct a service, rejecting invalid configs with
    /// [`EngineError::InvalidConfig`].
    pub fn try_with_config(device: &Device, cfg: ServiceConfig) -> Result<Service, EngineError> {
        cfg.validate()?;
        let fp = Arc::new(FingerprintCache::new());
        let shards = (0..cfg.shards)
            .map(|i| {
                // Each shard draws faults from its own SplitMix64 stream:
                // the template seed offset by a per-shard golden-ratio
                // stride, so schedules are decorrelated across shards yet
                // replay exactly for a fixed (template seed, shard) pair.
                let mut ec = cfg.engine.clone();
                ec.chaos.seed = ec
                    .chaos
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Shard {
                    engine: Engine::for_shard(device, ec, Arc::clone(&fp)),
                    state: Mutex::new(ShardState::new()),
                }
            })
            .collect();
        Ok(Service {
            cfg,
            shards,
            fp,
            registry: Mutex::new(HashMap::new()),
            next_handle: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        })
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a pattern fingerprint routes to.
    pub fn shard_of(&self, fingerprint: u64) -> usize {
        (fingerprint % self.shards.len() as u64) as usize
    }

    /// Requests waiting across all shard injectors.
    pub fn pending_requests(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().total_pending())
            .sum()
    }

    /// Queue an SpMV request for `tenant`. Routed to the shard owning
    /// `a`'s pattern fingerprint; refused with a tenant-attributed
    /// [`EngineError::Overloaded`] when the tenant's pending quota on
    /// that shard ([`TenantSpec::max_pending`]) is full.
    ///
    /// # Panics
    /// Panics if `x.len() != a.num_cols`.
    pub fn submit_spmv(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        x: Vec<f64>,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        assert_eq!(x.len(), a.num_cols, "operand length mismatch");
        self.submit(tenant, a, RequestPayload::Vector(x), deadline)
    }

    /// Queue an SpMM request (dense multi-vector operand) for `tenant`.
    /// Semantics match [`Service::submit_spmv`].
    ///
    /// # Panics
    /// Panics if `x.rows != a.num_cols` or `x` has no columns.
    pub fn submit_spmm(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        x: DenseBlock,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        assert_eq!(x.rows, a.num_cols, "operand row-count mismatch");
        assert!(x.cols >= 1, "operand block must have at least one column");
        self.submit(tenant, a, RequestPayload::Block(x), deadline)
    }

    /// Queue an SpGEMM request `a · b` for `tenant`, routed by `a`'s
    /// pattern fingerprint. Semantics match [`Service::submit_spmv`].
    ///
    /// # Panics
    /// Panics if `a.num_cols != b.num_rows`.
    pub fn submit_spgemm(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        b: &Arc<CsrMatrix>,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        assert_eq!(a.num_cols, b.num_rows, "inner dimension mismatch");
        self.submit(tenant, a, RequestPayload::Matrix(Arc::clone(b)), deadline)
    }

    /// Register `a` for in-place mutation on behalf of `tenant` and get
    /// a [`MatrixHandle`]. The handle names the evolving matrix:
    /// [`Service::submit_update`] / [`Service::submit_delta`] advance
    /// it, [`Service::matrix`] reads the current snapshot to submit
    /// with. Handles are tenant-scoped — mutations by any other tenant
    /// are refused with [`EngineError::UnknownHandle`].
    pub fn register(&self, tenant: TenantId, a: &Arc<CsrMatrix>) -> MatrixHandle {
        let h = self.next_handle.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry.lock().insert(h, (tenant, Arc::clone(a)));
        MatrixHandle(h)
    }

    /// Current snapshot of a registered matrix (any tenant may read).
    pub fn matrix(&self, h: MatrixHandle) -> Result<Arc<CsrMatrix>, EngineError> {
        self.registry
            .lock()
            .get(&h.0)
            .map(|(_, a)| Arc::clone(a))
            .ok_or(EngineError::UnknownHandle(h.0))
    }

    /// Swap the registered matrix's numeric values in place (one value
    /// per nonzero, CSR order). The pattern fingerprint is preserved —
    /// and carried to the new snapshot without rehashing — so the handle
    /// keeps routing to the same shard and every plan cached there
    /// replays numeric-only: repeat rounds are value-swap + submit across
    /// all shards with zero rebuilds and zero hashes. Returns the updated
    /// snapshot, ready to submit.
    pub fn submit_update(
        &self,
        tenant: TenantId,
        h: MatrixHandle,
        values: Vec<f64>,
    ) -> Result<Arc<CsrMatrix>, EngineError> {
        let snapshot = {
            let mut reg = self.registry.lock();
            let (owner, arc) = reg.get_mut(&h.0).ok_or(EngineError::UnknownHandle(h.0))?;
            if *owner != tenant {
                return Err(EngineError::UnknownHandle(h.0));
            }
            if values.len() != arc.nnz() {
                return Err(PlanError::ValueLengthMismatch {
                    expected: arc.nnz(),
                    got: values.len(),
                }
                .into());
            }
            self.fp.swap_values(arc, values);
            Arc::clone(arc)
        };
        let fp = self.fp.get(&snapshot);
        self.shards[self.shard_of(fp)]
            .engine
            .record(|s| s.value_updates += 1);
        Ok(snapshot)
    }

    /// Apply a [`CsrDelta`] to the registered matrix through the shard
    /// that owns its current fingerprint. Small deltas (at most
    /// `ceil(`[`EngineConfig::delta_replan_threshold`]` * nnz)` entries)
    /// patch through one balanced-path union pass; larger ones fall back
    /// to a full COO rebuild. A value-only delta preserves the pattern
    /// fingerprint, so cached plans keep serving. A pattern-changing
    /// delta moves the handle to a new fingerprint, and future
    /// submissions re-route accordingly; the apply itself is charged to
    /// the shard that owned the pre-delta pattern. Consumes no chaos
    /// draws, so fault schedules replay unchanged around mutations.
    pub fn submit_delta(
        &self,
        tenant: TenantId,
        h: MatrixHandle,
        delta: &CsrDelta,
    ) -> Result<DeltaOutcome, EngineError> {
        let arc = {
            let reg = self.registry.lock();
            let (owner, arc) = reg.get(&h.0).ok_or(EngineError::UnknownHandle(h.0))?;
            if *owner != tenant {
                return Err(EngineError::UnknownHandle(h.0));
            }
            Arc::clone(arc)
        };
        let fp = self.fp.get(&arc);
        let shard = &self.shards[self.shard_of(fp)];
        let (next, outcome) = shard.engine.apply_delta_snapshot(&arc, delta)?;
        let mut reg = self.registry.lock();
        match reg.get_mut(&h.0) {
            Some((owner, slot)) if *owner == tenant => *slot = next,
            _ => return Err(EngineError::UnknownHandle(h.0)),
        }
        Ok(outcome)
    }

    /// Admit a request into the injector of the shard owning `a`'s
    /// pattern fingerprint, or refuse it when the tenant's quota there is
    /// full.
    fn submit(
        &self,
        tenant: TenantId,
        a: &Arc<CsrMatrix>,
        payload: RequestPayload,
        deadline: Option<Duration>,
    ) -> Result<ServiceTicket, EngineError> {
        let fp = self.fp.get(a);
        let shard_idx = self.shard_of(fp);
        let shard = &self.shards[shard_idx];
        let limit = self.cfg.spec(tenant).max_pending;
        let mut st = shard.state.lock();
        let depth = st.pending_for(tenant);
        if depth >= limit {
            shard.engine.record(|s| {
                s.rejected_overload += 1;
                s.tenants.record_overload(tenant);
            });
            return Err(EngineError::Overloaded {
                fingerprint: fp,
                queue_depth: depth,
                limit,
                tenant: Some(tenant),
            });
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let ticket = ServiceTicket::new(seq, shard_idx);
        st.push(Request {
            ticket,
            tenant,
            fingerprint: fp,
            matrix: Arc::clone(a),
            payload,
            deadline: deadline.map(|d| Instant::now() + d),
        });
        Ok(ticket)
    }

    /// Drain every shard — concurrently on the worker pool when it has
    /// threads — and resolve the admitted requests. Returns the number of
    /// requests resolved (results, deadline expiries, and forced
    /// rejections all become redeemable via [`Service::take_result`]).
    pub fn flush(&self) -> usize {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        let n = self.shards.len();
        if n == 1 {
            return self.drain_shard(0);
        }
        let counts: Vec<usize> = (0..n)
            .into_par_iter()
            .with_item_work(rayon::WORK_CUTOFF)
            .map(|i| self.drain_shard(i))
            .collect();
        counts.into_iter().sum()
    }

    /// Drain one shard: DRR-select up to [`ServiceConfig::drain_budget`]
    /// requests across backlogged tenants (weighted by spec), expiring
    /// those whose deadline passed in the injector, and hand the
    /// selected ones, in drain order, to one flush of the shard engine.
    /// Every resolved request lands in the shard's completion store.
    fn drain_shard(&self, idx: usize) -> usize {
        let shard = &self.shards[idx];
        let mut st = shard.state.lock();
        let now = Instant::now();
        let mut budget = self.cfg.drain_budget;
        let mut drained: Vec<Request> = Vec::new();
        let mut expired = 0usize;
        let tenant_ids = st.tenant_ids();
        loop {
            let mut progressed = false;
            for &tn in &tenant_ids {
                if budget == 0 {
                    break;
                }
                if !st.refill(tn, u64::from(self.cfg.spec(tn).weight)) {
                    continue;
                }
                while budget > 0 {
                    match st.pop_action(tn, now) {
                        None => break,
                        Some(DrainAction::Expire(req)) => {
                            shard.engine.record(|s| {
                                s.rejected_deadline += 1;
                                s.tenants.record_deadline_miss(tn);
                            });
                            st.complete(
                                req.ticket,
                                Err(EngineError::DeadlineExceeded { tenant: Some(tn) }),
                            );
                            expired += 1;
                            progressed = true;
                        }
                        Some(DrainAction::Submit(req)) => {
                            budget -= 1;
                            progressed = true;
                            drained.push(req);
                        }
                    }
                }
            }
            if !progressed || budget == 0 {
                break;
            }
        }
        let handed = drained.len();
        st.drained += handed as u64;
        if handed > 0 {
            let quota = |tn: TenantId| self.cfg.spec(tn).max_pending;
            shard.engine.flush(drained, quota, &mut st);
        }
        let evicted = st.end_flush(self.cfg.engine.result_ttl_flushes);
        if evicted > 0 {
            shard.engine.record(|s| s.results_evicted += evicted);
        }
        expired + handed
    }

    /// Redeem a service ticket. Each ticket is redeemable once, after the
    /// flush that resolved it; a ticket still waiting in the injector
    /// returns [`EngineError::NotReady`].
    pub fn take_result(&self, ticket: ServiceTicket) -> Result<EngineOutput, EngineError> {
        let shard = self
            .shards
            .get(ticket.shard())
            .ok_or(EngineError::UnknownTicket(ticket.raw()))?;
        let mut st = shard.state.lock();
        match st.take_completed(ticket) {
            Some(result) => result,
            None if st.is_pending(ticket) => Err(EngineError::NotReady(ticket.raw())),
            None => Err(EngineError::UnknownTicket(ticket.raw())),
        }
    }

    /// Snapshot of the aggregated serving telemetry: one ledger per
    /// shard, holding everything its injector and engine resolved.
    pub fn stats(&self) -> ServiceStats {
        let mut out = ServiceStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            fingerprint_hashes: self.fp.hashes(),
            ..ServiceStats::default()
        };
        for shard in &self.shards {
            let st = shard.state.lock();
            out.injected += st.injected;
            out.drained += st.drained;
            out.shards.push(shard.engine.stats());
        }
        out
    }

    /// Zero every shard's telemetry and the service counters (e.g. after
    /// a warm-up phase).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.engine.reset_stats();
            let mut st = shard.state.lock();
            st.injected = 0;
            st.drained = 0;
        }
        self.flushes.store(0, Ordering::Relaxed);
        self.fp.reset_hashes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn device() -> Device {
        Device::titan()
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
    /// every snapshot the service serves.
    fn fresh_spmv(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let dev = device();
        mps_core::SpmvPlan::new(&dev, a, &mps_core::SpmvConfig::default())
            .execute(&dev, a, x)
            .y
    }

    /// Submit `x` against the handle's current snapshot alone, flush, and
    /// check the result against a fresh plan.
    fn serve_and_check(svc: &Service, tn: TenantId, h: MatrixHandle, seed: u64) {
        let a = svc.matrix(h).expect("registered");
        let x = operand(a.num_cols, seed);
        let t = svc.submit_spmv(tn, &a, x.clone(), None).expect("admitted");
        svc.flush();
        let got = svc.take_result(t).expect("completed").into_vector();
        assert_eq!(bits(&got), bits(&fresh_spmv(&a, &x)));
    }

    #[test]
    fn service_results_match_fresh_plans_bitwise() {
        let svc = Service::new(&device());
        let mats: Vec<Arc<CsrMatrix>> = (0..6)
            .map(|s| Arc::new(gen::random_uniform(200, 200, 6.0, 2.0, 50 + s)))
            .collect();
        let tenant = TenantId(0);
        let mut pairs = Vec::new();
        for (i, m) in mats.iter().enumerate() {
            let x = operand(m.num_cols, i as u64);
            let want = fresh_spmv(m, &x);
            let t = svc.submit_spmv(tenant, m, x, None).expect("admitted");
            pairs.push((t, want));
        }
        assert_eq!(svc.flush(), 6);
        for (t, want) in pairs {
            let got = svc.take_result(t).expect("completed").into_vector();
            assert_eq!(bits(&got), bits(&want));
        }
        // Six distinct patterns spread across the default four shards.
        let s = svc.stats();
        assert_eq!(s.aggregate().requests, 6);
        assert!(s.shards.iter().filter(|s| s.requests > 0).count() > 1);
    }

    #[test]
    fn quota_rejections_carry_the_tenant() {
        let cfg = ServiceConfig::builder()
            .shards(1)
            .tenant(TenantId(7), TenantSpec::new(1, 2))
            .build()
            .expect("valid");
        let svc = Service::with_config(&device(), cfg);
        let a = Arc::new(gen::random_uniform(100, 100, 4.0, 1.0, 3));
        let x = operand(a.num_cols, 1);
        for _ in 0..2 {
            svc.submit_spmv(TenantId(7), &a, x.clone(), None)
                .expect("within quota");
        }
        match svc.submit_spmv(TenantId(7), &a, x.clone(), None) {
            Err(
                e @ EngineError::Overloaded {
                    queue_depth, limit, ..
                },
            ) => {
                assert_eq!((queue_depth, limit), (2, 2));
                assert_eq!(e.tenant(), Some(TenantId(7)));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Another tenant is unaffected by tenant 7's full quota.
        svc.submit_spmv(TenantId(8), &a, x, None)
            .expect("separate quota");
        assert_eq!(svc.stats().quota_rejections(), 1);
        svc.flush();
        assert_eq!(svc.pending_requests(), 0);
    }

    #[test]
    fn drr_drain_respects_weights_under_overload() {
        // Two tenants, weights 3:1, a drain budget of 8 per flush, and 16
        // pending requests each (2x oversubscription of the budget). The
        // first flush must admit 6 vs 2.
        let cfg = ServiceConfig::builder()
            .shards(1)
            .tenant(TenantId(1), TenantSpec::new(3, 64))
            .tenant(TenantId(2), TenantSpec::new(1, 64))
            .drain_budget(8)
            .build()
            .expect("valid");
        let svc = Service::with_config(&device(), cfg);
        let a = Arc::new(gen::random_uniform(120, 120, 5.0, 2.0, 9));
        let mut tickets: BTreeMap<TenantId, Vec<ServiceTicket>> = BTreeMap::new();
        for tn in [TenantId(1), TenantId(2)] {
            for s in 0..16 {
                let t = svc
                    .submit_spmv(tn, &a, operand(a.num_cols, s), None)
                    .expect("admitted");
                tickets.entry(tn).or_default().push(t);
            }
        }
        assert_eq!(svc.flush(), 8);
        let completed = |tn: TenantId| {
            tickets[&tn]
                .iter()
                .filter(|t| svc.take_result(**t).is_ok())
                .count()
        };
        assert_eq!(completed(TenantId(1)), 6, "weight-3 tenant share");
        assert_eq!(completed(TenantId(2)), 2, "weight-1 tenant share");
        // The rest stay queued for later flushes.
        assert_eq!(svc.pending_requests(), 24);
    }

    #[test]
    fn injector_deadlines_expire_with_attribution() {
        let cfg = ServiceConfig::builder().shards(2).build().expect("valid");
        let svc = Service::with_config(&device(), cfg);
        let a = Arc::new(gen::random_uniform(80, 80, 4.0, 1.0, 5));
        let tn = TenantId(3);
        let t = svc
            .submit_spmv(tn, &a, operand(a.num_cols, 1), Some(Duration::ZERO))
            .expect("admitted");
        assert_eq!(
            svc.take_result(t),
            Err(EngineError::NotReady(t.raw())),
            "queued until a flush"
        );
        assert_eq!(svc.flush(), 1);
        assert_eq!(
            svc.take_result(t),
            Err(EngineError::DeadlineExceeded { tenant: Some(tn) })
        );
        assert_eq!(
            svc.take_result(t),
            Err(EngineError::UnknownTicket(t.raw())),
            "redeemable once"
        );
        let s = svc.stats();
        assert_eq!(s.aggregate().tenants.get(tn).deadline_misses, 1);
        assert!(s.render().contains("tenant#3"), "{}", s.render());
    }

    /// Every refusal, expiry and eviction is counted once, in the ledger
    /// of the shard that resolved it, so the aggregate reads them all.
    #[test]
    fn refusals_expiries_and_evictions_are_counted_once() {
        let engine = EngineConfig::builder()
            .result_ttl_flushes(1)
            .build()
            .expect("valid");
        let cfg = ServiceConfig::builder()
            .shards(1)
            .engine(engine)
            .tenant(TenantId(1), TenantSpec::new(1, 1))
            .build()
            .expect("valid");
        let svc = Service::with_config(&device(), cfg);
        let tn = TenantId(1);
        let a = Arc::new(gen::random_uniform(80, 80, 4.0, 1.0, 17));
        let x = operand(a.num_cols, 1);
        let expired = svc
            .submit_spmv(tn, &a, x.clone(), Some(Duration::ZERO))
            .expect("within quota");
        let refused = svc.submit_spmv(tn, &a, x.clone(), None);
        assert!(matches!(refused, Err(EngineError::Overloaded { .. })));
        assert_eq!(svc.flush(), 1);
        assert_eq!(
            svc.take_result(expired),
            Err(EngineError::DeadlineExceeded { tenant: Some(tn) })
        );
        // A result nobody redeems ages out after one more flush.
        let unclaimed = svc.submit_spmv(tn, &a, x, None).expect("within quota");
        svc.flush();
        svc.flush();
        assert_eq!(
            svc.take_result(unclaimed),
            Err(EngineError::UnknownTicket(unclaimed.raw()))
        );
        let s = svc.stats();
        let agg = s.aggregate();
        assert_eq!(agg.rejected_overload, 1);
        assert_eq!(agg.rejected_deadline, 1);
        assert_eq!(agg.results_evicted, 1);
        assert_eq!(agg.requests, 1);
        let t = agg.tenants.get(tn);
        assert_eq!((t.overloads, t.deadline_misses), (1, 1));
        assert_eq!(s.quota_rejections(), 1);
    }

    /// A drain groups its requests per matrix in first-arrival order, so
    /// two services driven identically look their plans up in the same
    /// order: equal cache counters and bit-equal simulated time, even
    /// with a plan cache too small for the working set.
    #[test]
    fn drain_order_repeats_across_services() {
        let mats: Vec<Arc<CsrMatrix>> = (0..8)
            .map(|s| Arc::new(gen::random_uniform(64, 64, 4.0, 1.0, 80 + s)))
            .collect();
        let drive = || {
            let engine = EngineConfig::builder()
                .plan_capacity(4)
                .build()
                .expect("valid");
            let cfg = ServiceConfig::builder()
                .shards(1)
                .engine(engine)
                .build()
                .expect("valid");
            let svc = Service::with_config(&device(), cfg);
            let mut rng = 0x5EED_u64;
            for _ in 0..50 {
                let mut tickets = Vec::new();
                for _ in 0..12 {
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let a = &mats[(rng >> 33) as usize % mats.len()];
                    let t = if (rng >> 40) & 3 == 0 {
                        let k = 2 + (rng >> 45) as usize % 3;
                        let x = DenseBlock::from_fn(a.num_cols, k, |r, c| (r + c) as f64);
                        svc.submit_spmm(TenantId(0), a, x, None)
                    } else {
                        svc.submit_spmv(TenantId(0), a, operand(a.num_cols, rng % 7), None)
                    };
                    tickets.push(t.expect("within quota"));
                }
                svc.flush();
                for t in tickets {
                    svc.take_result(t).expect("completed");
                }
            }
            svc.stats().aggregate()
        };
        let (p, q) = (drive(), drive());
        assert!(p.cache_evictions > 0, "the cache must be under pressure");
        assert_eq!(
            (p.cache_hits, p.cache_misses, p.cache_evictions, p.batches),
            (q.cache_hits, q.cache_misses, q.cache_evictions, q.batches)
        );
        assert_eq!(p.exec_sim_ms.to_bits(), q.exec_sim_ms.to_bits());
        assert_eq!(p.plan_build_sim_ms.to_bits(), q.plan_build_sim_ms.to_bits());
    }

    #[test]
    fn spgemm_and_spmm_route_through_the_service() {
        let dev = device();
        let svc = Service::new(&dev);
        let a = Arc::new(gen::random_uniform(150, 150, 5.0, 2.0, 11));
        let b = Arc::new(gen::random_uniform(150, 150, 4.0, 2.0, 12));
        let blk = DenseBlock::from_fn(a.num_cols, 3, |r, c| (r * 3 + c) as f64 / 7.0);
        let want_mm = mps_core::SpmmPlan::new(&dev, &a, 3, &mps_core::SpmmConfig::default())
            .execute(&dev, &a, &blk)
            .y;
        let want_gm = mps_core::SpgemmPlan::new(&dev, &a, &b, &mps_core::SpgemmConfig::default())
            .execute(&dev, &a, &b);
        let tn = TenantId(0);
        let t_mm = svc
            .submit_spmm(tn, &a, blk.clone(), None)
            .expect("admitted");
        let t_gm = svc.submit_spgemm(tn, &a, &b, None).expect("admitted");
        assert_eq!(svc.flush(), 2);
        assert_eq!(svc.take_result(t_mm).expect("block").into_block(), want_mm);
        assert_eq!(
            svc.take_result(t_gm).expect("matrix").into_matrix(),
            want_gm.c
        );
    }

    #[test]
    fn per_shard_chaos_is_seed_deterministic() {
        let chaos = crate::ChaosConfig {
            seed: 77,
            reject_submit_p: 0.3,
            ..crate::ChaosConfig::default()
        };
        let engine_cfg = EngineConfig::builder().chaos(chaos).build().expect("valid");
        let run = || {
            let cfg = ServiceConfig::builder()
                .shards(2)
                .engine(engine_cfg.clone())
                .build()
                .expect("valid");
            let svc = Service::with_config(&device(), cfg);
            let mats: Vec<Arc<CsrMatrix>> = (0..4)
                .map(|s| Arc::new(gen::random_uniform(90, 90, 4.0, 1.0, 30 + s)))
                .collect();
            let mut outcomes = Vec::new();
            for round in 0..10u64 {
                let m = &mats[(round % 4) as usize];
                let t = svc
                    .submit_spmv(TenantId(0), m, operand(m.num_cols, round), None)
                    .expect("quota admits");
                svc.flush();
                outcomes.push(svc.take_result(t).is_ok());
            }
            outcomes
        };
        assert_eq!(run(), run(), "same seeds must replay the same schedule");
    }

    #[test]
    fn handles_are_tenant_scoped() {
        let svc = Service::new(&device());
        let owner = TenantId(1);
        let intruder = TenantId(2);
        let a = Arc::new(gen::random_uniform(90, 90, 4.0, 1.0, 21));
        let h = svc.register(owner, &a);
        let vals = vec![1.0; a.nnz()];
        assert_eq!(
            svc.submit_update(intruder, h, vals.clone())
                .expect_err("not the owner"),
            EngineError::UnknownHandle(h.raw()),
            "ownership failures must not leak handle existence"
        );
        let mut d = CsrDelta::new();
        d.upsert(0, 0, 1.0);
        assert_eq!(
            svc.submit_delta(intruder, h, &d)
                .expect_err("not the owner"),
            EngineError::UnknownHandle(h.raw())
        );
        // Reads are open; the owner mutates freely.
        assert!(Arc::ptr_eq(&svc.matrix(h).expect("readable"), &a));
        svc.submit_update(owner, h, vals).expect("owner may update");
        svc.submit_delta(owner, h, &d).expect("owner may delta");
    }

    #[test]
    fn value_updates_keep_every_shard_numeric_only() {
        let svc = Service::new(&device());
        let tn = TenantId(0);
        // Enough distinct patterns to exercise more than one shard.
        let handles: Vec<(MatrixHandle, Arc<CsrMatrix>)> = (0..6)
            .map(|s| {
                let a = Arc::new(gen::random_uniform(160, 160, 5.0, 2.0, 70 + s));
                (svc.register(tn, &a), a)
            })
            .collect();
        // Warm-up round builds every plan.
        let mut tickets = Vec::new();
        for (h, a) in &handles {
            let m = svc.matrix(*h).expect("registered");
            tickets.push(
                svc.submit_spmv(tn, &m, operand(a.num_cols, 1), None)
                    .expect("admitted"),
            );
        }
        svc.flush();
        for t in tickets.drain(..) {
            svc.take_result(t).expect("completed");
        }
        // One hash per pattern, to route it; the shard serving it reads
        // the same memo.
        assert_eq!(svc.stats().fingerprint_hashes, 6);
        assert!(svc
            .shards
            .iter()
            .all(|s| Arc::ptr_eq(&s.engine.fp, &svc.fp)));
        svc.reset_stats();
        // Mutation rounds: swap values, resubmit, check against a fresh
        // plan of the mutated matrix. The first swap clones (`handles`
        // still holds each original), the second moves the sole
        // registered copy; both carry the fingerprint.
        for round in 2..4u64 {
            let mut expected = Vec::new();
            for (h, a) in &handles {
                let vals: Vec<f64> = (0..a.nnz())
                    .map(|i| (i as f64).mul_add(0.5, round as f64))
                    .collect();
                let snap = svc.submit_update(tn, *h, vals).expect("owner update");
                let x = operand(a.num_cols, round);
                expected.push(fresh_spmv(&snap, &x));
                tickets.push(svc.submit_spmv(tn, &snap, x, None).expect("admitted"));
            }
            svc.flush();
            for (t, want) in tickets.drain(..).zip(expected) {
                let got = svc.take_result(t).expect("completed").into_vector();
                assert_eq!(bits(&got), bits(&want));
            }
        }
        let s = svc.stats();
        let agg = s.aggregate();
        assert_eq!(agg.cache_misses, 0, "steady state must be all hits");
        assert_eq!(agg.cache_hits, 12);
        assert_eq!(agg.value_updates, 12);
        assert!(s.shards.iter().filter(|s| s.value_updates > 0).count() > 1);
        assert_eq!(s.fingerprint_hashes, 0, "value swaps carry, never hash");
        assert!(
            s.render().contains("0 fingerprint hash(es)"),
            "{}",
            s.render()
        );
    }

    #[test]
    fn pattern_changing_deltas_reroute_future_submissions() {
        let svc = Service::new(&device());
        let tn = TenantId(0);
        let a = Arc::new(gen::random_uniform(120, 120, 5.0, 2.0, 31));
        let h = svc.register(tn, &a);
        let mut d = CsrDelta::new();
        // Insert a short dense diagonal: pattern changes, fingerprint moves.
        for i in 0..8u32 {
            d.upsert(i, i, 1.0);
        }
        let out = svc.submit_delta(tn, h, &d).expect("in bounds");
        assert!(out.pattern_changed);
        let got = svc.matrix(h).expect("advanced");
        let want = mps_core::apply_delta_reference(&a, &d).expect("reference");
        assert_eq!(*got, want);
        // The mutated matrix submits and routes by its new fingerprint.
        let t = svc
            .submit_spmv(tn, &got, operand(got.num_cols, 3), None)
            .expect("admitted");
        svc.flush();
        svc.take_result(t).expect("completed");
        let s = svc.stats();
        assert_eq!(s.aggregate().requests, 1);
        let mutated = s.shards.iter().filter(|s| s.delta_applies > 0).count()
            + s.shards.iter().filter(|s| s.delta_fallbacks > 0).count();
        assert_eq!(mutated, 1, "the apply is charged to exactly one shard");
    }

    #[test]
    fn deltas_hash_only_the_patterns_they_create() {
        // The default threshold patches through the union; a tiny one
        // sends every delta to the rebuild fallback.
        for (threshold, fallback) in [(0.25, false), (f64::MIN_POSITIVE, true)] {
            let engine = EngineConfig::builder()
                .delta_replan_threshold(threshold)
                .build()
                .expect("valid");
            let cfg = ServiceConfig::builder()
                .engine(engine)
                .build()
                .expect("valid");
            let svc = Service::with_config(&device(), cfg);
            let tn = TenantId(0);
            let a = Arc::new(gen::random_uniform(120, 120, 5.0, 2.0, 41));
            let h = svc.register(tn, &a);
            serve_and_check(&svc, tn, h, 1);
            assert_eq!(svc.stats().fingerprint_hashes, 1);

            // Edit two existing entries: the pattern is unchanged.
            let mut d = CsrDelta::new();
            for k in [0, a.nnz() - 1] {
                let r = a.row_offsets.partition_point(|&o| o <= k) - 1;
                d.upsert(r as u32, a.col_idx[k], 42.0);
            }
            let out = svc.submit_delta(tn, h, &d).expect("in bounds");
            assert_eq!((out.pattern_changed, out.fallback), (false, fallback));
            // The union carries the fingerprint; the fallback hashes its
            // rebuilt matrix once, into the memo the next submit reads.
            let hashed = 1 + u64::from(fallback);
            assert_eq!(svc.stats().fingerprint_hashes, hashed);
            serve_and_check(&svc, tn, h, 2);
            let s = svc.stats();
            assert_eq!(s.fingerprint_hashes, hashed);
            assert_eq!(s.aggregate().cache_misses, 1, "the plan keeps serving");

            // Insert two entries: a new pattern, hashed exactly once, by
            // the fallback's apply or else by the first submit.
            let mut d = CsrDelta::new();
            for r in [0u32, 119] {
                let row = &a.col_idx[a.row_offsets[r as usize]..a.row_offsets[r as usize + 1]];
                let c = (0..120).find(|c| !row.contains(c)).expect("row has a gap");
                d.upsert(r, c, 1.0);
            }
            let out = svc.submit_delta(tn, h, &d).expect("in bounds");
            assert_eq!((out.pattern_changed, out.fallback), (true, fallback));
            assert_eq!(svc.stats().fingerprint_hashes, hashed + u64::from(fallback));
            serve_and_check(&svc, tn, h, 3);
            assert_eq!(svc.stats().fingerprint_hashes, hashed + 1);
        }
    }

    #[test]
    fn update_under_a_queued_snapshot_keeps_both_memoized() {
        let svc = Service::new(&device());
        let tn = TenantId(0);
        let h = svc.register(tn, &Arc::new(gen::random_uniform(140, 140, 5.0, 2.0, 61)));
        serve_and_check(&svc, tn, h, 1);
        svc.reset_stats();

        // A request still queued on `s0` makes the swap clone, not move.
        let s0 = svc.matrix(h).expect("registered");
        let x = operand(s0.num_cols, 2);
        let t0 = svc.submit_spmv(tn, &s0, x.clone(), None).expect("admitted");
        let s1 = svc
            .submit_update(tn, h, operand(s0.nnz(), 5))
            .expect("owner update");
        assert!(!Arc::ptr_eq(&s0, &s1));
        let t1 = svc.submit_spmv(tn, &s1, x.clone(), None).expect("admitted");
        svc.flush();
        for (t, snap) in [(t0, &s0), (t1, &s1)] {
            let got = svc.take_result(t).expect("completed").into_vector();
            assert_eq!(bits(&got), bits(&fresh_spmv(snap, &x)));
        }
        assert_eq!(svc.fp.len(), 2, "both snapshots stay memoized");
        // Either snapshot resubmits without a hash or a plan build.
        for snap in [&s0, &s1] {
            let t = svc
                .submit_spmv(tn, snap, x.clone(), None)
                .expect("admitted");
            svc.flush();
            svc.take_result(t).expect("completed");
        }
        let s = svc.stats();
        assert_eq!(s.fingerprint_hashes, 0);
        assert_eq!(s.aggregate().cache_misses, 0);
    }

    /// Value swaps and value-only deltas never miss the memo, so their
    /// carries must sweep the entries they leave dead. Here every update
    /// runs while the caller holds the previous snapshot, and every
    /// union delta while a queued request holds the one it replaces.
    #[test]
    fn value_only_mutation_runs_keep_the_memo_bounded() {
        let svc = Service::new(&device());
        let tn = TenantId(0);
        let handles: Vec<(MatrixHandle, u32, u32)> = (0..3)
            .map(|s| {
                let a = Arc::new(gen::random_uniform(60, 60, 4.0, 1.0, 70 + s));
                let r = a.row_offsets.partition_point(|&o| o == 0) - 1;
                (svc.register(tn, &a), r as u32, a.col_idx[0])
            })
            .collect();
        for &(h, _, _) in &handles {
            serve_and_check(&svc, tn, h, 1);
        }
        svc.reset_stats();
        for round in 0..200u64 {
            for &(h, r, c) in &handles {
                let held = svc.matrix(h).expect("registered");
                let s = svc
                    .submit_update(tn, h, operand(held.nnz(), round))
                    .expect("owner update");
                drop(held);
                let x = operand(s.num_cols, round);
                let t = svc.submit_spmv(tn, &s, x.clone(), None).expect("admitted");
                let mut d = CsrDelta::new();
                d.upsert(r, c, round as f64);
                let out = svc.submit_delta(tn, h, &d).expect("in bounds");
                assert!(!out.pattern_changed && !out.fallback);
                svc.flush();
                let got = svc.take_result(t).expect("completed").into_vector();
                assert_eq!(bits(&got), bits(&fresh_spmv(&s, &x)));
            }
            let held = svc.fp.held();
            assert!(
                held <= crate::fingerprint::MIN_SWEEP_AT,
                "round {round}: {held} entries"
            );
        }
        let s = svc.stats();
        assert_eq!(s.fingerprint_hashes, 0);
        assert_eq!(s.aggregate().cache_misses, 0);
        assert_eq!(svc.fp.len(), 3, "one live snapshot per handle");
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        for (built, what) in [
            (ServiceConfig::builder().shards(0).build(), "shards"),
            (
                ServiceConfig::builder().drain_budget(0).build(),
                "drain_budget",
            ),
            (
                ServiceConfig::builder()
                    .tenant(TenantId(1), TenantSpec::new(0, 4))
                    .build(),
                "weight",
            ),
            (
                ServiceConfig::builder()
                    .default_tenant(TenantSpec::new(1, 0))
                    .build(),
                "max_pending",
            ),
        ] {
            match built {
                Err(EngineError::InvalidConfig(msg)) => {
                    assert!(msg.contains(what), "{msg} should mention {what}")
                }
                other => panic!("expected InvalidConfig for {what}, got {other:?}"),
            }
        }
    }
}
