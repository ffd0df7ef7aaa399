//! The one flush: a [`crate::Service`] shard's drained requests grouped
//! per matrix, prepared in order, and executed through a one-stage
//! software pipeline.

use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;
use std::time::Instant;

use mps_core::{SpmmPlan, SpmvPlan, Workspace};
use mps_simt::Device;
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::batch::{Request, RequestPayload};
use crate::service::ShardState;
use crate::{
    charge_spgemm_exec, charge_spmm_exec, charge_spmv_exec, spgemm_plan_locked, spmm_plan_locked,
    spmv_plan_locked, Engine, EngineConfig, EngineError, EngineOutput, Inner, ServiceTicket,
    TenantId,
};

impl Engine {
    /// Serve one drain of a [`crate::Service`] shard. `drained` holds the
    /// requests the shard's injector admitted, in drain order; every one
    /// of them resolves into `st`'s completion store under its ticket.
    ///
    /// Each request is first handed off: it draws one forced rejection
    /// ([`crate::ChaosConfig::reject_submit_p`]), resolving to
    /// [`EngineError::Overloaded`] against its tenant's `quota`, or joins
    /// the queue of the first request on the same operands. The queues
    /// then drain in first-arrival order, the SpMV/SpMM pipeline first:
    /// same-matrix requests — vectors and blocks alike — coalesce into
    /// single column-tiled SpMM traversals of up to
    /// [`EngineConfig::max_batch`] output columns. A single one-column
    /// request (a lone vector, or a degenerate one-column block)
    /// dispatches straight through the cached SpMV plan instead, so it
    /// never pays column-tiling overhead. SpGEMM queues drain last, each
    /// request a numeric-only replay of the cached symbolic plan (built
    /// and charged on first sight of the pattern pair).
    ///
    /// Every group is *prepared* in queue order: forced expiries
    /// ([`crate::ChaosConfig::deadline_expiry_p`]), plan-cache lookup and
    /// the pool-exhaustion draw all happen there, so the seeded fault
    /// stream is consumed in one deterministic order. The prepared groups
    /// then execute one at a time on the shard's one workspace, through
    /// a one-stage software pipeline: while group *i*'s (draw-free)
    /// numeric replay runs, group *i+1*'s operand columns are
    /// interleaved into the spare scratch block, hiding assembly cost
    /// behind execution.
    pub(crate) fn flush(
        &self,
        drained: Vec<Request>,
        quota: impl Fn(TenantId) -> usize,
        st: &mut ShardState,
    ) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let chaos = &self.cfg.chaos;
        let mut spmv_queues: Vec<VecDeque<Request>> = Vec::new();
        let mut gemm_queues: Vec<VecDeque<Request>> = Vec::new();
        for r in drained {
            let queues = match r.payload {
                RequestPayload::Matrix(_) => &mut gemm_queues,
                _ => &mut spmv_queues,
            };
            let queue = queues.iter().position(|q| q[0].same_operands(&r));
            if inner.chaos.roll(chaos.reject_submit_p) {
                inner.stats.chaos.forced_rejections += 1;
                inner.stats.rejected_overload += 1;
                inner.stats.tenants.record_overload(r.tenant);
                let err = EngineError::Overloaded {
                    fingerprint: r.fingerprint,
                    queue_depth: queue.map_or(0, |i| queues[i].len()),
                    limit: quota(r.tenant),
                    tenant: Some(r.tenant),
                };
                st.complete(r.ticket, Err(err));
                continue;
            }
            match queue {
                Some(i) => queues[i].push_back(r),
                None => queues.push(VecDeque::from([r])),
            }
        }
        let mut prepared: Vec<PreparedGroup> = Vec::new();
        for mut queue in spmv_queues {
            let matrix = Arc::clone(&queue[0].matrix);
            let fp = queue[0].fingerprint;
            while !queue.is_empty() {
                let mut group: Vec<Request> = Vec::new();
                let mut group_cols = 0usize;
                // FIFO packing: stop at the first request that would
                // overflow the column budget (an oversized request is
                // still admitted when it is alone).
                while let Some(cols) = queue.front().map(|r| r.payload.cols()) {
                    if !group.is_empty() && group_cols + cols > self.cfg.max_batch {
                        break;
                    }
                    let r = queue.pop_front().expect("front exists");
                    if inner.forced_expiry(chaos, &r) {
                        expire(st, r);
                        continue;
                    }
                    group_cols += cols;
                    group.push(r);
                }
                if !group.is_empty() {
                    let g = prepare_group(&self.device, &self.cfg, inner, fp, &matrix, group);
                    prepared.push(g);
                }
            }
        }
        execute_pipelined(inner, prepared, st);
        for queue in gemm_queues {
            let a = Arc::clone(&queue[0].matrix);
            let RequestPayload::Matrix(b) = &queue[0].payload else {
                unreachable!("SpGEMM queues hold only SpGEMM requests");
            };
            let b = Arc::clone(b);
            let fp_b = self.fp.get(&b);
            for r in queue {
                if inner.forced_expiry(chaos, &r) {
                    expire(st, r);
                    continue;
                }
                let hits_before = inner.stats.cache_hits;
                let plan =
                    spgemm_plan_locked(&self.device, &self.cfg, inner, r.fingerprint, fp_b, &a, &b);
                let t0 = Instant::now();
                let c = plan.execute_matrix(&a, &b);
                inner.stats.requests += 1;
                let hit = inner.stats.cache_hits > hits_before;
                inner.stats.tenants.record_request(r.tenant, hit);
                charge_spgemm_exec(&mut inner.stats, &plan, t0.elapsed());
                st.complete(r.ticket, Ok(EngineOutput::Matrix(c)));
            }
        }
    }
}

/// Resolve a request the chaos schedule expired.
fn expire(st: &mut ShardState, r: Request) {
    let err = EngineError::DeadlineExceeded {
        tenant: Some(r.tenant),
    };
    st.complete(r.ticket, Err(err));
}

/// A flushed group with every admission decision already made: chaos
/// draws consumed and plan resolved from the cache. What remains —
/// operand assembly and the numeric replay — is draw-free, which is what
/// lets [`execute_pipelined`] overlap groups without perturbing the
/// seeded fault stream.
enum PreparedExec {
    /// A single one-column request (lone vector, or a degenerate
    /// one-column block) dispatched straight through the cached
    /// [`SpmvPlan`]: a k=1 "SpMM" never pays column-tiling overhead, and
    /// by the per-column equivalence the bits are identical. `as_block`
    /// records the submission kind for the output variant.
    Spmv {
        plan: Arc<SpmvPlan>,
        ticket: ServiceTicket,
        x: Vec<f64>,
        as_block: bool,
    },
    /// A coalesced group executing as one column-tiled SpMM traversal.
    Spmm {
        plan: Arc<SpmmPlan>,
        group: Vec<Request>,
        k: usize,
    },
}

struct PreparedGroup {
    matrix: Arc<CsrMatrix>,
    /// The chaos schedule drops the shard's workspace before this group
    /// executes.
    drop_ws: bool,
    exec: PreparedExec,
}

/// Admit one flushed group: consume its chaos draws (cache storm at plan
/// lookup, then pool exhaustion) and resolve the plan.
fn prepare_group(
    device: &Device,
    cfg: &EngineConfig,
    inner: &mut Inner,
    fp: u64,
    matrix: &Arc<CsrMatrix>,
    group: Vec<Request>,
) -> PreparedGroup {
    inner.stats.record_batch(group.len());
    inner.stats.requests += group.len() as u64;
    let tenants: Vec<TenantId> = group.iter().map(|r| r.tenant).collect();
    let hits_before = inner.stats.cache_hits;
    let exec = if group.len() == 1 && group[0].payload.cols() == 1 {
        let plan = spmv_plan_locked(device, cfg, inner, fp, matrix);
        let req = group.into_iter().next().expect("group of one");
        let (x, as_block) = match req.payload {
            RequestPayload::Vector(x) => (x, false),
            RequestPayload::Block(b) => (b.column(0), true),
            RequestPayload::Matrix(_) => unreachable!("SpGEMM requests queue apart"),
        };
        PreparedExec::Spmv {
            plan,
            ticket: req.ticket,
            x,
            as_block,
        }
    } else {
        let k: usize = group.iter().map(|r| r.payload.cols()).sum();
        let plan = spmm_plan_locked(device, cfg, inner, fp, matrix, k);
        PreparedExec::Spmm { plan, group, k }
    };
    // One plan lookup served the whole group; every request in it shares
    // that lookup's hit/miss outcome.
    let hit = inner.stats.cache_hits > hits_before;
    for t in tenants {
        inner.stats.tenants.record_request(t, hit);
    }
    PreparedGroup {
        matrix: Arc::clone(matrix),
        drop_ws: inner.forced_pool_exhaustion(&cfg.chaos),
        exec,
    }
}

/// Interleave an SpMM group's payloads — vector payloads as single
/// columns, block payloads as row-major column runs — into `buf`. A
/// no-op for SpMV groups (they read their operand vector directly).
fn assemble_operand(g: &PreparedGroup, buf: &mut DenseBlock) {
    let PreparedExec::Spmm { group, k, .. } = &g.exec else {
        return;
    };
    let k = *k;
    buf.reset(g.matrix.num_cols, k);
    let mut c = 0usize;
    for req in group {
        match &req.payload {
            RequestPayload::Vector(x) => {
                buf.set_column(c, x);
                c += 1;
            }
            RequestPayload::Block(b) => {
                for r in 0..b.rows {
                    let src = &b.data[r * b.cols..(r + 1) * b.cols];
                    buf.data[r * k + c..r * k + c + b.cols].copy_from_slice(src);
                }
                c += b.cols;
            }
            RequestPayload::Matrix(_) => unreachable!("SpGEMM requests queue apart"),
        }
    }
}

/// Run the prepared groups through a one-stage software pipeline: while
/// group *i*'s numeric replay executes, group *i+1*'s operand columns are
/// assembled into the spare scratch block on the worker pool
/// ([`rayon::join`]), then the buffers swap roles. Execution order — and
/// therefore every output bit — matches a sequential flush exactly; only
/// the assembly cost moves off the critical path. Every group executes
/// on the shard's one workspace, and the scratch blocks double-buffer
/// through [`Inner`], so steady-state flushes stay zero-alloc. Each group
/// counts one workspace checkout, and a reuse when it finds the
/// workspace already warm.
fn execute_pipelined(inner: &mut Inner, prepared: Vec<PreparedGroup>, st: &mut ShardState) {
    if prepared.is_empty() {
        return;
    }
    let mut cur_x = mem::replace(&mut inner.scratch_x, DenseBlock::zeros(0, 0));
    let mut next_x = mem::replace(&mut inner.scratch_x2, DenseBlock::zeros(0, 0));
    let mut y_blk = mem::replace(&mut inner.scratch_y, DenseBlock::zeros(0, 0));
    let mut queue: VecDeque<PreparedGroup> = prepared.into();
    if let Some(front) = queue.front() {
        assemble_operand(front, &mut cur_x);
    }
    while let Some(g) = queue.pop_front() {
        if g.drop_ws {
            inner.ws = None;
        }
        inner.stats.pool_checkouts += 1;
        if inner.ws.is_some() {
            inner.stats.pool_reuses += 1;
        }
        let ws = inner.ws.get_or_insert_with(Workspace::new);
        let next = queue.front();
        let matrix = &g.matrix;
        let exec = &g.exec;
        let ((ms, spmv_y), ()) = rayon::join(
            || match exec {
                PreparedExec::Spmv { plan, x, .. } => {
                    let mut y = Vec::new();
                    let ms = plan.execute_into(matrix, x, &mut y, ws);
                    (ms, Some(y))
                }
                PreparedExec::Spmm { plan, .. } => {
                    let ms = plan.execute_into(matrix, &cur_x, &mut y_blk, ws);
                    (ms, None)
                }
            },
            || {
                if let Some(n) = next {
                    assemble_operand(n, &mut next_x);
                }
            },
        );
        inner.stats.exec_sim_ms += ms;
        match g.exec {
            PreparedExec::Spmv {
                plan,
                ticket,
                as_block,
                ..
            } => {
                charge_spmv_exec(&mut inner.stats, &plan);
                let y = spmv_y.expect("SpMV dispatch produced a vector");
                let out = if as_block {
                    EngineOutput::Block(DenseBlock {
                        rows: y.len(),
                        cols: 1,
                        data: y,
                    })
                } else {
                    EngineOutput::Vector(y)
                };
                st.complete(ticket, Ok(out));
            }
            PreparedExec::Spmm { plan, group, .. } => {
                charge_spmm_exec(&mut inner.stats, &plan);
                let mut c = 0usize;
                for req in group {
                    let w = req.payload.cols();
                    let out = match req.payload {
                        RequestPayload::Vector(_) => EngineOutput::Vector(y_blk.column(c)),
                        RequestPayload::Block(_) => {
                            let y = &y_blk;
                            EngineOutput::Block(DenseBlock::from_fn(y.rows, w, |r, j| {
                                y.get(r, c + j)
                            }))
                        }
                        RequestPayload::Matrix(_) => unreachable!("SpGEMM requests queue apart"),
                    };
                    st.complete(req.ticket, Ok(out));
                    c += w;
                }
            }
        }
        mem::swap(&mut cur_x, &mut next_x);
    }
    inner.scratch_x = cur_x;
    inner.scratch_x2 = next_x;
    inner.scratch_y = y_blk;
}
