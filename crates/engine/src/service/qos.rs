//! Per-shard injector queues and deficit-round-robin credit mechanics.
//!
//! Each shard holds one [`ShardState`]: a per-tenant FIFO of requests not
//! yet handed to the shard's engine, and the completion store every
//! request of the shard resolves into.
//!
//! Draining uses deficit round-robin: every round each backlogged tenant
//! earns `weight × quantum` credits, and one credit admits one request to
//! the engine. Under overload (drain budget smaller than the backlog)
//! completed-request shares therefore converge to quota-weight shares,
//! which is the fairness property `tests/service_serving.rs` pins.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use crate::batch::Request;
use crate::error::{EngineError, TenantId};
use crate::EngineOutput;

use super::ServiceTicket;

/// Per-tenant QoS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Relative drain weight: under overload a tenant's share of the
    /// per-flush drain budget is proportional to this.
    pub weight: u32,
    /// Requests the tenant may have waiting in one shard's injector;
    /// submissions beyond it are refused with
    /// [`EngineError::Overloaded`] carrying the tenant.
    pub max_pending: usize,
}

impl TenantSpec {
    pub fn new(weight: u32, max_pending: usize) -> TenantSpec {
        TenantSpec {
            weight,
            max_pending,
        }
    }
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            max_pending: 64,
        }
    }
}

struct TenantQueue {
    pending: VecDeque<Request>,
    /// Unspent DRR credits. Reset when the queue empties (a tenant cannot
    /// bank credit while idle).
    deficit: u64,
}

/// What the drain loop should do with one tenant's front request.
pub(crate) enum DrainAction {
    /// The deadline passed while the request sat in the injector.
    Expire(Request),
    /// Spend one credit and hand the request to the engine.
    Submit(Request),
}

/// Everything one shard guards behind its injector mutex.
pub(crate) struct ShardState {
    tenants: BTreeMap<TenantId, TenantQueue>,
    completed: HashMap<ServiceTicket, (u64, Result<EngineOutput, EngineError>)>,
    /// Requests accepted into this shard's injector.
    pub injected: u64,
    /// Requests handed to the engine by drains.
    pub drained: u64,
    /// Completed drains; the age unit for completion-store eviction.
    epoch: u64,
}

impl ShardState {
    pub fn new() -> ShardState {
        ShardState {
            tenants: BTreeMap::new(),
            completed: HashMap::new(),
            injected: 0,
            drained: 0,
            epoch: 0,
        }
    }

    /// Requests `tenant` has waiting in this injector.
    pub fn pending_for(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |q| q.pending.len())
    }

    /// Requests waiting across all tenants.
    pub fn total_pending(&self) -> usize {
        self.tenants.values().map(|q| q.pending.len()).sum()
    }

    /// Tenants in deterministic (id) drain order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    pub fn push(&mut self, req: Request) {
        self.injected += 1;
        self.tenants
            .entry(req.tenant)
            .or_insert_with(|| TenantQueue {
                pending: VecDeque::new(),
                deficit: 0,
            })
            .pending
            .push_back(req);
    }

    /// Grant one DRR round's credits. Returns `false` (and resets the
    /// deficit) when the tenant has nothing queued.
    pub fn refill(&mut self, tenant: TenantId, credit: u64) -> bool {
        let Some(q) = self.tenants.get_mut(&tenant) else {
            return false;
        };
        if q.pending.is_empty() {
            q.deficit = 0;
            return false;
        }
        q.deficit += credit;
        true
    }

    /// Take the tenant's front request if it can make progress: expired
    /// requests pop for free, live ones cost one credit. `None` when the
    /// queue is empty or the credit ran out.
    pub fn pop_action(&mut self, tenant: TenantId, now: Instant) -> Option<DrainAction> {
        let q = self.tenants.get_mut(&tenant)?;
        let expired = q
            .pending
            .front()
            .map(|r| r.deadline.is_some_and(|d| now >= d))?;
        if expired {
            return Some(DrainAction::Expire(
                q.pending.pop_front().expect("front exists"),
            ));
        }
        if q.deficit == 0 {
            return None;
        }
        q.deficit -= 1;
        Some(DrainAction::Submit(
            q.pending.pop_front().expect("front exists"),
        ))
    }

    /// Record a resolved service ticket.
    pub fn complete(&mut self, ticket: ServiceTicket, result: Result<EngineOutput, EngineError>) {
        self.completed.insert(ticket, (self.epoch, result));
    }

    pub fn take_completed(
        &mut self,
        ticket: ServiceTicket,
    ) -> Option<Result<EngineOutput, EngineError>> {
        self.completed.remove(&ticket).map(|(_, r)| r)
    }

    /// Whether the ticket is still waiting in the injector.
    pub fn is_pending(&self, ticket: ServiceTicket) -> bool {
        self.tenants
            .values()
            .any(|q| q.pending.iter().any(|r| r.ticket == ticket))
    }

    /// Close out a drain: advance the epoch and drop unclaimed results
    /// older than `ttl_flushes` drains. Returns the number evicted.
    pub fn end_flush(&mut self, ttl_flushes: u64) -> u64 {
        self.epoch += 1;
        let cutoff = self.epoch.saturating_sub(ttl_flushes);
        let before = self.completed.len();
        self.completed.retain(|_, (epoch, _)| *epoch >= cutoff);
        self.tenants.retain(|_, q| !q.pending.is_empty());
        (before - self.completed.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    use mps_sparse::CsrMatrix;

    use crate::batch::RequestPayload;

    fn req(ticket: u64, deadline: Option<Instant>) -> Request {
        Request {
            ticket: ServiceTicket::new(ticket, 0),
            tenant: TenantId(5),
            fingerprint: 0,
            matrix: Arc::new(CsrMatrix::identity(2)),
            payload: RequestPayload::Vector(vec![1.0, 2.0]),
            deadline,
        }
    }

    #[test]
    fn drr_spends_credits_and_expires_for_free() {
        let mut st = ShardState::new();
        let t = TenantId(5);
        let now = Instant::now();
        let past = now - Duration::from_secs(1);
        st.push(req(1, Some(past)));
        st.push(req(2, None));
        st.push(req(3, None));
        assert_eq!(st.pending_for(t), 3);
        assert!(st.refill(t, 1));
        // Expired front pops without spending the single credit…
        assert!(
            matches!(st.pop_action(t, now), Some(DrainAction::Expire(r)) if r.ticket == ServiceTicket::new(1, 0))
        );
        // …the credit then admits exactly one live request…
        assert!(matches!(
            st.pop_action(t, now),
            Some(DrainAction::Submit(_))
        ));
        // …and the third blocks until the next refill.
        assert!(st.pop_action(t, now).is_none());
        assert!(st.refill(t, 1));
        assert!(matches!(
            st.pop_action(t, now),
            Some(DrainAction::Submit(_))
        ));
        assert!(st.pop_action(t, now).is_none());
        // Empty queue: refill refuses and zeroes any banked deficit.
        assert!(st.refill(t, 10) || st.pending_for(t) == 0);
    }

    #[test]
    fn completion_store_ages_out() {
        let mut st = ShardState::new();
        let k = ServiceTicket::new(9, 0);
        st.complete(k, Err(EngineError::UnknownTicket(0)));
        st.end_flush(2);
        assert!(st.take_completed(k).is_some(), "survives within ttl");
        let k2 = ServiceTicket::new(10, 0);
        st.complete(k2, Err(EngineError::UnknownTicket(0)));
        st.end_flush(1);
        st.end_flush(1);
        assert!(st.take_completed(k2).is_none(), "aged out past ttl");
    }
}
