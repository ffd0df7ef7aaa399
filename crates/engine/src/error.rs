//! Typed admission-control errors.

/// Identity of a tenant submitting through the [`crate::Service`], which
/// tags every request so overload and deadline errors can be attributed
/// to the tenant that suffered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

fn fmt_tenant(t: &Option<TenantId>) -> String {
    match t {
        Some(t) => format!(" ({t})"),
        None => String::new(),
    }
}

/// Why the engine refused (or failed to complete) a request.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The tenant's pending quota ([`crate::TenantSpec::max_pending`]) on
    /// the target shard is full, or the chaos schedule forced a
    /// rejection. Backpressure: the caller should retry after a
    /// [`crate::Service::flush`] drains the queue, or shed the request.
    Overloaded {
        /// Pattern fingerprint of the refused request's matrix.
        fingerprint: u64,
        /// Requests of the tenant already waiting on the shard (for a
        /// forced rejection: requests on the same operands ahead of it in
        /// the flush).
        queue_depth: usize,
        /// The tenant's quota.
        limit: usize,
        /// The tenant whose submission was refused.
        tenant: Option<TenantId>,
    },
    /// The request's deadline passed before a flush could execute it.
    DeadlineExceeded {
        /// The tenant whose request expired.
        tenant: Option<TenantId>,
    },
    /// The ticket is still queued: it was submitted but no
    /// [`crate::Service::flush`] has resolved it yet. Flush, then redeem.
    NotReady(u64),
    /// No pending or completed request matches the ticket — it was never
    /// issued, its result was already taken, or its unclaimed result was
    /// evicted after [`crate::EngineConfig::result_ttl_flushes`] flushes.
    UnknownTicket(u64),
    /// An [`crate::EngineConfig`] or [`crate::ServiceConfig`] value is
    /// out of range (zero capacity, zero TTL, zero shards). Returned by
    /// [`crate::EngineConfigBuilder::build`],
    /// [`crate::ServiceConfigBuilder::build`] and
    /// [`crate::Service::try_with_config`].
    InvalidConfig(&'static str),
    /// No registered matrix matches the [`crate::MatrixHandle`] — it was
    /// never issued by this service, or belongs to another tenant.
    UnknownHandle(u64),
    /// A value update or pattern delta was rejected by plan validation
    /// (wrong value count, mismatched pattern, out-of-bounds delta
    /// entry). The registered matrix is left untouched.
    Plan(mps_core::PlanError),
}

impl From<mps_core::PlanError> for EngineError {
    fn from(e: mps_core::PlanError) -> EngineError {
        EngineError::Plan(e)
    }
}

impl EngineError {
    /// The tenant this error is attributed to, if any.
    pub fn tenant(&self) -> Option<TenantId> {
        match self {
            EngineError::Overloaded { tenant, .. } => *tenant,
            EngineError::DeadlineExceeded { tenant } => *tenant,
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Overloaded {
                fingerprint,
                queue_depth,
                limit,
                tenant,
            } => write!(
                f,
                "queue for pattern {fingerprint:#018x} is full ({queue_depth}/{limit}){}",
                fmt_tenant(tenant)
            ),
            EngineError::DeadlineExceeded { tenant } => write!(
                f,
                "request deadline exceeded before flush{}",
                fmt_tenant(tenant)
            ),
            EngineError::NotReady(t) => {
                write!(f, "ticket {t} is still queued; flush before redeeming")
            }
            EngineError::UnknownTicket(t) => write!(f, "unknown or already-consumed ticket {t}"),
            EngineError::InvalidConfig(what) => write!(f, "invalid engine config: {what}"),
            EngineError::UnknownHandle(h) => write!(f, "unknown matrix handle {h}"),
            EngineError::Plan(e) => write!(f, "mutation rejected: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_expose_their_tenant() {
        let anon = EngineError::DeadlineExceeded { tenant: None };
        assert_eq!(anon.tenant(), None);
        assert!(!anon.to_string().contains("tenant#"));
        let tagged = EngineError::Overloaded {
            fingerprint: 7,
            queue_depth: 3,
            limit: 3,
            tenant: Some(TenantId(9)),
        };
        assert_eq!(tagged.tenant(), Some(TenantId(9)));
        assert!(tagged.to_string().contains("tenant#9"), "{tagged}");
        assert_eq!(EngineError::UnknownTicket(1).tenant(), None);
    }
}
