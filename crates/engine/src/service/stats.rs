//! Aggregated serving-layer telemetry.

use std::fmt::Write as _;

use crate::stats::{EngineStats, TenantTable};

/// Snapshot of a [`super::Service`]: one [`EngineStats`] per shard plus
/// the service-level QoS ledger (quota rejections and injector-expired
/// deadlines — events the shard engines never see).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Per-shard engine snapshots, indexed by shard.
    pub shards: Vec<EngineStats>,
    /// Service-level per-tenant events, merged across shards.
    pub service_tenants: TenantTable,
    /// Requests accepted into shard injectors.
    pub injected: u64,
    /// Requests handed to shard engines by drains.
    pub drained: u64,
    /// [`super::Service::flush`] calls.
    pub flushes: u64,
    /// Pattern fingerprints hashed by the service's shared memo: one per
    /// matrix allocation it first sees, none for value swaps or
    /// value-only deltas, which carry theirs. A rising count in steady
    /// state means submissions keep arriving as new allocations.
    pub fingerprint_hashes: u64,
}

impl ServiceStats {
    /// Quota rejections at the service layer (before any engine saw the
    /// request).
    pub fn quota_rejections(&self) -> u64 {
        self.service_tenants.iter().map(|(_, c)| c.overloads).sum()
    }

    /// One engine-stats view of the whole service: every shard's counters
    /// summed, with the service-level tenant ledger folded into the
    /// per-tenant table. Hit rates and batch histograms aggregate exactly
    /// as if one engine had served everything.
    pub fn aggregate(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.shards {
            total.merge(s);
        }
        total.tenants.merge(&self.service_tenants);
        total
    }

    /// Render the shard table and the aggregated engine view.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "service: {} shard(s) · {} flush(es) · {} injected · {} drained · {} quota rejection(s) · {} fingerprint hash(es)",
            self.shards.len(),
            self.flushes,
            self.injected,
            self.drained,
            self.quota_rejections(),
            self.fingerprint_hashes,
        );
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i:>2}: {:>7} requests, {:>5.1}% hit rate, {:>6.2} ms sim exec",
                s.requests,
                s.cache_hit_rate() * 100.0,
                s.exec_sim_ms,
            );
        }
        out.push_str("aggregate:\n");
        out.push_str(&self.aggregate().render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TenantId;

    #[test]
    fn aggregate_sums_shards_and_folds_service_ledger() {
        let mut a = EngineStats {
            requests: 3,
            cache_hits: 2,
            ..EngineStats::default()
        };
        a.tenants.record_request(TenantId(1), true);
        let b = EngineStats {
            requests: 4,
            cache_misses: 1,
            ..EngineStats::default()
        };
        let mut st = ServiceStats {
            shards: vec![a, b],
            ..ServiceStats::default()
        };
        st.service_tenants.record_overload(TenantId(1));
        st.injected = 9;
        st.fingerprint_hashes = 5;
        let agg = st.aggregate();
        assert_eq!(agg.requests, 7);
        assert_eq!((agg.cache_hits, agg.cache_misses), (2, 1));
        let t1 = agg.tenants.get(TenantId(1));
        assert_eq!((t1.requests, t1.overloads), (1, 1));
        assert_eq!(st.quota_rejections(), 1);
        let r = st.render();
        assert!(r.contains("2 shard(s)"), "{r}");
        assert!(r.contains("5 fingerprint hash(es)"), "{r}");
        assert!(r.contains("aggregate:"), "{r}");
    }
}
