//! Aggregated serving-layer telemetry.

use std::fmt::Write as _;

use crate::stats::EngineStats;

/// Snapshot of a [`super::Service`]: one [`EngineStats`] ledger per
/// shard, counting every request the shard resolved once — quota
/// refusals and injector expiries included — plus service-wide counters.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Per-shard ledgers, indexed by shard.
    pub shards: Vec<EngineStats>,
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
    /// Submissions refused because the tenant's quota was full: every
    /// `Overloaded` the chaos schedule did not force.
    pub fn quota_rejections(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.rejected_overload - s.chaos.forced_rejections)
            .sum()
    }

    /// One engine-stats view of the whole service: every shard's counters
    /// summed. Hit rates and batch histograms aggregate exactly as if one
    /// engine had served everything.
    pub fn aggregate(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.shards {
            total.merge(s);
        }
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
    fn aggregate_sums_shards_and_counts_quota_rejections() {
        let mut a = EngineStats {
            requests: 3,
            cache_hits: 2,
            ..EngineStats::default()
        };
        a.tenants.record_request(TenantId(1), true);
        let mut b = EngineStats {
            requests: 4,
            cache_misses: 1,
            rejected_overload: 3,
            ..EngineStats::default()
        };
        b.chaos.forced_rejections = 2;
        b.tenants.record_overload(TenantId(1));
        let mut st = ServiceStats {
            shards: vec![a, b],
            ..ServiceStats::default()
        };
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
