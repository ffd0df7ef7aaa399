//! Aggregated serving telemetry.

use std::collections::BTreeMap;

use mps_simt::{Counters, PhaseLedger};

use crate::chaos::ChaosCounters;
use crate::error::TenantId;

/// Per-tenant serving counters. One row of the [`TenantTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests completed for this tenant.
    pub requests: u64,
    /// Of those, how many were served from an already-cached plan (the
    /// plan lookup for the flush group carrying the request was a hit).
    pub hits: u64,
    /// Submissions refused with [`crate::EngineError::Overloaded`] —
    /// quota refusals and forced (chaos) rejections alike.
    pub overloads: u64,
    /// Requests that expired with
    /// [`crate::EngineError::DeadlineExceeded`].
    pub deadline_misses: u64,
}

impl TenantCounters {
    /// Fraction of this tenant's completed requests served from a cached
    /// plan.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Per-tenant ledger of [`EngineStats`]: requests, plan-cache hits, overload rejections and
/// deadline misses, keyed by [`TenantId`] (ordered, so rendering is
/// deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantTable {
    rows: BTreeMap<TenantId, TenantCounters>,
}

impl TenantTable {
    fn row(&mut self, tenant: TenantId) -> &mut TenantCounters {
        self.rows.entry(tenant).or_default()
    }

    /// Attribute one completed request (and whether its flush group's
    /// plan lookup hit the cache).
    pub fn record_request(&mut self, tenant: TenantId, cache_hit: bool) {
        let r = self.row(tenant);
        r.requests += 1;
        if cache_hit {
            r.hits += 1;
        }
    }

    /// Attribute one `Overloaded` rejection.
    pub fn record_overload(&mut self, tenant: TenantId) {
        self.row(tenant).overloads += 1;
    }

    /// Attribute one `DeadlineExceeded` expiry.
    pub fn record_deadline_miss(&mut self, tenant: TenantId) {
        self.row(tenant).deadline_misses += 1;
    }

    /// Counters for one tenant (zeros if never seen).
    pub fn get(&self, tenant: TenantId) -> TenantCounters {
        self.rows.get(&tenant).copied().unwrap_or_default()
    }

    /// Iterate rows in tenant-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, &TenantCounters)> {
        self.rows.iter().map(|(t, c)| (*t, c))
    }

    /// Requests completed across all tenants.
    pub fn total_requests(&self) -> u64 {
        self.rows.values().map(|c| c.requests).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fold another table into this one (summing per-tenant rows).
    pub fn merge(&mut self, other: &TenantTable) {
        for (t, c) in other.iter() {
            let r = self.row(t);
            r.requests += c.requests;
            r.hits += c.hits;
            r.overloads += c.overloads;
            r.deadline_misses += c.deadline_misses;
        }
    }

    /// Aligned per-tenant table (header + one row per tenant).
    pub fn render(&self) -> String {
        let mut out =
            String::from("tenant      requests      hits  hit_rate  overloads  deadline_misses\n");
        for (t, c) in self.iter() {
            out.push_str(&format!(
                "{:<10}  {:>8}  {:>8}  {:>7.1}%  {:>9}  {:>15}\n",
                t.to_string(),
                c.requests,
                c.hits,
                100.0 * c.hit_rate(),
                c.overloads,
                c.deadline_misses,
            ));
        }
        out
    }
}

/// Snapshot of everything one [`crate::Service`] shard has done since
/// construction (or the last [`crate::Service::reset_stats`]): what its
/// engine planned and executed, and what its injector refused, expired or
/// evicted. Cheap to clone; all counters are plain integers plus the simt
/// [`Counters`] accumulated over executed kernel phases.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Plan-cache lookups that found a live plan.
    pub cache_hits: u64,
    /// Plan-cache lookups that had to build (and charge) a new plan.
    pub cache_misses: u64,
    /// Plans dropped by the LRU policy to stay within capacity.
    pub cache_evictions: u64,
    /// Workspace checkouts served from the pool or fresh.
    pub pool_checkouts: u64,
    /// Checkouts satisfied by a previously returned arena (no new arena).
    pub pool_reuses: u64,
    /// Requests completed by flushes.
    pub requests: u64,
    /// Flushed SpMV/SpMM groups, each run as one traversal.
    pub batches: u64,
    /// SpMV/SpMM submissions completed in those groups.
    pub batched_requests: u64,
    /// `batch_histogram[s]` counts flushed groups of exactly `s` requests
    /// (index 0 is unused; the vector grows to the largest size seen).
    pub batch_histogram: Vec<u64>,
    /// Submissions refused with [`crate::EngineError::Overloaded`]: at
    /// the tenant's quota, or forced by the chaos schedule.
    pub rejected_overload: u64,
    /// Requests that missed their deadline
    /// ([`crate::EngineError::DeadlineExceeded`]) in the injector, or were
    /// expired by the chaos schedule.
    pub rejected_deadline: u64,
    /// Unclaimed results dropped from the completion store after
    /// outliving [`crate::EngineConfig::result_ttl_flushes`] flushes.
    pub results_evicted: u64,
    /// Simulated milliseconds charged at plan-build time (partition and
    /// other structure phases) — paid once per cache miss.
    pub plan_build_sim_ms: f64,
    /// Simulated milliseconds of executed numeric phases.
    pub exec_sim_ms: f64,
    /// SpGEMM symbolic plans built (pattern-pair cache misses). In a
    /// repeated-pattern steady state this stays at its warm-up value
    /// while [`EngineStats::spgemm_numeric_execs`] keeps climbing.
    pub spgemm_symbolic_builds: u64,
    /// SpGEMM numeric executions served — each one a value-only replay
    /// of a cached plan.
    pub spgemm_numeric_execs: u64,
    /// Simulated milliseconds of SpGEMM symbolic builds (also counted in
    /// [`EngineStats::plan_build_sim_ms`]).
    pub spgemm_symbolic_sim_ms: f64,
    /// Simulated milliseconds of SpGEMM numeric replays (also counted in
    /// [`EngineStats::exec_sim_ms`]).
    pub spgemm_numeric_sim_ms: f64,
    /// Host wall-clock milliseconds spent building SpGEMM symbolic plans.
    pub spgemm_symbolic_host_ms: f64,
    /// Host wall-clock milliseconds spent in SpGEMM numeric replays.
    pub spgemm_numeric_host_ms: f64,
    /// In-place value swaps applied to registered matrices
    /// ([`crate::Service::submit_update`]) — numeric-only rounds that kept
    /// every cached plan for the pattern valid.
    pub value_updates: u64,
    /// Pattern deltas applied through the balanced-path union
    /// ([`crate::Service::submit_delta`]), fallbacks excluded.
    pub delta_applies: u64,
    /// Deltas that exceeded
    /// [`crate::EngineConfig::delta_replan_threshold`] and fell back to a
    /// full COO rebuild (plans replan on next use).
    pub delta_fallbacks: u64,
    /// Simt counters summed over executed numeric phases, including
    /// `dram_wide_bytes` from column-tiled batched traversals.
    pub totals: Counters,
    /// Per-phase ledger of everything the engine simulated: plan builds
    /// (Partition, Empty-Row Fixup, the SpGEMM pipeline) and executed
    /// numeric phases (Reduction, Tile Traversal, ...). The
    /// ledger's total equals `plan_build_sim_ms + exec_sim_ms`.
    pub phases: PhaseLedger,
    /// Faults injected by the [`crate::ChaosConfig`] schedule (all zero
    /// when chaos is disabled).
    pub chaos: ChaosCounters,
    /// Per-tenant ledger of [`crate::Service`] submissions.
    pub tenants: TenantTable,
}

impl EngineStats {
    /// Fraction of plan lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of workspace checkouts that reused a pooled arena.
    pub fn pool_reuse_rate(&self) -> f64 {
        if self.pool_checkouts == 0 {
            0.0
        } else {
            self.pool_reuses as f64 / self.pool_checkouts as f64
        }
    }

    /// Mean flushed batch size (requests per coalesced traversal).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Fold another snapshot into this one, summing every counter,
    /// histogram bucket, ledger phase and tenant row. The service uses
    /// this to aggregate per-shard ledgers into one view.
    pub fn merge(&mut self, other: &EngineStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.pool_checkouts += other.pool_checkouts;
        self.pool_reuses += other.pool_reuses;
        self.requests += other.requests;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        if self.batch_histogram.len() < other.batch_histogram.len() {
            self.batch_histogram.resize(other.batch_histogram.len(), 0);
        }
        for (i, n) in other.batch_histogram.iter().enumerate() {
            self.batch_histogram[i] += n;
        }
        self.rejected_overload += other.rejected_overload;
        self.rejected_deadline += other.rejected_deadline;
        self.results_evicted += other.results_evicted;
        self.plan_build_sim_ms += other.plan_build_sim_ms;
        self.exec_sim_ms += other.exec_sim_ms;
        self.spgemm_symbolic_builds += other.spgemm_symbolic_builds;
        self.spgemm_numeric_execs += other.spgemm_numeric_execs;
        self.spgemm_symbolic_sim_ms += other.spgemm_symbolic_sim_ms;
        self.spgemm_numeric_sim_ms += other.spgemm_numeric_sim_ms;
        self.spgemm_symbolic_host_ms += other.spgemm_symbolic_host_ms;
        self.spgemm_numeric_host_ms += other.spgemm_numeric_host_ms;
        self.value_updates += other.value_updates;
        self.delta_applies += other.delta_applies;
        self.delta_fallbacks += other.delta_fallbacks;
        self.totals.add(&other.totals);
        self.phases.merge(&other.phases);
        self.chaos.pool_exhaustions += other.chaos.pool_exhaustions;
        self.chaos.cache_storms += other.chaos.cache_storms;
        self.chaos.forced_deadline_expiries += other.chaos.forced_deadline_expiries;
        self.chaos.forced_rejections += other.chaos.forced_rejections;
        self.tenants.merge(&other.tenants);
    }

    pub(crate) fn record_batch(&mut self, size: usize) {
        self.batches += 1;
        self.batched_requests += size as u64;
        if self.batch_histogram.len() <= size {
            self.batch_histogram.resize(size + 1, 0);
        }
        self.batch_histogram[size] += 1;
    }

    /// Multi-line human-readable summary (used by the serving bench and
    /// the README example).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan cache    {} hits / {} misses ({:.1}% hit rate), {} evictions\n",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.cache_evictions,
        ));
        out.push_str(&format!(
            "workspaces    {} checkouts, {:.1}% reused\n",
            self.pool_checkouts,
            100.0 * self.pool_reuse_rate(),
        ));
        out.push_str(&format!(
            "requests      {} completed, {} rejected (overload), {} expired (deadline), {} unclaimed aged out\n",
            self.requests, self.rejected_overload, self.rejected_deadline, self.results_evicted,
        ));
        let hist: Vec<String> = self
            .batch_histogram
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(s, &n)| format!("{s}x{n}"))
            .collect();
        out.push_str(&format!(
            "batches       {} traversals, mean size {:.2}, histogram [{}]\n",
            self.batches,
            self.mean_batch_size(),
            hist.join(" "),
        ));
        out.push_str(&format!(
            "sim time      {:.3} ms exec + {:.3} ms plan build\n",
            self.exec_sim_ms, self.plan_build_sim_ms,
        ));
        if self.spgemm_symbolic_builds + self.spgemm_numeric_execs > 0 {
            out.push_str(&format!(
                "spgemm        {} symbolic builds / {} numeric execs, symbolic {:.3} ms sim ({:.3} ms host), numeric {:.3} ms sim ({:.3} ms host)\n",
                self.spgemm_symbolic_builds,
                self.spgemm_numeric_execs,
                self.spgemm_symbolic_sim_ms,
                self.spgemm_symbolic_host_ms,
                self.spgemm_numeric_sim_ms,
                self.spgemm_numeric_host_ms,
            ));
        }
        if self.value_updates + self.delta_applies + self.delta_fallbacks > 0 {
            out.push_str(&format!(
                "mutations     {} value updates, {} deltas applied, {} delta fallbacks (full rebuild)\n",
                self.value_updates, self.delta_applies, self.delta_fallbacks,
            ));
        }
        out.push_str(&format!(
            "dram          {} B read, {} B written, {} B wide, {} transactions\n",
            self.totals.dram_read_bytes,
            self.totals.dram_write_bytes,
            self.totals.dram_wide_bytes,
            self.totals.dram_transactions,
        ));
        if self.chaos.total() > 0 {
            out.push_str(&format!(
                "chaos         {} faults injected: {} pool exhaustions, {} cache storms, {} forced expiries, {} forced rejections\n",
                self.chaos.total(),
                self.chaos.pool_exhaustions,
                self.chaos.cache_storms,
                self.chaos.forced_deadline_expiries,
                self.chaos.forced_rejections,
            ));
        }
        if !self.tenants.is_empty() {
            out.push('\n');
            out.push_str(&self.tenants.render());
        }
        if !self.phases.is_empty() {
            out.push('\n');
            out.push_str(&self.phases.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_stats() {
        let s = EngineStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.pool_reuse_rate(), 0.0);
        assert_eq!(s.mean_batch_size(), 0.0);
    }

    #[test]
    fn histogram_grows_to_largest_batch() {
        let mut s = EngineStats::default();
        s.record_batch(3);
        s.record_batch(3);
        s.record_batch(1);
        assert_eq!(s.batch_histogram, vec![0, 1, 0, 2]);
        assert_eq!(s.batches, 3);
        assert_eq!(s.batched_requests, 7);
        assert!((s.mean_batch_size() - 7.0 / 3.0).abs() < 1e-12);
        let r = s.render();
        assert!(r.contains("1x1 3x2"), "{r}");
    }

    #[test]
    fn tenant_table_records_merges_and_renders() {
        let (a, b) = (TenantId(1), TenantId(2));
        let mut t = TenantTable::default();
        t.record_request(a, true);
        t.record_request(a, false);
        t.record_overload(b);
        t.record_deadline_miss(a);
        assert_eq!(t.get(a).requests, 2);
        assert_eq!(t.get(a).hits, 1);
        assert!((t.get(a).hit_rate() - 0.5).abs() < 1e-15);
        assert_eq!(t.get(b).overloads, 1);
        assert_eq!(t.get(TenantId(99)), TenantCounters::default());
        assert_eq!(t.total_requests(), 2);

        let mut u = TenantTable::default();
        u.record_request(b, true);
        u.merge(&t);
        assert_eq!(u.get(a).requests, 2);
        assert_eq!(u.get(b).requests, 1);

        let r = u.render();
        assert!(r.contains("tenant#1"), "{r}");
        assert!(r.contains("deadline_misses"), "{r}");

        let mut s = EngineStats::default();
        assert!(!s.render().contains("tenant#"));
        s.tenants = u;
        assert!(s.render().contains("tenant#2"));
    }

    #[test]
    fn merge_sums_counters_histograms_and_tenants() {
        let mut a = EngineStats::default();
        a.record_batch(2);
        a.cache_hits = 3;
        a.exec_sim_ms = 1.5;
        a.tenants.record_request(TenantId(0), true);
        let mut b = EngineStats::default();
        b.record_batch(4);
        b.record_batch(2);
        b.cache_hits = 2;
        b.exec_sim_ms = 0.5;
        b.chaos.cache_storms = 1;
        b.tenants.record_request(TenantId(0), false);
        a.merge(&b);
        assert_eq!(a.cache_hits, 5);
        assert_eq!(a.batches, 3);
        assert_eq!(a.batch_histogram, vec![0, 0, 2, 0, 1]);
        assert!((a.exec_sim_ms - 2.0).abs() < 1e-12);
        assert_eq!(a.chaos.cache_storms, 1);
        assert_eq!(a.tenants.get(TenantId(0)).requests, 2);
        assert_eq!(a.tenants.get(TenantId(0)).hits, 1);
    }

    #[test]
    fn render_appends_the_phase_table_once_charged() {
        use mps_simt::Phase;
        let mut s = EngineStats::default();
        assert!(!s.render().contains("% of total"));
        s.phases.charge(Phase::Partition, 0.5, 1024);
        s.phases.charge(Phase::Reduction, 1.5, 4096);
        let r = s.render();
        assert!(r.contains("% of total"), "{r}");
        assert!(r.contains("Partition"), "{r}");
        assert!(r.contains("Reduction"), "{r}");
    }
}
