//! Fingerprint-keyed LRU cache of built plans.
//!
//! The merge-path plan/execute split charges every structure-dependent
//! phase (partitioning, balanced-path search, sort rank construction) at
//! plan-build time. Two matrices with the same
//! [`mps_sparse::CsrMatrix::pattern_fingerprint`] share all of that
//! structure, so one plan serves every request carrying the pattern. The
//! cache is bounded: beyond capacity the least-recently-used plan is
//! dropped (plans are `Arc`-shared, so in-flight executions keep theirs
//! alive).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use mps_core::{SpgemmPlan, SpmmPlan, SpmvPlan};
use mps_simt::{LaunchStats, Phase};

use crate::stats::EngineStats;

/// What a cached plan is keyed on. SpMM plans additionally carry their
/// operand width `k` because the tile loop count is baked in at build.
/// SpGEMM plans key on both operand fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanKey {
    Spmv { pattern: u64 },
    Spmm { pattern: u64, k: usize },
    Spgemm { a: u64, b: u64 },
}

/// The kernel family a [`CachedPlan`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanKind {
    Spmv,
    Spmm,
    Spgemm,
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PlanKind::Spmv => "SpMV",
            PlanKind::Spmm => "SpMM",
            PlanKind::Spgemm => "SpGEMM",
        };
        f.write_str(name)
    }
}

/// A plan of any of the three served kernel types, shared out of the
/// cache.
#[derive(Debug, Clone)]
pub(crate) enum CachedPlan {
    Spmv(Arc<SpmvPlan>),
    Spmm(Arc<SpmmPlan>),
    Spgemm(Arc<SpgemmPlan>),
}

impl CachedPlan {
    pub fn kind(&self) -> PlanKind {
        match self {
            CachedPlan::Spmv(_) => PlanKind::Spmv,
            CachedPlan::Spmm(_) => PlanKind::Spmm,
            CachedPlan::Spgemm(_) => PlanKind::Spgemm,
        }
    }

    /// Charge a freshly built plan's structure phases to the stats. This
    /// is the single place that knows what each plan kind pays at build
    /// time: the generic cache-miss path calls it instead of every
    /// lookup site matching on the variant. `host` is the wall-clock
    /// build duration (only the SpGEMM symbolic split reports it).
    pub(crate) fn charge_build(&self, stats: &mut EngineStats, host: Duration) {
        match self {
            CachedPlan::Spmv(p) => {
                charge_partition_build(stats, p.build_sim_ms(), &p.partition, &p.fixup)
            }
            CachedPlan::Spmm(p) => {
                charge_partition_build(stats, p.build_sim_ms(), &p.partition, &p.fixup)
            }
            CachedPlan::Spgemm(p) => {
                stats.plan_build_sim_ms += p.symbolic_ms();
                stats.spgemm_symbolic_builds += 1;
                stats.spgemm_symbolic_sim_ms += p.symbolic_ms();
                stats.spgemm_symbolic_host_ms += host.as_secs_f64() * 1e3;
                stats.totals.add(&p.symbolic_launch_stats().totals);
                stats.phases.merge(p.symbolic_ledger());
            }
        }
    }

    pub(crate) fn expect_spmv(self) -> Arc<SpmvPlan> {
        match self {
            CachedPlan::Spmv(p) => p,
            other => panic!(
                "plan cache key mismatch: expected SpMV, found {}",
                other.kind()
            ),
        }
    }

    pub(crate) fn expect_spmm(self) -> Arc<SpmmPlan> {
        match self {
            CachedPlan::Spmm(p) => p,
            other => panic!(
                "plan cache key mismatch: expected SpMM, found {}",
                other.kind()
            ),
        }
    }

    pub(crate) fn expect_spgemm(self) -> Arc<SpgemmPlan> {
        match self {
            CachedPlan::Spgemm(p) => p,
            other => panic!(
                "plan cache key mismatch: expected SpGEMM, found {}",
                other.kind()
            ),
        }
    }
}

/// SpMV and SpMM plans share a build shape: a merge-path partition plus
/// an optional empty-row compaction pass.
fn charge_partition_build(
    stats: &mut EngineStats,
    build_sim_ms: f64,
    partition: &LaunchStats,
    fixup: &LaunchStats,
) {
    stats.plan_build_sim_ms += build_sim_ms;
    stats.phases.charge(
        Phase::Partition,
        partition.sim_ms,
        partition.totals.dram_bytes(),
    );
    if fixup.sim_ms > 0.0 {
        stats.phases.charge(
            Phase::EmptyRowFixup,
            fixup.sim_ms,
            fixup.totals.dram_bytes(),
        );
    }
}

struct Entry {
    plan: CachedPlan,
    last_used: u64,
}

/// Bounded LRU map from [`PlanKey`] to built plans.
pub(crate) struct PlanCache {
    entries: HashMap<PlanKey, Entry>,
    capacity: usize,
    tick: u64,
}

/// Result of a cache lookup: the plan plus whether it was already present.
pub(crate) struct Lookup {
    pub plan: CachedPlan,
    pub hit: bool,
    pub evicted: bool,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "plan cache needs room for at least one plan");
        PlanCache {
            entries: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    /// Fetch the plan under `key`, building it with `build` on a miss.
    /// Every access refreshes the entry's recency; an insert beyond
    /// capacity evicts the least recently used entry first.
    pub fn get_or_insert_with(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> CachedPlan,
    ) -> Lookup {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = self.tick;
            return Lookup {
                plan: e.plan.clone(),
                hit: true,
                evicted: false,
            };
        }
        let mut evicted = false;
        if self.entries.len() >= self.capacity {
            // O(n) scan is fine: capacity is small (plans are big).
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty cache at capacity");
            self.entries.remove(&lru);
            evicted = true;
        }
        let plan = build();
        self.entries.insert(
            key,
            Entry {
                plan: plan.clone(),
                last_used: self.tick,
            },
        );
        Lookup {
            plan,
            hit: false,
            evicted,
        }
    }

    /// Chaos hook: drop every cached plan at once (an eviction storm).
    /// Returns the number of plans dropped.
    pub fn clear(&mut self) -> usize {
        let dropped = self.entries.len();
        self.entries.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::SpmvConfig;
    use mps_simt::Device;
    use mps_sparse::CsrMatrix;

    fn spmv_plan(n: usize) -> CachedPlan {
        let device = Device::default();
        let a = CsrMatrix::identity(n);
        CachedPlan::Spmv(Arc::new(SpmvPlan::new(&device, &a, &SpmvConfig::default())))
    }

    #[test]
    fn kind_names_the_variant_and_mismatched_unwrap_panics() {
        let p = spmv_plan(4);
        assert_eq!(p.kind(), PlanKind::Spmv);
        assert_eq!(p.kind().to_string(), "SpMV");
        let r = std::panic::catch_unwind(|| p.expect_spgemm());
        assert!(r.is_err(), "unwrapping the wrong kind must panic");
    }

    #[test]
    fn second_lookup_hits() {
        let mut c = PlanCache::new(4);
        let key = PlanKey::Spmv { pattern: 1 };
        assert!(!c.get_or_insert_with(key, || spmv_plan(4)).hit);
        let l = c.get_or_insert_with(key, || panic!("must not rebuild"));
        assert!(l.hit);
        assert_eq!(c.entries.len(), 1);
    }

    #[test]
    fn distinct_k_are_distinct_entries() {
        let mut c = PlanCache::new(4);
        c.get_or_insert_with(PlanKey::Spmm { pattern: 1, k: 2 }, || spmv_plan(4));
        let l = c.get_or_insert_with(PlanKey::Spmm { pattern: 1, k: 3 }, || spmv_plan(4));
        assert!(!l.hit);
        assert_eq!(c.entries.len(), 2);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut c = PlanCache::new(2);
        let (k1, k2, k3) = (
            PlanKey::Spmv { pattern: 1 },
            PlanKey::Spmv { pattern: 2 },
            PlanKey::Spmv { pattern: 3 },
        );
        c.get_or_insert_with(k1, || spmv_plan(4));
        c.get_or_insert_with(k2, || spmv_plan(4));
        c.get_or_insert_with(k1, || panic!("hit")); // refresh k1 → k2 is LRU
        let l = c.get_or_insert_with(k3, || spmv_plan(4));
        assert!(l.evicted);
        assert_eq!(c.entries.len(), 2);
        assert!(c.get_or_insert_with(k1, || panic!("k1 must survive")).hit);
        assert!(
            !c.get_or_insert_with(k2, || spmv_plan(4)).hit,
            "k2 was evicted"
        );
    }
}
