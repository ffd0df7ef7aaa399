//! Deterministic seeded fault injection.
//!
//! Chaos mode makes the engine's rare paths — pool exhaustion, cache
//! eviction storms, deadline expiry, admission rejection — reproducible
//! test fixtures instead of timing accidents. Every fault decision is a
//! Bernoulli draw from one SplitMix64 stream seeded by
//! [`ChaosConfig::seed`], and draws are consumed in the engine's
//! deterministic processing order (a [`crate::Service`] shard's flush
//! hands requests over in drain order and serves them in first-arrival
//! order per matrix), so a `(seed, probabilities)` pair replays the
//! identical fault schedule on every run.
//!
//! Injection points (all no-ops at the default zero probabilities):
//!
//! * **pool exhaustion** — a workspace checkout finds the pool forcibly
//!   drained and its prewarm marks reset, so the execution pays the cold
//!   allocation path;
//! * **cache eviction storm** — a plan lookup finds the whole LRU cleared
//!   and must rebuild, as if capacity pressure evicted everything;
//! * **deadline expiry** — a deadline-carrying request is treated as
//!   expired as its flush group forms, regardless of wall clock
//!   ([`crate::EngineError::DeadlineExceeded`]);
//! * **admission rejection** — a request handed to the engine by a
//!   flush is refused with [`crate::EngineError::Overloaded`] regardless
//!   of its tenant's quota.
//!
//! Faults churn resources and surface typed errors; they never corrupt a
//! successful result. A request that completes under chaos returns bits
//! identical to the same request on a chaos-free engine — the conformance
//! suite asserts exactly that.

/// Fault-injection probabilities and the seed that schedules them.
/// All-zero (the default) disables every injection point.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the fault-decision stream.
    pub seed: u64,
    /// Probability a workspace checkout hits a forcibly exhausted pool.
    pub pool_exhaust_p: f64,
    /// Probability a plan-cache lookup is preceded by a full eviction
    /// storm (every cached plan dropped).
    pub cache_storm_p: f64,
    /// Probability a deadline-carrying request is expired at flush
    /// regardless of wall clock. Requests without deadlines are immune.
    pub deadline_expiry_p: f64,
    /// Probability a request is refused with `Overloaded` when a flush
    /// hands it to the engine, regardless of its tenant's quota.
    pub reject_submit_p: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            pool_exhaust_p: 0.0,
            cache_storm_p: 0.0,
            deadline_expiry_p: 0.0,
            reject_submit_p: 0.0,
        }
    }
}

impl ChaosConfig {
    /// Whether any injection point can fire.
    pub fn enabled(&self) -> bool {
        self.pool_exhaust_p > 0.0
            || self.cache_storm_p > 0.0
            || self.deadline_expiry_p > 0.0
            || self.reject_submit_p > 0.0
    }

    /// All probabilities must be finite and within `[0, 1]`.
    pub(crate) fn is_valid(&self) -> bool {
        [
            self.pool_exhaust_p,
            self.cache_storm_p,
            self.deadline_expiry_p,
            self.reject_submit_p,
        ]
        .iter()
        .all(|p| p.is_finite() && (0.0..=1.0).contains(p))
    }
}

/// Counters for every fault the chaos layer actually injected, kept in
/// [`crate::EngineStats`] so tests can assert the schedule fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Workspace checkouts that hit a forced pool exhaustion.
    pub pool_exhaustions: u64,
    /// Plan lookups that hit a forced full-cache eviction storm.
    pub cache_storms: u64,
    /// Deadline-carrying requests forcibly expired at flush.
    pub forced_deadline_expiries: u64,
    /// Requests forcibly refused with `Overloaded` at flush.
    pub forced_rejections: u64,
}

impl ChaosCounters {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.pool_exhaustions
            + self.cache_storms
            + self.forced_deadline_expiries
            + self.forced_rejections
    }
}

/// The SplitMix64 fault-decision stream.
#[derive(Debug)]
pub(crate) struct ChaosState {
    state: u64,
}

impl ChaosState {
    pub fn new(seed: u64) -> ChaosState {
        ChaosState { state: seed }
    }

    fn next_unit(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One Bernoulli draw. A zero probability consumes nothing, so
    /// disabled injection points never perturb the stream the enabled
    /// ones replay from.
    pub fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.next_unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let c = ChaosConfig::default();
        assert!(!c.enabled());
        assert!(c.is_valid());
    }

    #[test]
    fn probabilities_outside_unit_interval_are_invalid() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let c = ChaosConfig {
                cache_storm_p: bad,
                ..ChaosConfig::default()
            };
            assert!(!c.is_valid(), "{bad} should be rejected");
        }
    }

    #[test]
    fn same_seed_replays_the_same_decisions() {
        let mut a = ChaosState::new(42);
        let mut b = ChaosState::new(42);
        let da: Vec<bool> = (0..200).map(|_| a.roll(0.3)).collect();
        let db: Vec<bool> = (0..200).map(|_| b.roll(0.3)).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&x| x) && da.iter().any(|&x| !x));
    }

    #[test]
    fn zero_probability_consumes_no_draws() {
        let mut a = ChaosState::new(7);
        let mut b = ChaosState::new(7);
        for _ in 0..10 {
            assert!(!a.roll(0.0));
        }
        // `a` drew nothing, so the next real draws line up with `b`'s.
        let da: Vec<bool> = (0..50).map(|_| a.roll(0.5)).collect();
        let db: Vec<bool> = (0..50).map(|_| b.roll(0.5)).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn certain_probability_always_fires() {
        let mut s = ChaosState::new(3);
        assert!((0..100).all(|_| s.roll(1.0)));
    }
}
