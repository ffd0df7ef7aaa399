//! Engine tuning and its validating builder.

use mps_core::SpmmConfig;

use crate::{ChaosConfig, EngineError};

/// Engine tuning. Every plan the engine builds uses its kernel's default
/// config; the SpMV and SpMM defaults share merge granularity
/// (`nv = block_threads * items_per_thread`), which is what makes a
/// batched SpMM column bitwise equal to the standalone SpMV it replaces.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Plans kept live in the LRU cache.
    pub(crate) plan_capacity: usize,
    /// Output-column budget per coalesced traversal: a flushed group's
    /// payloads (one column per SpMV submission, `x.cols` per SpMM
    /// submission) are packed until the next request would exceed this
    /// many columns. Defaults to the SpMM column tile width, so a full
    /// batch is exactly one reduction+update launch pair. A single
    /// request wider than the budget still runs (alone).
    pub(crate) max_batch: usize,
    /// Unclaimed results (and deadline expiries) are dropped from a
    /// [`crate::Service`] shard's completion store once this many flushes have
    /// run after the one that resolved them, counted in
    /// [`crate::EngineStats::results_evicted`]. Bounds the store's growth when
    /// callers drop tickets without redeeming them.
    pub(crate) result_ttl_flushes: u64,
    /// Pattern-delta size cutoff for [`crate::Service::submit_delta`], as a
    /// fraction of the target matrix's nonzeros. A delta with more
    /// entries than `ceil(threshold * nnz)` skips the balanced-path
    /// union patch and falls back to a full COO rebuild (and therefore a
    /// full replan on next use) — past that size the union walk no
    /// longer beats rebuilding outright.
    pub(crate) delta_replan_threshold: f64,
    /// Seeded deterministic fault injection (disabled by default). See
    /// [`ChaosConfig`] for the injection points and their replay
    /// guarantees.
    pub(crate) chaos: ChaosConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            plan_capacity: 32,
            max_batch: SpmmConfig::default().tile(),
            result_ttl_flushes: 1024,
            delta_replan_threshold: 0.25,
            chaos: ChaosConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Start a validating builder seeded with the defaults. This is the
    /// only way to construct a config: fields are private, so every
    /// [`EngineConfig`] in the program has passed [`validate`].
    ///
    /// [`validate`]: EngineConfig::validate
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Plans kept live in the LRU cache.
    pub fn plan_capacity(&self) -> usize {
        self.plan_capacity
    }

    /// Output-column budget per coalesced traversal.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Flushes an unclaimed result survives before aging out.
    pub fn result_ttl_flushes(&self) -> u64 {
        self.result_ttl_flushes
    }

    /// Delta-size fraction past which [`crate::Service::submit_delta`] rebuilds
    /// instead of patching.
    pub fn delta_replan_threshold(&self) -> f64 {
        self.delta_replan_threshold
    }

    /// Seeded deterministic fault injection.
    pub fn chaos(&self) -> &ChaosConfig {
        &self.chaos
    }

    /// Check the invariants a [`crate::Service`] shard relies on.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.plan_capacity == 0 {
            return Err(EngineError::InvalidConfig(
                "plan_capacity must be at least 1",
            ));
        }
        if self.max_batch == 0 {
            return Err(EngineError::InvalidConfig("max_batch must be at least 1"));
        }
        if self.result_ttl_flushes == 0 {
            return Err(EngineError::InvalidConfig(
                "result_ttl_flushes must be at least 1",
            ));
        }
        if !self.delta_replan_threshold.is_finite() || self.delta_replan_threshold <= 0.0 {
            return Err(EngineError::InvalidConfig(
                "delta_replan_threshold must be a finite fraction above zero",
            ));
        }
        if !self.chaos.is_valid() {
            return Err(EngineError::InvalidConfig(
                "chaos probabilities must be finite and within [0, 1]",
            ));
        }
        Ok(())
    }
}

/// Validating builder for [`EngineConfig`]: [`EngineConfigBuilder::build`]
/// rejects zero capacities, a non-positive delta threshold and
/// out-of-range chaos probabilities with a typed
/// [`EngineError::InvalidConfig`] instead of panicking later at service
/// construction.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Plans kept live in the LRU cache.
    pub fn plan_capacity(mut self, n: usize) -> Self {
        self.cfg.plan_capacity = n;
        self
    }

    /// Output-column budget per coalesced traversal
    /// ([`EngineConfig::max_batch`]).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// Flushes an unclaimed result survives before aging out.
    pub fn result_ttl_flushes(mut self, n: u64) -> Self {
        self.cfg.result_ttl_flushes = n;
        self
    }

    /// Delta-size fraction past which [`crate::Service::submit_delta`] falls back
    /// to a full rebuild ([`EngineConfig::delta_replan_threshold`]).
    pub fn delta_replan_threshold(mut self, f: f64) -> Self {
        self.cfg.delta_replan_threshold = f;
        self
    }

    /// Seeded deterministic fault injection ([`EngineConfig::chaos`]).
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.cfg.chaos = chaos;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use mps_core::{SpmmConfig, SpmvConfig};

    /// A batched SpMM column is bitwise the SpMV it replaces only while
    /// both kernels' defaults cut the merge path at the same granularity.
    #[test]
    fn spmv_and_spmm_defaults_share_merge_granularity() {
        assert_eq!(SpmvConfig::default().nv(), SpmmConfig::default().nv());
    }
}
