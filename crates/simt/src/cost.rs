//! Cost counters and the cycle model.
//!
//! Every CTA accumulates a [`Counters`] record while it runs. Primitives in
//! [`crate::block`] and memory helpers on [`crate::Cta`] charge these
//! counters; the [`CostModel`] then turns one CTA's counters into a cycle
//! estimate:
//!
//! ```text
//! compute = (alu_ops / warp_size) * issue_cpi  +  shmem_ops / shmem_lanes
//! memory  = dram_transactions * tx_bytes / bytes_per_cycle_per_sm
//! cycles  = max(compute, memory) + syncs * sync_cost + launch_overhead
//! ```
//!
//! The `max` models latency hiding: a memory-bound CTA overlaps its compute
//! with outstanding loads (the device is throughput-oriented, Garland &
//! Kirk 2010). Barriers and launch overhead are additive because nothing
//! overlaps them.

use crate::device::DeviceProps;

/// Size in bytes of one DRAM transaction (a coalesced 128-byte segment).
pub const TX_BYTES: u64 = 128;

/// Per-CTA event counters. All counts are totals over the CTA's threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Bytes read from global memory (useful payload).
    pub dram_read_bytes: u64,
    /// Bytes written to global memory (useful payload).
    pub dram_write_bytes: u64,
    /// 128-byte DRAM transactions issued (≥ payload/128 when uncoalesced).
    pub dram_transactions: u64,
    /// Payload bytes moved by *wide* accesses (each lane touching a run of
    /// consecutive elements, e.g. a dense column-tile row). Subset of the
    /// read/write byte totals; tracked separately so tiled multi-vector
    /// kernels are priced distinctly from repeated narrow gathers.
    pub dram_wide_bytes: u64,
    /// Shared-memory accesses (one per thread per load/store).
    pub shmem_ops: u64,
    /// Arithmetic/logic thread-operations.
    pub alu_ops: u64,
    /// Block-wide barriers.
    pub syncs: u64,
}

impl Counters {
    pub fn add(&mut self, other: &Counters) {
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.dram_transactions += other.dram_transactions;
        self.dram_wide_bytes += other.dram_wide_bytes;
        self.shmem_ops += other.shmem_ops;
        self.alu_ops += other.alu_ops;
        self.syncs += other.syncs;
    }

    /// Total useful DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// Constants converting counters to cycles. Derived from device properties
/// once at construction so the conversion itself is branch-free.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// SIMD width used to convert thread-ops to warp instructions.
    pub warp_size: u64,
    /// Issue cycles per warp instruction.
    pub issue_cpi: f64,
    /// Shared-memory lanes serviced per cycle (bank throughput).
    pub shmem_lanes: f64,
    /// DRAM bytes one SM consumes per cycle.
    pub bytes_per_cycle: f64,
    /// Cycles charged per block-wide barrier.
    pub sync_cost: u64,
    /// Fixed per-CTA cycles (scheduling / prologue).
    pub launch_overhead: u64,
}

impl CostModel {
    pub fn for_props(props: &DeviceProps) -> Self {
        CostModel {
            warp_size: props.warp_size as u64,
            // Kepler-class cores do not sustain one warp instruction per
            // cycle on dependent arithmetic: dependency stalls and low ILP
            // push the effective CPI toward 3.
            issue_cpi: 3.0,
            // Average effective shared-memory lanes after bank conflicts.
            shmem_lanes: 24.0,
            bytes_per_cycle: props.bytes_per_cycle_per_sm(),
            sync_cost: 30,
            launch_overhead: 400,
        }
    }

    /// Cycle estimate for one CTA's accumulated counters.
    pub fn cta_cycles(&self, c: &Counters) -> u64 {
        let compute = (c.alu_ops as f64 / self.warp_size as f64) * self.issue_cpi
            + c.shmem_ops as f64 / self.shmem_lanes;
        let memory = c.dram_transactions as f64 * TX_BYTES as f64 / self.bytes_per_cycle;
        let overlap = compute.max(memory);
        overlap.ceil() as u64 + c.syncs * self.sync_cost + self.launch_overhead
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::for_props(&DeviceProps::default())
    }
}

/// Analytic description of one SpMV launch in some storage format: enough
/// for [`CostModel::predict_spmv`] to price the launch *without running
/// it*. A format advisor derives one of these per candidate format from
/// row-length statistics alone (no conversion, no kernel), then compares
/// predicted cycles. All totals are launch-wide; the model divides by the
/// CTA count itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmvWorkload {
    /// CTAs the launch would use.
    pub ctas: u64,
    /// Perfectly coalesced payload bytes (matrix entries, pointers,
    /// output stores) for the whole launch.
    pub streamed_bytes: u64,
    /// Data-dependent accesses (the `x` gather, permutation scatters),
    /// priced pessimistically at one transaction each — the same worst
    /// case for every format, so it cancels out of comparisons except
    /// through padding (padded formats gather fewer useful elements per
    /// stored slot, not fewer per nonzero).
    pub gathers: u64,
    /// Arithmetic thread-operations for the whole launch.
    pub alu_ops: u64,
    /// Shared-memory accesses for the whole launch.
    pub shmem_ops: u64,
    /// Block-wide barriers for the whole launch.
    pub syncs: u64,
    /// Work of the busiest CTA as a multiple of the mean (≥ 1). Flat
    /// decompositions are 1.0 by construction; row-split formats inherit
    /// the row-length skew here, which is exactly what the makespan
    /// scheduler punishes.
    pub imbalance: f64,
}

impl CostModel {
    /// Predicted device cycles for an SpMV launch described by `w`, with
    /// `concurrent_ctas` CTA slots across the chip (SMs × CTAs per SM).
    /// Mirrors the launch machinery: per-CTA cycles from the mean
    /// counters via the [`CostModel`] formula, one wave per filled slot
    /// set, and the busiest CTA stretching the makespan by `imbalance`.
    pub fn predict_spmv(&self, w: &SpmvWorkload, concurrent_ctas: u64) -> f64 {
        let ctas = w.ctas.max(1) as f64;
        let tx = (w.streamed_bytes.div_ceil(TX_BYTES) + w.gathers) as f64;
        let memory = tx * TX_BYTES as f64 / self.bytes_per_cycle / ctas;
        let compute = (w.alu_ops as f64 / ctas / self.warp_size as f64) * self.issue_cpi
            + w.shmem_ops as f64 / ctas / self.shmem_lanes;
        let per_cta = compute.max(memory)
            + (w.syncs as f64 / ctas) * self.sync_cost as f64
            + self.launch_overhead as f64;
        let waves = (ctas / concurrent_ctas.max(1) as f64).ceil();
        waves * per_cta * w.imbalance.max(1.0)
    }
}

/// Number of 128-byte transactions needed for `bytes` of perfectly
/// coalesced traffic.
pub fn coalesced_transactions(bytes: u64) -> u64 {
    bytes.div_ceil(TX_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_accumulates_all_fields() {
        let mut a = Counters {
            dram_read_bytes: 1,
            dram_write_bytes: 2,
            dram_transactions: 3,
            dram_wide_bytes: 7,
            shmem_ops: 4,
            alu_ops: 5,
            syncs: 6,
        };
        a.add(&a.clone());
        assert_eq!(a.dram_read_bytes, 2);
        assert_eq!(a.syncs, 12);
        assert_eq!(a.dram_wide_bytes, 14);
        assert_eq!(a.dram_bytes(), 6);
    }

    #[test]
    fn memory_bound_cta_is_charged_for_transactions() {
        let model = CostModel::default();
        let light_compute = Counters {
            dram_transactions: 1000,
            alu_ops: 32, // one warp instruction
            ..Default::default()
        };
        let cycles = model.cta_cycles(&light_compute);
        let expected_mem = (1000.0 * TX_BYTES as f64 / model.bytes_per_cycle).ceil() as u64;
        assert_eq!(cycles, expected_mem + model.launch_overhead);
    }

    #[test]
    fn compute_bound_cta_is_charged_for_alu() {
        let model = CostModel::default();
        let heavy_compute = Counters {
            alu_ops: 32_000_000,
            dram_transactions: 1,
            ..Default::default()
        };
        let cycles = model.cta_cycles(&heavy_compute);
        assert!(cycles >= 1_000_000, "ALU work should dominate: {cycles}");
    }

    #[test]
    fn predicted_spmv_punishes_imbalance_and_barriers() {
        let model = CostModel::default();
        let base = SpmvWorkload {
            ctas: 64,
            streamed_bytes: 1 << 20,
            gathers: 10_000,
            alu_ops: 200_000,
            shmem_ops: 50_000,
            syncs: 128,
            imbalance: 1.0,
        };
        let flat = model.predict_spmv(&base, 32);
        let skewed = model.predict_spmv(
            &SpmvWorkload {
                imbalance: 4.0,
                ..base
            },
            32,
        );
        assert!(
            skewed > 3.0 * flat,
            "skew must dominate: {skewed} vs {flat}"
        );
        // One more barrier per CTA (a look-back's spin) costs one barrier
        // per wave.
        let spun = model.predict_spmv(
            &SpmvWorkload {
                syncs: base.syncs + base.ctas,
                ..base
            },
            32,
        );
        assert_eq!(spun, flat + 2.0 * model.sync_cost as f64);
    }

    #[test]
    fn predicted_spmv_scales_with_padding_bytes() {
        let model = CostModel::default();
        let lean = SpmvWorkload {
            ctas: 16,
            streamed_bytes: 1 << 22,
            gathers: 10_000,
            alu_ops: 300_000,
            shmem_ops: 0,
            syncs: 0,
            imbalance: 1.0,
        };
        let padded = SpmvWorkload {
            streamed_bytes: 4 << 22,
            ..lean
        };
        assert!(model.predict_spmv(&padded, 32) > 2.0 * model.predict_spmv(&lean, 32));
    }

    #[test]
    fn coalesced_transaction_count_rounds_up() {
        assert_eq!(coalesced_transactions(0), 0);
        assert_eq!(coalesced_transactions(1), 1);
        assert_eq!(coalesced_transactions(128), 1);
        assert_eq!(coalesced_transactions(129), 2);
    }
}
