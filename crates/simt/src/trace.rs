//! Kernel tracing: a per-device log of every launch.
//!
//! Enable with [`crate::Device::with_tracing`]; every named launch appends
//! a [`KernelRecord`]. Each record carries a [`Phase`] label so composite
//! operations can be broken down the way the paper's figures are: SpMV's
//! partition/reduction/update, SpGEMM's symbolic/numeric phases, and so
//! on. The
//! per-kernel report is the `nvprof`-style breakdown used by `mps trace`;
//! [`Tracer::phase_report`] is the phase-attributed view.

use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;

/// Which algorithmic phase a kernel launch belongs to.
///
/// The variants cover the phase taxonomy of all four core kernels plus the
/// solvers' BLAS-1 traffic; launches outside any span are
/// [`Phase::Unattributed`]. The SpGEMM variants cover the paper's six
/// Fig. 9 legend entries (Setup, Block Sort, Global Sort, Product
/// Compute, Product Reduce, Other) plus the two bin-adaptive numeric
/// passes of the symbolic/numeric split (Tiny Scatter, Mid Hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Launch outside any phase span.
    Unattributed,
    /// Merge-path / balanced-path partition searches.
    Partition,
    /// Empty-row compaction of the partition descriptor (SpMV's adaptive
    /// "slightly slower method").
    EmptyRowFixup,
    /// SpMV per-CTA segmented reduction (a plan's folds its carries by
    /// look-back).
    Reduction,
    /// The paper's separate SpMV carry fix-up launch. Only the one-shot
    /// SpMV issues one; planned SpMV and SpMM fold their carries inside
    /// the reduction.
    Update,
    /// Column-tiled SpMM traversal (one single-pass launch per tile).
    TileTraversal,
    /// SpAdd COO key expansion.
    Expand,
    /// SpAdd balanced-path count pass.
    Count,
    /// SpAdd balanced-path fill pass.
    Fill,
    /// SpGEMM setup (expansion sizing).
    Setup,
    /// SpGEMM per-block sort.
    BlockSort,
    /// SpGEMM global radix sort + rank inversion.
    GlobalSort,
    /// SpGEMM product expansion.
    ProductCompute,
    /// SpGEMM duplicate reduction.
    ProductReduce,
    /// SpGEMM numeric pass over tiny-binned rows (dense-accumulator
    /// scatter, à la OpSparse's smallest bins).
    NumericTiny,
    /// SpGEMM numeric pass over mid-binned rows (hash-based reduction).
    NumericMid,
    /// SpGEMM remaining work (CSR assembly).
    Other,
    /// Solver BLAS-1 streaming ops (dot/axpy/norm and block variants).
    Blas1,
    /// CMRS strip-interleaved SpMV (row-split format zoo).
    CmrsStrip,
    /// SELL-C-σ sliced-ELL SpMV/SpMM (row-split format zoo).
    SellSlice,
}

impl Phase {
    /// Number of phase variants (ledger array size).
    pub const COUNT: usize = 20;

    /// All variants in ledger order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Unattributed,
        Phase::Partition,
        Phase::EmptyRowFixup,
        Phase::Reduction,
        Phase::Update,
        Phase::TileTraversal,
        Phase::Expand,
        Phase::Count,
        Phase::Fill,
        Phase::Setup,
        Phase::BlockSort,
        Phase::GlobalSort,
        Phase::ProductCompute,
        Phase::ProductReduce,
        Phase::NumericTiny,
        Phase::NumericMid,
        Phase::Other,
        Phase::Blas1,
        Phase::CmrsStrip,
        Phase::SellSlice,
    ];

    /// Stable index into [`Phase::ALL`]-ordered ledgers.
    pub fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).expect("in ALL")
    }

    /// Human-readable label. The SpGEMM variants match the paper's Fig. 9
    /// legend verbatim.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Unattributed => "Unattributed",
            Phase::Partition => "Partition",
            Phase::EmptyRowFixup => "Empty-Row Fixup",
            Phase::Reduction => "Reduction",
            Phase::Update => "Update",
            Phase::TileTraversal => "Tile Traversal",
            Phase::Expand => "Expand",
            Phase::Count => "Count",
            Phase::Fill => "Fill",
            Phase::Setup => "Setup",
            Phase::BlockSort => "Block Sort",
            Phase::GlobalSort => "Global Sort",
            Phase::ProductCompute => "Product Compute",
            Phase::ProductReduce => "Product Reduce",
            Phase::NumericTiny => "Tiny Scatter",
            Phase::NumericMid => "Mid Hash",
            Phase::Other => "Other",
            Phase::Blas1 => "BLAS-1",
            Phase::CmrsStrip => "CMRS Strip",
            Phase::SellSlice => "SELL Slice",
        }
    }

    /// The phase currently in scope on this thread (set by
    /// [`with_phase`] / [`crate::Device::phase_scope`]).
    pub fn current() -> Phase {
        CURRENT_PHASE.with(|c| c.get())
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

thread_local! {
    static CURRENT_PHASE: Cell<Phase> = const { Cell::new(Phase::Unattributed) };
}

/// Run `f` with `phase` as this thread's current phase; launches recorded
/// inside the closure (via the `*_named` launchers) are attributed to it.
/// Scopes nest: the previous phase is restored on exit, including on
/// unwind. Each rayon worker has its own current phase, so launches issued
/// from concurrent host phases need either their own `with_phase` on that
/// thread or the explicit `*_phased` launchers.
pub fn with_phase<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    struct Restore(Phase);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_PHASE.with(|c| c.set(self.0));
        }
    }
    let prev = CURRENT_PHASE.with(|c| c.replace(phase));
    let _restore = Restore(prev);
    f()
}

/// One recorded kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    pub name: &'static str,
    pub phase: Phase,
    pub grid_dim: usize,
    pub block_dim: usize,
    pub makespan_cycles: u64,
    pub sim_ms: f64,
    pub dram_bytes: u64,
}

/// Per-phase accumulator: launches, simulated ms, and DRAM bytes for each
/// [`Phase`]. Used both by [`Tracer::phase_report`] and as the engine's
/// per-phase ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseLedger {
    launches: [u64; Phase::COUNT],
    sim_ms: [f64; Phase::COUNT],
    dram_bytes: [u64; Phase::COUNT],
}

impl Default for PhaseLedger {
    fn default() -> Self {
        PhaseLedger {
            launches: [0; Phase::COUNT],
            sim_ms: [0.0; Phase::COUNT],
            dram_bytes: [0; Phase::COUNT],
        }
    }
}

impl PhaseLedger {
    pub fn new() -> Self {
        PhaseLedger::default()
    }

    /// Charge one launch worth of time and traffic to `phase`.
    pub fn charge(&mut self, phase: Phase, sim_ms: f64, dram_bytes: u64) {
        let i = phase.index();
        self.launches[i] += 1;
        self.sim_ms[i] += sim_ms;
        self.dram_bytes[i] += dram_bytes;
    }

    /// Accumulate another ledger into this one.
    pub fn merge(&mut self, other: &PhaseLedger) {
        for i in 0..Phase::COUNT {
            self.launches[i] += other.launches[i];
            self.sim_ms[i] += other.sim_ms[i];
            self.dram_bytes[i] += other.dram_bytes[i];
        }
    }

    /// Total simulated milliseconds across all phases.
    pub fn total_ms(&self) -> f64 {
        self.sim_ms.iter().sum()
    }

    /// True when nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.launches.iter().all(|&n| n == 0)
    }

    /// Simulated milliseconds charged to one phase.
    pub fn phase_ms(&self, phase: Phase) -> f64 {
        self.sim_ms[phase.index()]
    }

    /// Non-empty entries in [`Phase::ALL`] order.
    pub fn entries(&self) -> Vec<PhaseEntry> {
        let total = self.total_ms().max(f64::MIN_POSITIVE);
        Phase::ALL
            .iter()
            .filter(|p| self.launches[p.index()] > 0)
            .map(|&p| {
                let i = p.index();
                PhaseEntry {
                    phase: p,
                    launches: self.launches[i],
                    sim_ms: self.sim_ms[i],
                    fraction: self.sim_ms[i] / total,
                    dram_gb: self.dram_bytes[i] as f64 / 1e9,
                }
            })
            .collect()
    }

    /// Render the phase table (header + one row per non-empty phase).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "phase                 launches     total ms   % of total      DRAM GB\n\
             ---------------------------------------------------------------------\n",
        );
        for e in self.entries() {
            out.push_str(&format!(
                "{:<20} {:>9} {:>12.4} {:>11.1}% {:>12.4}\n",
                e.phase.as_str(),
                e.launches,
                e.sim_ms,
                100.0 * e.fraction,
                e.dram_gb,
            ));
        }
        out
    }
}

/// One row of a [`PhaseReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEntry {
    pub phase: Phase,
    pub launches: u64,
    pub sim_ms: f64,
    /// Share of the report's total simulated time in `[0, 1]`.
    pub fraction: f64,
    pub dram_gb: f64,
}

/// Phase-attributed aggregate of a tracer's records: per-phase totals,
/// fraction of total time, and DRAM GB. Invariant: the per-phase sim-time
/// entries sum to the tracer's [`Tracer::total_ms`] within 1e-9 (every
/// record carries exactly one phase).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    pub ledger: PhaseLedger,
}

impl PhaseReport {
    /// Total simulated milliseconds across all phases.
    pub fn total_ms(&self) -> f64 {
        self.ledger.total_ms()
    }

    /// Non-empty phase rows in stable [`Phase::ALL`] order.
    pub fn entries(&self) -> Vec<PhaseEntry> {
        self.ledger.entries()
    }

    /// `(label, fraction)` per non-empty phase; fractions sum to 1 for a
    /// non-empty report.
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        self.entries()
            .iter()
            .map(|e| (e.phase.as_str(), e.fraction))
            .collect()
    }

    /// Render the phase table.
    pub fn render(&self) -> String {
        self.ledger.render()
    }
}

/// Thread-safe launch log attached to a device.
#[derive(Debug, Default)]
pub struct Tracer {
    records: Mutex<Vec<KernelRecord>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer::default())
    }

    pub fn record(&self, record: KernelRecord) {
        self.records.lock().push(record);
    }

    /// Snapshot of all records in launch order.
    pub fn records(&self) -> Vec<KernelRecord> {
        self.records.lock().clone()
    }

    /// Drop all records.
    pub fn clear(&self) {
        self.records.lock().clear();
    }

    /// Total simulated milliseconds across all launches.
    pub fn total_ms(&self) -> f64 {
        self.records.lock().iter().map(|r| r.sim_ms).sum()
    }

    /// Aggregate by kernel name: (name, launches, total ms, total DRAM GB),
    /// sorted by descending time.
    pub fn by_kernel(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let records = self.records.lock();
        let mut agg: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for r in records.iter() {
            match agg.iter_mut().find(|(n, ..)| *n == r.name) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += r.sim_ms;
                    entry.3 += r.dram_bytes as f64 / 1e9;
                }
                None => agg.push((r.name, 1, r.sim_ms, r.dram_bytes as f64 / 1e9)),
            }
        }
        agg.sort_by(|a, b| b.2.total_cmp(&a.2));
        agg
    }

    /// Aggregate by phase: (phase, launches, total ms, total DRAM GB), in
    /// [`Phase::ALL`] order, empty phases skipped.
    pub fn by_phase(&self) -> Vec<(Phase, usize, f64, f64)> {
        self.phase_report()
            .entries()
            .iter()
            .map(|e| (e.phase, e.launches as usize, e.sim_ms, e.dram_gb))
            .collect()
    }

    /// Phase-attributed aggregate of every record.
    pub fn phase_report(&self) -> PhaseReport {
        let records = self.records.lock();
        let mut ledger = PhaseLedger::new();
        for r in records.iter() {
            ledger.charge(r.phase, r.sim_ms, r.dram_bytes);
        }
        PhaseReport { ledger }
    }

    /// Render the aggregate table.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "kernel                        launches     total ms      DRAM GB\n\
             -----------------------------------------------------------------\n",
        );
        for (name, launches, ms, gb) in self.by_kernel() {
            out.push_str(&format!("{name:<28} {launches:>9} {ms:>12.4} {gb:>12.4}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{launch_map_named, launch_map_phased, LaunchConfig};
    use crate::Device;
    use rayon::prelude::*;

    #[test]
    fn untraced_device_records_nothing() {
        let dev = Device::titan();
        assert!(dev.tracer.is_none());
        let (_, _) = launch_map_named(&dev, "probe", LaunchConfig::new(4, 32), |cta| cta.alu(1));
        // No tracer, nothing to check beyond not panicking.
    }

    #[test]
    fn traced_device_logs_every_launch() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.as_ref().expect("tracing enabled").clone();
        launch_map_named(&dev, "alpha", LaunchConfig::new(4, 32), |cta| cta.alu(10));
        launch_map_named(&dev, "beta", LaunchConfig::new(2, 64), |cta| {
            cta.read_coalesced(100, 8)
        });
        launch_map_named(&dev, "alpha", LaunchConfig::new(8, 32), |cta| cta.alu(10));
        let records = tracer.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "alpha");
        assert_eq!(records[0].phase, Phase::Unattributed);
        assert_eq!(records[1].grid_dim, 2);
        assert!(records[1].dram_bytes >= 1600);

        let agg = tracer.by_kernel();
        assert_eq!(agg.len(), 2);
        let alpha = agg.iter().find(|(n, ..)| *n == "alpha").expect("present");
        assert_eq!(alpha.1, 2);
        assert!(tracer.total_ms() > 0.0);
    }

    #[test]
    fn report_lists_kernels() {
        let dev = Device::titan().with_tracing();
        launch_map_named(&dev, "gamma", LaunchConfig::new(1, 32), |cta| cta.alu(1));
        let report = dev.tracer.as_ref().expect("tracing").report();
        assert!(report.contains("gamma"));
        assert!(report.contains("launches"));
    }

    #[test]
    fn clear_resets_the_log() {
        let dev = Device::titan().with_tracing();
        launch_map_named(&dev, "delta", LaunchConfig::new(1, 32), |cta| cta.alu(1));
        let tracer = dev.tracer.as_ref().expect("tracing");
        assert_eq!(tracer.records().len(), 1);
        tracer.clear();
        assert!(tracer.records().is_empty());
    }

    #[test]
    fn phase_scope_attributes_launches_and_nests() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.as_ref().expect("tracing").clone();
        dev.phase_scope(Phase::Partition, || {
            launch_map_named(&dev, "search", LaunchConfig::new(2, 32), |cta| cta.alu(5));
            dev.phase_scope(Phase::Reduction, || {
                launch_map_named(&dev, "reduce", LaunchConfig::new(2, 32), |cta| cta.alu(5));
            });
            // Inner scope restored the outer phase on exit.
            launch_map_named(&dev, "search2", LaunchConfig::new(2, 32), |cta| cta.alu(5));
        });
        launch_map_named(&dev, "free", LaunchConfig::new(1, 32), |cta| cta.alu(1));
        let phases: Vec<Phase> = tracer.records().iter().map(|r| r.phase).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Partition,
                Phase::Reduction,
                Phase::Partition,
                Phase::Unattributed
            ]
        );
    }

    #[test]
    fn explicit_phase_overrides_the_scope() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.as_ref().expect("tracing").clone();
        dev.phase_scope(Phase::Setup, || {
            launch_map_phased(&dev, "fill", Phase::Fill, LaunchConfig::new(1, 32), |cta| {
                cta.alu(1)
            });
        });
        assert_eq!(tracer.records()[0].phase, Phase::Fill);
    }

    #[test]
    fn concurrent_host_phases_do_not_interleave_records_incorrectly() {
        // Rayon host phases launch concurrently from many worker threads;
        // each explicit phased launch must land with its own phase label
        // and exactly one record, regardless of interleaving.
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.as_ref().expect("tracing").clone();
        let phases = [
            Phase::Partition,
            Phase::Reduction,
            Phase::Update,
            Phase::Fill,
        ];
        (0..32usize).into_par_iter().for_each(|i| {
            let phase = phases[i % phases.len()];
            launch_map_phased(&dev, "worker", phase, LaunchConfig::new(1, 32), |cta| {
                cta.alu(1 + i as u64)
            });
        });
        let records = tracer.records();
        assert_eq!(records.len(), 32);
        for phase in phases {
            let n = records.iter().filter(|r| r.phase == phase).count();
            assert_eq!(n, 8, "phase {phase} must own exactly its launches");
        }
        // The thread-local scope is also per-thread under rayon: a scope
        // on one worker never leaks into another worker's launches.
        (0..16usize).into_par_iter().for_each(|i| {
            if i % 2 == 0 {
                dev.phase_scope(Phase::BlockSort, || {
                    launch_map_named(&dev, "even", LaunchConfig::new(1, 32), |cta| cta.alu(2));
                });
            } else {
                launch_map_named(&dev, "odd", LaunchConfig::new(1, 32), |cta| cta.alu(2));
            }
        });
        let records = tracer.records();
        for r in records.iter().filter(|r| r.name == "even") {
            assert_eq!(r.phase, Phase::BlockSort);
        }
        for r in records.iter().filter(|r| r.name == "odd") {
            assert_eq!(r.phase, Phase::Unattributed);
        }
    }

    #[test]
    fn phase_report_sums_to_total_ms() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.as_ref().expect("tracing").clone();
        for (i, phase) in Phase::ALL.iter().enumerate() {
            launch_map_phased(
                &dev,
                "mix",
                *phase,
                LaunchConfig::new(i + 1, 32),
                move |cta| cta.alu(17 * (i as u64 + 1)),
            );
        }
        let report = tracer.phase_report();
        assert!((report.total_ms() - tracer.total_ms()).abs() < 1e-9);
        let frac_sum: f64 = report.fractions().iter().map(|(_, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9, "fractions sum to {frac_sum}");
        assert_eq!(report.entries().len(), Phase::COUNT);
    }

    #[test]
    fn phase_report_is_stable_under_clear_and_rerun() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.as_ref().expect("tracing").clone();
        let run = || {
            launch_map_phased(&dev, "a", Phase::Setup, LaunchConfig::new(3, 64), |cta| {
                cta.alu(100);
                cta.read_coalesced(64, 8);
            });
            launch_map_phased(&dev, "b", Phase::Other, LaunchConfig::new(2, 64), |cta| {
                cta.alu(50)
            });
        };
        run();
        let first = tracer.phase_report();
        tracer.clear();
        run();
        let second = tracer.phase_report();
        assert_eq!(first, second);
    }

    #[test]
    fn ledger_merge_and_render() {
        let mut a = PhaseLedger::new();
        assert!(a.is_empty());
        a.charge(Phase::Partition, 1.0, 1_000_000_000);
        let mut b = PhaseLedger::new();
        b.charge(Phase::Partition, 2.0, 0);
        b.charge(Phase::Update, 1.0, 0);
        a.merge(&b);
        assert!((a.total_ms() - 4.0).abs() < 1e-12);
        assert!((a.phase_ms(Phase::Partition) - 3.0).abs() < 1e-12);
        let table = a.render();
        assert!(table.contains("Partition"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("Update"), "{table}");
    }
}
