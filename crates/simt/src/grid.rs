//! Grid launch: run a kernel body over every CTA and aggregate cost.
//!
//! The launcher is deliberately functional: the kernel body receives a
//! [`Cta`] and returns that block's output value (usually a small struct or
//! a `Vec` covering the block's disjoint output range). The host reassembles
//! the per-CTA outputs in block order, which keeps execution deterministic
//! and data-race free while still letting rayon run blocks concurrently.

use std::cell::RefCell;

use rayon::prelude::*;

use crate::cost::Counters;
use crate::cta::{Cta, CtaCost};
use crate::device::Device;
use crate::sched::{makespan_synced, SyncPoint};
use crate::trace::{KernelRecord, Phase};

/// Grid geometry for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of CTAs.
    pub grid_dim: usize,
    /// Threads per CTA.
    pub block_dim: usize,
}

impl LaunchConfig {
    pub fn new(grid_dim: usize, block_dim: usize) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// Grid sized to cover `work` items at `per_cta` items per block.
    ///
    /// A `per_cta` of zero is treated as one item per block (a zero-item
    /// tile cannot cover anything), so degenerate configurations launch a
    /// valid one-CTA grid instead of dividing by zero.
    pub fn cover(work: usize, per_cta: usize, block_dim: usize) -> Self {
        LaunchConfig {
            grid_dim: work.div_ceil(per_cta.max(1)).max(1),
            block_dim,
        }
    }
}

/// Aggregated result of a kernel launch.
#[derive(Debug, Clone, Default)]
pub struct LaunchStats {
    /// Cycle estimate of each CTA, in block order.
    pub per_cta_cycles: Vec<u64>,
    /// Counters summed over all CTAs.
    pub totals: Counters,
    /// Simulated kernel time under the wave scheduler, in milliseconds.
    pub sim_ms: f64,
}

impl LaunchStats {
    /// Combine stats of consecutive kernel launches (times add; counters
    /// accumulate; per-CTA vectors concatenate).
    pub fn add(&mut self, other: &LaunchStats) {
        self.per_cta_cycles.extend_from_slice(&other.per_cta_cycles);
        self.totals.add(&other.totals);
        self.sim_ms += other.sim_ms;
    }
}

/// Launch `grid_dim` CTAs, collecting each block's output into a `Vec` in
/// block order, together with the launch's simulated cost.
pub fn launch_map<T, F>(device: &Device, cfg: LaunchConfig, body: F) -> (Vec<T>, LaunchStats)
where
    T: Send,
    F: Fn(&mut Cta) -> T + Sync,
{
    launch_map_named(device, "unnamed", cfg, body)
}

/// [`launch_map`] with a kernel name recorded by the device tracer. The
/// record is attributed to the calling thread's current [`Phase`] (set by
/// [`crate::Device::phase_scope`]), or [`Phase::Unattributed`] outside any
/// scope.
pub fn launch_map_named<T, F>(
    device: &Device,
    name: &'static str,
    cfg: LaunchConfig,
    body: F,
) -> (Vec<T>, LaunchStats)
where
    T: Send,
    F: Fn(&mut Cta) -> T + Sync,
{
    launch_map_phased(device, name, Phase::current(), cfg, body)
}

/// [`launch_map_named`] with an explicit [`Phase`] label. Use this at core
/// kernel sites: the explicit label wins over any enclosing scope and is
/// correct even when the launch is issued from a rayon worker thread.
pub fn launch_map_phased<T, F>(
    device: &Device,
    name: &'static str,
    phase: Phase,
    cfg: LaunchConfig,
    body: F,
) -> (Vec<T>, LaunchStats)
where
    T: Send,
    F: Fn(&mut Cta) -> T + Sync,
{
    let warp = device.props.warp_size;
    let cost = &device.cost;
    // Cost folding is fused into the worker closure: each chunk prices its
    // CTAs while it still holds the counters in cache, leaving only the
    // cheap serial accumulation to the submitting thread. The block width
    // feeds the shim's work-aware cutoff so tiny grids stay inline.
    let results: Vec<(T, CtaCost)> = (0..cfg.grid_dim)
        .into_par_iter()
        .with_item_work(cfg.block_dim as u64)
        .map(|cta_id| {
            let mut cta = Cta::new(cta_id, cfg.grid_dim, cfg.block_dim, warp);
            let out = body(&mut cta);
            (out, cta.into_cost(cost))
        })
        .collect();

    let mut outputs = Vec::with_capacity(results.len());
    let mut stats = LaunchStats::default();
    let costs = results.into_iter().map(|(out, cost)| {
        outputs.push(out);
        cost
    });
    let cycles = fold_costs(device, costs, &mut stats);
    trace(device, name, phase, cfg, cycles, &stats);
    (outputs, stats)
}

thread_local! {
    /// Reusable sync points of a linked launch as the scheduler reads
    /// them: folding a launch allocates nothing once this has grown.
    static SYNC_POINTS: RefCell<Vec<(usize, u64, SyncPoint)>> = const { RefCell::new(Vec::new()) };
}

/// Fold finished CTAs, in block order, into `stats` (overwritten): their
/// cycles, summed counters and the makespan of the linked schedule, which
/// is returned in cycles.
///
/// This, [`Cta::new`] and `Cta::into_cost` are `#[inline]`: without the
/// hints a warm trivial 1024-CTA launch measured 1.7x the time it takes
/// with them.
#[inline]
fn fold_costs(
    device: &Device,
    costs: impl Iterator<Item = CtaCost>,
    stats: &mut LaunchStats,
) -> u64 {
    stats.per_cta_cycles.clear();
    stats.per_cta_cycles.reserve(costs.size_hint().0);
    stats.totals = Counters::default();
    // Taken rather than borrowed: `costs` may run a caller's CTA bodies
    // (`price_ctas`), and one that launches finds an empty buffer.
    let mut points = SYNC_POINTS.with(|p| std::mem::take(&mut *p.borrow_mut()));
    points.clear();
    for (cta_id, cost) in costs.enumerate() {
        stats.per_cta_cycles.push(cost.cycles);
        stats.totals.add(&cost.counters);
        // Each point sits at the cycles of the counters charged up to it.
        points.extend(
            (cost.sync_points.iter())
                .map(|(at, point)| (cta_id, device.cost.cta_cycles(at), *point)),
        );
    }
    let cycles = makespan_synced(&device.props, &stats.per_cta_cycles, &points);
    SYNC_POINTS.with(|p| *p.borrow_mut() = points);
    stats.sim_ms = device.cycles_to_ms(cycles);
    cycles
}

/// Record a finished launch with the device tracer, if any.
#[inline]
fn trace(
    device: &Device,
    name: &'static str,
    phase: Phase,
    cfg: LaunchConfig,
    cycles: u64,
    stats: &LaunchStats,
) {
    if let Some(tracer) = &device.tracer {
        tracer.record(KernelRecord {
            name,
            phase,
            grid_dim: cfg.grid_dim,
            block_dim: cfg.block_dim,
            makespan_cycles: cycles,
            sim_ms: stats.sim_ms,
            dram_bytes: stats.totals.dram_bytes(),
        });
    }
}

/// Price CTAs charged by hand, in block order, exactly as a launch prices
/// the CTAs its body charged: the same per-CTA cycles, totals and linked
/// makespan, with no kernel run and nothing traced. A kernel re-priced
/// from counters it kept at build ([`Cta::charge`]) goes through here.
pub fn price_ctas(device: &Device, ctas: impl IntoIterator<Item = Cta>) -> LaunchStats {
    let mut stats = LaunchStats::default();
    let costs = ctas.into_iter().map(|cta| cta.into_cost(&device.cost));
    fold_costs(device, costs, &mut stats);
    stats
}

/// Reusable scratch for [`launch_map_into`]: owns the per-CTA
/// (output, counters) staging vector between launches so repeated launches
/// of a same-shaped kernel perform no heap allocation in steady state,
/// except one small vector per CTA that publishes or looks back (a linked
/// launch's sync points, see [`Cta::publish`]). Holding those inline would
/// make every launch pay for them: an inline log of four points doubled a
/// warm trivial 1024-CTA launch.
#[derive(Debug)]
pub struct LaunchBuffers<T> {
    pairs: Vec<(T, CtaCost)>,
}

impl<T> LaunchBuffers<T> {
    pub fn new() -> Self {
        LaunchBuffers { pairs: Vec::new() }
    }
}

impl<T> Default for LaunchBuffers<T> {
    fn default() -> Self {
        LaunchBuffers::new()
    }
}

/// [`launch_map_named`] writing into caller-owned buffers: outputs land in
/// `outputs` (block order) and the launch's cost overwrites `stats`, both
/// reusing their existing capacity. `bufs` carries the internal staging
/// vector across launches.
pub fn launch_map_into<T, F>(
    device: &Device,
    name: &'static str,
    cfg: LaunchConfig,
    body: F,
    bufs: &mut LaunchBuffers<T>,
    outputs: &mut Vec<T>,
    stats: &mut LaunchStats,
) where
    T: Send,
    F: Fn(&mut Cta) -> T + Sync,
{
    launch_map_into_phased(
        device,
        name,
        Phase::current(),
        cfg,
        body,
        bufs,
        outputs,
        stats,
    )
}

/// [`launch_map_into`] with an explicit [`Phase`] label.
#[allow(clippy::too_many_arguments)]
pub fn launch_map_into_phased<T, F>(
    device: &Device,
    name: &'static str,
    phase: Phase,
    cfg: LaunchConfig,
    body: F,
    bufs: &mut LaunchBuffers<T>,
    outputs: &mut Vec<T>,
    stats: &mut LaunchStats,
) where
    T: Send,
    F: Fn(&mut Cta) -> T + Sync,
{
    let warp = device.props.warp_size;
    let cost = &device.cost;
    (0..cfg.grid_dim)
        .into_par_iter()
        .with_item_work(cfg.block_dim as u64)
        .map(|cta_id| {
            let mut cta = Cta::new(cta_id, cfg.grid_dim, cfg.block_dim, warp);
            let out = body(&mut cta);
            (out, cta.into_cost(cost))
        })
        .collect_into_vec(&mut bufs.pairs);

    outputs.clear();
    let costs = bufs.pairs.drain(..).map(|(out, cost)| {
        outputs.push(out);
        cost
    });
    let cycles = fold_costs(device, costs, stats);
    trace(device, name, phase, cfg, cycles, stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_rounds_grid_up_and_never_zero() {
        assert_eq!(LaunchConfig::cover(1000, 256, 128).grid_dim, 4);
        assert_eq!(LaunchConfig::cover(1024, 256, 128).grid_dim, 4);
        assert_eq!(LaunchConfig::cover(0, 256, 128).grid_dim, 1);
    }

    #[test]
    fn cover_clamps_zero_items_per_cta() {
        // A zero-item tile must not divide by zero: it degrades to one
        // item per block.
        assert_eq!(LaunchConfig::cover(0, 0, 128).grid_dim, 1);
        assert_eq!(LaunchConfig::cover(7, 0, 128).grid_dim, 7);
        assert_eq!(LaunchConfig::cover(7, 0, 64).block_dim, 64);
    }

    #[test]
    fn launch_outputs_are_in_block_order() {
        let dev = Device::titan();
        let (out, _) = launch_map(&dev, LaunchConfig::new(64, 128), |cta| cta.cta_id * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn launch_accumulates_counters_across_ctas() {
        let dev = Device::titan();
        let (_, stats) = launch_map(&dev, LaunchConfig::new(10, 128), |cta| {
            cta.alu(100);
            cta.read_coalesced(32, 4);
        });
        assert_eq!(stats.totals.alu_ops, 1000);
        assert_eq!(stats.totals.dram_transactions, 10);
        assert_eq!(stats.per_cta_cycles.len(), 10);
        assert!(stats.sim_ms > 0.0);
    }

    #[test]
    fn stats_add_concatenates_and_sums() {
        let dev = Device::titan();
        let (_, mut a) = launch_map(&dev, LaunchConfig::new(2, 32), |cta| cta.alu(1));
        let (_, b) = launch_map(&dev, LaunchConfig::new(3, 32), |cta| cta.alu(1));
        let total_ms = a.sim_ms + b.sim_ms;
        a.add(&b);
        assert_eq!(a.per_cta_cycles.len(), 5);
        assert!((a.sim_ms - total_ms).abs() < 1e-12);
    }

    #[test]
    fn launch_map_into_matches_launch_map_and_reuses_buffers() {
        let dev = Device::titan();
        let cfg = LaunchConfig::new(48, 128);
        let body = |cta: &mut Cta| {
            cta.alu(10 * (cta.cta_id as u64 + 1));
            cta.read_coalesced(64, 8);
            cta.cta_id * 3
        };
        let (expect_out, expect_stats) = launch_map(&dev, cfg, body);

        let mut bufs = LaunchBuffers::new();
        let mut outputs = Vec::new();
        let mut stats = LaunchStats::default();
        launch_map_into(
            &dev,
            "reused",
            cfg,
            body,
            &mut bufs,
            &mut outputs,
            &mut stats,
        );
        assert_eq!(outputs, expect_out);
        assert_eq!(stats.per_cta_cycles, expect_stats.per_cta_cycles);
        assert_eq!(stats.sim_ms, expect_stats.sim_ms);
        assert_eq!(stats.totals.alu_ops, expect_stats.totals.alu_ops);

        // Second launch reuses every buffer in place.
        let out_ptr = outputs.as_ptr();
        let cyc_ptr = stats.per_cta_cycles.as_ptr();
        launch_map_into(
            &dev,
            "reused",
            cfg,
            body,
            &mut bufs,
            &mut outputs,
            &mut stats,
        );
        assert_eq!(outputs, expect_out);
        assert_eq!(outputs.as_ptr(), out_ptr, "output buffer must be reused");
        assert_eq!(
            stats.per_cta_cycles.as_ptr(),
            cyc_ptr,
            "cycles buffer must be reused"
        );
        assert_eq!(
            stats.sim_ms, expect_stats.sim_ms,
            "stats overwrite, not accumulate"
        );
    }

    #[test]
    fn look_back_is_charged_and_priced_like_a_launch() {
        // Every CTA publishes an 8-byte carry; each later one reads all
        // earlier carries. The reads cost one 12-byte-slot coalesced load
        // and one barrier per look-back.
        let dev = Device::titan();
        let body = |cta: &mut Cta| {
            cta.alu(1000 * (3 - cta.cta_id as u64));
            cta.publish(0, 8);
            cta.look_back(0..cta.cta_id, 0, 8);
            cta.alu(64);
        };
        let (_, stats) = launch_map(&dev, LaunchConfig::new(3, 128), body);
        assert_eq!(stats.totals.syncs, 2);
        // Three publishes, one read of one slot, one read of two slots.
        assert_eq!(stats.totals.dram_write_bytes, 3 * 12);
        assert_eq!(stats.totals.dram_read_bytes, 3 * 12);
        let by_hand = price_ctas(
            &dev,
            (0..3).map(|id| {
                let mut cta = Cta::new(id, 3, 128, dev.props.warp_size);
                body(&mut cta);
                cta
            }),
        );
        assert_eq!(by_hand.per_cta_cycles, stats.per_cta_cycles);
        assert_eq!(by_hand.totals, stats.totals);
        assert_eq!(by_hand.sim_ms.to_bits(), stats.sim_ms.to_bits());
    }

    #[test]
    fn a_late_publish_stretches_the_launch() {
        // CTA 0 publishes after its heavy work; CTA 1 waits for it. The
        // same CTAs publishing first cost only the heavier CTA.
        let dev = Device::titan();
        let run = |publish_late: bool| {
            launch_map(&dev, LaunchConfig::new(2, 128), move |cta| {
                if cta.cta_id == 0 {
                    if !publish_late {
                        cta.publish(0, 8);
                    }
                    cta.alu(320_000);
                    if publish_late {
                        cta.publish(0, 8);
                    }
                } else {
                    cta.look_back(0..1, 0, 8);
                    cta.alu(160_000);
                }
            })
            .1
        };
        let (late, early) = (run(true), run(false));
        assert_eq!(late.per_cta_cycles, early.per_cta_cycles);
        assert!(
            late.sim_ms > 1.4 * early.sim_ms,
            "{} vs {}",
            late.sim_ms,
            early.sim_ms
        );
    }

    #[test]
    #[should_panic(expected = "only at earlier CTAs")]
    fn looking_back_at_a_later_cta_panics() {
        let mut cta = Cta::new(1, 4, 128, 32);
        cta.look_back(0..2, 0, 8);
    }

    #[test]
    fn imbalanced_grid_simulates_slower_than_balanced_grid() {
        let dev = Device::titan();
        let slots = dev.props.num_sms * dev.props.max_ctas_per_sm;
        let ctas = slots * 4;
        // Balanced: every CTA does the same work.
        let (_, bal) = launch_map(&dev, LaunchConfig::new(ctas, 128), |cta| cta.alu(32_000));
        // Imbalanced: same total work concentrated in one CTA.
        let total = 32_000u64 * ctas as u64;
        let (_, imb) = launch_map(&dev, LaunchConfig::new(ctas, 128), move |cta| {
            if cta.cta_id == 0 {
                cta.alu(total);
            }
        });
        assert!(
            imb.sim_ms > bal.sim_ms * 2.0,
            "imbalance should dominate: {} vs {}",
            imb.sim_ms,
            bal.sim_ms
        );
    }
}
