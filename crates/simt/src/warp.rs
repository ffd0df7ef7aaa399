//! Warp-level cost primitives.
//!
//! Costs are charged on the [`Cta`]: a warp executes its lanes in
//! lockstep, so divergent lane work serializes to the slowest lane.

use crate::cta::Cta;

/// Serialized execution cost of a divergent warp: the warp pays for its
/// slowest lane on every step, so `warp_size * max(lane_work)` thread-ops.
/// Returns the charged op count (used by row-per-thread baselines, where
/// row-length variance inside a warp is the entire performance story).
pub fn warp_divergent_cost(cta: &mut Cta, lane_work: &[u64]) -> u64 {
    let max = lane_work.iter().copied().max().unwrap_or(0);
    let charged = max * lane_work.len() as u64;
    cta.alu(charged);
    charged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cta() -> Cta {
        Cta::new(0, 1, 128, 32)
    }

    #[test]
    fn divergence_charges_max_lane_times_width() {
        let mut c = cta();
        let charged = warp_divergent_cost(&mut c, &[1, 2, 100, 3]);
        assert_eq!(charged, 400);
        assert_eq!(c.counters().alu_ops, 400);
    }

    #[test]
    fn empty_lane_work_is_free() {
        let mut c = cta();
        assert_eq!(warp_divergent_cost(&mut c, &[]), 0);
    }
}
