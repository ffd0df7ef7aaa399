//! # mps-solvers — iterative solvers on the merge-path kernels
//!
//! The paper motivates its kernels with the workloads that consume them:
//! "SpMV operations are at the core of many sparse iterative solvers", and
//! its SpGEMM lineage comes from algebraic multigrid setup. This crate is
//! that downstream layer, built entirely on the `mps-core` kernels and the
//! virtual device, with simulated kernel time accumulated across whole
//! solves:
//!
//! * [`blas1`] — device-charged vector operations (dot, axpy, scale);
//! * [`krylov`] — conjugate gradients and BiCGStab;
//! * [`block_cg`](mod@block_cg) — CG for multiple right-hand sides sharing
//!   one column-tiled SpMM per iteration;
//! * [`smoothers`] — (weighted) Jacobi relaxation;
//! * [`eigen`] — power iteration for spectral-radius estimates;
//! * [`amg`] — smoothed-aggregation algebraic multigrid: hierarchy setup
//!   via SpGEMM Galerkin products, V-cycle solve;
//! * [`coarse`] — the coarsest AMG level's solve: a dense LU factored once
//!   at setup, CG for oversized or singular levels;
//! * [`pcg`](mod@pcg) — preconditioned CG (Jacobi or AMG-V-cycle preconditioners).

pub mod amg;
pub mod blas1;
pub mod block_cg;
pub mod coarse;
pub mod eigen;
pub mod krylov;
pub mod pcg;
pub mod smoothers;
#[cfg(test)]
mod unfused;

pub use amg::{AmgHierarchy, AmgOptions};
pub use block_cg::{block_cg, BlockSolveReport};
pub use krylov::{bicgstab, cg, SolveReport, SolverOptions};
pub use pcg::{pcg, JacobiPreconditioner, Preconditioner};

use mps_core::{FusedExecute, SpmvPlan};
use mps_simt::grid::LaunchStats;
use mps_simt::{Phase, PhaseLedger};

/// Accumulated simulated device time of a composite operation, with its
/// split by [`Phase`]: planned products charge Reduction and Update,
/// BLAS-1 launches and the coarse substitution charge Blas1, plan builds
/// charge Partition. `ms` is the running sum in charge order, so it equals
/// `ledger.total_ms()` up to rounding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimClock {
    pub ms: f64,
    pub ledger: PhaseLedger,
}

impl SimClock {
    /// Charge one launch to `phase`. A launch that never ran (no CTAs, as
    /// for an empty operator) charges nothing.
    pub fn charge(&mut self, phase: Phase, stats: &LaunchStats) {
        if stats.per_cta_cycles.is_empty() {
            return;
        }
        self.ms += stats.sim_ms;
        self.ledger
            .charge(phase, stats.sim_ms, stats.totals.dram_bytes());
    }

    /// Charge one BLAS-1 launch.
    pub fn add_blas1(&mut self, stats: &LaunchStats) {
        self.charge(Phase::Blas1, stats);
    }

    /// Charge one planned SpMV execute: the Reduction and Update launches
    /// its plan priced at build.
    pub fn add_spmv(&mut self, plan: &SpmvPlan) {
        self.ms += plan.execute_sim_ms();
        for (phase, stats) in [
            (Phase::Reduction, plan.reduction_stats()),
            (Phase::Update, plan.update_stats()),
        ] {
            if !stats.per_cta_cycles.is_empty() {
                self.ledger
                    .charge(phase, stats.sim_ms, stats.totals.dram_bytes());
            }
        }
    }

    /// Charge one fused planned SpMV execute: its Reduction and Update
    /// launches, priced with their epilogue.
    pub fn add_fused(&mut self, fused: &FusedExecute) {
        self.charge(Phase::Reduction, fused.reduction);
        self.charge(Phase::Update, fused.update);
    }

    /// Charge a composite cost that carries no launch breakdown (the
    /// setup chains of a hierarchy) to [`Phase::Unattributed`].
    pub fn add_ms(&mut self, ms: f64) {
        self.ms += ms;
        self.ledger.charge(Phase::Unattributed, ms, 0);
    }
}

/// Launches named `name` in a tracer's log.
#[cfg(test)]
pub(crate) fn launches(tracer: &mps_simt::trace::Tracer, name: &str) -> usize {
    tracer.records().iter().filter(|r| r.name == name).count()
}
