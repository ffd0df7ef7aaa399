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

pub use amg::{AmgHierarchy, AmgOptions};
pub use block_cg::{block_cg, block_cg_with_engine, BlockSolveReport};
pub use krylov::{bicgstab, cg, SolveReport, SolverOptions};
pub use pcg::{pcg, JacobiPreconditioner, Preconditioner};

/// Accumulated simulated device time of a composite operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    pub ms: f64,
}

impl SimClock {
    pub fn add(&mut self, stats: &mps_simt::grid::LaunchStats) {
        self.ms += stats.sim_ms;
    }

    pub fn add_ms(&mut self, ms: f64) {
        self.ms += ms;
    }
}

/// Launches named `name` in a tracer's log.
#[cfg(test)]
pub(crate) fn launches(tracer: &mps_simt::trace::Tracer, name: &str) -> usize {
    tracer.records().iter().filter(|r| r.name == name).count()
}
