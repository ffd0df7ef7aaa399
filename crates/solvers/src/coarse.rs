//! The coarsest AMG level's solve.
//!
//! Smoothed-aggregation AMG stops coarsening at a few dozen unknowns, where
//! an exact solve is cheap. Cusp, the paper's open-source comparator,
//! factors that level once with a dense LU during setup; so does this
//! module. Each V-cycle's coarse correction is then one forward and one
//! back substitution, a single small launch, where an iterative solve pays
//! the launch floor for every kernel of every iteration. CG remains for
//! the two inputs a dense factor does not suit: a coarsest level above
//! [`DIRECT_MAX_UNKNOWNS`], and a numerically singular one.

use mps_core::Workspace;
use mps_simt::grid::{launch_map_phased, LaunchConfig, LaunchStats};
use mps_simt::{Device, Phase};
use mps_sparse::CsrMatrix;

use crate::amg::AmgLevel;
use crate::krylov::{cg_planned, SolverOptions};
use crate::SimClock;

/// Largest coarsest level solved through a dense factor.
///
/// The bound caps the factor's memory and setup; it is not a per-cycle
/// crossover. On the coarsest level of two-level 5-point hierarchies
/// (simulated time on `Device::titan()`), one substitution costs less
/// than one CG solve at 221 and 512 unknowns (0.035 against 0.127 ms,
/// 0.138 against 0.344 ms), but not at 1152 (0.596 against 0.321 ms). The
/// factor also stores all n² entries (396 KiB at 225 unknowns) and its
/// setup grows as n³/3 multiply-adds. On square grids the per-cycle
/// saving repays the factorization within 8.4 V-cycles at 221 unknowns,
/// but takes 10.9 at 242 and 46.3 at 512, more than the about 10 of one
/// AMG-PCG solve; the bound sits between the first two, at the 15×15
/// grid's 225. The payback follows the level's CG iteration count more
/// than its size: rectangular grids with 216 to 225 coarse unknowns read
/// 5.6 to 11.5 V-cycles. So the larger coarsest levels that only a
/// shallow hierarchy leaves (a low `max_levels`, or stalled aggregation)
/// keep CG.
pub const DIRECT_MAX_UNKNOWNS: usize = 225;

/// A pivot at or below this fraction of the operator's largest absolute
/// entry counts as zero, and the level keeps CG. A singular operator
/// leaves a last pivot of rounding size, about n·ε times that entry
/// (below 6e-14 of it at [`DIRECT_MAX_UNKNOWNS`]). The threshold sits
/// three orders of magnitude above that and far below the pivots of a
/// well-posed coarse operator.
pub const PIVOT_RTOL: f64 = 1e-10;

/// Relative residual the CG coarse solve runs to.
const CG_TOLERANCE: f64 = 1e-12;

/// Threads of the single CTA that prices each dense launch.
const DENSE_THREADS: usize = 128;

/// How the hierarchy solves its coarsest level.
#[derive(Debug, Clone)]
pub enum CoarseSolve {
    /// Forward and back substitution through a factor built at setup.
    Direct(DenseLu),
    /// CG to relative residual 1e-12 through the level's own plan.
    Cg,
}

impl CoarseSolve {
    /// Factor `a` when a dense factor is safe, otherwise keep CG. Returns
    /// the choice and the simulated ms of the factorization launch, which
    /// is charged whenever the factorization runs (zero above the size
    /// bound).
    pub(crate) fn new(device: &Device, a: &CsrMatrix) -> (CoarseSolve, f64) {
        let n = a.num_rows;
        if n > DIRECT_MAX_UNKNOWNS {
            return (CoarseSolve::Cg, 0.0);
        }
        let solve = DenseLu::factor(a).map_or(CoarseSolve::Cg, CoarseSolve::Direct);
        (solve, factor_launch(device, n).sim_ms)
    }

    /// Solve `level.a · x = b` into `x`, charging `clock`. Any starting
    /// value in `x` is ignored.
    pub(crate) fn solve(
        &self,
        device: &Device,
        level: &AmgLevel,
        b: &[f64],
        x: &mut Vec<f64>,
        ws: &mut Workspace,
        clock: &mut SimClock,
    ) {
        match self {
            CoarseSolve::Direct(lu) => clock.add_blas1(&lu.solve_into(device, b, x)),
            CoarseSolve::Cg => {
                let opts = SolverOptions {
                    max_iterations: 4 * level.a.num_rows.max(8),
                    rel_tolerance: CG_TOLERANCE,
                };
                let report = cg_planned(
                    device,
                    &level.a_plan,
                    &level.a,
                    b,
                    &opts,
                    ws,
                    SimClock::default(),
                );
                *x = report.x;
                clock.ms += report.sim_ms;
                clock.ledger.merge(&report.ledger);
            }
        }
    }
}

/// Dense LU factorization with partial pivoting, `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    /// Row-major n×n: `U` on and above the diagonal, the multipliers of
    /// `L` (unit diagonal implied) below it.
    lu: Vec<f64>,
    /// `perm[i]` is the row of `A` that became row `i` of `P·A`.
    perm: Vec<usize>,
}

impl DenseLu {
    /// Factor square `a`, or `None` when a pivot is at or below
    /// [`PIVOT_RTOL`] times the largest absolute entry (numerically
    /// singular).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub(crate) fn factor(a: &CsrMatrix) -> Option<DenseLu> {
        assert_eq!(a.num_rows, a.num_cols, "LU needs a square matrix");
        let n = a.num_rows;
        let mut lu = vec![0.0; n * n];
        for r in 0..n {
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                lu[r * n + c as usize] += v;
            }
        }
        let tiny = PIVOT_RTOL * lu.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let p = (k..n)
                .max_by(|&i, &j| lu[i * n + k].abs().total_cmp(&lu[j * n + k].abs()))
                .expect("k < n");
            if lu[p * n + k].abs() <= tiny {
                return None;
            }
            if p != k {
                let (top, rest) = lu.split_at_mut(p * n);
                top[k * n..(k + 1) * n].swap_with_slice(&mut rest[..n]);
                perm.swap(k, p);
            }
            let (top, below) = lu.split_at_mut((k + 1) * n);
            let pivot_row = &top[k * n..];
            for row in below.chunks_exact_mut(n) {
                let l = row[k] / pivot_row[k];
                row[k] = l;
                for (v, u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *v -= l * u;
                }
            }
        }
        Some(DenseLu { n, lu, perm })
    }

    /// Solve `A·x = b` into `x` by forward and back substitution,
    /// returning the cost of the one launch that does it.
    ///
    /// # Panics
    /// Panics if `b` does not have one entry per unknown.
    pub(crate) fn solve_into(&self, device: &Device, b: &[f64], x: &mut Vec<f64>) -> LaunchStats {
        let n = self.n;
        assert_eq!(b.len(), n, "right-hand side length mismatch");
        // L·y = P·b.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for i in 0..n {
            let row = &self.lu[i * n..i * n + i];
            let s: f64 = row.iter().zip(&x[..i]).map(|(l, y)| l * y).sum();
            x[i] -= s;
        }
        // U·x = y.
        for i in (0..n).rev() {
            let row = &self.lu[i * n..(i + 1) * n];
            let s: f64 = row[i + 1..]
                .iter()
                .zip(&x[i + 1..])
                .map(|(u, v)| u * v)
                .sum();
            x[i] = (x[i] - s) / row[i];
        }
        // Read the factor and b, write x; each of the 2n substitution
        // steps waits on the one before it.
        dense_launch(
            device,
            "coarse_lu_solve",
            n * n + n,
            n,
            2 * (n * n) as u64,
            2 * n,
        )
    }
}

/// Price the factorization of an n×n operator: read A, write the factor
/// and the pivot order; n pivot searches and n elimination steps, each
/// behind a barrier.
fn factor_launch(device: &Device, n: usize) -> LaunchStats {
    dense_launch(
        device,
        "coarse_lu_factor",
        n * n,
        n * n + n,
        2 * (n * n * n) as u64 / 3,
        2 * n,
    )
}

/// Price one single-CTA dense launch under [`Phase::Blas1`]: coalesced
/// f64 reads and writes, `flops` arithmetic and `syncs` barriers.
fn dense_launch(
    device: &Device,
    name: &'static str,
    reads: usize,
    writes: usize,
    flops: u64,
    syncs: usize,
) -> LaunchStats {
    let cfg = LaunchConfig::new(1, DENSE_THREADS);
    let (_, stats) = launch_map_phased(device, name, Phase::Blas1, cfg, |cta| {
        cta.read_coalesced(reads, 8);
        cta.alu(flops);
        for _ in 0..syncs {
            cta.sync();
        }
        cta.write_coalesced(writes, 8);
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amg::{AmgHierarchy, AmgOptions};
    use mps_sparse::dense::from_dense;
    use mps_sparse::gen;
    use mps_sparse::ops::spmv_ref;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn lu_solves_a_system_that_needs_pivoting() {
        // A zero leading entry: elimination without row swaps divides by 0.
        let a = from_dense(&[
            vec![0.0, 2.0, 1.0],
            vec![1.0, 1.0, 0.0],
            vec![3.0, 0.0, 1.0],
        ]);
        let want = [1.0, -2.0, 3.0];
        let b = spmv_ref(&a, &want);
        let lu = DenseLu::factor(&a).expect("nonsingular");
        let mut x = vec![7.0; 5]; // stale contents and length are ignored
        assert!(lu.solve_into(&dev(), &b, &mut x).sim_ms > 0.0);
        for (got, want) in x.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn levels_past_the_size_bound_are_not_factored() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let at_bound = gen::stencil_5pt(15, 15);
        assert_eq!(at_bound.num_rows, DIRECT_MAX_UNKNOWNS);
        let (solve, ms) = CoarseSolve::new(&dev, &at_bound);
        assert!(matches!(solve, CoarseSolve::Direct(_)));
        assert!(ms > 0.0);
        tracer.clear();
        let (solve, ms) = CoarseSolve::new(&dev, &gen::stencil_5pt(15, 16));
        assert!(matches!(solve, CoarseSolve::Cg));
        assert_eq!(ms, 0.0);
        assert!(
            tracer.records().is_empty(),
            "nothing to factor, nothing charged"
        );
    }

    #[test]
    fn the_size_bound_repays_the_factorization_within_one_solve() {
        // V-cycles after which the substitution's saving over CG repays the
        // factorization, on the coarsest level of a two-level hierarchy.
        let payback = |grid: usize| {
            let options = AmgOptions {
                max_levels: 2,
                ..AmgOptions::default()
            };
            let h = AmgHierarchy::build(&dev(), gen::stencil_5pt(grid, grid), options);
            let level = h.levels.last().expect("non-empty");
            let n = level.a.num_rows;
            let b: Vec<f64> = (0..n).map(|i| (0.37 * i as f64).sin()).collect();
            let (mut x, mut ws) = (Vec::new(), Workspace::new());
            let mut clock = SimClock::default();
            CoarseSolve::Cg.solve(&dev(), level, &b, &mut x, &mut ws, &mut clock);
            let cg_ms = clock.ms;
            let lu = DenseLu::factor(&level.a).expect("nonsingular");
            let direct_ms = lu.solve_into(&dev(), &b, &mut x).sim_ms;
            assert!(direct_ms < cg_ms, "{n} unknowns");
            (n, factor_launch(&dev(), n).sim_ms / (cg_ms - direct_ms))
        };
        // An AMG-PCG solve on the 48×48 grid applies about 10 V-cycles.
        let (n, cycles) = payback(21);
        assert!(n <= DIRECT_MAX_UNKNOWNS && cycles < 10.0, "{n}: {cycles}");
        let (n, cycles) = payback(22);
        assert!(n > DIRECT_MAX_UNKNOWNS && cycles > 10.0, "{n}: {cycles}");
        let (n, cycles) = payback(32);
        assert!(
            n >= 2 * DIRECT_MAX_UNKNOWNS && cycles > 10.0,
            "{n}: {cycles}"
        );
    }
}
