//! Smoothed-aggregation algebraic multigrid.
//!
//! The workload that birthed the paper's SpGEMM line (its citation \[14\],
//! "Exposing fine-grained parallelism in algebraic multigrid methods"):
//! hierarchy setup is dominated by sparse matrix-matrix products — the
//! prolongator smoothing `P = (I − ω D⁻¹ A) T` and the Galerkin triple
//! product `A_c = Pᵀ A P` — all of which run through the merge-path
//! kernels here, with simulated setup cost reported per level. The
//! coarsest level is factored once at setup (see [`crate::coarse`]).

use std::time::Instant;

use mps_core::{
    merge_spadd, merge_spgemm, Epilogue, SpAddConfig, SpgemmConfig, SpmvConfig, SpmvPlan, Workspace,
};
use mps_simt::{Device, Phase};
use mps_sparse::{CooMatrix, CsrMatrix};

use crate::coarse::CoarseSolve;
use crate::eigen::power_method_planned;
use crate::krylov::SolverOptions;
use crate::smoothers::{inverse_diagonal, jacobi_sweep_planned};
use crate::SimClock;

/// AMG construction and cycling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmgOptions {
    /// Stop coarsening below this many unknowns.
    pub coarse_size: usize,
    /// Maximum levels (including the finest).
    pub max_levels: usize,
    /// Jacobi weight for both the prolongator smoother and relaxation.
    pub omega: f64,
    pub pre_sweeps: usize,
    pub post_sweeps: usize,
}

impl Default for AmgOptions {
    fn default() -> Self {
        AmgOptions {
            coarse_size: 64,
            max_levels: 10,
            omega: 2.0 / 3.0,
            pre_sweeps: 1,
            post_sweeps: 1,
        }
    }
}

/// One level of the hierarchy.
///
/// Each operator carries its [`SpmvPlan`], so every SpMV inside a cycle —
/// smoothing, residual, restriction, prolongation — is a pure numeric
/// execute against precomputed structure.
#[derive(Debug, Clone)]
pub struct AmgLevel {
    pub a: CsrMatrix,
    /// Prolongator to this level from the next-coarser one (absent on the
    /// coarsest level).
    pub p: Option<CsrMatrix>,
    pub pt: Option<CsrMatrix>,
    pub inv_diag: Vec<f64>,
    pub a_plan: SpmvPlan,
    pub p_plan: Option<SpmvPlan>,
    pub pt_plan: Option<SpmvPlan>,
}

/// A built multigrid hierarchy.
#[derive(Debug, Clone)]
pub struct AmgHierarchy {
    pub levels: Vec<AmgLevel>,
    pub options: AmgOptions,
    /// How every V-cycle solves the last level; chosen by `build` alone,
    /// because a factor fits only the operator it was built from.
    coarse: CoarseSolve,
    /// Simulated device time spent in setup (SpGEMM/SpAdd chains, plan
    /// builds, the coarsest-level factorization), ms.
    pub setup_sim_ms: f64,
}

/// Greedy graph aggregation: each unaggregated node grabs its unaggregated
/// strong neighbours. Returns (aggregate id per node, aggregate count).
pub fn greedy_aggregation(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = a.num_rows;
    let mut agg = vec![u32::MAX; n];
    let mut count = 0u32;
    for seed in 0..n {
        if agg[seed] != u32::MAX {
            continue;
        }
        agg[seed] = count;
        for &c in a.row_cols(seed) {
            let c = c as usize;
            if c < n && agg[c] == u32::MAX {
                agg[c] = count;
            }
        }
        count += 1;
    }
    (agg, count as usize)
}

/// Piecewise-constant tentative prolongator from an aggregation map.
pub fn tentative_prolongator(agg: &[u32], num_aggregates: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(agg.len(), num_aggregates);
    for (fine, &coarse) in agg.iter().enumerate() {
        coo.push(fine as u32, coarse, 1.0);
    }
    coo.to_csr()
}

/// The NaN/Inf policy of a hierarchy: no level's operator may hold a
/// non-finite entry.
fn assert_finite(level: usize, a: &CsrMatrix) {
    assert!(
        a.values.iter().all(|v| v.is_finite()),
        "AMG level {level} holds a NaN or infinite entry"
    );
}

/// Scale every row of `a` by `factor / diag(a)` (host transform; charged as
/// one streaming pass inside the smoothing SpGEMM that consumes it).
fn scaled_by_inv_diag(a: &CsrMatrix, inv_diag: &[f64], factor: f64) -> CsrMatrix {
    let mut out = a.clone();
    for (r, d) in inv_diag.iter().enumerate() {
        let (lo, hi) = (a.row_offsets[r], a.row_offsets[r + 1]);
        for v in &mut out.values[lo..hi] {
            *v *= factor * d;
        }
    }
    out
}

impl AmgHierarchy {
    /// Build a smoothed-aggregation hierarchy for SPD `a`.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    ///
    /// Panics if any level's operator, `a` or a Galerkin product, holds a
    /// NaN or ±Inf entry: a V-cycle starts every coarse level from the
    /// sweep a zero guess gives, which is exact only while A·0 = 0.
    pub fn build(device: &Device, a: CsrMatrix, options: AmgOptions) -> AmgHierarchy {
        assert_eq!(a.num_rows, a.num_cols, "AMG needs a square operator");
        let gemm_cfg = SpgemmConfig::default();
        let add_cfg = SpAddConfig::default();
        let spmv_cfg = SpmvConfig::default();
        let mut clock = SimClock::default();
        let mut levels: Vec<AmgLevel> = Vec::new();
        let mut current = a;

        while levels.len() + 1 < options.max_levels && current.num_rows > options.coarse_size {
            assert_finite(levels.len(), &current);
            let inv_diag = inverse_diagonal(&current);
            let (agg, n_coarse) = greedy_aggregation(&current);
            if n_coarse >= current.num_rows {
                break; // aggregation stalled; stop coarsening
            }
            let t = tentative_prolongator(&agg, n_coarse);
            // One plan per pattern: D⁻¹A below shares A's.
            let a_plan = SpmvPlan::new(device, &current, &spmv_cfg);
            clock.charge(Phase::Partition, &a_plan.partition);

            // Standard smoothed-aggregation weight: ω = 4 / (3 ρ(D⁻¹A)),
            // with the spectral radius estimated by a short power iteration
            // on the diagonally scaled operator.
            let dinv_a = scaled_by_inv_diag(&current, &inv_diag, 1.0);
            let rho = power_method_planned(device, &a_plan, &dinv_a, 8);
            clock.add_ms(rho.sim_ms);
            let omega = if rho.eigenvalue > 0.0 {
                4.0 / (3.0 * rho.eigenvalue)
            } else {
                options.omega
            };

            // P = (I − ω D⁻¹ A) T  =  T + (−ω D⁻¹ A)·T.
            let scaled = scaled_by_inv_diag(&current, &inv_diag, -omega);
            let sat = merge_spgemm(device, &scaled, &t, &gemm_cfg);
            clock.add_ms(sat.sim_ms());
            let p_sum = merge_spadd(device, &t, &sat.c, &add_cfg);
            clock.add_ms(p_sum.sim_ms());
            let p = p_sum.c;
            let pt = p.transpose();

            // Galerkin product A_c = Pᵀ (A P).
            let ap = merge_spgemm(device, &current, &p, &gemm_cfg);
            clock.add_ms(ap.sim_ms());
            let ac = merge_spgemm(device, &pt, &ap.c, &gemm_cfg);
            clock.add_ms(ac.sim_ms());

            let p_plan = SpmvPlan::new(device, &p, &spmv_cfg);
            clock.charge(Phase::Partition, &p_plan.partition);
            let pt_plan = SpmvPlan::new(device, &pt, &spmv_cfg);
            clock.charge(Phase::Partition, &pt_plan.partition);
            levels.push(AmgLevel {
                a: current,
                p: Some(p),
                pt: Some(pt),
                inv_diag,
                a_plan,
                p_plan: Some(p_plan),
                pt_plan: Some(pt_plan),
            });
            current = ac.c;
        }
        assert_finite(levels.len(), &current);
        let inv_diag = inverse_diagonal(&current);
        let a_plan = SpmvPlan::new(device, &current, &spmv_cfg);
        clock.charge(Phase::Partition, &a_plan.partition);
        let (coarse, factor_ms) = CoarseSolve::new(device, &current);
        clock.add_ms(factor_ms);
        levels.push(AmgLevel {
            a: current,
            p: None,
            pt: None,
            inv_diag,
            a_plan,
            p_plan: None,
            pt_plan: None,
        });
        AmgHierarchy {
            levels,
            options,
            coarse,
            setup_sim_ms: clock.ms,
        }
    }

    /// How every V-cycle solves the coarsest level.
    pub fn coarse(&self) -> &CoarseSolve {
        &self.coarse
    }

    /// One V-cycle applied to `b` from `x`, returning simulated ms. Every
    /// product runs through a plan built at setup, so a cycle builds no
    /// plan. The coarsest level is one forward and back substitution
    /// through the factor built at setup, or, when [`Self::coarse`] is
    /// [`CoarseSolve::Cg`], a CG solve through that level's plan.
    pub fn v_cycle(&self, device: &Device, b: &[f64], x: &mut Vec<f64>) -> f64 {
        let mut clock = SimClock::default();
        self.cycle(device, 0, b, x, 0, &mut Workspace::new(), &mut clock);
        clock.ms
    }

    /// The V-cycle from `level` down, charging every launch to `clock`;
    /// repeated cycles against one [`Workspace`] reuse every scratch
    /// vector. `x` already holds the first `swept` pre-smoothing sweeps.
    /// Every vector pass rides in the epilogue of the SpMV before it: each
    /// Jacobi sweep, the residual `b − A·x` and the correction `x + P·x_c`
    /// are one SpMV each, so only the coarse substitution launches besides
    /// the products. A coarse interior level starts from `x_c = 0`, so its
    /// first sweep is `0 + (ω·dᵢ)·bᵢ` — the Jacobi epilogue's bits, since
    /// no level holds a non-finite entry (`A·0 = 0`) — and the restriction
    /// writes it beside `Pᵀr` instead of that level spending an SpMV on
    /// `A·0`. A pass that rewrites `x` writes a second buffer, because
    /// other CTAs still gather the old `x`, and swaps afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn cycle(
        &self,
        device: &Device,
        level: usize,
        b: &[f64],
        x: &mut Vec<f64>,
        swept: usize,
        ws: &mut Workspace,
        clock: &mut SimClock,
    ) {
        let lvl = &self.levels[level];
        if lvl.p.is_none() {
            self.coarse.solve(device, lvl, b, x, ws, clock);
            return;
        }
        let omega = self.options.omega;
        let mut x_new = ws.take_f64();
        for _ in swept..self.options.pre_sweeps {
            clock.add_fused(&jacobi_sweep_planned(
                &lvl.a_plan,
                &lvl.a,
                &lvl.inv_diag,
                b,
                x,
                omega,
                &mut x_new,
                ws,
            ));
        }
        // Restrict the residual r = b − A·x.
        let mut r = ws.take_f64();
        clock.add_fused(&lvl.a_plan.execute_fused_into(
            &lvl.a,
            x,
            &mut r,
            ws,
            &Epilogue::axpby(-1.0, 1.0, b),
        ));
        let pt = lvl.pt.as_ref().expect("interior level");
        let pt_plan = lvl.pt_plan.as_ref().expect("interior level");
        let mut rc = ws.take_f64();
        let mut xc = ws.take_f64();
        let next = &self.levels[level + 1];
        let coarse_swept = if next.p.is_some() && self.options.pre_sweeps > 0 {
            let first_sweep = Epilogue::zero_guess_jacobi(omega, &next.inv_diag);
            clock.add_fused(&pt_plan.execute_fused_sweep_into(
                pt,
                &r,
                &mut rc,
                &mut xc,
                ws,
                &first_sweep,
            ));
            1
        } else {
            pt_plan.execute_into(pt, &r, &mut rc, ws);
            clock.add_spmv(pt_plan);
            xc.clear();
            xc.resize(pt.num_rows, 0.0);
            0
        };

        // Coarse correction x += P·x_c.
        self.cycle(device, level + 1, &rc, &mut xc, coarse_swept, ws, clock);
        let p = lvl.p.as_ref().expect("interior level");
        let p_plan = lvl.p_plan.as_ref().expect("interior level");
        clock.add_fused(&p_plan.execute_fused_into(
            p,
            &xc,
            &mut x_new,
            ws,
            &Epilogue::axpby(1.0, 1.0, x),
        ));
        std::mem::swap(x, &mut x_new);

        for _ in 0..self.options.post_sweeps {
            clock.add_fused(&jacobi_sweep_planned(
                &lvl.a_plan,
                &lvl.a,
                &lvl.inv_diag,
                b,
                x,
                omega,
                &mut x_new,
                ws,
            ));
        }
        ws.put_f64(x_new);
        ws.put_f64(r);
        ws.put_f64(rc);
        ws.put_f64(xc);
    }

    /// V-cycle iteration until the relative residual target is met.
    pub fn solve(&self, device: &Device, b: &[f64], opts: &SolverOptions) -> crate::SolveReport {
        let host_start = Instant::now();
        let lvl0 = &self.levels[0];
        let a = &lvl0.a;
        let mut x = vec![0.0; a.num_rows];
        let mut clock = SimClock::default();
        let mut ws = Workspace::new();
        let mut r: Vec<f64> = Vec::new();
        let (bn, s) = crate::blas1::norm2(device, b);
        clock.add_blas1(&s);
        let target = (opts.rel_tolerance * bn).max(f64::MIN_POSITIVE);
        let mut iterations = 0;
        let mut converged = false;
        while iterations < opts.max_iterations {
            self.cycle(device, 0, b, &mut x, 0, &mut ws, &mut clock);
            iterations += 1;
            clock.add_fused(&lvl0.a_plan.execute_fused_into(
                a,
                &x,
                &mut r,
                &mut ws,
                &Epilogue::axpby(-1.0, 1.0, b),
            ));
            let (rn, s) = crate::blas1::norm2(device, &r);
            clock.add_blas1(&s);
            if rn <= target {
                converged = true;
                break;
            }
        }
        let mut ax = r;
        lvl0.a_plan.execute_into(a, &x, &mut ax, &mut ws);
        let rn = b
            .iter()
            .zip(&ax)
            .map(|(bi, yi)| (bi - yi) * (bi - yi))
            .sum::<f64>()
            .sqrt();
        crate::SolveReport {
            x,
            iterations,
            converged,
            relative_residual: if bn == 0.0 { rn } else { rn / bn },
            sim_ms: clock.ms,
            ledger: clock.ledger,
            host_ms: host_start.elapsed().as_secs_f64() * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    #[test]
    fn aggregation_covers_every_node() {
        let a = gen::stencil_5pt(10, 10);
        let (agg, n) = greedy_aggregation(&a);
        assert!(n > 0 && n < a.num_rows);
        assert!(agg.iter().all(|&g| (g as usize) < n));
    }

    #[test]
    fn tentative_prolongator_has_unit_rows() {
        let a = gen::stencil_5pt(6, 6);
        let (agg, n) = greedy_aggregation(&a);
        let t = tentative_prolongator(&agg, n);
        t.validate().expect("well-formed");
        for r in 0..t.num_rows {
            assert_eq!(t.row_len(r), 1);
            assert_eq!(t.row_vals(r)[0], 1.0);
        }
    }

    #[test]
    fn hierarchy_coarsens_monotonically() {
        let a = gen::stencil_5pt(32, 32);
        let h = AmgHierarchy::build(&dev(), a, AmgOptions::default());
        assert!(h.levels.len() >= 2, "expected multiple levels");
        for w in h.levels.windows(2) {
            assert!(w[1].a.num_rows < w[0].a.num_rows);
        }
        assert!(h.setup_sim_ms > 0.0);
        let coarsest = h.levels.last().expect("non-empty");
        assert!(coarsest.a.num_rows <= 64 || h.levels.len() == h.options.max_levels);
    }

    #[test]
    fn v_cycles_beat_jacobi_sweeps() {
        // Two V-cycles (4 smoothing sweeps of work plus coarse solves)
        // against 4 plain Jacobi sweeps: the coarse-grid correction must
        // pull far ahead once the first-cycle 2-norm transient passes.
        let a = gen::stencil_5pt(24, 24);
        let b = vec![1.0; a.num_rows];
        let h = AmgHierarchy::build(&dev(), a.clone(), AmgOptions::default());

        let mut x_mg = vec![0.0; a.num_rows];
        h.v_cycle(&dev(), &b, &mut x_mg);
        h.v_cycle(&dev(), &b, &mut x_mg);
        let res_mg: f64 = {
            let ax = mps_sparse::ops::spmv_ref(&a, &x_mg);
            b.iter()
                .zip(&ax)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt()
        };

        let mut x_j = vec![0.0; a.num_rows];
        crate::smoothers::jacobi(&dev(), &a, &b, &mut x_j, 2.0 / 3.0, 4);
        let res_j: f64 = {
            let ax = mps_sparse::ops::spmv_ref(&a, &x_j);
            b.iter()
                .zip(&ax)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            res_mg < 0.5 * res_j,
            "two V-cycles ({res_mg}) should beat four Jacobi sweeps ({res_j})"
        );
    }

    /// The 5-point Laplacian with zero row sums (pure Neumann): singular,
    /// with the constants as its null space.
    fn neumann_5pt(n: usize) -> CsrMatrix {
        let mut a = gen::stencil_5pt(n, n);
        for r in 0..a.num_rows {
            let (lo, hi) = (a.row_offsets[r], a.row_offsets[r + 1]);
            let off: f64 = (lo..hi)
                .filter(|&i| a.col_idx[i] as usize != r)
                .map(|i| a.values[i])
                .sum();
            for i in lo..hi {
                if a.col_idx[i] as usize == r {
                    a.values[i] = -off;
                }
            }
        }
        a
    }

    #[test]
    fn direct_coarse_solve_matches_the_cg_coarse_solve() {
        let a = gen::stencil_5pt(48, 48);
        let h = AmgHierarchy::build(&dev(), a.clone(), AmgOptions::default());
        assert!(matches!(h.coarse(), CoarseSolve::Direct(_)));
        let mut cg_h = h.clone();
        cg_h.coarse = CoarseSolve::Cg;
        let b: Vec<f64> = (0..a.num_rows).map(|i| (0.37 * i as f64).sin()).collect();
        let (mut direct, mut iterative) = (vec![0.0; a.num_rows], vec![0.0; a.num_rows]);
        h.v_cycle(&dev(), &b, &mut direct);
        cg_h.v_cycle(&dev(), &b, &mut iterative);
        let diff: f64 = direct
            .iter()
            .zip(&iterative)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = iterative.iter().map(|q| q * q).sum::<f64>().sqrt();
        assert!(diff <= 1e-10 * norm, "relative difference {}", diff / norm);
    }

    #[test]
    fn setup_plans_each_pattern_once_and_a_cycle_plans_nothing() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let a = gen::stencil_5pt(48, 48);
        let h = AmgHierarchy::build(&dev, a.clone(), AmgOptions::default());
        // A, P and Pᵀ on every interior level, A on the coarsest; the power
        // iteration on D⁻¹A borrows A's plan.
        assert_eq!(
            crate::launches(&tracer, "spmv_partition"),
            3 * (h.levels.len() - 1) + 1
        );
        assert_eq!(crate::launches(&tracer, "coarse_lu_factor"), 1);

        tracer.clear();
        let mut x = vec![0.0; a.num_rows];
        h.v_cycle(&dev, &vec![1.0; a.num_rows], &mut x);
        assert_eq!(crate::launches(&tracer, "coarse_lu_solve"), 1);
        assert_eq!(crate::launches(&tracer, "spmv_partition"), 0);
        assert_eq!(crate::launches(&tracer, "coarse_lu_factor"), 0);
    }

    #[test]
    fn coarsest_level_above_the_size_bound_keeps_cg() {
        let dev = Device::titan().with_tracing();
        let tracer = dev.tracer.clone().expect("tracing");
        let a = gen::stencil_5pt(48, 48);
        let options = AmgOptions {
            max_levels: 2,
            ..AmgOptions::default()
        };
        let h = AmgHierarchy::build(&dev, a.clone(), options);
        let coarsest = h.levels.last().expect("non-empty").a.num_rows;
        assert_eq!(coarsest, 1152);
        assert!(coarsest > crate::coarse::DIRECT_MAX_UNKNOWNS);
        assert!(matches!(h.coarse(), CoarseSolve::Cg));

        tracer.clear();
        let mut b = vec![0.0; a.num_rows];
        b[a.num_rows / 2] = 1.0;
        let opts = SolverOptions {
            max_iterations: 100,
            rel_tolerance: 1e-8,
        };
        let report = crate::pcg::pcg(&dev, &a, &b, &h, &opts);
        assert!(report.converged && report.relative_residual <= 1e-8);
        // The CG coarse solve runs through the level's own plan.
        assert_eq!(crate::launches(&tracer, "spmv_partition"), 0);
    }

    #[test]
    fn singular_coarsest_level_keeps_cg() {
        let a = neumann_5pt(16);
        let h = AmgHierarchy::build(&dev(), a.clone(), AmgOptions::default());
        let coarsest = h.levels.last().expect("non-empty").a.num_rows;
        assert!(h.levels.len() >= 2 && coarsest <= crate::coarse::DIRECT_MAX_UNKNOWNS);
        assert!(matches!(h.coarse(), CoarseSolve::Cg));
        // A consistent right-hand side keeps every restricted residual in
        // the range of the coarse operator, where CG is well defined.
        let want: Vec<f64> = (0..a.num_rows).map(|i| (i % 7) as f64 - 3.0).collect();
        let b = mps_sparse::ops::spmv_ref(&a, &want);
        let mut x = vec![0.0; a.num_rows];
        h.v_cycle(&dev(), &b, &mut x);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "AMG level 0 holds a NaN or infinite entry")]
    fn a_non_finite_operator_is_rejected() {
        let mut a = gen::stencil_5pt(12, 12);
        a.values[7] = f64::NAN;
        AmgHierarchy::build(&dev(), a, AmgOptions::default());
    }

    #[test]
    #[should_panic(expected = "AMG level 1 holds a NaN or infinite entry")]
    fn a_galerkin_product_that_overflows_is_rejected() {
        // Finite, and dense, so aggregation leaves one coarse unknown:
        // PᵀAP sums all 400 entries, about 2.5 times f64::MAX.
        let n = 20u32;
        let a = CooMatrix::from_triplets(
            n as usize,
            n as usize,
            (0..n).flat_map(|r| (0..n).map(move |c| (r, c, if r == c { 1.7e308 } else { 1e307 }))),
        )
        .to_csr();
        let options = AmgOptions {
            coarse_size: 0,
            ..AmgOptions::default()
        };
        AmgHierarchy::build(&dev(), a, options);
    }

    #[test]
    fn amg_solves_poisson_in_few_cycles() {
        let a = gen::stencil_5pt(24, 24);
        let mut b = vec![0.0; a.num_rows];
        b[a.num_rows / 2] = 1.0;
        let h = AmgHierarchy::build(&dev(), a, AmgOptions::default());
        let report = h.solve(
            &dev(),
            &b,
            &SolverOptions {
                max_iterations: 60,
                rel_tolerance: 1e-8,
            },
        );
        assert!(report.converged, "residual {}", report.relative_residual);
        assert!(
            report.iterations < 60,
            "AMG should converge quickly, took {}",
            report.iterations
        );
    }
}
