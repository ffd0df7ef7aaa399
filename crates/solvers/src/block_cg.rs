//! Conjugate gradients for multiple right-hand sides on the merge SpMM.
//!
//! Solves `A·X = B` for an SPD operator and a block of `k` right-hand
//! sides. The recurrences are the *decoupled* multi-RHS form: each column
//! keeps its own scalar `alpha`/`beta`/residual recurrence (numerically
//! identical to `k` independent [`crate::krylov::cg`] runs), but all `k`
//! systems share **one** column-tiled SpMM per iteration instead of `k`
//! SpMVs — the plan's partition is built once and every operator
//! application streams `A` `⌈k / TILE_K⌉` times rather than `k` times.
//! Converged (or broken-down) columns are masked out of the vector updates
//! and their iterates freeze, while the remaining columns keep iterating.

use std::sync::Arc;
use std::time::Instant;

use mps_core::{SpmmConfig, SpmmPlan};
use mps_engine::Engine;
use mps_simt::{Device, Phase};
use mps_sparse::{CsrMatrix, DenseBlock};

use crate::blas1;
use crate::krylov::SolverOptions;
use crate::SimClock;

/// Outcome of a block solve: per-column convergence over a shared
/// iteration count.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSolveReport {
    pub x: DenseBlock,
    /// Outer iterations run (shared across columns; a column that
    /// converges early freezes while the rest continue).
    pub iterations: usize,
    /// Per-column convergence flags.
    pub converged: Vec<bool>,
    /// Per-column final true relative residuals `|b_c - A·x_c| / |b_c|`.
    pub relative_residuals: Vec<f64>,
    /// Accumulated simulated device time (SpMM + block vector kernels), ms.
    pub sim_ms: f64,
    /// Measured host wall-clock of the whole solve, ms.
    pub host_ms: f64,
}

impl BlockSolveReport {
    /// Whether every column converged.
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }
}

/// Block CG: unpreconditioned conjugate gradients for `k` right-hand
/// sides sharing one planned SpMM per iteration.
///
/// # Panics
/// Panics if the system is not square or `b` does not have `num_rows` rows.
pub fn block_cg(
    device: &Device,
    a: &CsrMatrix,
    b: &DenseBlock,
    opts: &SolverOptions,
) -> BlockSolveReport {
    block_cg_impl(device, a, b, opts, None)
}

/// [`block_cg`] sourcing its SpMM plan and workspace from a serving
/// engine: the plan comes from the engine's fingerprint-keyed cache (so
/// repeated solves on one operator re-plan nothing) and the scratch arena
/// is checked out of — and returned to — the engine's pool. Numerically
/// identical to [`block_cg`]; the partition cost is charged to the
/// engine's ledger at plan build instead of to every solve's `sim_ms`.
pub fn block_cg_with_engine(
    engine: &Engine,
    a: &CsrMatrix,
    b: &DenseBlock,
    opts: &SolverOptions,
) -> BlockSolveReport {
    block_cg_impl(engine.device(), a, b, opts, Some(engine))
}

fn block_cg_impl(
    device: &Device,
    a: &CsrMatrix,
    b: &DenseBlock,
    opts: &SolverOptions,
    engine: Option<&Engine>,
) -> BlockSolveReport {
    assert_eq!(a.num_rows, a.num_cols, "block CG needs a square system");
    assert_eq!(b.rows, a.num_rows, "right-hand side block height mismatch");
    let host_start = Instant::now();
    let n = a.num_rows;
    let k = b.cols;
    let mut clock = SimClock::default();
    // The operator and block width are fixed across iterations: plan once
    // (or fetch the cached plan when an engine serves this operator).
    let plan: Arc<SpmmPlan> = match engine {
        Some(e) => e.spmm_plan(a, k),
        None => {
            let plan = SpmmPlan::new(device, a, k, &SpmmConfig::default());
            clock.charge(Phase::Partition, &plan.partition);
            Arc::new(plan)
        }
    };
    let mut ws = match engine {
        Some(e) => e.checkout_workspace(),
        None => Default::default(),
    };
    let mut ap = DenseBlock::zeros(0, 0);

    let mut x = DenseBlock::zeros(n, k);
    let mut r = b.clone();
    let mut p = r.clone();
    let (mut rr, s) = blas1::block_dots(device, &r, &r);
    clock.add_blas1(&s);
    let (bb, s) = blas1::block_dots(device, b, b);
    clock.add_blas1(&s);
    let targets: Vec<f64> = bb
        .iter()
        .map(|&d| (opts.rel_tolerance * d.sqrt()).max(f64::MIN_POSITIVE))
        .collect();

    let mut converged: Vec<bool> = rr
        .iter()
        .zip(&targets)
        .map(|(&d, &t)| d.sqrt() <= t)
        .collect();
    let mut active: Vec<bool> = converged.iter().map(|&c| !c).collect();
    let mut alphas = vec![0.0; k];
    let mut betas = vec![0.0; k];

    let mut iterations = 0;
    while active.iter().any(|&a| a) && iterations < opts.max_iterations {
        clock.add_ms(plan.execute_into(a, &p, &mut ap, &mut ws));
        let (pap, s) = blas1::block_dots(device, &p, &ap);
        clock.add_blas1(&s);
        for c in 0..k {
            if !active[c] {
                alphas[c] = 0.0;
                continue;
            }
            if pap[c] <= 0.0 {
                // Not SPD (or breakdown): freeze this column at its best
                // iterate, keep the rest going.
                active[c] = false;
                alphas[c] = 0.0;
            } else {
                alphas[c] = rr[c] / pap[c];
            }
        }
        clock.add_blas1(&blas1::block_axpy(device, &alphas, &active, &p, &mut x));
        let neg: Vec<f64> = alphas.iter().map(|&a| -a).collect();
        clock.add_blas1(&blas1::block_axpy(device, &neg, &active, &ap, &mut r));
        let (rr_next, s) = blas1::block_dots(device, &r, &r);
        clock.add_blas1(&s);
        iterations += 1;
        for c in 0..k {
            if !active[c] {
                betas[c] = 0.0;
                continue;
            }
            if rr_next[c].sqrt() <= targets[c] {
                converged[c] = true;
                active[c] = false;
                betas[c] = 0.0;
            } else {
                betas[c] = rr_next[c] / rr[c];
            }
        }
        clock.add_blas1(&blas1::block_xpby(device, &r, &betas, &active, &mut p));
        rr = rr_next;
    }

    // True residuals per column from one final product, replayed through
    // the iteration plan (same k, so no re-partitioning).
    let axb = plan.execute(device, a, &x);
    let relative_residuals: Vec<f64> = (0..k)
        .map(|c| {
            let rn = (0..n)
                .map(|i| {
                    let d = b.get(i, c) - axb.y.get(i, c);
                    d * d
                })
                .sum::<f64>()
                .sqrt();
            let bn = bb[c].sqrt();
            if bn == 0.0 {
                rn
            } else {
                rn / bn
            }
        })
        .collect();

    if let Some(e) = engine {
        e.return_workspace(ws);
    }

    BlockSolveReport {
        x,
        iterations,
        converged,
        relative_residuals,
        sim_ms: clock.ms,
        host_ms: host_start.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::cg;
    use mps_sparse::gen;

    fn dev() -> Device {
        Device::titan()
    }

    fn multi_source(n: usize, k: usize) -> DenseBlock {
        let mut b = DenseBlock::zeros(n, k);
        for c in 0..k {
            b.set((c * n) / k + n / (2 * k), c, 1.0);
        }
        b
    }

    #[test]
    fn block_cg_solves_poisson_for_all_columns() {
        let a = gen::stencil_5pt(20, 20);
        let b = multi_source(a.num_rows, 4);
        let report = block_cg(&dev(), &a, &b, &SolverOptions::default());
        assert!(
            report.all_converged(),
            "residuals {:?}",
            report.relative_residuals
        );
        for rr in &report.relative_residuals {
            assert!(*rr < 1e-9);
        }
        assert!(report.sim_ms > 0.0);
        assert!(report.host_ms > 0.0);
    }

    #[test]
    fn columns_match_independent_cg_solves() {
        let a = gen::stencil_5pt(16, 16);
        let b = multi_source(a.num_rows, 3);
        let block = block_cg(&dev(), &a, &b, &SolverOptions::default());
        for c in 0..3 {
            let single = cg(&dev(), &a, &b.column(c), &SolverOptions::default());
            assert!(single.converged);
            for (x, y) in block.x.column(c).iter().zip(&single.x) {
                assert!((x - y).abs() < 1e-8, "column {c}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn shared_spmm_is_cheaper_than_independent_solves() {
        let a = gen::stencil_5pt(24, 24);
        let k = 8;
        let b = multi_source(a.num_rows, k);
        let block = block_cg(&dev(), &a, &b, &SolverOptions::default());
        let singles: f64 = (0..k)
            .map(|c| cg(&dev(), &a, &b.column(c), &SolverOptions::default()).sim_ms)
            .sum();
        assert!(
            block.sim_ms < singles,
            "block {} ms !< {} ms for {k} independent solves",
            block.sim_ms,
            singles
        );
    }

    #[test]
    fn identity_converges_in_one_iteration() {
        let a = mps_sparse::CsrMatrix::identity(30);
        let b = DenseBlock::from_fn(30, 2, |_, c| (c + 2) as f64);
        let report = block_cg(&dev(), &a, &b, &SolverOptions::default());
        assert!(report.all_converged());
        assert_eq!(report.iterations, 1);
        for c in 0..2 {
            for xi in report.x.column(c) {
                assert!((xi - (c + 2) as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_columns_converge_immediately() {
        let a = gen::stencil_5pt(8, 8);
        let mut b = DenseBlock::zeros(a.num_rows, 2);
        b.set(5, 1, 1.0); // column 0 stays all-zero
        let report = block_cg(&dev(), &a, &b, &SolverOptions::default());
        assert!(report.converged[0]);
        assert!(report.converged[1]);
        assert_eq!(report.x.column(0), vec![0.0; a.num_rows]);
    }

    #[test]
    fn engine_backed_solve_matches_standalone_bitwise() {
        let a = gen::stencil_5pt(16, 16);
        let b = multi_source(a.num_rows, 3);
        let plain = block_cg(&dev(), &a, &b, &SolverOptions::default());
        let engine = Engine::new(&dev());
        let served1 = block_cg_with_engine(&engine, &a, &b, &SolverOptions::default());
        let served2 = block_cg_with_engine(&engine, &a, &b, &SolverOptions::default());
        let bits = |d: &DenseBlock| d.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.x), bits(&served1.x));
        assert_eq!(bits(&served1.x), bits(&served2.x));
        // Second solve re-planned nothing and reused the pooled arena.
        let s = engine.stats();
        assert_eq!((s.cache_misses, s.cache_hits), (1, 1));
        assert_eq!(s.pool_reuses, 1);
        // The engine ledger, not the solve, carries the partition charge.
        assert!(s.plan_build_sim_ms > 0.0);
        assert!(served2.sim_ms < plain.sim_ms);
    }

    #[test]
    fn respects_iteration_cap() {
        let a = gen::stencil_5pt(24, 24);
        let b = multi_source(a.num_rows, 2);
        let opts = SolverOptions {
            max_iterations: 3,
            rel_tolerance: 1e-14,
        };
        let report = block_cg(&dev(), &a, &b, &opts);
        assert!(!report.all_converged());
        assert_eq!(report.iterations, 3);
    }
}
