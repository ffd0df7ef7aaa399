//! solve-amg: library use with no engine or plan cache.
//!
//! A 2D Poisson operator; set-up is `AmgHierarchy::build` (the merge
//! SpGEMM/SpAdd Galerkin chain); each op is `pcg` preconditioned by the
//! hierarchy, run to relative residual [`TOL`] from a seeded right-hand
//! side. V-cycles, smoothers, planned SpMV on every level and simulated
//! BLAS-1 launches all run here, while no engine or service code does: an
//! engine or service change should read "no change" on this workload.

use std::time::Instant;

use mps_core::{SpgemmConfig, SpgemmPlan, SpmvConfig, SpmvPlan, Workspace};
use mps_simt::Device;
use mps_solvers::{pcg, AmgHierarchy, AmgOptions, SolverOptions};
use mps_sparse::{gen, CsrMatrix};

use crate::report::{Measured, Metrics};
use crate::rng::{Digest, Rng};
use crate::serve_hot::core_execute_us;
use crate::stats::{percentile, ratio};
use crate::trace::Tracer;
use crate::{Workload, REPLAY_OPS};

/// Grid side of the 5-point Poisson operator (2304 unknowns, 4 levels):
/// small enough that a 30 s phase holds the 5000 solves its windows need.
pub const GRID: usize = 48;
/// Relative residual every solve must reach.
pub const TOL: f64 = 1e-8;
const MAX_ITERATIONS: usize = 100;
/// Right-hand sides in the schedule; a run cycles through them.
pub const RHS: usize = 128;
/// Largest amplitude of the noise added to a right-hand side's smooth
/// mode. The iteration count depends on the mix: at this amplitude about
/// 92% of solves take 9 PCG iterations and the rest 10, so the median
/// sits inside the 9-iteration mode and the 99th percentile inside the
/// 10-iteration one, while the simulated time per solve still depends on
/// the seed.
const NOISE_MAX: f64 = 3.0;
const SETUP_REPS: usize = 7;

/// Seeded right-hand sides: a low-frequency mode of the grid plus noise.
pub fn rhs_set(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::fork(seed, 5);
    let g = GRID as f64;
    (0..RHS)
        .map(|_| {
            let kx = (1 + rng.below(3)) as f64;
            let ky = (1 + rng.below(3)) as f64;
            let amp = NOISE_MAX * rng.unit();
            (0..GRID * GRID)
                .map(|i| {
                    let (x, y) = ((i % GRID) as f64 + 1.0, (i / GRID) as f64 + 1.0);
                    let mode = (kx * std::f64::consts::PI * x / (g + 1.0)).sin()
                        * (ky * std::f64::consts::PI * y / (g + 1.0)).sin();
                    mode + amp * (2.0 * rng.unit() - 1.0)
                })
                .collect()
        })
        .collect()
}

pub fn digest(rhs: &[Vec<f64>]) -> u64 {
    let mut d = Digest::default();
    for v in rhs.iter().flatten() {
        d.word(v.to_bits());
    }
    d.finish()
}

/// `|b - A x| / |b|`, computed by the benchmark itself.
fn relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut rr = 0.0;
    for (i, bi) in b.iter().enumerate() {
        let ax: f64 = (a.row_offsets[i]..a.row_offsets[i + 1])
            .map(|k| a.values[k] * x[a.col_idx[k] as usize])
            .sum();
        rr += (bi - ax) * (bi - ax);
    }
    let bn: f64 = b.iter().map(|v| v * v).sum();
    (rr / bn).sqrt()
}

pub struct SolveAmg {
    dev: Device,
    a: CsrMatrix,
    rhs: Vec<Vec<f64>>,
    h: Option<AmgHierarchy>,
    next: usize,
    n: usize,
    iterations: u64,
    first_phase: bool,
    replay: String,
    /// Nonzeros of the core executes timed directly.
    nnz: f64,
    ws: Workspace,
}

impl SolveAmg {
    pub fn new(seed: u64) -> SolveAmg {
        let rhs = rhs_set(seed);
        let replay = format!("schedule_digest={:#018x}", digest(&rhs));
        SolveAmg {
            dev: Device::titan(),
            a: gen::stencil_5pt(GRID, GRID),
            rhs,
            h: None,
            next: 0,
            n: 0,
            iterations: 0,
            first_phase: true,
            replay,
            nnz: 0.0,
            ws: Workspace::new(),
        }
    }
}

impl Workload for SolveAmg {
    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        self.h = None;
        self.next = 0;
        // The hierarchy takes its operator by value; the copy is ours.
        let a = self.a.clone();
        let t = Instant::now();
        let h = tr.span("solvers.amg_build", 0, None, || {
            AmgHierarchy::build(&self.dev, a, AmgOptions::default())
        });
        let s = t.elapsed().as_secs_f64();
        self.h = Some(h);
        s
    }

    fn setup_reps(&self) -> usize {
        SETUP_REPS
    }

    fn begin(&mut self, tr: &mut Tracer) {
        self.n = 0;
        self.iterations = 0;
        self.nnz = 0.0;
        if tr.on() {
            // The Galerkin chain's products, timed directly on the
            // hierarchy's own operators: A·P on every level.
            let h = self.h.as_ref().expect("set up");
            for level in &h.levels {
                if let Some(p) = &level.p {
                    let plan = tr.span("core.spgemm_symbolic", 0, None, || {
                        SpgemmPlan::new(&self.dev, &level.a, p, &SpgemmConfig::default())
                    });
                    let mut values = Vec::new();
                    tr.span("core.spgemm_numeric", 0, None, || {
                        plan.execute_numeric(&level.a, p, &mut values)
                    });
                }
            }
        }
    }

    fn step(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let h = self.h.as_ref().expect("set up");
        let b = &self.rhs[self.next % RHS];
        self.next += 1;
        let opts = SolverOptions {
            max_iterations: MAX_ITERATIONS,
            rel_tolerance: TOL,
        };
        let id = self.n as u64;
        let t0 = Instant::now();
        let rep = tr.span("solvers.pcg", id, None, || {
            pcg(&self.dev, &self.a, b, h, &opts)
        });
        let busy = t0.elapsed().as_secs_f64();
        let ok = rep.converged && relative_residual(&self.a, b, &rep.x) <= TOL;
        self.n += 1;
        self.iterations += rep.iterations as u64;
        m.op(busy * 1e6, busy * 1e6, ok);
        m.sim_ms += rep.sim_ms;
        if tr.on() {
            let mut x = vec![0.0; b.len()];
            tr.span("solvers.vcycle", id, None, || {
                h.v_cycle(&self.dev, b, &mut x)
            });
            let plan = tr.span("core.spmv_build", id, None, || {
                SpmvPlan::new(&self.dev, &self.a, &SpmvConfig::default())
            });
            let mut y = Vec::new();
            tr.span("core.spmv_execute", id, None, || {
                plan.execute_into(&self.a, b, &mut y, &mut self.ws)
            });
            self.nnz += self.a.nnz() as f64;
        }
        if self.first_phase && self.n == REPLAY_OPS {
            self.replay.push_str(&format!(
                " window_ops={} iterations={} levels={}",
                self.n,
                self.iterations,
                h.levels.len()
            ));
        }
    }

    fn end(&mut self, _m: &mut Measured) {
        self.first_phase = false;
    }

    fn layers(&self, tr: &Tracer, m: &Measured, setup_s: f64, out: &mut Metrics) {
        let ops = self.n as f64;
        out.set("service.failed", m.failed as f64);
        out.set("core.nnz_per_s", ratio(self.nnz, core_execute_us(tr) / 1e6));
        out.set("simt.exec_sim_us_per_op", ratio(m.sim_ms * 1e3, ops));
        out.set("solvers.iterations", ratio(self.iterations as f64, ops));
        out.set(
            "solvers.levels",
            self.h.as_ref().map_or(0, |h| h.levels.len()) as f64,
        );
        out.set("solvers.amg_build_s", setup_s);
        out.set(
            "solvers.solve_p99_us",
            percentile(&m.lat_us, 0.99).unwrap_or(0.0),
        );
    }

    fn replay(&self) -> String {
        self.replay.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_digest() {
        assert_eq!(digest(&rhs_set(3)), digest(&rhs_set(3)));
        assert_ne!(digest(&rhs_set(3)), digest(&rhs_set(4)));
    }

    #[test]
    fn residual_of_the_exact_solution_is_zero() {
        let a = gen::stencil_5pt(4, 4);
        let x: Vec<f64> = (0..16).map(f64::from).collect();
        let b = mps_sparse::ops::spmv_ref(&a, &x);
        assert_eq!(relative_residual(&a, &b, &x), 0.0);
    }
}
