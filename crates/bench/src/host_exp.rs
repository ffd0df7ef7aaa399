//! Host execution runtime benchmark: what does a *warm* launch cost on
//! the machine actually running the simulator?
//!
//! The merge-path plans are built once and replayed; after PR 6 the
//! replay hot path is allocation-free and runs on a persistent worker
//! pool instead of spawning scoped threads per launch. This experiment
//! quantifies the three numbers that story rests on:
//!
//! * **per-launch overhead** — wall-clock nanoseconds of a minimal
//!   [`launch_map_into`] grid (trivial body, reused buffers): the fixed
//!   cost every kernel launch pays before any real work;
//! * **pool vs spawn** — the same chunked job dispatched through the
//!   persistent pool (`into_par_iter`) and through the legacy
//!   per-call `std::thread::scope` comparator ([`rayon::spawn_chunked`]),
//!   with the pool's thread-spawn counter asserted flat across the
//!   measured window;
//! * **host/sim gap** — measured host milliseconds of warm
//!   `SpmvPlan`/`SpmmPlan` replays next to the simulated device
//!   milliseconds the cost model charges for the same launches;
//! * **plan builds** — host microseconds of pricing a new sparsity
//!   pattern on serve-churn's eight stand-ins (2% scale): an SpMV plan
//!   build, an SpGEMM symbolic build against a 32-column right operand
//!   with one nonzero per row, and a 4-entry delta apply, each next to
//!   the simulated milliseconds it charges.
//!
//! [`report`] is the `host` experiment of `mps bench`
//! (`BENCH_host.json`).

use std::hint::black_box;
use std::time::Instant;

use mps_core::{
    apply_delta, CsrDelta, SpAddConfig, SpgemmConfig, SpgemmPlan, SpmmConfig, SpmmPlan, SpmvConfig,
    SpmvPlan, Workspace,
};
use mps_simt::grid::{launch_map_into, LaunchBuffers, LaunchConfig, LaunchStats};
use mps_simt::Device;
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::{gen, CooMatrix, CsrMatrix, DenseBlock};

use crate::report::{Gates, Report};

/// One warm-replay measurement (a kernel plan or the raw launch floor).
#[derive(Debug, Clone)]
pub struct LaunchRow {
    pub kernel: String,
    pub n: usize,
    pub nnz: usize,
    /// Measured host nanoseconds per execution, averaged over the reps.
    pub host_ns_per_exec: f64,
    /// Simulated device ms charged per execution (0 for the raw launch
    /// floor, which prices an empty body).
    pub sim_ms: f64,
}

impl LaunchRow {
    /// Host ms per execution.
    pub fn host_ms(&self) -> f64 {
        self.host_ns_per_exec / 1e6
    }

    /// Host-over-sim time ratio (the host/sim gap); 0 when the simulated
    /// time is zero.
    pub fn host_sim_gap(&self) -> f64 {
        if self.sim_ms <= 0.0 {
            return 0.0;
        }
        self.host_ms() / self.sim_ms
    }
}

/// Pool-vs-spawn dispatch comparison on one chunked job shape.
#[derive(Debug, Clone)]
pub struct PoolRow {
    /// Items per job.
    pub len: usize,
    /// Jobs timed per path.
    pub jobs: usize,
    /// Worker threads the runtime resolved to.
    pub threads: usize,
    /// Nanoseconds per job through the persistent pool.
    pub pool_ns_per_job: f64,
    /// Nanoseconds per job through per-call scoped-thread spawning.
    pub spawn_ns_per_job: f64,
    /// Threads created during the measured pool window (0 once warm).
    pub steady_state_spawns: u64,
}

impl PoolRow {
    /// How much cheaper pool dispatch is than per-launch thread spawning.
    pub fn pool_vs_spawn_speedup(&self) -> f64 {
        if self.pool_ns_per_job <= 0.0 {
            return 0.0;
        }
        self.spawn_ns_per_job / self.pool_ns_per_job
    }
}

/// Host cost of pricing one stand-in's new pattern, build by build.
#[derive(Debug, Clone)]
pub struct BuildRow {
    pub matrix: String,
    pub nnz: usize,
    /// Intermediate products of the SpGEMM against the right operand.
    pub products: u64,
    /// Median host microseconds per build over the reps.
    pub spmv_build_us: f64,
    pub spgemm_symbolic_us: f64,
    pub delta_apply_us: f64,
    /// Simulated ms the SpMV build charges: the partition it runs, and
    /// one execute it prices.
    pub spmv_build_sim_ms: f64,
    pub spmv_execute_sim_ms: f64,
    /// Simulated ms of the SpGEMM symbolic half, and of the numeric pass
    /// the build prices.
    pub spgemm_symbolic_sim_ms: f64,
    pub spgemm_numeric_sim_ms: f64,
    pub delta_sim_ms: f64,
}

/// The full host-runtime report.
#[derive(Debug, Clone)]
pub struct HostReport {
    pub launches: Vec<LaunchRow>,
    pub pool: PoolRow,
    pub plan_builds: Vec<BuildRow>,
}

fn operand(a: &CsrMatrix, k: usize) -> DenseBlock {
    DenseBlock::from_fn(a.num_cols, k, |r, c| {
        1.0 + ((r * 7 + c * 13) % 17) as f64 * 0.25
    })
}

/// Time `reps` calls of `f` after one warm-up call; ns per call.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps.max(1) {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps.max(1) as f64
}

/// Measure the raw per-launch floor: a grid of `grid_dim` CTAs with a
/// trivial body through reused [`LaunchBuffers`] — dispatch, counter
/// folding, and makespan scheduling with no kernel work.
pub fn measure_launch_floor(device: &Device, grid_dim: usize, reps: usize) -> LaunchRow {
    let cfg = LaunchConfig::new(grid_dim, 128);
    let mut bufs: LaunchBuffers<u64> = LaunchBuffers::new();
    let mut outputs: Vec<u64> = Vec::new();
    let mut stats = LaunchStats::default();
    let ns = time_ns(reps, || {
        launch_map_into(
            device,
            "host_exp::floor",
            cfg,
            |cta| cta.cta_id as u64,
            &mut bufs,
            &mut outputs,
            &mut stats,
        );
        black_box(&outputs);
    });
    LaunchRow {
        kernel: format!("launch_floor_g{grid_dim}"),
        n: grid_dim,
        nnz: 0,
        host_ns_per_exec: ns,
        sim_ms: stats.sim_ms,
    }
}

/// Measure warm SpMV and SpMM (k=16) plan replays on one operator.
pub fn measure_kernels(device: &Device, a: &CsrMatrix, reps: usize) -> Vec<LaunchRow> {
    let spmv_plan = SpmvPlan::new(device, a, &SpmvConfig::default());
    let x: Vec<f64> = (0..a.num_cols)
        .map(|i| 1.0 + (i % 7) as f64 * 0.5)
        .collect();
    let mut ws = Workspace::new();
    let mut y: Vec<f64> = Vec::new();
    let spmv_ns = time_ns(reps, || {
        spmv_plan.execute_into(a, &x, &mut y, &mut ws);
        black_box(&y);
    });

    let k = 16;
    let spmm_plan = SpmmPlan::new(device, a, k, &SpmmConfig::default());
    let xb = operand(a, k);
    let mut yb = DenseBlock::zeros(0, 0);
    let spmm_ns = time_ns(reps, || {
        spmm_plan.execute_into(a, &xb, &mut yb, &mut ws);
        black_box(&yb);
    });

    vec![
        LaunchRow {
            kernel: "spmv".to_string(),
            n: a.num_rows,
            nnz: a.nnz(),
            host_ns_per_exec: spmv_ns,
            sim_ms: spmv_plan.execute_sim_ms(),
        },
        LaunchRow {
            kernel: format!("spmm_k{k}"),
            n: a.num_rows,
            nnz: a.nnz(),
            host_ns_per_exec: spmm_ns,
            sim_ms: spmm_plan.execute_sim_ms(),
        },
    ]
}

/// serve-churn's stand-ins, at its scale.
const STAND_INS: [SuiteMatrix; 8] = [
    SuiteMatrix::Protein,
    SuiteMatrix::Cantilever,
    SuiteMatrix::Harbor,
    SuiteMatrix::Qcd,
    SuiteMatrix::Economics,
    SuiteMatrix::Epidemiology,
    SuiteMatrix::Accelerator,
    SuiteMatrix::Circuit,
];
const STAND_IN_SCALE: f64 = 0.02;

/// `rows × 32` with one nonzero per row at a hashed column.
fn right_operand(rows: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, 32);
    for r in 0..rows {
        let h = (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        coo.push(r as u32, (h % 32) as u32, 1.0 + (h % 5) as f64);
    }
    coo.to_csr()
}

/// Four edits: two upserts at hashed coordinates (almost always
/// inserts), one value edit and one removal of existing entries.
fn four_entry_delta(a: &CsrMatrix) -> CsrDelta {
    let h = |i: u64| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
    let mut d = CsrDelta::new();
    for i in 0..2 {
        let (r, c) = (
            h(2 * i) as usize % a.num_rows,
            h(2 * i + 1) as usize % a.num_cols,
        );
        d.upsert(r as u32, c as u32, 0.5);
    }
    for (k, edit) in [
        (h(7) as usize % a.nnz(), Some(2.0)),
        (h(9) as usize % a.nnz(), None),
    ] {
        let r = a.row_offsets.partition_point(|&o| o <= k) - 1;
        match edit {
            Some(v) => d.upsert(r as u32, a.col_idx[k], v),
            None => d.remove(r as u32, a.col_idx[k]),
        };
    }
    d
}

/// Median host microseconds of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Time the three pattern builds on `matrix` at `scale`.
pub fn measure_builds(device: &Device, matrix: SuiteMatrix, scale: f64, reps: usize) -> BuildRow {
    let a = matrix.generate(scale);
    let b = right_operand(a.num_cols);
    let delta = four_entry_delta(&a);
    let (spmv_cfg, spgemm_cfg, delta_cfg) = (
        SpmvConfig::default(),
        SpgemmConfig::default(),
        SpAddConfig::default(),
    );
    let spmv = SpmvPlan::new(device, &a, &spmv_cfg);
    let spgemm = SpgemmPlan::new(device, &a, &b, &spgemm_cfg);
    let applied = apply_delta(device, &a, &delta, &delta_cfg).expect("delta within bounds");
    BuildRow {
        matrix: matrix.name().to_string(),
        nnz: a.nnz(),
        products: spgemm.products(),
        spmv_build_us: median_us(reps, || {
            black_box(SpmvPlan::new(device, &a, &spmv_cfg));
        }),
        spgemm_symbolic_us: median_us(reps, || {
            black_box(SpgemmPlan::new(device, &a, &b, &spgemm_cfg));
        }),
        delta_apply_us: median_us(reps, || {
            black_box(apply_delta(device, &a, &delta, &delta_cfg).expect("in bounds"));
        }),
        spmv_build_sim_ms: spmv.build_sim_ms(),
        spmv_execute_sim_ms: spmv.execute_sim_ms(),
        spgemm_symbolic_sim_ms: spgemm.symbolic_ms(),
        spgemm_numeric_sim_ms: spgemm.numeric_ms(),
        delta_sim_ms: applied.sim_ms(),
    }
}

/// Output slot shared across spawned chunks. Chunk ranges are disjoint,
/// so every index is written by exactly one thread per job.
struct SendPtr(*mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

fn pool_body(i: usize) -> f64 {
    let x = i as f64;
    x * 1.000000119 + (i & 7) as f64
}

/// Dispatch the same chunked job through the persistent pool and through
/// per-call scoped-thread spawning, timing both. The pool window also
/// checks the global thread-spawn counter stays flat: a warm pool
/// dispatches on parked workers, it does not create threads.
pub fn measure_pool(len: usize, jobs: usize) -> PoolRow {
    use rayon::prelude::*;

    let jobs = jobs.max(1);
    // Pool path: work-hinted so the job parallelizes regardless of size,
    // collected into a reused buffer (the launch hot path's shape).
    let mut buf: Vec<f64> = Vec::new();
    let run_pool = |buf: &mut Vec<f64>| {
        (0..len)
            .into_par_iter()
            .with_item_work(rayon::WORK_CUTOFF)
            .map(pool_body)
            .collect_into_vec(buf);
    };
    run_pool(&mut buf);
    let spawned_before = rayon::threads_spawned();
    let t = Instant::now();
    for _ in 0..jobs {
        run_pool(&mut buf);
    }
    let pool_ns = t.elapsed().as_nanos() as f64 / jobs as f64;
    let steady_state_spawns = rayon::threads_spawned() - spawned_before;
    black_box(&buf);

    // Spawn path: the pre-pool comparator — scoped threads per job,
    // writing the same elements through disjoint chunks.
    let mut buf2 = vec![0.0f64; len];
    let ptr = SendPtr(buf2.as_mut_ptr());
    let run_spawn = || {
        rayon::spawn_chunked(len, |range| {
            let p = &ptr;
            for i in range {
                // SAFETY: chunk ranges partition 0..len, so no index is
                // written concurrently; the buffer outlives the scope.
                unsafe { *p.0.add(i) = pool_body(i) };
            }
        });
    };
    run_spawn();
    let t = Instant::now();
    for _ in 0..jobs {
        run_spawn();
    }
    let spawn_ns = t.elapsed().as_nanos() as f64 / jobs as f64;
    black_box(&buf2);

    PoolRow {
        len,
        jobs,
        threads: rayon::current_num_threads(),
        pool_ns_per_job: pool_ns,
        spawn_ns_per_job: spawn_ns,
        steady_state_spawns,
    }
}

/// Run the full host-runtime experiment on a uniform random operator of
/// `n` rows and ~`avg_nnz_per_row` nonzeros per row, with the plan builds
/// timed on the first `stand_ins` of serve-churn's matrices at
/// `build_scale`.
pub fn run(device: &Device, size: Size) -> HostReport {
    let Size {
        n,
        avg_nnz_per_row,
        reps,
        stand_ins,
        build_scale,
    } = size;
    let a = gen::random_uniform(n, n, avg_nnz_per_row, avg_nnz_per_row / 2.0, 42);
    let mut launches = vec![
        measure_launch_floor(device, 1, reps * 4),
        measure_launch_floor(device, 64, reps * 4),
    ];
    launches.extend(measure_kernels(device, &a, reps));
    let pool = measure_pool(1 << 16, (reps * 8).max(16));
    let plan_builds = STAND_INS[..stand_ins]
        .iter()
        .map(|&m| measure_builds(device, m, build_scale, reps))
        .collect();
    HostReport {
        launches,
        pool,
        plan_builds,
    }
}

/// How much the experiment runs.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub n: usize,
    pub avg_nnz_per_row: f64,
    pub reps: usize,
    pub stand_ins: usize,
    pub build_scale: f64,
}

/// The smoke run.
const TINY: Size = Size {
    n: 300,
    avg_nnz_per_row: 6.0,
    reps: 2,
    stand_ins: 2,
    build_scale: 0.002,
};
/// The committed artifact.
const FULL: Size = Size {
    n: 4000,
    avg_nnz_per_row: 16.0,
    reps: 10,
    stand_ins: 8,
    build_scale: STAND_IN_SCALE,
};

/// Run the experiment on a pool of [`crate::default_pool_threads`] (the
/// pool-vs-spawn comparison needs a multi-threaded runtime), print the
/// launch table, and return the report.
pub fn report(tiny: bool) -> Report {
    crate::default_pool_threads();
    let r = run(&Device::titan(), if tiny { TINY } else { FULL });
    println!("{}", render(&r));
    to_report(&r, tiny)
}

fn to_report(h: &HostReport, tiny: bool) -> Report {
    Report::new("host", tiny)
        .with_table(
            "launches",
            &h.launches,
            &[
                ("kernel", "", |l| l.kernel.as_str().into()),
                ("n", "rows", |l| l.n.into()),
                ("nnz", "count", |l| l.nnz.into()),
                ("host_ns_per_exec", "ns", |l| l.host_ns_per_exec.into()),
                ("host_ms", "ms", |l| l.host_ms().into()),
                ("sim_ms", "ms", |l| l.sim_ms.into()),
                ("host_sim_gap", "ratio", |l| l.host_sim_gap().into()),
            ],
        )
        .with_table(
            "pool",
            std::slice::from_ref(&h.pool),
            &[
                ("len", "items", |p| p.len.into()),
                ("jobs", "count", |p| p.jobs.into()),
                ("threads", "count", |p| p.threads.into()),
                ("pool_ns_per_job", "ns", |p| p.pool_ns_per_job.into()),
                ("spawn_ns_per_job", "ns", |p| p.spawn_ns_per_job.into()),
                ("pool_vs_spawn_speedup", "x", |p| {
                    p.pool_vs_spawn_speedup().into()
                }),
                ("steady_state_spawns", "count", |p| {
                    p.steady_state_spawns.into()
                }),
            ],
        )
        .with_table(
            "plan_builds",
            &h.plan_builds,
            &[
                ("matrix", "", |b| b.matrix.as_str().into()),
                ("nnz", "count", |b| b.nnz.into()),
                ("products", "count", |b| b.products.into()),
                ("spmv_build_us", "us", |b| b.spmv_build_us.into()),
                ("spgemm_symbolic_us", "us", |b| b.spgemm_symbolic_us.into()),
                ("delta_apply_us", "us", |b| b.delta_apply_us.into()),
                ("spmv_build_sim_ms", "ms", |b| b.spmv_build_sim_ms.into()),
                ("spmv_execute_sim_ms", "ms", |b| {
                    b.spmv_execute_sim_ms.into()
                }),
                ("spgemm_symbolic_sim_ms", "ms", |b| {
                    b.spgemm_symbolic_sim_ms.into()
                }),
                ("spgemm_numeric_sim_ms", "ms", |b| {
                    b.spgemm_numeric_sim_ms.into()
                }),
                ("delta_sim_ms", "ms", |b| b.delta_sim_ms.into()),
            ],
        )
}

/// SpMV and SpMM launches are measured, every measurement advanced the
/// wall clock, and a warm pool spawns no threads.
pub fn gates(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let launches = r.rows("launches");
    g.check(!launches.is_empty(), "launches: at least one row");
    let measured = |k: &str| launches.iter().any(|l| l.text("kernel") == k);
    g.check(
        measured("spmv") && measured("spmm_k16"),
        "launches include spmv and spmm_k16",
    );
    g.each(
        &launches,
        "kernel",
        &[("host_ns_per_exec > 0", |l| l.num("host_ns_per_exec") > 0.0)],
    );
    g.each(
        &[r.row("pool")],
        "",
        &[
            ("pool_ns_per_job > 0 and spawn_ns_per_job > 0", |p| {
                p.num("pool_ns_per_job") > 0.0 && p.num("spawn_ns_per_job") > 0.0
            }),
            ("steady_state_spawns == 0", |p| {
                p.num("steady_state_spawns") == 0.0
            }),
        ],
    );
    g.failures()
}

/// Render the launch table plus the pool comparison line.
pub fn render(r: &HostReport) -> String {
    let data: Vec<Vec<String>> = r
        .launches
        .iter()
        .map(|l| {
            vec![
                l.kernel.clone(),
                l.n.to_string(),
                l.nnz.to_string(),
                format!("{:.0}", l.host_ns_per_exec),
                format!("{:.4}", l.sim_ms),
                format!("{:.2}", l.host_sim_gap()),
            ]
        })
        .collect();
    let mut out = crate::render_table(
        &[
            "kernel",
            "n",
            "nnz",
            "host_ns/exec",
            "sim_ms",
            "host/sim gap",
        ],
        &data,
    );
    let builds: Vec<Vec<String>> = r
        .plan_builds
        .iter()
        .map(|b| {
            vec![
                b.matrix.clone(),
                b.nnz.to_string(),
                b.products.to_string(),
                format!("{:.0}", b.spmv_build_us),
                format!("{:.0}", b.spgemm_symbolic_us),
                format!("{:.0}", b.delta_apply_us),
            ]
        })
        .collect();
    out.push_str(&crate::render_table(
        &[
            "matrix",
            "nnz",
            "products",
            "spmv build us",
            "spgemm symbolic us",
            "delta apply us",
        ],
        &builds,
    ));
    let p = &r.pool;
    out.push_str(&format!(
        "pool dispatch ({} items, {} threads): {:.0} ns/job vs {:.0} ns/job spawned \
         ({:.2}x), {} threads created while warm\n",
        p.len,
        p.threads,
        p.pool_ns_per_job,
        p.spawn_ns_per_job,
        p.pool_vs_spawn_speedup(),
        p.steady_state_spawns,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    fn dev() -> Device {
        Device::titan()
    }

    /// Every test here measures the pool window, and the spawn
    /// comparator moves the process-global thread-spawn counter: run
    /// them one at a time on a 4-lane pool.
    fn serial_pool() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _ = rayon::set_num_threads(4);
        guard
    }

    #[test]
    fn report_measures_all_sections() {
        let _serial = serial_pool();
        let r = run(&dev(), TINY);
        assert_eq!(r.launches.len(), 4);
        assert_eq!(r.plan_builds.len(), TINY.stand_ins);
        for b in &r.plan_builds {
            assert!(b.spmv_build_us > 0.0 && b.spgemm_symbolic_us > 0.0 && b.delta_apply_us > 0.0);
            assert!(b.products > 0 && b.spgemm_symbolic_sim_ms > 0.0 && b.delta_sim_ms > 0.0);
        }
        for l in &r.launches {
            assert!(
                l.host_ns_per_exec > 0.0,
                "{}: wall clock must advance",
                l.kernel
            );
        }
        assert!(r.launches.iter().any(|l| l.kernel == "spmv"));
        assert!(r.launches.iter().any(|l| l.kernel == "spmm_k16"));
        assert!(r.pool.pool_ns_per_job > 0.0);
        assert!(r.pool.spawn_ns_per_job > 0.0);
    }

    #[test]
    fn gates_name_a_warm_pool_spawn() {
        let _serial = serial_pool();
        let mut r = to_report(
            &run(
                &dev(),
                Size {
                    n: 200,
                    avg_nnz_per_row: 5.0,
                    reps: 1,
                    ..TINY
                },
            ),
            true,
        );
        assert_eq!(gates(&r), Vec::<String>::new());
        *r.cell_mut("pool", 0, "steady_state_spawns").expect("cell") = 1u64.into();
        assert_eq!(gates(&r), ["steady_state_spawns == 0"]);
    }
}
