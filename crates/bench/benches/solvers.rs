//! Criterion bench for the downstream solver layer: CG iteration cost and
//! AMG setup (the SpGEMM-heavy pipeline the paper's lineage comes from).
//! `mps bench solvers` writes the host-time artifact, `BENCH_solvers.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mps_simt::Device;
use mps_solvers::amg::{AmgHierarchy, AmgOptions};
use mps_solvers::krylov::{cg, SolverOptions};
use mps_sparse::gen;

fn bench_solvers(c: &mut Criterion) {
    let device = Device::titan();
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(600));

    for n in [32usize, 64] {
        let a = gen::stencil_5pt(n, n);
        let mut b = vec![0.0; a.num_rows];
        b[a.num_rows / 2] = 1.0;
        let opts = SolverOptions {
            max_iterations: 25,
            rel_tolerance: 0.0, // fixed-iteration cost measurement
        };
        group.bench_with_input(BenchmarkId::new("cg_25_iters", n * n), &a, |bench, a| {
            bench.iter(|| cg(&device, a, &b, &opts))
        });
        group.bench_with_input(BenchmarkId::new("amg_setup", n * n), &a, |bench, a| {
            bench.iter(|| AmgHierarchy::build(&device, a.clone(), AmgOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
