//! Ablation benches for the design choices called out in DESIGN.md:
//! merge-SpMV tile size, SpAdd strategy (balanced path vs global sort),
//! SpGEMM block-sort tile size, and the empty-row adaptive SpMV path.
//!
//! These report simulated kernel time (the metric the paper's figures
//! use), printed once per configuration, then measure host wall-clock
//! through criterion for regression tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mps_baselines::cusp;
use mps_baselines::format_spmv;
use mps_core::{merge_spadd, merge_spgemm, merge_spmv, SpAddConfig, SpgemmConfig, SpmvConfig};
use mps_simt::{Device, Phase};
use mps_sparse::formats::{DiaMatrix, EllMatrix, HybMatrix};
use mps_sparse::reorder::{bandwidth, permute_symmetric, reverse_cuthill_mckee};
use mps_sparse::suite::SuiteMatrix;
use mps_sparse::{gen, CooMatrix};

fn ablation_spmv_tile(c: &mut Criterion) {
    let device = Device::titan();
    let a = SuiteMatrix::Harbor.generate(0.05);
    let x: Vec<f64> = (0..a.num_cols).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut group = c.benchmark_group("ablation_spmv_tile");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(600));
    for items in [3usize, 7, 11, 15] {
        let cfg = SpmvConfig {
            block_threads: 128,
            items_per_thread: items,
            force_no_compaction: false,
        };
        let sim = merge_spmv(&device, &a, &x, &cfg).sim_ms();
        println!(
            "spmv tile {}x{items}: simulated {sim:.4} ms",
            cfg.block_threads
        );
        group.bench_with_input(BenchmarkId::from_parameter(items), &cfg, |b, cfg| {
            b.iter(|| merge_spmv(&device, &a, &x, cfg))
        });
    }
    group.finish();
}

fn ablation_spadd_strategy(c: &mut Criterion) {
    let device = Device::titan();
    let a = SuiteMatrix::Webbase.generate(0.02);
    let mut group = c.benchmark_group("ablation_spadd_strategy");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(600));
    let balanced_sim = merge_spadd(&device, &a, &a, &SpAddConfig::default()).sim_ms();
    let (_, global_stats) = cusp::spadd_global_sort(&device, &a, &a);
    println!(
        "spadd Webbase: balanced path {balanced_sim:.4} ms vs global sort {:.4} ms simulated",
        global_stats.sim_ms
    );
    group.bench_function("balanced_path", |b| {
        b.iter(|| merge_spadd(&device, &a, &a, &SpAddConfig::default()))
    });
    group.bench_function("global_sort", |b| {
        b.iter(|| cusp::spadd_global_sort(&device, &a, &a))
    });
    group.finish();
}

fn ablation_spgemm_blocksort(c: &mut Criterion) {
    let device = Device::titan();
    let (a, b) = SuiteMatrix::Harbor.spgemm_operands(0.008);
    let mut group = c.benchmark_group("ablation_spgemm_blocksort");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(600));
    for items in [5usize, 11, 17] {
        let cfg = SpgemmConfig {
            block_threads: 128,
            items_per_thread: items,
            global_sort_nv: 2048,
            ..SpgemmConfig::default()
        };
        let r = merge_spgemm(&device, &a, &b, &cfg);
        println!(
            "spgemm tile 128x{items}: simulated {:.4} ms (block sort {:.4})",
            r.sim_ms(),
            r.phases.phase_ms(Phase::BlockSort)
        );
        group.bench_with_input(BenchmarkId::from_parameter(items), &cfg, |bench, cfg| {
            bench.iter(|| merge_spgemm(&device, &a, &b, cfg))
        });
    }
    group.finish();
}

fn ablation_spmv_empty_rows(c: &mut Criterion) {
    let device = Device::titan();
    // Matrix where 90% of rows are empty: the compaction path's bread and
    // butter.
    let n = 200_000usize;
    let mut coo = CooMatrix::new(n, n);
    let dense_rows = gen::random_uniform(n / 10, n, 20.0, 5.0, 17);
    for r in 0..dense_rows.num_rows {
        for (cidx, v) in dense_rows.row_cols(r).iter().zip(dense_rows.row_vals(r)) {
            coo.push((r * 10) as u32, *cidx, *v);
        }
    }
    let a = coo.to_csr();
    let x = vec![1.0; n];
    let mut group = c.benchmark_group("ablation_spmv_empty_rows");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(600));
    let adaptive = SpmvConfig::default();
    let raw = SpmvConfig {
        force_no_compaction: true,
        ..SpmvConfig::default()
    };
    let sim_adaptive = merge_spmv(&device, &a, &x, &adaptive).sim_ms();
    let sim_raw = merge_spmv(&device, &a, &x, &raw).sim_ms();
    println!("empty-row spmv: compacted {sim_adaptive:.4} ms vs raw {sim_raw:.4} ms simulated");
    group.bench_function("adaptive_compaction", |b| {
        b.iter(|| merge_spmv(&device, &a, &x, &adaptive))
    });
    group.bench_function("raw_offsets", |b| {
        b.iter(|| merge_spmv(&device, &a, &x, &raw))
    });
    group.finish();
}

fn ablation_spmv_formats(c: &mut Criterion) {
    // The paper's CSR-generalist kernel against the format specialists it
    // argues with: DIA on its stencil home turf, HYB on a power-law crawl.
    let device = Device::titan();
    let mut group = c.benchmark_group("ablation_spmv_formats");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(600));

    let stencil = gen::stencil_5pt(150, 150);
    let xs = vec![1.0; stencil.num_cols];
    let dia = DiaMatrix::from_csr(&stencil, 8).expect("stencil is banded");
    let merge_ms = merge_spmv(&device, &stencil, &xs, &SpmvConfig::default()).sim_ms();
    let (_, dia_stats) = format_spmv::spmv_dia(&device, &dia, &xs);
    println!(
        "stencil: merge CSR {merge_ms:.4} ms vs DIA {:.4} ms simulated",
        dia_stats.sim_ms
    );
    group.bench_function("stencil_merge_csr", |b| {
        b.iter(|| merge_spmv(&device, &stencil, &xs, &SpmvConfig::default()))
    });
    group.bench_function("stencil_dia", |b| {
        b.iter(|| format_spmv::spmv_dia(&device, &dia, &xs))
    });

    let crawl = SuiteMatrix::Webbase.generate(0.02);
    let xc = vec![1.0; crawl.num_cols];
    let ell = EllMatrix::from_csr(&crawl);
    let hyb = HybMatrix::from_csr(&crawl, HybMatrix::heuristic_width(&crawl));
    let merge_ms = merge_spmv(&device, &crawl, &xc, &SpmvConfig::default()).sim_ms();
    let (_, ell_stats) = format_spmv::spmv_ell(&device, &ell, &xc);
    let (_, hyb_stats) = format_spmv::spmv_hyb(&device, &hyb, &xc);
    println!(
        "webbase: merge CSR {merge_ms:.4} ms vs ELL {:.4} ms vs HYB {:.4} ms simulated          (ELL padding ratio {:.2})",
        ell_stats.sim_ms,
        hyb_stats.sim_ms,
        ell.padding_ratio()
    );
    group.bench_function("webbase_merge_csr", |b| {
        b.iter(|| merge_spmv(&device, &crawl, &xc, &SpmvConfig::default()))
    });
    group.bench_function("webbase_hyb", |b| {
        b.iter(|| format_spmv::spmv_hyb(&device, &hyb, &xc))
    });
    group.finish();
}

fn ablation_spmv_reorder(c: &mut Criterion) {
    // RCM bandwidth reduction improves the x-gather locality the
    // coalescing model charges for — quantify the SpMV effect.
    let device = Device::titan();
    let mut group = c.benchmark_group("ablation_spmv_reorder");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(600));
    let scrambled = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let a = gen::banded(20_000, 30.0, 8.0, 120, 11);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut perm: Vec<u32> = (0..a.num_rows as u32).collect();
        perm.shuffle(&mut rng);
        permute_symmetric(&a, &perm)
    };
    let rcm = permute_symmetric(&scrambled, &reverse_cuthill_mckee(&scrambled));
    let x = vec![1.0; scrambled.num_cols];
    let before = merge_spmv(&device, &scrambled, &x, &SpmvConfig::default()).sim_ms();
    let after = merge_spmv(&device, &rcm, &x, &SpmvConfig::default()).sim_ms();
    println!(
        "reorder: bandwidth {} -> {}, merge SpMV {before:.4} -> {after:.4} ms simulated",
        bandwidth(&scrambled),
        bandwidth(&rcm)
    );
    group.bench_function("scrambled", |b| {
        b.iter(|| merge_spmv(&device, &scrambled, &x, &SpmvConfig::default()))
    });
    group.bench_function("rcm", |b| {
        b.iter(|| merge_spmv(&device, &rcm, &x, &SpmvConfig::default()))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_spmv_tile,
    ablation_spadd_strategy,
    ablation_spgemm_blocksort,
    ablation_spmv_empty_rows,
    ablation_spmv_formats,
    ablation_spmv_reorder
);
criterion_main!(benches);
