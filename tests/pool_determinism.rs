//! The persistent worker pool must be **invisible** in the results: a
//! plan replay dispatched across pool workers produces bitwise identical
//! outputs to the same replay forced inline on one thread. Per-CTA
//! segmented sums run in item order regardless of which worker claims
//! which chunk, and carries fold in CTA order on the submitting thread —
//! so parallelism only reorders *work*, never *arithmetic*.
//!
//! Each test forces a multi-threaded runtime first (`set_num_threads`);
//! CI machines with one core would otherwise resolve to a single thread
//! and compare sequential against sequential.

use std::sync::Arc;

use merge_path_sparse::prelude::*;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A one-shard service, so every request meets the same plan cache.
fn service(device: &Device) -> Service {
    let cfg = ServiceConfig::builder()
        .shards(1)
        .build()
        .expect("valid config");
    Service::with_config(device, cfg)
}

fn operand(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(seed).wrapping_add(11) % 1000) as f64 / 999.0 - 0.5)
        .collect()
}

#[test]
fn pool_spmv_is_bitwise_identical_to_sequential() {
    let _ = rayon::set_num_threads(4);
    let device = Device::titan();
    // Large enough that the work-aware cutoff sends the launch to the pool.
    let a = gen::random_uniform(5000, 5000, 12.0, 4.0, 7);
    let x = operand(a.num_cols, 3);
    let plan = SpmvPlan::new(&device, &a, &SpmvConfig::default());
    let mut ws = Workspace::new();

    let mut y_pool: Vec<f64> = Vec::new();
    plan.execute_into(&a, &x, &mut y_pool, &mut ws);
    let y_seq = rayon::with_sequential(|| {
        let mut y: Vec<f64> = Vec::new();
        plan.execute_into(&a, &x, &mut y, &mut ws);
        y
    });
    assert_eq!(
        bits(&y_pool),
        bits(&y_seq),
        "pool execution must not change a single bit"
    );
    assert!(
        rayon::threads_spawned() > 0,
        "the pool path must actually have engaged (workers spawned)"
    );
}

#[test]
fn pool_spmm_is_bitwise_identical_to_sequential() {
    let _ = rayon::set_num_threads(4);
    let device = Device::titan();
    let a = gen::random_uniform(4000, 4000, 10.0, 3.0, 13);
    let k = 8;
    let xb = DenseBlock::from_fn(a.num_cols, k, |r, c| operand(a.num_cols, 20 + c as u64)[r]);
    let plan = SpmmPlan::new(&device, &a, k, &SpmmConfig::default());
    let mut ws = Workspace::new();

    let mut y_pool = DenseBlock::zeros(0, 0);
    plan.execute_into(&a, &xb, &mut y_pool, &mut ws);
    let y_seq = rayon::with_sequential(|| {
        let mut y = DenseBlock::zeros(0, 0);
        plan.execute_into(&a, &xb, &mut y, &mut ws);
        y
    });
    assert_eq!(bits(&y_pool.data), bits(&y_seq.data));
}

#[test]
fn pipelined_engine_flush_matches_sequential_flush() {
    let _ = rayon::set_num_threads(4);
    let device = Device::titan();
    let a = Arc::new(gen::random_uniform(2000, 2000, 9.0, 3.0, 19));

    // One service flushes with the pool live (assembly overlapped with
    // execution via join); the reference service is forced inline.
    let run = |svc: &Service| -> Vec<Vec<u64>> {
        let t = TenantId(0);
        let mut tickets = Vec::new();
        for s in 0..4 {
            tickets.push(
                svc.submit_spmv(t, &a, operand(a.num_cols, s), None)
                    .expect("admitted"),
            );
        }
        let xb = DenseBlock::from_fn(a.num_cols, 3, |r, c| operand(a.num_cols, 40 + c as u64)[r]);
        let tb = svc.submit_spmm(t, &a, xb, None).expect("admitted");
        svc.flush();
        let mut out: Vec<Vec<u64>> = tickets
            .into_iter()
            .map(|t| bits(&svc.take_result(t).expect("resolved").into_vector()))
            .collect();
        out.push(bits(
            &svc.take_result(tb).expect("resolved").into_block().data,
        ));
        out
    };

    let pooled = run(&service(&device));
    let sequential = rayon::with_sequential(|| run(&service(&device)));
    assert_eq!(
        pooled, sequential,
        "pipelined flush must match the inline flush bit for bit"
    );
}

#[test]
fn degenerate_one_column_block_takes_the_spmv_plan_bitwise() {
    let _ = rayon::set_num_threads(4);
    let device = Device::titan();
    let a = Arc::new(gen::random_uniform(1200, 1200, 8.0, 3.0, 23));
    let svc = service(&device);
    let x = operand(a.num_cols, 5);

    // Reference: a lone vector request on the same service, which builds
    // and caches the SpMV plan.
    let tv = svc
        .submit_spmv(TenantId(0), &a, x.clone(), None)
        .expect("admitted");
    svc.flush();
    let want = svc.take_result(tv).expect("resolved").into_vector();
    let fresh = SpmvPlan::new(&device, &a, &SpmvConfig::default()).execute(&device, &a, &x);
    assert_eq!(bits(&want), bits(&fresh.y));

    // A single one-column block submission must dispatch through the
    // cached SpMV plan — same bits, no k=1 SpMM plan built.
    let xb = DenseBlock::from_fn(a.num_cols, 1, |r, _| x[r]);
    let t = svc
        .submit_spmm(TenantId(0), &a, xb, None)
        .expect("admitted");
    svc.flush();
    let got = svc.take_result(t).expect("resolved").into_block();
    assert_eq!((got.rows, got.cols), (a.num_rows, 1));
    assert_eq!(bits(&got.data), bits(&want));
    // One plan total: the SpMV plan, shared by both requests.
    let s = svc.stats().aggregate();
    assert_eq!(s.cache_misses, 1, "no k=1 SpMM plan may be built");
    assert_eq!(s.cache_hits, 1);
}
