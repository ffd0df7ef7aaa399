//! Batching equivalence for the serving engine: N concurrent SpMV
//! submissions to a one-shard service on one sparsity pattern must return
//! results **bitwise** equal (`f64::to_bits`) to N sequential `SpmvPlan`
//! executions. This is the contract that makes the flush's SpMV→SpMM
//! coalescing transparent:
//! the column-tiled SpMM computes each output column in exactly the SpMV
//! reduction order, so a caller cannot tell whether its request ran alone
//! or shared a traversal with 15 strangers.

use std::sync::Arc;

use merge_path_sparse::core::{sequential_dot, tile_spacing, Epilogue};
use merge_path_sparse::engine::{EngineConfig, Service, ServiceConfig, TenantId};
use merge_path_sparse::prelude::*;
use mps_testkit::strategies::sprinkled;
use proptest::prelude::*;

fn device() -> Device {
    Device::titan()
}

const T: TenantId = TenantId(0);

/// The queued path: a one-shard service over an engine built from `cfg`.
fn service(cfg: EngineConfig) -> Service {
    let cfg = ServiceConfig::builder()
        .shards(1)
        .engine(cfg)
        .build()
        .expect("valid config");
    Service::with_config(&device(), cfg)
}

fn operand(cols: usize, slot: usize) -> Vec<f64> {
    (0..cols)
        .map(|i| 0.25 + ((i * 7 + slot * 31 + 3) % 13) as f64 * 0.5 - (slot % 3) as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch sizes 1..=TILE_K+1: size 1 takes the flush's SpMV path,
    /// 2..=16 coalesce into one SpMM traversal, and 17 forces a split
    /// into a full tile plus a single — every grouping the flush can
    /// produce under the default `max_batch = TILE_K = 16`.
    #[test]
    fn concurrent_submissions_match_sequential_plans_bitwise(
        rows in 1usize..200,
        cols in 1usize..200,
        stride in 1usize..5,
        per_row in 1usize..7,
        seed in 0u64..1000,
        batch in 1usize..18,
    ) {
        let dev = device();
        let a = Arc::new(sprinkled(rows, cols, stride, per_row, seed));
        let xs: Vec<Vec<f64>> = (0..batch).map(|s| operand(cols, s)).collect();

        // Reference: N sequential executions of one SpmvPlan.
        let plan = SpmvPlan::new(&dev, &a, &SpmvConfig::default());
        let mut ws = Workspace::new();
        let expected: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let mut y = Vec::new();
                plan.execute_into(&a, x, &mut y, &mut ws);
                y
            })
            .collect();

        // Service: N concurrent submissions, one flush.
        let svc = service(EngineConfig::default());
        prop_assert_eq!(svc.config().engine().max_batch(), 16, "suite assumes TILE_K = 16");
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| svc.submit_spmv(T, &a, x.clone(), None).expect("under the quota"))
            .collect();
        prop_assert_eq!(svc.flush(), batch);
        for (i, (t, want)) in tickets.into_iter().zip(&expected).enumerate() {
            let got = svc
                .take_result(t)
                .expect("flushed request completed")
                .into_vector();
            prop_assert_eq!(got.len(), want.len());
            for (j, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "request {} element {}: batched {} vs sequential {}",
                    i, j, g, w
                );
            }
        }
        // Everything resolved: nothing pending, every ticket consumed.
        prop_assert_eq!(svc.pending_requests(), 0);
        let stats = svc.stats().aggregate();
        prop_assert_eq!(stats.requests, batch as u64);
        prop_assert_eq!(stats.rejected_overload + stats.rejected_deadline, 0);
    }

    /// The same equivalence under a deliberately tiny `max_batch`, so the
    /// flush's splitting (not just the full-tile path) carries the load.
    #[test]
    fn equivalence_survives_forced_batch_splits(
        rows in 1usize..120,
        cols in 1usize..120,
        seed in 0u64..1000,
        batch in 1usize..12,
        max_batch in 1usize..5,
    ) {
        let dev = device();
        let a = Arc::new(sprinkled(rows, cols, 2, 4, seed));
        let xs: Vec<Vec<f64>> = (0..batch).map(|s| operand(cols, s)).collect();
        let plan = SpmvPlan::new(&dev, &a, &SpmvConfig::default());
        let mut ws = Workspace::new();
        let expected: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let mut y = Vec::new();
                plan.execute_into(&a, x, &mut y, &mut ws);
                y
            })
            .collect();

        let cfg = EngineConfig::builder().max_batch(max_batch).build().expect("valid config");
        let svc = service(cfg);
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| svc.submit_spmv(T, &a, x.clone(), None).expect("under the quota"))
            .collect();
        prop_assert_eq!(svc.flush(), batch);
        for (t, want) in tickets.into_iter().zip(&expected) {
            let got = svc.take_result(t).expect("completed").into_vector();
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got_bits, want_bits);
        }
        prop_assert_eq!(svc.stats().aggregate().batches as usize, batch.div_ceil(max_batch));
    }

    /// Block submissions ([`Service::submit_spmm`]) redeem as typed blocks
    /// whose data is bitwise identical to a standalone planned SpMM run —
    /// whatever mixed vector/block grouping the flush's column budget
    /// chose, and with vector neighbours still matching standalone SpMV.
    #[test]
    fn block_submissions_match_standalone_plans_bitwise(
        rows in 1usize..120,
        cols in 1usize..120,
        seed in 0u64..1000,
        k in 1usize..6,
        extra_vecs in 0usize..4,
        max_batch in 1usize..8,
    ) {
        let dev = device();
        let a = Arc::new(sprinkled(rows, cols, 2, 4, seed));
        let block = DenseBlock::from_fn(cols, k, |r, c| {
            operand(cols, c)[r] + r as f64 * 0.125
        });

        // References: one standalone planned SpMM at width k, and
        // standalone planned SpMVs for the vector submissions.
        let spmm_plan = SpmmPlan::new(&dev, &a, k, &SpmmConfig::default());
        let mut ws = Workspace::new();
        let mut want_block = DenseBlock::zeros(0, 0);
        spmm_plan.execute_into(&a, &block, &mut want_block, &mut ws);
        let spmv_plan = SpmvPlan::new(&dev, &a, &SpmvConfig::default());
        let want_vecs: Vec<Vec<f64>> = (0..extra_vecs)
            .map(|s| {
                let mut y = Vec::new();
                spmv_plan.execute_into(&a, &operand(cols, 100 + s), &mut y, &mut ws);
                y
            })
            .collect();

        let cfg = EngineConfig::builder().max_batch(max_batch).build().expect("valid config");
        let svc = service(cfg);
        let tb = svc.submit_spmm(T, &a, block.clone(), None).expect("admitted");
        let tvs: Vec<_> = (0..extra_vecs)
            .map(|s| svc.submit_spmv(T, &a, operand(cols, 100 + s), None).expect("admitted"))
            .collect();
        prop_assert_eq!(svc.flush(), 1 + extra_vecs);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let got_block = svc.take_result(tb).expect("block completed").into_block();
        prop_assert_eq!(got_block.rows, want_block.rows);
        prop_assert_eq!(got_block.cols, k);
        prop_assert_eq!(bits(&got_block.data), bits(&want_block.data));
        for (t, want) in tvs.into_iter().zip(&want_vecs) {
            let got = svc.take_result(t).expect("vector completed").into_vector();
            prop_assert_eq!(bits(&got), bits(want));
        }
    }
}

/// Panic at the first element whose bits differ.
fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!(
            "{what}: element {i} is {} where {} was expected",
            got[i], want[i]
        );
    }
}

/// An operator too small to fill every SM at the configured tile spreads
/// over one CTA per SM (`tile_spacing`), so its summation order depends on
/// the device's SM count. Within one device every merge path reads the
/// partition's spacing, so the plan, a fused execute, the one-shot kernel,
/// SpMM columns at several widths and the service's coalesced batch all
/// agree bit for bit.
#[test]
fn every_merge_path_agrees_bitwise_below_the_tile_threshold() {
    let dev = device();
    let sms = dev.props.num_sms;
    let cfg = SpmvConfig::default();
    let a = Arc::new(gen::random_uniform(300, 300, 8.0, 4.0, 7));
    assert!(a.nnz() > sms * cfg.block_threads && a.nnz() < sms * cfg.nv());
    let plan = SpmvPlan::new(&dev, &a, &cfg);
    let part = plan.partition_structure();
    let spacing = tile_spacing(sms, a.nnz(), cfg.block_threads, cfg.nv());
    assert_eq!((part.nv, part.num_ctas()), (spacing, sms));

    const K: usize = 16;
    let xs: Vec<Vec<f64>> = (0..K).map(|s| operand(a.num_cols, s)).collect();
    let mut ws = Workspace::new();
    let want: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = Vec::new();
            plan.execute_into(&a, x, &mut y, &mut ws);
            y
        })
        .collect();
    // The configured tile sums this operator in another order, and the
    // order shows in the bits, so the agreement below is not vacuous.
    let whole_tiles = SpmvPlan::new(
        &dev,
        &a,
        &SpmvConfig {
            block_threads: cfg.nv(),
            items_per_thread: 1,
            ..cfg
        },
    );
    assert_eq!(whole_tiles.partition_structure().nv, cfg.nv());
    assert!(xs.iter().zip(&want).any(|(x, want)| {
        let y = whole_tiles.execute(&dev, &a, x).y;
        y.iter().zip(want).any(|(p, q)| p.to_bits() != q.to_bits())
    }));

    let w: Vec<f64> = (0..a.num_rows)
        .map(|i| 0.5 + (i % 7) as f64 * 0.25)
        .collect();
    for (x, want) in xs.iter().zip(&want) {
        assert_same_bits(&merge_spmv(&dev, &a, x, &cfg).y, want, "one-shot");
        let mut y = Vec::new();
        let fused = plan.execute_fused_into(&a, x, &mut y, &mut ws, &Epilogue::dot_with(&w));
        assert_same_bits(&y, want, "fused");
        assert_eq!(fused.dot, Some(sequential_dot(&w, want)));
    }
    for k in [1, 3, K] {
        let block = DenseBlock::from_fn(a.num_cols, k, |r, c| xs[c][r]);
        let spmm = SpmmPlan::new(&dev, &a, k, &SpmmConfig::default());
        assert_eq!(spmm.partition_structure().s, part.s, "k={k}");
        let y = spmm.execute(&dev, &a, &block).y;
        for (c, want) in want.iter().enumerate().take(k) {
            assert_same_bits(&y.column(c), want, &format!("k={k} column {c}"));
        }
    }

    // One flush of K requests on one pattern: one coalesced traversal.
    let svc = service(EngineConfig::default());
    let tickets: Vec<_> = xs
        .iter()
        .map(|x| {
            svc.submit_spmv(T, &a, x.clone(), None)
                .expect("under the quota")
        })
        .collect();
    assert_eq!(svc.flush(), K);
    let stats = svc.stats().aggregate();
    assert_eq!((stats.batches, stats.batched_requests), (1, K as u64));
    for (c, (t, want)) in tickets.into_iter().zip(&want).enumerate() {
        let got = svc.take_result(t).expect("completed").into_vector();
        assert_same_bits(&got, want, &format!("batched request {c}"));
    }
}
