//! Streaming-mutation contracts: swapping numeric values into a cached
//! plan (`update_values` / `submit_update`) must be *bitwise* identical
//! to planning from scratch on the mutated matrix — for every plan type,
//! through a one-shard service's handle registry, and through a
//! multi-shard service — and a `CsrDelta` must land on exactly the matrix a full
//! rebuild would produce whether it patches through the balanced-path
//! union or falls back past the replan threshold.

use std::sync::Arc;

use merge_path_sparse::core::{apply_delta_reference, CsrDelta};
use merge_path_sparse::engine::{Engine, EngineConfig, Service, ServiceConfig, TenantId};

const T: TenantId = TenantId(0);

/// A one-shard service over an engine built from `cfg`: its registry
/// holds the handles, its engine serves the direct calls.
fn service(cfg: EngineConfig) -> Service {
    let cfg = ServiceConfig::builder()
        .shards(1)
        .engine(cfg)
        .build()
        .expect("valid config");
    Service::with_config(&device(), cfg)
}
use merge_path_sparse::prelude::*;
use mps_testkit::strategies::sprinkled;
use proptest::prelude::*;

fn device() -> Device {
    Device::titan()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic replacement values: one per stored nonzero, varying
/// with `round` so successive updates are distinguishable.
fn round_values(nnz: usize, round: u64) -> Vec<f64> {
    (0..nnz)
        .map(|i| 0.5 + ((i as u64 * 13 + round * 7 + 3) % 17) as f64 * 0.25 - (round % 3) as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `update_values` + cached execute == fresh plan on the mutated
    /// matrix, bitwise, for all three value-mutable plan types.
    #[test]
    fn updated_plans_match_fresh_plans_bitwise_for_every_plan_type(
        rows in 1usize..120,
        cols in 1usize..120,
        stride in 1usize..5,
        per_row in 1usize..6,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let dev = device();
        let a0 = sprinkled(rows, cols, stride, per_row, seed);
        let nnz = a0.nnz();
        let x: Vec<f64> = (0..cols).map(|i| 0.25 + ((i * 7 + 3) % 13) as f64 * 0.5).collect();

        // SpMV: one plan, three rounds of value swaps.
        let spmv_plan = SpmvPlan::new(&dev, &a0, &SpmvConfig::default());
        let mut a = a0.clone();
        for round in 0..3u64 {
            spmv_plan.update_values(&mut a, round_values(nnz, round)).expect("pattern unchanged");
            let reused = spmv_plan.execute(&dev, &a, &x);
            let fresh = SpmvPlan::new(&dev, &a, &SpmvConfig::default()).execute(&dev, &a, &x);
            prop_assert_eq!(bits(&reused.y), bits(&fresh.y));
        }

        // SpMM: same contract through the column-tiled block path.
        let xb = DenseBlock::from_fn(cols, k, |r, c| 0.5 + ((r * 11 + c * 5) % 19) as f64 * 0.375);
        let spmm_plan = SpmmPlan::new(&dev, &a0, k, &SpmmConfig::default());
        let mut a = a0.clone();
        spmm_plan.update_values(&mut a, round_values(nnz, 9)).expect("pattern unchanged");
        let reused = spmm_plan.execute(&dev, &a, &xb);
        let fresh = SpmmPlan::new(&dev, &a, k, &SpmmConfig::default()).execute(&dev, &a, &xb);
        prop_assert_eq!(bits(&reused.y.data), bits(&fresh.y.data));

        // SpGEMM: both operands mutate under one cached symbolic phase.
        let b0 = sprinkled(cols, rows.min(60), 1, per_row, seed.wrapping_add(41));
        let gemm_plan = SpgemmPlan::new(&dev, &a0, &b0, &SpgemmConfig::default());
        let (mut a, mut b) = (a0.clone(), b0.clone());
        gemm_plan.update_values(&mut a, round_values(nnz, 4)).expect("pattern unchanged");
        gemm_plan.update_values_b(&mut b, round_values(b0.nnz(), 5)).expect("pattern unchanged");
        let reused = gemm_plan.execute(&dev, &a, &b);
        let fresh = SpgemmPlan::new(&dev, &a, &b, &SpgemmConfig::default()).execute(&dev, &a, &b);
        prop_assert_eq!(&reused.c.row_offsets, &fresh.c.row_offsets);
        prop_assert_eq!(&reused.c.col_idx, &fresh.c.col_idx);
        prop_assert_eq!(bits(&reused.c.values), bits(&fresh.c.values));

        // Mismatched value counts are rejected and leave the matrix alone.
        let mut a = a0.clone();
        let before = bits(&a.values);
        prop_assert!(spmv_plan.update_values(&mut a, vec![1.0; nnz + 1]).is_err());
        prop_assert_eq!(bits(&a.values), before);
    }

    /// The service's handle registry serves updated values through its
    /// engine's cached plans: every post-update submission matches a cold
    /// engine planning the mutated matrix from scratch, without a single
    /// additional plan build.
    #[test]
    fn engine_value_updates_replay_cached_plans_bitwise(
        rows in 4usize..100,
        cols in 4usize..100,
        rounds in 1usize..5,
        seed in 0u64..1000,
    ) {
        let dev = device();
        let a = Arc::new(sprinkled(rows, cols, 2, 4, seed));
        let nnz = a.nnz();
        let x: Vec<f64> = (0..cols).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect();

        let svc = service(EngineConfig::default());
        let engine = svc.shard_engine(0);
        let h = svc.register(T, &a);
        drop(a);
        let _ = engine.spmv(&svc.matrix(h).expect("registered"), &x); // warm the plan
        let misses = engine.stats().cache_misses;

        for round in 0..rounds as u64 {
            let snapshot = svc.submit_update(T, h, round_values(nnz, round)).expect("same nnz");
            let got = engine.spmv(&snapshot, &x);
            let cold = Engine::new(&dev);
            prop_assert_eq!(bits(&got), bits(&cold.spmv(&snapshot, &x)));
        }
        prop_assert_eq!(engine.stats().cache_misses, misses, "updates must not replan");
        prop_assert_eq!(engine.stats().value_updates, rounds as u64);
    }

    /// The same contract through a sharded service: tenant-scoped
    /// handles, value swaps on every shard, zero steady-state misses and
    /// zero fingerprint hashes.
    #[test]
    fn sharded_service_value_updates_stay_numeric_only(
        shards in 1usize..5,
        patterns in 1usize..5,
        rounds in 1usize..4,
        seed in 0u64..500,
    ) {
        let dev = device();
        let svc = Service::with_config(
            &dev,
            ServiceConfig::builder().shards(shards).build().expect("valid"),
        );
        let mats: Vec<Arc<CsrMatrix>> = (0..patterns)
            .map(|p| Arc::new(sprinkled(48 + 8 * p, 40, 2, 3, seed + p as u64)))
            .collect();
        let handles: Vec<_> = mats
            .iter()
            .enumerate()
            .map(|(p, m)| svc.register(TenantId(p as u32), m))
            .collect();
        drop(mats);

        // Warm one plan per pattern, then demand hit-only rounds.
        let mut tickets = Vec::new();
        for (p, &h) in handles.iter().enumerate() {
            let m = svc.matrix(h).expect("registered");
            let x = vec![1.5; m.num_cols];
            tickets.push(svc.submit_spmv(TenantId(p as u32), &m, x, None).expect("admitted"));
        }
        svc.flush();
        for t in tickets {
            svc.take_result(t).expect("completed");
        }
        svc.reset_stats();

        let reference = Engine::new(&dev);
        for round in 0..rounds as u64 {
            for (p, &h) in handles.iter().enumerate() {
                let tn = TenantId(p as u32);
                let m = svc.matrix(h).expect("registered");
                let snapshot = svc
                    .submit_update(tn, h, round_values(m.nnz(), round + 11 * p as u64))
                    .expect("same nnz");
                let x: Vec<f64> = (0..snapshot.num_cols).map(|i| 0.5 + (i % 7) as f64).collect();
                let t = svc.submit_spmv(tn, &snapshot, x.clone(), None).expect("admitted");
                svc.flush();
                let got = svc.take_result(t).expect("completed").into_vector();
                prop_assert_eq!(bits(&got), bits(&reference.spmv(&snapshot, &x)));
            }
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.fingerprint_hashes, 0, "value swaps must not rehash the pattern");
        let agg = stats.aggregate();
        prop_assert_eq!(agg.cache_misses, 0, "steady state must replan nothing");
        prop_assert_eq!(agg.value_updates, (rounds * patterns) as u64);
    }

    /// Delta application lands on the full-rebuild result on both sides
    /// of the replan threshold: the union patch below it, the reference
    /// fallback above it, bitwise either way.
    #[test]
    fn deltas_match_full_rebuild_at_and_across_the_threshold(
        rows in 8usize..80,
        cols in 8usize..80,
        edits in 2usize..12,
        seed in 0u64..1000,
    ) {
        let a = Arc::new(sprinkled(rows, cols, 2, 4, seed));
        let nnz = a.nnz();

        // A threshold wide enough that `edits` stays on the patch side.
        let svc = service(EngineConfig::builder().delta_replan_threshold(0.9).build().expect("valid"));
        let h = svc.register(T, &a);
        let limit = (0.9 * nnz as f64).ceil() as usize;
        let mut small = CsrDelta::new();
        for i in 0..edits.min(limit) {
            let (r, c) = ((i * 5 + 1) % rows, (i * 3 + 2) % cols);
            if i % 3 == 2 {
                small.remove(r as u32, c as u32);
            } else {
                small.upsert(r as u32, c as u32, 1.0 + i as f64 * 0.125);
            }
        }
        // At least two entries so even `ceil(tiny * nnz) == 1` is exceeded
        // on the strict engine below.
        prop_assert!(small.len() >= 2 && small.len() <= limit);
        let outcome = svc.submit_delta(T, h, &small).expect("in bounds");
        prop_assert!(!outcome.fallback, "under the threshold the union patch serves");
        let got = svc.matrix(h).expect("registered");
        let want = apply_delta_reference(&a, &small).expect("in bounds");
        prop_assert_eq!(&got.row_offsets, &want.row_offsets);
        prop_assert_eq!(&got.col_idx, &want.col_idx);
        prop_assert_eq!(bits(&got.values), bits(&want.values));

        // Across the threshold: same edits, tiny threshold → fallback,
        // and the mutated matrix is *identical* to the patched one.
        let strict = service(
            EngineConfig::builder()
                .delta_replan_threshold(f64::MIN_POSITIVE)
                .build()
                .expect("valid"),
        );
        let h2 = strict.register(T, &a);
        let outcome = strict.submit_delta(T, h2, &small).expect("in bounds");
        prop_assert!(outcome.fallback, "over the threshold rebuilds");
        let rebuilt = strict.matrix(h2).expect("registered");
        prop_assert_eq!(&rebuilt.row_offsets, &got.row_offsets);
        prop_assert_eq!(&rebuilt.col_idx, &got.col_idx);
        prop_assert_eq!(bits(&rebuilt.values), bits(&got.values));
        prop_assert_eq!(strict.stats().aggregate().delta_fallbacks, 1);
        prop_assert_eq!(svc.stats().aggregate().delta_applies, 1);
    }
}

/// A registered handle's old snapshots stay valid: requests submitted
/// against a pre-update `Arc` compute with the values they captured.
#[test]
fn pre_update_snapshots_keep_their_values() {
    let a = Arc::new(sprinkled(40, 40, 2, 3, 7));
    let nnz = a.nnz();
    let x = vec![1.0; 40];
    let svc = service(EngineConfig::default());
    let engine = svc.shard_engine(0);
    let h = svc.register(T, &a);

    let old = svc.matrix(h).expect("registered");
    let want_old = engine.spmv(&old, &x);
    let new = svc
        .submit_update(T, h, round_values(nnz, 3))
        .expect("same nnz");
    assert_ne!(
        bits(&old.values),
        bits(&new.values),
        "update must change values"
    );
    assert_eq!(
        bits(&engine.spmv(&old, &x)),
        bits(&want_old),
        "pinned snapshots are immutable"
    );
}
