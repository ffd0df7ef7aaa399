//! Serving-service contracts: sharded, multi-threaded, multi-tenant
//! submission must be observationally identical to running each request
//! alone on one thread through a freshly built [`SpmvPlan`] — every
//! completed result **bitwise** equal (`f64::to_bits`) regardless of
//! shard count, interleaving, or which thread submitted —
//! and the QoS layer must keep tenants inside their quotas and weights:
//! under overload, completed shares track DRR weights within a bounded
//! factor, and every refusal ([`EngineError::Overloaded`]) or expiry
//! ([`EngineError::DeadlineExceeded`]) names the tenant it happened to.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use merge_path_sparse::engine::{EngineError, Service, ServiceConfig, TenantId, TenantSpec};
use merge_path_sparse::prelude::*;
use mps_testkit::strategies::sprinkled;
use proptest::prelude::*;

fn device() -> Device {
    Device::titan()
}

fn operand(cols: usize, slot: usize) -> Vec<f64> {
    (0..cols)
        .map(|i| 0.25 + ((i * 7 + slot * 31 + 3) % 13) as f64 * 0.5 - (slot % 3) as f64)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bits of `a · x` through a freshly built plan.
fn fresh_spmv_bits(dev: &Device, a: &CsrMatrix, x: &[f64]) -> Vec<u64> {
    let plan = SpmvPlan::new(dev, a, &SpmvConfig::default());
    bits(&plan.execute(dev, a, x).y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any shard count, any mix of patterns and request counts: the
    /// service's results are bitwise those of fresh plans executing the
    /// same `(matrix, operand)` pairs one at a time. This is the plan
    /// layer's per-column equivalence surfacing one more layer up —
    /// sharding and grouping can change which traversal computes a
    /// column, never its bits.
    #[test]
    fn sharded_service_matches_single_engine_bitwise(
        shards in 1usize..6,
        patterns in 1usize..5,
        per_pattern in 1usize..6,
        rows in 8usize..120,
        cols in 8usize..120,
        seed in 0u64..500,
    ) {
        let dev = device();
        let mats: Vec<Arc<CsrMatrix>> = (0..patterns)
            .map(|p| Arc::new(sprinkled(rows, cols, 2, 4, seed + p as u64)))
            .collect();
        let svc = Service::with_config(
            &dev,
            ServiceConfig::builder().shards(shards).build().expect("valid"),
        );
        let mut expected = Vec::new();
        let mut tickets = Vec::new();
        for (p, a) in mats.iter().enumerate() {
            for s in 0..per_pattern {
                let x = operand(cols, p * 7 + s);
                expected.push(fresh_spmv_bits(&dev, a, &x));
                tickets.push(
                    svc.submit_spmv(TenantId(p as u32), a, x, None).expect("admitted"),
                );
            }
        }
        svc.flush();
        for (t, want) in tickets.into_iter().zip(&expected) {
            let got = svc.take_result(t).expect("completed").into_vector();
            prop_assert_eq!(&bits(&got), want);
        }
        prop_assert_eq!(svc.pending_requests(), 0);
    }
}

/// Genuinely concurrent submission: one thread per tenant hammering the
/// service (submit → flush → redeem, closed loop) while the others do the
/// same. Every redeemed result must match a fresh plan's single-threaded
/// result bit-for-bit, and the per-tenant ledgers must account for every
/// request.
#[test]
fn multi_threaded_submission_is_bitwise_equal_to_single_engine() {
    let dev = device();
    let workers = 4usize;
    let per_worker = 48usize;
    let mats: Vec<Arc<CsrMatrix>> = (0..workers)
        .map(|w| Arc::new(sprinkled(100, 90, 2, 4, 77 + w as u64)))
        .collect();
    let want: Vec<Vec<Vec<u64>>> = mats
        .iter()
        .map(|a| {
            (0..4)
                .map(|s| fresh_spmv_bits(&dev, a, &operand(a.num_cols, s)))
                .collect()
        })
        .collect();

    let svc = Service::with_config(
        &dev,
        ServiceConfig::builder().shards(4).build().expect("valid"),
    );
    std::thread::scope(|scope| {
        for w in 0..workers {
            let svc = &svc;
            let a = &mats[w];
            let want = &want[w];
            scope.spawn(move || {
                let tenant = TenantId(w as u32);
                for i in 0..per_worker {
                    let slot = i % 4;
                    let t = loop {
                        match svc.submit_spmv(tenant, a, operand(a.num_cols, slot), None) {
                            Ok(t) => break t,
                            Err(EngineError::Overloaded { .. }) => {
                                svc.flush();
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    };
                    let got = loop {
                        svc.flush();
                        match svc.take_result(t) {
                            Ok(o) => break o.into_vector(),
                            Err(EngineError::NotReady(_)) => continue,
                            Err(e) => panic!("unexpected redemption error: {e}"),
                        }
                    };
                    assert_eq!(
                        bits(&got),
                        want[slot],
                        "worker {w} request {i} diverged from the reference engine"
                    );
                }
            });
        }
    });
    let agg = svc.stats().aggregate();
    assert_eq!(agg.requests, (workers * per_worker) as u64);
    for w in 0..workers {
        assert_eq!(
            agg.tenants.get(TenantId(w as u32)).requests,
            per_worker as u64,
            "tenant {w} ledger"
        );
    }
}

/// The overload-fairness contract: three tenants with DRR weights 3:1:1
/// keep their injector backlogs at quota while the drain budget admits
/// only half the offered rate (2x oversubscription). After settling, no
/// tenant's completed share deviates from its weight share by more than a
/// bounded factor, and every quota refusal names the refused tenant.
#[test]
fn overload_drain_is_weighted_fair_with_attributed_errors() {
    let dev = device();
    let weights: [(TenantId, u32); 3] = [(TenantId(1), 3), (TenantId(2), 1), (TenantId(3), 1)];
    let quota = 64usize;
    let budget = 32usize;
    let rounds = 8usize;
    let mut builder = ServiceConfig::builder().shards(1).drain_budget(budget);
    for &(t, w) in &weights {
        builder = builder.tenant(t, TenantSpec::new(w, quota));
    }
    let svc = Service::with_config(&dev, builder.build().expect("valid"));
    let mats: Vec<Arc<CsrMatrix>> = (0..weights.len())
        .map(|m| Arc::new(sprinkled(80, 80, 2, 3, 500 + m as u64)))
        .collect();

    let mut outstanding: BTreeMap<TenantId, Vec<_>> = BTreeMap::new();
    let mut completed: BTreeMap<TenantId, u64> = BTreeMap::new();
    let mut saw_quota_rejection = false;
    for round in 0..rounds {
        for (ti, &(t, _)) in weights.iter().enumerate() {
            // Top the backlog up to quota, then one more to provoke an
            // attributed rejection.
            let mut slot = round;
            loop {
                match svc.submit_spmv(t, &mats[ti], operand(80, slot % 5), None) {
                    Ok(ticket) => outstanding.entry(t).or_default().push(ticket),
                    Err(e @ EngineError::Overloaded { .. }) => {
                        assert_eq!(e.tenant(), Some(t), "rejection must name the tenant");
                        saw_quota_rejection = true;
                        break;
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
                slot += 1;
            }
        }
        svc.flush();
        for (&t, tickets) in outstanding.iter_mut() {
            tickets.retain(|&ticket| match svc.take_result(ticket) {
                Ok(_) => {
                    *completed.entry(t).or_default() += 1;
                    false
                }
                Err(EngineError::NotReady(_)) => true,
                Err(e) => panic!("unexpected redemption error: {e}"),
            });
        }
    }
    assert!(saw_quota_rejection, "2x oversubscription never hit a quota");

    let total: u64 = completed.values().sum();
    assert_eq!(total as usize, budget * rounds, "budget bounds admissions");
    let weight_sum: u32 = weights.iter().map(|&(_, w)| w).sum();
    for &(t, w) in &weights {
        let share = completed[&t] as f64 / total as f64;
        let expected = w as f64 / weight_sum as f64;
        let deviation = (share / expected).max(expected / share);
        assert!(
            deviation < 1.25,
            "{t}: share {share:.3} vs weight share {expected:.3} (x{deviation:.2})"
        );
    }
    // The service ledger saw the refusals; the render shows the table.
    let stats = svc.stats();
    assert!(stats.quota_rejections() > 0);
    let rendered = stats.render();
    assert!(rendered.contains("tenant#1"), "{rendered}");
}

/// Deadline expiries under overload carry the right tenant, whether the
/// request dies in the injector (never admitted before its deadline) or
/// in the engine.
#[test]
fn overload_deadline_expiries_name_their_tenant() {
    let dev = device();
    let svc = Service::with_config(
        &dev,
        ServiceConfig::builder()
            .shards(1)
            .drain_budget(4)
            .tenant(TenantId(8), TenantSpec::new(1, 32))
            .tenant(TenantId(9), TenantSpec::new(1, 32))
            .build()
            .expect("valid"),
    );
    let a = Arc::new(sprinkled(60, 60, 2, 3, 13));
    // Tenant 9's requests all carry an already-expired deadline; tenant
    // 8's have none. The budget is irrelevant to expiries (they pop for
    // free), so one flush resolves everything that expired.
    let live: Vec<_> = (0..4)
        .map(|s| {
            svc.submit_spmv(TenantId(8), &a, operand(60, s), None)
                .expect("admitted")
        })
        .collect();
    let doomed: Vec<_> = (0..6)
        .map(|s| {
            svc.submit_spmv(TenantId(9), &a, operand(60, s), Some(Duration::ZERO))
                .expect("admitted")
        })
        .collect();
    svc.flush();
    for t in live {
        svc.take_result(t).expect("no deadline, completes");
    }
    for t in doomed {
        match svc.take_result(t) {
            Err(e @ EngineError::DeadlineExceeded { .. }) => {
                assert_eq!(e.tenant(), Some(TenantId(9)));
            }
            other => panic!("expected expiry, got {other:?}"),
        }
    }
    let agg = svc.stats().aggregate();
    assert_eq!(agg.tenants.get(TenantId(9)).deadline_misses, 6);
    assert_eq!(agg.tenants.get(TenantId(8)).deadline_misses, 0);
}
