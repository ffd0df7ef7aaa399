//! Deterministic fault injection for the serving engine: every
//! [`EngineError`] variant is constructed on purpose by a seeded
//! [`ChaosConfig`] schedule (or a misuse the chaos path makes reachable)
//! on a one-shard service, the injected faults are visible in
//! `stats().chaos`, and — the core guarantee — a request that *completes*
//! under chaos returns bits identical to the same request on a chaos-free
//! engine. Faults churn resources and surface typed errors; they never
//! corrupt results.

use std::sync::Arc;
use std::time::Duration;

use merge_path_sparse::engine::{
    ChaosConfig, Engine, EngineConfig, EngineError, Service, ServiceConfig, ServiceTicket,
    TenantId, TenantSpec,
};
use merge_path_sparse::prelude::*;
use mps_testkit::strategies::sprinkled;

fn device() -> Device {
    Device::titan()
}

const T: TenantId = TenantId(0);

/// A one-shard service over an engine built from `cfg`, every tenant
/// held to `quota` pending requests.
fn service_with(cfg: EngineConfig, quota: usize) -> Service {
    let cfg = ServiceConfig::builder()
        .shards(1)
        .engine(cfg)
        .default_tenant(TenantSpec::new(1, quota))
        .build()
        .expect("valid config");
    Service::with_config(&device(), cfg)
}

fn matrix(seed: u64) -> Arc<CsrMatrix> {
    Arc::new(sprinkled(80, 64, 2, 4, seed))
}

fn operand(cols: usize, slot: usize) -> Vec<f64> {
    (0..cols)
        .map(|i| 0.5 + ((i * 3 + slot * 13) % 11) as f64 * 0.25)
        .collect()
}

fn chaos_service(chaos: ChaosConfig) -> Service {
    let cfg = EngineConfig::builder()
        .chaos(chaos)
        .build()
        .expect("valid config");
    service_with(cfg, 64)
}

/// `reject_submit_p = 1` refuses every request with `Overloaded` when the
/// flush hands it to the engine, regardless of the tenant's quota, and
/// the forced rejections are counted separately from organic ones.
#[test]
fn forced_rejection_constructs_overloaded() {
    let svc = chaos_service(ChaosConfig {
        seed: 11,
        reject_submit_p: 1.0,
        ..ChaosConfig::default()
    });
    let a = matrix(1);
    let t = svc
        .submit_spmv(T, &a, operand(a.num_cols, 0), None)
        .expect("the quota admits");
    assert_eq!(svc.flush(), 1);
    match svc.take_result(t).expect_err("certain rejection") {
        EngineError::Overloaded {
            queue_depth,
            limit,
            tenant,
            ..
        } => {
            assert_eq!(queue_depth, 0, "queue was empty; the rejection was forced");
            assert_eq!(limit, 64, "the tenant's quota");
            assert_eq!(tenant, Some(T));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = svc.stats().aggregate();
    assert_eq!(stats.chaos.forced_rejections, 1);
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(svc.pending_requests(), 0);
}

/// Organic `Overloaded` still works with chaos disabled: the tenant's
/// quota refuses the submission past `max_pending`.
#[test]
fn organic_queue_overflow_constructs_overloaded() {
    let svc = service_with(EngineConfig::default(), 3);
    let a = matrix(2);
    for s in 0..3 {
        svc.submit_spmv(T, &a, operand(a.num_cols, s), None)
            .expect("under the quota");
    }
    let err = svc
        .submit_spmv(T, &a, operand(a.num_cols, 9), None)
        .expect_err("fourth submission overflows");
    assert!(
        matches!(
            err,
            EngineError::Overloaded {
                queue_depth: 3,
                limit: 3,
                ..
            }
        ),
        "{err:?}"
    );
    let stats = svc.stats().aggregate();
    assert_eq!(stats.chaos.forced_rejections, 0, "no chaos involved");
    assert_eq!(stats.rejected_overload, 1);
}

/// `deadline_expiry_p = 1` expires every deadline-carrying request at
/// flush regardless of wall clock; the ticket redeems as
/// `DeadlineExceeded`. Requests without deadlines are immune and still
/// complete in the same flush.
#[test]
fn forced_expiry_constructs_deadline_exceeded() {
    let svc = chaos_service(ChaosConfig {
        seed: 23,
        deadline_expiry_p: 1.0,
        ..ChaosConfig::default()
    });
    let a = matrix(3);
    let doomed = svc
        .submit_spmv(
            T,
            &a,
            operand(a.num_cols, 0),
            Some(Duration::from_secs(3600)),
        )
        .expect("admitted");
    let immune = svc
        .submit_spmv(T, &a, operand(a.num_cols, 1), None)
        .expect("admitted");
    assert_eq!(svc.flush(), 2, "both requests resolve in one flush");
    assert!(
        matches!(
            svc.take_result(doomed),
            Err(EngineError::DeadlineExceeded { .. })
        ),
        "a generous hour-long deadline was forcibly expired"
    );
    let y = svc.take_result(immune).expect("no deadline, no expiry");
    assert_eq!(y.into_vector().len(), a.num_rows);
    let stats = svc.stats().aggregate();
    assert_eq!(stats.chaos.forced_deadline_expiries, 1);
    assert_eq!(stats.rejected_deadline, 1);
}

/// A ticket redeemed before any flush is `NotReady`; the request stays
/// queued and completes normally afterwards.
#[test]
fn unflushed_ticket_is_not_ready() {
    let svc = chaos_service(ChaosConfig::default());
    let a = matrix(4);
    let t = svc
        .submit_spmv(T, &a, operand(a.num_cols, 0), None)
        .expect("admitted");
    assert!(matches!(svc.take_result(t), Err(EngineError::NotReady(_))));
    assert_eq!(svc.flush(), 1);
    svc.take_result(t).expect("ready after the flush");
}

/// Double redemption and never-issued tickets are `UnknownTicket`.
#[test]
fn spent_or_bogus_tickets_are_unknown() {
    let svc = chaos_service(ChaosConfig::default());
    let a = matrix(5);
    let t = svc
        .submit_spmv(T, &a, operand(a.num_cols, 0), None)
        .expect("admitted");
    svc.flush();
    svc.take_result(t).expect("first redemption");
    assert!(matches!(
        svc.take_result(t),
        Err(EngineError::UnknownTicket(_))
    ));
}

/// Out-of-range chaos probabilities are an `InvalidConfig` at the
/// builder (the only construction path now that config fields are
/// private), alongside the existing zero-capacity rejections.
#[test]
fn invalid_configs_are_rejected_up_front() {
    for bad in [-0.25, 1.5, f64::NAN, f64::INFINITY] {
        let built = EngineConfig::builder()
            .chaos(ChaosConfig {
                seed: 1,
                pool_exhaust_p: bad,
                ..ChaosConfig::default()
            })
            .build();
        match built {
            Err(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("chaos"), "unhelpful message: {msg}")
            }
            Err(other) => panic!("probability {bad} rejected oddly: {other:?}"),
            Ok(_) => panic!("probability {bad} accepted"),
        }
    }
    assert!(matches!(
        EngineConfig::builder().plan_capacity(0).build(),
        Err(EngineError::InvalidConfig(_))
    ));
}

/// Unclaimed results age out of the completion store after
/// `result_ttl_flushes` further flushes: the ticket becomes
/// `UnknownTicket` and the eviction is counted.
#[test]
fn unclaimed_results_age_out() {
    let cfg = EngineConfig::builder()
        .result_ttl_flushes(2)
        .build()
        .expect("valid config");
    let svc = service_with(cfg, 64);
    let a = matrix(6);
    let t = svc
        .submit_spmv(T, &a, operand(a.num_cols, 0), None)
        .expect("admitted");
    assert_eq!(svc.flush(), 1);
    // Empty flushes still advance the TTL clock.
    svc.flush();
    svc.flush();
    svc.flush();
    assert!(
        matches!(svc.take_result(t), Err(EngineError::UnknownTicket(_))),
        "result should have aged out"
    );
    assert_eq!(svc.stats().aggregate().results_evicted, 1);
}

/// Pool exhaustion and cache-eviction storms at high probability: the
/// engine rebuilds plans and reallocates workspaces constantly, the
/// fault counters prove the schedule fired, and every completed result
/// is still bitwise identical to a chaos-free engine's.
#[test]
fn resource_churn_never_corrupts_results() {
    let dev = device();
    let clean = Engine::new(&dev);
    let svc = chaos_service(ChaosConfig {
        seed: 0xC0FFEE,
        pool_exhaust_p: 0.8,
        cache_storm_p: 0.7,
        ..ChaosConfig::default()
    });
    let chaotic = svc.shard_engine(0);

    for round in 0..6u64 {
        let a = matrix(round % 3); // cycle patterns to stress the plan cache
        let xs: Vec<Vec<f64>> = (0..5).map(|s| operand(a.num_cols, s)).collect();
        let want: Vec<Vec<f64>> = xs.iter().map(|x| clean.spmv(&a, x)).collect();

        // Direct path under churn.
        for (x, w) in xs.iter().zip(&want) {
            let got = chaotic.spmv(&a, x);
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "direct spmv diverged under chaos");
        }

        // Batched path under churn.
        let tickets: Vec<ServiceTicket> = xs
            .iter()
            .map(|x| {
                svc.submit_spmv(T, &a, x.clone(), None)
                    .expect("admission chaos is off in this test")
            })
            .collect();
        assert_eq!(svc.flush(), xs.len());
        for (t, w) in tickets.into_iter().zip(&want) {
            let got = svc.take_result(t).expect("completed").into_vector();
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "batched spmv diverged under chaos");
        }
    }

    let stats = chaotic.stats();
    assert!(
        stats.chaos.pool_exhaustions > 0,
        "exhaustion schedule never fired: {:?}",
        stats.chaos
    );
    assert!(
        stats.chaos.cache_storms > 0,
        "storm schedule never fired: {:?}",
        stats.chaos
    );
    // Storms force rebuilds, so the chaotic engine must miss more.
    assert!(stats.cache_misses > clean.stats().cache_misses);
    let rendered = stats.render();
    assert!(rendered.contains("faults injected"), "{rendered}");
}

/// The fault schedule is a pure function of `(seed, probabilities)` and
/// the flush's processing order: two services driven identically inject
/// identical fault counts; a different seed injects a different schedule.
#[test]
fn fault_schedules_replay_deterministically() {
    // Drive a fixed request sequence and record each request's fate —
    // the fate vector, not just aggregate counters, is the schedule.
    let drive = |seed: u64| {
        let svc = chaos_service(ChaosConfig {
            seed,
            pool_exhaust_p: 0.5,
            cache_storm_p: 0.4,
            deadline_expiry_p: 0.5,
            ..ChaosConfig::default()
        });
        let a = matrix(7);
        let mut fates = Vec::new();
        for s in 0..16 {
            let deadline = (s % 2 == 0).then(|| Duration::from_secs(3600));
            let t = svc
                .submit_spmv(T, &a, operand(a.num_cols, s), deadline)
                .expect("admitted");
            svc.flush();
            fates.push(match svc.take_result(t) {
                Ok(_) => "completed",
                Err(EngineError::DeadlineExceeded { .. }) => "expired",
                other => panic!("unexpected redemption outcome: {other:?}"),
            });
        }
        (fates, svc.stats().aggregate().chaos)
    };
    let (fates_a, chaos_a) = drive(42);
    let (fates_b, chaos_b) = drive(42);
    let (fates_c, chaos_c) = drive(43);
    assert_eq!(fates_a, fates_b, "same seed must replay the same fates");
    assert_eq!(chaos_a, chaos_b, "same seed must inject the same faults");
    assert!(chaos_a.total() > 0, "schedule never fired: {chaos_a:?}");
    assert!(
        fates_a.contains(&"completed") && fates_a.contains(&"expired"),
        "schedule should mix outcomes: {fates_a:?}"
    );
    assert!(
        fates_a != fates_c || chaos_a != chaos_c,
        "different seeds replayed identically (astronomically unlikely)"
    );
}
