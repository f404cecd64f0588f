//! Integration tests for the concurrent tuning service: typed failure
//! paths (shed / deadline / retry / breaker), bounded real concurrency,
//! determinism under multi-threaded drive, and serviced stream runs'
//! bit-identity with direct ECoST decisions.

use ecost_apps::{App, InputSize};
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::EvalEngine;
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions};
use ecost_core::pairing::PairingPolicy;
use ecost_core::stp::LktStp;
use ecost_core::{
    BreakerConfig, DecisionCosts, DecisionTier, EcostContext, RetryPolicy, ServiceConfig,
    ServiceError, TuningRequest, TuningService,
};
use ecost_sim::{RequestFaults, ServiceFaultSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const SEED: u64 = 7;

fn healthy() -> ServiceFaultSpec {
    ServiceFaultSpec::healthy(SEED)
}

/// A free-decision config: no limits, no deadlines, zero simulated
/// costs — decide() always grants a full sweep.
fn free() -> ServiceConfig {
    ServiceConfig::unlimited()
}

fn burst(n: u32) -> Option<RequestFaults> {
    Some(RequestFaults {
        transient_failures: n,
        slow_factor: 1.0,
    })
}

#[test]
fn invalid_config_is_typed() {
    let eng = EvalEngine::atom();
    let cfg = ServiceConfig {
        max_inflight: Some(0),
        ..ServiceConfig::default()
    };
    match TuningService::new(&eng, cfg, healthy()) {
        Err(ServiceError::InvalidConfig { what }) => assert!(what.contains("max_inflight")),
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
    let cfg = ServiceConfig {
        max_inflight: None,
        max_queue: Some(4),
        ..ServiceConfig::default()
    };
    assert!(matches!(
        TuningService::new(&eng, cfg, healthy()).map(|_| ()),
        Err(ServiceError::InvalidConfig { .. })
    ));
}

#[test]
fn duplicate_sequence_numbers_are_rejected_not_deadlocked() {
    let eng = EvalEngine::atom();
    let svc = TuningService::new(&eng, free(), healthy()).expect("service");
    let req = TuningRequest::solo(0, 0.0, f64::INFINITY, App::Wc, 256.0);
    assert!(svc.decide(&req).is_ok());
    match svc.decide(&req) {
        Err(ServiceError::InvalidRequest { what }) => assert!(what.contains("sequence")),
        other => panic!("expected InvalidRequest, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn overloaded_is_typed_and_sheds_immediately() {
    let eng = EvalEngine::atom();
    let cfg = ServiceConfig {
        max_inflight: Some(1),
        max_queue: Some(0),
        deadline_s: f64::INFINITY,
        ..ServiceConfig::default()
    };
    let svc = TuningService::new(&eng, cfg, healthy()).expect("service");
    // First request occupies the single simulated worker for the full
    // sweep's 5 simulated seconds.
    let d = svc
        .decide(&TuningRequest::solo(0, 0.0, f64::INFINITY, App::Wc, 256.0))
        .expect("first request");
    assert_eq!(d.tier, DecisionTier::FullSweep);
    // Second arrives one simulated second later: worker busy, queue
    // bound 0 — shed with the typed error.
    match svc.decide(&TuningRequest::solo(1, 1.0, f64::INFINITY, App::Wc, 256.0)) {
        Err(ServiceError::Overloaded { queued, limit }) => {
            assert_eq!((queued, limit), (0, 0));
        }
        other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
    }
    let r = svc.report();
    assert_eq!((r.decided, r.shed), (1, 1));
}

#[test]
fn deadline_exceeded_is_typed() {
    let eng = EvalEngine::atom();
    let cfg = ServiceConfig {
        max_inflight: None,
        max_queue: None,
        ..ServiceConfig::default()
    };
    let svc = TuningService::new(&eng, cfg, healthy()).expect("service");
    // Default fallback cost is 0.01 simulated seconds; a 0.001-second
    // budget cannot finish any tier.
    match svc.decide(&TuningRequest::solo(0, 0.0, 0.001, App::Wc, 256.0)) {
        Err(ServiceError::DeadlineExceeded {
            deadline_s,
            spent_s,
        }) => {
            assert_eq!(deadline_s, 0.001);
            assert_eq!(spent_s, 0.0, "rejected before any work was charged");
        }
        other => panic!("expected DeadlineExceeded, got {:?}", other.map(|_| ())),
    }
    assert_eq!(svc.report().deadline_exceeded, 1);
}

#[test]
fn remaining_budget_selects_the_tier() {
    let eng = EvalEngine::atom();
    let cfg = ServiceConfig {
        max_inflight: None,
        max_queue: None,
        ..ServiceConfig::default()
    };
    let svc = TuningService::new(&eng, cfg, healthy()).expect("service");
    // Budget 6 affords the 5-second full sweep; budget 1 only the
    // 0.5-second windowed pass; budget 0.1 only the fallback lookup.
    let d = svc
        .decide(&TuningRequest::solo(0, 0.0, 6.0, App::Wc, 256.0))
        .expect("full");
    assert_eq!(d.tier, DecisionTier::FullSweep);
    let d = svc
        .decide(&TuningRequest::solo(1, 0.0, 1.0, App::Wc, 256.0))
        .expect("windowed");
    assert_eq!(d.tier, DecisionTier::Windowed);
    let d = svc
        .decide(&TuningRequest::solo(2, 0.0, 0.1, App::Wc, 256.0))
        .expect("fallback");
    assert_eq!(d.tier, DecisionTier::ClassDefault);
    let r = svc.report();
    assert_eq!((r.tier_full, r.tier_windowed, r.tier_fallback), (1, 1, 1));
}

#[test]
fn transient_bursts_are_retried_with_seeded_jitter() {
    let eng = EvalEngine::atom();
    let run = || {
        let cfg = ServiceConfig {
            max_inflight: None,
            max_queue: None,
            deadline_s: f64::INFINITY,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.5,
                backoff_multiplier: 2.0,
            },
            retry_jitter_frac: 0.5,
            ..ServiceConfig::default()
        };
        let svc = TuningService::new(&eng, cfg, healthy()).expect("service");
        // A burst of 2 sits inside the retry budget: cured on the full
        // tier after exactly 2 retries.
        let mut req = TuningRequest::solo(0, 0.0, f64::INFINITY, App::Wc, 256.0);
        req.faults = burst(2);
        let d = svc.decide(&req).expect("cured");
        assert_eq!(d.tier, DecisionTier::FullSweep);
        assert_eq!(d.retries, 2);
        assert!(
            d.service_s > 3.0 * 5.0,
            "three attempts plus backoff, got {}",
            d.service_s
        );
        // A burst of 3 exhausts the budget on both engine tiers and
        // degrades to class defaults — still an answer, not an error.
        let mut req = TuningRequest::solo(1, 0.0, f64::INFINITY, App::Wc, 256.0);
        req.faults = burst(3);
        let d2 = svc.decide(&req).expect("degraded");
        assert_eq!(d2.tier, DecisionTier::ClassDefault);
        let r = svc.report();
        assert_eq!(r.retries, 2 + 4, "2 cured + 2 per failed engine tier");
        assert_eq!(r.tier_failures, 2);
        (d.service_s, d2.service_s, r)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "jitter must be seeded");
    assert_eq!(a.1.to_bits(), b.1.to_bits());
    assert_eq!(a.2, b.2);
}

#[test]
fn breaker_trips_short_circuits_and_recovers_on_the_simulated_clock() {
    let eng = EvalEngine::atom();
    let cfg = ServiceConfig {
        max_inflight: None,
        max_queue: None,
        deadline_s: f64::INFINITY,
        retry: RetryPolicy::none(),
        retry_jitter_frac: 0.0,
        breaker: BreakerConfig {
            threshold: 2,
            cooldown_s: 10.0,
        },
        costs: DecisionCosts::zero(),
    };
    let svc = TuningService::new(&eng, cfg, healthy()).expect("service");
    let req = |seq, t, f: Option<RequestFaults>| {
        let mut r = TuningRequest::solo(seq, t, f64::INFINITY, App::Wc, 256.0);
        r.faults = f;
        r
    };
    // seq 0 at t=0: both engine tiers fail (no retries) — streak hits
    // the threshold of 2 and trips the breaker at t=0.
    let d = svc.decide(&req(0, 0.0, burst(99))).expect("degraded");
    assert_eq!(d.tier, DecisionTier::ClassDefault);
    assert!(!d.breaker_short_circuit, "this request did the tripping");
    // seq 1 at t=5 (< cooldown): open breaker short-circuits straight
    // to the fallback tier without touching the engine tiers.
    let d = svc.decide(&req(1, 5.0, None)).expect("short-circuited");
    assert_eq!(d.tier, DecisionTier::ClassDefault);
    assert!(d.breaker_short_circuit);
    assert_eq!(d.retries, 0);
    // seq 2 at t=12 (cooldown elapsed): half-open probe fails and
    // re-trips immediately.
    let d = svc.decide(&req(2, 12.0, burst(99))).expect("probe failed");
    assert_eq!(d.tier, DecisionTier::ClassDefault);
    assert!(!d.breaker_short_circuit, "the probe was admitted");
    // seq 3 at t=15: open again after the failed probe.
    let d = svc.decide(&req(3, 15.0, None)).expect("short-circuited");
    assert!(d.breaker_short_circuit);
    // seq 4 at t=25: second cooldown elapsed; a healthy probe closes
    // the breaker and the full tier serves again.
    let d = svc.decide(&req(4, 25.0, None)).expect("probe ok");
    assert_eq!(d.tier, DecisionTier::FullSweep);
    assert!(!d.breaker_short_circuit);
    // seq 5: closed for good.
    let d = svc.decide(&req(5, 26.0, None)).expect("closed");
    assert_eq!(d.tier, DecisionTier::FullSweep);
    let r = svc.report();
    assert_eq!(r.breaker_trips, 2, "initial trip + failed-probe re-trip");
    assert_eq!(r.breaker_short_circuits, 2);
}

/// The headline concurrency claim: many real threads, dense sequence
/// numbers, a hard in-flight limit — the run completes (no deadlock),
/// never exceeds the limit, and produces identical outcomes and
/// counters on a second pass.
#[test]
fn multithreaded_soak_is_bounded_and_deterministic() {
    const REQUESTS: usize = 24;
    const THREADS: usize = 6;
    const INFLIGHT: usize = 2;
    let eng = EvalEngine::atom();
    let schedule: Vec<TuningRequest> = (0..REQUESTS as u64)
        .map(|seq| {
            let t = seq as f64 * 1.3;
            let app = if seq % 2 == 0 { App::Wc } else { App::St };
            if seq % 3 == 0 {
                TuningRequest::pair(seq, t, 30.0, (app, 256.0), (App::St, 256.0))
            } else {
                TuningRequest::solo(seq, t, 30.0, app, 256.0)
            }
        })
        .collect();
    let run = || {
        let cfg = ServiceConfig {
            max_inflight: Some(INFLIGHT),
            max_queue: Some(4),
            deadline_s: 30.0,
            ..ServiceConfig::default()
        };
        let svc = TuningService::new(&eng, cfg, healthy()).expect("service");
        let outcomes = Mutex::new(vec![String::new(); REQUESTS]);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = schedule.get(i) else { break };
                    let s = match svc.decide(req) {
                        Ok(d) => format!(
                            "{}|{:?}|{}|{}",
                            d.tier.name(),
                            d.config,
                            d.queued_s.to_bits(),
                            d.service_s.to_bits()
                        ),
                        Err(e) => format!("err:{e:?}"),
                    };
                    outcomes.lock().expect("no poisoned lock")[i] = s;
                });
            }
        });
        let peak = svc.inflight_peak();
        assert!(
            peak <= INFLIGHT,
            "in-flight peak {peak} exceeded the {INFLIGHT} limit"
        );
        let r = svc.report();
        assert_eq!(
            r.decided + r.shed + r.deadline_exceeded,
            REQUESTS as u64,
            "every request must be accounted for"
        );
        assert!(r.decided > 0);
        (outcomes.into_inner().expect("no poisoned lock"), r)
    };
    let (out_a, rep_a) = run();
    let (out_b, rep_b) = run();
    assert_eq!(out_a, out_b, "outcomes must not depend on thread timing");
    assert_eq!(rep_a, rep_b);
}

/// A zero-fault, no-limit serviced streaming run answers every decision
/// with a free full sweep — bit-identical to direct ECoST decisions.
#[test]
fn unlimited_serviced_stream_is_bit_identical_to_direct() {
    let eng = EvalEngine::atom();
    let db =
        ConfigDatabase::build_subset(&eng, &[App::Wc, App::St], &[InputSize::Small], 0.0, SEED)
            .expect("db build");
    let classifier = RuleClassifier::fit(&db.signatures);
    let lkt = LktStp::from_database(&db);
    let pairing = PairingPolicy::default();
    let cx = EcostContext {
        db: &db,
        stp: &lkt,
        classifier: &classifier,
        pairing: &pairing,
        noise: 0.0,
        seed: SEED,
        pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
    };
    let stream: Vec<OpenArrival> = (0..6)
        .map(|i| OpenArrival {
            app: if i % 2 == 0 { App::Wc } else { App::St },
            input_mb: 200.0 + 50.0 * i as f64,
            at_s: 30.0 * i as f64,
        })
        .collect();
    let setup = FaultSetup::default();
    let opts = OpenOptions::default();
    let direct = run_stream(&eng, 2, &stream, Decisions::Ecost(&cx), opts, &setup).expect("direct");
    assert_eq!(direct.service, None);
    let decisions = Decisions::Serviced {
        ctx: &cx,
        config: ServiceConfig::unlimited(),
        faults: ServiceFaultSpec::healthy(SEED),
    };
    let serviced = run_stream(&eng, 2, &stream, decisions, opts, &setup).expect("serviced");
    let svc_report = serviced.service.clone().expect("service report");
    assert_eq!(
        direct.run.makespan_s.to_bits(),
        serviced.run.makespan_s.to_bits(),
        "makespan must be bit-identical"
    );
    assert_eq!(
        direct.run.energy_dyn_j.to_bits(),
        serviced.run.energy_dyn_j.to_bits(),
        "energy must be bit-identical"
    );
    assert_eq!(direct.report, serviced.report);
    assert_eq!(svc_report.tier_full, svc_report.decided);
    assert_eq!(svc_report.shed, 0);
    assert_eq!(svc_report.deadline_exceeded, 0);
    assert_eq!(svc_report.decision_time_s, 0.0);
}

/// A constrained serviced stream still completes — rejected decisions
/// degrade to class defaults instead of failing the schedule — and its
/// service report shows the pressure.
#[test]
fn constrained_serviced_stream_completes_with_degradations() {
    let eng = EvalEngine::atom();
    let db =
        ConfigDatabase::build_subset(&eng, &[App::Wc, App::St], &[InputSize::Small], 0.0, SEED)
            .expect("db build");
    let classifier = RuleClassifier::fit(&db.signatures);
    let lkt = LktStp::from_database(&db);
    let pairing = PairingPolicy::default();
    let cx = EcostContext {
        db: &db,
        stp: &lkt,
        classifier: &classifier,
        pairing: &pairing,
        noise: 0.0,
        seed: SEED,
        pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
    };
    let stream: Vec<OpenArrival> = (0..8)
        .map(|i| OpenArrival {
            app: if i % 2 == 0 { App::Wc } else { App::St },
            input_mb: 256.0,
            at_s: i as f64, // 1-second spacing: far faster than decisions
        })
        .collect();
    let setup = FaultSetup::default();
    let svc_cfg = ServiceConfig {
        max_inflight: Some(1),
        max_queue: Some(1),
        deadline_s: 12.0,
        ..ServiceConfig::default()
    };
    let decisions = Decisions::Serviced {
        ctx: &cx,
        config: svc_cfg,
        faults: ServiceFaultSpec::healthy(SEED),
    };
    let run =
        run_stream(&eng, 2, &stream, decisions, OpenOptions::default(), &setup).expect("serviced");
    let svc_report = run.service.clone().expect("service report");
    assert!(run.run.makespan_s.is_finite() && run.run.makespan_s > 0.0);
    assert!(
        svc_report.shed > 0 || svc_report.deadline_exceeded > 0 || svc_report.tier_fallback > 0,
        "pressure must be visible: {svc_report:?}"
    );
    // Two decisions per arrival at most (placement may be re-decided);
    // every decision the service refused became a class-default config.
    assert!(run.report.config_fallbacks > 0 || svc_report.tier_full == svc_report.decided);
}
