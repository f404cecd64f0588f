//! Acceptance tests for the telemetry subsystem: a recording [`Recorder`]
//! must not perturb a single bit of any schedule's results, and a recorded
//! chaos trace must agree with `EngineStats` event-for-event.

use ecost_apps::{App, InputSize, Workload};
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::{EvalEngine, RetryPolicy};
use ecost_core::features::Testbed;
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions, StreamRun};
use ecost_core::pairing::PairingPolicy;
use ecost_core::stp::LktStp;
use ecost_core::EcostContext;
use ecost_sim::{FaultKind, FaultPlan};
use ecost_telemetry::{Recorder, TraceEvent};

const SEED: u64 = 7;

fn small_workload() -> Workload {
    Workload {
        name: "telemetry-mix".into(),
        jobs: vec![
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
        ],
    }
}

fn fixture(eng: &EvalEngine) -> (ConfigDatabase, RuleClassifier, LktStp, PairingPolicy) {
    let db = ConfigDatabase::build_subset(eng, &[App::Wc, App::St], &[InputSize::Small], 0.0, SEED)
        .expect("db build");
    let classifier = RuleClassifier::fit(&db.signatures);
    let lkt = LktStp::from_database(&db);
    (db, classifier, lkt, PairingPolicy::default())
}

/// ECoST on `w` over 2 nodes, arriving at `arrivals` (all at t = 0 when
/// `None`).
fn run(
    eng: &EvalEngine,
    w: &Workload,
    arrivals: Option<&[f64]>,
    cx: &EcostContext<'_>,
    setup: &FaultSetup,
) -> StreamRun {
    let stream = OpenArrival::from_workload(w, 2, arrivals).expect("stream");
    let opts = OpenOptions::default();
    run_stream(eng, 2, &stream, Decisions::Ecost(cx), opts, setup).expect("stream run")
}

fn ctx<'a>(
    db: &'a ConfigDatabase,
    classifier: &'a RuleClassifier,
    lkt: &'a LktStp,
    pairing: &'a PairingPolicy,
) -> EcostContext<'a> {
    EcostContext {
        db,
        stp: lkt,
        classifier,
        pairing,
        noise: 0.0,
        seed: SEED,
        pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
    }
}

/// The tentpole guarantee: turning recording on changes nothing about the
/// simulation — healthy and faulted schedules are bit-identical between a
/// no-op and a recording engine.
#[test]
fn recording_is_bit_identical_to_noop() {
    let noop = EvalEngine::atom();
    let (db, cl, lkt, pp) = fixture(&noop);
    let cx = ctx(&db, &cl, &lkt, &pp);
    let w = small_workload();
    let arrivals = [0.0, 0.0, 120.0, 240.0];

    let recording = EvalEngine::with_recorder(Testbed::atom(), Recorder::recording());

    // Healthy open-queue schedule.
    let healthy = FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::none(),
    };
    let a = run(&noop, &w, Some(&arrivals), &cx, &healthy);
    let b = run(&recording, &w, Some(&arrivals), &cx, &healthy);
    assert_eq!(a.run.makespan_s.to_bits(), b.run.makespan_s.to_bits());
    assert_eq!(a.run.energy_dyn_j.to_bits(), b.run.energy_dyn_j.to_bits());

    // Chaos schedule under the same fault plan.
    let setup = FaultSetup {
        plan: FaultPlan::none()
            .with_event(10.0, 1, FaultKind::NodeCrash)
            .with_event(5.0, 0, FaultKind::Straggler { multiplier: 4.0 }),
        retry: RetryPolicy::default(),
    };
    let fa = run(&noop, &w, Some(&arrivals), &cx, &setup);
    let fb = run(&recording, &w, Some(&arrivals), &cx, &setup);
    assert_eq!(fa.run.makespan_s.to_bits(), fb.run.makespan_s.to_bits());
    assert_eq!(fa.run.energy_dyn_j.to_bits(), fb.run.energy_dyn_j.to_bits());
    assert_eq!(fa.report, fb.report);

    // And the recording engine actually recorded something.
    assert!(!recording.recorder().events().is_empty());
}

/// The chaos-trace acceptance criterion: fault-fired / retry / fallback
/// instants in the trace match the engine's counters exactly.
#[test]
fn chaos_trace_event_counts_match_engine_stats() {
    let noop = EvalEngine::atom();
    let (db, cl, lkt, pp) = fixture(&noop);
    let cx = ctx(&db, &cl, &lkt, &pp);
    let w = small_workload();

    let recording = EvalEngine::with_recorder(Testbed::atom(), Recorder::recording());
    let setup = FaultSetup {
        plan: FaultPlan::none()
            .with_event(5.0, 0, FaultKind::Straggler { multiplier: 4.0 })
            .with_event(10.0, 1, FaultKind::NodeCrash)
            .with_event(15.0, 0, FaultKind::NodeSlowdown { factor: 2.0 }),
        retry: RetryPolicy::default(),
    };
    let out = run(&recording, &w, None, &cx, &setup);
    assert_eq!(out.report.crashes, 1);

    let events = recording.recorder().events();
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Instant { event, .. } if event.name() == name))
            .count() as u64
    };
    let s = recording.stats();
    assert_eq!(count("fault-fired"), s.faults_injected);
    assert_eq!(count("retry"), s.retries);
    assert_eq!(count("fallback"), s.fallbacks);
    assert_eq!(count("fault-planned"), setup.plan.len() as u64);
    // The scheduler narrates the workload: every job is submitted, placed
    // at least once, and finishes.
    assert_eq!(count("job-submit"), w.jobs.len() as u64);
    assert!(count("job-place") >= w.jobs.len() as u64);
    assert_eq!(count("job-finish"), w.jobs.len() as u64);
    // Requeued work surfaces as requeue instants.
    assert_eq!(count("requeue"), out.report.requeued_jobs);
    // Stage spans exist for every job phase, on the simulated clock.
    let spans = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Span { .. }))
        .count();
    assert!(spans > 0, "executor must emit stage/job spans");
}
