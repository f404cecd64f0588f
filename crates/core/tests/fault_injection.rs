//! Integration tests for the fault-injection subsystem: the no-fault
//! regression guarantee, crash-driven requeueing, predictor degradation
//! and the all-nodes-lost failure mode.

use ecost_apps::{App, InputSize, Workload};
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::{EvalEngine, EvalError, RetryPolicy};
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions, StreamRun};
use ecost_core::pairing::PairingPolicy;
use ecost_core::stp::LktStp;
use ecost_core::{EcostContext, FaultReport};
use ecost_sim::{FaultKind, FaultPlan};

const SEED: u64 = 7;

fn small_workload() -> Workload {
    Workload {
        name: "chaos-mix".into(),
        jobs: vec![
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
        ],
    }
}

/// Build a minimal trained context over the two apps the tests use, plus
/// the pieces it borrows (caller keeps them alive).
fn fixture(eng: &EvalEngine) -> (ConfigDatabase, RuleClassifier, LktStp, PairingPolicy) {
    let db = ConfigDatabase::build_subset(eng, &[App::Wc, App::St], &[InputSize::Small], 0.0, SEED)
        .expect("db build");
    let classifier = RuleClassifier::fit(&db.signatures);
    let lkt = LktStp::from_database(&db);
    (db, classifier, lkt, PairingPolicy::default())
}

/// `w` on `n` nodes, arriving at `arrivals` (all at t = 0 when `None`).
fn run(
    eng: &EvalEngine,
    n: usize,
    w: &Workload,
    arrivals: Option<&[f64]>,
    decisions: Decisions<'_, '_>,
    setup: &FaultSetup,
) -> Result<StreamRun, EvalError> {
    let stream = OpenArrival::from_workload(w, n, arrivals)?;
    run_stream(eng, n, &stream, decisions, OpenOptions::default(), setup)
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

/// A fault-free [`FaultSetup`] with the default bounded retry must be
/// **bit-identical** to the plain scheduler (no faults, no retry), and
/// both reports all-zero: a retry policy that never fires changes nothing.
#[test]
fn fault_free_setup_is_identical_to_the_plain_scheduler() {
    let eng = EvalEngine::atom();
    let (db, cl, lkt, pp) = fixture(&eng);
    let cx = ctx(&db, &cl, &lkt, &pp);
    let w = small_workload();
    let arrivals = [0.0, 0.0, 120.0, 240.0];

    let plain_setup = FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::none(),
    };
    let plain = run(
        &eng,
        2,
        &w,
        Some(&arrivals),
        Decisions::Ecost(&cx),
        &plain_setup,
    )
    .expect("plain run");
    let setup = FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::default(),
    };
    let faulted =
        run(&eng, 2, &w, Some(&arrivals), Decisions::Ecost(&cx), &setup).expect("faulted run");

    assert_eq!(
        plain.run.makespan_s.to_bits(),
        faulted.run.makespan_s.to_bits(),
        "makespan must be bit-identical without faults"
    );
    assert_eq!(
        plain.run.energy_dyn_j.to_bits(),
        faulted.run.energy_dyn_j.to_bits(),
        "energy must be bit-identical without faults"
    );
    assert_eq!(plain.report, FaultReport::default());
    assert_eq!(faulted.report, FaultReport::default());
}

/// A mid-run node crash displaces that node's jobs back into the queue;
/// the surviving node absorbs them and the schedule still completes —
/// slower, never silently dropping work.
#[test]
fn node_crash_requeues_jobs_onto_survivors() {
    let eng = EvalEngine::atom();
    let (db, cl, lkt, pp) = fixture(&eng);
    let cx = ctx(&db, &cl, &lkt, &pp);
    let w = small_workload();

    let healthy = run(
        &eng,
        2,
        &w,
        None,
        Decisions::Ecost(&cx),
        &FaultSetup::default(),
    )
    .expect("healthy run");
    assert_eq!(healthy.report.crashes, 0);

    let faults_before = eng.stats().faults_injected;
    let setup = FaultSetup {
        plan: FaultPlan::none().with_event(10.0, 1, FaultKind::NodeCrash),
        retry: RetryPolicy::default(),
    };
    let crashed = run(&eng, 2, &w, None, Decisions::Ecost(&cx), &setup).expect("crashed run");

    assert_eq!(crashed.report.crashes, 1);
    assert!(
        crashed.report.requeued_jobs >= 1,
        "jobs running on the crashed node must be requeued: {}",
        crashed.report
    );
    assert!(
        crashed.run.makespan_s > healthy.run.makespan_s,
        "losing a node mid-run cannot speed the workload up"
    );
    assert!(
        eng.stats().faults_injected > faults_before,
        "applied faults must surface in EngineStats"
    );
}

/// Slowdown and straggler events stretch the schedule without aborting it.
#[test]
fn slowdown_and_straggler_events_degrade_gracefully() {
    let eng = EvalEngine::atom();
    let (db, cl, lkt, pp) = fixture(&eng);
    let cx = ctx(&db, &cl, &lkt, &pp);
    let w = small_workload();

    let healthy = run(
        &eng,
        2,
        &w,
        None,
        Decisions::Ecost(&cx),
        &FaultSetup::default(),
    )
    .expect("healthy");
    let setup = FaultSetup {
        plan: FaultPlan::none()
            .with_event(5.0, 0, FaultKind::NodeSlowdown { factor: 2.0 })
            .with_event(5.0, 1, FaultKind::Straggler { multiplier: 3.0 }),
        retry: RetryPolicy::default(),
    };
    let degraded = run(&eng, 2, &w, None, Decisions::Ecost(&cx), &setup).expect("degraded");
    assert_eq!(degraded.report.slowdowns, 1);
    assert_eq!(degraded.report.stragglers, 1);
    assert!(
        degraded.run.makespan_s > healthy.run.makespan_s,
        "a halved node and a straggling wave must lengthen the makespan"
    );
}

/// An empty lookup table is a predictor gap, not a crash: the scheduler
/// completes on class-default configurations and counts the fallbacks.
#[test]
fn empty_lookup_table_degrades_to_class_defaults() {
    let eng = EvalEngine::atom();
    let (db, cl, _lkt, pp) = fixture(&eng);
    let empty_db = ConfigDatabase {
        pairs: Vec::new(),
        solos: Vec::new(),
        signatures: Vec::new(),
        build_seconds: 0.0,
    };
    let empty_lkt = LktStp::from_database(&empty_db);
    let cx = ctx(&db, &cl, &empty_lkt, &pp);
    let w = small_workload();

    let fallbacks_before = eng.stats().fallbacks;
    let out = run(
        &eng,
        2,
        &w,
        None,
        Decisions::Ecost(&cx),
        &FaultSetup::default(),
    )
    .expect("degraded run completes");
    assert!(
        out.report.config_fallbacks > 0,
        "every pairing must have fallen back to class defaults: {}",
        out.report
    );
    assert!(out.run.makespan_s > 0.0);
    assert!(
        eng.stats().fallbacks > fallbacks_before,
        "fallbacks must surface in EngineStats"
    );
}

/// When every node has crashed and jobs are still queued, the run fails
/// with the typed degradation error instead of hanging or panicking.
#[test]
fn losing_every_node_is_a_typed_degradation() {
    let eng = EvalEngine::atom();
    let (db, cl, lkt, pp) = fixture(&eng);
    let cx = ctx(&db, &cl, &lkt, &pp);
    let w = small_workload();

    let setup = FaultSetup {
        plan: FaultPlan::none().with_event(5.0, 0, FaultKind::NodeCrash),
        retry: RetryPolicy::default(),
    };
    let err = run(&eng, 1, &w, None, Decisions::Ecost(&cx), &setup)
        .expect_err("one node, one crash, jobs left: must fail");
    assert!(
        matches!(err, EvalError::Degraded { .. }),
        "expected Degraded, got {err}"
    );
}

/// The untuned baseline survives the same crash schedule, so chaos sweeps
/// can compare tuned and untuned degradation curves.
#[test]
fn untuned_baseline_survives_crashes_too() {
    let eng = EvalEngine::atom();
    let w = small_workload();
    let setup = FaultSetup {
        plan: FaultPlan::none().with_event(10.0, 0, FaultKind::NodeCrash),
        retry: RetryPolicy::default(),
    };
    let out = run(&eng, 2, &w, None, Decisions::Untuned, &setup).expect("untuned chaos run");
    assert_eq!(out.report.crashes, 1);
    assert!(out.run.makespan_s > 0.0);
}
