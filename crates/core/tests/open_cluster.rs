//! Edge and boundary tests for `run_stream`, the one open-stream entry
//! point. (The equivalence cases against the lockstep oracle sit beside
//! that oracle, inside the crate.)

use ecost_apps::{App, InputSize, Workload};
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::{EvalEngine, EvalError};
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions, StreamRun};
use ecost_core::pairing::PairingPolicy;
use ecost_core::stp::LktStp;
use ecost_core::{EcostContext, ServiceConfig};
use ecost_sim::{FaultKind, FaultPlan, ServiceFaultSpec};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const SEED: u64 = 7;

struct Fixture {
    db: ConfigDatabase,
    classifier: RuleClassifier,
    lkt: LktStp,
    pairing: PairingPolicy,
}

impl Fixture {
    fn build(eng: &EvalEngine, apps: &[App]) -> Fixture {
        let db = ConfigDatabase::build_subset(eng, apps, &[InputSize::Small], 0.0, SEED)
            .expect("db build");
        let classifier = RuleClassifier::fit(&db.signatures);
        let lkt = LktStp::from_database(&db);
        Fixture {
            db,
            classifier,
            lkt,
            pairing: PairingPolicy::default(),
        }
    }

    fn ctx(&self) -> EcostContext<'_> {
        EcostContext {
            db: &self.db,
            stp: &self.lkt,
            classifier: &self.classifier,
            pairing: &self.pairing,
            noise: 0.0,
            seed: SEED,
            pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
        }
    }
}

fn mixed_workload() -> Workload {
    Workload {
        name: "open-mix".into(),
        jobs: vec![
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
        ],
    }
}

fn ecost_run(
    eng: &EvalEngine,
    n: usize,
    stream: &[OpenArrival],
    cx: &EcostContext<'_>,
    setup: &FaultSetup,
) -> Result<StreamRun, EvalError> {
    run_stream(
        eng,
        n,
        stream,
        Decisions::Ecost(cx),
        OpenOptions::default(),
        setup,
    )
}

fn assert_close(label: &str, a: f64, b: f64) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= 1e-6 * scale, "{label}: {a} vs {b}");
}

/// A burst of simultaneous arrivals hitting a long-idle cluster: the
/// calendar must fast-forward cleanly (no event before the burst) and
/// drain everything after it, making the same decisions as for the burst
/// at t = 0, shifted by the idle gap.
#[test]
fn empty_cluster_arrival_burst_drains() {
    let eng = EvalEngine::atom();
    let fx = Fixture::build(&eng, &[App::Wc, App::St]);
    let cx = fx.ctx();
    let w = mixed_workload();
    let setup = FaultSetup::default();
    let burst_at = |at: f64| {
        let stream = OpenArrival::from_workload(&w, 2, Some(&[at; 4])).expect("stream");
        ecost_run(&eng, 2, &stream, &cx, &setup).expect("burst run")
    };

    let early = burst_at(0.0);
    let late = burst_at(500.0);
    assert!(late.run.makespan_s > 500.0);
    assert_close(
        "makespan",
        late.run.makespan_s - 500.0,
        early.run.makespan_s,
    );
    assert_close("energy", late.run.energy_dyn_j, early.run.energy_dyn_j);
    assert_eq!(late.report, early.report);
}

/// Every node crashing with jobs still queued is a typed degradation.
#[test]
fn all_crash_is_a_typed_degradation() {
    let eng = EvalEngine::atom();
    let fx = Fixture::build(&eng, &[App::Wc, App::St]);
    let cx = fx.ctx();
    let w = Workload {
        name: "overload".into(),
        jobs: vec![(App::Wc, InputSize::Small); 6],
    };
    let stream = OpenArrival::from_workload(&w, 2, None).expect("stream");
    let setup = FaultSetup {
        plan: FaultPlan::none()
            .with_event(5.0, 0, FaultKind::NodeCrash)
            .with_event(6.0, 1, FaultKind::NodeCrash),
        ..FaultSetup::default()
    };
    let err = ecost_run(&eng, 2, &stream, &cx, &setup).expect_err("must degrade");
    assert!(matches!(err, EvalError::Degraded { .. }), "{err}");
}

/// One malformed input: the cluster size, the stream (or the error the
/// closed-workload helper returned building it) and the driver options.
struct Case {
    label: String,
    n: usize,
    stream: Result<Vec<OpenArrival>, EvalError>,
    opts: OpenOptions,
}

fn boundary_cases() -> Vec<Case> {
    let ok = OpenArrival {
        app: App::Wc,
        input_mb: 100.0,
        at_s: 0.0,
    };
    let case = |label: String, n: usize, stream: Vec<OpenArrival>| Case {
        label,
        n,
        stream: Ok(stream),
        opts: OpenOptions::default(),
    };
    let mut cases = vec![
        case("empty stream".into(), 2, Vec::new()),
        case("zero nodes".into(), 0, vec![ok]),
        Case {
            opts: OpenOptions {
                eligible_window: 0,
                ..OpenOptions::default()
            },
            ..case("eligible_window = 0".into(), 2, vec![ok])
        },
    ];
    for mb in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0] {
        let bad = OpenArrival { input_mb: mb, ..ok };
        cases.push(case(format!("input_mb = {mb}"), 2, vec![ok, bad]));
    }
    let pair = Workload {
        name: "pair".into(),
        jobs: vec![(App::Wc, InputSize::Small); 2],
    };
    for at in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -50.0] {
        let bad = OpenArrival { at_s: at, ..ok };
        cases.push(case(format!("at_s = {at}"), 2, vec![ok, bad]));
        cases.push(Case {
            label: format!("closed workload arriving at [0, {at}]"),
            n: 2,
            stream: OpenArrival::from_workload(&pair, 2, Some(&[0.0, at])),
            opts: OpenOptions::default(),
        });
    }
    cases.push(Case {
        label: "closed workload with one arrival time for two jobs".into(),
        n: 2,
        stream: OpenArrival::from_workload(&pair, 2, Some(&[0.0])),
        opts: OpenOptions::default(),
    });
    cases
}

/// Every malformed input to `run_stream`, under every [`Decisions`]
/// variant, plus an invalid service config, is a typed
/// [`EvalError::InvalidInput`] — never a panic, and never a hang (a NaN
/// arrival time once pinned the event loop's step at zero). The cases run
/// on a worker thread that reports each verdict as it lands, so a hang
/// fails here at the deadline instead of stalling the suite.
#[test]
fn invalid_streams_are_typed_errors() {
    let (tx, rx) = mpsc::channel::<Option<(String, Result<(), EvalError>)>>();
    let worker = std::thread::spawn(move || {
        let eng = EvalEngine::atom();
        let fx = Fixture::build(&eng, &[App::Wc]);
        let cx = fx.ctx();
        let setup = FaultSetup::default();
        let variants = [
            ("ecost", Decisions::Ecost(&cx)),
            (
                "serviced",
                Decisions::Serviced {
                    ctx: &cx,
                    config: ServiceConfig::unlimited(),
                    faults: ServiceFaultSpec::healthy(SEED),
                },
            ),
            ("untuned", Decisions::Untuned),
        ];
        for case in boundary_cases() {
            for (name, decisions) in &variants {
                let verdict = match &case.stream {
                    Err(e) => Err(e.clone()),
                    Ok(stream) => {
                        run_stream(&eng, case.n, stream, decisions.clone(), case.opts, &setup)
                            .map(|_| ())
                    }
                };
                let label = format!("{name}: {}", case.label);
                if tx.send(Some((label, verdict))).is_err() {
                    return;
                }
            }
        }
        let ok = [OpenArrival {
            app: App::Wc,
            input_mb: 100.0,
            at_s: 0.0,
        }];
        let bad_config = Decisions::Serviced {
            ctx: &cx,
            config: ServiceConfig {
                max_inflight: Some(0),
                ..ServiceConfig::default()
            },
            faults: ServiceFaultSpec::healthy(SEED),
        };
        let verdict = run_stream(&eng, 2, &ok, bad_config, OpenOptions::default(), &setup);
        let _ = tx.send(Some((
            "serviced: max_inflight = 0".into(),
            verdict.map(|_| ()),
        )));
        let _ = tx.send(None);
    });

    let expected = boundary_cases().len() * 3 + 1;
    let mut last = String::from("(fixture build)");
    let mut seen = 0;
    loop {
        match rx.recv_timeout(Duration::from_secs(300)) {
            Ok(Some((label, verdict))) => {
                assert!(
                    matches!(verdict, Err(EvalError::InvalidInput { .. })),
                    "{label}: expected InvalidInput, got {verdict:?}"
                );
                last = label;
                seen += 1;
            }
            Ok(None) => break,
            // A hung worker cannot be joined; the test binary reaps it.
            Err(RecvTimeoutError::Timeout) => panic!("the case after `{last}` hung"),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    assert!(worker.join().is_ok(), "the case after `{last}` panicked");
    assert_eq!(seen, expected);
}
