//! Acceptance tests for the fleet layer: single-shard bit-identity with
//! `run_stream`, arrival conservation across shard
//! counts, worker-thread interleaving invariance, and router behaviour
//! when one shard's circuit breaker opens.

use ecost_apps::App;
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::EvalEngine;
use ecost_core::fleet::{run_fleet, FleetConfig, FleetRun, FleetService, RoutePolicy};
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions};
use ecost_core::pairing::PairingPolicy;
use ecost_core::stp::LktStp;
use ecost_core::{EcostContext, EvalError, ServiceConfig, Testbed};
use ecost_sim::ServiceFaultSpec;
use ecost_telemetry::Recorder;

const SEED: u64 = 7;

struct Fixture {
    db: ConfigDatabase,
    classifier: RuleClassifier,
    lkt: LktStp,
    pairing: PairingPolicy,
}

impl Fixture {
    fn build() -> Fixture {
        let eng = EvalEngine::atom();
        let db = ConfigDatabase::build_subset(
            &eng,
            &[App::Wc, App::St],
            &[ecost_apps::InputSize::Small],
            0.0,
            SEED,
        )
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

/// A staggered two-class arrival stream: enough jobs to keep several
/// epochs busy, cheap enough for a test.
fn stream(count: usize) -> Vec<OpenArrival> {
    (0..count)
        .map(|i| OpenArrival {
            app: if i % 2 == 0 { App::Wc } else { App::St },
            input_mb: 200.0 + 10.0 * (i % 5) as f64,
            at_s: 15.0 * i as f64,
        })
        .collect()
}

/// Engine wall-clock seconds are the one nondeterministic field in a
/// fleet outcome; zero them so whole-struct equality means "byte-equal
/// everywhere it can be".
fn scrubbed(mut f: FleetRun) -> FleetRun {
    f.stats.wall_seconds = 0.0;
    for s in &mut f.shards {
        s.stats.wall_seconds = 0.0;
    }
    f
}

#[test]
fn single_shard_fleet_is_bit_identical_to_the_calendar_driver() {
    let fx = Fixture::build();
    let cx = fx.ctx();
    let arrivals = stream(12);
    let setup = FaultSetup::default();

    let eng = EvalEngine::atom();
    let opts = OpenOptions::default();
    let mono =
        run_stream(&eng, 3, &arrivals, Decisions::Ecost(&cx), opts, &setup).expect("run_stream");

    let cfg = FleetConfig {
        nodes_per_shard: 3,
        ..FleetConfig::rendezvous(1, 3, SEED)
    };
    let fleet = run_fleet(
        &Testbed::atom(),
        &cfg,
        arrivals.iter().copied(),
        &cx,
        &Recorder::noop(),
    )
    .expect("fleet");
    fleet
        .assert_single_shard_identity(&mono)
        .expect("bit-identity");
    // And the raw bits, independently of the assertion helper.
    assert_eq!(
        fleet.run.makespan_s.to_bits(),
        mono.run.makespan_s.to_bits()
    );
    assert_eq!(
        fleet.run.energy_dyn_j.to_bits(),
        mono.run.energy_dyn_j.to_bits()
    );
    assert_eq!(fleet.report, mono.report);
    assert_eq!(fleet.arrivals, 12);
}

#[test]
fn shard_count_conserves_arrivals_under_rendezvous() {
    let fx = Fixture::build();
    let cx = fx.ctx();
    let arrivals = stream(16);

    let mut fingerprints = Vec::new();
    for shards in [2usize, 8] {
        let cfg = FleetConfig::rendezvous(shards, 2, SEED);
        let fleet = run_fleet(
            &Testbed::atom(),
            &cfg,
            arrivals.iter().copied(),
            &cx,
            &Recorder::noop(),
        )
        .expect("fleet");
        // Conservation: every arrival is routed exactly once, whatever
        // the shard count.
        assert_eq!(fleet.arrivals, 16);
        assert_eq!(fleet.shards.iter().map(|s| s.arrivals).sum::<u64>(), 16);
        assert_eq!(fleet.shards.len(), shards);
        assert!(fleet.run.makespan_s.is_finite() && fleet.run.makespan_s > 0.0);
        // Class affinity: two behaviour classes occupy at most two shards.
        assert!(fleet.shards.iter().filter(|s| s.arrivals > 0).count() <= 2);
        fingerprints.push((fleet.arrivals, fleet.report));
    }
    // The conservation fingerprint is shard-count invariant.
    assert_eq!(fingerprints[0], fingerprints[1]);
}

#[test]
fn fleet_results_are_invariant_to_worker_thread_interleaving() {
    let fx = Fixture::build();
    let cx = fx.ctx();
    let arrivals = stream(16);
    let cfg = FleetConfig {
        route: RoutePolicy::LeastOutstanding,
        ..FleetConfig::rendezvous(4, 2, SEED)
    };
    let run_with = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let fleet = run_fleet(
            &Testbed::atom(),
            &cfg,
            arrivals.iter().copied(),
            &cx,
            &Recorder::noop(),
        );
        std::env::remove_var("RAYON_NUM_THREADS");
        scrubbed(fleet.expect("fleet"))
    };
    let sequential = run_with("1");
    let parallel = run_with("4");
    assert_eq!(sequential, parallel);
    // Double-run determinism at a fixed thread count, too.
    assert_eq!(parallel, run_with("4"));
}

#[test]
fn open_breaker_on_one_shard_degrades_only_that_shard() {
    let fx = Fixture::build();
    let cx = fx.ctx();
    let arrivals = stream(16);
    // Shard 0's tuning service fails every engine-tier attempt; the other
    // shards are healthy. Default breaker: trips after 5 straight
    // failures.
    let broken = ServiceFaultSpec {
        transient_rate: 1.0,
        transient_burst: 99,
        slow_rate: 0.0,
        slow_factor: 1.0,
        seed: SEED,
    };
    let mut faults = vec![ServiceFaultSpec::healthy(SEED); 4];
    faults[0] = broken;
    let cfg = FleetConfig {
        route: RoutePolicy::LeastOutstanding,
        service: Some(FleetService {
            config: ServiceConfig::default(),
            faults,
        }),
        ..FleetConfig::rendezvous(4, 2, SEED)
    };
    let fleet = run_fleet(
        &Testbed::atom(),
        &cfg,
        arrivals.iter().copied(),
        &cx,
        &Recorder::noop(),
    )
    .expect("a broken shard degrades, it does not abort the fleet");

    assert_eq!(fleet.arrivals, 16);
    let svc0 = fleet.shards[0].service.as_ref().expect("serviced");
    assert!(svc0.breaker_trips > 0, "shard 0's breaker must open");
    for s in &fleet.shards[1..] {
        let svc = s.service.as_ref().expect("serviced");
        assert_eq!(svc.breaker_trips, 0, "healthy shards stay closed");
        assert_eq!(svc.tier_failures, 0);
    }
    let merged = fleet.service.as_ref().expect("merged service report");
    assert_eq!(merged.breaker_trips, svc0.breaker_trips);
    assert_eq!(
        merged.decided,
        fleet
            .shards
            .iter()
            .map(|s| s.service.as_ref().map_or(0, |r| r.decided))
            .sum::<u64>()
    );
    assert!(fleet.run.makespan_s.is_finite() && fleet.run.makespan_s > 0.0);
}

#[test]
fn invalid_fleet_inputs_are_typed_errors() {
    let fx = Fixture::build();
    let cx = fx.ctx();
    let tb = Testbed::atom();
    let rec = Recorder::noop();
    let ok = stream(4);

    let invalid = |cfg: &FleetConfig, arrivals: &[OpenArrival]| {
        matches!(
            run_fleet(&tb, cfg, arrivals.iter().copied(), &cx, &rec),
            Err(EvalError::InvalidInput { .. })
        )
    };

    let base = FleetConfig::rendezvous(2, 2, SEED);
    assert!(invalid(
        &FleetConfig {
            shards: 0,
            ..base.clone()
        },
        &ok
    ));
    assert!(invalid(
        &FleetConfig {
            nodes_per_shard: 0,
            ..base.clone()
        },
        &ok
    ));
    assert!(invalid(
        &FleetConfig {
            epoch_s: 0.0,
            ..base.clone()
        },
        &ok
    ));
    assert!(invalid(
        &FleetConfig {
            epoch_s: f64::NAN,
            ..base.clone()
        },
        &ok
    ));
    // Service fault specs must be one (broadcast) or one per shard.
    assert!(invalid(
        &FleetConfig {
            service: Some(FleetService {
                config: ServiceConfig::default(),
                faults: vec![ServiceFaultSpec::healthy(SEED); 3],
            }),
            ..base.clone()
        },
        &ok
    ));
    // Streams must be non-empty and sorted by arrival time.
    assert!(invalid(&base, &[]));
    let mut unsorted = stream(3);
    unsorted.swap(0, 2);
    assert!(invalid(&base, &unsorted));
}
