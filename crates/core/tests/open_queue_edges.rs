//! Edge cases of the open-queue scheduler (`run_stream` over a closed
//! workload's arrival stream): degenerate inputs, simultaneous arrivals,
//! single-class workloads and a disabled head-skip allowance.

use ecost_apps::{App, InputSize, Workload};
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::{EvalEngine, EvalError, RetryPolicy};
use ecost_core::mapping::{
    run_policy, run_stream, ClusterRun, ConfiguredPolicy, Decisions, FaultSetup, MappingPolicy,
    OpenArrival, OpenOptions,
};
use ecost_core::pairing::PairingPolicy;
use ecost_core::stp::LktStp;
use ecost_core::EcostContext;
use ecost_sim::FaultPlan;

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

/// ECoST on `w` arriving at `arrivals`, fault-free and without retry.
fn run_open(
    eng: &EvalEngine,
    n: usize,
    w: &Workload,
    arrivals: &[f64],
    max_head_skips: u32,
    cx: &EcostContext<'_>,
) -> Result<ClusterRun, EvalError> {
    let stream = OpenArrival::from_workload(w, n, Some(arrivals))?;
    let opts = OpenOptions {
        max_head_skips,
        ..OpenOptions::default()
    };
    let setup = FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::none(),
    };
    Ok(run_stream(eng, n, &stream, Decisions::Ecost(cx), opts, &setup)?.run)
}

/// The closed-workload door: ECoST through `run_policy` rejects an empty
/// workload and a zero-node cluster up front. (The stream door's
/// boundaries are `open_cluster::invalid_streams_are_typed_errors`.)
#[test]
fn empty_workload_and_zero_nodes_are_typed_errors() {
    let eng = EvalEngine::atom();
    let fx = Fixture::build(&eng, &[App::Wc, App::St]);
    let cx = fx.ctx();
    let ecost = ConfiguredPolicy::new(MappingPolicy::Ecost, Some(&cx)).expect("tuned policy");
    let empty = Workload {
        name: "empty".into(),
        jobs: Vec::new(),
    };
    assert!(matches!(
        run_policy(&eng, 2, &empty, &ecost),
        Err(EvalError::InvalidInput { .. })
    ));
    assert!(matches!(
        run_policy(&eng, 0, &mixed_workload(), &ecost),
        Err(EvalError::InvalidInput { .. })
    ));
}

/// Everything arriving at t = 0 through the open-queue door must match the
/// closed-queue scheduler bit for bit — same queue, same decisions.
#[test]
fn simultaneous_arrivals_match_the_closed_queue() {
    let eng = EvalEngine::atom();
    let fx = Fixture::build(&eng, &[App::Wc, App::St]);
    let cx = fx.ctx();
    let w = mixed_workload();

    let open = run_open(&eng, 2, &w, &[0.0; 4], 2, &cx).expect("open run");
    let closed = {
        let p = ConfiguredPolicy::new(MappingPolicy::Ecost, Some(&cx)).expect("tuned policy");
        run_policy(&eng, 2, &w, &p).expect("closed run")
    };
    assert_eq!(open.makespan_s.to_bits(), closed.makespan_s.to_bits());
    assert_eq!(open.energy_dyn_j.to_bits(), closed.energy_dyn_j.to_bits());
}

/// A workload of nothing but memory-bound jobs still schedules: the
/// decision tree has no complementary class to reach for, so M pairs with
/// M rather than stranding the queue.
#[test]
fn all_memory_bound_workload_completes() {
    let eng = EvalEngine::atom();
    let fx = Fixture::build(&eng, &[App::Fp]);
    let cx = fx.ctx();
    let w = Workload {
        name: "all-m".into(),
        jobs: vec![(App::Fp, InputSize::Small); 4],
    };
    let run = run_open(&eng, 2, &w, &[0.0; 4], 2, &cx).expect("all-M run");
    assert!(run.makespan_s > 0.0 && run.energy_dyn_j > 0.0);
}

/// `max_head_skips = 0` disables leap-forward entirely: strict FIFO, and
/// the schedule still drains.
#[test]
fn zero_head_skips_is_strict_fifo_and_still_drains() {
    let eng = EvalEngine::atom();
    let fx = Fixture::build(&eng, &[App::Wc, App::St]);
    let cx = fx.ctx();
    let w = mixed_workload();
    let strict = run_open(&eng, 1, &w, &[0.0; 4], 0, &cx).expect("strict FIFO run");
    assert!(strict.makespan_s > 0.0);
    // Staggered arrivals behind a strict head must also drain.
    let staggered =
        run_open(&eng, 1, &w, &[0.0, 50.0, 100.0, 150.0], 0, &cx).expect("staggered run");
    assert!(staggered.makespan_s >= strict.makespan_s * 0.5);
}
