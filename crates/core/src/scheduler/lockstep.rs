//! The lockstep scheduler driver, kept only as the test oracle for the
//! event calendar (the role `ecost_mapreduce::reference` plays for the
//! executor).
//!
//! Every step advances *all* nodes by the global minimum
//! time-to-next-event, so per-event cost is O(nodes) and every node's
//! float accumulators are chopped at every other node's stage boundaries.
//! Partner scans see the whole queue. The equivalence cases below pin the
//! calendar to it: the same decisions (fault reports equal exactly) and
//! makespan and energy equal to 1e-6 relative. The module docs of
//! [`super`] record where the two part ways: completions less than the
//! simulator's work tolerance apart are one step here and may be separate
//! calendar events.

use super::{collect, Prepared, StreamPolicy, StreamSim};
use crate::engine::{EvalEngine, EvalError};
use crate::mapping::{ClusterRun, FaultReport, FaultSetup};
use std::collections::VecDeque;

/// Sort `prepared` by arrival time into the pending list (stable, so FIFO
/// order survives among simultaneous arrivals). `None` arrivals submit
/// everything at t = 0.
pub(crate) fn sorted_pending(
    prepared: Vec<Prepared>,
    arrivals: Option<&[f64]>,
) -> Result<VecDeque<(f64, Prepared)>, EvalError> {
    let times: Vec<f64> = match arrivals {
        Some(t) => {
            if t.len() != prepared.len() {
                return Err(EvalError::InvalidInput {
                    what: "need one arrival time per job",
                });
            }
            t.to_vec()
        }
        None => vec![0.0; prepared.len()],
    };
    let mut v: Vec<(f64, Prepared)> = times.into_iter().zip(prepared).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(v.into())
}

/// Run `prepared` through the lockstep loop. `arrivals[i]` is the
/// submission time of `prepared[i]`; `None` submits everything at t = 0.
///
/// With [`ecost_sim::FaultPlan::none`] and
/// [`crate::engine::RetryPolicy::none`] no fault event ever caps a time
/// step, and the accrued retry backoff added to the makespan is exactly
/// `0.0`.
pub(crate) fn run_lockstep(
    engine: &EvalEngine,
    n: usize,
    prepared: Vec<Prepared>,
    arrivals: Option<&[f64]>,
    max_head_skips: u32,
    policy: &dyn StreamPolicy,
    setup: &FaultSetup,
) -> Result<(ClusterRun, FaultReport), EvalError> {
    let faults = &setup.plan;
    // Jobs not yet arrived, soonest first.
    let mut pending = sorted_pending(prepared, arrivals)?;

    setup.plan.record_schedule(engine.recorder());
    let mut sim = StreamSim::new(engine, n, setup.retry, max_head_skips, usize::MAX);
    let mut next_fault = 0_usize;
    let mut now = 0.0_f64;

    sim.admit_due(now, &mut pending);
    sim.apply_due_faults(now, &mut next_fault, faults)?;
    for i in 0..n {
        if sim.alive[i] {
            sim.dispatch(i, policy)?;
        }
    }
    loop {
        let mut any_active = false;
        let mut dt = f64::INFINITY;
        for node in &mut sim.nodes {
            if let Some(t) = node.time_to_next_event()? {
                any_active = true;
                dt = dt.min(t);
            }
        }
        // Next arrival can preempt the next completion; an idle cluster
        // fast-forwards to it.
        if let Some((t_arrive, _)) = pending.front() {
            dt = dt.min((t_arrive - now).max(0.0));
            any_active = true;
        }
        // A pending fault interrupts the step — but cannot keep a finished
        // cluster alive: faults against an idle cluster are no-ops.
        if any_active {
            if let Some(ev) = faults.events().get(next_fault) {
                dt = dt.min((ev.at_s - now).max(0.0));
            }
        }
        if !any_active {
            if !sim.queue.is_empty() {
                return Err(if sim.alive.iter().any(|a| *a) {
                    EvalError::Internal {
                        what: "jobs stranded in the scheduler queue",
                    }
                } else {
                    EvalError::Degraded {
                        what: "all nodes failed with jobs still queued",
                    }
                });
            }
            break;
        }
        debug_assert!(dt.is_finite());
        for node in &mut sim.nodes {
            node.advance(dt)?;
        }
        now += dt;
        sim.now = now;
        sim.admit_due(now, &mut pending);
        sim.apply_due_faults(now, &mut next_fault, faults)?;
        for i in 0..n {
            let finished: Vec<ecost_mapreduce::JobHandle> =
                sim.nodes[i].finished().iter().map(|o| o.id).collect();
            sim.running[i].retain(|(h, _, _)| !finished.contains(h));
            if sim.alive[i] {
                sim.dispatch(i, policy)?;
            }
        }
    }
    // Retries cost simulated seconds: the accrued backoff lengthens the
    // makespan (exactly 0.0 on the fault-free path).
    let mut run = collect(sim.nodes, n);
    run.makespan_s += sim.report.retry_backoff_s;
    Ok((run, sim.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::RuleClassifier;
    use crate::database::ConfigDatabase;
    use crate::mapping::{
        prepare_one, run_stream, Decider, Decisions, EcostContext, OpenArrival, OpenOptions,
        StreamRun,
    };
    use crate::pairing::{PairingMode, PairingPolicy};
    use crate::stp::LktStp;
    use ecost_apps::{App, InputSize, Workload};
    use ecost_sim::{FaultKind, FaultPlan};

    const SEED: u64 = 7;

    struct Fixture {
        db: ConfigDatabase,
        classifier: RuleClassifier,
        lkt: LktStp,
        pairing: PairingPolicy,
    }

    impl Fixture {
        fn build(eng: &EvalEngine) -> Fixture {
            let db = ConfigDatabase::build_subset(
                eng,
                &[App::Wc, App::St],
                &[InputSize::Small],
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
                pairing_mode: PairingMode::DecisionTree,
            }
        }
    }

    fn mixed_stream(n: usize, arrivals: &[f64]) -> Vec<OpenArrival> {
        let w = Workload {
            name: "open-mix".into(),
            jobs: vec![
                (App::Wc, InputSize::Small),
                (App::St, InputSize::Small),
                (App::Wc, InputSize::Small),
                (App::St, InputSize::Small),
            ],
        };
        OpenArrival::from_workload(&w, n, Some(arrivals)).expect("stream")
    }

    /// The oracle over a stream, with `run_stream`'s job preparation and
    /// fallback folding.
    fn lockstep(
        eng: &EvalEngine,
        n: usize,
        stream: &[OpenArrival],
        decisions: Decisions<'_, '_>,
        setup: &FaultSetup,
    ) -> StreamRun {
        let decider = Decider::new(eng, decisions).expect("decider");
        let prepared = stream
            .iter()
            .map(|a| prepare_one(eng, a, decider.ctx()))
            .collect::<Result<Vec<_>, _>>()
            .expect("prepare");
        let arrivals: Vec<f64> = stream.iter().map(|a| a.at_s).collect();
        let (run, mut report) = run_lockstep(
            eng,
            n,
            prepared,
            Some(&arrivals),
            2,
            decider.as_stream(),
            setup,
        )
        .expect("lockstep run");
        let service = decider.finish(&mut report);
        StreamRun {
            run,
            report,
            service,
        }
    }

    /// Equal to float accumulation order: the two drivers chop each
    /// node's integration into different spans, so demand tight relative
    /// agreement, not bit identity.
    fn assert_close(label: &str, a: f64, b: f64) {
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() <= 1e-6 * scale,
            "{label}: lockstep {a} vs calendar {b}"
        );
    }

    /// Run the same stream through the oracle and `run_stream` and demand
    /// the same decisions: every counter equal, floats to 1e-6.
    fn assert_equivalent(
        eng: &EvalEngine,
        n: usize,
        stream: &[OpenArrival],
        decisions: Decisions<'_, '_>,
        setup: &FaultSetup,
    ) -> StreamRun {
        let oracle = lockstep(eng, n, stream, decisions.clone(), setup);
        let calendar = run_stream(eng, n, stream, decisions, OpenOptions::default(), setup)
            .expect("calendar run");
        assert_close("makespan", oracle.run.makespan_s, calendar.run.makespan_s);
        assert_close("energy", oracle.run.energy_dyn_j, calendar.run.energy_dyn_j);
        assert_eq!(oracle.report, calendar.report);
        calendar
    }

    #[test]
    fn calendar_matches_lockstep_on_simultaneous_arrivals() {
        let eng = EvalEngine::atom();
        let fx = Fixture::build(&eng);
        let cx = fx.ctx();
        let stream = mixed_stream(2, &[0.0; 4]);
        let setup = FaultSetup::default();
        assert_equivalent(&eng, 2, &stream, Decisions::Ecost(&cx), &setup);
    }

    #[test]
    fn calendar_matches_lockstep_on_staggered_and_tied_arrivals() {
        let eng = EvalEngine::atom();
        let fx = Fixture::build(&eng);
        let cx = fx.ctx();
        let setup = FaultSetup::default();
        for arrivals in [[0.0, 40.0, 80.0, 120.0], [0.0, 0.0, 100.0, 100.0]] {
            let stream = mixed_stream(2, &arrivals);
            assert_equivalent(&eng, 2, &stream, Decisions::Ecost(&cx), &setup);
        }
    }

    #[test]
    fn calendar_matches_lockstep_under_faults() {
        let eng = EvalEngine::atom();
        let fx = Fixture::build(&eng);
        let cx = fx.ctx();
        let stream = mixed_stream(2, &[0.0, 0.0, 60.0, 90.0]);
        // One of everything: a crash displacing in-flight work, a
        // slowdown, a straggler — the tie case included (fault at an
        // arrival instant).
        let setup = FaultSetup {
            plan: FaultPlan::none()
                .with_event(10.0, 1, FaultKind::NodeCrash)
                .with_event(60.0, 0, FaultKind::NodeSlowdown { factor: 1.3 })
                .with_event(90.0, 0, FaultKind::Straggler { multiplier: 2.0 }),
            ..FaultSetup::default()
        };
        let calendar = assert_equivalent(&eng, 2, &stream, Decisions::Ecost(&cx), &setup);
        assert_eq!(calendar.report.crashes, 1);
    }

    #[test]
    fn untuned_calendar_matches_untuned_lockstep() {
        let eng = EvalEngine::atom();
        let stream = mixed_stream(2, &[0.0, 25.0, 50.0, 75.0]);
        let setup = FaultSetup::default();
        assert_equivalent(&eng, 2, &stream, Decisions::Untuned, &setup);
    }

    /// Single-node cluster: every pair co-locates on the one node and the
    /// calendar degenerates to a serial schedule. It must still match the
    /// lockstep driver, on both the tuned and untuned paths.
    #[test]
    fn single_node_cluster_matches_lockstep() {
        let eng = EvalEngine::atom();
        let fx = Fixture::build(&eng);
        let cx = fx.ctx();
        let stream = mixed_stream(1, &[0.0, 30.0, 60.0, 90.0]);
        let setup = FaultSetup::default();
        let calendar = assert_equivalent(&eng, 1, &stream, Decisions::Ecost(&cx), &setup);
        assert!(calendar.run.makespan_s.is_finite() && calendar.run.makespan_s > 0.0);
        assert_equivalent(&eng, 1, &stream, Decisions::Untuned, &setup);
    }
}
