//! The zero-allocation executor must be *bit-identical* to the frozen
//! pre-refactor reference (`ecost_mapreduce::reference`): every result
//! figure the repo reports was produced by that arithmetic, so the hot-path
//! rewrite (double-buffered SoA rate solution, in-place AMVA scratch,
//! stack-allocated completion sets) is only admissible if `f64::to_bits`
//! agrees on every output — times, energies, usage integrals, timelines —
//! for random job mixes, fault plans and simulator reuse.

use ecost_apps::catalog::ALL_APPS;
use ecost_apps::{App, InputSize};
use ecost_mapreduce::executor::NodeSim;
use ecost_mapreduce::reference::ReferenceNodeSim;
use ecost_mapreduce::{
    run_batch_to_completion, BatchScratch, BlockSize, FrameworkSpec, JobSpec, TuningConfig,
};
use ecost_sim::{AmvaBatch, AmvaScratch, ClassDemand, Frequency, NodeSpec, SimError, SimdBackend};
use proptest::prelude::*;

fn arb_app() -> impl Strategy<Value = App> {
    (0usize..ALL_APPS.len()).prop_map(|i| ALL_APPS[i])
}

fn arb_size() -> impl Strategy<Value = InputSize> {
    prop_oneof![
        Just(InputSize::Small),
        Just(InputSize::Medium),
        Just(InputSize::Large)
    ]
}

/// Configs capped at 2 mappers so any mix of up to 4 jobs fits the 8-core
/// Atom node's core budget.
fn arb_cfg() -> impl Strategy<Value = TuningConfig> {
    (0usize..4, 0usize..5, 1u32..=2).prop_map(|(f, b, m)| TuningConfig {
        freq: Frequency::from_index(f).expect("< 4"),
        block: BlockSize::ALL[b],
        mappers: m,
    })
}

/// A full scenario: a co-located job mix plus an optional fault plan
/// (node slowdown, mid-run straggler injection, speculative retry).
#[derive(Debug, Clone)]
struct Plan {
    jobs: Vec<(App, InputSize, TuningConfig)>,
    slowdown: f64,
    /// Steps to advance before applying mid-run faults.
    warm_steps: usize,
    straggler: Option<(usize, f64)>,
    speculate: Option<(usize, u32)>,
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        prop::collection::vec((arb_app(), arb_size(), arb_cfg()), 1..=4),
        prop_oneof![Just(1.0f64), Just(1.25), Just(2.0)],
        0usize..=3,
        (0u8..=1, (0usize..4, 1.1f64..3.0)),
        (0u8..=1, (0usize..4, 1u32..=2)),
    )
        .prop_map(|(jobs, slowdown, warm_steps, straggler, speculate)| Plan {
            jobs,
            slowdown,
            warm_steps,
            straggler: (straggler.0 == 1).then_some(straggler.1),
            speculate: (speculate.0 == 1).then_some(speculate.1),
        })
}

/// Everything observable about a finished simulation, as bit patterns.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    now: u64,
    energy: u64,
    outcomes: Vec<OutcomeBits>,
}

#[derive(Debug, PartialEq)]
struct OutcomeBits {
    id: u64,
    exec_time: u64,
    energy: u64,
    avg_power: u64,
    usage: [u64; 9],
    timeline: Vec<(ecost_mapreduce::stage::StageKind, u64)>,
}

fn outcome_bits(o: &ecost_mapreduce::JobOutcome) -> OutcomeBits {
    OutcomeBits {
        id: o.id.0,
        exec_time: o.metrics.exec_time_s.to_bits(),
        energy: o.metrics.energy_j.to_bits(),
        avg_power: o.metrics.avg_power_w.to_bits(),
        usage: [
            o.usage.busy_core_s.to_bits(),
            o.usage.alloc_core_s.to_bits(),
            o.usage.read_mb.to_bits(),
            o.usage.write_mb.to_bits(),
            o.usage.nic_mb.to_bits(),
            o.usage.mem_mb.to_bits(),
            o.usage.energy_j.to_bits(),
            o.usage.stall_weighted_s.to_bits(),
            o.usage.peak_footprint_mb.to_bits(),
        ],
        timeline: o
            .timeline
            .iter()
            .map(|&(kind, t)| (kind, t.to_bits()))
            .collect(),
    }
}

/// Apply `plan`'s submissions, warm steps and mid-run faults without
/// finishing the run — shared by the scalar and batched drivers.
fn setup_new(sim: &mut NodeSim, plan: &Plan) -> Result<(), ecost_sim::SimError> {
    sim.set_slowdown(plan.slowdown)?;
    let mut handles = Vec::new();
    for (app, size, cfg) in &plan.jobs {
        handles.push(sim.submit(JobSpec::new(*app, *size, *cfg))?);
    }
    for _ in 0..plan.warm_steps {
        sim.step()?;
    }
    if let Some((j, mult)) = plan.straggler {
        if let Some(&h) = handles.get(j) {
            let _ = sim.inject_straggler(h, mult);
        }
    }
    if let Some((j, extra)) = plan.speculate {
        if let Some(&h) = handles.get(j) {
            let _ = sim.speculate(h, extra);
        }
    }
    Ok(())
}

fn fingerprint_of(sim: &mut NodeSim) -> Fingerprint {
    Fingerprint {
        now: sim.now().to_bits(),
        energy: sim.energy_j().to_bits(),
        outcomes: sim.take_finished().iter().map(outcome_bits).collect(),
    }
}

/// Drive the *optimized* executor through `plan`. `sim` may be a reused,
/// reset pool simulator — the whole point is that this must not matter.
fn run_new(sim: &mut NodeSim, plan: &Plan) -> Result<Fingerprint, ecost_sim::SimError> {
    setup_new(sim, plan)?;
    sim.run_to_completion()?;
    Ok(fingerprint_of(sim))
}

/// Drive the frozen reference through the same `plan`.
fn run_ref(plan: &Plan) -> Result<Fingerprint, ecost_sim::SimError> {
    let mut sim = ReferenceNodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
    sim.set_slowdown(plan.slowdown)?;
    let mut handles = Vec::new();
    for (app, size, cfg) in &plan.jobs {
        handles.push(sim.submit(JobSpec::new(*app, *size, *cfg))?);
    }
    for _ in 0..plan.warm_steps {
        sim.step()?;
    }
    if let Some((j, mult)) = plan.straggler {
        if let Some(&h) = handles.get(j) {
            let _ = sim.inject_straggler(h, mult);
        }
    }
    if let Some((j, extra)) = plan.speculate {
        if let Some(&h) = handles.get(j) {
            let _ = sim.speculate(h, extra);
        }
    }
    sim.run_to_completion()?;
    Ok(Fingerprint {
        now: sim.now().to_bits(),
        energy: sim.energy_j().to_bits(),
        outcomes: sim.take_finished().iter().map(outcome_bits).collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random job mixes + fault plans: the refactored executor and the
    /// frozen reference agree bit-for-bit, and a *reused* (reset) simulator
    /// agrees with a fresh one — the pooling contract.
    #[test]
    fn refactored_executor_is_bit_identical_to_reference(plan in arb_plan()) {
        let reference = run_ref(&plan);

        let mut fresh = NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
        let new = run_new(&mut fresh, &plan);

        // Warm a pooled simulator with an unrelated run, reset it, replay.
        let mut pooled = NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
        pooled
            .submit(JobSpec::new(
                App::Wc,
                InputSize::Small,
                TuningConfig::hadoop_default(4),
            ))
            .expect("warm submit");
        pooled.run_to_completion().expect("warm run");
        pooled.reset();
        let replay = run_new(&mut pooled, &plan);

        match (reference, new, replay) {
            (Ok(r), Ok(n), Ok(p)) => {
                prop_assert_eq!(&r, &n, "fresh run diverged from reference");
                prop_assert_eq!(&n, &p, "pooled replay diverged from fresh run");
            }
            // Both arithmetics must fail the same way (e.g. non-convergence
            // on a pathological mix) — one failing while the other succeeds
            // is a divergence.
            (Err(re), Err(ne), Err(pe)) => {
                prop_assert_eq!(&re, &ne);
                prop_assert_eq!(&ne, &pe);
            }
            (r, n, p) => {
                panic!("divergent fallibility: reference={r:?} fresh={n:?} pooled={p:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random windows of co-located plans: `run_batch_to_completion` agrees
    /// bit-for-bit with running each simulator's scalar event loop alone —
    /// the contract the batched sweep drivers in EvalEngine rely on.
    #[test]
    fn batched_runner_matches_scalar_runner(
        plans in prop::collection::vec(arb_plan(), 1..=16)
    ) {
        let scalar: Vec<Result<Fingerprint, ecost_sim::SimError>> = plans
            .iter()
            .map(|plan| {
                let mut sim = NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
                run_new(&mut sim, plan)
            })
            .collect();

        let mut sims = Vec::new();
        let mut setup_failed = false;
        for plan in &plans {
            let mut sim = NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
            match setup_new(&mut sim, plan) {
                Ok(()) => sims.push(sim),
                Err(e) => {
                    // Setup failed before any batching: the scalar arm must
                    // have failed identically; nothing batched to compare.
                    match &scalar[sims.len()] {
                        Err(se) => prop_assert_eq!(se, &e),
                        Ok(_) => prop_assert!(
                            false,
                            "scalar setup succeeded, batched failed: {:?}", e
                        ),
                    }
                    setup_failed = true;
                }
            }
            if setup_failed {
                break;
            }
        }

        if !setup_failed {
            let mut scratch = BatchScratch::new();
            match run_batch_to_completion(&mut sims, &mut scratch) {
                Ok(()) => {
                    for (sim, want) in sims.iter_mut().zip(&scalar) {
                        match want {
                            Ok(fp) => prop_assert_eq!(fp, &fingerprint_of(sim)),
                            Err(e) => prop_assert!(
                                false,
                                "scalar failed ({:?}) but batched run succeeded", e
                            ),
                        }
                    }
                }
                Err(_) => {
                    // Fail-fast: some lane failed, so some scalar run failed.
                    prop_assert!(scalar.iter().any(|r| r.is_err()));
                }
            }
        }
    }
}

/// A *shape-uniform* batch of 2–16 lanes: one (stations, class-count)
/// pair per case, shared by every lane — the resident windows `AmvaBatch`
/// solves and the f64x4 backends vectorize. Each class's first demand is
/// forced positive, so every generated problem passes validation whatever
/// its population.
fn arb_uniform_batch() -> impl Strategy<Value = (Vec<Vec<ClassDemand>>, usize)> {
    (1usize..=4, 1usize..=3).prop_flat_map(|(stations, nc)| {
        let lane = prop::collection::vec(
            (
                0.0f64..8.0,
                0.0f64..5.0,
                prop::collection::vec(0.0f64..2.0, stations),
                0.05f64..2.0,
            ),
            nc,
        )
        .prop_map(move |raw| {
            raw.into_iter()
                .map(|(population, think_time_s, mut demands_s, d0)| {
                    demands_s[0] = d0;
                    ClassDemand {
                        population,
                        think_time_s,
                        demands_s,
                    }
                })
                .collect::<Vec<ClassDemand>>()
        });
        (prop::collection::vec(lane, 2..=16), Just(stations))
    })
}

/// Open a resident window over `probs` and solve every lane once.
/// `Ok(false)` when the window is not resident-eligible (one lane).
fn solve_resident(
    batch: &mut AmvaBatch,
    probs: &[(&[ClassDemand], usize)],
) -> Result<bool, SimError> {
    if !batch.begin_window(probs)? {
        return Ok(false);
    }
    let live: Vec<usize> = (0..probs.len()).collect();
    batch.solve_window(probs, &live)?;
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shape-uniform point sets through resident `AmvaBatch`
    /// windows at every lane width 2..=16: throughputs, queues,
    /// per-station figures and iteration counts are bit-equal to a scalar
    /// `AmvaScratch::solve` of each point alone, and a window that fails
    /// reports its lowest failing lane's error. Widths 2..=16 cover full
    /// f64x4 vector windows and every scalar-tail residue (1, 2, 3 mod 4);
    /// width 1 is the scalar kernel itself.
    #[test]
    fn amva_batch_matches_scalar_at_every_lane_width(
        (problems, stations) in arb_uniform_batch()
    ) {
        for width in 2..=16usize {
            let mut batch = AmvaBatch::new();
            for window in problems.chunks(width) {
                let probs: Vec<(&[ClassDemand], usize)> = window
                    .iter()
                    .map(|c| (c.as_slice(), stations))
                    .collect();
                let batch_res = solve_resident(&mut batch, &probs);
                if window.len() == 1 {
                    prop_assert_eq!(batch_res, Ok(false));
                    continue;
                }
                let mut first_err = None;
                for (i, classes) in window.iter().enumerate() {
                    let mut scalar = AmvaScratch::new();
                    match scalar.solve(classes, stations) {
                        Ok(()) => {
                            let lane = batch.lane(i);
                            prop_assert_eq!(
                                lane.iterations(), scalar.iterations(),
                                "width {}", width
                            );
                            for j in 0..classes.len() {
                                prop_assert_eq!(
                                    lane.throughput()[j].to_bits(),
                                    scalar.throughput()[j].to_bits()
                                );
                                for s in 0..stations {
                                    prop_assert_eq!(
                                        lane.queue(j, s).to_bits(),
                                        scalar.queue(j, s).to_bits()
                                    );
                                }
                            }
                            for s in 0..stations {
                                prop_assert_eq!(
                                    lane.station_util()[s].to_bits(),
                                    scalar.station_util()[s].to_bits()
                                );
                                prop_assert_eq!(
                                    lane.station_queue()[s].to_bits(),
                                    scalar.station_queue()[s].to_bits()
                                );
                            }
                        }
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                match first_err {
                    // A failing point fails the whole window (fail-fast)
                    // with the lowest failing lane's error.
                    Some(e) => prop_assert_eq!(batch_res, Err(e)),
                    None => prop_assert_eq!(batch_res, Ok(true)),
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The detected SIMD backend is bit-identical to the pinned-scalar
    /// backend on resident shape-uniform windows of every width 2..=16 —
    /// the DESIGN.md §11 contract the vector kernel must uphold: same
    /// Result, same iteration counts, same bits in every throughput, queue
    /// and per-station figure.
    #[test]
    fn simd_backend_is_bit_identical_to_scalar_backend(
        (lanes, stations) in arb_uniform_batch()
    ) {
        let probs: Vec<(&[ClassDemand], usize)> = lanes
            .iter()
            .map(|c| (c.as_slice(), stations))
            .collect();

        let mut vec_batch = AmvaBatch::new();
        vec_batch.set_simd_backend(SimdBackend::detect());
        let mut sc_batch = AmvaBatch::new();
        sc_batch.set_simd_backend(SimdBackend::Scalar);

        let vr = solve_resident(&mut vec_batch, &probs);
        let sr = solve_resident(&mut sc_batch, &probs);
        prop_assert_eq!(&vr, &sr, "Result divergence");

        if vr.is_ok() {
            for (i, classes) in lanes.iter().enumerate() {
                let vl = vec_batch.lane(i);
                let sl = sc_batch.lane(i);
                prop_assert_eq!(vl.iterations(), sl.iterations(), "lane {}", i);
                for j in 0..classes.len() {
                    prop_assert_eq!(
                        vl.throughput()[j].to_bits(),
                        sl.throughput()[j].to_bits()
                    );
                    for s in 0..stations {
                        prop_assert_eq!(
                            vl.queue(j, s).to_bits(),
                            sl.queue(j, s).to_bits()
                        );
                    }
                }
                for s in 0..stations {
                    prop_assert_eq!(
                        vl.station_util()[s].to_bits(),
                        sl.station_util()[s].to_bits()
                    );
                    prop_assert_eq!(
                        vl.station_queue()[s].to_bits(),
                        sl.station_queue()[s].to_bits()
                    );
                }
            }
        }
    }
}

#[test]
fn sanity_single_plan_runs_and_matches() {
    let plan = Plan {
        jobs: vec![
            (App::Wc, InputSize::Small, TuningConfig::hadoop_default(4)),
            (App::St, InputSize::Small, TuningConfig::hadoop_default(4)),
        ],
        slowdown: 1.25,
        warm_steps: 2,
        straggler: Some((0, 1.7)),
        speculate: Some((1, 1)),
    };
    let r = run_ref(&plan).expect("reference run");
    let mut sim = NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
    let n = run_new(&mut sim, &plan).expect("new run");
    assert_eq!(r, n);
    assert!(!r.outcomes.is_empty());
}
