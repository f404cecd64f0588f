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
use ecost_sim::{
    solve_lanes, ClassDemand, FixedClasses, FixedSolution, Frequency, NodeSpec, SimError,
    SimdBackend,
};
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
            let mut scratch = BatchScratch::new(SimdBackend::detect());
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

/// A batch of 1–16 lanes in one of the two shapes the AMVA lane kernel
/// serves: one job over 2 stations or two over 3, every lane the same
/// shape. Each class's first demand is forced positive, so every
/// generated problem passes validation whatever its population.
fn arb_lane_batch() -> impl Strategy<Value = Vec<Vec<ClassDemand>>> {
    (1usize..=2).prop_flat_map(|nc| {
        let stations = nc + 1;
        let lane = prop::collection::vec(
            (
                0.0f64..8.0,
                0.0f64..5.0,
                prop::collection::vec(0.0f64..2.0, stations),
                0.05f64..2.0,
            ),
            nc,
        )
        .prop_map(|raw| {
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
        prop::collection::vec(lane, 1..=16)
    })
}

fn pack<const NC: usize, const S: usize>(classes: &[ClassDemand]) -> FixedClasses<NC, S> {
    let mut p = FixedClasses::zeroed();
    for (j, c) in classes.iter().enumerate() {
        p.population[j] = c.population;
        p.think_time_s[j] = c.think_time_s;
        p.demands_s[j].copy_from_slice(&c.demands_s);
    }
    p
}

/// A lane result as bit patterns: throughputs, queues, station figures
/// and the iteration count, or the error.
fn solution_bits<const NC: usize, const S: usize>(
    r: Result<FixedSolution<NC, S>, SimError>,
) -> Result<(Vec<u64>, usize), SimError> {
    r.map(|sol| {
        let mut v: Vec<u64> = sol.throughput.iter().map(|x| x.to_bits()).collect();
        v.extend(sol.queue.iter().flatten().map(|x| x.to_bits()));
        v.extend(sol.station_util.iter().map(|x| x.to_bits()));
        v.extend(sol.station_queue.iter().map(|x| x.to_bits()));
        (v, sol.iterations)
    })
}

/// Every window of every width 1..=16 through [`solve_lanes`] on the
/// detected backend: each lane reported once, bit-equal to a scalar
/// [`FixedClasses::solve`] of that problem alone.
fn lanes_match_scalar<const NC: usize, const S: usize>(lanes: &[Vec<ClassDemand>]) {
    let problems: Vec<FixedClasses<NC, S>> = lanes.iter().map(|c| pack(c)).collect();
    for width in 1..=16usize {
        for window in problems.chunks(width) {
            let mut got = vec![None; window.len()];
            solve_lanes(SimdBackend::detect(), window, |i, r| {
                got[i] = Some(solution_bits(r));
            });
            for (i, p) in window.iter().enumerate() {
                assert_eq!(
                    got[i],
                    Some(solution_bits(p.solve())),
                    "width {width} lane {i}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random one-job and two-job point sets through the AMVA lane
    /// kernel at every lane width 1..=16: throughputs, queues,
    /// per-station figures and iteration counts are bit-equal to a scalar
    /// solve of each point alone. Widths 1..=16 cover full four-lane
    /// chunks and every padded last chunk (1, 2, 3 real lanes).
    #[test]
    fn lane_kernel_matches_scalar_at_every_lane_width(lanes in arb_lane_batch()) {
        match lanes[0].len() {
            1 => lanes_match_scalar::<1, 2>(&lanes),
            _ => lanes_match_scalar::<2, 3>(&lanes),
        }
    }
}

/// Set up `plans` on fresh simulators and run them as one batched window
/// on `backend`.
fn run_batched(plans: &[Plan], backend: SimdBackend) -> Result<Vec<Fingerprint>, SimError> {
    let mut sims = Vec::new();
    for plan in plans {
        let mut sim = NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
        setup_new(&mut sim, plan)?;
        sims.push(sim);
    }
    let mut scratch = BatchScratch::new(backend);
    run_batch_to_completion(&mut sims, &mut scratch)?;
    Ok(sims.iter_mut().map(fingerprint_of).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The detected SIMD backend is bit-identical to the pinned-scalar
    /// backend on random batched windows of 1–16 co-located plans — the
    /// DESIGN.md §11 contract the lane kernel must uphold end to end:
    /// same Result, and the same bits in every time, energy, usage
    /// integral and timeline.
    #[test]
    fn simd_backend_is_bit_identical_to_scalar_backend(
        plans in prop::collection::vec(arb_plan(), 1..=16)
    ) {
        prop_assert_eq!(
            run_batched(&plans, SimdBackend::detect()),
            run_batched(&plans, SimdBackend::Scalar)
        );
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
