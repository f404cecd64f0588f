//! Tracked perf-regression harness for the simulator hot path.
//!
//! Times the three kernels the repo's wall-clock cost is made of and
//! writes a machine-readable `BENCH_sim.json` (path override:
//! `ECOST_BENCH_OUT`):
//!
//! 1. **solo sweep** — the full 160-point standalone configuration space
//!    per application, the kernel under profiling and ILAO;
//! 2. **pair sweep** — the co-located pair configuration space, the kernel
//!    under COLAO, the §6.2 database and the training set;
//! 3. **scheduler** — a full cluster run (queueing, placement, per-node
//!    event loops) of the untuned baseline on the event calendar
//!    (`run_stream` with `Decisions::Untuned`). Its pass is well under a
//!    millisecond, so it is reported in `BENCH_sim.json` for information
//!    only and carries no trend key.
//!
//! Below those sits the **AMVA kernel** ledger: ns per fixed-point
//! iteration on the two shapes the executor produces (one job over 2
//! stations, two jobs over 3), with the register-resident fixed-shape
//! kernel, the runtime-shape loop and the lane kernel (ns per lane-
//! iteration, 16 problems per call as the sweep path batches them) timed
//! interleaved on the same problems, so their paired ratios come from
//! one run (`amva_kernel`).
//!
//! Above the kernels sits the **engine memo-hit** ledger (`engine_hits`):
//! ns per `best_pair` hit answered from the winners table, and ns per hit
//! reading the same winner through the sweep table (`pair_sweep(..)
//! .best()`, the walk a winner hit skips), timed in interleaved rounds on
//! the same resident keys. Above the engine, the **service memo-hit**
//! ledger (`service_hits`) times a warm `TuningService::decide` under the
//! default service limits on the same keys, in the same rounds. The ns
//! figures are information only; the trend row carries two same-run
//! ratios, which `trend_check` gates: sweep-table over winner ns, and
//! winner over decide ns (the engine's share of a warm decision).
//!
//! The sweep kernels are timed in up to three arms of identical shape: the
//! *baseline* arm drives the frozen pre-refactor executor
//! (`ecost_mapreduce::reference`: fresh allocating simulator per point),
//! the *optimized* arm drives the pooled [`EvalEngine`] one point at a
//! time (`solo_outcome` / `pair_metrics`, the single-point path), and the
//! *batched* arm drives the engine's sweep path (`sweep_solo` /
//! `pair_sweep`: windows of `MAX_BATCH_LANES` sweep points whose rate
//! solves run on the AMVA lane kernel). All arms are
//! bit-identical in results (enforced by the `refactor_equivalence`
//! proptests and the engine's sweep-equivalence tests), so "events"
//! counted on one arm apply to every arm: an event is one per-job
//! execution segment — one span per active job per event-loop step
//! (sweeps count stage completions, the closest deterministic proxy the
//! outcome record keeps). The scheduler is timed in one arm, through the
//! engine's default paths.
//!
//! The batched arms and the lane-kernel ledger run the explicit `f64x4`
//! AMVA lane kernel (auto-detected backend); alongside them the default
//! run times the same sweeps with the kernel pinned scalar, so the SIMD
//! delta is tracked (`*_simd_off` keys in the trend row). A separate
//! single-threaded instrumented pass ([`EvalEngine::set_phase_timing`])
//! reports the measured phase breakdown of the sweep path (solve / outer
//! / submit+reset / memo / event-loop) in the `phases` section.
//!
//! Flags: `--baseline` runs the baseline arms only (for A/B against an
//! older build); `--no-batch` runs only the single-point and baseline
//! arms; `--batch` is the explicit form of the default (all arms);
//! `--no-simd` pins the scalar AMVA kernel on every batched arm and on the
//! lane-kernel ledger (rows get `"simd":"off"`, and the simd-off shadow
//! arms are skipped); `--threads N` sets the worker count for the
//! rayon-sharded arms (the row's `threads` context field reports it);
//! `--quick` (or `ECOST_QUICK=1`) shrinks every dimension for CI smoke
//! runs. Any other argument, or an unknown `ECOST_SIMD` value, is an
//! error (exit 1), reported before the first measurement.
//!
//! Besides `BENCH_sim.json`, every run appends one compact row to the
//! `BENCH_trend.jsonl` trend store (path override: `ECOST_TREND_OUT`;
//! commit hash from `ECOST_COMMIT`, falling back to `GITHUB_SHA`). The
//! `trend_check` binary flags throughput and kernel-latency regressions
//! between comparable rows.
//!
//! Walls in the single-digit-millisecond range are at the mercy of
//! thermal throttling and noisy neighbours, so every arm is measured in
//! several rounds *interleaved with its counterparts* and the minimum wall
//! is reported: slow drift hits all arms alike and the min discards it.

use ecost_apps::{App, InputSize, WorkloadScenario};
use ecost_bench::BenchError;
use ecost_core::engine::{EvalEngine, PhaseBreakdown, RetryPolicy};
use ecost_core::features::Testbed;
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions};
use ecost_core::{DecisionTier, ServiceConfig, ServiceError, TuningRequest, TuningService};
use ecost_mapreduce::reference::{run_colocated_reference, run_standalone_reference};
use ecost_mapreduce::{JobSpec, PairConfig, TuningConfig, MAX_BATCH_LANES};
use ecost_sim::{
    solve_lanes, AmvaScratch, ClassDemand, FaultPlan, FixedClasses, ServiceFaultSpec, SimdBackend,
};
use ecost_telemetry::{Recorder, TraceEvent};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Report schema version. Bump when the `BENCH_sim.json` shape changes
/// (new sections or renamed keys), never for additive arm entries inside
/// an existing section; the pinned unit test makes bumps deliberate.
const SCHEMA: &str = "ecost-bench-sim/8";

/// One timed measurement arm.
#[derive(Debug, Clone, Copy)]
struct Arm {
    wall_s: f64,
    sims: u64,
    events: u64,
}

impl Arm {
    fn sims_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sims as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn events_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\n      \"wall_s\": {:.4},\n      \"sims\": {},\n      \
             \"sims_per_s\": {:.1},\n      \"events\": {},\n      \
             \"events_per_s\": {:.1}\n    }}",
            self.wall_s,
            self.sims,
            self.sims_per_s(),
            self.events,
            self.events_per_s()
        )
    }
}

/// Which arms this invocation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arms {
    optimized: bool,
    batched: bool,
    /// `false` pins the scalar AMVA kernel on every batched arm.
    simd: bool,
}

impl Arms {
    fn label(&self) -> &'static str {
        if !self.optimized {
            "baseline-only"
        } else if !self.batched {
            "no-batch"
        } else {
            "all"
        }
    }

    /// The trend row's `simd` context value: batched arms either all ran
    /// the vector kernel or all had it pinned scalar.
    fn simd_label(&self) -> &'static str {
        if self.simd {
            "on"
        } else {
            "off"
        }
    }
}

/// Pool accounting accumulated across the optimized and batched arms.
#[derive(Debug, Clone, Copy, Default)]
struct PoolTotals {
    created: u64,
    reused: u64,
}

impl PoolTotals {
    fn absorb(&mut self, eng: &EvalEngine) {
        let s = eng.stats();
        self.created += s.sims_created;
        self.reused += s.sims_reused;
    }
}

fn solo_apps(quick: bool) -> Vec<App> {
    if quick {
        vec![App::Wc]
    } else {
        vec![App::Wc, App::St, App::Gp]
    }
}

/// Keep whichever measurement of the same deterministic work was faster.
fn faster(best: Option<Arm>, cur: Arm) -> Option<Arm> {
    match best {
        Some(b) if b.wall_s <= cur.wall_s => Some(b),
        _ => Some(cur),
    }
}

/// Optimized solo sweep: the pooled engine's single-point path, one fresh
/// memo (every point is a miss, so every point simulates — the kernel, not
/// the cache, is timed).
fn solo_optimized(
    apps: &[App],
    mb: f64,
    configs: &[TuningConfig],
    pool: &mut PoolTotals,
) -> Result<Arm, BenchError> {
    let eng = EvalEngine::atom();
    let t0 = Instant::now();
    let mut events = 0u64;
    for app in apps {
        let outs: Vec<_> = configs
            .par_iter()
            .map(|&cfg| eng.solo_outcome(app.profile(), mb, cfg))
            .collect::<Result<_, _>>()?;
        events += outs.iter().map(|o| o.timeline.len() as u64).sum::<u64>();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    pool.absorb(&eng);
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events,
    })
}

/// Batched solo sweep: the engine's sweep path. Same 160-point space per
/// app as the other arms; events are not observable through sweep
/// metrics, the caller patches them in from the baseline arm
/// (bit-identical timelines).
fn solo_batched(
    apps: &[App],
    mb: f64,
    simd: bool,
    pool: &mut PoolTotals,
) -> Result<Arm, BenchError> {
    let eng = EvalEngine::atom().with_simd(simd);
    let t0 = Instant::now();
    for app in apps {
        eng.sweep_solo(app.profile(), mb)?;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    pool.absorb(&eng);
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events: 0,
    })
}

/// Baseline solo sweep: the frozen pre-refactor executor, one fresh
/// allocating simulator per point.
fn solo_baseline(apps: &[App], mb: f64, configs: &[TuningConfig]) -> Result<Arm, BenchError> {
    let tb = Testbed::atom();
    let t0 = Instant::now();
    let mut events = 0u64;
    let mut sims = 0u64;
    for app in apps {
        let outs: Vec<_> = configs
            .par_iter()
            .map(|&cfg| {
                run_standalone_reference(
                    &tb.node,
                    &tb.fw,
                    JobSpec::from_profile(app.profile().clone(), mb, cfg),
                )
            })
            .collect::<Result<_, _>>()?;
        sims += outs.len() as u64;
        events += outs.iter().map(|o| o.timeline.len() as u64).sum::<u64>();
    }
    Ok(Arm {
        wall_s: t0.elapsed().as_secs_f64(),
        sims,
        events,
    })
}

/// Optimized pair sweep over `pcs` through the single-point path. Events
/// are not observable through the engine's pair metrics; the caller
/// patches them in from the baseline arm (bit-identical timelines).
fn pair_optimized(
    a: App,
    b: App,
    mb: f64,
    pcs: &[PairConfig],
    pool: &mut PoolTotals,
) -> Result<Arm, BenchError> {
    let eng = EvalEngine::atom();
    let t0 = Instant::now();
    let _: Vec<_> = pcs
        .par_iter()
        .map(|&pc| eng.pair_metrics(a.profile(), mb, b.profile(), mb, pc))
        .collect::<Result<_, _>>()?;
    let wall_s = t0.elapsed().as_secs_f64();
    pool.absorb(&eng);
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events: 0,
    })
}

/// Batched pair sweep: the engine's full-space sweep path (the lane
/// windows only exist under the sweep, so this arm always covers the whole
/// space — in quick mode that is more points than the stride-sampled
/// single-point arms, which is why arms compare on `sims_per_s`, not
/// wall).
fn pair_batched(
    a: App,
    b: App,
    mb: f64,
    simd: bool,
    pool: &mut PoolTotals,
) -> Result<Arm, BenchError> {
    let eng = EvalEngine::atom().with_simd(simd);
    let t0 = Instant::now();
    eng.pair_sweep(a.profile(), mb, b.profile(), mb)?;
    let wall_s = t0.elapsed().as_secs_f64();
    pool.absorb(&eng);
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events: 0,
    })
}

/// Baseline pair sweep: fresh reference simulator per point.
fn pair_baseline(a: App, b: App, mb: f64, pcs: &[PairConfig]) -> Result<Arm, BenchError> {
    let tb = Testbed::atom();
    let t0 = Instant::now();
    let runs: Vec<(Vec<ecost_mapreduce::JobOutcome>, f64)> = pcs
        .par_iter()
        .map(|&pc| {
            run_colocated_reference(
                &tb.node,
                &tb.fw,
                vec![
                    JobSpec::from_profile(a.profile().clone(), mb, pc.a),
                    JobSpec::from_profile(b.profile().clone(), mb, pc.b),
                ],
            )
        })
        .collect::<Result<_, _>>()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let events = runs
        .iter()
        .flat_map(|(outs, _)| outs.iter())
        .map(|o| o.timeline.len() as u64)
        .sum();
    Ok(Arm {
        wall_s,
        sims: pcs.len() as u64,
        events,
    })
}

/// Scheduler workload geometry: (node count, workload).
fn scheduler_load(quick: bool) -> (usize, ecost_apps::Workload) {
    let nodes = if quick { 2 } else { 4 };
    let size = if quick {
        InputSize::Small
    } else {
        InputSize::Medium
    };
    (nodes, WorkloadScenario::Ws1.workload(size))
}

/// One untuned, fault-free pass of the scheduler workload on `eng`.
fn scheduler_run(eng: &EvalEngine, nodes: usize, stream: &[OpenArrival]) -> Result<(), BenchError> {
    let setup = FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::none(),
    };
    let opts = OpenOptions::default();
    run_stream(eng, nodes, stream, Decisions::Untuned, opts, &setup)?;
    Ok(())
}

/// Event count of the scheduler run: one span per per-job execution
/// segment, counted on a recording pass. The run is deterministic, so the
/// count transfers to the separately timed no-op-recorder passes.
fn scheduler_events(quick: bool) -> Result<u64, BenchError> {
    let (nodes, wl) = scheduler_load(quick);
    let stream = OpenArrival::from_workload(&wl, nodes, None)?;
    let counting = EvalEngine::with_recorder(Testbed::atom(), Recorder::recording());
    scheduler_run(&counting, nodes, &stream)?;
    Ok(counting
        .recorder()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Span { .. }))
        .count() as u64)
}

/// One timed pass of the streaming scheduler (wait queue, paired
/// placement, per-node event loops) under the untuned policy, fault-free.
fn scheduler_timed(quick: bool, simd: bool, pool: &mut PoolTotals) -> Result<Arm, BenchError> {
    let (nodes, wl) = scheduler_load(quick);
    let stream = OpenArrival::from_workload(&wl, nodes, None)?;
    let eng = EvalEngine::atom().with_simd(simd);
    let t0 = Instant::now();
    scheduler_run(&eng, nodes, &stream)?;
    let wall_s = t0.elapsed().as_secs_f64();
    pool.absorb(&eng);
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events: 0,
    })
}

/// The AMVA kernels on one shape, timed on the same problems: the
/// fixed-shape scalar kernel ([`AmvaScratch::solve`]), the runtime-shape
/// loop ([`AmvaScratch::solve_runtime_shape`]) and the lane kernel
/// ([`solve_lanes`], [`MAX_BATCH_LANES`] problems per call, as the sweep
/// path calls it).
#[derive(Debug, Clone, Copy)]
struct KernelTiming {
    problems: usize,
    /// Fixed-point iterations per pass — the same on every kernel, which
    /// are bit-identical.
    iterations: u64,
    /// Fastest round, ns per iteration (per lane-iteration for the lanes).
    fixed_ns: f64,
    runtime_ns: f64,
    lanes_ns: f64,
    /// Median over rounds of the same-round ratio `runtime_ns / fixed_ns`.
    speedup: f64,
    /// Median over rounds of the same-round ratio `fixed_ns / lanes_ns`.
    lanes_speedup: f64,
}

impl KernelTiming {
    fn json(&self) -> String {
        format!(
            "{{\n      \"problems\": {},\n      \"iterations\": {},\n      \
             \"fixed_ns_per_iter\": {:.2},\n      \"runtime_ns_per_iter\": {:.2},\n      \
             \"speedup\": {:.2},\n      \"lanes_ns_per_iter\": {:.2},\n      \
             \"lanes_speedup\": {:.2}\n    }}",
            self.problems,
            self.iterations,
            self.fixed_ns,
            self.runtime_ns,
            self.speedup,
            self.lanes_ns,
            self.lanes_speedup
        )
    }
}

/// `count` deterministic AMVA problems in the executor's layout: `nc`
/// jobs, each with 1–8 slots, a think time, a demand at its own I/O path
/// and, half the time, a demand at the shared NIC (`nc + 1` stations).
fn kernel_problems(nc: usize, count: usize) -> Vec<Vec<ClassDemand>> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ nc as u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| {
            (0..nc)
                .map(|j| {
                    let mut demands_s = vec![0.0; nc + 1];
                    demands_s[j] = 0.01 + unit();
                    if unit() < 0.5 {
                        demands_s[nc] = 0.05 * unit();
                    }
                    ClassDemand {
                        population: (1.0 + 8.0 * unit()).floor(),
                        think_time_s: 0.05 + 2.0 * unit(),
                        demands_s,
                    }
                })
                .collect()
        })
        .collect()
}

/// Median of a non-empty sample of per-round ratios.
fn median_ratio(mut ratios: Vec<f64>) -> Result<f64, BenchError> {
    ratios.sort_by(f64::total_cmp);
    ratios
        .get(ratios.len() / 2)
        .copied()
        .ok_or(BenchError::Invalid("no AMVA kernel rounds ran".into()))
}

/// Time the three kernels over `problems` (`NC` jobs over `S = NC + 1`
/// stations) for `rounds` rounds, the lane kernel on `backend`. Each
/// round runs the three back to back, rotating which goes first, so host
/// drift within a round hits all alike; the ratios are taken per round
/// and their medians reported.
fn amva_kernel<const NC: usize, const S: usize>(
    problems: &[Vec<ClassDemand>],
    rounds: usize,
    backend: SimdBackend,
) -> Result<KernelTiming, BenchError> {
    let packed: Vec<FixedClasses<NC, S>> = problems
        .iter()
        .map(|classes| {
            let mut p = FixedClasses::zeroed();
            for (j, c) in classes.iter().enumerate() {
                p.population[j] = c.population;
                p.think_time_s[j] = c.think_time_s;
                p.demands_s[j].copy_from_slice(&c.demands_s);
            }
            p
        })
        .collect();
    let mut scratch = AmvaScratch::new();
    let mut scalar_pass = |fixed: bool| -> Result<(f64, u64), BenchError> {
        let t0 = Instant::now();
        let mut iterations = 0u64;
        for p in problems {
            let p = std::hint::black_box(p.as_slice());
            if fixed {
                scratch.solve(p, S)?;
            } else {
                scratch.solve_runtime_shape(p, S)?;
            }
            std::hint::black_box(scratch.throughput());
            iterations += scratch.iterations() as u64;
        }
        Ok((t0.elapsed().as_nanos() as f64, iterations))
    };
    let lanes_pass = || -> Result<(f64, u64), BenchError> {
        let t0 = Instant::now();
        let mut iterations = 0u64;
        let mut failed = None;
        for chunk in packed.chunks(MAX_BATCH_LANES) {
            solve_lanes(backend, std::hint::black_box(chunk), |_, r| match r {
                Ok(sol) => {
                    std::hint::black_box(sol.throughput);
                    iterations += sol.iterations as u64;
                }
                Err(e) => failed = Some(e),
            });
        }
        if let Some(e) = failed {
            return Err(e.into());
        }
        Ok((t0.elapsed().as_nanos() as f64, iterations))
    };
    let (mut fixed_ns, mut runtime_ns, mut lanes_ns) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut iterations = 0;
    let (mut ratios, mut lane_ratios) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..rounds {
        let (fixed, runtime, lanes) = match round % 3 {
            0 => {
                let f = scalar_pass(true)?;
                let r = scalar_pass(false)?;
                (f, r, lanes_pass()?)
            }
            1 => {
                let r = scalar_pass(false)?;
                let l = lanes_pass()?;
                (scalar_pass(true)?, r, l)
            }
            _ => {
                let l = lanes_pass()?;
                let f = scalar_pass(true)?;
                (f, scalar_pass(false)?, l)
            }
        };
        if fixed.1 != runtime.1 || fixed.1 != lanes.1 || fixed.1 == 0 {
            return Err(BenchError::Invalid(format!(
                "AMVA kernels ran {} / {} / {} iterations on the same problems",
                fixed.1, runtime.1, lanes.1
            )));
        }
        iterations = fixed.1;
        let n = fixed.1 as f64;
        let (f, r, l) = (fixed.0 / n, runtime.0 / n, lanes.0 / n);
        fixed_ns = fixed_ns.min(f);
        runtime_ns = runtime_ns.min(r);
        lanes_ns = lanes_ns.min(l);
        ratios.push(r / f);
        lane_ratios.push(f / l);
    }
    Ok(KernelTiming {
        problems: problems.len(),
        iterations,
        fixed_ns,
        runtime_ns,
        lanes_ns,
        speedup: median_ratio(ratios)?,
        lanes_speedup: median_ratio(lane_ratios)?,
    })
}

/// Memo-hit cost on the same resident pair keys, timed in three arms: the
/// winners table ([`EvalEngine::best_pair`]), the sweep table
/// ([`EvalEngine::pair_sweep`] + [`ecost_core::engine::PairSweep::best`]),
/// and a warm [`TuningService::decide`] under the default service limits,
/// which answers from the winners table.
#[derive(Debug, Clone, Copy)]
struct HitTiming {
    keys: usize,
    /// Hits per arm per round.
    hits: usize,
    /// Fastest round, ns per hit.
    winner_ns: f64,
    sweep_ns: f64,
    decide_ns: f64,
    /// Median over rounds of the same-round ratio `sweep_ns / winner_ns`.
    speedup: f64,
    /// Median over rounds of the same-round ratio `winner_ns / decide_ns`:
    /// the engine's share of a warm decision.
    engine_share: f64,
}

impl HitTiming {
    fn engine_json(&self) -> String {
        format!(
            "{{\n    \"keys\": {},\n    \"hits_per_round\": {},\n    \
             \"winner_ns_per_hit\": {:.1},\n    \"sweep_ns_per_hit\": {:.1},\n    \
             \"winner_speedup\": {:.2}\n  }}",
            self.keys, self.hits, self.winner_ns, self.sweep_ns, self.speedup
        )
    }

    fn service_json(&self) -> String {
        format!(
            "{{\n    \"keys\": {},\n    \"hits_per_round\": {},\n    \
             \"decide_ns_per_hit\": {:.1},\n    \"winner_ns_per_hit\": {:.1},\n    \
             \"engine_share\": {:.3}\n  }}",
            self.keys, self.hits, self.decide_ns, self.winner_ns, self.engine_share
        )
    }
}

/// One arm of [`engine_hits`].
#[derive(Debug, Clone, Copy)]
enum HitArm {
    Winner,
    Sweep,
    Decide,
}

/// Sweep `keys` Gp × St pairs (one input size each) into a fresh engine,
/// then time `reps` passes over them per arm for `rounds` rounds, rotating
/// which arm goes first. Decisions arrive ten simulated seconds apart, so
/// each finds a free simulated worker and is granted a full sweep. Every
/// timed call must be a hit: a miss, a simulated run or a decision on any
/// other tier is an error, not a slow sample.
fn engine_hits(keys: u32, reps: usize, rounds: usize) -> Result<HitTiming, BenchError> {
    let eng = EvalEngine::atom();
    let (a, b) = (App::Gp.profile(), App::St.profile());
    let mb = InputSize::Small.per_node_mb();
    let sizes: Vec<f64> = (0..keys).map(|i| mb + f64::from(i)).collect();
    for &x in &sizes {
        eng.best_pair(a, x, b, mb)?;
    }
    let service_err = |e: ServiceError| BenchError::Invalid(format!("service hit arm: {e}"));
    let svc = TuningService::new(&eng, ServiceConfig::default(), ServiceFaultSpec::healthy(0))
        .map_err(service_err)?;
    let mut seq = 0u64;
    let hits = reps * sizes.len();
    let mut pass = |arm: HitArm| -> Result<f64, BenchError> {
        let t0 = Instant::now();
        for _ in 0..reps {
            for &x in &sizes {
                match arm {
                    HitArm::Winner => {
                        std::hint::black_box(eng.best_pair(a, x, b, mb)?);
                    }
                    HitArm::Sweep => {
                        std::hint::black_box(eng.pair_sweep(a, x, b, mb)?.best());
                    }
                    HitArm::Decide => {
                        let req = TuningRequest::pair(
                            seq,
                            seq as f64 * 10.0,
                            60.0,
                            (App::Gp, x),
                            (App::St, mb),
                        );
                        seq += 1;
                        let d = svc.decide(&req).map_err(service_err)?;
                        if d.tier != DecisionTier::FullSweep || d.degraded {
                            return Err(BenchError::Invalid(format!(
                                "service hit arm got a {} decision (degraded: {})",
                                d.tier.name(),
                                d.degraded
                            )));
                        }
                        std::hint::black_box(d);
                    }
                }
            }
        }
        Ok(t0.elapsed().as_nanos() as f64 / hits as f64)
    };
    let before = eng.stats();
    let (mut winner_ns, mut sweep_ns, mut decide_ns) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut ratios, mut shares) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..rounds {
        let (w, s, d) = match round % 3 {
            0 => {
                let w = pass(HitArm::Winner)?;
                let s = pass(HitArm::Sweep)?;
                (w, s, pass(HitArm::Decide)?)
            }
            1 => {
                let s = pass(HitArm::Sweep)?;
                let d = pass(HitArm::Decide)?;
                (pass(HitArm::Winner)?, s, d)
            }
            _ => {
                let d = pass(HitArm::Decide)?;
                let w = pass(HitArm::Winner)?;
                (w, pass(HitArm::Sweep)?, d)
            }
        };
        winner_ns = winner_ns.min(w);
        sweep_ns = sweep_ns.min(s);
        decide_ns = decide_ns.min(d);
        ratios.push(s / w);
        shares.push(w / d);
    }
    let after = eng.stats();
    if after.misses != before.misses || after.runs_simulated != before.runs_simulated {
        return Err(BenchError::Invalid(format!(
            "engine hit arm missed: {} misses, {} runs during the timed rounds",
            after.misses - before.misses,
            after.runs_simulated - before.runs_simulated
        )));
    }
    Ok(HitTiming {
        keys: sizes.len(),
        hits,
        winner_ns,
        sweep_ns,
        decide_ns,
        speedup: median_ratio(ratios)?,
        engine_share: median_ratio(shares)?,
    })
}

/// One instrumented pass over a fresh engine — the full solo sweep plus
/// the full pair sweep, every point a miss — with phase timing on.
/// Returns the pass's wall nanoseconds and the drained breakdown.
fn phase_pass(simd: bool, mb: f64) -> Result<(u64, PhaseBreakdown), BenchError> {
    let mut eng = EvalEngine::atom().with_simd(simd);
    eng.set_phase_timing(true);
    let t0 = Instant::now();
    eng.sweep_solo(App::Gp.profile(), mb)?;
    eng.pair_sweep(App::Gp.profile(), mb, App::St.profile(), mb)?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Ok((wall_ns, eng.take_phase_breakdown()))
}

/// Fraction of a pass's wall spent in simulator checkout/submit/reset and
/// memo traffic — the overhead the sweep path fuses into the lane window.
fn submit_reset_memo_share(wall_ns: u64, p: &PhaseBreakdown) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    (p.submit_reset_ns + p.memo_ns) as f64 / wall_ns as f64
}

/// Measure the sweep path's phase breakdown on one thread (restoring the
/// caller's `RAYON_NUM_THREADS`, so the summed per-thread buckets are
/// directly comparable to the wall), and emit the `phases` section.
fn measure_phases(out: &mut String, simd: bool, mb: f64) -> Result<(), BenchError> {
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let pass = phase_pass(simd, mb);
    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let (wall_ns, p) = pass?;
    let _ = writeln!(
        out,
        "  \"phases\": {{\n    \"wall_s\": {:.4},\n    \"solve_ns\": {},\n    \
         \"outer_ns\": {},\n    \"submit_reset_ns\": {},\n    \"memo_ns\": {},\n    \
         \"event_loop_ns\": {},\n    \"submit_reset_memo_share\": {:.4}\n  }},",
        wall_ns as f64 * 1e-9,
        p.solve_ns,
        p.outer_ns,
        p.submit_reset_ns,
        p.memo_ns,
        p.event_loop_ns,
        submit_reset_memo_share(wall_ns, &p)
    );
    Ok(())
}

/// Emit one kernel section: scalar extras, then every present arm, then
/// every present ratio — comma placement handled by joining.
fn section(
    out: &mut String,
    name: &str,
    extra: &[(&str, String)],
    arms: &[(&str, Option<Arm>)],
    ratios: &[(&str, Option<f64>)],
) {
    let mut items: Vec<String> = Vec::new();
    for (k, v) in extra {
        items.push(format!("    \"{k}\": {v}"));
    }
    for (k, arm) in arms {
        if let Some(a) = arm {
            items.push(format!("    \"{k}\": {}", a.json()));
        }
    }
    for (k, r) in ratios {
        if let Some(r) = r {
            items.push(format!("    \"{k}\": {r:.2}"));
        }
    }
    let _ = writeln!(out, "  \"{name}\": {{");
    let _ = writeln!(out, "{}", items.join(",\n"));
    let _ = writeln!(out, "  }},");
}

/// Wall-clock speedup of `opt` over `base` — only meaningful when both
/// arms did identical work (same point set).
fn wall_speedup(opt: Option<Arm>, base: Option<Arm>) -> Option<f64> {
    match (opt, base) {
        (Some(o), Some(b)) if o.wall_s > 0.0 => Some(b.wall_s / o.wall_s),
        _ => None,
    }
}

/// Throughput ratio of `num` over `den` — rate-based, so it stays
/// meaningful when the arms covered different point counts.
fn rate_ratio(num: Option<Arm>, den: Option<Arm>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d.sims_per_s() > 0.0 => Some(n.sims_per_s() / d.sims_per_s()),
        _ => None,
    }
}

/// A parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Options {
    arms: Arms,
    quick: bool,
    threads: Option<usize>,
}

/// Parse the arguments after the program name. Every argument must be a
/// known flag (or the value after `--threads`): a typo or a retired flag
/// is an error, never a silently different report.
fn parse_args(args: &[String]) -> Result<Options, BenchError> {
    let (mut baseline_only, mut no_batch, mut no_simd, mut quick) = (false, false, false, false);
    let mut threads = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_only = true,
            "--no-batch" => no_batch = true,
            "--batch" => {}
            "--no-simd" => no_simd = true,
            "--quick" => quick = true,
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        BenchError::Invalid("--threads needs a positive integer".into())
                    })?;
                threads = Some(n);
            }
            other => {
                return Err(BenchError::Invalid(format!(
                    "unknown argument `{other}` (flags: --baseline, --no-batch, --batch, \
                     --no-simd, --threads N, --quick)"
                )))
            }
        }
    }
    Ok(Options {
        arms: Arms {
            optimized: !baseline_only,
            batched: !baseline_only && !no_batch,
            simd: !no_simd,
        },
        quick,
        threads,
    })
}

#[allow(clippy::too_many_lines)]
fn run(opts: Options) -> Result<(), BenchError> {
    let arms = opts.arms;
    let quick = opts.quick || std::env::var("ECOST_QUICK").is_ok_and(|v| v == "1");
    // The vendored rayon shim sizes its scope per call from this
    // variable, so setting it up front covers every parallel arm.
    if let Some(n) = opts.threads {
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
    let tb = Testbed::atom();
    let mb = InputSize::Small.per_node_mb();
    let rounds = if quick { 3 } else { 7 };
    let mut pool = PoolTotals::default();

    let solo_cfgs: Vec<TuningConfig> = TuningConfig::space(tb.node.cores).collect();
    let apps = solo_apps(quick);
    eprintln!(
        "[bench_report] solo sweep: {} apps x {} configs, {} rounds ({}, {} arms)…",
        apps.len(),
        solo_cfgs.len(),
        rounds,
        if quick { "quick" } else { "full" },
        arms.label()
    );
    let mut solo_base: Option<Arm> = None;
    let mut solo_opt: Option<Arm> = None;
    let mut solo_bat: Option<Arm> = None;
    let mut solo_off: Option<Arm> = None;
    for _ in 0..rounds {
        solo_base = faster(solo_base, solo_baseline(&apps, mb, &solo_cfgs)?);
        if arms.optimized {
            solo_opt = faster(solo_opt, solo_optimized(&apps, mb, &solo_cfgs, &mut pool)?);
        }
        if arms.batched {
            solo_bat = faster(solo_bat, solo_batched(&apps, mb, arms.simd, &mut pool)?);
        }
        // Shadow arm: same batched sweep with the kernel pinned scalar,
        // so the SIMD delta itself is tracked by trend_check.
        if arms.batched && arms.simd {
            solo_off = faster(solo_off, solo_batched(&apps, mb, false, &mut pool)?);
        }
    }
    let solo_base = solo_base.ok_or(BenchError::Invalid("no solo rounds ran".into()))?;
    // Bit-identical arms: the baseline's event count transfers (sweep
    // metrics keep no timelines to count on the batched arm).
    let solo_bat = solo_bat.map(|mut arm| {
        arm.events = solo_base.events;
        arm
    });
    let solo_off = solo_off.map(|mut arm| {
        arm.events = solo_base.events;
        arm
    });

    let all_pcs = PairConfig::space(tb.node.cores);
    let full_space = all_pcs.len();
    let stride = if quick { 32 } else { 1 };
    let pcs: Vec<PairConfig> = all_pcs.into_iter().step_by(stride).collect();
    eprintln!(
        "[bench_report] pair sweep: {} configs ({} batched), {rounds} rounds…",
        pcs.len(),
        full_space
    );
    let mut pair_base: Option<Arm> = None;
    let mut pair_opt: Option<Arm> = None;
    let mut pair_bat: Option<Arm> = None;
    let mut pair_off: Option<Arm> = None;
    for _ in 0..rounds {
        pair_base = faster(pair_base, pair_baseline(App::Gp, App::St, mb, &pcs)?);
        if arms.optimized {
            pair_opt = faster(
                pair_opt,
                pair_optimized(App::Gp, App::St, mb, &pcs, &mut pool)?,
            );
        }
        if arms.batched {
            pair_bat = faster(
                pair_bat,
                pair_batched(App::Gp, App::St, mb, arms.simd, &mut pool)?,
            );
        }
        if arms.batched && arms.simd {
            pair_off = faster(
                pair_off,
                pair_batched(App::Gp, App::St, mb, false, &mut pool)?,
            );
        }
    }
    let pair_base = pair_base.ok_or(BenchError::Invalid("no pair rounds ran".into()))?;
    // Bit-identical arms: the baseline's event count is the event count
    // (the engine's pair memo keeps metrics, not timelines). The batched
    // arms' count transfers only when they covered the same point set.
    let pair_opt = pair_opt.map(|mut arm| {
        arm.events = pair_base.events;
        arm
    });
    let same_points = |arm: Option<Arm>| {
        arm.map(|mut a| {
            if a.sims == pair_base.sims {
                a.events = pair_base.events;
            }
            a
        })
    };
    let (pair_bat, pair_off) = (same_points(pair_bat), same_points(pair_off));

    let (nodes, wl) = scheduler_load(quick);
    let jobs = wl.jobs.len();
    let mut sched: Option<Arm> = None;
    if arms.batched {
        eprintln!("[bench_report] scheduler run, {rounds} rounds…");
        let sched_events = scheduler_events(quick)?;
        for _ in 0..rounds {
            sched = faster(sched, scheduler_timed(quick, arms.simd, &mut pool)?);
        }
        sched = sched.map(|mut a| {
            a.events = sched_events;
            a
        });
    }

    let kernel_count = if quick { 2_000 } else { 20_000 };
    let lane_backend = if arms.simd {
        SimdBackend::detect()
    } else {
        SimdBackend::Scalar
    };
    eprintln!(
        "[bench_report] AMVA kernels: {kernel_count} problems per shape, {rounds} rounds, \
         lanes on {}…",
        lane_backend.name()
    );
    let one_class = amva_kernel::<1, 2>(&kernel_problems(1, kernel_count), rounds, lane_backend)?;
    let two_class = amva_kernel::<2, 3>(&kernel_problems(2, kernel_count), rounds, lane_backend)?;

    let hit_cost = if arms.batched {
        let (keys, reps) = if quick { (2, 2_000) } else { (8, 20_000) };
        eprintln!("[bench_report] engine and service memo hits: {keys} keys, {rounds} rounds…");
        Some(engine_hits(keys, reps, rounds)?)
    } else {
        None
    };

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"arms\": \"{}\",", arms.label());
    let _ = writeln!(out, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(out, "  \"batch_lanes\": {MAX_BATCH_LANES},");
    let _ = writeln!(out, "  \"simd\": \"{}\",", arms.simd_label());
    let _ = writeln!(out, "  \"simd_backend\": \"{}\",", lane_backend.name());
    section(
        &mut out,
        "solo_sweep",
        &[
            ("apps", apps.len().to_string()),
            ("configs", solo_cfgs.len().to_string()),
        ],
        &[
            ("optimized", solo_opt),
            ("batched", solo_bat),
            ("batched_no_simd", solo_off),
            ("baseline", Some(solo_base)),
        ],
        &[
            ("speedup", wall_speedup(solo_opt, Some(solo_base))),
            ("speedup_batched", rate_ratio(solo_bat, solo_opt)),
            ("speedup_simd", rate_ratio(solo_bat, solo_off)),
        ],
    );
    section(
        &mut out,
        "pair_sweep",
        &[("configs", pcs.len().to_string())],
        &[
            ("optimized", pair_opt),
            ("batched", pair_bat),
            ("batched_no_simd", pair_off),
            ("baseline", Some(pair_base)),
        ],
        &[
            ("speedup", wall_speedup(pair_opt, Some(pair_base))),
            ("speedup_batched", rate_ratio(pair_bat, pair_opt)),
            ("speedup_simd", rate_ratio(pair_bat, pair_off)),
        ],
    );
    if sched.is_some() {
        section(
            &mut out,
            "scheduler",
            &[("nodes", nodes.to_string()), ("jobs", jobs.to_string())],
            &[("batched", sched)],
            &[],
        );
    }
    let _ = writeln!(out, "  \"amva_kernel\": {{");
    let _ = writeln!(out, "    \"one_class\": {},", one_class.json());
    let _ = writeln!(out, "    \"two_class\": {}", two_class.json());
    let _ = writeln!(out, "  }},");
    if let Some(h) = &hit_cost {
        let _ = writeln!(out, "  \"engine_hits\": {},", h.engine_json());
        let _ = writeln!(out, "  \"service_hits\": {},", h.service_json());
    }
    if arms.batched {
        eprintln!("[bench_report] phase breakdown: sweep path, 1 thread…");
        measure_phases(&mut out, arms.simd, mb)?;
    }
    let _ = writeln!(out, "  \"pool\": {{");
    let _ = writeln!(out, "    \"sims_created\": {},", pool.created);
    let _ = writeln!(out, "    \"sims_reused\": {},", pool.reused);
    let total = pool.created + pool.reused;
    let frac = if total > 0 {
        pool.reused as f64 / total as f64
    } else {
        0.0
    };
    let _ = writeln!(out, "    \"reuse_frac\": {frac:.4}");
    out.push_str("  }\n}\n");

    let path = std::env::var("ECOST_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".into());
    std::fs::write(&path, &out)?;
    println!("{out}");
    eprintln!("[bench_report] wrote {path}");

    let sims = [
        ("solo_baseline_sims_per_s", Some(solo_base)),
        ("solo_optimized_sims_per_s", solo_opt),
        ("solo_batched_sims_per_s", solo_bat),
        ("solo_simd_off_sims_per_s", solo_off),
        ("pair_baseline_sims_per_s", Some(pair_base)),
        ("pair_optimized_sims_per_s", pair_opt),
        ("pair_batched_sims_per_s", pair_bat),
        ("pair_simd_off_sims_per_s", pair_off),
    ];
    let scalars = [
        ("amva_1c_fixed_ns_per_iter", one_class.fixed_ns),
        ("amva_1c_runtime_ns_per_iter", one_class.runtime_ns),
        ("amva_1c_speedup", one_class.speedup),
        ("amva_2c_fixed_ns_per_iter", two_class.fixed_ns),
        ("amva_2c_runtime_ns_per_iter", two_class.runtime_ns),
        ("amva_2c_speedup", two_class.speedup),
        ("amva_1c_lanes_ns_per_iter", one_class.lanes_ns),
        ("amva_1c_lanes_speedup", one_class.lanes_speedup),
        ("amva_2c_lanes_ns_per_iter", two_class.lanes_ns),
        ("amva_2c_lanes_speedup", two_class.lanes_speedup),
    ];
    let metrics: Vec<(&str, f64, usize)> = sims
        .iter()
        .filter_map(|&(key, arm)| arm.map(|a| (key, a.sims_per_s(), 1)))
        .chain(scalars.iter().map(|&(key, v)| (key, v, 3)))
        .chain(hit_cost.iter().flat_map(|h| {
            [
                ("engine_winner_hit_speedup", h.speedup, 3),
                ("service_hit_engine_share", h.engine_share, 3),
            ]
        }))
        .collect();
    let trend_path = ecost_bench::append_trend_row(
        quick,
        arms.label(),
        rayon::current_num_threads(),
        Some(arms.simd_label()),
        &metrics,
    )?;
    eprintln!("[bench_report] appended trend row to {trend_path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ecost_bench::run_main("bench_report", || run(parse_args(&args)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_sim_schema_is_pinned() {
        // Consumers (CI smoke, DESIGN.md §11, external dashboards) key on
        // this exact string; a shape change must bump it here on purpose,
        // in the same commit that documents the new shape.
        assert_eq!(SCHEMA, "ecost-bench-sim/8");
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_flags_select_arms() {
        let all = parse_args(&args(&["--quick", "--batch", "--threads", "2"])).unwrap();
        assert_eq!(
            all,
            Options {
                arms: Arms {
                    optimized: true,
                    batched: true,
                    simd: true
                },
                quick: true,
                threads: Some(2),
            }
        );
        assert_eq!(all.arms.label(), "all");
        let no_batch = parse_args(&args(&["--no-batch", "--no-simd"])).unwrap();
        assert_eq!(no_batch.arms.label(), "no-batch");
        assert_eq!(no_batch.arms.simd_label(), "off");
        assert_eq!(
            parse_args(&args(&["--baseline"])).unwrap().arms.label(),
            "baseline-only"
        );
    }

    #[test]
    fn unknown_and_malformed_arguments_are_rejected() {
        for bad in [
            &["--lane-sweep"][..],
            &["--quick", "--frobnicate"],
            &["--threads"],
            &["--threads", "0"],
            &["quick"],
        ] {
            match parse_args(&args(bad)) {
                Err(BenchError::Invalid(msg)) => {
                    let named = bad.iter().any(|a| msg.contains(a));
                    assert!(named, "{bad:?}: {msg}");
                }
                other => panic!("{bad:?}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn submit_reset_memo_share_is_a_fraction_of_wall() {
        let p = PhaseBreakdown {
            solve_ns: 600,
            outer_ns: 100,
            submit_reset_ns: 200,
            memo_ns: 100,
            event_loop_ns: 0,
        };
        assert!((submit_reset_memo_share(1000, &p) - 0.3).abs() < 1e-12);
        assert_eq!(submit_reset_memo_share(0, &p), 0.0);
    }
}
