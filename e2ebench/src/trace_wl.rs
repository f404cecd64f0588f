//! `trace_lkt` and `trace_reptree`: a seeded Alibaba-style trace replayed
//! through `run_fleet` on 4 rendezvous-routed shards of 25 nodes, each
//! shard engine under a `CacheBudget`.

use crate::common::{
    db_digest, report_end_to_end, report_engine_counts, report_trace_overhead, setup_median, since,
    train_reptree, Args, CheckedStp, Outcome, SetupTimes, StpLog, NOISE, PROGRAM_SEED,
};
use crate::spans::Spans;
use ecost_core::classify::RuleClassifier;
use ecost_core::pairing::{PairingMode, PairingPolicy};
use ecost_core::{
    run_fleet, CacheBudget, ConfigDatabase, EcostContext, EvalEngine, EvalError, FleetConfig,
    FleetRun, LktStp, OpenArrival, Stp, Testbed,
};
use ecost_e2ebench::inputs::{self, trace_digest, Digest};
use ecost_e2ebench::stats::{beyond, median, median_index, quantile};
use ecost_telemetry::Recorder;
use std::time::Instant;

/// Fleet geometry and memo budget (entries per table, per shard engine).
const SHARDS: usize = 4;
const NODES_PER_SHARD: usize = 25;
const CACHE_BUDGET: usize = 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured passes per run (traced runs: per mode).
const MIN_PASSES: usize = 3;

/// Which STP the fleet decides with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// The lookup table (Fig 6).
    Lkt,
    /// The REPTree model, the paper's recommendation (§7.2).
    RepTree,
}

/// One replay of the trace.
struct Pass {
    wall_s: f64,
    fleet: FleetRun,
    stp: StpLog,
    /// Host time of each epoch barrier the router's pulls reveal.
    barrier_s: Vec<f64>,
    start: Instant,
    end: Instant,
}

impl Pass {
    /// The pass's end-to-end decision latencies, ms: each `choose` call on
    /// REPTree; on LkT, whose lookups are too short to time alone, each
    /// epoch barrier (the host time in which the fleet profiles, places
    /// and tunes that epoch's arrivals).
    fn latency_ms(&self, tech: Technique) -> Vec<f64> {
        match tech {
            Technique::Lkt => self.barrier_s.iter().map(|s| s * 1e3).collect(),
            Technique::RepTree => self
                .stp
                .times
                .iter()
                .map(|(s, e)| (*e - *s).as_secs_f64() * 1e3)
                .collect(),
        }
    }
}

/// The arrival stream handed to `run_fleet`, noting when each pull enters
/// and leaves. The fleet pulls one epoch's arrivals back to back, then runs
/// the epoch barrier, so the gap before the pull that follows an epoch's
/// first arrival is that barrier's host time.
struct Pulls<'a> {
    arrivals: &'a [OpenArrival],
    next: usize,
    enter: Vec<Instant>,
    leave: Vec<Instant>,
}

impl Iterator for Pulls<'_> {
    type Item = OpenArrival;

    fn next(&mut self) -> Option<OpenArrival> {
        self.enter.push(Instant::now());
        let a = self.arrivals.get(self.next).copied();
        self.next += 1;
        self.leave.push(Instant::now());
        a
    }
}

/// Positions `j` where arrival `j` opens a new epoch (and so the barrier of
/// the previous epoch runs between pulls `j` and `j + 1`). Arrivals within
/// a microsecond of a boundary are skipped: the fleet's tie window may fold
/// them into the earlier epoch.
fn epoch_openers(arrivals: &[OpenArrival], epoch_s: f64) -> Vec<usize> {
    (1..arrivals.len())
        .filter(|&j| {
            let k = (arrivals[j].at_s / epoch_s).floor();
            k != (arrivals[j - 1].at_s / epoch_s).floor() && arrivals[j].at_s - k * epoch_s > 1e-6
        })
        .collect()
}

/// Everything one set-up builds.
struct Setup {
    arrivals: Vec<OpenArrival>,
    db: ConfigDatabase,
    classifier: RuleClassifier,
    stp: Box<dyn Stp>,
    times: SetupTimes,
}

fn set_up(tech: Technique, seed: u64, from: Instant) -> Result<Setup, EvalError> {
    let t0 = Instant::now();
    let arrivals = inputs::trace(
        seed,
        &inputs::trace_shape(match tech {
            Technique::Lkt => inputs::TRACE_LKT_ARRIVALS,
            Technique::RepTree => inputs::TRACE_REPTREE_ARRIVALS,
        }),
    );
    let t1 = Instant::now();
    let engine = EvalEngine::atom();
    let db = ConfigDatabase::build(&engine, NOISE, PROGRAM_SEED)?;
    let t2 = Instant::now();
    let classifier = RuleClassifier::fit(&db.signatures);
    let stp: Box<dyn Stp> = match tech {
        Technique::Lkt => Box::new(LktStp::from_database(&db)),
        Technique::RepTree => Box::new(train_reptree(&engine, &db)?),
    };
    Ok(Setup {
        arrivals,
        db,
        classifier,
        stp,
        times: SetupTimes {
            from,
            marks: [t0, t1, t2, Instant::now()],
        },
    })
}

/// The decision context over one set-up and a checking STP wrapper.
fn context<'a>(
    setup: &'a Setup,
    stp: &'a CheckedStp<'a>,
    pairing: &'a PairingPolicy,
) -> EcostContext<'a> {
    EcostContext {
        db: &setup.db,
        stp,
        classifier: &setup.classifier,
        pairing,
        noise: NOISE,
        seed: PROGRAM_SEED,
        pairing_mode: PairingMode::DecisionTree,
    }
}

fn replay(
    tb: &Testbed,
    cfg: &FleetConfig,
    arrivals: &[OpenArrival],
    openers: &[usize],
    ctx: &EcostContext<'_>,
    stp: &CheckedStp<'_>,
) -> Result<Pass, EvalError> {
    let mut pulls = Pulls {
        arrivals,
        next: 0,
        enter: Vec::with_capacity(arrivals.len() + 1),
        leave: Vec::with_capacity(arrivals.len() + 1),
    };
    let start = Instant::now();
    let fleet = run_fleet(tb, cfg, &mut pulls, ctx, &Recorder::noop())?;
    let end = Instant::now();
    let barrier_s = openers
        .iter()
        .filter(|&&j| j + 1 < pulls.enter.len())
        .map(|&j| (pulls.enter[j + 1] - pulls.leave[j]).as_secs_f64())
        .collect();
    Ok(Pass {
        wall_s: (end - start).as_secs_f64(),
        fleet,
        stp: stp.take_log(),
        barrier_s,
        start,
        end,
    })
}

/// Digest of a replay's simulated outcome and counts.
fn pass_digest(p: &Pass) -> u64 {
    let f = &p.fleet;
    let mut d = Digest::default();
    d.float(f.run.makespan_s);
    d.float(f.run.energy_dyn_j);
    for w in [
        f.arrivals,
        f.epochs,
        f.peak_epoch_arrivals as u64,
        f.report.solo_fallbacks,
        f.report.config_fallbacks,
        f.report.requeued_jobs,
        f.stats.hits,
        f.stats.misses,
        f.stats.evictions,
        f.stats.runs_simulated,
        f.stats.fallbacks,
        p.stp.calls,
        p.stp.digest.0,
    ] {
        d.word(w);
    }
    for s in &f.shards {
        d.word(s.arrivals);
        d.float(s.run.makespan_s);
        d.float(s.run.energy_dyn_j);
    }
    d.0
}

/// Run one trace workload and report its figures.
pub fn run(tech: Technique, args: &Args, start: Instant) -> Result<(Outcome, Spans), EvalError> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(start);

    // Set-up, repeated; every repeat must rebuild the same inputs and
    // database.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut setup = set_up(tech, args.seed, start)?;
    let (inputs0, db0) = (trace_digest(&setup.arrivals), db_digest(&setup.db));
    setups.push(setup.times);
    while setups.len() < SETUPS {
        let t = Instant::now();
        setup = set_up(tech, args.seed, t)?;
        out.check(
            trace_digest(&setup.arrivals) == inputs0 && db_digest(&setup.db) == db0,
            || "set-up is not deterministic: inputs or database differ".into(),
        );
        setups.push(setup.times);
    }
    for s in &setups {
        s.record(&mut spans);
    }

    let tb = Testbed::atom();
    let cfg = FleetConfig {
        cache_budget: CacheBudget::entries(CACHE_BUDGET),
        ..FleetConfig::rendezvous(SHARDS, NODES_PER_SHARD, PROGRAM_SEED)
    };
    let arrivals = &setup.arrivals;
    let n = arrivals.len() as u64;
    let openers = epoch_openers(arrivals, cfg.epoch_s);
    let pairing = PairingPolicy::default();
    // REPTree decisions are timed at `choose` (see `Pass::latency_ms`).
    let plain = CheckedStp::new(setup.stp.as_ref(), tech == Technique::RepTree);
    let timed = CheckedStp::new(setup.stp.as_ref(), true);
    let plain_ctx = context(&setup, &plain, &pairing);
    let timed_ctx = context(&setup, &timed, &pairing);

    // Measured passes. A traced run alternates untraced and traced passes,
    // so the tracing overhead is measured under the same host conditions.
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let t_measure = Instant::now();
    loop {
        let p = replay(&tb, &cfg, arrivals, &openers, &plain_ctx, &plain)?;
        eprintln!(
            "[e2ebench] pass {}: {:.4} s, {:.2} decisions/s, decision p50 {:.4} ms",
            untraced.len(),
            p.wall_s,
            n as f64 / p.wall_s,
            median(&p.latency_ms(tech)).unwrap_or(0.0)
        );
        untraced.push(p);
        if args.trace {
            traced.push(replay(&tb, &cfg, arrivals, &openers, &timed_ctx, &timed)?);
        }
        let latency_samples: usize = untraced.iter().map(|p| p.latency_ms(tech).len()).sum();
        if since(t_measure) >= args.seconds
            && untraced.len() >= MIN_PASSES
            && beyond(latency_samples, 0.99) >= 10
        {
            break;
        }
    }

    // Output checks, on every pass.
    let first = pass_digest(&untraced[0]);
    let idle_w = tb.idle_w();
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        let f = &p.fleet;
        let shard_sum: u64 = f.shards.iter().map(|s| s.arrivals).sum();
        out.check(f.arrivals == n && shard_sum == n, || {
            format!(
                "pass {i}: {n} arrivals generated, fleet routed {} (shard sum {shard_sum})",
                f.arrivals
            )
        });
        out.check(p.stp.invalid == 0, || {
            format!(
                "pass {i}: {} STP answers outside the search space",
                p.stp.invalid
            )
        });
        let edp = f.run.edp_wall(idle_w);
        out.check(edp.is_finite() && edp > 0.0, || {
            format!("pass {i}: schedule EDP {edp} is not finite and positive")
        });
        out.check(pass_digest(p) == first, || {
            format!("pass {i}: simulated outcome or counts differ from pass 0")
        });
    }

    // End-to-end figures from the untraced passes.
    let f0 = &untraced[0].fleet;
    let per_pass_failed = f0.report.config_fallbacks
        + f0.report.solo_fallbacks
        + untraced[0].stp.invalid
        + untraced[0].stp.errors;
    out.attempted = n * untraced.len() as u64;
    out.failed = per_pass_failed * untraced.len() as u64;
    let throughput: Vec<f64> = untraced.iter().map(|p| n as f64 / p.wall_s).collect();
    let latency_ms: Vec<f64> = untraced.iter().flat_map(|p| p.latency_ms(tech)).collect();
    eprintln!(
        "[e2ebench] {} passes of {n} arrivals; {} decision-latency samples ({} beyond p99); {} epoch barriers per pass",
        untraced.len(),
        latency_ms.len(),
        beyond(latency_ms.len(), 0.99),
        f0.epochs
    );
    if openers.len() + 1 != f0.epochs as usize {
        eprintln!(
            "[e2ebench] warning: {} epoch openers in the trace but the fleet ran {} barriers",
            openers.len(),
            f0.epochs
        );
    }
    if !args.trace {
        let edp = f0.run.edp_wall(idle_w);
        report_end_to_end(&mut out, &setups, &throughput, &latency_ms, edp);
        return Ok((out, spans));
    }

    // Per-layer figures from the traced passes. Times come from the pass
    // with the median fleet wall, so its parts add up to its whole.
    let walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let mid = &traced[median_index(&walls)];
    let fleet_wall = mid.wall_s;
    let stp_busy: f64 = mid
        .stp
        .times
        .iter()
        .map(|(s, e)| (*e - *s).as_secs_f64())
        .sum();
    let sim_s = mid.fleet.stats.wall_seconds;
    let sched_self = fleet_wall - stp_busy - sim_s;
    let choose_us: Vec<f64> = traced
        .iter()
        .flat_map(|p| {
            p.stp
                .times
                .iter()
                .map(|(s, e)| (*e - *s).as_secs_f64() * 1e6)
        })
        .collect();
    for p in &traced {
        let parent = spans.push(
            "fleet.run_fleet",
            None,
            p.start,
            p.end,
            vec![("arrivals", n as f64), ("epochs", p.fleet.epochs as f64)],
        );
        for (s, e) in &p.stp.times {
            spans.push("stp.choose", Some(parent), *s, *e, Vec::new());
        }
    }
    let stats = &mid.fleet.stats;
    let traced_thr: Vec<f64> = traced.iter().map(|p| n as f64 / p.wall_s).collect();
    eprintln!(
        "[e2ebench] reconciliation: fleet.wall_s {fleet_wall:.6} = stp.busy_s {stp_busy:.6} + engine.sim_s {sim_s:.6} + scheduler.self_s (residual) {sched_self:.6}"
    );
    out.metric("fleet.wall_s", fleet_wall, "s");
    out.metric("fleet.epochs", mid.fleet.epochs as f64, "count");
    out.metric(
        "fleet.peak_epoch_arrivals",
        mid.fleet.peak_epoch_arrivals as f64,
        "count",
    );
    out.metric("scheduler.self_s", sched_self, "s");
    out.metric(
        "scheduler.us_per_arrival",
        sched_self / n as f64 * 1e6,
        "us",
    );
    out.metric(
        "scheduler.config_fallbacks",
        mid.fleet.report.config_fallbacks as f64,
        "count",
    );
    out.metric(
        "scheduler.solo_fallbacks",
        mid.fleet.report.solo_fallbacks as f64,
        "count",
    );
    out.metric("stp.calls", mid.stp.calls as f64, "count");
    out.metric("stp.busy_s", stp_busy, "s");
    out.metric("stp.share", stp_busy / fleet_wall, "fraction");
    out.metric(
        "stp.choose_p50_us",
        quantile(&choose_us, 0.5).unwrap_or(0.0),
        "us",
    );
    out.metric(
        "stp.choose_p99_us",
        quantile(&choose_us, 0.99).unwrap_or(0.0),
        "us",
    );
    report_engine_counts(&mut out, stats);
    out.metric("engine.sim_s", sim_s, "s");
    out.metric(
        "engine.us_per_run",
        sim_s / stats.runs_simulated.max(1) as f64 * 1e6,
        "us",
    );
    out.metric(
        "engine.sims_per_s",
        stats.runs_simulated as f64 / sim_s,
        "1/s",
    );
    for name in [
        "engine.hit_ms_p50",
        "engine.miss_ms_p50",
        "engine.miss_ms_p99",
    ] {
        out.metric(name, 0.0, "ms");
    }
    crate::service_wl::absent_service_metrics(&mut out);
    out.metric(
        "setup.inputs_s",
        setup_median(&setups, SetupTimes::inputs_s),
        "s",
    );
    out.metric(
        "setup.db_build_s",
        setup_median(&setups, SetupTimes::db_build_s),
        "s",
    );
    out.metric(
        "setup.train_s",
        setup_median(&setups, SetupTimes::train_s),
        "s",
    );
    report_trace_overhead(&mut out, &traced_thr, &throughput);
    Ok((out, spans))
}

/// Per-layer figures of the fleet, scheduler and STP layers, for the
/// workload that does not run them.
pub fn absent_trace_metrics(out: &mut Outcome) {
    for (name, unit) in [
        ("fleet.wall_s", "s"),
        ("fleet.epochs", "count"),
        ("fleet.peak_epoch_arrivals", "count"),
        ("scheduler.self_s", "s"),
        ("scheduler.us_per_arrival", "us"),
        ("scheduler.config_fallbacks", "count"),
        ("scheduler.solo_fallbacks", "count"),
        ("stp.calls", "count"),
        ("stp.busy_s", "s"),
        ("stp.share", "fraction"),
        ("stp.choose_p50_us", "us"),
        ("stp.choose_p99_us", "us"),
    ] {
        out.metric(name, 0.0, unit);
    }
}
