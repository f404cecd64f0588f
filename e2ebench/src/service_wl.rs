//! `oracle_service`: one closed-loop client sends pair requests into
//! `TuningService::decide` under `ServiceConfig::default()`, on an engine
//! whose sweep memo holds fewer entries than the key set.

use crate::common::{
    fold_pair, report_end_to_end, report_engine_counts, report_trace_overhead, setup_median, since,
    valid_pair, Args, Outcome, SetupTimes, NOISE, PROGRAM_SEED,
};
use crate::spans::Spans;
use crate::trace_wl::absent_trace_metrics;
use ecost_core::{
    CacheBudget, ConfigDatabase, DecidedConfig, DecisionTier, EngineStats, EvalEngine,
    ServiceConfig, ServiceError, ServiceReport, TuningRequest, TuningService,
};
use ecost_e2ebench::inputs::{self, requests_digest, Digest, PairRequest, Rng};
use ecost_e2ebench::stats::{beyond, median_index, quantile};
use ecost_mapreduce::PairConfig;
use ecost_sim::ServiceFaultSpec;
use std::error::Error;
use std::time::Instant;

/// Full pair sweeps the service engine may hold (the key set has 198).
const SWEEP_BUDGET: usize = 64;
/// Fewest measured passes per run (traced runs: per mode).
const MIN_PASSES: usize = 3;
/// Oracle-checked requests per run: first sightings of a key, and repeats
/// (memo hits, or re-sweeps after an eviction).
const ORACLE_FIRST: usize = 4;
const ORACLE_REPEAT: usize = 8;

/// What one request came back with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    /// A pair configuration, with the tier that produced it.
    Decided {
        config: PairConfig,
        tier: DecisionTier,
        degraded: bool,
    },
    Shed,
    DeadlineExceeded,
    /// Any other outcome: a solo answer to a pair request, or an error.
    Other,
}

impl Answer {
    /// Answered with a configuration tuned by a full sweep.
    fn tuned(&self) -> bool {
        matches!(
            self,
            Answer::Decided {
                tier: DecisionTier::FullSweep,
                degraded: false,
                ..
            }
        )
    }
}

/// Engine-counter movement during one `decide` call (traced passes).
#[derive(Debug, Clone, Copy)]
struct CallTrace {
    start: Instant,
    end: Instant,
    hits: u64,
    misses: u64,
    runs: u64,
    sim_s: f64,
}

/// One pass: a fresh engine warmed by the database build, then every
/// request in sequence.
struct Pass {
    setup: SetupTimes,
    wall_s: f64,
    latency_s: Vec<f64>,
    answers: Vec<Answer>,
    report: ServiceReport,
    before: EngineStats,
    after: EngineStats,
    calls: Vec<CallTrace>,
}

fn delta(a: &EngineStats, b: &EngineStats) -> EngineStats {
    EngineStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        runs_simulated: b.runs_simulated - a.runs_simulated,
        wall_seconds: b.wall_seconds - a.wall_seconds,
        faults_injected: b.faults_injected - a.faults_injected,
        retries: b.retries - a.retries,
        fallbacks: b.fallbacks - a.fallbacks,
        sims_created: b.sims_created - a.sims_created,
        sims_reused: b.sims_reused - a.sims_reused,
        evictions: b.evictions - a.evictions,
    }
}

fn pass(
    seed: u64,
    traced: bool,
    from: Instant,
) -> Result<(Pass, Vec<PairRequest>), Box<dyn Error>> {
    let t0 = Instant::now();
    let reqs = inputs::requests(seed, &inputs::request_shape());
    let t1 = Instant::now();
    let engine = EvalEngine::atom().with_cache_budget(CacheBudget {
        sweeps: Some(SWEEP_BUDGET),
        ..CacheBudget::unbounded()
    });
    // A deployed service has built its database on its own engine, which
    // leaves the training pairs' sweeps resident.
    ConfigDatabase::build(&engine, NOISE, PROGRAM_SEED)?;
    let t2 = Instant::now();
    let config = ServiceConfig::default();
    let deadline_s = config.deadline_s;
    let svc = TuningService::new(&engine, config, ServiceFaultSpec::healthy(PROGRAM_SEED))?;
    let setup = SetupTimes {
        from,
        marks: [t0, t1, t2, Instant::now()],
    };

    let mut latency_s = Vec::with_capacity(reqs.len());
    let mut answers = Vec::with_capacity(reqs.len());
    let mut calls = Vec::with_capacity(if traced { reqs.len() } else { 0 });
    let before = engine.stats();
    let start = Instant::now();
    for (seq, r) in reqs.iter().enumerate() {
        let mb = r.size.per_node_mb();
        let req = TuningRequest::pair(
            seq as u64,
            r.submit_t_s,
            deadline_s,
            (r.app, mb),
            (r.partner, mb),
        );
        let s0 = traced.then(|| engine.stats());
        let t = Instant::now();
        let res = svc.decide(&req);
        let end = Instant::now();
        latency_s.push((end - t).as_secs_f64());
        if let Some(s0) = s0 {
            let d = delta(&s0, &engine.stats());
            calls.push(CallTrace {
                start: t,
                end,
                hits: d.hits,
                misses: d.misses,
                runs: d.runs_simulated,
                sim_s: d.wall_seconds,
            });
        }
        answers.push(match res {
            Ok(d) => match d.config {
                DecidedConfig::Pair(config) => Answer::Decided {
                    config,
                    tier: d.tier,
                    degraded: d.degraded,
                },
                DecidedConfig::Solo(_) => Answer::Other,
            },
            Err(ServiceError::Overloaded { .. }) => Answer::Shed,
            Err(ServiceError::DeadlineExceeded { .. }) => Answer::DeadlineExceeded,
            Err(_) => Answer::Other,
        });
    }
    let wall_s = since(start);
    let after = engine.stats();
    Ok((
        Pass {
            setup,
            wall_s,
            latency_s,
            answers,
            report: svc.report(),
            before,
            after,
            calls,
        },
        reqs,
    ))
}

/// Digest of a pass's answers, service counters and engine counts.
fn pass_digest(p: &Pass) -> u64 {
    let mut d = Digest::default();
    for a in &p.answers {
        match a {
            Answer::Decided {
                config,
                tier,
                degraded,
            } => {
                d.word(1);
                fold_pair(&mut d, config);
                d.word(*tier as u64);
                d.word(u64::from(*degraded));
            }
            Answer::Shed => d.word(2),
            Answer::DeadlineExceeded => d.word(3),
            Answer::Other => d.word(4),
        }
    }
    let r = &p.report;
    for w in [
        r.decided,
        r.shed,
        r.deadline_exceeded,
        r.tier_full,
        r.tier_windowed,
        r.tier_fallback,
        r.engine_fallbacks,
    ] {
        d.word(w);
    }
    d.float(r.decision_time_s);
    let e = delta(&p.before, &p.after);
    for w in [e.hits, e.misses, e.evictions, e.runs_simulated] {
        d.word(w);
    }
    d.0
}

/// A seeded sample of request positions: first sightings of a key and
/// repeats of an earlier key.
fn oracle_sample(seed: u64, reqs: &[PairRequest]) -> Vec<usize> {
    let key = |r: &PairRequest| {
        let (a, b) = if r.app <= r.partner {
            (r.app, r.partner)
        } else {
            (r.partner, r.app)
        };
        (a, b, r.size)
    };
    let mut seen = std::collections::HashSet::new();
    let (mut first, mut repeat) = (Vec::new(), Vec::new());
    for (i, r) in reqs.iter().enumerate() {
        if seen.insert(key(r)) {
            first.push(i);
        } else {
            repeat.push(i);
        }
    }
    let mut rng = Rng::new(seed, 7);
    rng.shuffle(&mut first);
    rng.shuffle(&mut repeat);
    let mut pick: Vec<usize> = first
        .into_iter()
        .take(ORACLE_FIRST)
        .chain(repeat.into_iter().take(ORACLE_REPEAT))
        .collect();
    pick.sort_unstable();
    pick
}

/// Run the service workload and report its figures.
pub fn run(args: &Args, start: Instant) -> Result<(Outcome, Spans), Box<dyn Error>> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(start);

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut reqs;
    let t_measure = Instant::now();
    loop {
        let from = if untraced.is_empty() {
            start
        } else {
            Instant::now()
        };
        let (p, r) = pass(args.seed, false, from)?;
        eprintln!(
            "[e2ebench] pass {}: set-up {:.4} s, requests {:.4} s, {:.2} decisions/s",
            untraced.len(),
            p.setup.total_s(),
            p.wall_s,
            r.len() as f64 / p.wall_s
        );
        untraced.push(p);
        reqs = r;
        if args.trace {
            let (p, _) = pass(args.seed, true, Instant::now())?;
            traced.push(p);
        }
        let samples: usize = untraced.iter().map(|p| p.latency_s.len()).sum();
        if since(t_measure) >= args.seconds
            && untraced.len() >= MIN_PASSES
            && beyond(samples, 0.99) >= 10
        {
            break;
        }
    }
    let n = reqs.len() as u64;

    // Output checks.
    let digest0 = requests_digest(&reqs);
    out.check(
        digest0 == requests_digest(&inputs::requests(args.seed, &inputs::request_shape())),
        || "request generation is not deterministic".into(),
    );
    // The oracle: a fresh, unbounded engine; it also prices every
    // decision's EDP.
    let oracle = EvalEngine::atom();
    let cores = oracle.testbed().node.cores;
    let first = pass_digest(&untraced[0]);
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        let r = &p.report;
        out.check(r.decided + r.shed + r.deadline_exceeded == n, || {
            format!(
                "pass {i}: decided {} + shed {} + deadline-exceeded {} != {n} requests sent",
                r.decided, r.shed, r.deadline_exceeded
            )
        });
        out.check(pass_digest(p) == first, || {
            format!("pass {i}: answers or counts differ from pass 0")
        });
        for (seq, a) in p.answers.iter().enumerate() {
            if let Answer::Decided { config, .. } = a {
                out.check(valid_pair(config, cores), || {
                    format!("pass {i}: request {seq} got a configuration outside the search space")
                });
            }
        }
    }
    let idle_w = oracle.idle_w();
    let answers = &untraced[0].answers;
    for i in oracle_sample(args.seed, &reqs) {
        let r = &reqs[i];
        let mb = r.size.per_node_mb();
        let best = oracle.best_pair(r.app.profile(), mb, r.partner.profile(), mb)?;
        if let Answer::Decided { config, .. } = answers[i] {
            out.check(config == best.config, || {
                format!(
                    "request {i}: service decided {config:?}, the oracle's best is {:?}",
                    best.config
                )
            });
        }
    }
    let mut edp = 0.0;
    for (r, a) in reqs.iter().zip(answers) {
        if let Answer::Decided { config, .. } = a {
            let mb = r.size.per_node_mb();
            edp += oracle
                .pair_metrics(r.app.profile(), mb, r.partner.profile(), mb, *config)?
                .edp_wall(idle_w);
        }
    }
    out.check(edp.is_finite() && edp > 0.0, || {
        format!("summed EDP {edp} is not finite and positive")
    });

    let tuned = answers.iter().filter(|a| a.tuned()).count() as u64;
    out.attempted = n * untraced.len() as u64;
    out.failed = (n - tuned) * untraced.len() as u64;
    let setups: Vec<SetupTimes> = untraced.iter().map(|p| p.setup).collect();
    let throughput: Vec<f64> = untraced.iter().map(|p| n as f64 / p.wall_s).collect();
    let latency_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.latency_s.iter().map(|s| s * 1e3))
        .collect();
    let d0 = delta(&untraced[0].before, &untraced[0].after);
    eprintln!(
        "[e2ebench] {} passes of {n} requests; {} decision-latency samples ({} beyond p99); misses {} of {n} per pass",
        untraced.len(),
        latency_ms.len(),
        beyond(latency_ms.len(), 0.99),
        d0.misses
    );
    if !args.trace {
        report_end_to_end(&mut out, &setups, &throughput, &latency_ms, edp);
        return Ok((out, spans));
    }

    // Per-layer figures from the traced passes; times from the pass with the
    // median request-phase wall.
    for p in &setups {
        p.record(&mut spans);
    }
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut overhead_us = Vec::new();
    for p in &traced {
        for (seq, c) in p.calls.iter().enumerate() {
            let secs = (c.end - c.start).as_secs_f64();
            if c.misses > 0 {
                miss_ms.push(secs * 1e3);
            } else {
                hit_ms.push(secs * 1e3);
            }
            overhead_us.push((secs - c.sim_s) * 1e6);
            spans.push(
                "service.decide",
                None,
                c.start,
                c.end,
                vec![
                    ("seq", seq as f64),
                    ("engine.hits", c.hits as f64),
                    ("engine.misses", c.misses as f64),
                    ("engine.runs", c.runs as f64),
                    ("engine.sim_s", c.sim_s),
                ],
            );
        }
    }
    let walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let mid = &traced[median_index(&walls)];
    let d = delta(&mid.before, &mid.after);
    let r = &mid.report;
    let degraded = mid
        .answers
        .iter()
        .filter(|a| matches!(a, Answer::Decided { degraded: true, .. }))
        .count();
    let traced_thr: Vec<f64> = traced.iter().map(|p| n as f64 / p.wall_s).collect();
    eprintln!(
        "[e2ebench] request phase {:.6} s: engine.sim_s {:.6} ({:.3} of the wall); miss share {:.3}",
        mid.wall_s,
        d.wall_seconds,
        d.wall_seconds / mid.wall_s,
        d.misses as f64 / n as f64
    );
    absent_trace_metrics(&mut out);
    report_engine_counts(&mut out, &d);
    out.metric("engine.sim_s", d.wall_seconds, "s");
    out.metric(
        "engine.us_per_run",
        d.wall_seconds / d.runs_simulated.max(1) as f64 * 1e6,
        "us",
    );
    out.metric(
        "engine.sims_per_s",
        d.runs_simulated as f64 / d.wall_seconds,
        "1/s",
    );
    out.metric(
        "engine.hit_ms_p50",
        quantile(&hit_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "engine.miss_ms_p50",
        quantile(&miss_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "engine.miss_ms_p99",
        quantile(&miss_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    out.metric("service.decided", r.decided as f64, "count");
    out.metric("service.shed", r.shed as f64, "count");
    out.metric(
        "service.deadline_exceeded",
        r.deadline_exceeded as f64,
        "count",
    );
    out.metric("service.tier_full", r.tier_full as f64, "count");
    out.metric("service.tier_windowed", r.tier_windowed as f64, "count");
    out.metric("service.tier_fallback", r.tier_fallback as f64, "count");
    out.metric("service.degraded", degraded as f64, "count");
    out.metric(
        "service.overhead_us_p50",
        quantile(&overhead_us, 0.5).unwrap_or(0.0),
        "us",
    );
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
    out.metric("setup.train_s", 0.0, "s");
    report_trace_overhead(&mut out, &traced_thr, &throughput);
    Ok((out, spans))
}

/// Per-layer figures of the service layer, for the workloads that do not
/// run it.
pub fn absent_service_metrics(out: &mut Outcome) {
    for name in [
        "service.decided",
        "service.shed",
        "service.deadline_exceeded",
        "service.tier_full",
        "service.tier_windowed",
        "service.tier_fallback",
        "service.degraded",
    ] {
        out.metric(name, 0.0, "count");
    }
    out.metric("service.overhead_us_p50", 0.0, "us");
}
