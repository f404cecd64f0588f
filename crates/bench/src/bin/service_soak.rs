//! Seeded scenario-matrix soak of the concurrent tuning service.
//!
//! Drives [`TuningService`] from multiple real worker threads through a
//! matrix of scenarios — service limit profiles × injected fault specs —
//! over one fixed, seeded request schedule, and proves three things:
//!
//! * **Determinism under concurrency** — every cell's outcome
//!   fingerprint (an FNV fold of each request's tier/config/error in
//!   sequence order) and every service counter is byte-identical across
//!   runs; CI runs the bin twice and diffs `results/service.json`.
//! * **Bounded concurrency** — the observed peak of in-flight real
//!   engine evaluations never exceeds the configured limit (the bin
//!   fails otherwise).
//! * **Service ≡ direct** — a zero-fault, no-limit serviced stream run
//!   ([`run_stream`] with [`Decisions::Serviced`] and
//!   [`ServiceConfig::unlimited`]) is bit-identical to the direct
//!   [`Decisions::Ecost`] run, and an eligible-window sweep exercises the
//!   [`OpenOptions`] runtime knob.
//!
//! Outputs:
//!
//! * `results/service.json` — fully deterministic document (no
//!   wall-clock fields).
//! * one `BENCH_trend.jsonl` row (schema `ecost-bench-trend/1`, arms
//!   `"service"`) carrying `service_decisions_per_s`, gated by
//!   `trend_check`.
//!
//! `ECOST_QUICK=1` shrinks the matrix for CI smoke runs.

use ecost_apps::App;
use ecost_bench::harness::{Ctx, SEED};
use ecost_bench::BenchError;
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::EvalEngine;
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions, StreamRun};
use ecost_core::pairing::{PairingMode, PairingPolicy};
use ecost_core::stp::LktStp;
use ecost_core::{
    EcostContext, ServiceConfig, ServiceReport, TuningDecision, TuningRequest, TuningService,
};
use ecost_sim::{rng, ServiceFaultSpec};
use rand::Rng as _;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Apps in the soak mix. Small on purpose: input sizes are quantized
/// too, so the engine's memoized sweeps amortize across the matrix and
/// the bin measures the service layer, not fresh simulations.
const APPS: [App; 2] = [App::Wc, App::St];

/// Quantized request input sizes, MB.
const SIZES: [f64; 2] = [256.0, 1024.0];

/// Real worker threads driving each service cell.
const WORKERS: usize = 4;

/// One admission-limit profile of the matrix.
struct LimitsSpec {
    name: &'static str,
    max_inflight: Option<usize>,
    max_queue: Option<usize>,
    deadline_s: f64,
}

const LIMITS: [LimitsSpec; 4] = [
    LimitsSpec {
        name: "unbounded",
        max_inflight: None,
        max_queue: None,
        deadline_s: f64::INFINITY,
    },
    LimitsSpec {
        name: "tight",
        max_inflight: Some(2),
        max_queue: Some(4),
        deadline_s: 30.0,
    },
    LimitsSpec {
        name: "shedding",
        max_inflight: Some(1),
        max_queue: Some(0),
        deadline_s: 10.0,
    },
    // Deep queue + tight budget: queue wait alone can blow the deadline,
    // exercising the DeadlineExceeded path inside the matrix.
    LimitsSpec {
        name: "strict_deadline",
        max_inflight: Some(2),
        max_queue: Some(16),
        deadline_s: 8.0,
    },
];

/// One injected-fault profile of the matrix.
struct FaultsDef {
    name: &'static str,
    transient_rate: f64,
    transient_burst: u32,
    slow_rate: f64,
    slow_factor: f64,
}

const FAULTS: [FaultsDef; 4] = [
    FaultsDef {
        name: "healthy",
        transient_rate: 0.0,
        transient_burst: 0,
        slow_rate: 0.0,
        slow_factor: 1.0,
    },
    // Bursts of 2 sit inside the 2-retry budget: cured, never failing.
    FaultsDef {
        name: "transient_storm",
        transient_rate: 0.5,
        transient_burst: 2,
        slow_rate: 0.0,
        slow_factor: 1.0,
    },
    // Bursts of 8 exhaust the retries: tier failures, breaker trips.
    FaultsDef {
        name: "burst_exhaust",
        transient_rate: 0.3,
        transient_burst: 8,
        slow_rate: 0.0,
        slow_factor: 1.0,
    },
    // Slow evaluations inflate tier costs 8× against the deadline.
    FaultsDef {
        name: "slow_sim",
        transient_rate: 0.0,
        transient_burst: 0,
        slow_rate: 0.4,
        slow_factor: 8.0,
    },
];

/// The fixed, seeded request schedule every cell replays.
fn schedule(n: usize, deadline_s: f64) -> Vec<TuningRequest> {
    let mut r = rng::stream(SEED, "service.soak");
    let mut t = 0.0_f64;
    let mut reqs = Vec::with_capacity(n);
    for seq in 0..n as u64 {
        t += r.gen_range(0.2..3.0);
        let app = APPS[r.gen_range(0..APPS.len())];
        let mb = SIZES[r.gen_range(0..SIZES.len())];
        let req = if r.gen_range(0.0..1.0) < 0.5 {
            let partner = APPS[r.gen_range(0..APPS.len())];
            let pmb = SIZES[r.gen_range(0..SIZES.len())];
            TuningRequest::pair(seq, t, deadline_s, (app, mb), (partner, pmb))
        } else {
            TuningRequest::solo(seq, t, deadline_s, app, mb)
        };
        reqs.push(req);
    }
    reqs
}

/// FNV-1a fold of a cell's per-request outcomes, in sequence order.
fn fingerprint(outcomes: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for (seq, o) in outcomes.iter().enumerate() {
        for b in seq.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        for b in o.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Stable, fully deterministic encoding of one decision outcome.
fn outcome_str(out: &Result<TuningDecision, ecost_core::ServiceError>) -> String {
    match out {
        Ok(d) => format!(
            "{}|{:?}|deg={}|q={}|s={}|r={}|sc={}",
            d.tier.name(),
            d.config,
            d.degraded,
            d.queued_s.to_bits(),
            d.service_s.to_bits(),
            d.retries,
            d.breaker_short_circuit
        ),
        Err(e) => format!("err:{e:?}"),
    }
}

/// Outcome of one matrix cell.
struct CellOut {
    limits: &'static str,
    faults: &'static str,
    fingerprint: u64,
    report: ServiceReport,
    p50_s: Option<f64>,
    p99_s: Option<f64>,
    inflight_peak: usize,
    wall_s: f64,
}

impl CellOut {
    fn json(&self) -> String {
        let mut s = String::new();
        let r = &self.report;
        let _ = write!(
            s,
            "    {{\"limits\": \"{}\", \"faults\": \"{}\", \"fingerprint\": \"{:016x}\", ",
            self.limits, self.faults, self.fingerprint
        );
        let _ = write!(
            s,
            "\"decided\": {}, \"shed\": {}, \"deadline_exceeded\": {}, ",
            r.decided, r.shed, r.deadline_exceeded
        );
        let _ = write!(
            s,
            "\"tier_full\": {}, \"tier_windowed\": {}, \"tier_fallback\": {}, ",
            r.tier_full, r.tier_windowed, r.tier_fallback
        );
        let _ = write!(
            s,
            "\"retries\": {}, \"tier_failures\": {}, \"breaker_trips\": {}, \
             \"breaker_short_circuits\": {}, \"engine_fallbacks\": {}, \"queue_peak\": {}, ",
            r.retries,
            r.tier_failures,
            r.breaker_trips,
            r.breaker_short_circuits,
            r.engine_fallbacks,
            r.queue_peak
        );
        let _ = write!(
            s,
            "\"decision_time_s\": {:.6}, \"p50_s\": {}, \"p99_s\": {}}}",
            r.decision_time_s,
            json_num(self.p50_s),
            json_num(self.p99_s)
        );
        s
    }
}

/// Finite number or `null` (quantiles can be absent or overflow).
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.6}"),
        _ => "null".into(),
    }
}

/// Drive one (limits × faults) cell from `WORKERS` threads.
fn run_cell(
    engine: &EvalEngine,
    limits: &LimitsSpec,
    faults: &FaultsDef,
    requests: &[TuningRequest],
) -> Result<CellOut, BenchError> {
    let cfg = ServiceConfig {
        max_inflight: limits.max_inflight,
        max_queue: limits.max_queue,
        deadline_s: limits.deadline_s,
        ..ServiceConfig::default()
    };
    let spec = ServiceFaultSpec {
        transient_rate: faults.transient_rate,
        transient_burst: faults.transient_burst,
        slow_rate: faults.slow_rate,
        slow_factor: faults.slow_factor,
        seed: SEED,
    };
    let svc = TuningService::new(engine, cfg, spec)
        .map_err(|e| BenchError::Invalid(format!("service construction: {e}")))?;
    let outcomes = Mutex::new(vec![String::new(); requests.len()]);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = requests.get(i) else { break };
                let out = svc.decide(req);
                let s = outcome_str(&out);
                if let Ok(mut slots) = outcomes.lock() {
                    slots[i] = s;
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let outcomes = outcomes
        .into_inner()
        .map_err(|_| BenchError::Invalid("soak worker panicked".into()))?;
    let peak = svc.inflight_peak();
    if let Some(limit) = limits.max_inflight {
        if peak > limit {
            return Err(BenchError::Invalid(format!(
                "cell {}x{}: in-flight peak {peak} exceeds the configured limit {limit}",
                limits.name, faults.name
            )));
        }
    }
    Ok(CellOut {
        limits: limits.name,
        faults: faults.name,
        fingerprint: fingerprint(&outcomes),
        report: svc.report(),
        p50_s: svc.latency_quantile(0.5),
        p99_s: svc.latency_quantile(0.99),
        inflight_peak: peak,
        wall_s,
    })
}

/// Open-stream arrivals for the streaming cells, from the same seeded
/// generator family as the service schedule.
fn arrival_stream(n: usize) -> Vec<OpenArrival> {
    let mut r = rng::stream(SEED, "service.soak.stream");
    let mut t = 0.0_f64;
    (0..n)
        .map(|_| {
            t += r.gen_range(5.0..40.0);
            OpenArrival {
                app: APPS[r.gen_range(0..APPS.len())],
                input_mb: SIZES[r.gen_range(0..SIZES.len())],
                at_s: t,
            }
        })
        .collect()
}

fn run() -> Result<(), BenchError> {
    let quick = std::env::var("ECOST_QUICK").is_ok_and(|v| v == "1");
    let (n_requests, n_stream, nodes) = if quick { (64, 24, 2) } else { (256, 96, 4) };

    // ------------------------------------------------------------------
    // Phase 1: the (limits × faults) service matrix, multi-threaded.
    // ------------------------------------------------------------------
    eprintln!(
        "[service_soak] matrix: {} limit profiles × {} fault specs × {} requests on {} threads…",
        LIMITS.len(),
        FAULTS.len(),
        n_requests,
        WORKERS
    );
    let engine = EvalEngine::atom();
    let mut cells = Vec::new();
    let mut total_decided = 0u64;
    let mut matrix_wall_s = 0.0;
    for limits in &LIMITS {
        let requests = schedule(n_requests, limits.deadline_s);
        for faults in &FAULTS {
            let cell = run_cell(&engine, limits, faults, &requests)?;
            total_decided += cell.report.decided + cell.report.shed + cell.report.deadline_exceeded;
            matrix_wall_s += cell.wall_s;
            eprintln!(
                "[service_soak]   {}×{}: decided {} shed {} deadline {} trips {} peak {}",
                cell.limits,
                cell.faults,
                cell.report.decided,
                cell.report.shed,
                cell.report.deadline_exceeded,
                cell.report.breaker_trips,
                cell.inflight_peak
            );
            cells.push(cell);
        }
    }
    let decisions_per_s = total_decided as f64 / matrix_wall_s.max(1e-9);

    // ------------------------------------------------------------------
    // Phase 2: serviced streaming vs the direct calendar driver.
    // ------------------------------------------------------------------
    eprintln!("[service_soak] streaming identity: building the configuration database…");
    let db_engine = EvalEngine::atom();
    let db = ConfigDatabase::build_subset(
        &db_engine,
        &APPS,
        &[ecost_apps::InputSize::Small],
        0.0,
        SEED,
    )?;
    let classifier = RuleClassifier::fit(&db.signatures);
    let lkt = LktStp::from_database(&db);
    let pairing = PairingPolicy::default();
    let cx = EcostContext {
        db: &db,
        stp: &lkt,
        classifier: &classifier,
        pairing: &pairing,
        noise: 0.0,
        seed: SEED,
        pairing_mode: PairingMode::DecisionTree,
    };
    let setup = FaultSetup::default();
    let stream = arrival_stream(n_stream);

    let eng_direct = EvalEngine::atom();
    let direct = run_stream(
        &eng_direct,
        nodes,
        &stream,
        Decisions::Ecost(&cx),
        OpenOptions::default(),
        &setup,
    )?;
    let eng_serviced = EvalEngine::atom();
    let decisions = Decisions::Serviced {
        ctx: &cx,
        config: ServiceConfig::unlimited(),
        faults: ServiceFaultSpec::healthy(SEED),
    };
    let serviced = run_stream(
        &eng_serviced,
        nodes,
        &stream,
        decisions,
        OpenOptions::default(),
        &setup,
    )?;
    let svc_report = serviced.service.clone().ok_or_else(|| {
        BenchError::Invalid("serviced stream run returned no service report".into())
    })?;
    let identical = bit_identical(&direct, &serviced);
    if !identical {
        return Err(BenchError::Invalid(format!(
            "unlimited serviced run diverged from the direct driver: \
             direct {:?} vs serviced {:?}",
            direct.run, serviced.run
        )));
    }
    if svc_report.tier_full != svc_report.decided || svc_report.shed != 0 {
        return Err(BenchError::Invalid(format!(
            "unlimited service should grant every decision a full sweep: {svc_report:?}"
        )));
    }

    // ------------------------------------------------------------------
    // Phase 3: the eligible-window runtime knob.
    // ------------------------------------------------------------------
    let mut window_arms = Vec::new();
    for window in [4usize, 64] {
        let eng = EvalEngine::atom();
        let opts = OpenOptions {
            max_head_skips: 2,
            eligible_window: window,
        };
        let out = run_stream(&eng, nodes, &stream, Decisions::Ecost(&cx), opts, &setup)?;
        window_arms.push((window, out));
    }

    // ------------------------------------------------------------------
    // Deterministic JSON document.
    // ------------------------------------------------------------------
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ecost-service-soak/1\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"requests_per_cell\": {n_requests},");
    let _ = writeln!(out, "  \"workers\": {WORKERS},");
    let _ = writeln!(out, "  \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(out, "{}{}", cell.json(), sep);
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"streaming\": {{");
    let _ = writeln!(out, "    \"nodes\": {nodes},");
    let _ = writeln!(out, "    \"arrivals\": {n_stream},");
    let _ = writeln!(out, "    \"serviced_bit_identical\": {identical},");
    let _ = writeln!(
        out,
        "    \"direct_makespan_s\": {:.6},",
        direct.run.makespan_s
    );
    let _ = writeln!(out, "    \"serviced_decisions\": {},", svc_report.decided);
    let _ = writeln!(out, "    \"eligible_window_sweep\": [");
    for (i, (window, arm)) in window_arms.iter().enumerate() {
        let sep = if i + 1 < window_arms.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{\"window\": {}, \"makespan_s\": {:.6}, \"energy_dyn_j\": {:.6}}}{}",
            window, arm.run.makespan_s, arm.run.energy_dyn_j, sep
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");

    let dir = Ctx::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("service.json");
    std::fs::write(&path, &out)?;
    println!("{out}");
    println!(
        "service_soak: {} cells × {} requests on {} threads — {:.0} decisions/s, \
         streaming identity {}",
        cells.len(),
        n_requests,
        WORKERS,
        decisions_per_s,
        if identical { "ok" } else { "FAILED" }
    );
    eprintln!("[service_soak] wrote {}", path.display());

    let trend_path = ecost_bench::append_trend_row(
        quick,
        "service",
        WORKERS,
        None,
        &[("service_decisions_per_s", decisions_per_s, 1)],
    )?;
    eprintln!("[service_soak] appended trend row to {trend_path}");
    Ok(())
}

/// Bit-level equality of two stream runs' schedules and fault reports
/// (float fields compared by their bit patterns, not `==`).
fn bit_identical(a: &StreamRun, b: &StreamRun) -> bool {
    a.run.makespan_s.to_bits() == b.run.makespan_s.to_bits()
        && a.run.energy_dyn_j.to_bits() == b.run.energy_dyn_j.to_bits()
        && a.run.nodes == b.run.nodes
        && a.report == b.report
}

fn main() -> ExitCode {
    ecost_bench::run_main("service_soak", run)
}
