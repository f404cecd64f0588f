//! Trace-driven scale-out bench for the open-cluster scheduler.
//!
//! Replays a seeded Alibaba-style synthetic trace (phased Poisson
//! arrivals, Zipf app mix, bounded-Pareto input sizes — see
//! `ecost_sim::arrivals`) against a simulated cluster through the
//! event-calendar streaming driver, in two arms:
//!
//! * **untuned** — FIFO partners, half-node Hadoop defaults;
//! * **ecost** — the full pipeline (profile → classify → pair → tune)
//!   backed by a pre-built configuration database;
//! * **serviced** (`--serviced`) — the same pipeline behind the tuning
//!   service front (admission, deadlines, circuit breaker) with a
//!   healthy fault spec, to measure the service ladder's overhead.
//!
//! Both arms run on a *capacity-bounded* engine ([`CacheBudget`]): every
//! arrival carries its own continuous input size, so an unbounded memo
//! would grow with arrival history. The bin fails (non-zero exit) if the
//! resident entry count ever ends above the configured budget or if the
//! replay was too small to force evictions — the bench exists to prove
//! bounded-memory streaming, not just to time it.
//!
//! Outputs:
//!
//! * `results/scale_out.json` — fully deterministic document (no
//!   wall-clock fields); CI replays the same seed twice and byte-diffs it.
//! * one `BENCH_trend.jsonl` row (schema `ecost-bench-trend/1`, arms
//!   `"scale"`) carrying `scale_decisions_per_s`, gated by `trend_check`.
//!
//! `ECOST_QUICK=1` shrinks the replay for CI smoke runs (100 nodes /
//! 100k arrivals); the full mode runs 1000 nodes / 250k arrivals.

use ecost_apps::App;
use ecost_bench::harness::{Ctx, SEED};
use ecost_bench::BenchError;
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::{EngineStats, EvalEngine};
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions, StreamRun};
use ecost_core::pairing::{PairingMode, PairingPolicy};
use ecost_core::stp::LktStp;
use ecost_core::{CacheBudget, EcostContext, ServiceConfig};
use ecost_sim::arrivals::generate;
use ecost_sim::ServiceFaultSpec;
use ecost_sim::TraceSpec;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Replay geometry: cluster size, arrival count, per-table cache budget,
/// trace peak arrival rate.
struct Scale {
    nodes: usize,
    arrivals: usize,
    budget: usize,
    peak_rate_per_s: f64,
}

impl Scale {
    fn new(quick: bool) -> Scale {
        if quick {
            Scale {
                nodes: 100,
                arrivals: 100_000,
                budget: 4096,
                peak_rate_per_s: 4.0,
            }
        } else {
            Scale {
                nodes: 1000,
                arrivals: 250_000,
                budget: 4096,
                peak_rate_per_s: 40.0,
            }
        }
    }
}

/// The app catalog the trace's Zipf ranks map onto — one application per
/// broad resource class, so the mix exercises every pairing rule.
const CATALOG: [App; 4] = [App::Wc, App::St, App::Gp, App::Fp];

/// One measured arm of the replay.
struct ArmOut {
    name: &'static str,
    run: StreamRun,
    stats: EngineStats,
    entries: usize,
    wall_s: f64,
}

impl ArmOut {
    /// Deterministic JSON fragment — decisions and counters only, no
    /// wall-clock fields (those go to stdout and the trend row).
    fn json(&self, idle_w: f64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "  \"{}\": {{", self.name);
        let _ = writeln!(s, "    \"makespan_s\": {:.6},", self.run.run.makespan_s);
        let _ = writeln!(s, "    \"energy_dyn_j\": {:.6},", self.run.run.energy_dyn_j);
        let _ = writeln!(s, "    \"edp_wall\": {:.6},", self.run.run.edp_wall(idle_w));
        let r = &self.run.report;
        let _ = writeln!(s, "    \"solo_fallbacks\": {},", r.solo_fallbacks);
        let _ = writeln!(s, "    \"config_fallbacks\": {},", r.config_fallbacks);
        let _ = writeln!(s, "    \"cache\": {{");
        let _ = writeln!(s, "      \"entries\": {},", self.entries);
        let _ = writeln!(s, "      \"hits\": {},", self.stats.hits);
        let _ = writeln!(s, "      \"misses\": {},", self.stats.misses);
        let _ = writeln!(s, "      \"evictions\": {}", self.stats.evictions);
        let _ = writeln!(s, "    }},");
        let _ = writeln!(s, "    \"engine\": {{");
        let _ = writeln!(s, "      \"fallbacks\": {},", self.stats.fallbacks);
        let _ = writeln!(s, "      \"retries\": {},", self.stats.retries);
        let _ = writeln!(
            s,
            "      \"faults_injected\": {}",
            self.stats.faults_injected
        );
        if let Some(svc) = &self.run.service {
            let _ = writeln!(s, "    }},");
            let _ = writeln!(s, "    \"service\": {{");
            let _ = writeln!(s, "      \"decided\": {},", svc.decided);
            let _ = writeln!(s, "      \"shed\": {},", svc.shed);
            let _ = writeln!(s, "      \"deadline_exceeded\": {},", svc.deadline_exceeded);
            let _ = writeln!(s, "      \"tier_full\": {},", svc.tier_full);
            let _ = writeln!(s, "      \"tier_windowed\": {},", svc.tier_windowed);
            let _ = writeln!(s, "      \"tier_fallback\": {},", svc.tier_fallback);
            let _ = writeln!(s, "      \"breaker_trips\": {},", svc.breaker_trips);
            let _ = writeln!(s, "      \"queue_peak\": {},", svc.queue_peak);
            let _ = writeln!(s, "      \"decision_time_s\": {:.6}", svc.decision_time_s);
        }
        let _ = writeln!(s, "    }}");
        s.push_str("  }");
        s
    }
}

/// Enforce the bounded-memory contract on a finished arm.
fn check_bounds(arm: &ArmOut, budget: usize) -> Result<(), BenchError> {
    // `CacheBudget::entries(n)` caps each of the three tables at n.
    let cap = 3 * budget;
    if arm.entries > cap {
        return Err(BenchError::Invalid(format!(
            "{}: {} resident memo entries exceed the {} budget",
            arm.name, arm.entries, cap
        )));
    }
    if arm.stats.evictions == 0 {
        return Err(BenchError::Invalid(format!(
            "{}: replay never evicted — too small to exercise the bounded cache",
            arm.name
        )));
    }
    Ok(())
}

fn run() -> Result<(), BenchError> {
    let quick = std::env::var("ECOST_QUICK").is_ok_and(|v| v == "1");
    let serviced = std::env::args().skip(1).any(|a| a == "--serviced");
    let scale = Scale::new(quick);

    eprintln!(
        "[scale_out] generating trace: {} arrivals, {} apps, peak {}/s…",
        scale.arrivals,
        CATALOG.len(),
        scale.peak_rate_per_s
    );
    let spec = TraceSpec::alibaba_like(SEED, CATALOG.len(), scale.peak_rate_per_s);
    let trace = generate(&spec, scale.arrivals)?;
    let stream: Vec<OpenArrival> = trace
        .iter()
        .map(|a| OpenArrival {
            app: CATALOG[a.app.min(CATALOG.len() - 1)],
            input_mb: a.size_mb,
            at_s: a.at_s,
        })
        .collect();

    // Offline phase on its own unbounded engine: the database is a fixed
    // artifact; only the streaming engines carry the budget under test.
    eprintln!("[scale_out] building the configuration database…");
    let db_engine = EvalEngine::atom();
    let db = ConfigDatabase::build_subset(
        &db_engine,
        &CATALOG,
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
    let budget = CacheBudget::entries(scale.budget);

    eprintln!(
        "[scale_out] untuned arm: {} arrivals on {} nodes…",
        scale.arrivals, scale.nodes
    );
    let eng_u = EvalEngine::atom().with_cache_budget(budget);
    let t0 = Instant::now();
    let untuned = run_stream(
        &eng_u,
        scale.nodes,
        &stream,
        Decisions::Untuned,
        OpenOptions::default(),
        &setup,
    )?;
    let untuned = ArmOut {
        name: "untuned",
        run: untuned,
        stats: eng_u.stats(),
        entries: eng_u.cached_entries(),
        wall_s: t0.elapsed().as_secs_f64(),
    };

    eprintln!("[scale_out] ecost arm…");
    let eng_e = EvalEngine::atom().with_cache_budget(budget);
    let t0 = Instant::now();
    let ecost = run_stream(
        &eng_e,
        scale.nodes,
        &stream,
        Decisions::Ecost(&cx),
        OpenOptions::default(),
        &setup,
    )?;
    let ecost = ArmOut {
        name: "ecost",
        run: ecost,
        stats: eng_e.stats(),
        entries: eng_e.cached_entries(),
        wall_s: t0.elapsed().as_secs_f64(),
    };

    // Optional third arm (`--serviced`): the same ECoST pipeline behind
    // the tuning-service front (admission, deadlines, breaker) with a
    // healthy fault spec — measures the service ladder's overhead on the
    // same replay.
    let serviced_arm = if serviced {
        eprintln!("[scale_out] serviced arm…");
        let eng_s = EvalEngine::atom().with_cache_budget(budget);
        let t0 = Instant::now();
        let decisions = Decisions::Serviced {
            ctx: &cx,
            config: ServiceConfig::default(),
            faults: ServiceFaultSpec::healthy(SEED),
        };
        let run = run_stream(
            &eng_s,
            scale.nodes,
            &stream,
            decisions,
            OpenOptions::default(),
            &setup,
        )?;
        Some(ArmOut {
            name: "serviced",
            run,
            stats: eng_s.stats(),
            entries: eng_s.cached_entries(),
            wall_s: t0.elapsed().as_secs_f64(),
        })
    } else {
        None
    };

    check_bounds(&untuned, scale.budget)?;
    check_bounds(&ecost, scale.budget)?;
    if let Some(arm) = &serviced_arm {
        check_bounds(arm, scale.budget)?;
    }

    let idle_w = eng_e.idle_w();
    let edp_ratio = untuned.run.run.edp_wall(idle_w) / ecost.run.run.edp_wall(idle_w);
    // One decision per arrival: a placement (partner or solo) plus a
    // configuration choice, end to end through profile → classify → tune.
    let decisions_per_s = scale.arrivals as f64 / ecost.wall_s.max(1e-9);

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ecost-scale-out/1\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"nodes\": {},", scale.nodes);
    let _ = writeln!(out, "  \"arrivals\": {},", scale.arrivals);
    let _ = writeln!(out, "  \"trace_seed\": {SEED},");
    let _ = writeln!(out, "  \"cache_budget_per_table\": {},", scale.budget);
    // Dispatch visibility: the double-run diff catches a build whose
    // engines silently changed lane width or vector backend.
    let _ = writeln!(
        out,
        "  \"batch_lanes\": {},",
        ecost_mapreduce::MAX_BATCH_LANES
    );
    let _ = writeln!(
        out,
        "  \"simd_backend\": \"{}\",",
        eng_e.simd_backend().name()
    );
    let _ = writeln!(out, "{},", untuned.json(idle_w));
    let _ = writeln!(out, "{},", ecost.json(idle_w));
    if let Some(arm) = &serviced_arm {
        let _ = writeln!(out, "{},", arm.json(idle_w));
    }
    let _ = writeln!(out, "  \"edp_ratio_untuned_over_ecost\": {edp_ratio:.6}");
    out.push_str("}\n");

    let dir = Ctx::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("scale_out.json");
    std::fs::write(&path, &out)?;
    println!("{out}");
    println!(
        "scale_out: {} arrivals / {} nodes — {:.0} decisions/s (ecost wall {:.2}s, \
         untuned wall {:.2}s), EDP untuned/ecost {:.3}, \
         cache {} entries / {} evictions under budget {}",
        scale.arrivals,
        scale.nodes,
        decisions_per_s,
        ecost.wall_s,
        untuned.wall_s,
        edp_ratio,
        ecost.entries,
        ecost.stats.evictions,
        scale.budget
    );
    if let Some(arm) = &serviced_arm {
        if let Some(svc) = &arm.run.service {
            println!(
                "scale_out[serviced]: {} decided / {} shed / {} deadline-exceeded, \
                 queue peak {}, wall {:.2}s (plain ecost wall {:.2}s)",
                svc.decided,
                svc.shed,
                svc.deadline_exceeded,
                svc.queue_peak,
                arm.wall_s,
                ecost.wall_s
            );
        }
    }
    eprintln!("[scale_out] wrote {}", path.display());

    let trend_path = ecost_bench::append_trend_row(
        quick,
        "scale",
        rayon::current_num_threads(),
        None,
        &[("scale_decisions_per_s", decisions_per_s, 1)],
    )?;
    eprintln!("[scale_out] appended trend row to {trend_path}");
    Ok(())
}

fn main() -> ExitCode {
    ecost_bench::run_main("scale_out", run)
}
