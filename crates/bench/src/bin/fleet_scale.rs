//! Trace-driven scale bench for the sharded fleet layer.
//!
//! Replays a seeded Alibaba-style synthetic trace through
//! [`ecost_core::fleet::run_fleet`] — N independent calendar-scheduler
//! shards behind a deterministic arrival router — in two routing arms:
//!
//! * **rendezvous** — seeded rendezvous hashing on the behaviour class;
//! * **least_outstanding** — backlog-driven balancing off the per-shard
//!   gauges sampled at each epoch barrier.
//!
//! The trace is **never materialized**: [`TraceStream`] feeds arrivals to
//! the fleet one epoch at a time, so peak resident trace memory is the
//! densest epoch's batch (`peak_epoch_arrivals` in the output), not the
//! replay length — the bin fails if that footprint is not a small
//! fraction of the arrival count. Every shard engine runs under a
//! [`CacheBudget`]; the bin also fails if the replay never forced an
//! eviction (too small to prove bounded memory).
//!
//! Before the measured arms, the bin runtime-asserts the fleet's
//! single-shard identity contract on a trace prefix
//! ([`FleetRun::assert_single_shard_identity`]): a 1-shard fleet must be
//! bit-identical to the monolithic calendar driver, the way
//! `ServiceConfig::unlimited` callers assert serviced identity.
//!
//! Outputs:
//!
//! * `results/fleet.json` — fully deterministic document (no wall-clock
//!   fields; engine `wall_seconds` excluded); CI replays the same seed
//!   twice under different `RAYON_NUM_THREADS` and byte-diffs it.
//! * one `BENCH_trend.jsonl` row (schema `ecost-bench-trend/1`, arms
//!   `"fleet"`) carrying `fleet_decisions_per_s`, gated by `trend_check`.
//!
//! `ECOST_QUICK=1` shrinks the replay for CI smoke runs (4 shards × 25
//! nodes / 100k arrivals); the full mode runs 8 shards × 125 nodes / 1M
//! arrivals.

use ecost_apps::App;
use ecost_bench::harness::{Ctx, SEED};
use ecost_bench::BenchError;
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::EvalEngine;
use ecost_core::fleet::{run_fleet, FleetConfig, FleetRun, RoutePolicy};
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions};
use ecost_core::pairing::{PairingMode, PairingPolicy};
use ecost_core::stp::LktStp;
use ecost_core::{CacheBudget, EcostContext, Testbed};
use ecost_sim::arrivals::{TraceArrival, TraceStream};
use ecost_sim::TraceSpec;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Replay geometry: fleet shape, arrival count, per-table cache budget
/// per shard engine, trace peak arrival rate.
struct Scale {
    shards: usize,
    nodes_per_shard: usize,
    arrivals: usize,
    budget: usize,
    peak_rate_per_s: f64,
}

impl Scale {
    fn new(quick: bool) -> Scale {
        if quick {
            Scale {
                shards: 4,
                nodes_per_shard: 25,
                arrivals: 100_000,
                budget: 1024,
                peak_rate_per_s: 4.0,
            }
        } else {
            Scale {
                shards: 8,
                nodes_per_shard: 125,
                arrivals: 1_000_000,
                budget: 4096,
                peak_rate_per_s: 40.0,
            }
        }
    }
}

/// Arrivals the single-shard identity prologue replays (materialized —
/// the monolithic driver takes a slice; kept small and mode-independent
/// so the assert costs the same everywhere).
const IDENTITY_ARRIVALS: usize = 1_500;
const IDENTITY_NODES: usize = 10;

/// The app catalog the trace's Zipf ranks map onto — one application per
/// broad resource class, so the mix exercises every pairing rule.
const CATALOG: [App; 4] = [App::Wc, App::St, App::Gp, App::Fp];

fn to_open(a: TraceArrival) -> OpenArrival {
    OpenArrival {
        app: CATALOG[a.app.min(CATALOG.len() - 1)],
        input_mb: a.size_mb,
        at_s: a.at_s,
    }
}

/// One measured routing arm of the replay.
struct ArmOut {
    name: &'static str,
    fleet: FleetRun,
    wall_s: f64,
}

impl ArmOut {
    /// Deterministic JSON fragment — virtual-time results and counters
    /// only, no wall-clock fields (those go to stdout and the trend row;
    /// engine `wall_seconds` is deliberately excluded).
    fn json(&self, idle_w: f64) -> String {
        let mut s = String::new();
        let f = &self.fleet;
        let _ = writeln!(s, "  \"{}\": {{", self.name);
        let _ = writeln!(s, "    \"makespan_s\": {:.6},", f.run.makespan_s);
        let _ = writeln!(s, "    \"energy_dyn_j\": {:.6},", f.run.energy_dyn_j);
        let _ = writeln!(s, "    \"edp_wall\": {:.6},", f.run.edp_wall(idle_w));
        let _ = writeln!(s, "    \"epochs\": {},", f.epochs);
        let _ = writeln!(s, "    \"peak_epoch_arrivals\": {},", f.peak_epoch_arrivals);
        let r = &f.report;
        let _ = writeln!(s, "    \"solo_fallbacks\": {},", r.solo_fallbacks);
        let _ = writeln!(s, "    \"config_fallbacks\": {},", r.config_fallbacks);
        let _ = writeln!(s, "    \"engine\": {{");
        let _ = writeln!(s, "      \"hits\": {},", f.stats.hits);
        let _ = writeln!(s, "      \"misses\": {},", f.stats.misses);
        let _ = writeln!(s, "      \"evictions\": {},", f.stats.evictions);
        let _ = writeln!(s, "      \"fallbacks\": {},", f.stats.fallbacks);
        let _ = writeln!(s, "      \"retries\": {},", f.stats.retries);
        let _ = writeln!(s, "      \"faults_injected\": {}", f.stats.faults_injected);
        let _ = writeln!(s, "    }},");
        let shard_arrivals: Vec<String> = f.shards.iter().map(|s| s.arrivals.to_string()).collect();
        let _ = writeln!(s, "    \"shard_arrivals\": [{}]", shard_arrivals.join(", "));
        s.push_str("  }");
        s
    }
}

/// Enforce the streaming-memory contract on a finished arm: the resident
/// trace footprint must be epoch-sized, not trace-sized, and the shard
/// engines' bounded caches must actually have been exercised.
fn check_bounds(arm: &ArmOut, arrivals: usize) -> Result<(), BenchError> {
    if arm.fleet.arrivals != arrivals as u64 {
        return Err(BenchError::Invalid(format!(
            "{}: routed {} arrivals, expected {}",
            arm.name, arm.fleet.arrivals, arrivals
        )));
    }
    if arm.fleet.peak_epoch_arrivals >= arrivals / 10 {
        return Err(BenchError::Invalid(format!(
            "{}: peak epoch batch {} is not small against {} arrivals — \
             the replay is not streaming",
            arm.name, arm.fleet.peak_epoch_arrivals, arrivals
        )));
    }
    if arm.fleet.stats.evictions == 0 {
        return Err(BenchError::Invalid(format!(
            "{}: replay never evicted — too small to exercise the bounded shard caches",
            arm.name
        )));
    }
    Ok(())
}

fn run() -> Result<(), BenchError> {
    let quick = std::env::var("ECOST_QUICK").is_ok_and(|v| v == "1");
    let scale = Scale::new(quick);
    let spec = TraceSpec::alibaba_like(SEED, CATALOG.len(), scale.peak_rate_per_s);
    let tb = Testbed::atom();

    // Offline phase on its own unbounded engine: the database is a fixed
    // artifact; only the streaming shard engines carry the budget.
    eprintln!("[fleet_scale] building the configuration database…");
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

    // Single-shard identity prologue: a 1-shard fleet on a trace prefix
    // must be bit-identical to `run_stream` on the same prefix.
    eprintln!("[fleet_scale] asserting single-shard identity on {IDENTITY_ARRIVALS} arrivals…");
    let prefix: Vec<OpenArrival> = TraceStream::new(&spec)?
        .take(IDENTITY_ARRIVALS)
        .map(to_open)
        .collect();
    let mono_engine = EvalEngine::atom();
    let mono = run_stream(
        &mono_engine,
        IDENTITY_NODES,
        &prefix,
        Decisions::Ecost(&cx),
        OpenOptions::default(),
        &FaultSetup::default(),
    )?;
    let one = run_fleet(
        &tb,
        &FleetConfig::rendezvous(1, IDENTITY_NODES, SEED),
        prefix.iter().copied(),
        &cx,
        &ecost_telemetry::Recorder::noop(),
    )?;
    one.assert_single_shard_identity(&mono)?;
    drop(prefix);

    let mut arms: Vec<ArmOut> = Vec::new();
    for (name, route) in [
        ("rendezvous", RoutePolicy::Rendezvous { seed: SEED }),
        ("least_outstanding", RoutePolicy::LeastOutstanding),
    ] {
        eprintln!(
            "[fleet_scale] {name} arm: {} arrivals on {} shards × {} nodes…",
            scale.arrivals, scale.shards, scale.nodes_per_shard
        );
        let cfg = FleetConfig {
            route,
            cache_budget: CacheBudget::entries(scale.budget),
            ..FleetConfig::rendezvous(scale.shards, scale.nodes_per_shard, SEED)
        };
        // The stream is rebuilt per arm from the seed — never collected.
        let stream = TraceStream::new(&spec)?.take(scale.arrivals).map(to_open);
        let t0 = Instant::now();
        let fleet = run_fleet(&tb, &cfg, stream, &cx, &ecost_telemetry::Recorder::noop())?;
        arms.push(ArmOut {
            name,
            fleet,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }
    for arm in &arms {
        check_bounds(arm, scale.arrivals)?;
    }

    // One decision per routed arrival: a shard assignment plus a full
    // profile → classify → pair → tune placement. The rendezvous arm is
    // the headline (class-affine routing is the fleet's default shape).
    let decisions_per_s = scale.arrivals as f64 / arms[0].wall_s.max(1e-9);
    let idle_w = tb.idle_w();

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ecost-fleet-scale/1\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"shards\": {},", scale.shards);
    let _ = writeln!(out, "  \"nodes_per_shard\": {},", scale.nodes_per_shard);
    let _ = writeln!(out, "  \"arrivals\": {},", scale.arrivals);
    let _ = writeln!(out, "  \"trace_seed\": {SEED},");
    let _ = writeln!(out, "  \"cache_budget_per_table\": {},", scale.budget);
    // Dispatch visibility (see scale_out): shard engines are built inside
    // `run_fleet` with default knobs, so the process-level detection and
    // lane cap are exactly what every shard ran with.
    let _ = writeln!(
        out,
        "  \"batch_lanes\": {},",
        ecost_mapreduce::MAX_BATCH_LANES
    );
    let _ = writeln!(
        out,
        "  \"simd_backend\": \"{}\",",
        ecost_sim::SimdBackend::detect().name()
    );
    let _ = writeln!(out, "  \"single_shard_identity\": \"ok\",");
    let _ = writeln!(out, "{},", arms[0].json(idle_w));
    let _ = writeln!(out, "{}", arms[1].json(idle_w));
    out.push_str("}\n");

    let dir = Ctx::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("fleet.json");
    std::fs::write(&path, &out)?;
    println!("{out}");
    for arm in &arms {
        println!(
            "fleet_scale[{}]: {} arrivals / {} shards — {:.0} decisions/s (wall {:.2}s), \
             peak epoch batch {}, {} epochs, {} evictions",
            arm.name,
            scale.arrivals,
            scale.shards,
            scale.arrivals as f64 / arm.wall_s.max(1e-9),
            arm.wall_s,
            arm.fleet.peak_epoch_arrivals,
            arm.fleet.epochs,
            arm.fleet.stats.evictions
        );
    }
    eprintln!("[fleet_scale] wrote {}", path.display());

    let trend_path = ecost_bench::append_trend_row(
        quick,
        "fleet",
        rayon::current_num_threads(),
        None,
        &[("fleet_decisions_per_s", decisions_per_s, 1)],
    )?;
    eprintln!("[fleet_scale] appended trend row to {trend_path}");
    Ok(())
}

fn main() -> ExitCode {
    ecost_bench::run_main("fleet_scale", run)
}
