//! `trace` — record one healthy ECoST schedule and one chaos schedule with
//! full telemetry, and export Chrome-trace JSON (open `results/trace_*.json`
//! in Perfetto / `chrome://tracing`), a per-node occupancy/Gantt summary,
//! and a text metrics report.
//!
//! All trace timestamps are simulated seconds — never wall clock — so the
//! JSON documents are byte-identical across same-seed runs; CI generates
//! them twice and diffs. Honors `ECOST_QUICK` and `ECOST_RESULTS`.

use ecost_apps::{App, InputSize, Workload};
use ecost_bench::harness::{Ctx, NOISE, SEED};
use ecost_bench::BenchError;
use ecost_core::engine::{EvalEngine, RetryPolicy};
use ecost_core::features::Testbed;
use ecost_core::mapping::{run_stream, Decisions, FaultSetup, OpenArrival, OpenOptions};
use ecost_core::EcostContext;
use ecost_sim::{ClusterSpec, FaultPlan, FaultSpec};
use ecost_telemetry::{chrome_trace_json, occupancy_summary, text_report, Recorder};
use std::process::ExitCode;

const NODES: usize = 2;

fn main() -> ExitCode {
    ecost_bench::run_main("trace", run)
}

fn run() -> Result<(), BenchError> {
    let ctx = Ctx::new();
    // The database and models are built on the harness's no-op engine so
    // the recorded traces show schedules, not the offline sweep.
    let db = ecost_core::database::ConfigDatabase::build_subset(
        &ctx.engine,
        &[App::Wc, App::St, App::Fp],
        &[InputSize::Small],
        NOISE,
        SEED,
    )?;
    let classifier = ecost_core::classify::RuleClassifier::fit(&db.signatures);
    let lkt = ecost_core::stp::LktStp::from_database(&db);
    let pairing = ecost_core::pairing::PairingPolicy::default();
    let ecx = EcostContext {
        db: &db,
        stp: &lkt,
        classifier: &classifier,
        pairing: &pairing,
        noise: NOISE,
        seed: SEED,
        pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
    };
    let mut workload = Workload {
        name: "trace-mix".into(),
        jobs: vec![
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
            (App::Fp, InputSize::Small),
            (App::St, InputSize::Small),
            (App::Wc, InputSize::Small),
            (App::Fp, InputSize::Small),
        ],
    };
    if ctx.quick {
        workload.jobs.truncate(4);
    }
    let dir = Ctx::results_dir();
    std::fs::create_dir_all(&dir)?;

    // Schedule 1: healthy ECoST. Its makespan fixes the horizon chaos
    // faults are drawn in.
    let healthy_setup = FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::none(),
    };
    let (makespan, _) = record("ecost", &workload, &ecx, &healthy_setup, &dir)?;

    // Schedule 2: the same workload under a harsh sampled fault regime.
    let cluster = ClusterSpec::atom_cluster(NODES);
    let chaos_setup = FaultSetup {
        plan: FaultPlan::sample(&cluster, &FaultSpec::scaled(1.0, makespan), SEED),
        retry: RetryPolicy::default(),
    };
    record("chaos", &workload, &ecx, &chaos_setup, &dir)?;
    Ok(())
}

/// Run the workload on a fresh recording engine and export the trace.
/// Returns the run's makespan and the number of trace events recorded.
fn record(
    name: &str,
    workload: &Workload,
    ecx: &EcostContext<'_>,
    setup: &FaultSetup,
    dir: &std::path::Path,
) -> Result<(f64, usize), BenchError> {
    let eng = EvalEngine::with_recorder(Testbed::atom(), Recorder::recording());
    let stream = OpenArrival::from_workload(workload, NODES, None)?;
    let opts = OpenOptions::default();
    let out = run_stream(&eng, NODES, &stream, Decisions::Ecost(ecx), opts, setup)?;
    let events = eng.recorder().events();
    std::fs::write(
        dir.join(format!("trace_{name}.json")),
        chrome_trace_json(&events),
    )?;
    std::fs::write(
        dir.join(format!("trace_{name}_occupancy.txt")),
        occupancy_summary(&events),
    )?;
    std::fs::write(
        dir.join(format!("trace_{name}_report.txt")),
        text_report(&eng.recorder().metrics().snapshot()),
    )?;
    println!(
        "{name}: makespan {:.1}s, {} trace events, {} — open trace_{name}.json in Perfetto",
        out.run.makespan_s,
        events.len(),
        eng.stats()
    );
    Ok((out.run.makespan_s, events.len()))
}
