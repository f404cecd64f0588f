//! `ecost_cli` — command-line front end to the ECoST library.
//!
//! ```text
//! ecost_cli apps                       # list the catalog with classes
//! ecost_cli profile <app> [gb]         # learning period + classification
//! ecost_cli tune <app> [gb]            # best standalone config (ILAO step)
//! ecost_cli pair <a> <b> [gb]          # COLAO oracle for a pair
//! ecost_cli sweep <app> [gb]           # full 160-point EDP sweep as CSV
//! ```
//!
//! Sizes are per-node GB ∈ {1, 5, 10} (default 5). All simulation, all
//! deterministic — handy for poking at the model without writing code.
//! An unknown application or size is a usage error (exit code 2).

use ecost_apps::catalog::ALL_APPS;
use ecost_apps::{App, InputSize};
use ecost_bench::BenchError;
use ecost_core::classify::RuleClassifier;
use ecost_core::engine::EvalEngine;
use ecost_core::features::profile_catalog_app;
use ecost_mapreduce::{Feature, TuningConfig};
use std::process::ExitCode;

fn parse_size(arg: Option<&String>) -> InputSize {
    match arg.map(String::as_str) {
        Some("1") => InputSize::Small,
        Some("10") => InputSize::Large,
        None | Some("5") => InputSize::Medium,
        Some(other) => {
            eprintln!("unknown size '{other}' (expected 1, 5 or 10)");
            std::process::exit(2);
        }
    }
}

fn parse_app(arg: Option<&String>) -> App {
    let Some(name) = arg else {
        eprintln!("missing application name; try `ecost_cli apps`");
        std::process::exit(2);
    };
    match App::from_name(name) {
        Some(a) => a,
        None => {
            eprintln!("unknown application '{name}'; try `ecost_cli apps`");
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    ecost_bench::run_main("ecost_cli", run)
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let eng = EvalEngine::atom();
    let idle = eng.idle_w();
    match args.first().map(String::as_str) {
        Some("apps") => {
            println!("{:<6} {:<6} role", "name", "class");
            for app in ALL_APPS {
                println!(
                    "{:<6} {:<6} {}",
                    app.name(),
                    app.class(),
                    if app.is_training() {
                        "training (known)"
                    } else {
                        "test (unknown)"
                    }
                );
            }
        }
        Some("profile") => {
            let app = parse_app(args.get(1));
            let size = parse_size(args.get(2));
            let sig = profile_catalog_app(&eng, app, size, 0.03, 42)?;
            println!(
                "learning period for {app} at {size}: {:.1}s",
                sig.profile_time_s
            );
            for feat in Feature::ALL {
                println!("  {:<18} {:>10.2}", feat.name(), sig.features.get(feat));
            }
            // Classify against the training set.
            let mut training = Vec::new();
            for t in ecost_apps::TRAINING_APPS {
                for s in InputSize::ALL {
                    let tsig = profile_catalog_app(&eng, t, s, 0.03, 42)?;
                    training.push((tsig, t.class()));
                }
            }
            let rc = RuleClassifier::fit(&training);
            println!(
                "classified as {} (ground truth {})",
                rc.classify(&sig.features),
                app.class()
            );
        }
        Some("tune") => {
            let app = parse_app(args.get(1));
            let size = parse_size(args.get(2));
            let best = eng.best_solo(app.profile(), size.per_node_mb())?;
            let default = eng.solo_metrics(
                app.profile(),
                size.per_node_mb(),
                TuningConfig::hadoop_default(eng.testbed().node.cores),
            )?;
            println!(
                "best standalone config for {app} at {size}: {}",
                best.config
            );
            println!(
                "  T={:.0}s  Pdyn={:.2}W  wall EDP {:.3e} ({:.1}% better than untuned defaults)",
                best.metrics.exec_time_s,
                best.metrics.avg_power_w,
                best.metrics.edp_wall(idle),
                100.0 * (1.0 - best.metrics.edp_wall(idle) / default.edp_wall(idle)),
            );
        }
        Some("pair") => {
            let a = parse_app(args.get(1));
            let b = parse_app(args.get(2));
            let size = parse_size(args.get(3));
            let mb = size.per_node_mb();
            let best = eng.best_pair(a.profile(), mb, b.profile(), mb)?;
            let ilao = ecost_core::strategies::ilao(&eng, a.profile(), mb, b.profile(), mb)?;
            println!("COLAO oracle for {a}+{b} at {size} (11 200 configs swept):");
            println!("  {a}: {}", best.config.a);
            println!("  {b}: {}", best.config.b);
            println!(
                "  makespan {:.0}s, wall EDP {:.3e} — {:.2}x better than serial ILAO",
                best.metrics.makespan_s,
                best.metrics.edp_wall(idle),
                ilao.metrics.edp_wall(idle) / best.metrics.edp_wall(idle),
            );
        }
        Some("sweep") => {
            let app = parse_app(args.get(1));
            let size = parse_size(args.get(2));
            println!("freq_ghz,block_mb,mappers,exec_s,power_w,edp_wall");
            for run in eng.sweep_solo(app.profile(), size.per_node_mb())? {
                println!(
                    "{},{},{},{:.2},{:.3},{:.6e}",
                    run.config.freq.ghz(),
                    run.config.block.mb(),
                    run.config.mappers,
                    run.metrics.exec_time_s,
                    run.metrics.avg_power_w,
                    run.metrics.edp_wall(idle)
                );
            }
            let stats = eng.stats();
            eprintln!("[engine] {stats}");
        }
        _ => {
            eprintln!("usage: ecost_cli <apps|profile|tune|pair|sweep> [args…]");
            eprintln!("  apps                 list the application catalog");
            eprintln!("  profile <app> [gb]   learning period + classification");
            eprintln!("  tune <app> [gb]      best standalone configuration");
            eprintln!("  pair <a> <b> [gb]    COLAO oracle for a co-located pair");
            eprintln!("  sweep <app> [gb]     full 160-point EDP sweep (CSV)");
            std::process::exit(2);
        }
    }
    Ok(())
}
