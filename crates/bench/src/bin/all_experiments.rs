//! Runs every paper artifact in sequence (Fig 1–9, Tables 1–2, ablations)
//! and writes the outputs under `results/`. The shared context means the
//! expensive offline phase (sweeps, model training) happens once.

use ecost_apps::InputSize;
use ecost_bench::experiments as ex;
use ecost_bench::harness::Ctx;
use ecost_bench::BenchError;
use ecost_core::report::{emit, Table};
use std::process::ExitCode;

fn main() -> ExitCode {
    ecost_bench::run_main("all_experiments", || {
        let mut ctx = Ctx::new();
        let dir = Ctx::results_dir();
        let run = |name: &str, tables: Vec<Table>| -> Result<(), BenchError> {
            eprintln!("=== {name} ===");
            for (i, t) in tables.iter().enumerate() {
                emit(t, &dir, &format!("{name}_{i}"))?;
            }
            Ok(())
        };
        run("fig1_pca", ex::fig1_pca(&mut ctx))?;
        run("fig2_tuning", ex::fig2_tuning(&mut ctx))?;
        run("fig3_colao_ilao", ex::fig3_colao_ilao(&mut ctx))?;
        run("fig5_priority", ex::fig5_priority(&mut ctx))?;
        run("table1_ape", ex::table1_ape(&mut ctx))?;
        run("table2_configs", ex::table2_configs(&mut ctx))?;
        run("fig8_overhead", ex::fig8_overhead(&mut ctx))?;
        let nodes = ecost_bench::node_counts()?;
        run(
            "fig9_scalability",
            ex::fig9_scalability(&mut ctx, &nodes, InputSize::Small),
        )?;
        run("ablation_kway", ex::ablation_kway(&mut ctx))?;
        run("ablation_pairing", ex::ablation_pairing(&mut ctx))?;
        run("ablation_job_cap", ex::ablation_job_cap(&mut ctx))?;
        run("extension_open_queue", ex::extension_open_queue(&mut ctx))?;
        run("extension_xeon", ex::extension_xeon(&mut ctx))?;
        eprintln!("=== chaos ===");
        let (tables, json) = ex::chaos(&mut ctx);
        for (i, t) in tables.iter().enumerate() {
            emit(t, &dir, &format!("chaos_{i}"))?;
        }
        std::fs::write(dir.join("chaos.json"), &json)?;
        eprintln!("all experiments written to {}", dir.display());
        Ok(())
    })
}
