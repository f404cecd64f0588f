//! Regenerates Fig 9: mapping-policy EDP on 1/2/4/8 nodes for WS1–WS8.
//!
//! Environment knobs:
//! * `ECOST_NODES="1,2"` — restrict the cluster sizes (default `1,2,4,8`);
//! * `ECOST_QUICK=1` — cheaper model training (see the harness).

use ecost_apps::InputSize;
use ecost_bench::experiments;
use ecost_bench::harness::Ctx;
use ecost_core::report::emit;
use std::process::ExitCode;

fn main() -> ExitCode {
    ecost_bench::run_main("fig9_scalability", || {
        let sizes = ecost_bench::node_counts()?;
        let mut ctx = Ctx::new();
        let tables = experiments::fig9_scalability(&mut ctx, &sizes, InputSize::Small);
        for (i, table) in tables.iter().enumerate() {
            emit(table, Ctx::results_dir(), &format!("fig9_scalability_{i}"))?;
        }
        Ok(())
    })
}
