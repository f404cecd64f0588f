//! End-to-end benchmark of the ECoST controller.
//!
//! ```text
//! ecost-e2ebench --workload <trace_lkt|trace_reptree|oracle_service>
//!                --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Prints a readable account on stderr and, as the last line of stdout,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end figures, or with `--trace 1` the per-layer ones). Exits 1
//! when an output check fails and 2 on bad arguments or a program error.
//! See `README.md` beside this package.

mod common;
mod service_wl;
mod spans;
mod trace_wl;

use common::{Args, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace_wl::Technique;

const WORKLOADS: [&str; 3] = ["trace_lkt", "trace_reptree", "oracle_service"];

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: ecost_e2ebench::inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        spans_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => args.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// The result line: the JSON object the benchmark's caller reads.
fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failures.is_empty(),
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[e2ebench] {e}");
            return ExitCode::from(2);
        }
    };
    // One load thread: the fleet's shard lanes and the engine's sweeps run
    // on this thread only (the vendored rayon reads this on every call).
    std::env::set_var("RAYON_NUM_THREADS", "1");
    eprintln!(
        "[e2ebench] workload {} seed {} seconds {} trace {}; RAYON_NUM_THREADS=1, host parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let ran = match args.workload.as_str() {
        "trace_lkt" => trace_wl::run(Technique::Lkt, &args, start).map_err(Into::into),
        "trace_reptree" => trace_wl::run(Technique::RepTree, &args, start).map_err(Into::into),
        _ => service_wl::run(&args, start),
    };
    let (mut out, spans) = match ran {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[e2ebench] program error: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.failures.push(format!("{} is not finite", m.name));
        }
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
        eprintln!("[e2ebench]   {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = args
            .spans_out
            .clone()
            .unwrap_or_else(|| format!(".bench_spans/{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()));
        match written {
            Ok(()) => eprintln!("[e2ebench] {} spans written to {path}", spans.all().len()),
            Err(e) => out.failures.push(format!("writing spans to {path}: {e}")),
        }
    }
    for f in &out.failures {
        eprintln!("[e2ebench] CHECK FAILED: {f}");
    }
    println!("{}", result_json(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
