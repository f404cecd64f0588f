//! `bench_report` input handling: the bin takes no arguments, so any
//! argument — each retired arm or mode flag included — is an error (exit
//! 1), and so is a `RAYON_NUM_THREADS` that is not a positive integer,
//! since the worker count keys the trend row. Both are raised before any
//! measurement and name the argument or value — never a silently
//! different report.

use std::process::Command;

/// Run quick `bench_report` with `args` and `RAYON_NUM_THREADS` set to
/// `threads` (removed when `None`), writing into the temp dir `dir`, and
/// assert that it exits 1 naming `named`, with empty stdout, no report
/// and no trend row.
fn assert_rejected(dir: &str, args: &[&str], threads: Option<&str>, named: &str) {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (json, trend) = (dir.join("BENCH_sim.json"), dir.join("BENCH_trend.jsonl"));
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&trend);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_report"));
    cmd.args(args)
        .env("ECOST_QUICK", "1")
        .env("ECOST_BENCH_OUT", &json)
        .env("ECOST_TREND_OUT", &trend);
    match threads {
        Some(n) => cmd.env("RAYON_NUM_THREADS", n),
        None => cmd.env_remove("RAYON_NUM_THREADS"),
    };
    let out = cmd.output().expect("run bench_report");
    let case = format!("{args:?} RAYON_NUM_THREADS={threads:?}");
    assert_eq!(out.status.code(), Some(1), "{case}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(named), "{case}: {err}");
    assert!(out.stdout.is_empty(), "{case}");
    // Rejected up front: no report written, no trend row appended.
    assert!(!json.exists() && !trend.exists(), "{case}");
}

#[test]
fn unknown_flag_is_rejected_before_measuring() {
    // Every flag is unknown: the retired arm and mode flags, one that
    // never existed, and a bare word.
    let cases: [(&[&str], &str); 7] = [
        (&["--baseline"], "`--baseline`"),
        (&["--no-batch"], "`--no-batch`"),
        (&["--no-simd"], "`--no-simd`"),
        (&["--quick"], "`--quick`"),
        (&["--threads", "2"], "`--threads`"),
        (&["--lane-sweep"], "`--lane-sweep`"),
        (&["quick"], "`quick`"),
    ];
    for (args, named) in cases {
        assert_rejected("ecost_bench_report_cli_args", args, None, named);
    }
}

#[test]
fn bad_thread_count_is_rejected_before_measuring() {
    for n in ["0", "x"] {
        let named = format!("RAYON_NUM_THREADS={n:?}");
        assert_rejected("ecost_bench_report_cli_threads", &[], Some(n), &named);
    }
}
