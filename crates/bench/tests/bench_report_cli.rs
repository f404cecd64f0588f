//! `bench_report` argument handling: an argument it does not know is an
//! error (exit 1) raised before any measurement, naming the argument —
//! never a silently different report.

use std::process::Command;

#[test]
fn unknown_flag_is_rejected_before_measuring() {
    let dir = std::env::temp_dir().join("ecost_bench_report_cli");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (json, trend) = (dir.join("BENCH_sim.json"), dir.join("BENCH_trend.jsonl"));
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&trend);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(["--quick", "--lane-sweep"])
        .env("ECOST_BENCH_OUT", &json)
        .env("ECOST_TREND_OUT", &trend)
        .output()
        .expect("run bench_report");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--lane-sweep"), "{err}");
    assert!(out.stdout.is_empty());
    // Rejected up front: no report written, no trend row appended.
    assert!(!json.exists() && !trend.exists());
}
