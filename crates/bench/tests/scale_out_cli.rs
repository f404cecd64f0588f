//! `scale_out` argument handling: the bin takes no arguments, so any
//! argument — the retired `--serviced` arm included — is an error (exit 1)
//! raised before any work, naming the argument, never a silently
//! different report.

use std::process::Command;

#[test]
fn any_argument_is_rejected_before_any_work() {
    let dir = std::env::temp_dir().join("ecost_scale_out_cli");
    let (results, trend) = (dir.join("results"), dir.join("BENCH_trend.jsonl"));
    for arg in ["--serviced", "--quick", "extra"] {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let out = Command::new(env!("CARGO_BIN_EXE_scale_out"))
            .arg(arg)
            .env("ECOST_QUICK", "1")
            .env("ECOST_RESULTS", &results)
            .env("ECOST_TREND_OUT", &trend)
            .output()
            .expect("run scale_out");
        assert_eq!(out.status.code(), Some(1), "scale_out {arg}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("`{arg}`")), "{err}");
        assert!(out.stdout.is_empty(), "scale_out {arg}");
        // Rejected up front: no report written, no trend row appended.
        assert!(!results.exists() && !trend.exists(), "scale_out {arg}");
    }
}
