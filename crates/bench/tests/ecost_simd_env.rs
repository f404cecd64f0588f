//! `ECOST_SIMD` handling in the binaries: a value the AMVA kernel does
//! not accept (say the typo `Off`) is an error (exit 1) raised before any
//! work, naming the accepted values — never a silent run on the detected
//! backend that a scalar-vs-vector golden diff would then compare with
//! itself.

use std::process::Command;

#[test]
fn unknown_ecost_simd_is_rejected_before_any_work() {
    let dir = std::env::temp_dir().join("ecost_simd_env_cli");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (json, trend, results) = (
        dir.join("BENCH_sim.json"),
        dir.join("BENCH_trend.jsonl"),
        dir.join("results"),
    );
    let bins = [
        env!("CARGO_BIN_EXE_bench_report"),
        env!("CARGO_BIN_EXE_all_experiments"),
    ];
    for bin in bins {
        for bad in ["Off", "avx2", ""] {
            let _ = std::fs::remove_file(&json);
            let _ = std::fs::remove_file(&trend);
            let _ = std::fs::remove_dir_all(&results);
            let out = Command::new(bin)
                .env("ECOST_QUICK", "1")
                .env("ECOST_SIMD", bad)
                .env("ECOST_BENCH_OUT", &json)
                .env("ECOST_TREND_OUT", &trend)
                .env("ECOST_RESULTS", &results)
                .output()
                .expect("run binary");
            assert_eq!(out.status.code(), Some(1), "{bin} ECOST_SIMD={bad:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(&format!("ECOST_SIMD={bad:?}")), "{err}");
            for accepted in ["`off`", "`scalar`", "`portable`"] {
                assert!(err.contains(accepted), "{err}");
            }
            assert!(out.stdout.is_empty(), "{bin}");
            // Rejected up front: no report, trend row or results written.
            assert!(!json.exists() && !trend.exists() && !results.exists());
        }
    }
}
