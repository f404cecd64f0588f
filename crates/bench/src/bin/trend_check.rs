//! Throughput-regression gate over the `BENCH_trend.jsonl` trend store.
//!
//! `bench_report` and `scale_out` append one compact row per run (schema
//! `ecost-bench-trend/1`); this binary compares the newest row against the
//! *median* of the last (up to) three comparable earlier rows — same
//! `mode`, `arms`, `threads` and `simd` context (a row without a `simd`
//! field only compares against rows that also lack one, so rows from
//! before the SIMD kernel never gate its arms), so quick CI rows never
//! gate against full workstation rows — and fails (non-zero exit) when
//! any kernel's
//! throughput dropped by more than the tolerance (`ECOST_TREND_TOL`,
//! default 0.10 = 10%). Latency keys (`*_ns_per_iter`, the scalar AMVA
//! kernel ledger) gate the other way: a rise beyond the tolerance fails.
//! The median reference makes the gate robust to a single anomalously
//! fast prior row (a noisy-neighbour lull would otherwise ratchet the
//! baseline up and flag the next honest run).
//!
//! Usage: `trend_check [path]` (default `BENCH_trend.jsonl`).
//!
//! Exit codes: `0` when every compared metric is within tolerance, `2`
//! ("no data") when there is nothing to gate — the store is missing,
//! empty, has no comparable prior row for the newest row's (mode, arms,
//! threads, simd) context, or the comparable priors share no metric key
//! with the newest row — and `1` on a regression or a malformed
//! store. Callers that treat a seeding run as acceptable should accept
//! exit 2 explicitly (CI does: `trend_check || [ $? -eq 2 ]`).
//!
//! The rows are written by our own writer with stable key order, so the
//! "parser" here is a deliberately minimal key scanner, not a general
//! JSON reader — the repo hand-rolls its JSON in both directions.

use ecost_bench::BenchError;
use std::process::ExitCode;

/// Headline keys a row may carry (absent arms and keys are skipped):
/// throughputs and ratios, where higher is better, and `*_ns_per_iter`
/// kernel latencies (the scalar AMVA kernels and the lane kernel), where
/// lower is better. The engine's and the service's memo-hit costs are
/// gated only through same-run ratios (`engine_winner_hit_speedup`: ns per
/// sweep-table hit over ns per winners-table hit;
/// `service_hit_engine_share`: ns per winners-table hit over ns per warm
/// `TuningService::decide`); the ns figures themselves stay in
/// `BENCH_sim.json` as information. `pair_reuse_share` — the share of a
/// full pair sweep's rate problems answered from the executor's reuse
/// table on one thread — is an exact count ratio, not a timing, so a drop
/// means a reuse key stopped matching, never host drift. Keys of retired arms
/// (`pair_batch_resident`, `pair_warm_start`, `sched_baseline`,
/// `sched_optimized`, `sched_batched`) may linger in older rows; they are
/// not listed, so they never gate.
const METRICS: [&str; 24] = [
    "solo_baseline_sims_per_s",
    "solo_optimized_sims_per_s",
    "solo_batched_sims_per_s",
    "solo_simd_off_sims_per_s",
    "pair_baseline_sims_per_s",
    "pair_optimized_sims_per_s",
    "pair_batched_sims_per_s",
    "pair_simd_off_sims_per_s",
    "scale_decisions_per_s",
    "service_decisions_per_s",
    "fleet_decisions_per_s",
    "amva_1c_fixed_ns_per_iter",
    "amva_1c_runtime_ns_per_iter",
    "amva_1c_speedup",
    "amva_2c_fixed_ns_per_iter",
    "amva_2c_runtime_ns_per_iter",
    "amva_2c_speedup",
    "amva_1c_lanes_ns_per_iter",
    "amva_1c_lanes_speedup",
    "amva_2c_lanes_ns_per_iter",
    "amva_2c_lanes_speedup",
    "engine_winner_hit_speedup",
    "service_hit_engine_share",
    "pair_reuse_share",
];

/// Whether a rise (rather than a drop) in `key` is the regression.
fn lower_is_better(key: &str) -> bool {
    key.ends_with("_ns_per_iter")
}

/// How many comparable prior rows feed the reference median.
const WINDOW: usize = 3;

/// Median of a non-empty sample; an even count averages the middle two.
/// Returns `None` on an empty slice (metric absent from every prior row).
fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Extract a string field from a compact single-line JSON row.
fn field_str<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extract a numeric field from a compact single-line JSON row.
fn field_f64(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The comparability context of a row: rows only gate against rows that
/// measured the same thing on the same parallelism with the same kernel.
/// `simd` is optional — rows predating the SIMD kernel have no such
/// field, and `None` only matches `None`, so old seed rows never gate
/// (or get gated by) the SIMD-era arms.
fn context(row: &str) -> Option<(String, String, u64, Option<String>)> {
    Some((
        field_str(row, "mode")?.to_string(),
        field_str(row, "arms")?.to_string(),
        field_f64(row, "threads")? as u64,
        field_str(row, "simd").map(str::to_string),
    ))
}

fn run() -> Result<(), BenchError> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trend.jsonl".into());
    let tol: f64 = match std::env::var("ECOST_TREND_TOL") {
        Ok(v) => v
            .parse()
            .map_err(|_| BenchError::Invalid(format!("ECOST_TREND_TOL={v:?} is not a number")))?,
        Err(_) => 0.10,
    };
    check(&path, tol)
}

/// The gate proper, separated from env/arg parsing for unit testing.
fn check(path: &str, tol: f64) -> Result<(), BenchError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(BenchError::NoData(format!(
                "{path}: trend store not found — run a bench first to seed it"
            )));
        }
        Err(e) => return Err(BenchError::Io(e)),
    };
    let rows: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let (last, prior) = rows
        .split_last()
        .ok_or_else(|| BenchError::NoData(format!("{path}: trend store has no rows")))?;
    if field_str(last, "schema") != Some("ecost-bench-trend/1") {
        return Err(BenchError::Invalid(format!(
            "{path}: newest row has unknown schema (want ecost-bench-trend/1)"
        )));
    }
    let ctx = context(last).ok_or_else(|| {
        BenchError::Invalid(format!("{path}: newest row lacks mode/arms/threads"))
    })?;
    let prevs: Vec<&&str> = prior
        .iter()
        .rev()
        .filter(|r| context(r).as_ref() == Some(&ctx))
        .take(WINDOW)
        .collect();
    if prevs.is_empty() {
        return Err(BenchError::NoData(format!(
            "{path}: no prior row with mode={} arms={} threads={} simd={} — this row seeds \
             the trend",
            ctx.0,
            ctx.1,
            ctx.2,
            ctx.3.as_deref().unwrap_or("<absent>")
        )));
    }
    let commits = prevs
        .iter()
        .map(|r| field_str(r, "commit").unwrap_or("?"))
        .collect::<Vec<_>>()
        .join(", ");
    let mut regressions: Vec<String> = Vec::new();
    let mut compared = 0u32;
    for key in METRICS {
        let Some(new) = field_f64(last, key) else {
            continue;
        };
        let mut sample: Vec<f64> = prevs.iter().filter_map(|r| field_f64(r, key)).collect();
        let Some(old) = median(&mut sample) else {
            continue;
        };
        compared += 1;
        let regressed = if lower_is_better(key) {
            new > old * (1.0 + tol)
        } else {
            new < old * (1.0 - tol)
        };
        if old > 0.0 && regressed {
            regressions.push(format!(
                "{key}: median {old:.1} -> {new:.1} ({:+.1}%)",
                100.0 * (new - old) / old
            ));
        }
    }
    if regressions.is_empty() {
        if compared == 0 {
            return Err(BenchError::NoData(format!(
                "{path}: comparable prior rows share no metric key with the newest row — \
                 nothing to gate"
            )));
        }
        println!(
            "trend_check: {compared} metrics within {:.0}% of the median of {} prior rows \
             in {} (commits {})",
            tol * 100.0,
            prevs.len(),
            path,
            commits
        );
        Ok(())
    } else {
        Err(BenchError::Invalid(format!(
            "regression vs the median of {} prior rows (commits {}, tolerance \
             {:.0}%): {}",
            prevs.len(),
            commits,
            tol * 100.0,
            regressions.join("; ")
        )))
    }
}

fn main() -> ExitCode {
    ecost_bench::run_main("trend_check", run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_sample_is_the_middle_value() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [5.0]), Some(5.0));
    }

    #[test]
    fn median_of_even_sample_averages_the_middle_two() {
        assert_eq!(median(&mut [4.0, 1.0]), Some(2.5));
        assert_eq!(median(&mut [1.0, 9.0, 3.0, 5.0]), Some(4.0));
    }

    #[test]
    fn median_of_empty_sample_is_none() {
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn one_fast_outlier_does_not_ratchet_the_reference() {
        // Rows 100, 100, 140: a single lucky run. The median reference is
        // 100, so a new row at 95 sits within a 10% tolerance — the
        // newest-row-only policy would have gated 95 against 140.
        let m = median(&mut [100.0, 140.0, 100.0]).unwrap();
        assert_eq!(m, 100.0);
        assert!(95.0 >= m * (1.0 - 0.10));
    }

    fn write_store(name: &str, rows: &[&str]) -> String {
        let dir = std::env::temp_dir().join("ecost_trend_check_test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(name);
        std::fs::write(&path, rows.join("\n")).expect("write store");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn missing_store_is_no_data() {
        match check("/nonexistent/ecost/trend.jsonl", 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("not found"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn empty_store_is_no_data() {
        let path = write_store("empty.jsonl", &[""]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("no rows"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn no_comparable_prior_row_is_no_data() {
        let row_full = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"full","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let row_quick = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let path = write_store("seeding.jsonl", &[row_full, row_quick]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("seeds the trend"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn comparable_rows_within_tolerance_pass_and_regressions_fail() {
        let prior = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let ok = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":95.0}"#;
        let bad = r#"{"schema":"ecost-bench-trend/1","commit":"c","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":50.0}"#;
        let path = write_store("gate_ok.jsonl", &[prior, ok]);
        assert!(check(&path, 0.10).is_ok());
        let path = write_store("gate_bad.jsonl", &[prior, bad]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => assert!(msg.contains("regression"), "{msg}"),
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn row_fields_parse() {
        let row = r#"{"schema":"ecost-bench-trend/1","commit":"abc","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":51455.3}"#;
        assert_eq!(field_str(row, "commit"), Some("abc"));
        assert_eq!(field_f64(row, "scale_decisions_per_s"), Some(51455.3));
        assert_eq!(
            context(row),
            Some(("quick".into(), "scale".into(), 1, None))
        );
        let row = r#"{"schema":"ecost-bench-trend/1","commit":"abc","mode":"full","arms":"all","threads":2,"simd":"on","pair_batched_sims_per_s":9.0}"#;
        assert_eq!(
            context(row),
            Some(("full".into(), "all".into(), 2, Some("on".into())))
        );
    }

    #[test]
    fn simd_context_splits_comparability_from_pre_simd_rows() {
        // A seed row written before the simd field existed must not gate
        // the first simd-era row, even though mode/arms/threads match and
        // the metric key is shared (with a large apparent drop).
        let old = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"quick","arms":"all","threads":1,"pair_batched_sims_per_s":100.0}"#;
        let new = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"all","threads":1,"simd":"on","pair_batched_sims_per_s":50.0}"#;
        let path = write_store("simd_split.jsonl", &[old, new]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("seeds the trend"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
        // And the two simd settings never gate each other.
        let on = r#"{"schema":"ecost-bench-trend/1","commit":"c","mode":"quick","arms":"all","threads":1,"simd":"on","pair_batched_sims_per_s":100.0}"#;
        let off = r#"{"schema":"ecost-bench-trend/1","commit":"d","mode":"quick","arms":"all","threads":1,"simd":"off","pair_batched_sims_per_s":50.0}"#;
        let path = write_store("simd_on_off.jsonl", &[on, off]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("seeds the trend"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_drop_in_a_simd_row_fails_the_gate() {
        let mk = |commit: &str, rate: f64| {
            format!(
                r#"{{"schema":"ecost-bench-trend/1","commit":"{commit}","mode":"full","arms":"all","threads":1,"simd":"on","pair_batched_sims_per_s":{rate:.1},"pair_simd_off_sims_per_s":{:.1}}}"#,
                rate / 2.0
            )
        };
        let rows = [mk("a", 1000.0), mk("b", 1010.0), mk("c", 990.0)];
        let held = mk("d", 960.0);
        let path = write_store("simd_gate_ok.jsonl", &[&rows[0], &rows[1], &rows[2], &held]);
        assert!(check(&path, 0.10).is_ok());
        // >10% drop in the simd arm (and its shadow) must fail.
        let dropped = mk("e", 500.0);
        let path = write_store(
            "simd_gate_bad.jsonl",
            &[&rows[0], &rows[1], &rows[2], &dropped],
        );
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("pair_batched_sims_per_s"), "{msg}");
                assert!(msg.contains("pair_simd_off_sims_per_s"), "{msg}");
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn retired_keys_in_old_rows_never_gate() {
        // Rows written before the lockstep, warm-start, reference and
        // lockstep-scheduler arms were retired still carry their keys. The
        // shared key keeps gating; the retired keys are ignored on both
        // sides, so an old store can neither flag nor hide anything
        // through them (`sched_batched` fell 30×). A listed key the old
        // row lacks has no prior sample and is skipped.
        let old = r#"{"schema":"ecost-bench-trend/1","commit":"a","dirty":false,"mode":"full","arms":"all","threads":1,"simd":"on","pair_batched_sims_per_s":100.0,"pair_batch_resident_sims_per_s":150.0,"pair_warm_start_sims_per_s":170.0,"sched_baseline_sims_per_s":30.0,"sched_optimized_sims_per_s":35.0,"sched_batched_sims_per_s":30.0}"#;
        let new = r#"{"schema":"ecost-bench-trend/1","commit":"b","dirty":true,"mode":"full","arms":"all","threads":1,"simd":"on","pair_batched_sims_per_s":150.0,"sched_batched_sims_per_s":1.0,"fleet_decisions_per_s":1.0}"#;
        let path = write_store("retired_keys_ok.jsonl", &[old, new]);
        assert!(check(&path, 0.10).is_ok());
        // A newest row that still carries collapsed retired keys is judged
        // on the listed keys alone.
        let stale = r#"{"schema":"ecost-bench-trend/1","commit":"c","dirty":false,"mode":"full","arms":"all","threads":1,"simd":"on","pair_batched_sims_per_s":50.0,"pair_batch_resident_sims_per_s":1.0,"sched_baseline_sims_per_s":1.0,"sched_batched_sims_per_s":1.0}"#;
        let path = write_store("retired_keys_bad.jsonl", &[old, stale]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("pair_batched_sims_per_s"), "{msg}");
                assert!(!msg.contains("pair_batch_resident_sims_per_s"), "{msg}");
                assert!(!msg.contains("sched_baseline_sims_per_s"), "{msg}");
                assert!(!msg.contains("sched_batched_sims_per_s"), "{msg}");
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
        // Only retired keys in common: nothing to gate.
        let retired_only = r#"{"schema":"ecost-bench-trend/1","commit":"d","mode":"full","arms":"all","threads":1,"simd":"on","pair_warm_start_sims_per_s":1.0,"sched_batched_sims_per_s":1.0}"#;
        let path = write_store("retired_keys_only.jsonl", &[old, retired_only]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("no metric key"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn kernel_latency_keys_gate_on_a_rise() {
        let mk = |commit: &str, ns: f64, speedup: f64| {
            format!(
                r#"{{"schema":"ecost-bench-trend/1","commit":"{commit}","mode":"full","arms":"all","threads":1,"simd":"on","amva_2c_fixed_ns_per_iter":{ns:.3},"amva_2c_speedup":{speedup:.3}}}"#
            )
        };
        let prior = mk("a", 30.0, 2.8);
        // Faster kernel, same ratio: within tolerance.
        let path = write_store("kernel_ok.jsonl", &[&prior, &mk("b", 20.0, 2.8)]);
        assert!(check(&path, 0.10).is_ok());
        // Slower kernel: a rise beyond tolerance fails, naming only it.
        let path = write_store("kernel_slow.jsonl", &[&prior, &mk("c", 40.0, 2.8)]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("amva_2c_fixed_ns_per_iter"), "{msg}");
                assert!(!msg.contains("amva_2c_speedup"), "{msg}");
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
        // A collapsed paired ratio fails like any throughput drop.
        let path = write_store("kernel_ratio.jsonl", &[&prior, &mk("d", 30.0, 1.2)]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => assert!(msg.contains("amva_2c_speedup"), "{msg}"),
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn engine_hit_ratio_gates_on_a_drop() {
        let mk = |commit: &str, ratio: f64| {
            format!(
                r#"{{"schema":"ecost-bench-trend/1","commit":"{commit}","mode":"full","arms":"all","threads":1,"simd":"on","engine_winner_hit_speedup":{ratio:.3}}}"#
            )
        };
        let rows = [mk("a", 1.30), mk("b", 1.34), mk("c", 1.28)];
        // A larger ratio (winner hits got cheaper) passes, as does noise.
        for (name, ratio) in [("hit_ratio_up.jsonl", 1.60), ("hit_ratio_ok.jsonl", 1.22)] {
            let new = mk("d", ratio);
            let path = write_store(name, &[&rows[0], &rows[1], &rows[2], &new]);
            assert!(check(&path, 0.10).is_ok(), "{ratio}");
        }
        // Winner hits no cheaper than sweep-table hits: a drop, which fails.
        let new = mk("e", 1.0);
        let path = write_store(
            "hit_ratio_drop.jsonl",
            &[&rows[0], &rows[1], &rows[2], &new],
        );
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("engine_winner_hit_speedup"), "{msg}")
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn service_hit_share_gates_on_a_drop() {
        let mk = |commit: &str, share: f64| {
            format!(
                r#"{{"schema":"ecost-bench-trend/1","commit":"{commit}","mode":"full","arms":"all","threads":1,"simd":"on","service_hit_engine_share":{share:.3}}}"#
            )
        };
        let rows = [mk("a", 0.52), mk("b", 0.55), mk("c", 0.50)];
        // A larger share (the service's own cost shrank) passes, as does
        // noise.
        for (name, share) in [("svc_share_up.jsonl", 0.80), ("svc_share_ok.jsonl", 0.48)] {
            let new = mk("d", share);
            let path = write_store(name, &[&rows[0], &rows[1], &rows[2], &new]);
            assert!(check(&path, 0.10).is_ok(), "{share}");
        }
        // The service layer's cost doubled against the engine's: a drop.
        let new = mk("e", 0.30);
        let path = write_store(
            "svc_share_drop.jsonl",
            &[&rows[0], &rows[1], &rows[2], &new],
        );
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("service_hit_engine_share"), "{msg}")
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn pair_reuse_share_gates_on_a_drop() {
        let mk = |commit: &str, share: f64| {
            format!(
                r#"{{"schema":"ecost-bench-trend/1","commit":"{commit}","mode":"full","arms":"all","threads":1,"simd":"on","pair_reuse_share":{share:.3}}}"#
            )
        };
        let rows = [mk("a", 0.427), mk("b", 0.427), mk("c", 0.427)];
        // The same count ratio, or more reuse, passes.
        for (name, share) in [("reuse_same.jsonl", 0.427), ("reuse_up.jsonl", 0.52)] {
            let new = mk("d", share);
            let path = write_store(name, &[&rows[0], &rows[1], &rows[2], &new]);
            assert!(check(&path, 0.10).is_ok(), "{share}");
        }
        // A key that stops matching (say, one that takes in a job's
        // remaining work, which differs at every solve): a drop, which
        // fails.
        let new = mk("e", 0.20);
        let path = write_store("reuse_drop.jsonl", &[&rows[0], &rows[1], &rows[2], &new]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => assert!(msg.contains("pair_reuse_share"), "{msg}"),
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn prior_keys_absent_from_the_newest_row_are_no_data() {
        // Same context, but the newest row carries none of the priors'
        // metric keys (and vice versa): nothing is comparable, which must
        // surface as exit-2 "no data", not a silent pass.
        let old = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let new = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"scale","threads":1,"fleet_decisions_per_s":100.0}"#;
        let path = write_store("key_mismatch.jsonl", &[old, new]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("no metric key"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }
}
