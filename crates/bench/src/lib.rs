//! Experiment harness for the ECoST reproduction.
//!
//! Each paper table/figure has a function in [`experiments`] that computes it
//! and returns renderable tables; the `src/bin/*` binaries are thin wrappers
//! that print them and write `results/<name>.{txt,csv}`. The shared
//! [`harness::Ctx`] builds the expensive artifacts (database, training data,
//! fitted models) once and memoises them across experiments, mirroring the
//! paper's offline phase. The tracked bins (`bench_report`, `scale_out`,
//! `fleet_scale`, `service_soak`) append their trend rows through
//! [`append_trend_row`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiments;
pub mod harness;

pub use error::{run_main, BenchError};

use std::fmt::Write as _;
use std::io::Write as _;

/// Quick mode, from `ECOST_QUICK`: exactly `1` shrinks a binary's work
/// to its CI-sized run; unset or any other value runs it in full.
pub fn quick_mode() -> bool {
    std::env::var("ECOST_QUICK").is_ok_and(|v| v == "1")
}

/// Fig 9's cluster sizes, from `ECOST_NODES`: comma-separated node
/// counts (`"1,2"`), default `1,2,4,8`. A count that does not parse is
/// an error naming it.
pub fn node_counts() -> Result<Vec<usize>, BenchError> {
    std::env::var("ECOST_NODES")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .map(|s| {
            s.trim().parse().map_err(|_| {
                BenchError::Invalid(format!("bad node count '{}' in ECOST_NODES", s.trim()))
            })
        })
        .collect()
}

/// The trend row's commit context: `(commit id, dirty worktree)`.
///
/// Precedence: `ECOST_COMMIT`, then `GITHUB_SHA` (both trusted as clean —
/// CI benches a pristine checkout), then `git rev-parse --short HEAD`
/// with the dirty flag from `git status --porcelain`, so a local run's
/// row names the real commit it measured instead of `"uncommitted"`.
/// Outside a git worktree (or with no git binary) the row reads
/// `("uncommitted", dirty)`.
fn commit_context() -> (String, bool) {
    if let Ok(c) = std::env::var("ECOST_COMMIT").or_else(|_| std::env::var("GITHUB_SHA")) {
        return (c, false);
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let head = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let Some(head) = head else {
        return ("uncommitted".into(), true);
    };
    // A failed status query reports dirty: over-claiming dirt is safer
    // than stamping a mutated tree as the commit's performance.
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    (head, dirty)
}

/// One compact trend-store row for [`append_trend_row`].
fn trend_row(
    (commit, dirty): (&str, bool),
    quick: bool,
    arms: &str,
    threads: usize,
    simd: Option<&str>,
    metrics: &[(&str, f64, usize)],
) -> String {
    let mut row = format!(
        "{{\"schema\":\"ecost-bench-trend/1\",\"commit\":\"{commit}\",\"dirty\":{dirty},\
         \"mode\":\"{}\",\"arms\":\"{arms}\",\"threads\":{threads}",
        if quick { "quick" } else { "full" },
    );
    if let Some(simd) = simd {
        let _ = write!(row, ",\"simd\":\"{simd}\"");
    }
    for &(key, value, decimals) in metrics {
        let _ = write!(row, ",\"{key}\":{value:.decimals$}");
    }
    row.push('}');
    row
}

/// Append one row for this run to the trend store (`ECOST_TREND_OUT`,
/// default `BENCH_trend.jsonl`), stamped with the commit context: schema
/// `ecost-bench-trend/1`, the commit id and `dirty` flag, the run's mode,
/// arm label and thread count, the SIMD label when the arms have one,
/// then each `(key, value, decimals)` metric in order. `trend_check`
/// reads these rows. Returns the path written.
pub fn append_trend_row(
    quick: bool,
    arms: &str,
    threads: usize,
    simd: Option<&str>,
    metrics: &[(&str, f64, usize)],
) -> Result<String, BenchError> {
    let path = std::env::var("ECOST_TREND_OUT").unwrap_or_else(|_| "BENCH_trend.jsonl".into());
    let (commit, dirty) = commit_context();
    if commit.contains('"') || commit.contains('\\') {
        return Err(BenchError::Invalid(format!(
            "commit id {commit:?} is not JSON-string safe"
        )));
    }
    let row = trend_row((&commit, dirty), quick, arms, threads, simd, metrics);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{row}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_context_is_json_safe() {
        // Whatever source wins (env override, git, fallback), the id must
        // embed into the hand-rolled JSON row without escaping.
        let (commit, _dirty) = commit_context();
        assert!(!commit.is_empty());
        assert!(!commit.contains('"') && !commit.contains('\\'), "{commit}");
    }

    #[test]
    fn trend_rows_are_pinned_per_arm() {
        // `trend_check` and the committed BENCH_trend.jsonl key on these
        // exact bytes: key order, and one decimal for throughputs, three
        // for kernel timings and ratios.
        let ctx = ("abc1234", true);
        let bins = [
            ("scale", 1, "scale_decisions_per_s"),
            ("fleet", 4, "fleet_decisions_per_s"),
            ("service", 4, "service_decisions_per_s"),
        ];
        for (arms, threads, key) in bins {
            assert_eq!(
                trend_row(ctx, true, arms, threads, None, &[(key, 1234.56, 1)]),
                format!(
                    "{{\"schema\":\"ecost-bench-trend/1\",\"commit\":\"abc1234\",\
                     \"dirty\":true,\"mode\":\"quick\",\"arms\":\"{arms}\",\
                     \"threads\":{threads},\"{key}\":1234.6}}"
                )
            );
        }
        let report = trend_row(
            ("abc1234", false),
            false,
            "all",
            1,
            Some("on"),
            &[
                ("pair_batched_sims_per_s", 57280.04, 1),
                ("amva_1c_speedup", 2.0, 3),
            ],
        );
        assert_eq!(
            report,
            "{\"schema\":\"ecost-bench-trend/1\",\"commit\":\"abc1234\",\"dirty\":false,\
             \"mode\":\"full\",\"arms\":\"all\",\"threads\":1,\"simd\":\"on\",\
             \"pair_batched_sims_per_s\":57280.0,\"amva_1c_speedup\":2.000}"
        );
    }
}
