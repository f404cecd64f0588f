//! Plain-text table rendering and results-file helpers for the experiment
//! binaries.

use crate::engine::EngineStats;
use ecost_telemetry::Recorder;
use std::fmt::Write as _;
use std::path::Path;

/// A fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "column mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = width[i]);
            }
            let _ = writeln!(out);
        };
        line(&self.header, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * cols;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Render as CSV (title omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Print a table to stdout and save both text and CSV renderings under
/// `results/<name>.{txt,csv}` (directory created if needed).
pub fn emit(table: &Table, results_dir: impl AsRef<Path>, name: &str) -> std::io::Result<()> {
    let rendered = table.render();
    print!("{rendered}");
    let dir = results_dir.as_ref();
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.txt")), &rendered)?;
    std::fs::write(dir.join(format!("{name}.csv")), table.to_csv())?;
    Ok(())
}

/// Render an [`EngineStats`] snapshot as a table: how much simulation ran
/// vs was served from the memo, and what the fault machinery did (fault
/// events applied, transient retries, graceful fallbacks).
pub fn engine_stats_table(title: &str, stats: &EngineStats) -> Table {
    let mut t = Table::new(title, &["metric", "value"]);
    t.row(&["runs simulated".into(), stats.runs_simulated.to_string()]);
    t.row(&["cache hits".into(), stats.hits.to_string()]);
    t.row(&["cache misses".into(), stats.misses.to_string()]);
    t.row(&["cache hit rate %".into(), f(100.0 * stats.hit_rate(), 1)]);
    t.row(&["simulation wall s".into(), f(stats.wall_seconds, 2)]);
    t.row(&["faults injected".into(), stats.faults_injected.to_string()]);
    t.row(&["transient retries".into(), stats.retries.to_string()]);
    t.row(&["graceful fallbacks".into(), stats.fallbacks.to_string()]);
    t.row(&["simulators created".into(), stats.sims_created.to_string()]);
    t.row(&["simulators reused".into(), stats.sims_reused.to_string()]);
    t
}

/// [`engine_stats_table`] extended with wait-queue depth statistics from
/// the telemetry registry (the `scheduler.queue_depth` gauge, sampled at
/// every scheduler decision point). Zero samples means the experiment
/// never drove the streaming scheduler.
pub fn telemetry_stats_table(title: &str, stats: &EngineStats, recorder: &Recorder) -> Table {
    let mut t = engine_stats_table(title, stats);
    let snapshot = recorder.metrics().snapshot();
    let (samples, mean, max) = match snapshot.gauge("scheduler.queue_depth") {
        Some(g) => (g.count, g.mean, g.max),
        None => (0, 0.0, 0),
    };
    t.row(&["queue depth samples".into(), samples.to_string()]);
    t.row(&["queue depth mean".into(), f(mean, 2)]);
    t.row(&["queue depth max".into(), max.to_string()]);
    t
}

/// Format a float with `prec` decimals (table-cell helper).
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "2.50".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("longer"));
        assert_eq!(t.len(), 2);
        // All data lines have equal length (alignment).
        let lines: Vec<&str> = r.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[3].len().max(lines[2].len()));
    }

    #[test]
    fn csv_is_parseable() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn row_arity_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn emit_writes_files() {
        let dir = std::env::temp_dir().join("ecost_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new("demo", &["a"]);
        t.row(&["1".into()]);
        emit(&t, &dir, "x").unwrap();
        assert!(dir.join("x.txt").exists());
        assert!(dir.join("x.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
