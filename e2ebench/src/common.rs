//! What the workloads share: arguments, the result record, the program's
//! set-up, and the checking wrapper around an STP.

use crate::spans::Spans;
use ecost_core::classify::KnnAppClassifier;
use ecost_core::stp::training::build_training_data;
use ecost_core::{AppSignature, ConfigDatabase, EngineStats, EvalEngine, EvalError, MlmStp, Stp};
use ecost_e2ebench::inputs::Digest;
use ecost_e2ebench::stats::{median, quantile};
use ecost_mapreduce::{BlockSize, PairConfig, TuningConfig};
use ecost_ml::{RepTree, RepTreeConfig};
use ecost_sim::Frequency;
use std::sync::Mutex;
use std::time::Instant;

/// Counter-measurement noise of the learning-period profile (±3 %), as in
/// the repository's experiments.
pub const NOISE: f64 = 0.03;

/// Seed of the program's own randomness (profiling noise, routing,
/// training sub-samples). Fixed, so the workload seed changes only the
/// inputs the program receives.
pub const PROGRAM_SEED: u64 = 0x0EC0_57C0_DE19_2019;

/// Configurations sampled per training pair for the REPTree models.
const TRAIN_CONFIGS_PER_PAIR: usize = 1000;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_out: Option<String>,
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run: figures, decision counts and failed checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Decisions attempted over the measured passes.
    pub attempted: u64,
    /// Decisions not answered with a tuned configuration.
    pub failed: u64,
    /// Reported figures.
    pub metrics: Vec<Metric>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Add a figure.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Report the end-to-end figures every workload shares. `attempted` and
/// `failed` must already be set.
pub fn report_end_to_end(
    out: &mut Outcome,
    setups: &[SetupTimes],
    throughput: &[f64],
    latency_ms: &[f64],
    edp: f64,
) {
    out.metric("setup_s", setup_median(setups, SetupTimes::total_s), "s");
    out.metric("decisions_per_s", median(throughput).unwrap_or(0.0), "1/s");
    out.metric(
        "decision_p50_ms",
        quantile(latency_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "decision_p99_ms",
        quantile(latency_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    out.metric("schedule_edp", edp, "J.s");
    let success = 1.0 - out.failed as f64 / out.attempted as f64;
    out.metric("success_rate", success, "fraction");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Report the tracing overhead: 1 − traced ÷ untraced median throughput.
pub fn report_trace_overhead(out: &mut Outcome, traced: &[f64], untraced: &[f64]) {
    let ratio = median(traced).unwrap_or(0.0) / median(untraced).unwrap_or(1.0);
    out.metric("trace.overhead", 1.0 - ratio, "fraction");
}

/// Report an engine's counters.
pub fn report_engine_counts(out: &mut Outcome, s: &EngineStats) {
    out.metric("engine.hits", s.hits as f64, "count");
    out.metric("engine.misses", s.misses as f64, "count");
    out.metric("engine.evictions", s.evictions as f64, "count");
    out.metric("engine.hit_rate", s.hit_rate(), "fraction");
    out.metric("engine.runs_simulated", s.runs_simulated as f64, "count");
    let pooled = s.sims_reused + s.sims_created;
    out.metric(
        "engine.pool_reuse",
        s.sims_reused as f64 / pooled.max(1) as f64,
        "fraction",
    );
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Host-clock marks of one set-up: its origin (process start for the
/// first set-up of a run) and the ends of input generation, the §6.2
/// database build and STP construction (the LkT table or the model fit).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Where the set-up's time is counted from.
    pub from: Instant,
    /// Start, inputs generated, database built, STP ready.
    pub marks: [Instant; 4],
}

impl SetupTimes {
    fn part(&self, i: usize) -> f64 {
        (self.marks[i + 1] - self.marks[i]).as_secs_f64()
    }

    /// Input generation, seconds.
    pub fn inputs_s(&self) -> f64 {
        self.part(0)
    }

    /// Database build, seconds.
    pub fn db_build_s(&self) -> f64 {
        self.part(1)
    }

    /// STP construction, seconds.
    pub fn train_s(&self) -> f64 {
        self.part(2)
    }

    /// From the origin to the first timed decision, seconds.
    pub fn total_s(&self) -> f64 {
        (self.marks[3] - self.from).as_secs_f64()
    }

    /// Record the set-up as a span with one child per phase.
    pub fn record(&self, spans: &mut Spans) {
        let parent = spans.push("setup", None, self.from, self.marks[3], Vec::new());
        for (i, name) in ["setup.inputs", "setup.db_build", "setup.train"]
            .into_iter()
            .enumerate()
        {
            spans.push(
                name,
                Some(parent),
                self.marks[i],
                self.marks[i + 1],
                Vec::new(),
            );
        }
    }
}

/// Median over set-ups of one of their figures.
pub fn setup_median(setups: &[SetupTimes], f: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Digest of everything the database stores that decisions depend on.
pub fn db_digest(db: &ConfigDatabase) -> u64 {
    let mut d = Digest::default();
    for e in &db.pairs {
        fold_pair(&mut d, &e.config);
        d.float(e.edp_wall);
        e.sig_a.iter().chain(&e.sig_b).for_each(|x| d.float(*x));
    }
    for s in &db.solos {
        fold_tuning(&mut d, &s.config);
        d.float(s.edp_wall);
    }
    d.0
}

/// The paper's REPTree MLM-STP (§7.2), trained on the database engine's
/// resident training sweeps.
pub fn train_reptree(
    engine: &EvalEngine,
    db: &ConfigDatabase,
) -> Result<MlmStp<RepTree>, EvalError> {
    let sigs: Vec<_> = db.solos.iter().map(|s| (s.app, s.size, s.sig)).collect();
    let sig_of = |app, size| {
        sigs.iter()
            .find(|(a, s, _)| *a == app && *s == size)
            .map(|(_, _, sig)| *sig)
            .expect("every training app and size is profiled in the database")
    };
    let data = build_training_data(engine, &sig_of, TRAIN_CONFIGS_PER_PAIR, PROGRAM_SEED)?;
    // The repository's experiment settings: fine-grained trees, since the
    // EDP surface is spiky in the knobs.
    let tree = RepTreeConfig {
        max_depth: 32,
        min_samples_split: 4,
        min_samples_leaf: 1,
        prune_fraction: 0.1,
        ..RepTreeConfig::default()
    };
    let knn = KnnAppClassifier::fit(&db.signatures);
    Ok(MlmStp::train(&data, knn, "REPTree", || {
        RepTree::new(tree.clone())
    }))
}

/// Fold a tuning configuration into a digest.
pub fn fold_tuning(d: &mut Digest, t: &TuningConfig) {
    d.word(t.freq.index() as u64);
    d.word(t.block.index() as u64);
    d.word(u64::from(t.mappers));
}

/// Fold a pair configuration into a digest.
pub fn fold_pair(d: &mut Digest, c: &PairConfig) {
    fold_tuning(d, &c.a);
    fold_tuning(d, &c.b);
}

/// A pair configuration the paper's search space contains: knobs from the
/// studied sets, at least one mapper each, and no more mappers than cores.
pub fn valid_pair(c: &PairConfig, cores: u32) -> bool {
    let knobs = |t: &TuningConfig| {
        Frequency::ALL.contains(&t.freq) && BlockSize::ALL.contains(&t.block) && t.mappers >= 1
    };
    knobs(&c.a) && knobs(&c.b) && c.cores() <= cores
}

/// What the checking wrapper saw during one pass.
#[derive(Debug, Default)]
pub struct StpLog {
    /// `choose` calls.
    pub calls: u64,
    /// Answers outside the search space.
    pub invalid: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Digest of every answer, in call order.
    pub digest: Digest,
    /// Start and end of each call, when timed.
    pub times: Vec<(Instant, Instant)>,
}

/// An [`Stp`] that checks (and, when `timed`, times) every answer of the
/// technique it wraps, passing the answer through unchanged.
pub struct CheckedStp<'a> {
    inner: &'a dyn Stp,
    timed: bool,
    log: Mutex<StpLog>,
}

impl<'a> CheckedStp<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn Stp, timed: bool) -> CheckedStp<'a> {
        CheckedStp {
            inner,
            timed,
            log: Mutex::new(StpLog::default()),
        }
    }

    /// Take this pass's log, leaving an empty one.
    pub fn take_log(&self) -> StpLog {
        std::mem::take(&mut *self.log.lock().expect("STP log lock poisoned"))
    }
}

impl Stp for CheckedStp<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn choose(
        &self,
        a: &AppSignature,
        b: &AppSignature,
        cores: u32,
    ) -> Result<PairConfig, EvalError> {
        let start = self.timed.then(Instant::now);
        let out = self.inner.choose(a, b, cores);
        let span = start.map(|s| (s, Instant::now()));
        let mut log = self.log.lock().expect("STP log lock poisoned");
        log.calls += 1;
        match &out {
            Ok(cfg) => {
                if !valid_pair(cfg, cores) {
                    log.invalid += 1;
                }
                fold_pair(&mut log.digest, cfg);
            }
            Err(_) => log.errors += 1,
        }
        if let Some(span) = span {
            log.times.push(span);
        }
        out
    }
}
