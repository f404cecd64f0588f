//! The unified evaluation engine — one fallible, memoized simulation
//! service behind everything that asks "what does this (pair of) job(s)
//! cost under this configuration?".
//!
//! Before this module existed, the oracle sweeps, the COLAO/ILAO baselines,
//! the §6.2 database build, the MLM training-set construction and the
//! cluster scheduler each drove the executor directly, with ad-hoc caching
//! (`SweepCache`, `mapping.rs`'s private `pair_best` table) scattered
//! between them. [`EvalEngine`] replaces all of that: it owns the
//! [`Testbed`] and a sharded, concurrent memo of every solo and pair
//! evaluation, keyed on an application-profile fingerprint × input size ×
//! configuration. The database build, the baselines and the training set
//! now simulate each pair configuration at most once, and the engine's
//! [`EngineStats`] expose exactly how much simulation the run really paid
//! for (Fig 8's overhead accounting).
//!
//! Every entry point returns `Result<_, EvalError>`: the AMVA substrate's
//! failures ([`ecost_sim::SimError`]) propagate as typed errors instead of
//! panics, so `unwrap`/`expect` survive only in the experiment harness and
//! tests.

mod cache;
mod error;
mod pool;
mod retry;

pub use error::EvalError;
pub use retry::RetryPolicy;

use crate::features::Testbed;
use cache::ShardedCache;
use ecost_apps::catalog::ALL_APPS;
use ecost_apps::{AppClass, AppProfile};
use ecost_mapreduce::executor::JobOutcome;
use ecost_mapreduce::{
    run_batch_to_completion, BatchScratch, JobMetrics, JobSpec, NodeSim, PairConfig, PairMetrics,
    TuningConfig, MAX_BATCH_LANES,
};
use ecost_sim::{SimError, SimdBackend};
use ecost_telemetry::{Counter, Event, Recorder, Registry};
use pool::SimPool;
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Lane windows one sweep span drives between pool checkouts.
///
/// A sweep holds a whole span's simulators checked out across consecutive
/// windows, resetting lane state in place between windows, so the pool's
/// lock and the multi-KB per-simulator moves are paid once per span instead
/// of once per window. Kept small enough that a full sweep still splits
/// into plenty of spans for the rayon workers.
const WINDOWS_PER_SPAN: usize = 8;

/// Sweep points one span covers: [`WINDOWS_PER_SPAN`] full lane windows.
const SPAN_POINTS: usize = MAX_BATCH_LANES * WINDOWS_PER_SPAN;

/// Result of a standalone run at one configuration.
#[derive(Debug, Clone)]
pub struct SoloRun {
    /// The configuration.
    pub config: TuningConfig,
    /// Measured metrics.
    pub metrics: JobMetrics,
}

/// Result of a co-located run at one pair configuration.
#[derive(Debug, Clone)]
pub struct PairRun {
    /// The pair configuration.
    pub config: PairConfig,
    /// Makespan + energy of the pair.
    pub metrics: PairMetrics,
}

impl PairRun {
    /// This run, stored in the engine's normalised orientation, as seen
    /// by a query whose `(a, b)` order is the reverse when `swapped`.
    fn oriented(self, swapped: bool) -> PairRun {
        PairRun {
            config: if swapped {
                self.config.swapped()
            } else {
                self.config
            },
            metrics: self.metrics,
        }
    }
}

/// One memo entry of the sweep table: every point's metrics, in
/// [`PairConfig::space`] order (point *i*'s config is the engine's shared
/// space at *i*, so it is not stored), and the wall-EDP winner's index
/// under the engine's idle power, found once when the sweep is stored.
#[derive(Debug)]
struct StoredSweep {
    metrics: Box<[PairMetrics]>,
    best: usize,
}

impl StoredSweep {
    /// The wall-EDP winner in stored orientation: the winners-table entry.
    fn winner(&self, space: &[PairConfig]) -> PairRun {
        PairRun {
            config: space[self.best],
            metrics: self.metrics[self.best],
        }
    }
}

/// Index of the wall-EDP minimum: the first one under `total_cmp`, the
/// element `Iterator::min_by` returns.
fn wall_edp_argmin(metrics: &[PairMetrics], idle_w: f64) -> Option<usize> {
    metrics
        .iter()
        .enumerate()
        .min_by(|(_, x), (_, y)| x.edp_wall(idle_w).total_cmp(&y.edp_wall(idle_w)))
        .map(|(i, _)| i)
}

/// A memoized full pair sweep, in the engine's *stored* orientation.
///
/// The engine normalises `(a, b)` and `(b, a)` to one cache entry; when
/// [`PairSweep::swapped`] is true the stored runs' `config.a` applies to
/// the *second* application of the caller's query. [`PairSweep::best`]
/// reorients the winner automatically.
#[derive(Debug, Clone)]
pub struct PairSweep {
    stored: Arc<StoredSweep>,
    space: Arc<[PairConfig]>,
    swapped: bool,
}

impl PairSweep {
    /// The swept runs, in stored orientation and sweep order.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = PairRun> + '_ {
        self.space
            .iter()
            .zip(self.stored.metrics.iter())
            .map(|(&config, &metrics)| PairRun { config, metrics })
    }

    /// Run `i` of [`Self::runs`], or `None` past the end.
    pub fn run(&self, i: usize) -> Option<PairRun> {
        Some(PairRun {
            config: *self.space.get(i)?,
            metrics: *self.stored.metrics.get(i)?,
        })
    }

    /// True when the stored orientation is the reverse of the query's.
    pub fn swapped(&self) -> bool {
        self.swapped
    }

    /// Number of swept configurations.
    pub fn len(&self) -> usize {
        self.stored.metrics.len()
    }

    /// True when the sweep is empty (never: the engine stores no empty
    /// sweep).
    pub fn is_empty(&self) -> bool {
        self.stored.metrics.is_empty()
    }

    /// Wall-EDP winner under the engine's idle power, reoriented to the
    /// query's `(a, b)` order. Stored with the sweep: no scan.
    pub fn best(&self) -> PairRun {
        self.stored.winner(&self.space).oriented(self.swapped)
    }
}

/// Counter snapshot of an engine's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Cache probes answered from the memo.
    pub hits: u64,
    /// Cache probes that had to simulate.
    pub misses: u64,
    /// Individual executor runs actually simulated (solo runs count 1,
    /// pair-configuration points count 1).
    pub runs_simulated: u64,
    /// Wall-clock seconds spent inside miss-path simulation (whole-sweep
    /// elapsed for sweeps, per-run elapsed for single evaluations).
    pub wall_seconds: f64,
    /// Fault events (crashes, slowdowns, stragglers) applied to runs driven
    /// through this engine.
    pub faults_injected: u64,
    /// Transient-failure retries performed under a [`RetryPolicy`].
    pub retries: u64,
    /// Graceful degradations taken (solo placement instead of a pair,
    /// class-default configuration instead of a learned one).
    pub fallbacks: u64,
    /// Miss-path runs that had to construct a fresh simulator (pool
    /// empty). Scheduling-dependent: roughly one per concurrently active
    /// worker thread, not one per run.
    pub sims_created: u64,
    /// Miss-path runs served by a reset, pooled simulator — each one is a
    /// full `NodeSim` construction (spec/framework clones + solver
    /// scratch) that was *not* allocated.
    pub sims_reused: u64,
    /// Memo entries evicted under a [`CacheBudget`] (always 0 on an
    /// unbounded engine). Eviction changes hit counts, never values:
    /// a re-probed evicted key re-simulates to the identical result.
    pub evictions: u64,
}

impl EngineStats {
    /// Fraction of probes served from cache (0 when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The all-zero snapshot (what a fresh engine reports).
    pub fn zero() -> EngineStats {
        EngineStats {
            hits: 0,
            misses: 0,
            runs_simulated: 0,
            wall_seconds: 0.0,
            faults_injected: 0,
            retries: 0,
            fallbacks: 0,
            sims_created: 0,
            sims_reused: 0,
            evictions: 0,
        }
    }
}

impl std::ops::Add for EngineStats {
    type Output = EngineStats;

    fn add(self, rhs: EngineStats) -> EngineStats {
        EngineStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            runs_simulated: self.runs_simulated + rhs.runs_simulated,
            wall_seconds: self.wall_seconds + rhs.wall_seconds,
            faults_injected: self.faults_injected + rhs.faults_injected,
            retries: self.retries + rhs.retries,
            fallbacks: self.fallbacks + rhs.fallbacks,
            sims_created: self.sims_created + rhs.sims_created,
            sims_reused: self.sims_reused + rhs.sims_reused,
            evictions: self.evictions + rhs.evictions,
        }
    }
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: EngineStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        iter.fold(EngineStats::zero(), |acc, s| acc + s)
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs simulated, {:.1}% cache hit rate ({} hits / {} misses), {:.2} s simulating, \
             {} faults / {} retries / {} fallbacks",
            self.runs_simulated,
            100.0 * self.hit_rate(),
            self.hits,
            self.misses,
            self.wall_seconds,
            self.faults_injected,
            self.retries,
            self.fallbacks
        )?;
        write!(
            f,
            ", {} sims created / {} reused from pool, {} evictions",
            self.sims_created, self.sims_reused, self.evictions
        )
    }
}

/// Entry budgets for the engine's memo tables; `None` fields are
/// unbounded (the classic memo). Budgets count *entries*, not bytes: a
/// solo entry is one [`JobOutcome`], a pair-point entry one
/// [`PairMetrics`], but a sweep entry is a whole configuration sweep
/// (thousands of points), so sweep budgets deserve the smallest numbers.
/// The fourth table, each swept pair's wall-EDP winner (one
/// [`PairConfig`] and its [`PairMetrics`], kept after the pair's sweep is
/// evicted), holds one pair-configuration point per entry, so
/// [`CacheBudget::pair_points`] bounds it as well.
///
/// Bounding a cache changes hit counts, never values — an evicted key that
/// gets re-probed is re-simulated to the bit-identical result (pinned by a
/// property test). Each table splits its budget over 16 shards, so the
/// effective minimum is 16 entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBudget {
    /// Max memoized solo outcomes.
    pub solo: Option<usize>,
    /// Max memoized full pair sweeps.
    pub sweeps: Option<usize>,
    /// Max memoized single pair-configuration points, and, separately,
    /// max memoized sweep winners.
    pub pair_points: Option<usize>,
}

impl CacheBudget {
    /// No bounds anywhere — entries accumulate for the engine's lifetime.
    pub fn unbounded() -> CacheBudget {
        CacheBudget::default()
    }

    /// The same entry budget on every table.
    pub fn entries(n: usize) -> CacheBudget {
        CacheBudget {
            solo: Some(n),
            sweeps: Some(n),
            pair_points: Some(n),
        }
    }
}

/// FNV-1a folder for profile fingerprints.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Bit patterns of a profile's 14 numeric demand fields, in the order
/// [`fingerprint`] folds them.
fn demand_bits(p: &AppProfile) -> [u64; 14] {
    [
        p.map_cycles_per_mb,
        p.task_overhead_cycles,
        p.map_selectivity,
        p.spill_factor,
        p.reduce_cycles_per_mb,
        p.output_selectivity,
        p.job_overhead_s,
        p.llc_mpki,
        p.ipc_base,
        p.mem_stall_frac,
        p.icache_mpki,
        p.branch_misp_pct,
        p.working_set_frac,
        p.footprint_base_mb,
    ]
    .map(f64::to_bits)
}

/// FNV-1a over the name, the class and the demand bit patterns.
fn fnv_fingerprint(name: &str, class: AppClass, bits: &[u64; 14]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(name.as_bytes());
    h.bytes(&[class as u8]);
    for x in bits {
        h.bytes(&x.to_le_bytes());
    }
    h.0
}

/// The 11 catalog profiles' fingerprints, hashed once per process, in
/// [`ALL_APPS`] order.
struct CatalogFingerprints {
    /// Each profile's first demand field (`map_cycles_per_mb`) bits,
    /// packed into two cache lines. No two catalog profiles share it, so
    /// one short scan finds the only entry a profile can match.
    first: [u64; 11],
    fp: [u64; 11],
}

static CATALOG_FINGERPRINTS: OnceLock<CatalogFingerprints> = OnceLock::new();

fn catalog_fingerprints() -> &'static CatalogFingerprints {
    CATALOG_FINGERPRINTS.get_or_init(|| CatalogFingerprints {
        first: ALL_APPS.map(|app| app.profile().map_cycles_per_mb.to_bits()),
        fp: ALL_APPS.map(|app| {
            let p = app.profile();
            fnv_fingerprint(p.name, p.class, &demand_bits(p))
        }),
    })
}

/// Fingerprint of an application profile: name plus the bit patterns of
/// every numeric demand field. Two profiles with the same name but
/// perturbed demands (e.g. noisy clones) therefore key separately.
///
/// A profile whose fingerprinted fields equal a catalog entry's (the
/// catalog profile itself, or any clone of it) reuses that entry's
/// precomputed value; any other profile is hashed. Both give the same
/// value, so memo keys, shard choice and eviction order do not depend on
/// which path answered.
fn fingerprint(p: &AppProfile) -> u64 {
    let bits = demand_bits(p);
    let catalog = catalog_fingerprints();
    catalog
        .first
        .iter()
        .position(|&first| first == bits[0])
        .filter(|&i| {
            let c = ALL_APPS[i].profile();
            demand_bits(c) == bits && c.class == p.class && c.name == p.name
        })
        .map_or_else(
            || fnv_fingerprint(p.name, p.class, &bits),
            |i| catalog.fp[i],
        )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SoloKey {
    fp: u64,
    mb: u64,
    cfg: TuningConfig,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PairKey {
    fp_a: u64,
    a_mb: u64,
    fp_b: u64,
    b_mb: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PairPointKey {
    pair: PairKey,
    cfg: PairConfig,
}

/// Cached handles into the telemetry registry — one per engine metric, so
/// the hot paths pay exactly one relaxed atomic add per probe and never a
/// registry lookup. [`EngineStats`] is a read-only view over the first
/// ten: the registry is the single source of truth.
#[derive(Debug, Clone)]
struct EngineCounters {
    hits: Counter,
    misses: Counter,
    runs: Counter,
    wall_ns: Counter,
    faults: Counter,
    retries: Counter,
    fallbacks: Counter,
    sims_created: Counter,
    sims_reused: Counter,
    evictions: Counter,
    /// Rate problems (one simulator's job mix) the sweep path solved.
    rate_solved: Counter,
    /// Rate problems it answered from a worker's reuse table instead.
    rate_reused: Counter,
}

impl EngineCounters {
    /// Counters under a per-engine namespace. The registry interns
    /// counters by name, so two engines built on the same registry with
    /// the bare names would *alias* each other's counters and every
    /// per-engine stat would double-count. A non-empty scope prefixes the
    /// names (`<scope>.engine.cache_hits`, …), giving each engine its own
    /// rows while the shared registry still sees them all.
    fn scoped(reg: &Registry, scope: &str) -> EngineCounters {
        let name = |leaf: &str| {
            if scope.is_empty() {
                format!("engine.{leaf}")
            } else {
                format!("{scope}.engine.{leaf}")
            }
        };
        EngineCounters {
            hits: reg.counter(&name("cache_hits")),
            misses: reg.counter(&name("cache_misses")),
            runs: reg.counter(&name("runs_simulated")),
            wall_ns: reg.counter(&name("wall_ns")),
            faults: reg.counter(&name("faults_injected")),
            retries: reg.counter(&name("retries")),
            fallbacks: reg.counter(&name("fallbacks")),
            sims_created: reg.counter(&name("sims_created")),
            sims_reused: reg.counter(&name("sims_reused")),
            evictions: reg.counter(&name("cache_evictions")),
            rate_solved: reg.counter(&name("rate_problems_solved")),
            rate_reused: reg.counter(&name("rate_problems_reused")),
        }
    }
}

/// The evaluation service. Owns the testbed and every memo table; share it
/// by reference (all methods take `&self` and are thread-safe).
#[derive(Debug)]
pub struct EvalEngine {
    tb: Testbed,
    solo: ShardedCache<SoloKey, Arc<JobOutcome>>,
    sweeps: ShardedCache<PairKey, Arc<StoredSweep>>,
    pair_points: ShardedCache<PairPointKey, PairMetrics>,
    /// Each swept pair's wall-EDP winner in stored orientation
    /// ([`StoredSweep::winner`]), kept after the sweep itself is evicted:
    /// [`Self::best_pair`] answers from here first.
    winners: ShardedCache<PairKey, PairRun>,
    /// [`PairConfig::space`] of the testbed's node, built once: every
    /// stored sweep is indexed by it and every sweep miss chunks it.
    pair_space: Arc<[PairConfig]>,
    pool: SimPool,
    recorder: Recorder,
    counters: EngineCounters,
    /// AMVA vector backend for sweep windows, detected at construction
    /// ([`Self::with_simd`] pins the scalar kernel instead).
    simd: SimdBackend,
}

impl EvalEngine {
    /// Engine over an explicit testbed, with a no-op recorder (metrics
    /// live, trace events dropped).
    pub fn new(tb: Testbed) -> EvalEngine {
        EvalEngine::with_recorder(tb, Recorder::noop())
    }

    /// Engine reporting into an explicit telemetry recorder.
    pub fn with_recorder(tb: Testbed, recorder: Recorder) -> EvalEngine {
        EvalEngine::with_scoped_recorder(tb, recorder, "")
    }

    /// Engine reporting into `recorder` under a per-engine metric scope.
    ///
    /// Multiple engines sharing one registry must use distinct non-empty
    /// scopes: the registry interns counters by name, so unscoped engines
    /// on the same registry alias the same `engine.*` rows and each
    /// engine's [`Self::stats`] reports the *sum* of all traffic instead
    /// of its own. A scope `s` renames the rows `s.engine.cache_hits`
    /// etc., keeping per-engine snapshots independent while still landing
    /// in the shared registry for fleet-wide aggregation.
    pub fn with_scoped_recorder(tb: Testbed, recorder: Recorder, scope: &str) -> EvalEngine {
        let counters = EngineCounters::scoped(recorder.metrics(), scope);
        let ev = &counters.evictions;
        let pair_space = PairConfig::space(tb.node.cores).into();
        EvalEngine {
            tb,
            solo: ShardedCache::new(ev.clone()),
            sweeps: ShardedCache::new(ev.clone()),
            pair_points: ShardedCache::new(ev.clone()),
            winners: ShardedCache::new(ev.clone()),
            pair_space,
            pool: SimPool::new(),
            recorder,
            counters,
            simd: SimdBackend::detect(),
        }
    }

    /// Bound the memo tables to `budget` entries each (see [`CacheBudget`]
    /// for the per-table semantics; the winners table takes the
    /// `pair_points` budget). Replaces the tables, so any entries
    /// memoized so far are discarded. Eviction activity shows up in
    /// [`EngineStats::evictions`] and the `engine.cache_evictions`
    /// telemetry counter.
    pub fn with_cache_budget(mut self, budget: CacheBudget) -> EvalEngine {
        let ev = &self.counters.evictions;
        self.solo = ShardedCache::with_budget(budget.solo, ev.clone());
        self.sweeps = ShardedCache::with_budget(budget.sweeps, ev.clone());
        self.pair_points = ShardedCache::with_budget(budget.pair_points, ev.clone());
        self.winners = ShardedCache::with_budget(budget.pair_points, ev.clone());
        self
    }

    /// Toggle the explicit `f64x4` AMVA kernel for sweep windows. `false`
    /// pins the always-available scalar lane loop (the bench `--no-simd`
    /// arm); `true` re-detects the best backend for this CPU. Every
    /// backend is bit-identical to a scalar solve, so this knob changes
    /// throughput, never results.
    pub fn with_simd(mut self, on: bool) -> EvalEngine {
        self.simd = if on {
            SimdBackend::detect()
        } else {
            SimdBackend::Scalar
        };
        self
    }

    /// The AMVA vector backend sweep windows will use.
    pub fn simd_backend(&self) -> SimdBackend {
        self.simd
    }

    /// The telemetry recorder this engine (and every run driven through
    /// it) reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Engine over the paper's Atom testbed (the common case).
    pub fn atom() -> EvalEngine {
        EvalEngine::new(Testbed::atom())
    }

    /// The testbed this engine simulates on.
    pub fn testbed(&self) -> &Testbed {
        &self.tb
    }

    /// Idle power of one testbed node, watts.
    pub fn idle_w(&self) -> f64 {
        self.tb.idle_w()
    }

    /// Snapshot of lifetime counters — a read-only view over the telemetry
    /// registry (the counters live there; this struct holds no state of
    /// its own).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            runs_simulated: self.counters.runs.get(),
            wall_seconds: self.counters.wall_ns.get() as f64 * 1e-9,
            faults_injected: self.counters.faults.get(),
            retries: self.counters.retries.get(),
            fallbacks: self.counters.fallbacks.get(),
            sims_created: self.counters.sims_created.get(),
            sims_reused: self.counters.sims_reused.get(),
            evictions: self.counters.evictions.get(),
        }
    }

    /// Number of full pair sweeps currently memoized.
    pub fn cached_pair_sweeps(&self) -> usize {
        self.sweeps.len()
    }

    /// Number of memoized solo outcomes.
    pub fn cached_solo_runs(&self) -> usize {
        self.solo.len()
    }

    /// Number of memoized single pair-configuration points.
    pub fn cached_pair_points(&self) -> usize {
        self.pair_points.len()
    }

    /// Total resident memo entries across all four tables (solo outcomes,
    /// pair sweeps, pair points and sweep winners) — the scale bench's
    /// peak-RSS proxy. Under a [`CacheBudget`] this never exceeds the sum
    /// of the per-table budgets, with `pair_points` counted twice (it
    /// bounds the winners table too).
    pub fn cached_entries(&self) -> usize {
        self.solo.len() + self.sweeps.len() + self.pair_points.len() + self.winners.len()
    }

    /// Simulators currently idle in the pool (diagnostics; equals
    /// `sims_created` whenever no run is in flight, since every successful
    /// run returns its simulator).
    pub fn pooled_sims(&self) -> usize {
        self.pool.idle()
    }

    /// Cache probe served from the memo. Cache events carry no simulated
    /// timestamp of their own — the engine has no clock — so they are
    /// stamped t = 0.
    fn hit(&self, cache: &'static str) {
        self.counters.hits.inc();
        self.recorder
            .emit(0.0, None, None, || Event::CacheHit { cache });
    }

    /// Cache probe that has to simulate.
    fn miss(&self, cache: &'static str) {
        self.counters.misses.inc();
        self.recorder
            .emit(0.0, None, None, || Event::CacheMiss { cache });
    }

    fn charge(&self, runs: u64, elapsed_ns: u64) {
        self.counters.runs.add(runs);
        self.counters.wall_ns.add(elapsed_ns);
    }

    /// Run `jobs` co-located on a pooled simulator — the single-point path
    /// behind every `solo_outcome` and `pair_metrics` miss. Semantically
    /// identical to the executor's `run_colocated` convenience (same submit
    /// order, same event loop), but the simulator comes from — and, on
    /// success, returns to — the engine's pool instead of being constructed
    /// per run, so a long run of point misses reuses one warm simulator.
    fn run_pooled(
        &self,
        jobs: impl IntoIterator<Item = JobSpec>,
    ) -> Result<(Vec<JobOutcome>, f64), EvalError> {
        let (mut sim, reused) = self.pool.acquire(&self.tb.node, &self.tb.fw);
        if reused {
            self.counters.sims_reused.inc();
        } else {
            self.counters.sims_created.inc();
        }
        let run = (|| -> Result<(Vec<JobOutcome>, f64), SimError> {
            for j in jobs {
                sim.submit(j)?;
            }
            sim.run_to_completion()?;
            let makespan = sim.now();
            Ok((sim.take_finished(), makespan))
        })();
        match run {
            Ok(out) => {
                self.pool.release(sim);
                Ok(out)
            }
            // A failed run drops its simulator: a rebuild on the next miss
            // is cheaper than ever pooling half-advanced state.
            Err(e) => Err(e.into()),
        }
    }

    /// Solve a sweep's cache-missed `points`, one result per point in
    /// point order: `submit` loads a point's job(s) into a lane and
    /// `read_out` takes a finished lane's result.
    ///
    /// The points are cut into one contiguous run per rayon worker, each a
    /// whole number of spans ([`SPAN_POINTS`]). A worker runs its spans
    /// in order through [`Self::run_span`] with one [`BatchScratch`], so
    /// the scratch's rate-solution reuse table carries over from span to
    /// span: a recurring job mix is solved once per worker, not once per
    /// span. Every lane stays bit-identical to a scalar run of its point.
    fn run_sweep<P: Sync, T: Send>(
        &self,
        points: &[P],
        submit: impl Fn(&mut NodeSim, &P) -> Result<(), SimError> + Sync,
        read_out: impl Fn(&mut NodeSim) -> Result<T, SimError> + Sync,
    ) -> Result<Vec<T>, EvalError> {
        let spans = points.len().div_ceil(SPAN_POINTS);
        let run_points = spans.div_ceil(rayon::current_num_threads()).max(1) * SPAN_POINTS;
        // The shim's map is order-preserving, so flattening the runs
        // restores point order.
        let runs: Vec<&[P]> = points.chunks(run_points).collect();
        let solved = runs
            .into_par_iter()
            .map(|run| {
                let mut scratch = BatchScratch::new(self.simd);
                let mut out = Vec::with_capacity(run.len());
                for span in run.chunks(SPAN_POINTS) {
                    self.run_span(span, &mut scratch, &submit, &read_out, &mut out)?;
                }
                Ok(out)
            })
            .collect::<Result<Vec<Vec<T>>, EvalError>>()?;
        // Callers keep the result, so size it exactly.
        let mut out = Vec::with_capacity(points.len());
        for run in solved {
            out.extend(run);
        }
        Ok(out)
    }

    /// Solve one sweep *span* of cache-missed points in lane windows of
    /// [`MAX_BATCH_LANES`] on `scratch`, appending one result per point,
    /// in span order, to `out`. The span's simulators are
    /// checked out once (the pool accounting for every run the span will
    /// serve), every window submits into the resident lanes, runs to
    /// completion and resets lane state in place, so the pool's lock and
    /// the multi-KB per-simulator moves are paid once per span instead of
    /// once per window. Every lane is bit-identical to a scalar run of the
    /// same point. The span's rate-problem counts (solved, and answered
    /// from the scratch's reuse table) go to the engine's
    /// `engine.rate_problems_{solved,reused}` registry counters. On any
    /// failure the span's simulators are dropped, mirroring
    /// [`Self::run_pooled`]'s error policy.
    fn run_span<P, T>(
        &self,
        span: &[P],
        scratch: &mut BatchScratch,
        submit: impl Fn(&mut NodeSim, &P) -> Result<(), SimError>,
        read_out: impl Fn(&mut NodeSim) -> Result<T, SimError>,
        out: &mut Vec<T>,
    ) -> Result<(), EvalError> {
        let width = span.len().min(MAX_BATCH_LANES);
        let mut sims = Vec::with_capacity(width);
        let (reused, built) =
            self.pool
                .acquire_window(&self.tb.node, &self.tb.fw, width, &mut sims);
        if built > 0 {
            self.counters.sims_created.add(built);
        }
        // Every lane run past the first window reuses a resident simulator;
        // count those too, so pool accounting keeps meaning "runs served by
        // a warm simulator".
        let reused_runs = reused + (span.len() - width) as u64;
        if reused_runs > 0 {
            self.counters.sims_reused.add(reused_runs);
        }
        let run = (|| -> Result<(), SimError> {
            for window in span.chunks(MAX_BATCH_LANES) {
                let lanes = &mut sims[..window.len()];
                for (sim, point) in lanes.iter_mut().zip(window) {
                    submit(sim, point)?;
                }
                run_batch_to_completion(lanes, scratch)?;
                for sim in lanes {
                    out.push(read_out(sim)?);
                    sim.reset();
                }
            }
            Ok(())
        })();
        let counts = scratch.take_phases();
        self.counters.rate_solved.add(counts.solved);
        self.counters.rate_reused.add(counts.reused);
        // Simulators from a failed span are dropped, never shelved — the
        // pool's half-advanced-state policy.
        run?;
        self.pool.release_window(&mut sims);
        Ok(())
    }

    /// Record a fault event applied at simulated time `t_s` to a run
    /// driven through this engine. `kind` is the fault's short name
    /// ("node-crash", "node-slowdown", "straggler").
    pub fn note_fault(&self, t_s: f64, kind: &str) {
        self.counters.faults.inc();
        self.recorder.emit(t_s, None, None, || Event::FaultFired {
            kind: kind.to_string(),
        });
    }

    /// Record a transient-failure retry at simulated time `t_s`, charging
    /// `backoff_s` simulated seconds.
    pub fn note_retry(&self, t_s: f64, backoff_s: f64) {
        self.counters.retries.inc();
        self.recorder
            .emit(t_s, None, None, || Event::Retry { backoff_s });
    }

    /// Record a graceful degradation at simulated time `t_s` (solo
    /// placement, class-default config).
    pub fn note_fallback(&self, t_s: f64, what: &'static str) {
        self.counters.fallbacks.inc();
        self.recorder
            .emit(t_s, None, None, || Event::Fallback { what });
    }

    /// Run `op`, retrying transient failures under `policy`. `t_s` is the
    /// simulated time the evaluation is issued at (used to stamp retry
    /// events). Returns the value plus the *simulated* backoff seconds
    /// accrued; the caller adds those to its simulated clock so retries
    /// cost EDP, not just wall time. Non-transient errors and exhausted
    /// budgets propagate.
    pub fn with_retry<T>(
        &self,
        policy: &RetryPolicy,
        t_s: f64,
        mut op: impl FnMut() -> Result<T, EvalError>,
    ) -> Result<(T, f64), EvalError> {
        let mut backoff_s = 0.0;
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok((v, backoff_s)),
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    let step_s = policy.backoff_for(attempt);
                    backoff_s += step_s;
                    attempt += 1;
                    self.note_retry(t_s, step_s);
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ---- solo evaluations --------------------------------------------------

    /// Full outcome (metrics, usage record, timeline) of one standalone
    /// run. This is the memo primitive behind [`Self::solo_metrics`],
    /// [`Self::sweep_solo`] and the profiling/learning period.
    pub fn solo_outcome(
        &self,
        profile: &AppProfile,
        input_mb: f64,
        cfg: TuningConfig,
    ) -> Result<Arc<JobOutcome>, EvalError> {
        check_input_mb(input_mb)?;
        let key = SoloKey {
            fp: fingerprint(profile),
            mb: input_mb.to_bits(),
            cfg,
        };
        if let Some(hit) = self.solo.get(&key) {
            self.hit("solo");
            return Ok(hit);
        }
        self.miss("solo");
        let t0 = Instant::now();
        let job = JobSpec::from_profile(profile.clone(), input_mb, cfg);
        let (mut outs, _) = self.run_pooled([job])?;
        let out = outs
            .pop()
            .ok_or(SimError::Internal("one job submitted, none finished"))?;
        self.charge(1, t0.elapsed().as_nanos() as u64);
        Ok(self.solo.insert_or_keep(key, Arc::new(out)))
    }

    /// Metrics of one standalone run.
    pub fn solo_metrics(
        &self,
        profile: &AppProfile,
        input_mb: f64,
        cfg: TuningConfig,
    ) -> Result<JobMetrics, EvalError> {
        Ok(self.solo_outcome(profile, input_mb, cfg)?.metrics)
    }

    /// Sweep the full standalone space (160 points on the 8-core node);
    /// runs are returned in sweep order. Every point is individually
    /// memoized, so repeated sweeps re-simulate nothing; cache misses are
    /// solved in lane windows of [`MAX_BATCH_LANES`] spread across rayon
    /// workers, each lane bit-identical to [`Self::solo_outcome`] on the
    /// same point.
    pub fn sweep_solo(
        &self,
        profile: &AppProfile,
        input_mb: f64,
    ) -> Result<Vec<SoloRun>, EvalError> {
        check_input_mb(input_mb)?;
        let configs: Vec<TuningConfig> = TuningConfig::space(self.tb.node.cores).collect();
        // Probe every point in sweep order, then solve only the misses.
        let fp = fingerprint(profile);
        let key = |cfg| SoloKey {
            fp,
            mb: input_mb.to_bits(),
            cfg,
        };
        let mut metrics: Vec<Option<JobMetrics>> = vec![None; configs.len()];
        let mut missing: Vec<(usize, TuningConfig)> = Vec::new();
        for (i, &cfg) in configs.iter().enumerate() {
            match self.solo.get(&key(cfg)) {
                Some(out) => {
                    self.hit("solo");
                    metrics[i] = Some(out.metrics);
                }
                None => {
                    self.miss("solo");
                    missing.push((i, cfg));
                }
            }
        }
        if !missing.is_empty() {
            let t0 = Instant::now();
            // One template spec per sweep: the points differ only in their
            // tuning config, so cloning the template skips re-deriving the
            // label (a float format) for every lane.
            let template = JobSpec::from_profile(profile.clone(), input_mb, missing[0].1);
            let solved = self.run_sweep(
                &missing,
                |sim, &(_, cfg)| {
                    let mut spec = template.clone();
                    spec.config = cfg;
                    sim.submit(spec).map(drop)
                },
                // `pop_finished` leaves the finished list's capacity with
                // the resident simulator (`take_finished` would steal it
                // every run).
                |sim| {
                    sim.pop_finished()
                        .ok_or(SimError::Internal("one job submitted, none finished"))
                },
            )?;
            self.charge(missing.len() as u64, t0.elapsed().as_nanos() as u64);
            // Store in sweep order; first insert wins, so a point another
            // thread stored meanwhile keeps its incumbent value.
            for (&(i, cfg), out) in missing.iter().zip(solved) {
                let stored = self.solo.insert_or_keep(key(cfg), Arc::new(out));
                metrics[i] = Some(stored.metrics);
            }
        }
        configs
            .into_iter()
            .zip(metrics)
            .map(|(config, m)| {
                m.map(|metrics| SoloRun { config, metrics })
                    .ok_or_else(|| SimError::Internal("sweep left a point unsolved").into())
            })
            .collect()
    }

    /// Best standalone config under wall EDP (ILAO's per-application step).
    pub fn best_solo(&self, profile: &AppProfile, input_mb: f64) -> Result<SoloRun, EvalError> {
        let idle = self.idle_w();
        self.sweep_solo(profile, input_mb)?
            .into_iter()
            .min_by(|x, y| {
                x.metrics
                    .edp_wall(idle)
                    .total_cmp(&y.metrics.edp_wall(idle))
            })
            .ok_or(EvalError::EmptySweep {
                what: "solo config space",
            })
    }

    // ---- pair evaluations --------------------------------------------------

    /// Normalised key + swap flag for a pair query. `(a, b)` and `(b, a)`
    /// share an entry; `swap` says the stored orientation is `(b, a)`.
    fn pair_key(
        &self,
        a: &AppProfile,
        input_a_mb: f64,
        b: &AppProfile,
        input_b_mb: f64,
    ) -> (PairKey, bool) {
        let ka = (a.name, input_a_mb.to_bits(), fingerprint(a));
        let kb = (b.name, input_b_mb.to_bits(), fingerprint(b));
        let swap = kb < ka;
        let ((fp_a, a_mb), (fp_b, b_mb)) = if swap {
            ((kb.2, kb.1), (ka.2, ka.1))
        } else {
            ((ka.2, ka.1), (kb.2, kb.1))
        };
        (
            PairKey {
                fp_a,
                a_mb,
                fp_b,
                b_mb,
            },
            swap,
        )
    }

    /// Simulate one co-located pair point (uncached inner step).
    fn simulate_pair(
        &self,
        a: &AppProfile,
        input_a_mb: f64,
        b: &AppProfile,
        input_b_mb: f64,
        pc: PairConfig,
    ) -> Result<PairMetrics, EvalError> {
        let jobs = [
            JobSpec::from_profile(a.clone(), input_a_mb, pc.a),
            JobSpec::from_profile(b.clone(), input_b_mb, pc.b),
        ];
        let (outs, makespan) = self.run_pooled(jobs)?;
        Ok(PairMetrics {
            makespan_s: makespan,
            energy_j: outs.iter().map(|o| o.metrics.energy_j).sum(),
        })
    }

    /// Metrics of one co-located pair run at one configuration. Served
    /// from the point memo, or read in place from a resident full sweep,
    /// before falling back to simulation; only simulated points are
    /// stored in the point memo.
    pub fn pair_metrics(
        &self,
        a: &AppProfile,
        input_a_mb: f64,
        b: &AppProfile,
        input_b_mb: f64,
        pc: PairConfig,
    ) -> Result<PairMetrics, EvalError> {
        check_input_mb(input_a_mb)?;
        check_input_mb(input_b_mb)?;
        let (pair, swap) = self.pair_key(a, input_a_mb, b, input_b_mb);
        let cfg = if swap { pc.swapped() } else { pc };
        let key = PairPointKey { pair, cfg };
        if let Some(hit) = self.pair_points.get(&key) {
            self.hit("pair");
            return Ok(hit);
        }
        // A full sweep for this pair already holds every point, at the
        // point's index in the config space; read it there, not a copy.
        if let Some(sweep) = self.resident_sweep(&pair) {
            let point = self
                .pair_space
                .iter()
                .position(|&c| c == cfg)
                .and_then(|i| sweep.metrics.get(i));
            if let Some(&metrics) = point {
                self.hit("pair");
                return Ok(metrics);
            }
        }
        self.miss("pair");
        let t0 = Instant::now();
        let metrics = self.simulate_pair(a, input_a_mb, b, input_b_mb, pc)?;
        self.charge(1, t0.elapsed().as_nanos() as u64);
        Ok(self.pair_points.insert_or_keep(key, metrics))
    }

    /// The resident sweep under `key`, if any. Reading a sweep also keeps
    /// its winner in the winners table (re-inserting it if that table
    /// evicted it; a present winner only has its CLOCK bit set).
    fn resident_sweep(&self, key: &PairKey) -> Option<Arc<StoredSweep>> {
        let stored = self.sweeps.get(key)?;
        self.winners
            .insert_or_keep(*key, stored.winner(&self.pair_space));
        Some(stored)
    }

    /// Fetch or compute the full pair sweep (11 200 points on the 8-core
    /// node). The result is shared: `(a, b)` and `(b, a)` hit the same
    /// entry, with [`PairSweep::swapped`] flagging the orientation.
    pub fn pair_sweep(
        &self,
        a: &AppProfile,
        input_a_mb: f64,
        b: &AppProfile,
        input_b_mb: f64,
    ) -> Result<PairSweep, EvalError> {
        check_input_mb(input_a_mb)?;
        check_input_mb(input_b_mb)?;
        let (key, swap) = self.pair_key(a, input_a_mb, b, input_b_mb);
        if let Some(stored) = self.resident_sweep(&key) {
            self.hit("sweep");
            return Ok(PairSweep {
                stored,
                space: Arc::clone(&self.pair_space),
                swapped: swap,
            });
        }
        self.miss("sweep");
        // Simulate in the *stored* orientation so the cached runs are
        // identical no matter which orientation asked first.
        let (sa, sa_mb, sb, sb_mb) = if swap {
            (b, input_b_mb, a, input_a_mb)
        } else {
            (a, input_a_mb, b, input_b_mb)
        };
        let t0 = Instant::now();
        let space = &self.pair_space;
        let metrics = match space.first() {
            // A node too small to co-locate: the empty sweep fails below.
            None => Vec::new(),
            Some(first) => {
                // Templates are point-invariant (the label depends only on
                // profile and input share; the config is overwritten per
                // lane), so one pair serves every lane.
                let ta = JobSpec::from_profile(sa.clone(), sa_mb, first.a);
                let tb = JobSpec::from_profile(sb.clone(), sb_mb, first.b);
                // `run_sweep` sizes the result exactly: the sweep lives in
                // the memo for the engine's lifetime.
                self.run_sweep(
                    space,
                    |sim, pc| {
                        let (mut ja, mut jb) = (ta.clone(), tb.clone());
                        ja.config = pc.a;
                        jb.config = pc.b;
                        sim.submit(ja)?;
                        sim.submit(jb).map(drop)
                    },
                    // Pair points only need the aggregate: the drain
                    // recycles the outcome buffers into the resident
                    // simulator instead of freeing them, summing energy in
                    // completion order (the order a point run's caller-side
                    // sum uses).
                    |sim| {
                        Ok(PairMetrics {
                            makespan_s: sim.now(),
                            energy_j: sim.drain_finished_energy(),
                        })
                    },
                )?
            }
        };
        self.charge(space.len() as u64, t0.elapsed().as_nanos() as u64);
        let best = wall_edp_argmin(&metrics, self.idle_w())
            .ok_or(EvalError::EmptySweep { what: "pair sweep" })?;
        let stored = StoredSweep {
            metrics: metrics.into_boxed_slice(),
            best,
        };
        let stored = self.sweeps.insert_or_keep(key, Arc::new(stored));
        self.winners
            .insert_or_keep(key, stored.winner(&self.pair_space));
        Ok(PairSweep {
            stored,
            space: Arc::clone(&self.pair_space),
            swapped: swap,
        })
    }

    /// COLAO's oracle: best co-located configuration for a pair, oriented
    /// so `.a` applies to `a` and `.b` to `b`.
    ///
    /// Probes the winners table first: a pair swept before is answered
    /// from its stored winner (one hit, no simulation) without touching
    /// the sweep table, even after its sweep was evicted. Only a winner
    /// miss falls through to [`Self::pair_sweep`], which counts its own
    /// hit or miss, so every call adds exactly one to hits + misses.
    pub fn best_pair(
        &self,
        a: &AppProfile,
        input_a_mb: f64,
        b: &AppProfile,
        input_b_mb: f64,
    ) -> Result<PairRun, EvalError> {
        check_input_mb(input_a_mb)?;
        check_input_mb(input_b_mb)?;
        let (key, swap) = self.pair_key(a, input_a_mb, b, input_b_mb);
        if let Some(winner) = self.winners.get(&key) {
            self.hit("winner");
            return Ok(winner.oriented(swap));
        }
        Ok(self.pair_sweep(a, input_a_mb, b, input_b_mb)?.best())
    }

    /// Best pair config with the core partition fixed: the tuning service's
    /// Windowed tier. The restricted space is small, so points go through
    /// [`Self::pair_metrics`]: each is read in place from a resident full
    /// sweep, else from the point memo, else simulated into it.
    pub fn best_pair_with_partition(
        &self,
        a: &AppProfile,
        input_a_mb: f64,
        b: &AppProfile,
        input_b_mb: f64,
        (ma, mb): (u32, u32),
    ) -> Result<PairRun, EvalError> {
        check_input_mb(input_a_mb)?;
        check_input_mb(input_b_mb)?;
        let idle = self.idle_w();
        let configs: Vec<PairConfig> = TuningConfig::space_fixed_mappers(ma)
            .flat_map(|ca| {
                TuningConfig::space_fixed_mappers(mb).map(move |cb| PairConfig { a: ca, b: cb })
            })
            .collect();
        let runs: Vec<PairRun> = configs
            .into_par_iter()
            .map(|config| {
                self.pair_metrics(a, input_a_mb, b, input_b_mb, config)
                    .map(|metrics| PairRun { config, metrics })
            })
            .collect::<Result<_, EvalError>>()?;
        runs.into_iter()
            .min_by(|x, y| {
                x.metrics
                    .edp_wall(idle)
                    .total_cmp(&y.metrics.edp_wall(idle))
            })
            .ok_or(EvalError::EmptySweep {
                what: "partition-restricted pair space",
            })
    }
}

/// The engine's input-size contract, checked first by every public solo
/// and pair entry point (the wrappers delegate): a per-node input share is
/// a finite, positive number of MB. Anything else is a typed
/// `InvalidInput` here, not a panic in `JobSpec::from_profile` or a late
/// simulator error.
fn check_input_mb(mb: f64) -> Result<(), EvalError> {
    if mb.is_finite() && mb > 0.0 {
        Ok(())
    } else {
        Err(EvalError::InvalidInput {
            what: "input size must be finite and > 0 MB",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecost_apps::{App, InputSize};

    /// The catalog's fingerprints as the byte-at-a-time FNV-1a gave them
    /// before they were precomputed: memo keys, shard choice and CLOCK
    /// eviction order all rest on these values.
    const PINNED_FINGERPRINTS: [(App, u64); 11] = [
        (App::Wc, 0xa07e_1b55_4578_3b3c),
        (App::St, 0x91c3_5ffd_0827_a1bd),
        (App::Gp, 0x5381_e51c_021a_c470),
        (App::Ts, 0x8954_3907_3560_ea8b),
        (App::Nb, 0xe703_c1ff_10a2_9bf3),
        (App::Fp, 0x5a46_5d68_2afd_f69e),
        (App::Cf, 0xc3d5_7f97_2a39_28a1),
        (App::Svm, 0x98ae_cfcd_9df2_02a2),
        (App::Pr, 0x0528_3af2_9cde_d9cc),
        (App::Hmm, 0x3d80_dbc2_14c5_1f33),
        (App::Km, 0x4e99_76fe_ab8e_018d),
    ];

    fn uncached(p: &AppProfile) -> u64 {
        fnv_fingerprint(p.name, p.class, &demand_bits(p))
    }

    #[test]
    fn catalog_fingerprints_equal_the_uncached_fnv() {
        let table = catalog_fingerprints();
        for ((&fp, app), (pinned_app, pinned)) in
            table.fp.iter().zip(ALL_APPS).zip(PINNED_FINGERPRINTS)
        {
            let p = app.profile();
            assert_eq!(app, pinned_app);
            assert_eq!(fp, uncached(p), "{}", p.name);
            assert_eq!(fp, pinned, "{}", p.name);
            assert_eq!(fingerprint(p), pinned, "{}", p.name);
            assert_eq!(fingerprint(&p.clone()), pinned, "a clone of {}", p.name);
        }
        // One scan of the packed first fields finds every catalog entry.
        let mut first = table.first.to_vec();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), ALL_APPS.len());
    }

    #[test]
    fn fingerprint_separates_perturbed_profiles() {
        let p = App::Wc.profile();
        let cached = fingerprint(p);
        let mut q = p.clone();
        q.llc_mpki *= 1.01;
        assert_ne!(fingerprint(&q), cached);
        assert_eq!(fingerprint(&q), uncached(&q));
        assert_eq!(fingerprint(p), fingerprint(&p.clone()));
        // Same name, class and size: still two solo memo entries.
        let eng = EvalEngine::atom();
        let mb = InputSize::Small.per_node_mb();
        let cfg = TuningConfig::hadoop_default(8);
        let a = eng.solo_metrics(p, mb, cfg).unwrap();
        let b = eng.solo_metrics(&q, mb, cfg).unwrap();
        let s = eng.stats();
        assert_eq!((s.hits, s.misses, s.runs_simulated), (0, 2, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn solo_outcome_is_memoized() {
        let eng = EvalEngine::atom();
        let p = App::Wc.profile();
        let mb = InputSize::Small.per_node_mb();
        let cfg = TuningConfig::hadoop_default(8);
        let a = eng.solo_outcome(p, mb, cfg).unwrap();
        let b = eng.solo_outcome(p, mb, cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = eng.stats();
        assert_eq!(s.runs_simulated, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn scoped_engines_on_a_shared_registry_do_not_alias() {
        // Two engines on ONE registry: unscoped they would intern the same
        // `engine.*` counter rows and each stats() snapshot would report
        // the sum of both engines' traffic. Scopes keep them separate.
        let rec = Recorder::noop();
        let e0 = EvalEngine::with_scoped_recorder(Testbed::atom(), rec.clone(), "shard0");
        let e1 = EvalEngine::with_scoped_recorder(Testbed::atom(), rec.clone(), "shard1");
        let p = App::Wc.profile();
        let q = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let cfg = TuningConfig::hadoop_default(8);
        // shard0: one miss + one hit; shard1: two distinct misses, no hit.
        e0.solo_outcome(p, mb, cfg).unwrap();
        e0.solo_outcome(p, mb, cfg).unwrap();
        e1.solo_outcome(p, mb, cfg).unwrap();
        e1.solo_outcome(q, mb, cfg).unwrap();
        let (s0, s1) = (e0.stats(), e1.stats());
        assert_eq!((s0.hits, s0.misses, s0.runs_simulated), (1, 1, 1));
        assert_eq!((s1.hits, s1.misses, s1.runs_simulated), (0, 2, 2));
        // The shared registry carries both engines' rows under their scopes.
        let snap = rec.metrics().snapshot();
        assert_eq!(snap.counter("shard0.engine.cache_hits"), 1);
        assert_eq!(snap.counter("shard1.engine.cache_misses"), 2);
        assert_eq!(snap.counter("engine.cache_hits"), 0);
        // Fleet aggregation: summed stats equal the elementwise totals.
        let total: EngineStats = [s0, s1].into_iter().sum();
        assert_eq!(total.hits, 1);
        assert_eq!(total.misses, 3);
        assert_eq!(total.runs_simulated, 3);
        let mut acc = EngineStats::zero();
        acc += s0;
        acc += s1;
        assert_eq!(acc, total);
    }

    #[test]
    fn pair_sweep_is_shared_and_order_insensitive() {
        let eng = EvalEngine::atom();
        let a = App::Gp.profile();
        let b = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let s1 = eng.pair_sweep(a, mb, b, mb).unwrap();
        let s2 = eng.pair_sweep(b, mb, a, mb).unwrap();
        assert_eq!(eng.cached_pair_sweeps(), 1);
        assert!(Arc::ptr_eq(&s1.stored, &s2.stored));
        assert_ne!(s1.swapped(), s2.swapped());
        let runs = eng.stats().runs_simulated;
        assert_eq!(runs as usize, s1.len());
    }

    #[test]
    fn best_pair_is_reoriented_after_swap() {
        let eng = EvalEngine::atom();
        let gp = App::Gp.profile();
        let st = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let fwd = eng.best_pair(gp, mb, st, mb).unwrap();
        let rev = eng.best_pair(st, mb, gp, mb).unwrap();
        assert_eq!(eng.cached_pair_sweeps(), 1);
        assert_eq!(fwd.config.a, rev.config.b);
        assert_eq!(fwd.config.b, rev.config.a);
        let idle = eng.idle_w();
        assert!((fwd.metrics.edp_wall(idle) - rev.metrics.edp_wall(idle)).abs() < 1e-9);
    }

    #[test]
    fn best_solo_beats_default_config() {
        let eng = EvalEngine::atom();
        let p = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let best = eng.best_solo(p, mb).unwrap();
        let default = eng
            .solo_metrics(p, mb, TuningConfig::hadoop_default(8))
            .unwrap();
        let idle = eng.idle_w();
        assert!(best.metrics.edp_wall(idle) <= default.edp_wall(idle) + 1e-9);
    }

    #[test]
    fn pair_oracle_never_loses_to_any_swept_point() {
        let eng = EvalEngine::atom();
        let a = App::Gp.profile();
        let b = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let sweep = eng.pair_sweep(a, mb, b, mb).unwrap();
        let best = sweep.best().metrics.edp_wall(eng.idle_w());
        assert_eq!(sweep.len(), 11_200);
        for run in sweep.runs() {
            assert!(best <= run.metrics.edp_wall(eng.idle_w()));
        }
    }

    /// `best_pair` in both query orientations equals the first `total_cmp`
    /// minimum of a plain scan over the sweep's runs, reoriented.
    fn assert_best_is_first_scan_minimum(
        eng: &EvalEngine,
        a: (&AppProfile, f64),
        b: (&AppProfile, f64),
    ) {
        let idle = eng.idle_w();
        for ((p, p_mb), (q, q_mb)) in [(a, b), (b, a)] {
            let sweep = eng.pair_sweep(p, p_mb, q, q_mb).unwrap();
            let mut scan: Option<PairRun> = None;
            for run in sweep.runs() {
                let e = run.metrics.edp_wall(idle);
                if scan
                    .as_ref()
                    .is_none_or(|s| e.total_cmp(&s.metrics.edp_wall(idle)).is_lt())
                {
                    scan = Some(run);
                }
            }
            let want = scan.unwrap();
            let want_cfg = if sweep.swapped() {
                want.config.swapped()
            } else {
                want.config
            };
            let got = eng.best_pair(p, p_mb, q, q_mb).unwrap();
            assert_eq!(got.config, want_cfg);
            assert_eq!(
                got.metrics.makespan_s.to_bits(),
                want.metrics.makespan_s.to_bits()
            );
            assert_eq!(
                got.metrics.energy_j.to_bits(),
                want.metrics.energy_j.to_bits()
            );
        }
    }

    #[test]
    fn stored_argmin_is_the_first_scan_minimum() {
        let eng = EvalEngine::atom();
        let mb = InputSize::Small.per_node_mb();
        // I-I: the one I-class app at two input sizes, so one orientation
        // is stored swapped.
        let st = App::St.profile();
        assert_best_is_first_scan_minimum(&eng, (st, mb), (st, 1.5 * mb));
        // An M pair.
        assert_best_is_first_scan_minimum(&eng, (App::Cf.profile(), mb), (App::Fp.profile(), mb));
        assert_eq!(eng.stats().misses, 2);
    }

    /// An engine on a 2-core node, whose pair sweeps are 400 points, under
    /// `budget`.
    fn two_core_engine(budget: CacheBudget) -> EvalEngine {
        let tb = Testbed {
            node: ecost_sim::NodeSpec {
                cores: 2,
                ..ecost_sim::NodeSpec::atom_c2758()
            },
            ..Testbed::atom()
        };
        EvalEngine::new(tb).with_cache_budget(budget)
    }

    /// A 16-sweep budget leaves one slot per shard, so sweeping further
    /// keys soon lands one in `(a, b)`'s shard and evicts its sweep. Returns
    /// the pair's key once its sweep is gone.
    fn evict_sweep(eng: &EvalEngine, (a, a_mb): (&AppProfile, f64), b: &AppProfile) -> PairKey {
        let (key, _) = eng.pair_key(a, a_mb, b, a_mb);
        for i in 1..=200 {
            if !eng.sweeps.contains(&key) {
                return key;
            }
            eng.pair_sweep(a, a_mb + f64::from(i), b, a_mb).unwrap();
        }
        panic!("200 further sweeps never evicted the pair's sweep");
    }

    #[test]
    fn re_swept_key_after_eviction_keeps_the_first_scan_minimum() {
        let eng = two_core_engine(CacheBudget {
            sweeps: Some(16),
            ..CacheBudget::unbounded()
        });
        let (wc, st) = (App::Wc.profile(), App::St.profile());
        let mb = InputSize::Small.per_node_mb();
        let first = eng.best_pair(wc, mb, st, mb).unwrap();
        evict_sweep(&eng, (wc, mb), st);
        assert!(eng.stats().evictions > 0, "{}", eng.stats());
        // The re-sweep (a miss) stores the same winner the first sweep
        // found, and `best_pair` keeps answering it in both orientations.
        let misses = eng.stats().misses;
        let again = eng.pair_sweep(wc, mb, st, mb).unwrap().best();
        assert_eq!(eng.stats().misses, misses + 1);
        assert_eq!(again.config, first.config);
        assert_eq!(again.metrics, first.metrics);
        assert_best_is_first_scan_minimum(&eng, (wc, mb), (st, mb));
    }

    #[test]
    fn winner_outlives_its_evicted_sweep() {
        let eng = two_core_engine(CacheBudget {
            sweeps: Some(16),
            ..CacheBudget::unbounded()
        });
        let (wc, st) = (App::Wc.profile(), App::St.profile());
        let mb = InputSize::Small.per_node_mb();
        let first = eng.best_pair(wc, mb, st, mb).unwrap();
        let key = evict_sweep(&eng, (wc, mb), st);
        let before = eng.stats();
        let fwd = eng.best_pair(wc, mb, st, mb).unwrap();
        let mid = eng.stats();
        let rev = eng.best_pair(st, mb, wc, mb).unwrap();
        let after = eng.stats();
        // One hit each, nothing simulated, and the sweep stays evicted:
        // the answer came from the winners table alone.
        assert_eq!((mid.hits, mid.misses), (before.hits + 1, before.misses));
        assert_eq!((after.hits, after.misses), (mid.hits + 1, mid.misses));
        assert_eq!(after.runs_simulated, before.runs_simulated);
        assert!(!eng.sweeps.contains(&key));
        // The pre-eviction winner, bit for bit, in each query's orientation.
        let bits = |r: &PairRun| (r.metrics.makespan_s.to_bits(), r.metrics.energy_j.to_bits());
        assert_eq!(fwd.config, first.config);
        assert_eq!(rev.config, first.config.swapped());
        assert_eq!(bits(&fwd), bits(&first));
        assert_eq!(bits(&rev), bits(&first));
        // The sweep itself is not kept: asking for it re-sweeps.
        let swept = eng.pair_sweep(wc, mb, st, mb).unwrap();
        let s = eng.stats();
        assert_eq!(s.misses, after.misses + 1);
        assert_eq!(s.runs_simulated, after.runs_simulated + swept.len() as u64);
        assert_eq!(swept.best().config, first.config);
        assert_eq!(bits(&swept.best()), bits(&first));
    }

    #[test]
    fn winner_hit_leaves_the_sweep_table_alone() {
        // The sweep is resident, yet a winner hit neither reads nor
        // refreshes it: its CLOCK bit stays clear, so the hit cannot keep
        // a cold sweep alive.
        let eng = two_core_engine(CacheBudget::unbounded());
        let (wc, st) = (App::Wc.profile(), App::St.profile());
        let mb = InputSize::Small.per_node_mb();
        eng.best_pair(wc, mb, st, mb).unwrap();
        let (key, _) = eng.pair_key(wc, mb, st, mb);
        assert_eq!(eng.sweeps.take_referenced(&key), Some(true));
        let hits = eng.stats().hits;
        eng.best_pair(st, mb, wc, mb).unwrap();
        assert_eq!(eng.stats().hits, hits + 1);
        assert_eq!(eng.sweeps.take_referenced(&key), Some(false));
        // A sweep read does use the entry.
        eng.pair_sweep(wc, mb, st, mb).unwrap();
        assert_eq!(eng.sweeps.take_referenced(&key), Some(true));
    }

    #[test]
    fn winners_table_keeps_to_the_pair_points_budget() {
        let eng = two_core_engine(CacheBudget {
            pair_points: Some(16),
            ..CacheBudget::unbounded()
        });
        let (wc, st) = (App::Wc.profile(), App::St.profile());
        let mb = InputSize::Small.per_node_mb();
        for i in 0..40 {
            eng.best_pair(wc, mb + f64::from(i), st, mb).unwrap();
            assert!(eng.winners.len() <= 16, "{} winners", eng.winners.len());
        }
        // Every sweep stayed resident, so each evicted winner is one the
        // table dropped on its own budget, and all four tables count.
        let s = eng.stats();
        assert_eq!(eng.cached_pair_sweeps(), 40);
        assert!(s.evictions > 0, "{s}");
        assert_eq!(s.evictions, 40 - eng.winners.len() as u64);
        assert_eq!(eng.cached_entries(), 40 + eng.winners.len());
        // A key whose winner was dropped is answered from its resident
        // sweep (a sweep hit), which stores the winner again.
        let dropped = (0..40)
            .map(|i| mb + f64::from(i))
            .find(|&x| !eng.winners.contains(&eng.pair_key(wc, x, st, mb).0))
            .unwrap();
        let runs = s.runs_simulated;
        eng.best_pair(wc, dropped, st, mb).unwrap();
        assert_eq!(eng.stats().runs_simulated, runs);
        assert!(eng.winners.contains(&eng.pair_key(wc, dropped, st, mb).0));
    }

    #[test]
    fn argmin_ties_pick_the_lower_index() {
        let m = |makespan_s| PairMetrics {
            makespan_s,
            energy_j: 10.0,
        };
        let metrics = [m(3.0), m(2.0), m(2.0), m(5.0), m(2.0)];
        assert_eq!(wall_edp_argmin(&metrics, 5.0), Some(1));
        assert_eq!(wall_edp_argmin(&metrics[2..], 5.0), Some(0));
        assert_eq!(wall_edp_argmin(&[], 5.0), None);
    }

    #[test]
    fn pair_point_is_served_from_a_prior_sweep() {
        let eng = EvalEngine::atom();
        let a = App::Wc.profile();
        let b = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let best = eng.best_pair(a, mb, b, mb).unwrap();
        let before = eng.stats().runs_simulated;
        let m = eng.pair_metrics(a, mb, b, mb, best.config).unwrap();
        assert_eq!(eng.stats().runs_simulated, before);
        assert_eq!(m, best.metrics);
        // And in the swapped orientation too.
        let m2 = eng
            .pair_metrics(b, mb, a, mb, best.config.swapped())
            .unwrap();
        assert_eq!(eng.stats().runs_simulated, before);
        assert!((m2.makespan_s - m.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn with_retry_counts_retries_and_charges_backoff() {
        let eng = EvalEngine::atom();
        let policy = RetryPolicy::default();
        let mut failures_left = 2;
        let (v, backoff) = eng
            .with_retry(&policy, 0.0, || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(EvalError::Transient { what: "flaky eval" })
                } else {
                    Ok(7)
                }
            })
            .unwrap();
        assert_eq!(v, 7);
        assert_eq!(backoff, 3.0); // 1 s + 2 s
        assert_eq!(eng.stats().retries, 2);
        // Budget exhaustion propagates the transient error.
        let err = eng.with_retry(&RetryPolicy::none(), 0.0, || {
            Err::<(), _>(EvalError::Transient { what: "flaky eval" })
        });
        assert!(matches!(err, Err(EvalError::Transient { .. })));
        // Non-transient errors are not retried.
        let mut calls = 0;
        let err = eng.with_retry(&policy, 0.0, || {
            calls += 1;
            Err::<(), _>(EvalError::InvalidInput { what: "bad" })
        });
        assert!(err.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn fault_counters_round_trip_through_stats() {
        let eng = EvalEngine::atom();
        eng.note_fault(10.0, "node-crash");
        eng.note_fault(20.0, "straggler");
        eng.note_fallback(30.0, "config");
        let s = eng.stats();
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.retries, 0);
        let line = s.to_string();
        assert!(line.contains("2 faults"), "{line}");
        assert!(line.contains("1 fallbacks"), "{line}");
    }

    #[test]
    fn stats_is_a_view_over_the_telemetry_registry() {
        // Satellite guarantee: `EngineStats` holds no state of its own —
        // every field equals the corresponding registry counter.
        let eng = EvalEngine::atom();
        let p = App::Wc.profile();
        let mb = InputSize::Small.per_node_mb();
        let cfg = TuningConfig::hadoop_default(8);
        eng.solo_outcome(p, mb, cfg).unwrap();
        eng.solo_outcome(p, mb, cfg).unwrap();
        eng.note_fault(1.0, "node-crash");
        eng.note_retry(2.0, 1.0);
        eng.note_fallback(3.0, "config");

        let s = eng.stats();
        let snap = eng.recorder().metrics().snapshot();
        assert_eq!(s.hits, snap.counter("engine.cache_hits"));
        assert_eq!(s.misses, snap.counter("engine.cache_misses"));
        assert_eq!(s.runs_simulated, snap.counter("engine.runs_simulated"));
        assert_eq!(s.faults_injected, snap.counter("engine.faults_injected"));
        assert_eq!(s.retries, snap.counter("engine.retries"));
        assert_eq!(s.fallbacks, snap.counter("engine.fallbacks"));
        assert_eq!(s.sims_created, snap.counter("engine.sims_created"));
        assert_eq!(s.sims_reused, snap.counter("engine.sims_reused"));
        assert_eq!(s.evictions, snap.counter("engine.cache_evictions"));
        assert_eq!(s.wall_seconds, snap.counter("engine.wall_ns") as f64 * 1e-9);
    }

    #[test]
    fn cache_budget_bounds_entries_and_counts_evictions() {
        let eng = EvalEngine::atom().with_cache_budget(CacheBudget {
            solo: Some(16),
            ..CacheBudget::unbounded()
        });
        let p = App::Wc.profile();
        let cfg = TuningConfig::hadoop_default(8);
        // 64 distinct input sizes through a 16-entry solo budget.
        for i in 0..64 {
            eng.solo_outcome(p, 100.0 + f64::from(i), cfg).unwrap();
            assert!(eng.cached_solo_runs() <= 16, "{}", eng.cached_solo_runs());
        }
        let s = eng.stats();
        assert!(s.evictions > 0, "{s}");
        assert_eq!(s.evictions, 64 - eng.cached_solo_runs() as u64);
        // An evicted key re-probes as a miss but re-simulates to the
        // identical outcome (determinism is the engine's contract).
        let fresh = EvalEngine::atom();
        let a = eng.solo_outcome(p, 100.0, cfg).unwrap();
        let b = fresh.solo_outcome(p, 100.0, cfg).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn sweeps_reuse_pooled_simulators() {
        let eng = EvalEngine::atom();
        let p = App::Wc.profile();
        let mb = InputSize::Small.per_node_mb();
        eng.sweep_solo(p, mb).unwrap();
        let s = eng.stats();
        // Every miss ran on exactly one simulator, pooled or fresh.
        assert_eq!(s.sims_created + s.sims_reused, s.runs_simulated);
        // Far more sweep points than worker threads, so the pool must have
        // turned over, and every simulator came back after its run.
        assert!(s.sims_reused > 0, "{s}");
        assert_eq!(eng.pooled_sims() as u64, s.sims_created);
        // A cached re-sweep touches no simulators at all.
        eng.sweep_solo(p, mb).unwrap();
        let s2 = eng.stats();
        assert_eq!(s2.sims_created, s.sims_created);
        assert_eq!(s2.sims_reused, s.sims_reused);
    }

    #[test]
    fn pooled_runs_match_the_direct_executor_bit_for_bit() {
        let eng = EvalEngine::atom();
        let p = App::Wc.profile();
        let mb = InputSize::Small.per_node_mb();
        let cfg = TuningConfig::hadoop_default(8);
        // Warm the pool with a different config so the evaluation under
        // test is served by a *reused* simulator.
        eng.solo_outcome(p, mb, TuningConfig::hadoop_default(4))
            .unwrap();
        let pooled = eng.solo_outcome(p, mb, cfg).unwrap();
        assert!(eng.stats().sims_reused >= 1);
        let direct = ecost_mapreduce::run_standalone(
            &eng.testbed().node,
            &eng.testbed().fw,
            JobSpec::from_profile(p.clone(), mb, cfg),
        )
        .unwrap();
        assert_eq!(
            pooled.metrics.exec_time_s.to_bits(),
            direct.metrics.exec_time_s.to_bits()
        );
        assert_eq!(
            pooled.metrics.energy_j.to_bits(),
            direct.metrics.energy_j.to_bits()
        );
        assert_eq!(
            pooled.metrics.avg_power_w.to_bits(),
            direct.metrics.avg_power_w.to_bits()
        );
    }

    #[test]
    fn recorded_trace_event_counts_match_stats() {
        // Events are emitted inside the same functions that bump the
        // counters, so a recorded trace always agrees with `EngineStats`.
        let eng = EvalEngine::with_recorder(Testbed::atom(), Recorder::recording());
        let p = App::Wc.profile();
        let mb = InputSize::Small.per_node_mb();
        let cfg = TuningConfig::hadoop_default(8);
        eng.solo_outcome(p, mb, cfg).unwrap();
        eng.solo_outcome(p, mb, cfg).unwrap();
        eng.note_fault(5.0, "straggler");
        eng.note_fallback(6.0, "solo");
        let policy = RetryPolicy::default();
        let mut failures_left = 1;
        eng.with_retry(&policy, 7.0, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(EvalError::Transient { what: "flaky eval" })
            } else {
                Ok(())
            }
        })
        .unwrap();

        let count = |name: &str| {
            eng.recorder()
                .events()
                .iter()
                .filter(|e| match e {
                    ecost_telemetry::TraceEvent::Instant { event, .. } => event.name() == name,
                    _ => false,
                })
                .count() as u64
        };
        let s = eng.stats();
        assert_eq!(count("cache-hit"), s.hits);
        assert_eq!(count("cache-miss"), s.misses);
        assert_eq!(count("fault-fired"), s.faults_injected);
        assert_eq!(count("retry"), s.retries);
        assert_eq!(count("fallback"), s.fallbacks);
    }

    #[test]
    fn solo_sweep_over_scattered_misses_matches_point_runs() {
        let eng = EvalEngine::atom();
        let p = App::Gp.profile();
        let mb = InputSize::Small.per_node_mb();
        let configs: Vec<TuningConfig> = TuningConfig::space(8).collect();
        // Warm every 7th point through the point path: the sweep's 137
        // misses then fill eight full 16-lane windows and one 9-lane
        // window (two f64x4 chunks plus a scalar tail), with hits
        // scattered between the points of every window.
        let warmed: Vec<TuningConfig> = configs.iter().copied().step_by(7).collect();
        for &cfg in &warmed {
            eng.solo_outcome(p, mb, cfg).unwrap();
        }
        let before = eng.stats();
        let got = eng.sweep_solo(p, mb).unwrap();
        let s = eng.stats();
        assert_eq!(got.len(), configs.len());
        assert_eq!(
            (s.misses - before.misses) as usize,
            configs.len() - warmed.len()
        );
        assert_eq!((s.hits - before.hits) as usize, warmed.len());
        assert_eq!(s.runs_simulated as usize, configs.len());
        assert_eq!(s.sims_created + s.sims_reused, s.runs_simulated);
        assert_eq!(eng.pooled_sims() as u64, s.sims_created);
        // Every point, warmed or swept, is bit-identical to a point run on
        // a fresh engine.
        let fresh = EvalEngine::atom();
        for (g, &cfg) in got.iter().zip(&configs) {
            assert_eq!(g.config, cfg);
            let want = fresh.solo_outcome(p, mb, cfg).unwrap();
            assert_eq!(
                g.metrics.exec_time_s.to_bits(),
                want.metrics.exec_time_s.to_bits()
            );
            assert_eq!(
                g.metrics.energy_j.to_bits(),
                want.metrics.energy_j.to_bits()
            );
            assert_eq!(
                g.metrics.avg_power_w.to_bits(),
                want.metrics.avg_power_w.to_bits()
            );
        }
        // A second sweep is all hits and simulates nothing.
        eng.sweep_solo(p, mb).unwrap();
        let s2 = eng.stats();
        assert_eq!(s2.hits - s.hits, configs.len() as u64);
        assert_eq!(s2.misses, s.misses);
        assert_eq!(s2.runs_simulated, s.runs_simulated);
    }

    #[test]
    fn pair_sweep_matches_point_runs_on_a_strided_sample() {
        let eng = EvalEngine::atom();
        let a = App::Wc.profile();
        let b = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let sweep = eng.pair_sweep(a, mb, b, mb).unwrap();
        let s = eng.stats();
        assert_eq!(s.runs_simulated as usize, sweep.len());
        assert_eq!(s.sims_created + s.sims_reused, s.runs_simulated);
        assert_eq!(eng.pooled_sims() as u64, s.sims_created);
        // Point runs on a fresh engine (the swept engine would serve them
        // from its sweep), in the sweep's stored orientation; a stride
        // coprime to the window width lands on every lane position.
        let (sa, sb) = if sweep.swapped() { (b, a) } else { (a, b) };
        let fresh = EvalEngine::atom();
        let space = PairConfig::space(8);
        assert_eq!(sweep.len(), space.len());
        for (run, &pc) in sweep.runs().zip(&space).step_by(97) {
            assert_eq!(run.config, pc);
            let want = fresh.pair_metrics(sa, mb, sb, mb, pc).unwrap();
            assert_eq!(run.metrics.makespan_s.to_bits(), want.makespan_s.to_bits());
            assert_eq!(run.metrics.energy_j.to_bits(), want.energy_j.to_bits());
        }
    }

    #[test]
    fn pair_sweep_keeps_one_reuse_table_per_worker() {
        // A Gp × St sweep at 1 GB poses 67 200 rate problems, however they
        // are answered. Each rayon worker runs its contiguous share of the
        // spans on one batch scratch, so a job mix recurring anywhere in
        // that share is solved once: 42.7 % of the problems come from the
        // reuse table on one worker, 40.3 % on sixteen, while a table per
        // span reaches 32.6 %.
        // The engine counts both kinds in its registry, always on.
        let eng = EvalEngine::atom();
        let mb = InputSize::Small.per_node_mb();
        eng.pair_sweep(App::Gp.profile(), mb, App::St.profile(), mb)
            .unwrap();
        let snap = eng.recorder().metrics().snapshot();
        let solved = snap.counter("engine.rate_problems_solved");
        let reused = snap.counter("engine.rate_problems_reused");
        assert_eq!(solved + reused, 67_200);
        // With more workers each share shrinks toward one span.
        if rayon::current_num_threads() <= 16 {
            assert!(
                reused * 100 > 37 * 67_200,
                "{reused} of 67 200 rate problems reused on {} workers",
                rayon::current_num_threads()
            );
        }
    }

    #[test]
    fn partition_restricted_search_respects_partition() {
        let eng = EvalEngine::atom();
        let a = App::Wc.profile();
        let b = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let run = eng.best_pair_with_partition(a, mb, b, mb, (6, 2)).unwrap();
        assert_eq!(run.config.a.mappers, 6);
        assert_eq!(run.config.b.mappers, 2);
    }

    #[test]
    fn partition_search_reads_a_resident_sweep_in_place() {
        let (wc, st) = (App::Wc.profile(), App::St.profile());
        let mb = InputSize::Small.per_node_mb();
        // Simulated point by point on a fresh engine: the reference answer.
        let fresh = EvalEngine::atom();
        let want = fresh
            .best_pair_with_partition(wc, mb, st, mb, (4, 4))
            .unwrap();
        assert_eq!(fresh.cached_pair_points(), 400);
        // With the pair's sweep resident, every point is read from it: one
        // hit each, nothing simulated and nothing copied into the point memo.
        let eng = EvalEngine::atom();
        eng.best_pair(wc, mb, st, mb).unwrap();
        let before = eng.stats();
        let got = eng
            .best_pair_with_partition(wc, mb, st, mb, (4, 4))
            .unwrap();
        let after = eng.stats();
        assert_eq!(eng.cached_pair_points(), 0);
        assert_eq!(after.hits - before.hits, 400);
        assert_eq!(
            (after.misses, after.runs_simulated),
            (before.misses, before.runs_simulated)
        );
        assert_eq!(got.config, want.config);
        assert_eq!(
            got.metrics.makespan_s.to_bits(),
            want.metrics.makespan_s.to_bits()
        );
        assert_eq!(
            got.metrics.energy_j.to_bits(),
            want.metrics.energy_j.to_bits()
        );
    }
}
