//! Cluster-level application mapping policies (§8 of the paper) and the
//! discrete-event cluster scheduler that runs them.
//!
//! A workload is a stream of 16 applications (Table 3). An application's
//! *total* input scales with the cluster — "10GB input data size per node
//! presents 80GB … in an 8-node cluster" (§2.3) — so a job that spans
//! `s` of the `n` nodes processes `size·n/s` per node.
//!
//! Policies (the paper's names in brackets):
//!
//! * [`MappingPolicy::Sm`] — Serial Mapping \[NT\]: one application at a time
//!   over the whole cluster, untuned defaults.
//! * [`MappingPolicy::Mnm1`]/[`MappingPolicy::Mnm2`] — Multi-Node Mapping
//!   \[NT\]: 2 (resp. 4) applications in parallel, each on an equal share of
//!   the nodes. On clusters smaller than the lane count they degrade to the
//!   available parallelism.
//! * [`MappingPolicy::Snm`] — Single Node Mapping \[NT\]: one application per
//!   node, all 8 cores.
//! * [`MappingPolicy::Cbm`] — Core Balance Mapping \[NT\]: two applications
//!   per node, 4+4 cores, untuned.
//! * [`MappingPolicy::Ptm`] — Predict Tuning Mapping [NP, T]: one
//!   application per node, knobs predicted per application (no pairing).
//! * [`MappingPolicy::Ecost`] — the full controller [P, T]: classify →
//!   queue → pair (decision tree) → self-tune (STP).
//! * [`MappingPolicy::Ub`] — upper bound: brute-force best pairing (exact
//!   minimum-EDP perfect matching via bitmask DP) with oracle pair configs.
//!
//! Whether a policy needs the trained [`EcostContext`] is encoded in the
//! type: [`ConfiguredPolicy`] couples each tuned variant with its context,
//! so [`run_policy`] cannot be called with a missing one — the mismatch is
//! an [`EvalError::MissingContext`] at construction, not a panic at run
//! time. All pair/solo oracle evaluations go through the shared
//! [`EvalEngine`], so the upper bound reuses the sweeps the database build
//! already paid for.
//!
//! Jobs that arrive over time — the §5 "new jobs are arriving" operation,
//! chaos runs, trace replays — run through the other entry point,
//! [`run_stream`], with [`Decisions`] choosing ECoST, serviced or untuned
//! decisions. ECoST's and UB's closed schedules take the same stream core
//! on the event-calendar scheduler ([`crate::scheduler`]).

use crate::classify::RuleClassifier;
use crate::database::{ConfigDatabase, SoloIndex};
use crate::engine::{EvalEngine, EvalError, PairRun, RetryPolicy};
use crate::features::profile_app;
use crate::pairing::PairingPolicy;
use crate::scheduler::{collect, CalendarShard, Prepared, StreamPolicy, OPEN_ELIGIBLE_WINDOW};
use crate::service::{ServiceConfig, ServiceCore, ServiceError, ServiceReport};
use crate::stp::Stp;
use ecost_apps::{App, AppClass, Workload};
use ecost_mapreduce::executor::NodeSim;
use ecost_mapreduce::{BlockSize, JobSpec, PairConfig, TuningConfig};
use ecost_sim::{FaultPlan, Frequency, ServiceFaultSpec};
use std::fmt;

/// One of the §8 mapping policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingPolicy {
    /// Serial Mapping \[NT\].
    Sm,
    /// Multi-Node Level 1 (2 lanes) \[NT\].
    Mnm1,
    /// Multi-Node Level 2 (4 lanes) \[NT\].
    Mnm2,
    /// Single Node Mapping \[NT\].
    Snm,
    /// Core Balance Mapping \[NT\].
    Cbm,
    /// Predict Tuning Mapping [NP, T].
    Ptm,
    /// The proposed controller [P, T].
    Ecost,
    /// Brute-force upper bound.
    Ub,
}

impl MappingPolicy {
    /// All policies in the paper's presentation order.
    pub const ALL: [MappingPolicy; 8] = [
        MappingPolicy::Sm,
        MappingPolicy::Mnm1,
        MappingPolicy::Mnm2,
        MappingPolicy::Snm,
        MappingPolicy::Cbm,
        MappingPolicy::Ptm,
        MappingPolicy::Ecost,
        MappingPolicy::Ub,
    ];

    /// Label as used in Fig 9.
    pub fn label(self) -> &'static str {
        match self {
            MappingPolicy::Sm => "SM",
            MappingPolicy::Mnm1 => "MNM1",
            MappingPolicy::Mnm2 => "MNM2",
            MappingPolicy::Snm => "SNM",
            MappingPolicy::Cbm => "CBM",
            MappingPolicy::Ptm => "PTM",
            MappingPolicy::Ecost => "ECoST",
            MappingPolicy::Ub => "UB",
        }
    }
}

/// A mapping policy *with* whatever it needs to run: the tuned variants
/// carry their [`EcostContext`], the untuned ones carry nothing. Construct
/// via [`ConfiguredPolicy::new`]; a tuned policy without a context is an
/// [`EvalError::MissingContext`] there, so [`run_policy`] never has to
/// check at run time.
pub enum ConfiguredPolicy<'a, 'b> {
    /// Serial Mapping.
    Sm,
    /// Multi-Node Level 1.
    Mnm1,
    /// Multi-Node Level 2.
    Mnm2,
    /// Single Node Mapping.
    Snm,
    /// Core Balance Mapping.
    Cbm,
    /// Predict Tuning Mapping, with its trained context.
    Ptm(&'a EcostContext<'b>),
    /// The full controller, with its trained context.
    Ecost(&'a EcostContext<'b>),
    /// Brute-force upper bound, with its trained context.
    Ub(&'a EcostContext<'b>),
}

impl<'a, 'b> ConfiguredPolicy<'a, 'b> {
    /// Couple a policy with an optional context, failing when a tuned
    /// policy is requested without one.
    pub fn new(
        policy: MappingPolicy,
        ctx: Option<&'a EcostContext<'b>>,
    ) -> Result<ConfiguredPolicy<'a, 'b>, EvalError> {
        let missing = |policy| EvalError::MissingContext { policy };
        match policy {
            MappingPolicy::Sm => Ok(ConfiguredPolicy::Sm),
            MappingPolicy::Mnm1 => Ok(ConfiguredPolicy::Mnm1),
            MappingPolicy::Mnm2 => Ok(ConfiguredPolicy::Mnm2),
            MappingPolicy::Snm => Ok(ConfiguredPolicy::Snm),
            MappingPolicy::Cbm => Ok(ConfiguredPolicy::Cbm),
            MappingPolicy::Ptm => ctx.map(ConfiguredPolicy::Ptm).ok_or_else(|| missing("PTM")),
            MappingPolicy::Ecost => ctx
                .map(ConfiguredPolicy::Ecost)
                .ok_or_else(|| missing("ECoST")),
            MappingPolicy::Ub => ctx.map(ConfiguredPolicy::Ub).ok_or_else(|| missing("UB")),
        }
    }

    /// The underlying policy tag.
    pub fn policy(&self) -> MappingPolicy {
        match self {
            ConfiguredPolicy::Sm => MappingPolicy::Sm,
            ConfiguredPolicy::Mnm1 => MappingPolicy::Mnm1,
            ConfiguredPolicy::Mnm2 => MappingPolicy::Mnm2,
            ConfiguredPolicy::Snm => MappingPolicy::Snm,
            ConfiguredPolicy::Cbm => MappingPolicy::Cbm,
            ConfiguredPolicy::Ptm(_) => MappingPolicy::Ptm,
            ConfiguredPolicy::Ecost(_) => MappingPolicy::Ecost,
            ConfiguredPolicy::Ub(_) => MappingPolicy::Ub,
        }
    }

    /// Label as used in Fig 9.
    pub fn label(&self) -> &'static str {
        self.policy().label()
    }
}

/// Result of running a workload on the cluster under one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterRun {
    /// Workload completion time, seconds.
    pub makespan_s: f64,
    /// Total dynamic energy across all nodes, joules.
    pub energy_dyn_j: f64,
    /// Cluster size the run used.
    pub nodes: usize,
}

impl ClusterRun {
    /// Wall EDP: every node draws idle power for the whole makespan.
    pub fn edp_wall(&self, node_idle_w: f64) -> f64 {
        let wall_energy = self.energy_dyn_j + node_idle_w * self.nodes as f64 * self.makespan_s;
        self.makespan_s * wall_energy
    }
}

/// What the fault machinery did during one scheduler run. Every counter is
/// zero on a fault-free run with working predictors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultReport {
    /// Node-crash events applied to live nodes.
    pub crashes: u64,
    /// Node-slowdown events applied to live nodes.
    pub slowdowns: u64,
    /// Straggler injections that hit a running job.
    pub stragglers: u64,
    /// Speculative re-executions launched against stragglers.
    pub speculations: u64,
    /// In-flight jobs displaced by crashes and re-queued at the head.
    pub requeued_jobs: u64,
    /// Pairing decisions degraded to solo placement (no viable partner).
    pub solo_fallbacks: u64,
    /// Tuning decisions degraded to class-default or untuned knobs.
    pub config_fallbacks: u64,
    /// Transient evaluation failures retried under the [`RetryPolicy`].
    pub retries: u64,
    /// Simulated seconds of retry backoff, added to the makespan.
    pub retry_backoff_s: f64,
}

impl std::ops::AddAssign for FaultReport {
    /// Elementwise sum — how a fleet folds its per-shard reports into one.
    fn add_assign(&mut self, rhs: FaultReport) {
        self.crashes += rhs.crashes;
        self.slowdowns += rhs.slowdowns;
        self.stragglers += rhs.stragglers;
        self.speculations += rhs.speculations;
        self.requeued_jobs += rhs.requeued_jobs;
        self.solo_fallbacks += rhs.solo_fallbacks;
        self.config_fallbacks += rhs.config_fallbacks;
        self.retries += rhs.retries;
        self.retry_backoff_s += rhs.retry_backoff_s;
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} crashes ({} jobs requeued), {} slowdowns, {} stragglers \
             ({} speculated), {} solo + {} config fallbacks, {} retries (+{:.1} s)",
            self.crashes,
            self.requeued_jobs,
            self.slowdowns,
            self.stragglers,
            self.speculations,
            self.solo_fallbacks,
            self.config_fallbacks,
            self.retries,
            self.retry_backoff_s,
        )
    }
}

/// Fault-injection setup for a scheduler run: the scheduled fault events
/// plus the retry policy that prices transient evaluation failures.
/// `FaultSetup::default()` schedules no faults but keeps the default
/// bounded retry — the "production" configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSetup {
    /// Scheduled node/task fault events.
    pub plan: FaultPlan,
    /// Bounded retry for transient evaluation failures.
    pub retry: RetryPolicy,
}

/// Outcome of a [`run_stream`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRun {
    /// Makespan/energy outcome of the schedule, retry backoff already
    /// folded into the makespan.
    pub run: ClusterRun,
    /// What the fault machinery and the policy's fallbacks did along the
    /// way.
    pub report: FaultReport,
    /// The service's outcome counters, for [`Decisions::Serviced`] runs.
    pub service: Option<ServiceReport>,
}

/// Everything the tuned policies need, built once from the training set.
pub struct EcostContext<'a> {
    /// The §6.2 database (PTM's solo lookups, signature source).
    pub db: &'a ConfigDatabase,
    /// The self-tuning predictor used by ECoST.
    pub stp: &'a dyn Stp,
    /// Incoming-application classifier.
    pub classifier: &'a RuleClassifier,
    /// Pairing decision tree.
    pub pairing: &'a PairingPolicy,
    /// Counter measurement noise for the learning periods.
    pub noise: f64,
    /// Seed for the learning periods.
    pub seed: u64,
    /// Partner-selection mode (decision tree, or an ablation variant).
    pub pairing_mode: crate::pairing::PairingMode,
}

/// Run `workload` on an `n`-node cluster under `policy`.
///
/// All simulation goes through `engine` (which also supplies the testbed);
/// tuned policies carry their context inside [`ConfiguredPolicy`].
pub fn run_policy(
    engine: &EvalEngine,
    n: usize,
    workload: &Workload,
    policy: &ConfiguredPolicy<'_, '_>,
) -> Result<ClusterRun, EvalError> {
    validate_cluster_input(n, workload)?;
    match policy {
        ConfiguredPolicy::Sm => run_lanes(engine, n, workload, 1),
        ConfiguredPolicy::Mnm1 => run_lanes(engine, n, workload, 2.min(n)),
        ConfiguredPolicy::Mnm2 => run_lanes(engine, n, workload, 4.min(n)),
        ConfiguredPolicy::Snm => run_per_node(engine, n, workload, PerNodeMode::Default),
        ConfiguredPolicy::Cbm => run_cbm(engine, n, workload),
        ConfiguredPolicy::Ptm(ctx) => {
            run_per_node(engine, n, workload, PerNodeMode::Predicted(ctx))
        }
        ConfiguredPolicy::Ecost(ctx) => run_closed(
            engine,
            n,
            workload,
            Decider::Ecost(EcostPolicy::new(engine, ctx)),
        ),
        ConfiguredPolicy::Ub(ctx) => run_ub(engine, n, workload, ctx),
    }
}

/// Shared `n ≥ 1` / non-empty-workload validation for the cluster drivers.
fn validate_cluster_input(n: usize, workload: &Workload) -> Result<(), EvalError> {
    if n < 1 {
        return Err(EvalError::InvalidInput {
            what: "need at least one node",
        });
    }
    if workload.is_empty() {
        return Err(EvalError::InvalidInput {
            what: "empty workload",
        });
    }
    Ok(())
}

/// Per-node input share for a job spanning `span` of `n` nodes.
fn share_mb(size_per_node_mb: f64, n: usize, span: usize) -> f64 {
    size_per_node_mb * n as f64 / span as f64
}

/// Conservative per-class default tuning, used when the learned predictors
/// cannot answer (empty lookup table, non-finite model prediction). The
/// knobs follow the paper's Table 2 regularities rather than any learned
/// state: compute-bound classes keep the top frequency, I/O-heavy classes
/// drop the frequency (the cores wait on the disk anyway) and take large
/// blocks to cut per-split overhead.
pub fn class_default_config(class: AppClass, mappers: u32) -> TuningConfig {
    let (freq, block) = match class {
        AppClass::C => (Frequency::F2_4, BlockSize::B128),
        AppClass::H => (Frequency::F2_0, BlockSize::B256),
        AppClass::I => (Frequency::F1_6, BlockSize::B512),
        AppClass::M => (Frequency::F1_6, BlockSize::B256),
    };
    TuningConfig {
        freq,
        block,
        mappers: mappers.max(1),
    }
}

/// Class-default knobs for a pair sharing one `cores`-core node split in
/// half: `b` takes `cores / 2` mappers and `a` the rest, each at least one.
/// The split is also the fixed core partition of the service's Windowed
/// tier.
pub(crate) fn class_default_pair(a: AppClass, b: AppClass, cores: u32) -> PairConfig {
    let half_b = (cores / 2).max(1);
    let half_a = cores.saturating_sub(half_b).max(1);
    PairConfig {
        a: class_default_config(a, half_a),
        b: class_default_config(b, half_b),
    }
}

/// Index of the smallest entry (first on ties); 0 for an empty slice.
fn earliest(times: &[f64]) -> usize {
    times
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// SM / MNM: `lanes` groups of `n/lanes` nodes each run jobs serially.
/// Shards within a lane are symmetric, so one representative node is
/// simulated per job and its energy scaled by the lane's span.
fn run_lanes(
    engine: &EvalEngine,
    n: usize,
    workload: &Workload,
    lanes: usize,
) -> Result<ClusterRun, EvalError> {
    let tb = engine.testbed();
    let lanes = lanes.max(1).min(n);
    let span = (n / lanes).max(1);
    let cluster = ecost_sim::ClusterSpec::atom_cluster(n);
    let remote = ecost_sim::ClusterSpec::remote_shuffle_fraction(span);
    // Greedy: next job goes to the lane that frees up first.
    let mut lane_time = vec![0.0_f64; lanes];
    let mut energy = 0.0;
    for (app, size) in &workload.jobs {
        let lane = earliest(&lane_time);
        let cfg = TuningConfig::hadoop_default(tb.node.cores);
        let job = JobSpec::from_profile(
            app.profile().clone(),
            share_mb(size.per_node_mb(), n, span),
            cfg,
        )
        .with_remote_shuffle(remote);
        let mut node = NodeSim::with_nic(
            tb.node.clone(),
            tb.fw.clone(),
            cluster.nic_bw_mbps,
            cluster.nic_active_power_w,
        );
        node.submit(job)?;
        node.run_to_completion()?;
        lane_time[lane] += node.now();
        energy += node.energy_j() * span as f64;
    }
    Ok(ClusterRun {
        makespan_s: lane_time.into_iter().fold(0.0, f64::max),
        energy_dyn_j: energy,
        nodes: n,
    })
}

enum PerNodeMode<'a, 'b> {
    /// Untuned Hadoop defaults (SNM).
    Default,
    /// Per-application predicted solo config (PTM).
    Predicted(&'a EcostContext<'b>),
}

/// SNM / PTM: one application per node, jobs dispatched to the earliest-free
/// node.
fn run_per_node(
    engine: &EvalEngine,
    n: usize,
    workload: &Workload,
    mode: PerNodeMode<'_, '_>,
) -> Result<ClusterRun, EvalError> {
    let tb = engine.testbed();
    let solos = match &mode {
        PerNodeMode::Predicted(ctx) => Some(ctx.db.solo_index()),
        PerNodeMode::Default => None,
    };
    let mut node_time = vec![0.0_f64; n];
    let mut energy = 0.0;
    for (app, size) in &workload.jobs {
        let input = share_mb(size.per_node_mb(), n, 1);
        let cfg = match &mode {
            PerNodeMode::Default => TuningConfig::hadoop_default(tb.node.cores),
            PerNodeMode::Predicted(ctx) => {
                let sig = profile_app(engine, app.profile(), input, ctx.noise, ctx.seed)?;
                solos
                    .as_ref()
                    .and_then(|solos| solos.nearest(&sig.key()))
                    .ok_or(EvalError::NoCandidates {
                        what: "PTM solo lookup in an empty database",
                    })?
                    .config
            }
        };
        let node = earliest(&node_time);
        let mut sim = NodeSim::new(tb.node.clone(), tb.fw.clone());
        sim.submit(JobSpec::from_profile(app.profile().clone(), input, cfg))?;
        sim.run_to_completion()?;
        node_time[node] += sim.now();
        energy += sim.energy_j();
    }
    Ok(ClusterRun {
        makespan_s: node_time.into_iter().fold(0.0, f64::max),
        energy_dyn_j: energy,
        nodes: n,
    })
}

/// CBM: two applications per node at 4+4 cores, untuned; a finishing job is
/// immediately replaced from the queue (FIFO).
fn run_cbm(engine: &EvalEngine, n: usize, workload: &Workload) -> Result<ClusterRun, EvalError> {
    let tb = engine.testbed();
    let half = (tb.node.cores / 2).max(1);
    let cfg = TuningConfig {
        mappers: half,
        ..TuningConfig::hadoop_default(tb.node.cores)
    };
    let mut queue: std::collections::VecDeque<JobSpec> = workload
        .jobs
        .iter()
        .map(|(app, size)| {
            JobSpec::from_profile(
                app.profile().clone(),
                share_mb(size.per_node_mb(), n, 1),
                cfg,
            )
        })
        .collect();
    let mut nodes: Vec<NodeSim> = (0..n)
        .map(|_| NodeSim::new(tb.node.clone(), tb.fw.clone()))
        .collect();
    // Initial fill: two jobs per node.
    for node in &mut nodes {
        for _ in 0..2 {
            if let Some(job) = queue.pop_front() {
                node.submit(job)?;
            }
        }
    }
    drive_cluster(&mut nodes, |node| {
        while node.active_jobs() < 2 {
            match queue.pop_front() {
                Some(job) => {
                    node.submit(job)?;
                }
                None => break,
            }
        }
        Ok(())
    })?;
    Ok(collect(nodes, n))
}

/// ECoST's decisions: partner class by the Fig 4 decision tree, knobs by
/// STP — degrading to class-default knobs when a predictor cannot answer
/// (missing lookup entry, non-finite model prediction) instead of aborting
/// the whole schedule.
pub(crate) struct EcostPolicy<'a, 'b> {
    engine: &'a EvalEngine,
    ctx: &'a EcostContext<'b>,
    /// The database's solo lookup, fitted once for every solo placement.
    solos: SoloIndex<'b>,
    /// Tuning decisions that fell back to class defaults. Interior
    /// mutability because [`StreamPolicy`] methods take `&self`.
    config_fallbacks: std::cell::Cell<u64>,
}

impl<'a, 'b> EcostPolicy<'a, 'b> {
    fn new(engine: &'a EvalEngine, ctx: &'a EcostContext<'b>) -> EcostPolicy<'a, 'b> {
        EcostPolicy {
            engine,
            ctx,
            solos: ctx.db.solo_index(),
            config_fallbacks: std::cell::Cell::new(0),
        }
    }

    /// Tuning decisions degraded to class defaults so far; the stream
    /// core folds this into [`FaultReport::config_fallbacks`].
    fn config_fallbacks(&self) -> u64 {
        self.config_fallbacks.get()
    }

    fn note_config_fallback(&self, now: f64) {
        self.engine.note_fallback(now, "config");
        self.config_fallbacks.set(self.config_fallbacks.get() + 1);
    }
}

impl StreamPolicy for EcostPolicy<'_, '_> {
    fn pick(
        &self,
        now: f64,
        anchor: &Prepared,
        candidates: &[&Prepared],
        cores: u32,
    ) -> Result<(usize, PairConfig), EvalError> {
        let classes: Vec<AppClass> = candidates.iter().map(|p| p.class).collect();
        let pick = match self.ctx.pairing_mode {
            crate::pairing::PairingMode::DecisionTree => {
                self.ctx
                    .pairing
                    .choose(&classes)
                    .ok_or(EvalError::NoCandidates {
                        what: "pairing candidates",
                    })?
            }
            crate::pairing::PairingMode::Fifo => 0,
            crate::pairing::PairingMode::Random(seed) => {
                // Deterministic pseudo-pick from the anchor's identity.
                let mut h = seed ^ anchor.sig.input_mb.to_bits();
                for b in anchor.sig.profile.name.bytes() {
                    h = h.wrapping_mul(0x100000001b3).wrapping_add(u64::from(b));
                }
                (h as usize) % candidates.len()
            }
        };
        let mut cfg = match self
            .ctx
            .stp
            .choose(&anchor.sig, &candidates[pick].sig, cores)
        {
            Ok(cfg) => cfg,
            Err(e) if e.is_degradable() => {
                // Missing LkT entry / non-finite MLM prediction: run the
                // pair on class-default knobs instead of aborting.
                self.note_config_fallback(now);
                class_default_pair(anchor.class, candidates[pick].class, cores)
            }
            Err(e) => return Err(e),
        };
        if cfg.cores() > cores {
            cfg.b.mappers = (cores - cfg.a.mappers.min(cores - 1)).max(1);
        }
        Ok((pick, cfg))
    }

    fn solo_config(&self, now: f64, job: &Prepared, cores: u32) -> Result<TuningConfig, EvalError> {
        match self.solos.nearest(&job.sig.key()) {
            Some(entry) => Ok(entry.config),
            None => {
                // Empty database: class-default knobs over the whole node.
                self.note_config_fallback(now);
                Ok(class_default_config(job.class, cores))
            }
        }
    }
}

/// Perfect decisions (upper bound): partner and knobs from the brute-force
/// pair oracle, served by the shared engine memo.
pub(crate) struct OraclePolicy<'a> {
    engine: &'a EvalEngine,
}

impl StreamPolicy for OraclePolicy<'_> {
    fn pick(
        &self,
        _now: f64,
        anchor: &Prepared,
        candidates: &[&Prepared],
        cores: u32,
    ) -> Result<(usize, PairConfig), EvalError> {
        let idle = self.engine.idle_w();
        let mut best: Option<(usize, PairRun)> = None;
        for (i, cand) in candidates.iter().enumerate() {
            let run = self.engine.best_pair(
                &anchor.sig.profile,
                anchor.sig.input_mb,
                &cand.sig.profile,
                cand.sig.input_mb,
            )?;
            let better = best
                .as_ref()
                .is_none_or(|(_, b)| run.metrics.edp_wall(idle) < b.metrics.edp_wall(idle));
            if better {
                best = Some((i, run));
            }
        }
        let (pick, run) = best.ok_or(EvalError::NoCandidates {
            what: "oracle pairing candidates",
        })?;
        let mut cfg = run.config;
        if cfg.cores() > cores {
            cfg.b.mappers = (cores - cfg.a.mappers.min(cores - 1)).max(1);
        }
        Ok((pick, cfg))
    }

    fn solo_config(
        &self,
        _now: f64,
        job: &Prepared,
        _cores: u32,
    ) -> Result<TuningConfig, EvalError> {
        Ok(self
            .engine
            .best_solo(&job.sig.profile, job.sig.input_mb)?
            .config)
    }
}

/// One job of an open arrival stream: which catalog application it runs,
/// how much input it brings, and when it reaches the datacenter. Unlike a
/// [`Workload`] job, the input size is given directly (trace-driven), not
/// derived from a scenario's per-node size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenArrival {
    /// The catalog application the job runs.
    pub app: App,
    /// Input size processed by the job, MB.
    pub input_mb: f64,
    /// Submission time, simulated seconds.
    pub at_s: f64,
}

impl OpenArrival {
    /// The stream twin of a closed `workload` on an `n`-node cluster: job
    /// `i` arrives at `arrivals[i]` (every job at t = 0 when `None`) and
    /// brings the per-node share `size·n` of its input, since a workload's
    /// input scales with the cluster (§2.3) and a stream job runs on one
    /// node. A wrong-length `arrivals` slice is an
    /// [`EvalError::InvalidInput`]; [`run_stream`] checks the times
    /// themselves, as for any stream.
    pub fn from_workload(
        workload: &Workload,
        n: usize,
        arrivals: Option<&[f64]>,
    ) -> Result<Vec<OpenArrival>, EvalError> {
        if arrivals.is_some_and(|t| t.len() != workload.jobs.len()) {
            return Err(EvalError::InvalidInput {
                what: "need one arrival time per job",
            });
        }
        Ok(workload
            .jobs
            .iter()
            .enumerate()
            .map(|(i, (app, size))| OpenArrival {
                app: *app,
                input_mb: share_mb(size.per_node_mb(), n, 1),
                at_s: arrivals.map_or(0.0, |t| t[i]),
            })
            .collect())
    }
}

/// Knobs of the stream driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenOptions {
    /// Head-reservation skips a queued head job tolerates before it
    /// pins a node (anti-starvation, §5 open-queue extension).
    pub max_head_skips: u32,
    /// Partner scans consider at most this many queue positions from
    /// the front. Smaller windows trade decision quality for speed;
    /// must be at least 1.
    pub eligible_window: usize,
}

impl Default for OpenOptions {
    /// Two head skips, the historical [`OPEN_ELIGIBLE_WINDOW`] scan
    /// bound.
    fn default() -> OpenOptions {
        OpenOptions {
            max_head_skips: 2,
            eligible_window: OPEN_ELIGIBLE_WINDOW,
        }
    }
}

impl OpenOptions {
    pub(crate) fn validate(&self) -> Result<(), EvalError> {
        if self.eligible_window < 1 {
            return Err(EvalError::InvalidInput {
                what: "eligible_window must be at least 1",
            });
        }
        Ok(())
    }
}

/// Who decides partners and knobs in a [`run_stream`] run.
#[derive(Clone)]
pub enum Decisions<'a, 'b> {
    /// ECoST's §5 controller: each arrival is profiled and classified
    /// with the context, partners come from the Fig 4 decision tree and
    /// knobs from the STP, degrading to class-default knobs (counted in
    /// [`FaultReport::config_fallbacks`]) when a predictor cannot answer.
    Ecost(&'a EcostContext<'b>),
    /// The same decisions behind the service front door
    /// ([`crate::service`]): each one first passes admission → deadline →
    /// tier ladder → breaker on the simulated clock, and the granted tier
    /// bounds how much of the ECoST logic runs. Refused decisions degrade
    /// to FIFO partners on class-default knobs; the schedule always
    /// proceeds. Decision latency is accounted in
    /// [`ServiceReport::decision_time_s`], not in the makespan: the
    /// service models a tuning control plane beside the cluster. With
    /// [`ServiceConfig::unlimited`] and a healthy fault spec every
    /// decision is granted a free full sweep and the run is bit-identical
    /// to [`Decisions::Ecost`].
    Serviced {
        /// The trained context behind the service.
        ctx: &'a EcostContext<'b>,
        /// Service knobs; an invalid config is an
        /// [`EvalError::InvalidInput`].
        config: ServiceConfig,
        /// Injected service faults.
        faults: ServiceFaultSpec,
    },
    /// The untuned baseline: FIFO partners, two half-node jobs per node
    /// at Hadoop defaults, a lone job on the whole node at Hadoop
    /// defaults. Arrivals are profiled noise-free and keep their catalog
    /// class.
    Untuned,
}

/// Run an arrival stream on an `n`-node cluster (the §5 "new jobs are
/// arriving to the datacenter" operation), with `decisions` choosing
/// partners and knobs. This is the one stream entry point; a closed
/// workload runs through [`OpenArrival::from_workload`].
///
/// Arrivals join the wait queue in time order (FIFO among ties) on the
/// event-calendar driver ([`crate::scheduler::calendar`]), whose
/// per-event cost scales with the jobs that changed, not with cluster
/// size or arrival history. Partner scans see the first
/// `opts.eligible_window` queue positions. `setup` schedules node faults
/// and prices transient evaluation failures: crashed nodes' in-flight
/// jobs are re-queued (their work so far is lost, their energy is not)
/// onto the survivors, and the run fails with [`EvalError::Degraded`]
/// only when every node has crashed with jobs still queued.
///
/// Zero nodes, an empty stream, a non-finite or non-positive input size,
/// a non-finite or negative arrival time, a zero scan window and an
/// invalid service config are [`EvalError::InvalidInput`]s, returned
/// before any simulation.
pub fn run_stream(
    engine: &EvalEngine,
    n: usize,
    stream: &[OpenArrival],
    decisions: Decisions<'_, '_>,
    opts: OpenOptions,
    setup: &FaultSetup,
) -> Result<StreamRun, EvalError> {
    let decider = Decider::new(engine, decisions)?;
    drive(engine, n, stream, decider, opts, setup)
}

/// A closed workload through the stream core: every job at t = 0, no
/// faults, no retry, default options.
fn run_closed(
    engine: &EvalEngine,
    n: usize,
    workload: &Workload,
    decider: Decider<'_, '_>,
) -> Result<ClusterRun, EvalError> {
    let stream = OpenArrival::from_workload(workload, n, None)?;
    let setup = FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::none(),
    };
    Ok(drive(engine, n, &stream, decider, OpenOptions::default(), &setup)?.run)
}

/// The stream core behind [`run_stream`], ECoST's closed schedule and
/// UB's oracle-streamed candidate: validate, prepare every arrival in
/// stream order, feed the calendar in time order (a stable sort, so FIFO
/// among ties) and drain it.
fn drive(
    engine: &EvalEngine,
    n: usize,
    stream: &[OpenArrival],
    decider: Decider<'_, '_>,
    opts: OpenOptions,
    setup: &FaultSetup,
) -> Result<StreamRun, EvalError> {
    if n < 1 {
        return Err(EvalError::InvalidInput {
            what: "need at least one node",
        });
    }
    if stream.is_empty() {
        return Err(EvalError::InvalidInput {
            what: "empty arrival stream",
        });
    }
    opts.validate()?;
    for a in stream {
        validate_arrival(a)?;
    }
    let mut pending = stream
        .iter()
        .map(|a| Ok((a.at_s, prepare_one(engine, a, decider.ctx())?)))
        .collect::<Result<Vec<_>, EvalError>>()?;
    pending.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut shard = CalendarShard::new(engine, n, opts.max_head_skips, setup, opts.eligible_window);
    for (at, job) in pending {
        shard.push_arrival(at, job)?;
    }
    let (run, mut report) = shard.finish(decider.as_stream())?;
    let service = decider.finish(&mut report);
    Ok(StreamRun {
        run,
        report,
        service,
    })
}

/// One arrival's boundary check, shared by [`run_stream`] and the fleet:
/// a finite, positive input size and a finite, non-negative submission
/// time.
pub(crate) fn validate_arrival(a: &OpenArrival) -> Result<(), EvalError> {
    if !(a.input_mb.is_finite() && a.input_mb > 0.0) {
        return Err(EvalError::InvalidInput {
            what: "arrival input sizes must be finite and positive",
        });
    }
    if !(a.at_s.is_finite() && a.at_s >= 0.0) {
        return Err(EvalError::InvalidInput {
            what: "arrival times must be finite and non-negative",
        });
    }
    Ok(())
}

/// Profile and classify one arrival: with the trained context when the
/// decisions have one, noise-free with the catalog class otherwise.
/// Deterministic in the arrival alone (the engine memo only changes
/// hit/miss counts, never values), so shards of a fleet can prepare their
/// arrivals in any interleaving and still produce identical jobs.
pub(crate) fn prepare_one(
    engine: &EvalEngine,
    a: &OpenArrival,
    ctx: Option<&EcostContext<'_>>,
) -> Result<Prepared, EvalError> {
    match ctx {
        Some(ctx) => {
            let sig = profile_app(engine, a.app.profile(), a.input_mb, ctx.noise, ctx.seed)?;
            let class = ctx.classifier.classify(&sig.features);
            Ok(Prepared { sig, class })
        }
        None => Ok(Prepared {
            sig: profile_app(engine, a.app.profile(), a.input_mb, 0.0, 0)?,
            class: a.app.class(),
        }),
    }
}

/// The policy behind one calendar run (a [`run_stream`] call, a closed
/// ECoST or UB schedule, or one fleet shard) together with the state its
/// decisions accumulate.
pub(crate) enum Decider<'a, 'b> {
    Ecost(EcostPolicy<'a, 'b>),
    // Boxed: the service core is an order of magnitude larger than the
    // other policies, and a fleet holds one decider per shard.
    Serviced(Box<ServicedPolicy<'a, 'b>>),
    /// UB's perfect decisions, over jobs prepared with the context.
    Oracle(OraclePolicy<'a>, &'a EcostContext<'b>),
    Fixed(FixedPolicy),
}

impl<'a, 'b> Decider<'a, 'b> {
    pub(crate) fn new(
        engine: &'a EvalEngine,
        decisions: Decisions<'a, 'b>,
    ) -> Result<Decider<'a, 'b>, EvalError> {
        Ok(match decisions {
            Decisions::Ecost(ctx) => Decider::Ecost(EcostPolicy::new(engine, ctx)),
            Decisions::Serviced {
                ctx,
                config,
                faults,
            } => {
                let core = ServiceCore::new(config, faults).map_err(|e| match e {
                    ServiceError::InvalidConfig { what } => EvalError::InvalidInput { what },
                    _ => EvalError::Internal {
                        what: "service core construction failed",
                    },
                })?;
                Decider::Serviced(Box::new(ServicedPolicy {
                    inner: EcostPolicy::new(engine, ctx),
                    core: std::cell::RefCell::new(core),
                    seq: std::cell::Cell::new(0),
                }))
            }
            Decisions::Untuned => {
                let cores = engine.testbed().node.cores;
                let half = TuningConfig {
                    mappers: (cores / 2).max(1),
                    ..TuningConfig::hadoop_default(cores)
                };
                Decider::Fixed(FixedPolicy {
                    pair: PairConfig { a: half, b: half },
                    solo: TuningConfig::hadoop_default(cores),
                })
            }
        })
    }

    /// The context arrivals are profiled and classified with (see
    /// [`prepare_one`]).
    pub(crate) fn ctx(&self) -> Option<&EcostContext<'b>> {
        match self {
            Decider::Ecost(p) => Some(p.ctx),
            Decider::Serviced(p) => Some(p.inner.ctx),
            Decider::Oracle(_, ctx) => Some(ctx),
            Decider::Fixed(_) => None,
        }
    }

    pub(crate) fn as_stream(&self) -> &dyn StreamPolicy {
        match self {
            Decider::Ecost(p) => p,
            Decider::Serviced(p) => p.as_ref(),
            Decider::Oracle(p, _) => p,
            Decider::Fixed(p) => p,
        }
    }

    /// Fold the policy's own class-default fallbacks into `report` and
    /// yield the service's counters when the decisions were serviced.
    pub(crate) fn finish(self, report: &mut FaultReport) -> Option<ServiceReport> {
        match self {
            Decider::Ecost(p) => {
                report.config_fallbacks += p.config_fallbacks();
                None
            }
            Decider::Serviced(p) => {
                report.config_fallbacks += p.inner.config_fallbacks();
                Some(p.core.into_inner().report().clone())
            }
            Decider::Oracle(..) | Decider::Fixed(_) => None,
        }
    }
}

/// [`EcostPolicy`] behind the service front door (see
/// [`Decisions::Serviced`]).
pub(crate) struct ServicedPolicy<'a, 'b> {
    inner: EcostPolicy<'a, 'b>,
    /// Interior mutability: [`StreamPolicy`] methods take `&self`, and
    /// the calendar driver is single-threaded.
    core: std::cell::RefCell<ServiceCore>,
    seq: std::cell::Cell<u64>,
}

impl ServicedPolicy<'_, '_> {
    /// Run one decision through the service core, in calendar order.
    fn admit(&self, now: f64) -> Result<Option<crate::service::DecisionTier>, EvalError> {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let mut core = self.core.borrow_mut();
        let deadline = core.deadline_s();
        match core.admit(seq, now, deadline, None) {
            Ok(grant) => Ok(Some(grant.tier)),
            Err(ServiceError::Overloaded { .. } | ServiceError::DeadlineExceeded { .. }) => {
                Ok(None)
            }
            Err(_) => Err(EvalError::Internal {
                what: "service rejected a streaming decision",
            }),
        }
    }

    fn fallback_pair(
        &self,
        now: f64,
        anchor: &Prepared,
        candidates: &[&Prepared],
        cores: u32,
    ) -> (usize, PairConfig) {
        self.inner.note_config_fallback(now);
        (
            0,
            class_default_pair(anchor.class, candidates[0].class, cores),
        )
    }
}

impl StreamPolicy for ServicedPolicy<'_, '_> {
    fn pick(
        &self,
        now: f64,
        anchor: &Prepared,
        candidates: &[&Prepared],
        cores: u32,
    ) -> Result<(usize, PairConfig), EvalError> {
        use crate::service::DecisionTier;
        match self.admit(now)? {
            Some(DecisionTier::FullSweep) => self.inner.pick(now, anchor, candidates, cores),
            Some(DecisionTier::Windowed) => {
                // Degraded scan: only the queue head is considered.
                self.inner.pick(now, anchor, &candidates[..1], cores)
            }
            Some(DecisionTier::ClassDefault) | None => {
                Ok(self.fallback_pair(now, anchor, candidates, cores))
            }
        }
    }

    fn solo_config(&self, now: f64, job: &Prepared, cores: u32) -> Result<TuningConfig, EvalError> {
        use crate::service::DecisionTier;
        match self.admit(now)? {
            Some(DecisionTier::FullSweep) | Some(DecisionTier::Windowed) => {
                self.inner.solo_config(now, job, cores)
            }
            Some(DecisionTier::ClassDefault) | None => {
                self.inner.note_config_fallback(now);
                Ok(class_default_config(job.class, cores))
            }
        }
    }
}

/// Fixed, untuned decisions: FIFO partner, half-node Hadoop defaults.
pub(crate) struct FixedPolicy {
    pair: PairConfig,
    solo: TuningConfig,
}

impl StreamPolicy for FixedPolicy {
    fn pick(
        &self,
        _now: f64,
        _anchor: &Prepared,
        _candidates: &[&Prepared],
        _cores: u32,
    ) -> Result<(usize, PairConfig), EvalError> {
        Ok((0, self.pair))
    }

    fn solo_config(
        &self,
        _now: f64,
        _job: &Prepared,
        _cores: u32,
    ) -> Result<TuningConfig, EvalError> {
        Ok(self.solo)
    }
}

/// UB: the better of two brute-force schedules —
///
/// 1. **oracle-streamed**: the same streaming scheduler ECoST uses, but with
///    the partner chosen by the true pair oracle and every configuration the
///    brute-forced optimum ("ECoST with a perfect predictor");
/// 2. **matched pairs**: exact minimum-EDP perfect matching (bitmask DP) over
///    the workload, pairs placed LPT onto nodes, each pair at its oracle
///    configuration, pairs running back-to-back.
///
/// Streaming usually wins (no barrier between pairs); the matching candidate
/// covers workloads where synchronised pairs happen to pack better.
fn run_ub(
    engine: &EvalEngine,
    n: usize,
    workload: &Workload,
    ctx: &EcostContext<'_>,
) -> Result<ClusterRun, EvalError> {
    let streamed = run_closed(
        engine,
        n,
        workload,
        Decider::Oracle(OraclePolicy { engine }, ctx),
    )?;
    let matched = run_ub_matched(engine, n, workload)?;
    let idle = engine.idle_w();
    Ok(if streamed.edp_wall(idle) <= matched.edp_wall(idle) {
        streamed
    } else {
        matched
    })
}

/// The matched-pairs UB candidate (see [`run_ub`]). The DP's cost matrix is
/// plain local state; every entry comes from the engine's shared memo, so
/// pairs the database build already swept cost nothing here.
fn run_ub_matched(
    engine: &EvalEngine,
    n: usize,
    workload: &Workload,
) -> Result<ClusterRun, EvalError> {
    let jobs: Vec<(ecost_apps::AppProfile, f64)> = workload
        .jobs
        .iter()
        .map(|(app, size)| (app.profile().clone(), share_mb(size.per_node_mb(), n, 1)))
        .collect();
    let k = jobs.len();
    if k > 20 {
        return Err(EvalError::InvalidInput {
            what: "bitmask matching is sized for Table 3 workloads (≤ 20 jobs)",
        });
    }
    let idle = engine.idle_w();

    // Pairwise oracle results, all served by the engine.
    let mut pair_best: Vec<Vec<Option<PairRun>>> = vec![vec![None; k]; k];
    for i in 0..k {
        for j in i + 1..k {
            let run = engine.best_pair(&jobs[i].0, jobs[i].1, &jobs[j].0, jobs[j].1)?;
            pair_best[i][j] = Some(run);
        }
    }
    let pair_cost = |i: usize, j: usize| -> Result<&PairRun, EvalError> {
        pair_best[i.min(j)][i.max(j)]
            .as_ref()
            .ok_or(EvalError::Internal {
                what: "pair cost missing from the DP matrix",
            })
    };
    // DP over subsets: minimal total pair EDP perfect matching (odd tail: one
    // job may stay single at its solo optimum).
    let full: usize = (1 << k) - 1;
    let mut dp = vec![f64::INFINITY; 1 << k];
    let mut choice: Vec<Option<(usize, usize)>> = vec![None; 1 << k];
    dp[0] = 0.0;
    let solo_edp: Vec<f64> = jobs
        .iter()
        .map(|(p, mb)| Ok(engine.best_solo(p, *mb)?.metrics.edp_wall(idle)))
        .collect::<Result<_, EvalError>>()?;
    for mask in 0..=full {
        if dp[mask].is_infinite() {
            continue;
        }
        let Some(i) = (0..k).find(|i| mask & (1 << i) == 0) else {
            continue;
        };
        // Pair i with some j…
        for j in i + 1..k {
            if mask & (1 << j) != 0 {
                continue;
            }
            let cost = pair_cost(i, j)?.metrics.edp_wall(idle);
            let nm = mask | (1 << i) | (1 << j);
            if dp[mask] + cost < dp[nm] {
                dp[nm] = dp[mask] + cost;
                choice[nm] = Some((i, j));
            }
        }
        // …or leave i single (covers odd workloads).
        let nm = mask | (1 << i);
        if dp[mask] + solo_edp[i] < dp[nm] {
            dp[nm] = dp[mask] + solo_edp[i];
            choice[nm] = None;
        }
    }

    // Recover the matching.
    let mut pairs: Vec<(usize, Option<usize>)> = Vec::new();
    let mut mask = full;
    while mask != 0 {
        let Some(i) = (0..k).find(|i| mask & (1 << i) != 0) else {
            break;
        };
        match choice[mask] {
            Some((a, b)) if mask & (1 << a) != 0 && mask & (1 << b) != 0 => {
                pairs.push((a, Some(b)));
                mask &= !((1 << a) | (1 << b));
            }
            _ => {
                pairs.push((i, None));
                mask &= !(1 << i);
            }
        }
    }

    // Run each pair at its oracle config; LPT-assign onto nodes.
    let mut runs: Vec<(f64, f64)> = Vec::with_capacity(pairs.len());
    for (i, j) in pairs {
        match j {
            Some(j) => {
                let best = pair_cost(i, j)?;
                runs.push((best.metrics.makespan_s, best.metrics.energy_j));
            }
            None => {
                let solo = engine.best_solo(&jobs[i].0, jobs[i].1)?;
                runs.push((solo.metrics.exec_time_s, solo.metrics.energy_j));
            }
        }
    }
    runs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut node_time = vec![0.0_f64; n];
    let mut energy = 0.0;
    for (t, e) in runs {
        let node = earliest(&node_time);
        node_time[node] += t;
        energy += e;
    }
    Ok(ClusterRun {
        makespan_s: node_time.into_iter().fold(0.0, f64::max),
        energy_dyn_j: energy,
        nodes: n,
    })
}

/// Drive a set of nodes to completion, calling `refill` for each node after
/// every event so it can top up from its queue.
fn drive_cluster(
    nodes: &mut [NodeSim],
    mut refill: impl FnMut(&mut NodeSim) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    loop {
        let mut any = false;
        let mut dt = f64::INFINITY;
        for node in nodes.iter_mut() {
            if let Some(t) = node.time_to_next_event()? {
                any = true;
                dt = dt.min(t);
            }
        }
        if !any {
            break;
        }
        for node in nodes.iter_mut() {
            node.advance(dt)?;
            refill(node)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecost_apps::{InputSize, WorkloadScenario};

    fn run_untuned(
        engine: &EvalEngine,
        n: usize,
        w: &Workload,
        policy: MappingPolicy,
    ) -> ClusterRun {
        let p = ConfiguredPolicy::new(policy, None).expect("untuned policy");
        run_policy(engine, n, w, &p).expect("cluster run")
    }

    #[test]
    fn untuned_policies_complete_and_work_is_conserved() {
        let eng = EvalEngine::atom();
        // Small workload to keep tests quick: 4 I/O jobs.
        let mut w = WorkloadScenario::Ws3.workload(InputSize::Small);
        w.jobs.truncate(4);
        let sm = run_untuned(&eng, 2, &w, MappingPolicy::Sm);
        let snm = run_untuned(&eng, 2, &w, MappingPolicy::Snm);
        assert!(sm.makespan_s > 0.0 && snm.makespan_s > 0.0);
        // Without co-location or tuning, total work is conserved: spreading
        // each job across the cluster (SM) and spreading jobs across nodes
        // (SNM) land within a modest factor of each other. The wins in Fig 9
        // come from pairing + tuning, not from the untuned layouts.
        let ratio = sm.makespan_s / snm.makespan_s;
        assert!((0.6..=1.6).contains(&ratio), "sm/snm {ratio}");
        // CBM co-locates two I/O jobs per node and must beat both layouts.
        let cbm = run_untuned(&eng, 2, &w, MappingPolicy::Cbm);
        assert!(cbm.makespan_s < snm.makespan_s.min(sm.makespan_s));
    }

    #[test]
    fn cbm_packs_two_jobs_per_node() {
        let eng = EvalEngine::atom();
        let mut w = WorkloadScenario::Ws3.workload(InputSize::Small);
        w.jobs.truncate(4);
        let cbm = run_untuned(&eng, 1, &w, MappingPolicy::Cbm);
        let snm = run_untuned(&eng, 1, &w, MappingPolicy::Snm);
        // For I/O-bound jobs co-location wins on makespan.
        assert!(
            cbm.makespan_s < snm.makespan_s,
            "cbm {} snm {}",
            cbm.makespan_s,
            snm.makespan_s
        );
    }

    #[test]
    fn lanes_fall_back_gracefully_on_one_node() {
        let eng = EvalEngine::atom();
        let mut w = WorkloadScenario::Ws1.workload(InputSize::Small);
        w.jobs.truncate(2);
        let sm = run_untuned(&eng, 1, &w, MappingPolicy::Sm);
        let mnm1 = run_untuned(&eng, 1, &w, MappingPolicy::Mnm1);
        // With one node MNM1 degenerates to SM.
        assert!((sm.makespan_s - mnm1.makespan_s).abs() < 1e-6);
    }

    #[test]
    fn tuned_policy_without_context_is_a_typed_error() {
        for policy in [MappingPolicy::Ptm, MappingPolicy::Ecost, MappingPolicy::Ub] {
            let err = ConfiguredPolicy::new(policy, None)
                .err()
                .expect("must fail");
            assert!(
                matches!(err, EvalError::MissingContext { .. }),
                "{policy:?}: {err}"
            );
        }
        assert!(ConfiguredPolicy::new(MappingPolicy::Sm, None).is_ok());
    }

    #[test]
    fn invalid_cluster_inputs_are_typed_errors() {
        let eng = EvalEngine::atom();
        let w = WorkloadScenario::Ws1.workload(InputSize::Small);
        let sm = ConfiguredPolicy::new(MappingPolicy::Sm, None).expect("untuned");
        assert!(matches!(
            run_policy(&eng, 0, &w, &sm),
            Err(EvalError::InvalidInput { .. })
        ));
        let empty = Workload {
            name: "empty".into(),
            jobs: Vec::new(),
        };
        assert!(matches!(
            run_policy(&eng, 2, &empty, &sm),
            Err(EvalError::InvalidInput { .. })
        ));
    }

    #[test]
    fn open_queue_respects_arrivals() {
        // Jobs that arrive late must finish later than the same jobs
        // arriving at t = 0: a two-job workload with a big gap, on one node.
        let eng = EvalEngine::atom();
        let mut w = WorkloadScenario::Ws3.workload(InputSize::Small);
        w.jobs.truncate(2);
        // Build a minimal context around a mini database.
        let db = crate::database::ConfigDatabase::build(&eng, 0.0, 1).expect("db build");
        let classifier = crate::classify::RuleClassifier::fit(&db.signatures);
        let lkt = crate::stp::LktStp::from_database(&db);
        let pairing = PairingPolicy::default();
        let ctx = EcostContext {
            db: &db,
            stp: &lkt,
            classifier: &classifier,
            pairing: &pairing,
            noise: 0.0,
            seed: 1,
            pairing_mode: crate::pairing::PairingMode::DecisionTree,
        };
        let run = |arrivals: &[f64]| {
            let stream = OpenArrival::from_workload(&w, 1, Some(arrivals)).expect("stream");
            let setup = FaultSetup {
                plan: FaultPlan::none(),
                retry: RetryPolicy::none(),
            };
            let opts = OpenOptions::default();
            run_stream(&eng, 1, &stream, Decisions::Ecost(&ctx), opts, &setup)
                .expect("stream run")
                .run
        };
        let closed = run(&[0.0, 0.0]);
        let open = run(&[0.0, 400.0]);
        assert!(
            open.makespan_s > closed.makespan_s + 100.0,
            "open {} closed {}",
            open.makespan_s,
            closed.makespan_s
        );
        // Energy (work) is similar either way.
        assert!((open.energy_dyn_j / closed.energy_dyn_j - 1.0).abs() < 0.35);
    }

    #[test]
    fn edp_wall_charges_all_nodes_idle() {
        let run = ClusterRun {
            makespan_s: 100.0,
            energy_dyn_j: 1000.0,
            nodes: 4,
        };
        // E_wall = 1000 + 16·4·100 = 7400; EDP = 100·7400.
        assert!((run.edp_wall(16.0) - 740_000.0).abs() < 1e-9);
    }
}
