//! The fleet layer: N independent calendar-scheduler shards behind a
//! deterministic arrival router.
//!
//! One event-calendar driver bounds decision throughput by a single heap
//! and one engine's memo tables. Production co-location clusters absorb
//! "millions of users" scale differently: machines are partitioned into
//! independently scheduled groups behind a common dispatcher. This module
//! reproduces that shape in simulation:
//!
//! * **Shards.** Each shard owns `nodes_per_shard` nodes, one
//!   `CalendarShard` event loop, one [`EvalEngine`] with its own
//!   (optionally bounded) memo tables and scoped telemetry counters
//!   (`fleet.shard<i>.engine.*`), and optionally a service front — the
//!   admission/deadline/breaker ladder of [`crate::service`] wrapped
//!   around its tuning decisions.
//! * **Router.** Arrivals are assigned to shards by a [`RoutePolicy`]:
//!   seeded rendezvous hashing on the application's behaviour class, or
//!   least-outstanding-jobs balancing driven by the per-shard backlog
//!   gauges (`fleet.shard<i>.backlog`).
//! * **Epoch barrier.** Shards advance in lockstep over virtual-time
//!   epochs of `epoch_s` simulated seconds: the router drains every
//!   arrival due in the epoch, hands each shard its batch, all shards
//!   advance to the epoch horizon *in parallel*, and the barrier samples
//!   backlogs for the next routing round.
//!
//! # Determinism contract
//!
//! Merged fleet results are byte-identical across runs, worker-thread
//! counts and interleavings, because every cross-shard interaction is
//! pinned to the barrier:
//!
//! * routing decisions depend only on (seed, arrival sequence, backlog
//!   snapshots taken at barriers) — never on wall-clock or thread timing;
//! * within an epoch shards share nothing but the (thread-safe,
//!   order-insensitive) metrics registry; each shard's event loop is
//!   sequential and self-contained;
//! * merging reads shard outcomes in shard-index order.
//!
//! A single-shard fleet is **bit-identical** to
//! [`crate::mapping::run_stream`] with [`Decisions::Ecost`] on the same
//! stream — same makespan/energy bits, same fault report
//! ([`FleetRun::assert_single_shard_identity`] checks this at runtime,
//! the way `ServiceConfig::unlimited` pins the serviced decisions).
//! Engine cache *activity* (hit/miss/eviction counts) is not part of that
//! contract: the fleet profiles arrivals epoch by epoch while
//! `run_stream` profiles the whole stream up front, which reorders memo
//! probes without changing any value.
//!
//! With a recording (non-noop) recorder, trace-event *order* across
//! shards follows thread interleaving; metrics and results stay exact.

mod router;

pub use router::RoutePolicy;

use crate::engine::{CacheBudget, EngineStats, EvalEngine, EvalError};
use crate::features::Testbed;
use crate::mapping::{
    prepare_one, validate_arrival, ClusterRun, Decider, Decisions, EcostContext, FaultReport,
    FaultSetup, OpenArrival, OpenOptions, StreamRun,
};
use crate::scheduler::calendar::TIE_EPS;
use crate::scheduler::CalendarShard;
use crate::service::{ServiceConfig, ServiceReport};
use ecost_sim::ServiceFaultSpec;
use ecost_telemetry::{Gauge, Recorder};
use rayon::prelude::*;
use router::ArrivalRouter;

/// Service front configuration for a fleet: one [`ServiceConfig`] shared
/// by every shard, with per-shard fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetService {
    /// Service knobs, applied to every shard's service core.
    pub config: ServiceConfig,
    /// Injected service faults: one spec broadcast to every shard, or
    /// exactly one spec per shard (e.g. to open a single shard's
    /// breaker).
    pub faults: Vec<ServiceFaultSpec>,
}

/// Shape and policies of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of independent scheduler shards (≥ 1).
    pub shards: usize,
    /// Nodes owned by each shard (≥ 1).
    pub nodes_per_shard: usize,
    /// Epoch-barrier length, simulated seconds (finite, > 0). Smaller
    /// epochs give the least-outstanding router fresher backlog data;
    /// the schedule itself is epoch-length-invariant.
    pub epoch_s: f64,
    /// Arrival-to-shard routing policy.
    pub route: RoutePolicy,
    /// Calendar-driver knobs, applied per shard.
    pub open: OpenOptions,
    /// Fault injection, applied per shard: the plan's node indices are
    /// local to each shard's `nodes_per_shard` node set.
    pub setup: FaultSetup,
    /// Memo budget for every shard engine ([`CacheBudget::unbounded`]
    /// for the classic unbounded tables).
    pub cache_budget: CacheBudget,
    /// Optional service front (admission, deadlines, breaker) on every
    /// shard's tuning decisions.
    pub service: Option<FleetService>,
}

impl FleetConfig {
    /// A plain fleet: no faults, no service front, unbounded caches,
    /// default calendar knobs, 60-second epochs, rendezvous routing.
    pub fn rendezvous(shards: usize, nodes_per_shard: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            shards,
            nodes_per_shard,
            epoch_s: 60.0,
            route: RoutePolicy::Rendezvous { seed },
            open: OpenOptions::default(),
            setup: FaultSetup::default(),
            cache_budget: CacheBudget::unbounded(),
            service: None,
        }
    }

    fn validate(&self) -> Result<(), EvalError> {
        let bad = |what| Err(EvalError::InvalidInput { what });
        if self.shards < 1 {
            return bad("fleet needs at least one shard");
        }
        if self.nodes_per_shard < 1 {
            return bad("fleet shards need at least one node");
        }
        if !(self.epoch_s.is_finite() && self.epoch_s > 0.0) {
            return bad("fleet epoch_s must be finite and positive");
        }
        self.open.validate()?;
        if let Some(svc) = &self.service {
            if svc.faults.len() != 1 && svc.faults.len() != self.shards {
                return bad("fleet service faults must be one spec or one per shard");
            }
        }
        Ok(())
    }
}

/// One shard's share of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Arrivals the router assigned to this shard.
    pub arrivals: u64,
    /// The shard's schedule outcome over its own node set.
    pub run: ClusterRun,
    /// The shard's fault/degradation counters.
    pub report: FaultReport,
    /// The shard engine's lifetime counters (its scoped telemetry rows).
    pub stats: EngineStats,
    /// Service outcome counters, when the fleet ran a service front.
    pub service: Option<ServiceReport>,
}

/// Merged outcome of a fleet run, plus the per-shard breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Per-shard outcomes, in shard-index order.
    pub shards: Vec<ShardReport>,
    /// Fleet-level outcome: makespan is the max over shards (the shards
    /// run concurrently), energy and node count sum.
    pub run: ClusterRun,
    /// Fault/degradation counters summed over shards.
    pub report: FaultReport,
    /// Engine counters summed over shards (per-shard counters are
    /// scoped, so this is a true sum — no double-counting).
    pub stats: EngineStats,
    /// Merged service counters (sums; `queue_peak` is the max), when a
    /// service front ran.
    pub service: Option<ServiceReport>,
    /// Total arrivals routed ( = scheduling decisions made by the fleet).
    pub arrivals: u64,
    /// Epoch barriers executed (empty epochs are fast-forwarded, so this
    /// counts barrier rounds, not elapsed virtual epochs).
    pub epochs: u64,
    /// Largest single-epoch arrival batch — the fleet's peak resident
    /// trace footprint, independent of total arrival count.
    pub peak_epoch_arrivals: usize,
}

impl FleetRun {
    /// Runtime assertion of the single-shard identity contract: a
    /// 1-shard fleet's outcome must be bit-identical (makespan, energy,
    /// node count, every fault counter) to [`crate::mapping::run_stream`]'s
    /// [`StreamRun`] on the same stream. Call it from benches the way
    /// [`ServiceConfig::unlimited`] callers assert serviced identity;
    /// returns an [`EvalError::Internal`] on any divergence so CI fails
    /// loudly instead of publishing drifted numbers.
    pub fn assert_single_shard_identity(&self, mono: &StreamRun) -> Result<(), EvalError> {
        let drift = EvalError::Internal {
            what: "single-shard fleet diverged from run_stream",
        };
        if self.shards.len() != 1 {
            return Err(EvalError::InvalidInput {
                what: "single-shard identity check needs a 1-shard fleet",
            });
        }
        let same_run = self.run.makespan_s.to_bits() == mono.run.makespan_s.to_bits()
            && self.run.energy_dyn_j.to_bits() == mono.run.energy_dyn_j.to_bits()
            && self.run.nodes == mono.run.nodes;
        let same_report = self.report == mono.report
            && self.report.retry_backoff_s.to_bits() == mono.report.retry_backoff_s.to_bits();
        if same_run && same_report {
            Ok(())
        } else {
            Err(drift)
        }
    }
}

/// One shard's working state: its event loop, policy, this epoch's inbox
/// and a sticky error (the parallel map cannot short-circuit, so a failed
/// shard goes inert and the barrier surfaces the error afterwards).
struct Lane<'e, 'c> {
    shard: CalendarShard<'e>,
    policy: Decider<'e, 'c>,
    engine: &'e EvalEngine,
    inbox: Vec<OpenArrival>,
    backlog_gauge: Gauge,
    arrivals: u64,
    err: Option<EvalError>,
}

impl Lane<'_, '_> {
    /// Prepare and push this epoch's inbox (in arrival order), then
    /// advance the event loop to the epoch horizon.
    fn step(&mut self, horizon: f64) {
        let inbox = std::mem::take(&mut self.inbox);
        if self.err.is_some() {
            return;
        }
        for a in &inbox {
            let pushed = prepare_one(self.engine, a, self.policy.ctx())
                .and_then(|job| self.shard.push_arrival(a.at_s, job));
            if let Err(e) = pushed {
                self.err = Some(e);
                return;
            }
        }
        if let Err(e) = self.shard.advance(self.policy.as_stream(), horizon) {
            self.err = Some(e);
        }
    }

    /// Drain the shard to completion and fold it into its report.
    fn finish(self) -> Result<ShardReport, EvalError> {
        let Lane {
            shard,
            policy,
            engine,
            arrivals,
            err,
            ..
        } = self;
        if let Some(e) = err {
            return Err(e);
        }
        let (run, mut report) = shard.finish(policy.as_stream())?;
        let service = policy.finish(&mut report);
        Ok(ShardReport {
            arrivals,
            run,
            report,
            stats: engine.stats(),
            service,
        })
    }
}

/// Validate one arrival as it is pulled from the stream; the fleet never
/// holds more than one epoch of the trace, so validation is streaming
/// too.
fn validated(a: OpenArrival, last_at: &mut f64) -> Result<OpenArrival, EvalError> {
    validate_arrival(&a)?;
    if a.at_s < *last_at {
        return Err(EvalError::InvalidInput {
            what: "fleet arrivals must be in non-decreasing time order",
        });
    }
    *last_at = a.at_s;
    Ok(a)
}

/// Run ECoST over an arrival stream on a sharded fleet.
///
/// `arrivals` is consumed lazily — one epoch's batch at a time — so a
/// generator-backed stream (e.g. [`ecost_sim::TraceStream`] mapped into
/// [`OpenArrival`]s) replays millions of arrivals with peak memory
/// proportional to the densest epoch, not the trace length. Arrival
/// times must be non-decreasing (sorted streams; typed error otherwise).
///
/// Shard engines are built over clones of `tb` with counters scoped
/// `fleet.shard<i>` in `recorder`'s registry; pass [`Recorder::noop`]
/// when telemetry is not being collected. See the module docs for the
/// determinism contract.
pub fn run_fleet<I>(
    tb: &Testbed,
    cfg: &FleetConfig,
    arrivals: I,
    ctx: &EcostContext<'_>,
    recorder: &Recorder,
) -> Result<FleetRun, EvalError>
where
    I: IntoIterator<Item = OpenArrival>,
{
    cfg.validate()?;
    let shards = cfg.shards;

    let engines: Vec<EvalEngine> = (0..shards)
        .map(|i| {
            EvalEngine::with_scoped_recorder(
                tb.clone(),
                recorder.clone(),
                &format!("fleet.shard{i}"),
            )
            .with_cache_budget(cfg.cache_budget)
        })
        .collect();

    let mut lanes: Vec<Lane<'_, '_>> = Vec::with_capacity(shards);
    for (i, engine) in engines.iter().enumerate() {
        let decisions = match &cfg.service {
            None => Decisions::Ecost(ctx),
            Some(svc) => Decisions::Serviced {
                ctx,
                config: svc.config.clone(),
                faults: if svc.faults.len() == 1 {
                    svc.faults[0]
                } else {
                    svc.faults[i]
                },
            },
        };
        let policy = Decider::new(engine, decisions)?;
        lanes.push(Lane {
            shard: CalendarShard::new(
                engine,
                cfg.nodes_per_shard,
                cfg.open.max_head_skips,
                &cfg.setup,
                cfg.open.eligible_window,
            ),
            policy,
            engine,
            inbox: Vec::new(),
            backlog_gauge: recorder.metrics().gauge(&format!("fleet.shard{i}.backlog")),
            arrivals: 0,
            err: None,
        });
    }

    let mut router = ArrivalRouter::new(cfg.route, shards);
    let mut backlogs = vec![0u64; shards];
    let mut stream = arrivals.into_iter();
    let mut last_at = 0.0f64;
    let mut next = match stream.next() {
        Some(a) => Some(validated(a, &mut last_at)?),
        None => {
            return Err(EvalError::InvalidInput {
                what: "empty arrival stream",
            })
        }
    };

    let mut epochs = 0u64;
    let mut total_arrivals = 0u64;
    let mut peak_epoch_arrivals = 0usize;
    // Index of the next epoch boundary, as a float so the horizon is a
    // *product* (`k * epoch_s`), never an accumulated sum — byte-stable
    // no matter how many epochs run or are skipped.
    let mut epoch_floor = 0.0f64;

    while let Some(head) = next {
        // Fast-forward empty epochs: jump straight to the epoch that
        // contains the next arrival.
        let k = (head.at_s / cfg.epoch_s).floor().max(epoch_floor);
        let horizon = (k + 1.0) * cfg.epoch_s;

        // Route every arrival due this epoch. The drain rule over-includes
        // by the calendar's tie window: an event just inside the horizon
        // admits arrivals up to TIE_EPS past itself, so those arrivals
        // must already be pushed (see the CalendarShard contract).
        router.begin_epoch(&backlogs);
        let mut batch = 0usize;
        loop {
            match next {
                Some(a) if a.at_s < horizon + TIE_EPS => {
                    let s = router.route(a.app.class());
                    lanes[s].inbox.push(a);
                    lanes[s].arrivals += 1;
                    batch += 1;
                    next = match stream.next() {
                        Some(raw) => Some(validated(raw, &mut last_at)?),
                        None => None,
                    };
                }
                _ => break,
            }
        }
        total_arrivals += batch as u64;
        peak_epoch_arrivals = peak_epoch_arrivals.max(batch);

        // The barrier: every shard advances to the horizon in parallel.
        lanes = lanes
            .into_par_iter()
            .map(|mut lane| {
                lane.step(horizon);
                lane
            })
            .collect();
        for lane in &mut lanes {
            if let Some(e) = lane.err.take() {
                return Err(e);
            }
        }

        // Sample backlogs for the next routing round.
        for (i, lane) in lanes.iter().enumerate() {
            let b = lane.shard.outstanding() as u64;
            backlogs[i] = b;
            lane.backlog_gauge.sample(b);
        }

        epochs += 1;
        epoch_floor = k + 1.0;
    }

    // Drain every shard to completion, still in parallel.
    let outcomes: Vec<Result<ShardReport, EvalError>> =
        lanes.into_par_iter().map(|lane| lane.finish()).collect();
    let mut shard_reports = Vec::with_capacity(shards);
    for outcome in outcomes {
        shard_reports.push(outcome?);
    }

    let run = ClusterRun {
        makespan_s: shard_reports
            .iter()
            .map(|s| s.run.makespan_s)
            .fold(0.0, f64::max),
        energy_dyn_j: shard_reports.iter().map(|s| s.run.energy_dyn_j).sum(),
        nodes: shards * cfg.nodes_per_shard,
    };
    let mut report = FaultReport::default();
    for s in &shard_reports {
        report += s.report;
    }
    let stats: EngineStats = shard_reports.iter().map(|s| s.stats).sum();
    let service = if cfg.service.is_some() {
        let mut merged = ServiceReport::default();
        for s in &shard_reports {
            if let Some(sr) = &s.service {
                merged.merge(sr);
            }
        }
        Some(merged)
    } else {
        None
    };

    Ok(FleetRun {
        shards: shard_reports,
        run,
        report,
        stats,
        service,
        arrivals: total_arrivals,
        epochs,
        peak_epoch_arrivals,
    })
}
