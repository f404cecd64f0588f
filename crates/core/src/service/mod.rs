//! # ECoST-as-a-service: a concurrent tuning front door
//!
//! The batch and streaming drivers in [`crate::mapping`] assume every
//! tuning decision is free and infallible: the policy calls straight
//! into the [`EvalEngine`] and waits however long the sweep takes. A
//! shared tuning daemon cannot — decisions arrive concurrently, cost
//! real evaluation time, and must answer *something* inside a deadline
//! or say why not. This module turns the engine into such a service:
//!
//! * **Admission control** — a bounded number of simulated service
//!   workers plus a bounded wait queue. A request arriving when every
//!   worker is busy and the queue is full is shed immediately with
//!   [`ServiceError::Overloaded`]; the service never blocks a caller
//!   forever.
//! * **Deadlines** — every request carries a budget in simulated
//!   seconds. Queue wait and evaluation attempts are charged against
//!   it; a request that cannot finish even the class-default fallback
//!   fails with [`ServiceError::DeadlineExceeded`].
//! * **Retry with seeded jitter** — injected transient evaluation
//!   failures are retried under the engine's [`RetryPolicy`] with
//!   deterministic per-request jitter
//!   ([`RetryPolicy::jittered_backoff_for`]).
//! * **Graceful degradation** — a tier ladder [`DecisionTier::FullSweep`]
//!   → [`DecisionTier::Windowed`] → [`DecisionTier::ClassDefault`],
//!   selected by the remaining deadline budget and engine health; the
//!   chosen tier is recorded in telemetry and on the decision.
//! * **Circuit breaker** — consecutive evaluation-tier failures trip a
//!   breaker that short-circuits straight to the fallback tier until a
//!   cooldown elapses on the simulated clock ([`BreakerConfig`]).
//!
//! ## Determinism under concurrency
//!
//! The service is driven from many threads, yet every run with the same
//! request stream must produce byte-identical reports. The trick is a
//! **sequence turnstile**: requests carry dense sequence numbers, and
//! all *simulated* state transitions — admission, queueing, deadline
//! accounting, tier selection, breaker movement — happen under one lock
//! in strict sequence order, as pure arithmetic on the simulated clock
//! (no waiting happens while holding it beyond the turnstile itself).
//! Only the *real* engine computation (memoized sweeps) runs outside
//! the turnstile, in parallel, bounded by a real in-flight limit whose
//! observed peak is exposed for tests. Thread interleaving can change
//! which core computes a sweep, never what the service decides.
//!
//! Two deliberate simplifications keep the arithmetic exact: a request
//! that is shed or abandons its deadline releases its simulated worker
//! immediately (only decided requests occupy capacity), and real engine
//! errors — which would surface in interleaving-dependent order — never
//! feed the breaker; they degrade deterministically to the class-default
//! configuration and are counted separately.

mod breaker;
mod error;

pub use breaker::{BreakerConfig, BreakerState};
pub use error::ServiceError;

pub(crate) use breaker::CircuitBreaker;

use crate::engine::{EvalEngine, RetryPolicy};
use crate::mapping::{class_default_config, class_default_pair};
use ecost_apps::App;
use ecost_mapreduce::{PairConfig, TuningConfig};
use ecost_sim::{RequestFaults, ServiceFaultSpec};
use ecost_telemetry::{Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Latency histogram bucket upper bounds, simulated seconds.
const LATENCY_BOUNDS: [f64; 14] = [
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
];

/// Golden-ratio mixing constant shared with the repo's seeded streams.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// How a decision was produced, from most to least thorough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionTier {
    /// Full pair/solo sweep over the whole configuration space.
    FullSweep,
    /// Restricted sweep: core partition fixed at an even split, only
    /// frequency × block size explored.
    Windowed,
    /// Static class-default knobs; no engine evaluation at all.
    ClassDefault,
}

impl DecisionTier {
    /// Stable lowercase name for telemetry and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DecisionTier::FullSweep => "full",
            DecisionTier::Windowed => "windowed",
            DecisionTier::ClassDefault => "fallback",
        }
    }
}

/// Simulated cost of one evaluation attempt at each tier, seconds.
///
/// These model what a decision *costs the service* on the simulated
/// clock — the currency deadlines are spent in. The real memoized
/// engine work is far cheaper and is never charged against deadlines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionCosts {
    /// One full-sweep attempt.
    pub full_s: f64,
    /// One windowed attempt.
    pub windowed_s: f64,
    /// The class-default fallback (table lookup).
    pub fallback_s: f64,
}

impl DecisionCosts {
    /// Free decisions at every tier (used by [`ServiceConfig::unlimited`]).
    pub fn zero() -> DecisionCosts {
        DecisionCosts {
            full_s: 0.0,
            windowed_s: 0.0,
            fallback_s: 0.0,
        }
    }

    fn of(self, tier: DecisionTier) -> f64 {
        match tier {
            DecisionTier::FullSweep => self.full_s,
            DecisionTier::Windowed => self.windowed_s,
            DecisionTier::ClassDefault => self.fallback_s,
        }
    }
}

impl Default for DecisionCosts {
    /// A full sweep costs 5 simulated seconds, a windowed sweep 0.5,
    /// the fallback lookup 0.01.
    fn default() -> DecisionCosts {
        DecisionCosts {
            full_s: 5.0,
            windowed_s: 0.5,
            fallback_s: 0.01,
        }
    }
}

/// Service-level knobs: capacity, deadlines, retries, breaker, costs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Simulated service workers evaluating decisions concurrently.
    /// `None` = unbounded (requests never queue or shed).
    pub max_inflight: Option<usize>,
    /// Bound on the wait queue when all workers are busy. `None` =
    /// unbounded queue; `Some(0)` = shed whenever no worker is free.
    /// Requires `max_inflight` to be set.
    pub max_queue: Option<usize>,
    /// Default per-request deadline, simulated seconds (a request may
    /// carry its own). `f64::INFINITY` disables deadlines.
    pub deadline_s: f64,
    /// Retry budget and backoff for injected transient failures.
    pub retry: RetryPolicy,
    /// Jitter fraction applied to retry backoffs (0 = none); the jitter
    /// is seeded per request, so it is deterministic.
    pub retry_jitter_frac: f64,
    /// Circuit breaker over the engine-backed tiers.
    pub breaker: BreakerConfig,
    /// Simulated decision costs per tier.
    pub costs: DecisionCosts,
}

impl ServiceConfig {
    /// No limits, no deadlines, no retries, no breaker, free decisions.
    /// A service in this configuration always grants a full sweep and
    /// charges nothing — its decisions are bit-identical to calling the
    /// engine directly.
    pub fn unlimited() -> ServiceConfig {
        ServiceConfig {
            max_inflight: None,
            max_queue: None,
            deadline_s: f64::INFINITY,
            retry: RetryPolicy::none(),
            retry_jitter_frac: 0.0,
            breaker: BreakerConfig::disabled(),
            costs: DecisionCosts::zero(),
        }
    }

    /// Check every invariant; typed error on the first violation.
    pub fn validate(&self) -> Result<(), ServiceError> {
        let bad = |what| Err(ServiceError::InvalidConfig { what });
        if self.max_inflight == Some(0) {
            return bad("max_inflight must be at least 1 when set");
        }
        if self.max_queue.is_some() && self.max_inflight.is_none() {
            return bad("max_queue without max_inflight never binds");
        }
        if self.deadline_s.is_nan() || self.deadline_s <= 0.0 {
            return bad("deadline_s must be positive (infinity disables deadlines)");
        }
        if !(self.retry.backoff_s.is_finite() && self.retry.backoff_s >= 0.0) {
            return bad("retry backoff_s must be finite and non-negative");
        }
        if !(self.retry.backoff_multiplier.is_finite() && self.retry.backoff_multiplier > 0.0) {
            return bad("retry backoff_multiplier must be finite and positive");
        }
        if !(self.retry_jitter_frac.is_finite() && self.retry_jitter_frac >= 0.0) {
            return bad("retry_jitter_frac must be finite and non-negative");
        }
        if !(self.breaker.cooldown_s.is_finite() && self.breaker.cooldown_s >= 0.0) {
            return bad("breaker cooldown_s must be finite and non-negative");
        }
        for c in [
            self.costs.full_s,
            self.costs.windowed_s,
            self.costs.fallback_s,
        ] {
            if !(c.is_finite() && c >= 0.0) {
                return bad("decision costs must be finite and non-negative");
            }
        }
        Ok(())
    }
}

impl Default for ServiceConfig {
    /// 8 workers, a 64-deep queue, 60-second deadlines, two jittered
    /// retries, the default breaker, default costs.
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_inflight: Some(8),
            max_queue: Some(64),
            deadline_s: 60.0,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.5,
                backoff_multiplier: 2.0,
            },
            retry_jitter_frac: 0.5,
            breaker: BreakerConfig::default(),
            costs: DecisionCosts::default(),
        }
    }
}

/// Aggregate service outcome counters, all deterministic under a fixed
/// request stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Requests answered with a configuration.
    pub decided: u64,
    /// Requests shed by the admission controller.
    pub shed: u64,
    /// Requests abandoned for blowing their deadline.
    pub deadline_exceeded: u64,
    /// Decisions served by the full sweep tier.
    pub tier_full: u64,
    /// Decisions served by the windowed tier.
    pub tier_windowed: u64,
    /// Decisions served by the class-default fallback tier.
    pub tier_fallback: u64,
    /// Retries burned against injected transient failures.
    pub retries: u64,
    /// Evaluation-tier attempts that exhausted their retry budget.
    pub tier_failures: u64,
    /// Circuit-breaker trips (re-trips after failed probes included).
    pub breaker_trips: u64,
    /// Requests that skipped the engine tiers because the breaker was
    /// open.
    pub breaker_short_circuits: u64,
    /// Real engine evaluation errors absorbed by degrading to the
    /// class-default configuration (zero in fault-free runs).
    pub engine_fallbacks: u64,
    /// Peak simulated wait-queue occupancy.
    pub queue_peak: u64,
    /// Total simulated decision latency (queue wait + evaluation) over
    /// all decided requests, seconds.
    pub decision_time_s: f64,
}

impl ServiceReport {
    /// Fold another report into this one: counters and latency sum,
    /// `queue_peak` takes the max (per-shard peaks do not add — the
    /// shards' queues never share a worker pool).
    pub fn merge(&mut self, rhs: &ServiceReport) {
        self.decided += rhs.decided;
        self.shed += rhs.shed;
        self.deadline_exceeded += rhs.deadline_exceeded;
        self.tier_full += rhs.tier_full;
        self.tier_windowed += rhs.tier_windowed;
        self.tier_fallback += rhs.tier_fallback;
        self.retries += rhs.retries;
        self.tier_failures += rhs.tier_failures;
        self.breaker_trips += rhs.breaker_trips;
        self.breaker_short_circuits += rhs.breaker_short_circuits;
        self.engine_fallbacks += rhs.engine_fallbacks;
        self.queue_peak = self.queue_peak.max(rhs.queue_peak);
        self.decision_time_s += rhs.decision_time_s;
    }
}

/// What the sequenced admission pass granted a request: its tier and
/// its simulated timeline, before any real engine work happens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grant {
    /// Tier the ladder settled on.
    pub(crate) tier: DecisionTier,
    /// Simulated seconds spent waiting for a service worker.
    pub(crate) queued_s: f64,
    /// Simulated seconds spent evaluating (attempts + backoffs).
    pub(crate) service_s: f64,
    /// Retries burned by this request.
    pub(crate) retries: u32,
    /// The breaker was open: engine tiers were skipped outright.
    pub(crate) breaker_short_circuit: bool,
    /// Wait-queue occupancy observed at this request's arrival.
    pub(crate) queue_depth: usize,
}

/// The sequenced, single-threaded heart of the service: admission,
/// queueing, deadlines, the tier ladder and the breaker, all as pure
/// arithmetic on the simulated clock. [`TuningService`] drives it under
/// the turnstile; the streaming driver's serviced policy drives it
/// directly.
#[derive(Debug, Clone)]
pub(crate) struct ServiceCore {
    cfg: ServiceConfig,
    faults: ServiceFaultSpec,
    breaker: CircuitBreaker,
    /// Per-worker next-free instants (`Some` iff `max_inflight` set).
    workers: Option<Vec<f64>>,
    /// Start instants of admitted requests still waiting at the time
    /// they were granted; non-decreasing, purged as the clock passes.
    waiting: VecDeque<f64>,
    /// High-water arrival instant (arrivals are clamped monotone).
    clock_s: f64,
    report: ServiceReport,
}

impl ServiceCore {
    pub(crate) fn new(
        cfg: ServiceConfig,
        faults: ServiceFaultSpec,
    ) -> Result<ServiceCore, ServiceError> {
        cfg.validate()?;
        let workers = cfg.max_inflight.map(|n| vec![0.0; n]);
        let breaker = CircuitBreaker::new(cfg.breaker);
        Ok(ServiceCore {
            cfg,
            faults,
            breaker,
            workers,
            waiting: VecDeque::new(),
            clock_s: 0.0,
            report: ServiceReport::default(),
        })
    }

    pub(crate) fn report(&self) -> &ServiceReport {
        &self.report
    }

    /// The configured default deadline budget.
    pub(crate) fn deadline_s(&self) -> f64 {
        self.cfg.deadline_s
    }

    /// Breaker position at the core's current high-water instant.
    pub(crate) fn breaker_state(&self) -> BreakerState {
        self.breaker.state(self.clock_s)
    }

    /// Run one request through admission → deadline → tier ladder →
    /// breaker, in pure simulated arithmetic. `faults` overrides the
    /// per-sequence draw from the service's fault spec (tests use this
    /// to script exact failure patterns).
    pub(crate) fn admit(
        &mut self,
        seq: u64,
        submit_t_s: f64,
        deadline_s: f64,
        faults: Option<RequestFaults>,
    ) -> Result<Grant, ServiceError> {
        if !(submit_t_s.is_finite() && submit_t_s >= 0.0) {
            return Err(ServiceError::InvalidRequest {
                what: "submit time must be finite and non-negative",
            });
        }
        if deadline_s.is_nan() || deadline_s <= 0.0 {
            return Err(ServiceError::InvalidRequest {
                what: "deadline must be positive",
            });
        }
        let t = submit_t_s.max(self.clock_s);
        self.clock_s = t;
        while self.waiting.front().is_some_and(|&s| s <= t) {
            self.waiting.pop_front();
        }
        let queue_depth = self.waiting.len();

        // Admission: find the earliest-free simulated worker; queue (or
        // shed) when none is free at `t`.
        let slot = self.workers.as_ref().map(|w| {
            let mut best = 0usize;
            for (i, free) in w.iter().enumerate() {
                if *free < w[best] {
                    best = i;
                }
            }
            (best, w[best])
        });
        let start = match slot {
            Some((_, free)) if free > t => {
                if let Some(maxq) = self.cfg.max_queue {
                    if queue_depth >= maxq {
                        self.report.shed += 1;
                        return Err(ServiceError::Overloaded {
                            queued: queue_depth,
                            limit: maxq,
                        });
                    }
                }
                free
            }
            _ => t,
        };
        let queued_s = start - t;
        let mut spent = queued_s;
        let fallback_cost = self.cfg.costs.fallback_s;
        if spent + fallback_cost > deadline_s {
            self.report.deadline_exceeded += 1;
            return Err(ServiceError::DeadlineExceeded {
                deadline_s,
                spent_s: spent,
            });
        }

        let f = faults.unwrap_or_else(|| self.faults.draw(seq));
        let slow = if f.slow_factor.is_finite() && f.slow_factor > 1.0 {
            f.slow_factor
        } else {
            1.0
        };
        let jitter_key = self.faults.seed ^ seq.wrapping_mul(PHI);

        // Tier ladder. One breaker check per request: an open breaker
        // short-circuits both engine tiers.
        let mut retries = 0u32;
        let mut granted: Option<DecisionTier> = None;
        let breaker_short_circuit = !self.breaker.allows_engine(t + spent);
        if breaker_short_circuit {
            self.report.breaker_short_circuits += 1;
        } else {
            'ladder: for tier in [DecisionTier::FullSweep, DecisionTier::Windowed] {
                let cost = self.cfg.costs.of(tier) * slow;
                // Affordability: this attempt plus the guaranteed-cost
                // fallback must still fit the budget.
                if spent + cost + fallback_cost > deadline_s {
                    continue;
                }
                spent += cost;
                let mut attempt = 0u32;
                let mut ok = f.transient_failures == 0;
                while !ok {
                    // Attempt `attempt` failed; can we retry?
                    if attempt >= self.cfg.retry.max_retries {
                        break;
                    }
                    let backoff = self.cfg.retry.jittered_backoff_for(
                        attempt,
                        self.cfg.retry_jitter_frac,
                        jitter_key,
                    );
                    if spent + backoff + cost + fallback_cost > deadline_s {
                        break;
                    }
                    spent += backoff + cost;
                    retries += 1;
                    attempt += 1;
                    ok = attempt >= f.transient_failures;
                }
                if ok {
                    self.breaker.on_success();
                    granted = Some(tier);
                    break 'ladder;
                }
                self.report.tier_failures += 1;
                if self.breaker.on_failure(t + spent) {
                    self.report.breaker_trips += 1;
                    // Freshly tripped: skip any remaining engine tier.
                    break 'ladder;
                }
            }
        }
        let tier = match granted {
            Some(tier) => tier,
            None => {
                // Class-default fallback; its cost was reserved above,
                // except when engine tiers were skipped without burning
                // budget — re-check for clarity.
                if spent + fallback_cost > deadline_s {
                    self.report.deadline_exceeded += 1;
                    return Err(ServiceError::DeadlineExceeded {
                        deadline_s,
                        spent_s: spent,
                    });
                }
                spent += fallback_cost;
                DecisionTier::ClassDefault
            }
        };
        // Occupy the simulated worker for the full service time.
        let service_s = spent - queued_s;
        if let (Some(workers), Some((idx, _))) = (self.workers.as_mut(), slot) {
            workers[idx] = start + service_s;
        }
        if start > t {
            self.waiting.push_back(start);
        }
        self.report.queue_peak = self.report.queue_peak.max(self.waiting.len() as u64);
        self.report.decided += 1;
        match tier {
            DecisionTier::FullSweep => self.report.tier_full += 1,
            DecisionTier::Windowed => self.report.tier_windowed += 1,
            DecisionTier::ClassDefault => self.report.tier_fallback += 1,
        }
        self.report.retries += u64::from(retries);
        self.report.decision_time_s += spent;
        Ok(Grant {
            tier,
            queued_s,
            service_s,
            retries,
            breaker_short_circuit,
            queue_depth,
        })
    }
}

/// One tuning question for the service.
#[derive(Debug, Clone)]
pub struct TuningRequest {
    /// Dense per-service sequence number starting at 0. The turnstile
    /// admits requests in exactly this order; every sequence number
    /// must be submitted exactly once.
    pub seq: u64,
    /// Simulated submission instant, seconds.
    pub submit_t_s: f64,
    /// Deadline budget, simulated seconds (`f64::INFINITY` = none).
    pub deadline_s: f64,
    /// The application to tune.
    pub app: App,
    /// Its input size, MB.
    pub input_mb: f64,
    /// Optional co-runner (application, input MB): tune the pair.
    pub partner: Option<(App, f64)>,
    /// Scripted fault override for this request; `None` draws from the
    /// service's seeded fault spec.
    pub faults: Option<RequestFaults>,
}

impl TuningRequest {
    /// A solo request with the service-default deadline semantics.
    pub fn solo(seq: u64, submit_t_s: f64, deadline_s: f64, app: App, input_mb: f64) -> Self {
        TuningRequest {
            seq,
            submit_t_s,
            deadline_s,
            app,
            input_mb,
            partner: None,
            faults: None,
        }
    }

    /// A pair request.
    pub fn pair(seq: u64, submit_t_s: f64, deadline_s: f64, a: (App, f64), b: (App, f64)) -> Self {
        TuningRequest {
            seq,
            submit_t_s,
            deadline_s,
            app: a.0,
            input_mb: a.1,
            partner: Some(b),
            faults: None,
        }
    }
}

/// The configuration a decision settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecidedConfig {
    /// Knobs for a standalone run.
    Solo(TuningConfig),
    /// Knobs for a co-located pair (`.a` is the request's app, `.b` the
    /// partner).
    Pair(PairConfig),
}

/// A successful service answer.
#[derive(Debug, Clone)]
pub struct TuningDecision {
    /// Tier that produced the configuration.
    pub tier: DecisionTier,
    /// The chosen knobs.
    pub config: DecidedConfig,
    /// Simulated seconds queued before evaluation started.
    pub queued_s: f64,
    /// Simulated seconds of evaluation (attempts + backoffs).
    pub service_s: f64,
    /// Retries burned against injected transient failures.
    pub retries: u32,
    /// The breaker was open; engine tiers were skipped.
    pub breaker_short_circuit: bool,
    /// The granted tier's real engine evaluation failed and the config
    /// degraded to the class default.
    pub degraded: bool,
}

impl TuningDecision {
    /// Total simulated decision latency, seconds.
    pub fn latency_s(&self) -> f64 {
        self.queued_s + self.service_s
    }
}

/// Telemetry handles registered on the engine's recorder.
struct SvcCounters {
    decided: Counter,
    shed: Counter,
    deadline_exceeded: Counter,
    tier_full: Counter,
    tier_windowed: Counter,
    tier_fallback: Counter,
    retries: Counter,
    breaker_trips: Counter,
    breaker_short_circuits: Counter,
    engine_fallbacks: Counter,
    queue_depth: Gauge,
}

/// The turnstile's state. `waiters` counts threads blocked on the
/// turnstile condvar, so a request that advances `next_seq` wakes them
/// only when there are any: an uncontended client makes no wake syscall.
struct Gate {
    next_seq: u64,
    waiters: usize,
    core: ServiceCore,
}

/// The real in-flight limiter's state; `waiters` counts threads blocked
/// on the slot condvar, as [`Gate::waiters`] does for the turnstile.
struct Slots {
    inflight: usize,
    peak: usize,
    waiters: usize,
}

/// Thread-safe tuning daemon over a shared [`EvalEngine`].
///
/// Call [`TuningService::decide`] from any number of threads; requests
/// must carry dense sequence numbers (0, 1, 2, …) and each sequence
/// number must be submitted exactly once — the turnstile blocks a
/// request until all lower sequence numbers have passed admission, which
/// is what makes every simulated outcome independent of thread timing.
pub struct TuningService<'e> {
    engine: &'e EvalEngine,
    gate: Mutex<Gate>,
    turnstile: Condvar,
    slots: Mutex<Slots>,
    slots_cv: Condvar,
    max_inflight: Option<usize>,
    counters: SvcCounters,
    latency: Histogram,
    engine_fallbacks: AtomicU64,
    /// Condvar wakes issued: `[turnstile, slot limiter]`.
    #[cfg(test)]
    wakes: [AtomicU64; 2],
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl<'e> TuningService<'e> {
    /// Build a service over `engine` with the given limits and seeded
    /// fault spec. Fails with [`ServiceError::InvalidConfig`] on a
    /// malformed configuration.
    pub fn new(
        engine: &'e EvalEngine,
        cfg: ServiceConfig,
        faults: ServiceFaultSpec,
    ) -> Result<TuningService<'e>, ServiceError> {
        let max_inflight = cfg.max_inflight;
        let core = ServiceCore::new(cfg, faults)?;
        let m = engine.recorder().metrics();
        let counters = SvcCounters {
            decided: m.counter("service.decided"),
            shed: m.counter("service.shed"),
            deadline_exceeded: m.counter("service.deadline_exceeded"),
            tier_full: m.counter("service.tier.full"),
            tier_windowed: m.counter("service.tier.windowed"),
            tier_fallback: m.counter("service.tier.fallback"),
            retries: m.counter("service.retries"),
            breaker_trips: m.counter("service.breaker.trips"),
            breaker_short_circuits: m.counter("service.breaker.short_circuits"),
            engine_fallbacks: m.counter("service.engine_fallbacks"),
            queue_depth: m.gauge("service.queue_depth"),
        };
        let latency = Histogram::new(&LATENCY_BOUNDS).map_err(|_| ServiceError::Internal {
            what: "latency histogram bounds rejected",
        })?;
        Ok(TuningService {
            engine,
            gate: Mutex::new(Gate {
                next_seq: 0,
                waiters: 0,
                core,
            }),
            turnstile: Condvar::new(),
            slots: Mutex::new(Slots {
                inflight: 0,
                peak: 0,
                waiters: 0,
            }),
            slots_cv: Condvar::new(),
            max_inflight,
            counters,
            latency,
            engine_fallbacks: AtomicU64::new(0),
            #[cfg(test)]
            wakes: [AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    /// Answer one tuning request, or fail with a typed error.
    ///
    /// Blocks until all lower sequence numbers have passed admission
    /// (the turnstile), then runs the simulated admission/ladder pass,
    /// then — for granted requests — performs the real engine work for
    /// the granted tier under the real in-flight limit.
    pub fn decide(&self, req: &TuningRequest) -> Result<TuningDecision, ServiceError> {
        let grant = self.sequenced_admit(req)?;
        // Real engine work happens outside the turnstile, bounded by a
        // real in-flight limit (its peak is asserted on by tests).
        let _slot = self.acquire_slot();
        let config = match self.tier_work(req, grant.tier) {
            Ok(config) => config,
            Err(e) if e.is_transient() || e.is_degradable() => {
                // Deterministic degradation: real engine failures never
                // feed the breaker (their arrival order is a thread
                // race); the answer falls back to class defaults.
                self.engine.note_fallback(req.submit_t_s, "service");
                self.counters.engine_fallbacks.inc();
                self.engine_fallbacks.fetch_add(1, Ordering::Relaxed);
                return Ok(TuningDecision {
                    tier: grant.tier,
                    config: self.fallback_config(req),
                    queued_s: grant.queued_s,
                    service_s: grant.service_s,
                    retries: grant.retries,
                    breaker_short_circuit: grant.breaker_short_circuit,
                    degraded: true,
                });
            }
            Err(e) => return Err(ServiceError::Eval(e)),
        };
        Ok(TuningDecision {
            tier: grant.tier,
            config,
            queued_s: grant.queued_s,
            service_s: grant.service_s,
            retries: grant.retries,
            breaker_short_circuit: grant.breaker_short_circuit,
            degraded: false,
        })
    }

    /// The turnstiled admission pass: waits for `req.seq`'s turn, runs
    /// the simulated core, records telemetry, advances the turnstile.
    fn sequenced_admit(&self, req: &TuningRequest) -> Result<Grant, ServiceError> {
        let mut gate = relock(&self.gate);
        loop {
            if gate.next_seq == req.seq {
                break;
            }
            if gate.next_seq > req.seq {
                return Err(ServiceError::InvalidRequest {
                    what: "sequence number already consumed",
                });
            }
            gate.waiters += 1;
            gate = self.turnstile.wait(gate).unwrap_or_else(|p| p.into_inner());
            gate.waiters -= 1;
        }
        // From here on the sequence number is consumed no matter the
        // outcome, so later requests never deadlock on a failed one.
        let outcome = self.validated_admit(&mut gate, req);
        match &outcome {
            Ok(grant) => {
                self.counters.decided.inc();
                match grant.tier {
                    DecisionTier::FullSweep => self.counters.tier_full.inc(),
                    DecisionTier::Windowed => self.counters.tier_windowed.inc(),
                    DecisionTier::ClassDefault => self.counters.tier_fallback.inc(),
                }
                self.counters.retries.add(u64::from(grant.retries));
                if grant.breaker_short_circuit {
                    self.counters.breaker_short_circuits.inc();
                }
                self.counters.queue_depth.sample(grant.queue_depth as u64);
                self.latency.record(grant.queued_s + grant.service_s);
            }
            Err(ServiceError::Overloaded { .. }) => self.counters.shed.inc(),
            Err(ServiceError::DeadlineExceeded { .. }) => self.counters.deadline_exceeded.inc(),
            Err(_) => {}
        }
        gate.next_seq += 1;
        // Every waiter registered under this lock before it slept, so a
        // zero count means no thread can miss this advance; waiters that
        // arrive later re-check `next_seq` under the lock first.
        let wake = gate.waiters > 0;
        drop(gate);
        if wake {
            #[cfg(test)]
            self.wakes[0].fetch_add(1, Ordering::Relaxed);
            self.turnstile.notify_all();
        }
        outcome
    }

    fn validated_admit(&self, gate: &mut Gate, req: &TuningRequest) -> Result<Grant, ServiceError> {
        if !(req.input_mb.is_finite() && req.input_mb > 0.0) {
            return Err(ServiceError::InvalidRequest {
                what: "input_mb must be finite and positive",
            });
        }
        if let Some((_, mb)) = req.partner {
            if !(mb.is_finite() && mb > 0.0) {
                return Err(ServiceError::InvalidRequest {
                    what: "partner input_mb must be finite and positive",
                });
            }
        }
        let trips_before = gate.core.breaker.trips();
        let out = gate
            .core
            .admit(req.seq, req.submit_t_s, req.deadline_s, req.faults);
        let tripped = gate.core.breaker.trips() - trips_before;
        if tripped > 0 {
            self.counters.breaker_trips.add(tripped);
        }
        out
    }

    /// Real engine work for a granted tier.
    fn tier_work(
        &self,
        req: &TuningRequest,
        tier: DecisionTier,
    ) -> Result<DecidedConfig, crate::engine::EvalError> {
        let cores = self.engine.testbed().node.cores;
        match req.partner {
            Some((partner, partner_mb)) => {
                let cfg = match tier {
                    DecisionTier::FullSweep => {
                        self.engine
                            .best_pair(
                                req.app.profile(),
                                req.input_mb,
                                partner.profile(),
                                partner_mb,
                            )?
                            .config
                    }
                    DecisionTier::Windowed => {
                        let half = class_default_pair(req.app.class(), partner.class(), cores);
                        self.engine
                            .best_pair_with_partition(
                                req.app.profile(),
                                req.input_mb,
                                partner.profile(),
                                partner_mb,
                                (half.a.mappers, half.b.mappers),
                            )?
                            .config
                    }
                    DecisionTier::ClassDefault => return Ok(self.fallback_config(req)),
                };
                Ok(DecidedConfig::Pair(cfg))
            }
            None => {
                let cfg = match tier {
                    DecisionTier::FullSweep => {
                        self.engine
                            .best_solo(req.app.profile(), req.input_mb)?
                            .config
                    }
                    DecisionTier::Windowed => {
                        // Mapper count pinned to the whole node; only
                        // frequency × block size explored.
                        let idle = self.engine.idle_w();
                        let mut best: Option<(f64, TuningConfig)> = None;
                        for cfg in TuningConfig::space_fixed_mappers(cores) {
                            let m =
                                self.engine
                                    .solo_metrics(req.app.profile(), req.input_mb, cfg)?;
                            let edp = m.edp_wall(idle);
                            if best.as_ref().is_none_or(|(b, _)| edp < *b) {
                                best = Some((edp, cfg));
                            }
                        }
                        match best {
                            Some((_, cfg)) => cfg,
                            None => class_default_config(req.app.class(), cores),
                        }
                    }
                    DecisionTier::ClassDefault => return Ok(self.fallback_config(req)),
                };
                Ok(DecidedConfig::Solo(cfg))
            }
        }
    }

    /// The zero-engine fallback answer for a request.
    fn fallback_config(&self, req: &TuningRequest) -> DecidedConfig {
        let cores = self.engine.testbed().node.cores;
        match req.partner {
            Some((partner, _)) => {
                DecidedConfig::Pair(class_default_pair(req.app.class(), partner.class(), cores))
            }
            None => DecidedConfig::Solo(class_default_config(req.app.class(), cores)),
        }
    }

    fn acquire_slot(&self) -> Option<SlotGuard<'_, 'e>> {
        let limit = self.max_inflight?;
        let mut slots = relock(&self.slots);
        while slots.inflight >= limit {
            slots.waiters += 1;
            slots = self.slots_cv.wait(slots).unwrap_or_else(|p| p.into_inner());
            slots.waiters -= 1;
        }
        slots.inflight += 1;
        slots.peak = slots.peak.max(slots.inflight);
        drop(slots);
        Some(SlotGuard { svc: self })
    }

    /// Snapshot of the deterministic outcome counters.
    pub fn report(&self) -> ServiceReport {
        let mut r = relock(&self.gate).core.report().clone();
        r.engine_fallbacks = self.engine_fallbacks.load(Ordering::Relaxed);
        r
    }

    /// Breaker position at the service's current simulated high-water
    /// instant.
    pub fn breaker_state(&self) -> BreakerState {
        relock(&self.gate).core.breaker_state()
    }

    /// Simulated decision-latency quantile (bucketed upper bound), or
    /// `None` before any decision.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q)
    }

    /// Highest number of real engine evaluations ever in flight at
    /// once (0 when no in-flight limit is configured).
    pub fn inflight_peak(&self) -> usize {
        relock(&self.slots).peak
    }
}

/// RAII release of a real compute slot.
struct SlotGuard<'s, 'e> {
    svc: &'s TuningService<'e>,
}

impl Drop for SlotGuard<'_, '_> {
    fn drop(&mut self) {
        let mut slots = relock(&self.svc.slots);
        slots.inflight = slots.inflight.saturating_sub(1);
        let wake = slots.waiters > 0;
        drop(slots);
        if wake {
            #[cfg(test)]
            self.svc.wakes[1].fetch_add(1, Ordering::Relaxed);
            self.svc.slots_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(cfg: ServiceConfig) -> ServiceCore {
        match ServiceCore::new(cfg, ServiceFaultSpec::healthy(7)) {
            Ok(c) => c,
            Err(e) => panic!("core construction failed: {e}"),
        }
    }

    #[test]
    fn unlimited_core_always_grants_a_free_full_sweep() {
        let mut c = core(ServiceConfig::unlimited());
        for seq in 0..10 {
            let g = match c.admit(seq, seq as f64, f64::INFINITY, None) {
                Ok(g) => g,
                Err(e) => panic!("unlimited admit failed: {e}"),
            };
            assert_eq!(g.tier, DecisionTier::FullSweep);
            assert_eq!(g.queued_s, 0.0);
            assert_eq!(g.service_s, 0.0);
            assert_eq!(g.retries, 0);
        }
        assert_eq!(c.report().decided, 10);
        assert_eq!(c.report().tier_full, 10);
        assert_eq!(c.report().decision_time_s, 0.0);
    }

    #[test]
    fn busy_workers_and_full_queue_shed() {
        let mut c = core(ServiceConfig {
            max_inflight: Some(1),
            max_queue: Some(1),
            ..ServiceConfig::default()
        });
        // Worker busy for costs.full_s = 5 s after the first request.
        assert!(c.admit(0, 0.0, f64::INFINITY, None).is_ok());
        // Second request queues (depth 1)...
        let g = match c.admit(1, 1.0, f64::INFINITY, None) {
            Ok(g) => g,
            Err(e) => panic!("queued admit failed: {e}"),
        };
        assert!(g.queued_s > 0.0);
        // ...third finds the queue full and is shed.
        match c.admit(2, 1.0, f64::INFINITY, None) {
            Err(ServiceError::Overloaded { queued, limit }) => {
                assert_eq!(queued, 1);
                assert_eq!(limit, 1);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(c.report().shed, 1);
        assert_eq!(c.report().queue_peak, 1);
    }

    #[test]
    fn budget_selects_the_affordable_tier() {
        let mut c = core(ServiceConfig {
            max_inflight: None,
            max_queue: None,
            ..ServiceConfig::default()
        });
        // Defaults: full 5 s, windowed 0.5 s, fallback 0.01 s.
        let g = match c.admit(0, 0.0, 6.0, None) {
            Ok(g) => g,
            Err(e) => panic!("admit failed: {e}"),
        };
        assert_eq!(g.tier, DecisionTier::FullSweep);
        let g = match c.admit(1, 0.0, 1.0, None) {
            Ok(g) => g,
            Err(e) => panic!("admit failed: {e}"),
        };
        assert_eq!(g.tier, DecisionTier::Windowed);
        let g = match c.admit(2, 0.0, 0.1, None) {
            Ok(g) => g,
            Err(e) => panic!("admit failed: {e}"),
        };
        assert_eq!(g.tier, DecisionTier::ClassDefault);
        match c.admit(3, 0.0, 0.001, None) {
            Err(ServiceError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let r = c.report();
        assert_eq!(
            (
                r.tier_full,
                r.tier_windowed,
                r.tier_fallback,
                r.deadline_exceeded
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn transient_bursts_are_retried_then_degrade() {
        let cfg = ServiceConfig {
            max_inflight: None,
            max_queue: None,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_s: 0.1,
                backoff_multiplier: 2.0,
            },
            retry_jitter_frac: 0.0,
            ..ServiceConfig::default()
        };
        let mut c = core(cfg);
        // Burst of 2 ≤ 2 retries: cured on the full tier.
        let g = match c.admit(
            0,
            0.0,
            f64::INFINITY,
            Some(RequestFaults {
                transient_failures: 2,
                slow_factor: 1.0,
            }),
        ) {
            Ok(g) => g,
            Err(e) => panic!("admit failed: {e}"),
        };
        assert_eq!(g.tier, DecisionTier::FullSweep);
        assert_eq!(g.retries, 2);
        // Burst of 3 > 2 retries: full and windowed both fail, falls
        // back to class defaults.
        let g = match c.admit(
            1,
            0.0,
            f64::INFINITY,
            Some(RequestFaults {
                transient_failures: 3,
                slow_factor: 1.0,
            }),
        ) {
            Ok(g) => g,
            Err(e) => panic!("admit failed: {e}"),
        };
        assert_eq!(g.tier, DecisionTier::ClassDefault);
        let r = c.report();
        assert_eq!(r.retries, 2 + 4);
        assert_eq!(r.tier_failures, 2);
    }

    #[test]
    fn admission_is_deterministic_in_sequence_order() {
        let run = || {
            let mut c = match ServiceCore::new(
                ServiceConfig::default(),
                ServiceFaultSpec {
                    transient_rate: 0.3,
                    transient_burst: 4,
                    slow_rate: 0.2,
                    slow_factor: 3.0,
                    seed: 42,
                },
            ) {
                Ok(c) => c,
                Err(e) => panic!("core construction failed: {e}"),
            };
            let mut log = Vec::new();
            for seq in 0..200u64 {
                let out = c.admit(seq, seq as f64 * 0.7, 20.0, None);
                log.push(format!("{out:?}"));
            }
            (log, c.report().clone())
        };
        let (log_a, rep_a) = run();
        let (log_b, rep_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(rep_a, rep_b);
        assert!(rep_a.decided > 0);
    }

    /// Requests per phase of the wake tests.
    const THREADS: u64 = 16;

    /// An engine on a 2-core node: its 400-point pair sweeps keep the
    /// wake tests cheap in debug builds.
    fn small_engine() -> EvalEngine {
        EvalEngine::new(crate::features::Testbed {
            node: ecost_sim::NodeSpec {
                cores: 2,
                ..ecost_sim::NodeSpec::atom_c2758()
            },
            ..crate::features::Testbed::atom()
        })
    }

    /// One real slot (and one simulated worker).
    fn one_slot(engine: &EvalEngine) -> TuningService<'_> {
        let cfg = ServiceConfig {
            max_inflight: Some(1),
            ..ServiceConfig::default()
        };
        match TuningService::new(engine, cfg, ServiceFaultSpec::healthy(7)) {
            Ok(svc) => svc,
            Err(e) => panic!("service construction failed: {e}"),
        }
    }

    /// Pair requests `seqs`, `gap_s` simulated seconds apart, over two
    /// pair keys.
    fn pair_requests(seqs: std::ops::Range<u64>, gap_s: f64) -> Vec<TuningRequest> {
        seqs.map(|seq| {
            let app = [App::Wc, App::Gp][seq as usize % 2];
            TuningRequest::pair(
                seq,
                seq as f64 * gap_s,
                60.0,
                (app, 256.0),
                (App::St, 256.0),
            )
        })
        .collect()
    }

    fn outcome(res: Result<TuningDecision, ServiceError>) -> String {
        match res {
            Ok(d) => format!(
                "{}|{:?}|{}|{}|{}|{}",
                d.tier.name(),
                d.config,
                d.queued_s.to_bits(),
                d.service_s.to_bits(),
                d.retries,
                d.degraded
            ),
            Err(e) => format!("err:{e:?}"),
        }
    }

    /// Wakes issued so far: `[turnstile, slot limiter]`.
    fn wakes(svc: &TuningService<'_>) -> [u64; 2] {
        [0, 1].map(|i| svc.wakes[i].load(Ordering::SeqCst))
    }

    /// Poll until `count()` reaches `n`; the caller's watchdog bounds it.
    fn wait_for(n: usize, count: impl Fn() -> usize) {
        while count() < n {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Run `f` on its own thread and fail if it takes over 60 s: a lost
    /// wake hangs its run, and must fail the test rather than hang it.
    fn watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(v) => {
                let _ = run.join();
                v
            }
            Err(RecvTimeoutError::Disconnected) => match run.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => panic!("the run ended without a result"),
            },
            Err(RecvTimeoutError::Timeout) => {
                panic!("the run did not finish within 60 s: a lost wake?")
            }
        }
    }

    /// Decide `reqs` one after another from the calling thread.
    fn sequential(svc: &TuningService<'_>, reqs: &[TuningRequest]) -> Vec<String> {
        reqs.iter().map(|r| outcome(svc.decide(r))).collect()
    }

    /// Decide `reqs` (whose first is the turnstile's next sequence number)
    /// on one thread each, spawned in reverse sequence order, so that both
    /// condvars have waiters: the test holds the only slot until every
    /// other request waits at the turnstile, then until every request
    /// waits for the slot. Every request must be granted a tier.
    fn contended(svc: &TuningService<'_>, reqs: &[TuningRequest]) -> Vec<String> {
        std::thread::scope(|s| {
            let held = svc.acquire_slot();
            let mut handles: Vec<_> = reqs[1..]
                .iter()
                .rev()
                .map(|r| s.spawn(move || outcome(svc.decide(r))))
                .collect();
            wait_for(reqs.len() - 1, || relock(&svc.gate).waiters);
            handles.push(s.spawn(|| outcome(svc.decide(&reqs[0]))));
            wait_for(reqs.len(), || relock(&svc.slots).waiters);
            drop(held);
            let mut out: Vec<String> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| "panicked".into()))
                .collect();
            // Spawned as seq n-1, …, 1, 0.
            out.reverse();
            out
        })
    }

    #[test]
    fn contended_turnstile_and_slot_lose_no_wake() {
        let (got, peak, woke) = watchdog(|| {
            let eng = small_engine();
            let svc = one_slot(&eng);
            let got = contended(&svc, &pair_requests(0..THREADS, 2.0));
            (got, svc.inflight_peak(), wakes(&svc))
        });
        let eng = small_engine();
        let want = sequential(&one_slot(&eng), &pair_requests(0..THREADS, 2.0));
        assert_eq!(got, want, "answers must not depend on thread timing");
        assert!(want.iter().all(|o| o.starts_with("full|")), "{want:?}");
        assert!(
            peak <= 1,
            "in-flight peak {peak} exceeded the one-slot limit"
        );
        assert!(
            woke[0] > 0 && woke[1] > 0,
            "both condvars had waiters: {woke:?}"
        );
    }

    #[test]
    fn an_uncontended_client_wakes_no_one_even_after_contention() {
        let (fresh, busy, after) = watchdog(|| {
            let eng = small_engine();
            let svc = one_slot(&eng);
            let reqs = pair_requests(0..3 * THREADS, 10.0);
            let (first, rest) = reqs.split_at(THREADS as usize);
            let (middle, last) = rest.split_at(THREADS as usize);
            sequential(&svc, first);
            let fresh = wakes(&svc);
            contended(&svc, middle);
            let busy = wakes(&svc);
            sequential(&svc, last);
            (fresh, busy, wakes(&svc))
        });
        assert_eq!(fresh, [0, 0], "a lone client on a fresh service");
        assert!(
            busy[0] > 0 && busy[1] > 0,
            "the contended phase woke: {busy:?}"
        );
        assert_eq!(after, busy, "a lone client after the contended phase");
    }
}
