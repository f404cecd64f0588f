//! # ecost-core — the ECoST controller
//!
//! The paper's contribution (§5–§8), implemented over the simulation
//! substrate:
//!
//! * [`features`] — the "learning period": profile an incoming application at
//!   a reference configuration and collect its counter signature;
//! * [`classify`] — Step 1 of ECoST: label the unknown application
//!   C/H/I/M, either with the paper's threshold rules (§6.1) or k-NN;
//! * [`engine`] — the evaluation engine: the one fallible, memoized
//!   simulation service (solo runs, pair sweeps, per-point pair metrics)
//!   behind the oracle, the STPs, the strategies and the cluster scheduler;
//! * [`oracle`] — the brute-force queries (§4's 84 480-run study): best
//!   standalone config (160 points), best co-located config (11 200 points),
//!   all answered from the engine's shared memo;
//! * [`database`] — §6.2's database of best configurations for the known
//!   (training) applications;
//! * [`stp`] — the self-tuning prediction techniques: LkT-STP (lookup table)
//!   and MLM-STP (LR / REPTree / MLP per class pair, argmin over the config
//!   space);
//! * [`pairing`] — Fig 5's priority ranking and Fig 4's pairing decision
//!   tree;
//! * [`queue`] — the FIFO wait queue with head reservation and small-job
//!   leap-forward;
//! * [`strategies`] — ILAO and COLAO (§4.2);
//! * [`scheduler`] — the streaming cluster scheduler: one event-calendar
//!   driver (binary heap of per-node completion events, per-event cost
//!   scaling with live jobs) behind every stream run, the closed ECoST
//!   and UB schedules and each fleet shard;
//! * [`fleet`] — N independent calendar-scheduler shards (own node sets,
//!   bounded engines, optional service fronts) behind a deterministic
//!   arrival router with a virtual-time epoch barrier;
//! * [`mapping`] — the two run entry points: [`mapping::run_policy`] for
//!   the §8 cluster mapping policies (SM, MNM1, MNM2, SNM, CBM, PTM,
//!   ECoST, UB) on a closed workload, and [`mapping::run_stream`] for an
//!   arrival stream under ECoST, serviced or untuned decisions;
//! * [`report`] — plain-text table rendering for the experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod database;
pub mod engine;
pub mod features;
pub mod fleet;
pub mod mapping;
pub mod oracle;
pub mod pairing;
pub mod queue;
pub mod report;
pub mod scheduler;
pub mod service;
pub mod stp;
pub mod strategies;

pub use classify::{KnnAppClassifier, RuleClassifier};
pub use database::ConfigDatabase;
pub use engine::{CacheBudget, EngineStats, EvalEngine, EvalError, PhaseBreakdown, RetryPolicy};
pub use features::{profile_app, AppSignature, Testbed, REFERENCE_CONFIG};
pub use fleet::{run_fleet, FleetConfig, FleetRun, FleetService, RoutePolicy, ShardReport};
pub use mapping::{
    ConfiguredPolicy, Decisions, EcostContext, FaultReport, FaultSetup, MappingPolicy, OpenArrival,
    OpenOptions, StreamRun,
};
pub use pairing::PairingPolicy;
pub use queue::WaitQueue;
pub use scheduler::OPEN_ELIGIBLE_WINDOW;
pub use service::{
    BreakerConfig, BreakerState, DecidedConfig, DecisionCosts, DecisionTier, ServiceConfig,
    ServiceError, ServiceReport, TuningDecision, TuningRequest, TuningService,
};
pub use stp::{LktStp, MlmStp, Stp};
