//! # ecost-sim — hardware substrate for the ECoST reproduction
//!
//! The ECoST paper (Malik et al., ICPP 2019) runs on a physical 8-node Intel
//! Atom C2758 cluster measured with a wall-power meter. This crate is the
//! simulation stand-in for that hardware: it models
//!
//! * the **node**: 8 cores with per-application DVFS, one shared disk with a
//!   per-stream rate cap and a stream-count efficiency curve, a shared memory
//!   bandwidth pool, and 8 GB of DRAM ([`node`]);
//! * the **cluster**: `n` such nodes joined by a 1 GbE interconnect
//!   ([`cluster`]);
//! * **DVFS**: the four frequency levels the paper sweeps (1.2/1.6/2.0/2.4
//!   GHz) with a voltage table driving V²f dynamic power ([`dvfs`]);
//! * **power**: a wall-power model integrated at one-second samples, mirroring
//!   the Wattsup PRO methodology of §2.5 of the paper, including the
//!   idle-power subtraction used for all EDP numbers ([`power`]);
//! * the **fluid rate solver**: an approximate Mean Value Analysis (AMVA)
//!   solver for multiclass closed queueing networks ([`amva`]). Each
//!   co-located MapReduce job is a customer class whose map/reduce slots
//!   alternate between their private cores (a delay station) and the shared
//!   disk (a processor-sharing station). This is what makes co-location
//!   *matter* in the model: a single I/O-bound job cannot keep the disk busy
//!   during its compute bursts, and a co-runner's requests fill those gaps.
//!
//! Everything is deterministic; the only randomness in the workspace is
//! injected explicitly through [`rng`] seeds.

// `deny`, not `forbid`: the `simd` module opts back in (`#![allow]`) for
// the AVX2 intrinsics behind runtime feature detection — the only unsafe
// in the crate, contained to that one file.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod amva;
pub mod arrivals;
pub mod cluster;
pub mod dvfs;
pub mod error;
pub mod fault;
pub mod node;
pub mod power;
pub mod rng;
pub mod simd;
pub mod trace;

pub use amva::{
    solve_lanes, AmvaScratch, AmvaSolution, ClassDemand, FixedClasses, FixedSolution, SharedStation,
};
pub use arrivals::{ArrivalPhase, TraceArrival, TraceSpec, TraceStream};
pub use cluster::ClusterSpec;
pub use dvfs::Frequency;
pub use error::SimError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec, RequestFaults, ServiceFaultSpec};
pub use node::{DiskSpec, MemSpec, NodeSpec};
pub use power::{EnergyMeter, PowerBreakdown, PowerModel};
pub use simd::SimdBackend;
