//! # ecost-mapreduce — the Hadoop/HDFS execution model
//!
//! The simulation stand-in for the paper's Hadoop MapReduce stack. A job is
//! described by an application profile (from `ecost-apps`), an input size and
//! a [`config::TuningConfig`] — the paper's three knobs: HDFS block size,
//! mapper count and operating frequency. The model turns that into a stage
//! list (setup → map waves → shuffle/reduce) and executes any number of
//! co-located jobs on one simulated node:
//!
//! * each map/reduce stage is a customer class in a closed queueing network
//!   (slots alternating between private cores and the job's I/O path) solved
//!   with the AMVA solver from `ecost-sim`;
//! * an outer fixed point couples the jobs through the physical disk (stream
//!   efficiency + bandwidth), the memory-bandwidth pool (compute dilation for
//!   high-MPKI applications) and DRAM capacity (spill pressure);
//! * power is integrated segment-by-segment with the idle-subtracted wall
//!   model of `ecost-sim`, and per-job usage is accumulated for the
//!   synthetic performance counters ([`counters`]).
//!
//! The per-job I/O path ceiling ([`framework::FrameworkSpec::job_io_cap_mbps`])
//! models Hadoop's single-client HDFS pipeline: one job cannot drive the disk
//! at its raw bandwidth no matter how many slots it has. That ceiling is the
//! physical reason co-locating two I/O-bound jobs beats running them serially
//! (Fig 3 of the paper): two pipelines together reach what one cannot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod executor;
pub mod framework;
pub mod hdfs;
pub mod job;
pub mod metrics;
pub mod reference;
pub mod stage;

pub use config::{BlockSize, PairConfig, TuningConfig};
pub use counters::{Feature, FeatureVector, NUM_FEATURES};
pub use executor::{
    run_batch_to_completion, run_colocated, run_standalone, BatchPhases, BatchScratch, JobHandle,
    JobOutcome, NodeSim, MAX_BATCH_LANES,
};
pub use framework::FrameworkSpec;
pub use job::JobSpec;
pub use metrics::{edp, JobMetrics, PairMetrics};
