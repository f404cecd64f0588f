//! Seeded inputs and order statistics of the ECoST end-to-end benchmark;
//! the binary in `main.rs` runs the workloads.

pub mod inputs;
pub mod stats;
