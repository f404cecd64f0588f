//! Application resource-demand profiles.
//!
//! An [`AppProfile`] is the simulation stand-in for a real Hadoop
//! application: everything the execution model needs to reproduce the
//! application's timing, power and counter signature. The fields were chosen
//! so that each of the paper's behaviour classes is driven by the "right"
//! physical bottleneck:
//!
//! * **C** (compute-bound): large `map_cycles_per_mb`, small selectivities,
//!   low `llc_mpki`;
//! * **I** (I/O-bound): tiny `map_cycles_per_mb`, unit selectivities (Sort
//!   rewrites its whole input), spill multipliers > 1;
//! * **H** (hybrid): balanced cycles vs. bytes;
//! * **M** (memory-bound): high `llc_mpki` (memory-bandwidth pressure), large
//!   `working_set_frac` (DRAM-capacity pressure), high `mem_stall_frac`.

use crate::class::AppClass;

/// Resource-demand profile of one application.
///
/// Units are chosen to match the executor: cycles, MB, seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Short name as used in the paper's tables ("wc", "st", …).
    pub name: &'static str,
    /// Ground-truth behaviour class (what the paper's offline
    /// characterisation would assign). The online classifier must *recover*
    /// this from counters; it never reads it.
    pub class: AppClass,

    // ---- map-side demands -------------------------------------------------
    /// CPU cycles per MB of input consumed by a map task.
    pub map_cycles_per_mb: f64,
    /// Fixed CPU cycles per map task (JVM spin-up, task setup). This is what
    /// punishes small HDFS blocks: more tasks, more overhead.
    pub task_overhead_cycles: f64,
    /// Map output bytes per input byte (shuffle selectivity σ).
    pub map_selectivity: f64,
    /// Extra disk traffic factor on map output (sort spills / merge passes).
    pub spill_factor: f64,

    // ---- reduce-side demands ----------------------------------------------
    /// CPU cycles per MB of shuffle data processed by a reducer.
    pub reduce_cycles_per_mb: f64,
    /// Final output bytes per input byte (ω).
    pub output_selectivity: f64,

    // ---- whole-job --------------------------------------------------------
    /// Fixed serial job start-up cost, seconds (Hadoop job init).
    pub job_overhead_s: f64,

    // ---- micro-architectural signature -------------------------------------
    /// Last-level-cache misses per kilo-instruction. Drives the memory
    /// bandwidth demand of each busy core.
    pub llc_mpki: f64,
    /// Baseline IPC with no memory-bandwidth contention.
    pub ipc_base: f64,
    /// Fraction of compute time that dilates when the core's memory
    /// bandwidth share is cut (µ in the model).
    pub mem_stall_frac: f64,
    /// Instruction-cache misses per kilo-instruction (counter flavour).
    pub icache_mpki: f64,
    /// Branch misprediction rate, percent (counter flavour).
    pub branch_misp_pct: f64,

    // ---- memory footprint --------------------------------------------------
    /// Resident working set as a fraction of the input size.
    pub working_set_frac: f64,
    /// Fixed resident footprint, MB (runtime, framework buffers).
    pub footprint_base_mb: f64,
}

impl AppProfile {
    /// Memory-bandwidth demand of one busy core at `freq_hz`, in MB/s:
    /// `instructions/s × misses/instruction × 64 B line`.
    #[inline]
    pub fn mem_bw_per_core_mbps(&self, freq_hz: f64) -> f64 {
        let inst_per_s = self.ipc_base * freq_hz;
        inst_per_s * (self.llc_mpki / 1000.0) * 64.0 / 1e6
    }

    /// Sanity-check invariants; used by tests and the synthetic generator.
    pub fn validate(&self) -> Result<(), String> {
        let checks: [(&str, bool); 9] = [
            ("map_cycles_per_mb > 0", self.map_cycles_per_mb > 0.0),
            (
                "task_overhead_cycles >= 0",
                self.task_overhead_cycles >= 0.0,
            ),
            (
                "map_selectivity in [0, 3]",
                (0.0..=3.0).contains(&self.map_selectivity),
            ),
            ("spill_factor >= 1", self.spill_factor >= 1.0),
            (
                "output_selectivity in [0, 3]",
                (0.0..=3.0).contains(&self.output_selectivity),
            ),
            (
                "llc_mpki in (0, 50]",
                self.llc_mpki > 0.0 && self.llc_mpki <= 50.0,
            ),
            (
                "ipc_base in (0, 4]",
                self.ipc_base > 0.0 && self.ipc_base <= 4.0,
            ),
            (
                "mem_stall_frac in [0, 1]",
                (0.0..=1.0).contains(&self.mem_stall_frac),
            ),
            (
                "working_set_frac in [0, 1]",
                (0.0..=1.0).contains(&self.working_set_frac),
            ),
        ];
        for (what, ok) in checks {
            if !ok {
                return Err(format!("{}: invariant violated: {what}", self.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AppProfile {
        AppProfile {
            name: "sample",
            class: AppClass::C,
            map_cycles_per_mb: 100e6,
            task_overhead_cycles: 1e9,
            map_selectivity: 0.1,
            spill_factor: 1.0,
            reduce_cycles_per_mb: 50e6,
            output_selectivity: 0.05,
            job_overhead_s: 8.0,
            llc_mpki: 2.0,
            ipc_base: 1.0,
            mem_stall_frac: 0.2,
            icache_mpki: 3.0,
            branch_misp_pct: 2.0,
            working_set_frac: 0.05,
            footprint_base_mb: 300.0,
        }
    }

    #[test]
    fn bandwidth_demand_scales_with_frequency_and_mpki() {
        let p = sample();
        let low = p.mem_bw_per_core_mbps(1.2e9);
        let high = p.mem_bw_per_core_mbps(2.4e9);
        assert!((high / low - 2.0).abs() < 1e-9);
        let mut hot = p.clone();
        hot.llc_mpki = 4.0;
        assert!((hot.mem_bw_per_core_mbps(2.4e9) / high - 2.0).abs() < 1e-9);
        // 2 MPKI @ 1 IPC @ 2.4 GHz = 2.4e9 * 0.002 * 64 B ≈ 307 MB/s.
        assert!((high - 307.2).abs() < 1.0);
    }

    #[test]
    fn validate_accepts_sane_and_rejects_broken() {
        assert!(sample().validate().is_ok());
        let mut bad = sample();
        bad.ipc_base = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.spill_factor = 0.5;
        assert!(bad.validate().is_err());
        let mut bad = sample();
        bad.mem_stall_frac = 1.5;
        assert!(bad.validate().is_err());
    }
}
