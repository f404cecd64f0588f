//! Synthetic performance counters — the Perf + dstat + Wattsup stand-in.
//!
//! The paper collects 14 resource-utilisation and micro-architectural metrics
//! per run (§3.1), reduces them with PCA + hierarchical clustering to 7
//! representative features (§3.2), and feeds those to the classifier and the
//! STP models. This module synthesises the same 14-metric vector from a
//! job's usage record, with seeded multiplicative measurement noise — so the
//! downstream pipeline (PCA, clustering, classification, model training) is
//! *identical* to what would run against real counters.

use crate::executor::JobOutcome;
use rand::Rng;
use std::fmt;

/// Number of collected feature metrics (the paper's "14 original gathered
/// features").
pub const NUM_FEATURES: usize = 14;

/// The collected metrics, in storage order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Feature {
    CpuUser,
    CpuSys,
    CpuIowait,
    CpuIdle,
    IoReadMbps,
    IoWriteMbps,
    MemFootprintMb,
    MemCacheMb,
    Ipc,
    IcacheMpki,
    L2Mpki,
    LlcMpki,
    BranchMispPct,
    CtxSwitchKps,
}

impl Feature {
    /// All features in storage order.
    pub const ALL: [Feature; NUM_FEATURES] = [
        Feature::CpuUser,
        Feature::CpuSys,
        Feature::CpuIowait,
        Feature::CpuIdle,
        Feature::IoReadMbps,
        Feature::IoWriteMbps,
        Feature::MemFootprintMb,
        Feature::MemCacheMb,
        Feature::Ipc,
        Feature::IcacheMpki,
        Feature::L2Mpki,
        Feature::LlcMpki,
        Feature::BranchMispPct,
        Feature::CtxSwitchKps,
    ];

    /// The 7 features the paper keeps after PCA + clustering (§3.2):
    /// CPUuser, CPUiowait, I/O read, I/O write, IPC, memory footprint,
    /// LLC MPKI.
    pub const SELECTED: [Feature; 7] = [
        Feature::CpuUser,
        Feature::CpuIowait,
        Feature::IoReadMbps,
        Feature::IoWriteMbps,
        Feature::Ipc,
        Feature::MemFootprintMb,
        Feature::LlcMpki,
    ];

    /// Storage index. `ALL` lists the variants in declaration order, so
    /// the discriminant is the index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// dstat/perf-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Feature::CpuUser => "CPUuser%",
            Feature::CpuSys => "CPUsys%",
            Feature::CpuIowait => "CPUiowait%",
            Feature::CpuIdle => "CPUidle%",
            Feature::IoReadMbps => "IOread(MB/s)",
            Feature::IoWriteMbps => "IOwrite(MB/s)",
            Feature::MemFootprintMb => "MemFootprint(MB)",
            Feature::MemCacheMb => "MemCache(MB)",
            Feature::Ipc => "IPC",
            Feature::IcacheMpki => "ICacheMPKI",
            Feature::L2Mpki => "L2MPKI",
            Feature::LlcMpki => "LLCMPKI",
            Feature::BranchMispPct => "BranchMisp%",
            Feature::CtxSwitchKps => "CtxSw(k/s)",
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One run's 14-metric measurement vector.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [f64; NUM_FEATURES],
}

impl FeatureVector {
    /// Value of one metric.
    #[inline]
    pub fn get(&self, f: Feature) -> f64 {
        self.values[f.index()]
    }

    /// All 14 values in storage order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The paper's 7 selected features, in `Feature::SELECTED` order.
    pub fn selected(&self) -> [f64; 7] {
        let mut out = [0.0; 7];
        for (o, f) in out.iter_mut().zip(Feature::SELECTED) {
            *o = self.get(f);
        }
        out
    }

    /// Synthesise the measurement vector for a finished job.
    ///
    /// `noise` is the relative measurement jitter (the paper re-runs
    /// workloads because the PMU is multiplexed; we model the residual error
    /// as ±noise uniform). Pass 0.0 for exact values.
    pub fn measure<R: Rng>(out: &JobOutcome, noise: f64, rng: &mut R) -> FeatureVector {
        let p = &out.spec.profile;
        let u = &out.usage;
        let t = out.metrics.exec_time_s.max(1e-9);
        let alloc = u.alloc_core_s.max(1e-9);

        let mut nf = |x: f64| {
            if noise > 0.0 {
                x * ecost_sim::rng::noise_factor(rng, noise)
            } else {
                x
            }
        };

        let cpu_user = 100.0 * u.busy_core_s / alloc;
        let io_read = u.read_mb / t;
        let io_write = u.write_mb / t;
        // Kernel time: block I/O submission and copies scale with I/O rate.
        let cpu_sys = 1.5 + 0.03 * (io_read + io_write);
        let cpu_iowait = (100.0 - cpu_user - cpu_sys).max(0.0) * 0.9;
        let cpu_idle = (100.0 - cpu_user - cpu_sys - cpu_iowait).max(0.0);
        let footprint = u.peak_footprint_mb;
        // Page cache holds recently streamed file data, bounded by free DRAM.
        let mem_cache = (0.35 * (u.read_mb + u.write_mb)).min((8192.0 - footprint).max(128.0));
        let slow = if u.busy_core_s > 0.0 {
            (u.stall_weighted_s / u.busy_core_s).max(1.0)
        } else {
            1.0
        };
        let ipc = p.ipc_base / slow;
        let ctx_kps = 0.4 + 0.05 * (io_read + io_write) + 0.2 * (100.0 - cpu_user) / 100.0;

        let mut values = [0.0; NUM_FEATURES];
        values[Feature::CpuUser.index()] = nf(cpu_user).clamp(0.0, 100.0);
        values[Feature::CpuSys.index()] = nf(cpu_sys).clamp(0.0, 100.0);
        values[Feature::CpuIowait.index()] = nf(cpu_iowait).clamp(0.0, 100.0);
        values[Feature::CpuIdle.index()] = nf(cpu_idle).clamp(0.0, 100.0);
        values[Feature::IoReadMbps.index()] = nf(io_read).max(0.0);
        values[Feature::IoWriteMbps.index()] = nf(io_write).max(0.0);
        values[Feature::MemFootprintMb.index()] = nf(footprint).max(0.0);
        values[Feature::MemCacheMb.index()] = nf(mem_cache).max(0.0);
        values[Feature::Ipc.index()] = nf(ipc).max(0.01);
        values[Feature::IcacheMpki.index()] = nf(p.icache_mpki).max(0.0);
        values[Feature::L2Mpki.index()] = nf(p.llc_mpki * 2.4 + 0.8).max(0.0);
        values[Feature::LlcMpki.index()] = nf(p.llc_mpki).max(0.0);
        values[Feature::BranchMispPct.index()] = nf(p.branch_misp_pct).clamp(0.0, 100.0);
        values[Feature::CtxSwitchKps.index()] = nf(ctx_kps).max(0.0);
        FeatureVector { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BlockSize, TuningConfig};
    use crate::executor::run_standalone;
    use crate::framework::FrameworkSpec;
    use ecost_apps::{App, InputSize};
    use ecost_sim::{Frequency, NodeSpec};
    use rand::SeedableRng;

    fn measure(app: App, noise: f64, seed: u64) -> FeatureVector {
        let cfg = TuningConfig {
            freq: Frequency::F2_0,
            block: BlockSize::B256,
            mappers: 4,
        };
        let out = run_standalone(
            &NodeSpec::atom_c2758(),
            &FrameworkSpec::default(),
            crate::job::JobSpec::new(app, InputSize::Medium, cfg),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        FeatureVector::measure(&out, noise, &mut rng)
    }

    #[test]
    fn feature_indices_are_a_bijection() {
        for (i, f) in Feature::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn selected_features_match_paper_list() {
        assert_eq!(Feature::SELECTED.len(), 7);
        assert!(Feature::SELECTED.contains(&Feature::CpuUser));
        assert!(Feature::SELECTED.contains(&Feature::LlcMpki));
        assert!(!Feature::SELECTED.contains(&Feature::CpuIdle));
    }

    #[test]
    fn compute_bound_signature() {
        let v = measure(App::Wc, 0.0, 0);
        assert!(
            v.get(Feature::CpuUser) > 60.0,
            "user {}",
            v.get(Feature::CpuUser)
        );
        assert!(v.get(Feature::CpuIowait) < 35.0);
        assert!(v.get(Feature::LlcMpki) < 4.0);
    }

    #[test]
    fn io_bound_signature() {
        let v = measure(App::St, 0.0, 0);
        assert!(
            v.get(Feature::CpuIowait) > 40.0,
            "iowait {}",
            v.get(Feature::CpuIowait)
        );
        assert!(
            v.get(Feature::IoReadMbps) + v.get(Feature::IoWriteMbps) > 30.0,
            "io {}",
            v.get(Feature::IoReadMbps) + v.get(Feature::IoWriteMbps)
        );
        assert!(v.get(Feature::CpuUser) < 50.0);
    }

    #[test]
    fn memory_bound_signature() {
        let v = measure(App::Fp, 0.0, 0);
        assert!(v.get(Feature::LlcMpki) > 10.0);
        assert!(v.get(Feature::MemFootprintMb) > 2000.0);
    }

    #[test]
    fn cpu_percentages_are_consistent() {
        for app in [App::Wc, App::St, App::Fp, App::Ts] {
            let v = measure(app, 0.0, 0);
            let sum = v.get(Feature::CpuUser)
                + v.get(Feature::CpuSys)
                + v.get(Feature::CpuIowait)
                + v.get(Feature::CpuIdle);
            assert!(sum <= 100.0 + 1e-6, "{app}: {sum}");
            assert!(sum >= 50.0, "{app}: {sum}");
        }
    }

    #[test]
    fn noise_is_reproducible_and_bounded() {
        let a = measure(App::Gp, 0.05, 7);
        let b = measure(App::Gp, 0.05, 7);
        assert_eq!(a, b);
        let clean = measure(App::Gp, 0.0, 7);
        for (x, y) in a.as_slice().iter().zip(clean.as_slice()) {
            if *y > 1e-9 {
                assert!((x / y - 1.0).abs() <= 0.06, "{x} vs {y}");
            }
        }
        let c = measure(App::Gp, 0.05, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn selected_returns_the_right_values() {
        let v = measure(App::Wc, 0.0, 0);
        let s = v.selected();
        assert_eq!(s[0], v.get(Feature::CpuUser));
        assert_eq!(s[6], v.get(Feature::LlcMpki));
    }
}
