//! Wall-power model and energy integration.
//!
//! The paper measures whole-box power with a Wattsup PRO meter at one-second
//! granularity and subtracts idle power before computing EDP (§2.5). We mirror
//! both: [`PowerModel`] produces the instantaneous *dynamic* (idle-subtracted)
//! wall power from the executor's utilisation state, and [`EnergyMeter`]
//! integrates it, optionally emitting the same 1 Hz sample trace a Wattsup
//! would log.

use crate::node::NodeSpec;

/// Instantaneous utilisation-state → power decomposition, watts.
///
/// All fields are *dynamic* contributions; node idle power is accounted
/// separately (and subtracted, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Cores actively executing instructions.
    pub core_busy_w: f64,
    /// Cores allocated but blocked on I/O.
    pub core_iowait_w: f64,
    /// Frequency-independent tax of powered-up cores.
    pub core_static_w: f64,
    /// Disk activity.
    pub disk_w: f64,
    /// Memory-bandwidth activity.
    pub mem_w: f64,
    /// NIC activity (cluster shuffles).
    pub nic_w: f64,
}

impl PowerBreakdown {
    /// Total dynamic power, watts.
    #[inline]
    pub fn total(&self) -> f64 {
        self.core_busy_w
            + self.core_iowait_w
            + self.core_static_w
            + self.disk_w
            + self.mem_w
            + self.nic_w
    }
}

/// Computes [`PowerBreakdown`]s from executor utilisation state.
#[derive(Debug, Clone)]
pub struct PowerModel {
    spec: NodeSpec,
}

impl PowerModel {
    /// Build a model for one node.
    pub fn new(spec: NodeSpec) -> PowerModel {
        PowerModel { spec }
    }

    /// Underlying node spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Dynamic power for a utilisation snapshot.
    ///
    /// * `busy_cores_at` — list of `(busy core-equivalents, dynamic V²f
    ///   factor)` pairs, one per co-located job (each job may run at its own
    ///   frequency — the C2758 exposes per-module P-states).
    /// * `allocated_cores` — total cores handed to jobs (busy + iowait).
    /// * `disk_util`, `mem_bw_util`, `nic_util` — shared-resource
    ///   utilisations in `[0, 1]`.
    pub fn dynamic_power(
        &self,
        busy_cores_at: &[(f64, f64)],
        allocated_cores: f64,
        disk_util: f64,
        mem_bw_util: f64,
        nic_util: f64,
    ) -> PowerBreakdown {
        let busy_total: f64 = busy_cores_at.iter().map(|(c, _)| *c).sum();
        let core_busy_w: f64 = busy_cores_at
            .iter()
            .map(|(cores, dyn_factor)| cores * self.spec.core_busy_power_w * dyn_factor)
            .sum();
        let iowait_cores = (allocated_cores - busy_total).max(0.0);
        PowerBreakdown {
            core_busy_w,
            core_iowait_w: iowait_cores * self.spec.core_iowait_power_w,
            core_static_w: allocated_cores * self.spec.core_static_power_w,
            disk_w: disk_util.clamp(0.0, 1.0) * self.spec.disk.active_power_w,
            mem_w: mem_bw_util.clamp(0.0, 1.0) * self.spec.mem.active_power_w,
            nic_w: nic_util.clamp(0.0, 1.0),
        }
    }

    /// Idle (subtracted) wall power of the node, watts.
    #[inline]
    pub fn idle_power_w(&self) -> f64 {
        self.spec.idle_power_w
    }
}

/// Piecewise-constant power integrator with optional 1 Hz sampling, the
/// simulated counterpart of the Wattsup PRO logger.
///
/// ```
/// use ecost_sim::EnergyMeter;
///
/// let mut meter = EnergyMeter::with_trace();
/// meter.record(2.0, 10.0); // 2 s at 10 W
/// meter.record(1.0, 4.0);  // 1 s at 4 W
/// assert_eq!(meter.energy_j(), 24.0);
/// assert_eq!(meter.trace().unwrap(), &[10.0, 10.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    energy_j: f64,
    elapsed_s: f64,
    /// 1 Hz samples (average watts within each whole second), if enabled.
    samples: Option<Vec<f64>>,
    /// Partial accumulation for the current sample second.
    partial_j: f64,
    partial_s: f64,
}

impl EnergyMeter {
    /// A meter that only integrates energy.
    pub fn new() -> EnergyMeter {
        EnergyMeter {
            energy_j: 0.0,
            elapsed_s: 0.0,
            samples: None,
            partial_j: 0.0,
            partial_s: 0.0,
        }
    }

    /// A meter that additionally records a 1-second sample trace.
    pub fn with_trace() -> EnergyMeter {
        EnergyMeter {
            samples: Some(Vec::new()),
            ..EnergyMeter::new()
        }
    }

    /// Record `watts` held constant for `seconds`.
    pub fn record(&mut self, seconds: f64, watts: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite(), "bad duration");
        assert!(watts >= 0.0 && watts.is_finite(), "bad power");
        self.energy_j += watts * seconds;
        self.elapsed_s += seconds;
        if let Some(samples) = self.samples.as_mut() {
            let mut remaining = seconds;
            while remaining > 0.0 {
                let room = 1.0 - self.partial_s;
                let take = remaining.min(room);
                self.partial_j += watts * take;
                self.partial_s += take;
                remaining -= take;
                if self.partial_s >= 1.0 - 1e-12 {
                    samples.push(self.partial_j / self.partial_s);
                    self.partial_j = 0.0;
                    self.partial_s = 0.0;
                }
            }
        }
    }

    /// Total integrated energy, joules.
    #[inline]
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Total integrated time, seconds.
    #[inline]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// The 1 Hz trace, if enabled. The trailing partial second (if any) is
    /// not included.
    pub fn trace(&self) -> Option<&[f64]> {
        self.samples.as_deref()
    }
}

impl Default for EnergyMeter {
    fn default() -> Self {
        EnergyMeter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::Frequency;

    #[test]
    fn breakdown_total_sums_fields() {
        let b = PowerBreakdown {
            core_busy_w: 1.0,
            core_iowait_w: 2.0,
            core_static_w: 3.0,
            disk_w: 4.0,
            mem_w: 5.0,
            nic_w: 6.0,
        };
        assert!((b.total() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn busy_cores_cost_more_than_iowait() {
        let pm = PowerModel::new(NodeSpec::atom_c2758());
        let f = Frequency::F2_4.dynamic_factor();
        let busy = pm.dynamic_power(&[(4.0, f)], 4.0, 0.0, 0.0, 0.0);
        let wait = pm.dynamic_power(&[(0.0, f)], 4.0, 0.0, 0.0, 0.0);
        assert!(busy.total() > 3.0 * wait.total());
        assert_eq!(busy.core_iowait_w, 0.0);
        assert!(wait.core_iowait_w > 0.0);
    }

    #[test]
    fn frequency_lowers_busy_power() {
        let pm = PowerModel::new(NodeSpec::atom_c2758());
        let hi = pm.dynamic_power(
            &[(8.0, Frequency::F2_4.dynamic_factor())],
            8.0,
            0.0,
            0.0,
            0.0,
        );
        let lo = pm.dynamic_power(
            &[(8.0, Frequency::F1_2.dynamic_factor())],
            8.0,
            0.0,
            0.0,
            0.0,
        );
        assert!(lo.core_busy_w < 0.35 * hi.core_busy_w);
        // Static component is unchanged.
        assert!((lo.core_static_w - hi.core_static_w).abs() < 1e-12);
    }

    #[test]
    fn utilisations_are_clamped() {
        let pm = PowerModel::new(NodeSpec::atom_c2758());
        let b = pm.dynamic_power(&[], 0.0, 1.7, -0.3, 0.0);
        assert!((b.disk_w - pm.spec().disk.active_power_w).abs() < 1e-12);
        assert_eq!(b.mem_w, 0.0);
    }

    #[test]
    fn meter_integrates_energy() {
        let mut m = EnergyMeter::new();
        m.record(2.0, 10.0);
        m.record(0.5, 4.0);
        assert!((m.energy_j() - 22.0).abs() < 1e-12);
        assert!((m.elapsed_s() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn trace_emits_one_hz_samples() {
        let mut m = EnergyMeter::with_trace();
        m.record(1.5, 10.0); // fills sample 0 fully, half of sample 1
        m.record(0.5, 20.0); // completes sample 1: avg = (5 + 10)/1 = 15
        m.record(2.0, 1.0); // two samples of 1 W
        let t = m.trace().unwrap();
        assert_eq!(t.len(), 4);
        assert!((t[0] - 10.0).abs() < 1e-9);
        assert!((t[1] - 15.0).abs() < 1e-9);
        assert!((t[2] - 1.0).abs() < 1e-9);
        assert!((t[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_energy_matches_integral() {
        let mut m = EnergyMeter::with_trace();
        for i in 0..10 {
            m.record(0.7, i as f64);
        }
        let trace_energy: f64 = m.trace().unwrap().iter().sum();
        // Trace covers whole seconds only; 7 s of 7 samples vs 7 s elapsed.
        assert_eq!(m.trace().unwrap().len(), 7);
        assert!(trace_energy <= m.energy_j() + 1e-9);
    }
}
