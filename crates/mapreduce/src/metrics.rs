//! EDP metrics (§2.6 of the paper).
//!
//! EDP = ExecutionTime² × Power, equivalently ExecutionTime × Energy.
//!
//! Two accountings are provided:
//!
//! * **Dynamic EDP** ([`JobMetrics::edp`]) uses idle-subtracted power — the
//!   paper's per-application characterisation convention (§2.5: average
//!   power minus system idle).
//! * **Wall EDP** ([`JobMetrics::edp_wall`], [`PairMetrics::edp_wall`]) uses
//!   the full wall power including node idle. This is the accounting under
//!   which scheduling techniques are compared: the node draws its idle power
//!   for as long as the *schedule* runs, so consolidating two applications
//!   onto one node for half the wall time halves the idle energy — the
//!   "scale-down" benefit the paper's co-location argument rests on. All
//!   ILAO/COLAO/STP/mapping-policy comparisons use wall EDP.
//!
//! For multi-job schedules the delay is the makespan (time until every job
//! is done), so `EDP = makespan × total_energy`.

/// Time/energy result of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMetrics {
    /// Wall-clock execution time, seconds.
    pub exec_time_s: f64,
    /// Attributed dynamic energy, joules.
    pub energy_j: f64,
    /// Average attributed dynamic power, watts.
    pub avg_power_w: f64,
}

impl JobMetrics {
    /// Dynamic EDP of the job in isolation: `T² · P_dyn = T · E_dyn` (s²·W).
    #[inline]
    pub fn edp(&self) -> f64 {
        self.exec_time_s * self.energy_j
    }

    /// Wall EDP: delay × (dynamic energy + idle power held for the delay).
    #[inline]
    pub fn edp_wall(&self, idle_w: f64) -> f64 {
        self.exec_time_s * (self.energy_j + idle_w * self.exec_time_s)
    }
}

/// EDP from a delay and a total energy.
#[inline]
pub fn edp(delay_s: f64, energy_j: f64) -> f64 {
    delay_s * energy_j
}

/// Aggregate result of a multi-job schedule (a co-located pair, or a whole
/// workload on a cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairMetrics {
    /// Time until the last job finished, seconds.
    pub makespan_s: f64,
    /// Total dynamic energy, joules.
    pub energy_j: f64,
}

impl PairMetrics {
    /// Combine per-job serial runs: delay adds, energy adds. This is the
    /// ILAO accounting — app 2 waits for app 1.
    pub fn serial(runs: &[JobMetrics]) -> PairMetrics {
        PairMetrics {
            makespan_s: runs.iter().map(|r| r.exec_time_s).sum(),
            energy_j: runs.iter().map(|r| r.energy_j).sum(),
        }
    }

    /// Combine concurrent runs that started together: delay is the max,
    /// energy adds. (For exact co-located accounting prefer the executor's
    /// own makespan, which includes any trailing solo phase.)
    pub fn concurrent(runs: &[JobMetrics]) -> PairMetrics {
        PairMetrics {
            makespan_s: runs.iter().map(|r| r.exec_time_s).fold(0.0, f64::max),
            energy_j: runs.iter().map(|r| r.energy_j).sum(),
        }
    }

    /// Dynamic workload EDP: makespan × dynamic energy (s²·W).
    #[inline]
    pub fn edp(&self) -> f64 {
        edp(self.makespan_s, self.energy_j)
    }

    /// Wall workload EDP: the schedule holds `idle_w` of idle power (node
    /// idle × number of occupied nodes) for its whole makespan.
    #[inline]
    pub fn edp_wall(&self, idle_w: f64) -> f64 {
        self.makespan_s * (self.energy_j + idle_w * self.makespan_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jm(t: f64, e: f64) -> JobMetrics {
        JobMetrics {
            exec_time_s: t,
            energy_j: e,
            avg_power_w: e / t,
        }
    }

    #[test]
    fn job_edp_is_t_squared_p() {
        let m = jm(10.0, 50.0); // 5 W average
        assert!((m.edp() - 10.0 * 10.0 * 5.0).abs() < 1e-9);
    }

    #[test]
    fn serial_adds_delays() {
        let p = PairMetrics::serial(&[jm(10.0, 50.0), jm(20.0, 30.0)]);
        assert_eq!(p.makespan_s, 30.0);
        assert_eq!(p.energy_j, 80.0);
        assert!((p.edp() - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_takes_max_delay() {
        let p = PairMetrics::concurrent(&[jm(10.0, 50.0), jm(20.0, 30.0)]);
        assert_eq!(p.makespan_s, 20.0);
        assert_eq!(p.energy_j, 80.0);
    }

    #[test]
    fn wall_edp_rewards_consolidation() {
        // Same work done in half the wall time at twice the dynamic power:
        // dynamic EDP halves, wall EDP improves by more because the idle
        // draw is held half as long.
        let serial = PairMetrics {
            makespan_s: 200.0,
            energy_j: 600.0,
        };
        let packed = PairMetrics {
            makespan_s: 100.0,
            energy_j: 600.0,
        };
        let idle = 16.0;
        let dyn_ratio = serial.edp() / packed.edp();
        let wall_ratio = serial.edp_wall(idle) / packed.edp_wall(idle);
        assert!((dyn_ratio - 2.0).abs() < 1e-9);
        assert!(wall_ratio > 3.0, "wall_ratio {wall_ratio}");
    }

    #[test]
    fn wall_edp_reduces_to_dynamic_at_zero_idle() {
        let m = jm(10.0, 50.0);
        assert!((m.edp_wall(0.0) - m.edp()).abs() < 1e-12);
        let p = PairMetrics {
            makespan_s: 10.0,
            energy_j: 50.0,
        };
        assert!((p.edp_wall(0.0) - p.edp()).abs() < 1e-12);
    }

    #[test]
    fn serial_never_beats_concurrent_on_delay() {
        let runs = [jm(5.0, 10.0), jm(7.0, 14.0), jm(3.0, 2.0)];
        assert!(PairMetrics::serial(&runs).makespan_s >= PairMetrics::concurrent(&runs).makespan_s);
    }
}
