//! Workload scenarios — Table 3 of the paper.
//!
//! Each scenario is a stream of 16 applications submitted to the cluster.
//! The paper's Table 3 lists the application sequences; three of the rows
//! (WS2, WS6, WS7) print fewer than 16 entries in the paper PDF, so those are
//! reconstructed from the *class* row of the same table (which is complete)
//! using the scenario's own app-per-class convention. The reconstruction is
//! noted per scenario below.

use crate::catalog::App;
use crate::class::AppClass;
use crate::datasize::InputSize;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// One of the eight studied workload scenarios.
///
/// ```
/// use ecost_apps::{WorkloadScenario, InputSize, AppClass};
///
/// let ws3 = WorkloadScenario::Ws3.workload(InputSize::Medium);
/// assert_eq!(ws3.len(), 16);
/// // WS3 is the all-I/O scenario: sixteen Sorts.
/// assert_eq!(ws3.class_mix(), [0, 0, 16, 0]);
/// assert!(WorkloadScenario::Ws3.classes().iter().all(|c| *c == AppClass::I));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadScenario {
    /// All compute-bound: svm/wc/hmm mix.
    Ws1,
    /// All hybrid: ts/gp mix (16th entry reconstructed as ts).
    Ws2,
    /// All I/O-bound: 16× st.
    Ws3,
    /// `[C, C, H, I]` repeated.
    Ws4,
    /// `[C, H, I, H]` repeated.
    Ws5,
    /// Alternating H/I (reconstructed from the class row).
    Ws6,
    /// Memory-heavy with periodic I (reconstructed from the class row).
    Ws7,
    /// Mixed M/H/I/C.
    Ws8,
}

impl WorkloadScenario {
    /// All eight scenarios in paper order.
    pub const ALL: [WorkloadScenario; 8] = [
        WorkloadScenario::Ws1,
        WorkloadScenario::Ws2,
        WorkloadScenario::Ws3,
        WorkloadScenario::Ws4,
        WorkloadScenario::Ws5,
        WorkloadScenario::Ws6,
        WorkloadScenario::Ws7,
        WorkloadScenario::Ws8,
    ];

    /// The 16-application sequence of Table 3.
    pub fn apps(self) -> [App; 16] {
        use App::*;
        match self {
            WorkloadScenario::Ws1 => [
                Svm, Svm, Wc, Wc, Svm, Wc, Hmm, Wc, Hmm, Hmm, Wc, Wc, Hmm, Wc, Svm, Wc,
            ],
            WorkloadScenario::Ws2 => [
                Ts, Gp, Ts, Ts, Ts, Gp, Ts, Ts, Ts, Gp, Ts, Ts, Gp, Ts, Ts, Ts,
            ],
            WorkloadScenario::Ws3 => [St; 16],
            WorkloadScenario::Ws4 => [
                Svm, Wc, Ts, St, Wc, Wc, Ts, St, Hmm, Svm, Ts, St, Wc, Wc, Ts, St,
            ],
            WorkloadScenario::Ws5 => [
                Hmm, Ts, St, Ts, Wc, Ts, St, Ts, Svm, Ts, St, Ts, Hmm, Ts, St, Ts,
            ],
            WorkloadScenario::Ws6 => [
                Ts, St, Ts, St, Ts, Ts, St, St, Ts, St, Ts, St, Ts, St, Ts, St,
            ],
            WorkloadScenario::Ws7 => [
                Cf, Cf, Cf, St, Cf, Cf, Cf, St, Cf, Cf, Cf, Cf, Cf, Cf, St, Cf,
            ],
            WorkloadScenario::Ws8 => [
                Cf, Fp, Ts, St, Cf, Fp, Ts, St, Hmm, Svm, Ts, St, Wc, Wc, Ts, St,
            ],
        }
    }

    /// The class signature row of Table 3 (derived from the apps).
    pub fn classes(self) -> [AppClass; 16] {
        let mut out = [AppClass::C; 16];
        for (slot, app) in out.iter_mut().zip(self.apps()) {
            *slot = app.class();
        }
        out
    }

    /// Scenario label as in the paper ("WS1" …).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadScenario::Ws1 => "WS1",
            WorkloadScenario::Ws2 => "WS2",
            WorkloadScenario::Ws3 => "WS3",
            WorkloadScenario::Ws4 => "WS4",
            WorkloadScenario::Ws5 => "WS5",
            WorkloadScenario::Ws6 => "WS6",
            WorkloadScenario::Ws7 => "WS7",
            WorkloadScenario::Ws8 => "WS8",
        }
    }

    /// Materialise the scenario as a [`Workload`] with a uniform input size.
    pub fn workload(self, size: InputSize) -> Workload {
        Workload {
            name: self.label().to_string(),
            jobs: self.apps().iter().map(|&a| (a, size)).collect(),
        }
    }
}

impl fmt::Display for WorkloadScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete stream of jobs (application + input size) submitted to the
/// cluster in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Human-readable label.
    pub name: String,
    /// Submission order.
    pub jobs: Vec<(App, InputSize)>,
}

impl Workload {
    /// A uniformly random workload drawn from the full catalog — used by the
    /// robustness tests and ablations (the paper's "randomly selected
    /// workload policies").
    pub fn random<R: Rng>(rng: &mut R, len: usize, sizes: &[InputSize]) -> Workload {
        assert!(!sizes.is_empty(), "need at least one size");
        let jobs = (0..len)
            .map(|_| {
                let app = *crate::catalog::ALL_APPS.choose(rng).expect("non-empty");
                let size = *sizes.choose(rng).expect("non-empty");
                (app, size)
            })
            .collect();
        Workload {
            name: format!("random-{len}"),
            jobs,
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the workload has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Draw Poisson arrival times for this workload's jobs: exponential
    /// inter-arrival gaps with the given mean, cumulated from t = 0.
    /// Returned sorted, one entry per job.
    pub fn poisson_arrivals<R: Rng>(&self, rng: &mut R, mean_gap_s: f64) -> Vec<f64> {
        assert!(mean_gap_s > 0.0, "mean gap must be positive");
        let mut t = 0.0;
        (0..self.len())
            .map(|_| {
                // Inverse-CDF sampling of Exp(1/mean).
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -mean_gap_s * u.ln();
                t
            })
            .collect()
    }

    /// Class histogram, in `AppClass::ALL` order.
    pub fn class_mix(&self) -> [usize; 4] {
        let mut mix = [0usize; 4];
        for (app, _) in &self.jobs {
            mix[match app.class() {
                AppClass::C => 0,
                AppClass::H => 1,
                AppClass::I => 2,
                AppClass::M => 3,
            }] += 1;
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AppClass::*;

    #[test]
    fn every_scenario_has_16_apps() {
        for ws in WorkloadScenario::ALL {
            assert_eq!(ws.apps().len(), 16, "{ws}");
        }
    }

    #[test]
    fn class_signatures_match_table3() {
        assert_eq!(WorkloadScenario::Ws1.classes(), [C; 16]);
        assert_eq!(WorkloadScenario::Ws2.classes(), [H; 16]);
        assert_eq!(WorkloadScenario::Ws3.classes(), [I; 16]);
        assert_eq!(
            WorkloadScenario::Ws4.classes(),
            [C, C, H, I, C, C, H, I, C, C, H, I, C, C, H, I]
        );
        assert_eq!(
            WorkloadScenario::Ws5.classes(),
            [C, H, I, H, C, H, I, H, C, H, I, H, C, H, I, H]
        );
        assert_eq!(
            WorkloadScenario::Ws6.classes(),
            [H, I, H, I, H, H, I, I, H, I, H, I, H, I, H, I]
        );
        // WS7's class row in the paper: M,M,M,I repeated-ish with I at the
        // same positions as the reconstructed st entries.
        let ws7 = WorkloadScenario::Ws7.classes();
        assert_eq!(ws7.iter().filter(|c| **c == I).count(), 3);
        assert_eq!(ws7.iter().filter(|c| **c == M).count(), 13);
        assert_eq!(
            WorkloadScenario::Ws8.classes(),
            [M, M, H, I, M, M, H, I, C, C, H, I, C, C, H, I]
        );
    }

    #[test]
    fn ws4_matches_table3_apps() {
        use App::*;
        assert_eq!(
            WorkloadScenario::Ws4.apps(),
            [Svm, Wc, Ts, St, Wc, Wc, Ts, St, Hmm, Svm, Ts, St, Wc, Wc, Ts, St]
        );
    }

    #[test]
    fn workload_materialisation() {
        let w = WorkloadScenario::Ws3.workload(InputSize::Small);
        assert_eq!(w.len(), 16);
        assert!(w
            .jobs
            .iter()
            .all(|(a, s)| *a == App::St && *s == InputSize::Small));
        assert_eq!(w.class_mix(), [0, 0, 16, 0]);
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_scale_with_rate() {
        use rand::SeedableRng;
        let w = WorkloadScenario::Ws4.workload(InputSize::Small);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let fast = w.poisson_arrivals(&mut rng, 10.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let slow = w.poisson_arrivals(&mut rng, 100.0);
        assert_eq!(fast.len(), 16);
        for win in fast.windows(2) {
            assert!(win[0] <= win[1]);
        }
        assert!((slow[15] / fast[15] - 10.0).abs() < 1e-9);
        // Mean of 16 exponential gaps should be in the right ballpark.
        let mean_gap = fast[15] / 16.0;
        assert!(mean_gap > 2.0 && mean_gap < 40.0, "{mean_gap}");
    }

    #[test]
    fn random_workload_is_reproducible() {
        use rand::SeedableRng;
        let mut a = rand::rngs::StdRng::seed_from_u64(42);
        let mut b = rand::rngs::StdRng::seed_from_u64(42);
        let wa = Workload::random(&mut a, 10, &InputSize::ALL);
        let wb = Workload::random(&mut b, 10, &InputSize::ALL);
        assert_eq!(wa, wb);
        assert_eq!(wa.len(), 10);
    }
}
