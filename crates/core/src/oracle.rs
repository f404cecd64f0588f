//! Brute-force configuration search — the offline machinery of the paper.
//!
//! §7 of the paper examines 84 480 application runs to find the best offline
//! tuning parameters. The same searches back four things here:
//!
//! * **ILAO** — best standalone config per application (160 points);
//! * **COLAO / UB** — best co-located config per pair (11 200 points);
//! * the **database** of §6.2 (store the winners);
//! * the **training data** for the MLM-STP models (store *all* the points).
//!
//! All evaluation goes through the [`EvalEngine`](crate::engine::EvalEngine):
//! sweeps are embarrassingly parallel under Rayon, every point is memoized
//! in the engine's shared cache, and every function is fallible — the
//! simulator's errors surface as [`EvalError`](crate::engine::EvalError)
//! instead of panics. This module is the oracle-flavoured face of the
//! engine; the functions below are thin delegates kept so call sites read
//! as the paper does (`oracle::best_pair`, `oracle::sweep_solo`, ...).

use crate::engine::{EvalEngine, EvalError};
use ecost_apps::AppProfile;
use ecost_mapreduce::{JobMetrics, PairConfig, PairMetrics, TuningConfig};

pub use crate::engine::{PairRun, PairSweep, SoloRun};

/// Simulate one standalone run (memoized).
pub fn solo_metrics(
    engine: &EvalEngine,
    profile: &AppProfile,
    input_mb: f64,
    cfg: TuningConfig,
) -> Result<JobMetrics, EvalError> {
    engine.solo_metrics(profile, input_mb, cfg)
}

/// Simulate one co-located pair run (memoized).
pub fn pair_metrics(
    engine: &EvalEngine,
    a: &AppProfile,
    input_a_mb: f64,
    b: &AppProfile,
    input_b_mb: f64,
    pc: PairConfig,
) -> Result<PairMetrics, EvalError> {
    engine.pair_metrics(a, input_a_mb, b, input_b_mb, pc)
}

/// Sweep the full 160-point standalone space; returns runs in sweep order.
pub fn sweep_solo(
    engine: &EvalEngine,
    profile: &AppProfile,
    input_mb: f64,
) -> Result<Vec<SoloRun>, EvalError> {
    engine.sweep_solo(profile, input_mb)
}

/// Best standalone config under wall EDP (ILAO's per-application step).
pub fn best_solo(
    engine: &EvalEngine,
    profile: &AppProfile,
    input_mb: f64,
) -> Result<SoloRun, EvalError> {
    engine.best_solo(profile, input_mb)
}

/// Fetch or compute the full pair sweep (11 200 points on the 8-core node).
pub fn sweep_pair(
    engine: &EvalEngine,
    a: &AppProfile,
    input_a_mb: f64,
    b: &AppProfile,
    input_b_mb: f64,
) -> Result<PairSweep, EvalError> {
    engine.pair_sweep(a, input_a_mb, b, input_b_mb)
}

/// COLAO's oracle: best co-located configuration for a pair.
pub fn best_pair(
    engine: &EvalEngine,
    a: &AppProfile,
    input_a_mb: f64,
    b: &AppProfile,
    input_b_mb: f64,
) -> Result<PairRun, EvalError> {
    engine.best_pair(a, input_a_mb, b, input_b_mb)
}

/// Best pair config with the core partition fixed (Fig 5's per-partition
/// series).
pub fn best_pair_with_partition(
    engine: &EvalEngine,
    a: &AppProfile,
    input_a_mb: f64,
    b: &AppProfile,
    input_b_mb: f64,
    partition: (u32, u32),
) -> Result<PairRun, EvalError> {
    engine.best_pair_with_partition(a, input_a_mb, b, input_b_mb, partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecost_apps::{App, InputSize};

    #[test]
    fn best_solo_beats_default_config() {
        let eng = EvalEngine::atom();
        let p = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let best = best_solo(&eng, p, mb).unwrap();
        let default = solo_metrics(&eng, p, mb, TuningConfig::hadoop_default(8)).unwrap();
        let idle = eng.idle_w();
        assert!(best.metrics.edp_wall(idle) <= default.edp_wall(idle) + 1e-9);
    }

    #[test]
    fn pair_oracle_never_loses_to_any_swept_point() {
        let eng = EvalEngine::atom();
        let a = App::Gp.profile();
        let b = App::St.profile();
        let mb = InputSize::Small.per_node_mb();
        let sweep = sweep_pair(&eng, a, mb, b, mb).unwrap();
        let best = sweep.best().metrics.edp_wall(eng.idle_w());
        assert_eq!(sweep.len(), 11_200);
        for run in sweep.runs() {
            assert!(best <= run.metrics.edp_wall(eng.idle_w()));
        }
    }
}
