//! The §4.2 optimisation strategies: ILAO and COLAO.
//!
//! * **ILAO** — individually-located application optimisation: each
//!   application runs alone on the node at its individually brute-forced
//!   best configuration; the pair's delay is the serial sum.
//! * **COLAO** — co-located application optimisation: both applications run
//!   together, with the *pair* configuration brute-forced jointly. This is
//!   also the oracle STP is judged against in §7.
//!
//! Both strategies evaluate through the shared [`EvalEngine`], so the
//! COLAO sweep computed here is the same memo entry the database build and
//! the training set read.

use crate::engine::{EvalEngine, EvalError, PairRun, SoloRun};
use ecost_apps::AppProfile;
use ecost_mapreduce::PairMetrics;

/// ILAO outcome for a pair of applications.
#[derive(Debug, Clone)]
pub struct IlaoResult {
    /// First application's tuned standalone run.
    pub a: SoloRun,
    /// Second application's tuned standalone run.
    pub b: SoloRun,
    /// Serial pair accounting (delays add, energies add).
    pub metrics: PairMetrics,
}

/// Run ILAO for two applications with per-node inputs in MB.
pub fn ilao(
    engine: &EvalEngine,
    a: &AppProfile,
    input_a_mb: f64,
    b: &AppProfile,
    input_b_mb: f64,
) -> Result<IlaoResult, EvalError> {
    let ra = engine.best_solo(a, input_a_mb)?;
    let rb = engine.best_solo(b, input_b_mb)?;
    let metrics = PairMetrics::serial(&[ra.metrics, rb.metrics]);
    Ok(IlaoResult {
        a: ra,
        b: rb,
        metrics,
    })
}

/// Run COLAO (the co-located oracle) for two applications.
pub fn colao(
    engine: &EvalEngine,
    a: &AppProfile,
    input_a_mb: f64,
    b: &AppProfile,
    input_b_mb: f64,
) -> Result<PairRun, EvalError> {
    engine.best_pair(a, input_a_mb, b, input_b_mb)
}

/// The Fig 3 quantity: ILAO wall EDP over COLAO wall EDP (>1 means
/// co-location wins by that factor).
pub fn colao_over_ilao_gain(
    engine: &EvalEngine,
    a: &AppProfile,
    b: &AppProfile,
    input_mb: f64,
) -> Result<f64, EvalError> {
    let idle = engine.idle_w();
    let il = ilao(engine, a, input_mb, b, input_mb)?;
    let co = colao(engine, a, input_mb, b, input_mb)?;
    Ok(il.metrics.edp_wall(idle) / co.metrics.edp_wall(idle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecost_apps::{App, InputSize};

    #[test]
    fn io_pair_gains_substantially_from_colocation() {
        // The paper's headline: I-I benefits most (4.52× there; the shape
        // requirement here is a clear >2× win).
        let eng = EvalEngine::atom();
        let gain = colao_over_ilao_gain(
            &eng,
            App::St.profile(),
            App::St.profile(),
            InputSize::Small.per_node_mb(),
        )
        .unwrap();
        assert!(gain > 2.0, "I-I gain {gain}");
    }

    #[test]
    fn memory_pair_gains_least() {
        let eng = EvalEngine::atom();
        let mm = colao_over_ilao_gain(
            &eng,
            App::Fp.profile(),
            App::Fp.profile(),
            InputSize::Small.per_node_mb(),
        )
        .unwrap();
        let ii = colao_over_ilao_gain(
            &eng,
            App::St.profile(),
            App::St.profile(),
            InputSize::Small.per_node_mb(),
        )
        .unwrap();
        assert!(mm < ii, "M-M {mm} vs I-I {ii}");
        // COLAO never loses catastrophically (it can fall slightly below 1
        // for M-M when sharing is genuinely harmful).
        assert!(mm > 0.8, "M-M {mm}");
    }

    #[test]
    fn ilao_components_are_individually_optimal() {
        let eng = EvalEngine::atom();
        let mb = InputSize::Small.per_node_mb();
        let r = ilao(&eng, App::Wc.profile(), mb, App::St.profile(), mb).unwrap();
        // Serial delay equals the sum of parts.
        assert!(
            (r.metrics.makespan_s - r.a.metrics.exec_time_s - r.b.metrics.exec_time_s).abs() < 1e-9
        );
        assert!(r.metrics.energy_j > 0.0);
    }
}
