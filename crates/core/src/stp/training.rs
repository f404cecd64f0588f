//! Training-set construction for the MLM-STP models.
//!
//! For every same-size training pair, the full pair-configuration sweep
//! (served by the shared [`EvalEngine`] memo, so the database build and
//! the COLAO baseline already paid for it) is sampled into
//! `(signatures ‖ knobs) → ln(wall EDP)` rows, grouped by class pair — the
//! paper builds "a machine learning model … for each specific class"
//! (Fig 7, step 0B).
//!
//! The target is log-EDP: EDP spans orders of magnitude across the knob
//! space, and all three model families train on the same transformed target
//! (the argmin is invariant to the monotone transform). Reported errors are
//! computed back in EDP space, as the paper's APE is.

use crate::engine::{EvalEngine, EvalError};
use ecost_apps::class::ClassPair;
use ecost_apps::{App, InputSize, TRAINING_APPS};
use ecost_ml::Dataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

use super::{encode_columns, encode_row};

/// Per-class-pair training sets.
pub type TrainingData = HashMap<ClassPair, Dataset>;

/// Build the training data over the full training catalog.
///
/// * `sig_of(app, size)` supplies the 9-dimensional signature key measured during
///   the learning period (normally from the database).
/// * `configs_per_pair` sub-samples each (pair, size) sweep — the full 11 200
///   points × both orders would be needlessly slow for the MLP; ~1500 is
///   plenty. Pass `usize::MAX` for no sub-sampling.
pub fn build_training_data(
    engine: &EvalEngine,
    sig_of: &dyn Fn(App, InputSize) -> [f64; 9],
    configs_per_pair: usize,
    seed: u64,
) -> Result<TrainingData, EvalError> {
    build_training_data_subset(
        engine,
        &TRAINING_APPS,
        &InputSize::ALL,
        sig_of,
        configs_per_pair,
        seed,
    )
}

/// [`build_training_data`] over an explicit subset of apps × sizes.
pub fn build_training_data_subset(
    engine: &EvalEngine,
    apps: &[App],
    sizes: &[InputSize],
    sig_of: &dyn Fn(App, InputSize) -> [f64; 9],
    configs_per_pair: usize,
    seed: u64,
) -> Result<TrainingData, EvalError> {
    let idle = engine.idle_w();
    let mut data: TrainingData = HashMap::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    for (i, &a) in apps.iter().enumerate() {
        for &b in &apps[i..] {
            let classes = ClassPair::new(a.class(), b.class());
            for &size in sizes {
                let mb = size.per_node_mb();
                let sweep = engine.pair_sweep(a.profile(), mb, b.profile(), mb)?;
                // The engine normalises order; its swap flag says whether
                // the stored runs' `.a` side is `b`, so signatures line up
                // with configs.
                let (sig_first, sig_second) = if sweep.swapped() {
                    (sig_of(b, size), sig_of(a, size))
                } else {
                    (sig_of(a, size), sig_of(b, size))
                };
                let mut idx: Vec<usize> = (0..sweep.len()).collect();
                if configs_per_pair < idx.len() {
                    idx.shuffle(&mut rng);
                    idx.truncate(configs_per_pair);
                }
                let ds = data
                    .entry(classes)
                    .or_insert_with(|| Dataset::new(encode_columns(), "ln_edp_wall"));
                for run in idx.iter().filter_map(|&k| sweep.run(k)) {
                    let y = run.metrics.edp_wall(idle).ln();
                    ds.push(
                        encode_row(&sig_first, run.config.a, &sig_second, run.config.b),
                        y,
                    );
                    // Mirror: models must be orientation-insensitive.
                    ds.push(
                        encode_row(&sig_second, run.config.b, &sig_first, run.config.a),
                        y,
                    );
                }
            }
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small smoke test on one pair via a hand-rolled sig function; the full
    /// build is exercised by the experiment binaries.
    #[test]
    fn builds_rows_for_every_training_class_pair() {
        let eng = EvalEngine::atom();
        let sig = |_: App, _: InputSize| [1.0; 9];
        // Restrict cost: sample only 5 configs per (pair, size).
        let data = build_training_data(&eng, &sig, 5, 1).expect("training build");
        // 5 training apps cover all 10 unordered class pairs? wc(C), st(I),
        // gp(H), ts(H), fp(M): C-C (wc,wc), I-I, H-H, M-M, C-I, C-H, C-M,
        // I-H, I-M, H-M — all 10.
        assert_eq!(data.len(), 10);
        for (cp, ds) in &data {
            assert!(!ds.is_empty(), "{cp}");
            assert_eq!(ds.num_features(), 17);
            // Mirrored rows: even count.
            assert_eq!(ds.len() % 2, 0);
            assert!(ds.y.iter().all(|y| y.is_finite()));
        }
    }
}
