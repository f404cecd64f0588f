//! MLM-STP — the machine-learning self-tuning technique (Fig 7).
//!
//! One regressor per class pair predicts ln(wall EDP) from the pair's
//! signatures and a candidate knob setting; at decision time the incoming
//! applications are classified, the class pair's model is evaluated over
//! **all permutations of the tunable parameters** (exactly the paper's step
//! 4) and the argmin is returned.

use crate::classify::KnnAppClassifier;
use crate::engine::EvalError;
use crate::features::AppSignature;
use crate::stp::{encode_row, Stp};
use ecost_apps::class::ClassPair;
use ecost_mapreduce::PairConfig;
use ecost_ml::model::Regressor;
use std::collections::HashMap;

/// The model-based technique, generic over the regressor family.
pub struct MlmStp<M: Regressor> {
    /// Per-class-pair EDP models.
    models: HashMap<ClassPair, M>,
    /// Classifier used to route an incoming pair to its model.
    classifier: KnnAppClassifier,
    /// Display name ("LR", "REPTree", "MLP").
    model_name: &'static str,
}

impl<M: Regressor> MlmStp<M> {
    /// Assemble from fitted per-class-pair models and a fitted classifier.
    pub fn new(
        models: HashMap<ClassPair, M>,
        classifier: KnnAppClassifier,
        model_name: &'static str,
    ) -> MlmStp<M> {
        MlmStp {
            models,
            classifier,
            model_name,
        }
    }

    /// Train one model per class pair with the supplied constructor.
    pub fn train(
        training: &super::training::TrainingData,
        classifier: KnnAppClassifier,
        model_name: &'static str,
        make: impl Fn() -> M,
    ) -> MlmStp<M> {
        let mut models = HashMap::new();
        for (cp, ds) in training {
            let mut m = make();
            m.fit(ds);
            models.insert(*cp, m);
        }
        MlmStp::new(models, classifier, model_name)
    }

    /// The model that would be used for a given class pair (falls back to
    /// the lexically first model if the exact pair was never trained).
    /// Fails when no model was trained at all.
    pub fn model_for(&self, cp: ClassPair) -> Result<&M, EvalError> {
        if let Some(m) = self.models.get(&cp) {
            return Ok(m);
        }
        self.models
            .iter()
            .min_by_key(|(k, _)| (k.first, k.second))
            .map(|(_, m)| m)
            .ok_or(EvalError::NoCandidates {
                what: "no trained class-pair model",
            })
    }
}

impl<M: Regressor> Stp for MlmStp<M> {
    fn name(&self) -> String {
        self.model_name.into()
    }

    fn choose(
        &self,
        a: &AppSignature,
        b: &AppSignature,
        cores: u32,
    ) -> Result<PairConfig, EvalError> {
        let ca = self.classifier.classify(&a.features);
        let cb = self.classifier.classify(&b.features);
        let cp = ClassPair::new(ca, cb);
        let model = self.model_for(cp)?;
        let (sa, sb) = (a.key(), b.key());

        // Predict every point of the knob space once…
        let space = PairConfig::space(cores);
        let preds: Vec<f64> = space
            .iter()
            .map(|cfg| model.predict(&encode_row(&sa, cfg.a, &sb, cfg.b)))
            .collect();
        if preds.iter().any(|p| !p.is_finite()) {
            // A NaN/∞ EDP prediction would win or lose the argmin
            // arbitrarily; the caller degrades to the class-default
            // configuration instead.
            return Err(EvalError::NonFinite {
                what: "MLM EDP prediction",
            });
        }
        // …then pick by neighbourhood-averaged score: a candidate's value is
        // its prediction averaged with its axis-neighbours in the
        // (f, h, m)² grid. Piecewise-constant models (trees) otherwise hand
        // the argmin to the most optimistic corner of a leaf plateau;
        // averaging makes the selection prefer configurations that are
        // predicted good *and* sit in predicted-good regions.
        let key = |cfg: &PairConfig| {
            (
                cfg.a.freq.index() as u8,
                cfg.a.block.index() as u8,
                cfg.a.mappers as u8,
                cfg.b.freq.index() as u8,
                cfg.b.block.index() as u8,
                cfg.b.mappers as u8,
            )
        };
        let index: std::collections::HashMap<_, usize> = space
            .iter()
            .enumerate()
            .map(|(i, cfg)| (key(cfg), i))
            .collect();
        let mut best: Option<(usize, f64)> = None;
        for (i, cfg) in space.iter().enumerate() {
            let k = key(cfg);
            let mut sum = preds[i];
            let mut n = 1.0;
            for dim in 0..6 {
                for delta in [-1i16, 1] {
                    let mut nk = [
                        k.0 as i16, k.1 as i16, k.2 as i16, k.3 as i16, k.4 as i16, k.5 as i16,
                    ];
                    nk[dim] += delta;
                    let nkey = (
                        nk[0] as u8,
                        nk[1] as u8,
                        nk[2] as u8,
                        nk[3] as u8,
                        nk[4] as u8,
                        nk[5] as u8,
                    );
                    if nk.iter().all(|v| *v >= 0) {
                        if let Some(&j) = index.get(&nkey) {
                            sum += preds[j];
                            n += 1.0;
                        }
                    }
                }
            }
            let score = sum / n;
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((i, score));
            }
        }
        let (i, _) = best.ok_or(EvalError::EmptySweep {
            what: "pair config space",
        })?;
        Ok(space[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::features::profile_catalog_app;
    use ecost_apps::{App, AppClass, InputSize};
    use ecost_ml::{Dataset, LinearRegression};

    fn dummy_classifier(engine: &EvalEngine) -> KnnAppClassifier {
        let sigs: Vec<(crate::features::AppSignature, AppClass)> = [App::Wc, App::St]
            .iter()
            .map(|&a| {
                (
                    profile_catalog_app(engine, a, InputSize::Small, 0.0, 0).unwrap(),
                    a.class(),
                )
            })
            .collect();
        crate::classify::KnnAppClassifier::fit(&sigs)
    }

    #[test]
    fn argmin_respects_core_budget_and_learned_preference() {
        let eng = EvalEngine::atom();
        // Synthetic training data: EDP grows with total mappers — the model
        // should then prefer the smallest partition.
        let mut ds = Dataset::new(crate::stp::encode_columns(), "ln_edp_wall");
        let sig = [1.0; 9];
        for cfg in PairConfig::space(8).into_iter().step_by(7) {
            let y = f64::from(cfg.cores());
            ds.push(encode_row(&sig, cfg.a, &sig, cfg.b), y);
        }
        let mut models = HashMap::new();
        let mut lr = LinearRegression::new();
        lr.fit(&ds);
        models.insert(ClassPair::new(AppClass::C, AppClass::I), lr);
        let stp = MlmStp::new(models, dummy_classifier(&eng), "LR");

        let a = profile_catalog_app(&eng, App::Wc, InputSize::Small, 0.0, 0).unwrap();
        let b = profile_catalog_app(&eng, App::St, InputSize::Small, 0.0, 0).unwrap();
        let cfg = stp.choose(&a, &b, 8).unwrap();
        assert!(cfg.cores() <= 8);
        assert_eq!(cfg.cores(), 2, "LR learned EDP ∝ mappers → minimum split");
        assert_eq!(stp.name(), "LR");
    }

    #[test]
    fn falls_back_to_some_model_for_unseen_class_pair() {
        let eng = EvalEngine::atom();
        let mut ds = Dataset::new(crate::stp::encode_columns(), "ln_edp_wall");
        let sig = [0.0; 9];
        let cfgs: Vec<PairConfig> = PairConfig::space(8).into_iter().step_by(101).collect();
        for cfg in cfgs {
            ds.push(encode_row(&sig, cfg.a, &sig, cfg.b), 1.0);
        }
        let mut lr = LinearRegression::new();
        lr.fit(&ds);
        let mut models = HashMap::new();
        models.insert(ClassPair::new(AppClass::M, AppClass::M), lr);
        let stp = MlmStp::new(models, dummy_classifier(&eng), "LR");
        // C-I pair routed to the only (M-M) model without panicking.
        let a = profile_catalog_app(&eng, App::Wc, InputSize::Small, 0.0, 0).unwrap();
        let b = profile_catalog_app(&eng, App::St, InputSize::Small, 0.0, 0).unwrap();
        let cfg = stp.choose(&a, &b, 8).unwrap();
        assert!(cfg.cores() <= 8);
    }

    #[test]
    fn no_models_at_all_is_an_error() {
        let eng = EvalEngine::atom();
        let stp: MlmStp<LinearRegression> =
            MlmStp::new(HashMap::new(), dummy_classifier(&eng), "LR");
        let a = profile_catalog_app(&eng, App::Wc, InputSize::Small, 0.0, 0).unwrap();
        assert!(matches!(
            stp.choose(&a, &a, 8),
            Err(EvalError::NoCandidates { .. })
        ));
    }
}
