//! The database of §6.2: best configurations for the known applications.
//!
//! Built once, offline, from exhaustive sweeps over the training set (the
//! paper's 84 480-run study); stores, per same-size training pair, the
//! winning pair configuration together with both applications' counter
//! signatures, plus each application's best standalone configuration. STP
//! queries it instead of re-running brute force for every unknown arrival.

use crate::engine::{EvalEngine, EvalError};
use crate::features::{profile_catalog_app, AppSignature};
use ecost_apps::class::ClassPair;
use ecost_apps::{App, AppClass, InputSize, TRAINING_APPS};
use ecost_mapreduce::{PairConfig, TuningConfig};
use std::time::Instant;

/// One co-located entry.
#[derive(Debug, Clone)]
pub struct PairEntry {
    /// Training applications (paper short names).
    pub a: App,
    /// Second application.
    pub b: App,
    /// Input size (same for both, as in Fig 3).
    pub size: InputSize,
    /// Class pair.
    pub classes: ClassPair,
    /// Signature keys (7 counters + magnitude anchors) at this size.
    pub sig_a: [f64; 9],
    /// Signature of the second application.
    pub sig_b: [f64; 9],
    /// The oracle-optimal pair configuration.
    pub config: PairConfig,
    /// Its wall EDP (s²·W).
    pub edp_wall: f64,
}

/// One standalone entry (ILAO's building block, also used by PTM).
#[derive(Debug, Clone)]
pub struct SoloEntry {
    /// Application.
    pub app: App,
    /// Input size.
    pub size: InputSize,
    /// Signature at this size.
    pub sig: [f64; 9],
    /// Best standalone configuration.
    pub config: TuningConfig,
    /// Its wall EDP.
    pub edp_wall: f64,
    /// Its execution time (scheduling estimate).
    pub exec_time_s: f64,
}

/// The §6.2 database.
#[derive(Debug, Clone)]
pub struct ConfigDatabase {
    /// All same-size training pairs × sizes.
    pub pairs: Vec<PairEntry>,
    /// All training apps × sizes, standalone.
    pub solos: Vec<SoloEntry>,
    /// Labelled training signatures (classifier training set).
    pub signatures: Vec<(AppSignature, AppClass)>,
    /// Wall-clock seconds the exhaustive construction took — the paper
    /// reports this as LkT's (one-off) training cost in Fig 8.
    pub build_seconds: f64,
}

impl ConfigDatabase {
    /// Build the database over the training applications and all three
    /// input sizes. `noise`/`seed` control the counter measurement jitter.
    pub fn build(engine: &EvalEngine, noise: f64, seed: u64) -> Result<ConfigDatabase, EvalError> {
        ConfigDatabase::build_subset(engine, &TRAINING_APPS, &InputSize::ALL, noise, seed)
    }

    /// Build over an explicit subset of apps × sizes. The full [`build`]
    /// is this over the whole training catalog; tests use small subsets to
    /// assert the engine's exactly-once memoization without paying for all
    /// 45 sweeps.
    ///
    /// [`build`]: ConfigDatabase::build
    pub fn build_subset(
        engine: &EvalEngine,
        apps: &[App],
        sizes: &[InputSize],
        noise: f64,
        seed: u64,
    ) -> Result<ConfigDatabase, EvalError> {
        let start = Instant::now();
        let idle = engine.idle_w();

        // sig_key[i][j] is apps[i] at sizes[j] — index-addressed so lookups
        // below cannot miss.
        let mut signatures = Vec::new();
        let mut sig_key: Vec<Vec<[f64; 9]>> = Vec::with_capacity(apps.len());
        for &app in apps {
            let mut row = Vec::with_capacity(sizes.len());
            for &size in sizes {
                let sig = profile_catalog_app(engine, app, size, noise, seed)?;
                row.push(sig.key());
                signatures.push((sig, app.class()));
            }
            sig_key.push(row);
        }

        let mut solos = Vec::new();
        for (i, &app) in apps.iter().enumerate() {
            for (j, &size) in sizes.iter().enumerate() {
                let run = engine.best_solo(app.profile(), size.per_node_mb())?;
                solos.push(SoloEntry {
                    app,
                    size,
                    sig: sig_key[i][j],
                    config: run.config,
                    edp_wall: run.metrics.edp_wall(idle),
                    exec_time_s: run.metrics.exec_time_s,
                });
            }
        }

        let mut pairs = Vec::new();
        for (i, &a) in apps.iter().enumerate() {
            for (k, &b) in apps.iter().enumerate().skip(i) {
                for (j, &size) in sizes.iter().enumerate() {
                    let mb = size.per_node_mb();
                    let run = engine.best_pair(a.profile(), mb, b.profile(), mb)?;
                    pairs.push(PairEntry {
                        a,
                        b,
                        size,
                        classes: ClassPair::new(a.class(), b.class()),
                        sig_a: sig_key[i][j],
                        sig_b: sig_key[k][j],
                        config: run.config,
                        edp_wall: run.metrics.edp_wall(idle),
                    });
                }
            }
        }

        Ok(ConfigDatabase {
            pairs,
            solos,
            signatures,
            build_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Look up the standalone entry whose signature is nearest to `sig`
    /// (z-scored distance over the stored solos) — PTM's tuning step.
    /// `None` only when the database holds no solo entries.
    pub fn nearest_solo(&self, sig: &[f64; 9]) -> Option<&SoloEntry> {
        let rows: Vec<Vec<f64>> = self.solos.iter().map(|s| s.sig.to_vec()).collect();
        if rows.is_empty() {
            return None;
        }
        let scaler = ecost_ml::ZScore::fit(&rows);
        let q = scaler.transform(sig);
        let idx = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let d = ecost_ml::knn::euclidean(&scaler.transform(r), &q);
                (i, d)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))?
            .0;
        self.solos.get(idx)
    }

    /// The per-class-pair minimum EDP over stored entries (the raw material
    /// for Fig 5's ranking).
    pub fn class_pair_best_edp(&self, classes: ClassPair) -> Option<f64> {
        self.pairs
            .iter()
            .filter(|p| p.classes == classes)
            .map(|p| p.edp_wall)
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    /// One engine shared by every test in this module: the mini builds all
    /// read the same memoized sweeps, so the suite pays for them once.
    fn engine() -> &'static EvalEngine {
        static E: OnceLock<EvalEngine> = OnceLock::new();
        E.get_or_init(EvalEngine::atom)
    }

    /// A miniature database (2 apps × 1 size) — full builds are exercised by
    /// the experiment binaries; tests keep it small.
    fn mini_db(engine: &EvalEngine) -> ConfigDatabase {
        ConfigDatabase::build_subset(engine, &[App::Wc, App::St], &[InputSize::Small], 0.0, 0)
            .expect("mini build")
    }

    #[test]
    fn nearest_solo_retrieves_own_entry() {
        let db = mini_db(engine());
        let hit = db.nearest_solo(&db.solos[1].sig).expect("non-empty db");
        assert_eq!(hit.app, App::St);
    }

    #[test]
    fn nearest_solo_on_empty_database_is_none() {
        let db = ConfigDatabase {
            pairs: Vec::new(),
            solos: Vec::new(),
            signatures: Vec::new(),
            build_seconds: 0.0,
        };
        assert!(db.nearest_solo(&[0.0; 9]).is_none());
    }

    #[test]
    fn class_pair_lookup() {
        let db = mini_db(engine());
        assert!(db
            .class_pair_best_edp(ClassPair::new(AppClass::C, AppClass::I))
            .is_some());
        assert!(db
            .class_pair_best_edp(ClassPair::new(AppClass::M, AppClass::M))
            .is_none());
    }

    #[test]
    fn pair_entries_respect_core_budget() {
        let db = mini_db(engine());
        for p in &db.pairs {
            assert!(p.config.cores() <= engine().testbed().node.cores);
            assert!(p.edp_wall > 0.0);
        }
    }
}
