//! Cross-crate integration: the full ECoST pipeline wired end-to-end on a
//! reduced budget (small inputs, subsampled sweeps) so it runs in test time.

use ecost::apps::{App, AppClass, InputSize};
use ecost::core::classify::{KnnAppClassifier, RuleClassifier};
use ecost::core::engine::EvalEngine;
use ecost::core::features::profile_catalog_app;
use ecost::core::pairing::PairingPolicy;
use ecost::core::queue::WaitQueue;
use ecost::core::stp::{encode_columns, encode_row, MlmStp, Stp};
use ecost::mapreduce::PairConfig;
use ecost::ml::{Dataset, RepTree, RepTreeConfig};

fn training_signatures(eng: &EvalEngine) -> Vec<(ecost::core::features::AppSignature, AppClass)> {
    // All sizes, as the real offline phase does — a k=3 vote needs more than
    // one exemplar per class.
    ecost::apps::TRAINING_APPS
        .iter()
        .flat_map(|&a| InputSize::ALL.iter().map(move |&s| (a, s)))
        .map(|(a, s)| {
            let sig = profile_catalog_app(eng, a, s, 0.02, 3).expect("profiling run");
            (sig, a.class())
        })
        .collect()
}

#[test]
fn classify_pair_tune_run_pipeline() {
    let eng = EvalEngine::atom();
    let idle = eng.idle_w();

    // 1. Classify two unknown arrivals.
    let classifier = RuleClassifier::fit(&training_signatures(&eng));
    let sig_svm = profile_catalog_app(&eng, App::Svm, InputSize::Small, 0.02, 9).expect("profile");
    let sig_pr = profile_catalog_app(&eng, App::Pr, InputSize::Small, 0.02, 9).expect("profile");
    let class_svm = classifier.classify(&sig_svm.features);
    let class_pr = classifier.classify(&sig_pr.features);
    assert_eq!(class_svm, AppClass::C);

    // 2. Queue + pairing decision tree.
    let mut queue = WaitQueue::new(2);
    queue.push("svm", class_svm, 100.0);
    queue.push("pr", class_pr, 100.0);
    let policy = PairingPolicy::default();
    let eligible = queue.eligible();
    let classes: Vec<AppClass> = eligible.iter().map(|(_, c)| *c).collect();
    let pick = policy.choose(&classes).expect("two candidates");
    // PR (H-ish) outranks SVM (C) under I > H > C > M.
    assert_eq!(
        queue
            .peek(eligible[pick].0)
            .expect("eligible index in range")
            .payload,
        "pr"
    );

    // 3. Self-tune with a REPTree trained on one swept training pair.
    let mb = InputSize::Small.per_node_mb();
    let sweep = eng
        .pair_sweep(App::Wc.profile(), mb, App::St.profile(), mb)
        .expect("pair sweep");
    let sig_wc = profile_catalog_app(&eng, App::Wc, InputSize::Small, 0.02, 3).expect("profile");
    let sig_st = profile_catalog_app(&eng, App::St, InputSize::Small, 0.02, 3).expect("profile");
    let mut ds = Dataset::new(encode_columns(), "ln_edp");
    for run in sweep.runs() {
        // Reorient so `.a` lines up with wc's signature.
        let cfg = if sweep.swapped() {
            run.config.swapped()
        } else {
            run.config
        };
        ds.push(
            encode_row(&sig_wc.key(), cfg.a, &sig_st.key(), cfg.b),
            run.metrics.edp_wall(idle).ln(),
        );
    }
    let mut models = std::collections::HashMap::new();
    let mut tree = RepTree::new(RepTreeConfig {
        max_depth: 32,
        min_samples_split: 4,
        min_samples_leaf: 1,
        prune_fraction: 0.1,
        ..RepTreeConfig::default()
    });
    ecost::ml::model::Regressor::fit(&mut tree, &ds);
    models.insert(
        ecost::apps::class::ClassPair::new(AppClass::C, AppClass::I),
        tree,
    );
    let stp = MlmStp::new(
        models,
        KnnAppClassifier::fit(&training_signatures(&eng)),
        "REPTree",
    );
    let cores = eng.testbed().node.cores;
    let cfg = stp.choose(&sig_wc, &sig_st, cores).expect("stp choice");
    assert!(cfg.cores() <= cores);

    // 4. The predicted config must be competitive with the oracle on the
    //    pair it was trained on (in-distribution sanity).
    let chosen = eng
        .pair_metrics(App::Wc.profile(), mb, App::St.profile(), mb, cfg)
        .expect("pair sim");
    let best = eng
        .best_pair(App::Wc.profile(), mb, App::St.profile(), mb)
        .expect("pair sweep");
    let gap = chosen.edp_wall(idle) / best.metrics.edp_wall(idle);
    assert!(gap < 1.3, "STP config {:.2}x off the oracle", gap);
}

#[test]
fn oracle_config_beats_default_everywhere() {
    let eng = EvalEngine::atom();
    let idle = eng.idle_w();
    let mb = InputSize::Small.per_node_mb();
    for (a, b) in [(App::St, App::St), (App::Wc, App::Fp)] {
        let best = eng
            .best_pair(a.profile(), mb, b.profile(), mb)
            .expect("pair sweep");
        let default = PairConfig {
            a: ecost::mapreduce::TuningConfig {
                mappers: 4,
                ..ecost::mapreduce::TuningConfig::hadoop_default(8)
            },
            b: ecost::mapreduce::TuningConfig {
                mappers: 4,
                ..ecost::mapreduce::TuningConfig::hadoop_default(8)
            },
        };
        let def = eng
            .pair_metrics(a.profile(), mb, b.profile(), mb, default)
            .expect("pair sim");
        assert!(
            best.metrics.edp_wall(idle) <= def.edp_wall(idle) + 1e-9,
            "{a}-{b}"
        );
    }
}

#[test]
fn signatures_feed_knn_classifier_correctly() {
    let eng = EvalEngine::atom();
    let knn = KnnAppClassifier::fit(&training_signatures(&eng));
    // Test apps at the training size.
    let mut hits = 0;
    for app in [App::Svm, App::Hmm, App::Km, App::Cf] {
        let sig = profile_catalog_app(&eng, app, InputSize::Small, 0.02, 5).expect("profile");
        if knn.classify(&sig.features) == app.class() {
            hits += 1;
        }
    }
    assert!(hits >= 3, "{hits}/4");
}
