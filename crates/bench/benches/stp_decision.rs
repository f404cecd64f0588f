//! Benchmark of the STP decision latency — the run-time overhead the paper
//! charges against each technique in Fig 8(b). Uses a miniature database
//! (one training pair) so the bench measures decision mechanics, not the
//! offline sweep.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecost_apps::{App, AppClass, InputSize};
use ecost_core::classify::KnnAppClassifier;
use ecost_core::engine::EvalEngine;
use ecost_core::features::profile_catalog_app;
use ecost_core::stp::{encode_columns, encode_row, LktStp, MlmStp, Stp};
use ecost_ml::model::Regressor as _;
use ecost_ml::{Dataset, LinearRegression, RepTree, RepTreeConfig};

fn bench_decisions(c: &mut Criterion) {
    let eng = EvalEngine::atom();
    let mb = InputSize::Small.per_node_mb();
    let idle = eng.idle_w();

    // Miniature offline phase: one wc-st pair.
    let sig_wc = profile_catalog_app(&eng, App::Wc, InputSize::Small, 0.0, 0).expect("profile");
    let sig_st = profile_catalog_app(&eng, App::St, InputSize::Small, 0.0, 0).expect("profile");
    let sweep = eng
        .pair_sweep(App::Wc.profile(), mb, App::St.profile(), mb)
        .expect("sweep");
    let best = sweep.best();

    let db = ecost_core::database::ConfigDatabase {
        pairs: vec![ecost_core::database::PairEntry {
            a: App::Wc,
            b: App::St,
            size: InputSize::Small,
            classes: ecost_apps::class::ClassPair::new(AppClass::C, AppClass::I),
            sig_a: sig_wc.key(),
            sig_b: sig_st.key(),
            config: best.config,
            edp_wall: best.metrics.edp_wall(idle),
        }],
        solos: vec![],
        signatures: vec![],
        build_seconds: 0.0,
    };
    let lkt = LktStp::from_database(&db);

    let mut ds = Dataset::new(encode_columns(), "ln_edp");
    for run in sweep.runs() {
        // The engine stores sweeps in normalised orientation; reorient so
        // `.a` lines up with wc's signature.
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
    let training: Vec<(ecost_core::features::AppSignature, AppClass)> =
        vec![(sig_wc.clone(), AppClass::C), (sig_st.clone(), AppClass::I)];
    let knn = KnnAppClassifier::fit(&training);
    let cp = ecost_apps::class::ClassPair::new(AppClass::C, AppClass::I);
    let mut lr_model = LinearRegression::new();
    lr_model.fit(&ds);
    let mut tree_model = RepTree::new(RepTreeConfig::default());
    tree_model.fit(&ds);
    let lr = MlmStp::new([(cp, lr_model)].into(), knn.clone(), "LR");
    let tree = MlmStp::new([(cp, tree_model)].into(), knn, "REPTree");

    let mut g = c.benchmark_group("stp_decision");
    g.bench_function("lkt_choose", |b| {
        b.iter(|| {
            lkt.choose(black_box(&sig_wc), black_box(&sig_st), 8)
                .expect("choice")
        })
    });
    g.bench_function("lr_choose_argmin_11200", |b| {
        b.iter(|| {
            lr.choose(black_box(&sig_wc), black_box(&sig_st), 8)
                .expect("choice")
        })
    });
    g.bench_function("reptree_choose_argmin_11200", |b| {
        b.iter(|| {
            tree.choose(black_box(&sig_wc), black_box(&sig_st), 8)
                .expect("choice")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_decisions);
criterion_main!(benches);
