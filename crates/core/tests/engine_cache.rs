//! Integration tests for the evaluation engine's memo: the exactly-once
//! guarantee across its consumers, determinism under Rayon thread counts,
//! and equivalence with the raw executor.

use ecost_apps::{App, InputSize};
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::EvalEngine;
use ecost_core::stp::training::build_training_data_subset;
use ecost_core::strategies;
use ecost_mapreduce::executor::{run_colocated, run_standalone};
use ecost_mapreduce::{JobSpec, PairConfig, TuningConfig};
use proptest::prelude::*;

/// The acceptance criterion of the engine refactor: the database build, the
/// COLAO baseline and the MLM training-set construction all read the same
/// pair sweeps, so for a shared set of pairs the simulations are paid for
/// exactly once — by whoever asks first.
#[test]
fn database_colao_and_training_simulate_each_pair_once() {
    let eng = EvalEngine::atom();
    let apps = [App::Wc, App::St];
    let sizes = [InputSize::Small];

    let db = ConfigDatabase::build_subset(&eng, &apps, &sizes, 0.0, 7).expect("db build");
    assert_eq!(db.pairs.len(), 3, "wc-wc, wc-st, st-st");
    let after_build = eng.stats();
    assert!(after_build.runs_simulated > 0);

    // COLAO over every pair the database covers: all cache hits.
    let mb = sizes[0].per_node_mb();
    for (a, b) in [(App::Wc, App::Wc), (App::Wc, App::St), (App::St, App::St)] {
        strategies::colao(&eng, a.profile(), mb, b.profile(), mb).expect("colao");
    }
    // The training set samples the same sweeps (signatures come from the
    // database, not from new profiling runs).
    let sig_of = |app: App, size: InputSize| {
        db.solos
            .iter()
            .find(|s| s.app == app && s.size == size)
            .expect("solo entry")
            .sig
    };
    build_training_data_subset(&eng, &apps, &sizes, &sig_of, 50, 7).expect("training build");

    let end = eng.stats();
    assert_eq!(
        end.runs_simulated, after_build.runs_simulated,
        "COLAO + training-set construction must not re-simulate pairs the \
         database build already swept"
    );
    assert!(
        end.hits > after_build.hits,
        "the re-reads must register as cache hits"
    );
}

/// Results must not depend on how many Rayon workers split the sweep: the
/// shim hands out contiguous index-ordered chunks, and the collected order
/// is the config-space order either way.
#[test]
fn sweeps_are_bit_identical_across_thread_counts() {
    let mb = InputSize::Small.per_node_mb();

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial_eng = EvalEngine::atom();
    let serial_solo = serial_eng
        .sweep_solo(App::Gp.profile(), mb)
        .expect("solo sweep");
    let serial_pair = serial_eng
        .pair_sweep(App::Gp.profile(), mb, App::St.profile(), mb)
        .expect("pair sweep");
    std::env::remove_var("RAYON_NUM_THREADS");

    let par_eng = EvalEngine::atom();
    let par_solo = par_eng
        .sweep_solo(App::Gp.profile(), mb)
        .expect("solo sweep");
    let par_pair = par_eng
        .pair_sweep(App::Gp.profile(), mb, App::St.profile(), mb)
        .expect("pair sweep");

    assert_eq!(serial_solo.len(), par_solo.len());
    for (s, p) in serial_solo.iter().zip(par_solo.iter()) {
        assert_eq!(s.config, p.config);
        assert_eq!(
            s.metrics.exec_time_s.to_bits(),
            p.metrics.exec_time_s.to_bits()
        );
        assert_eq!(s.metrics.energy_j.to_bits(), p.metrics.energy_j.to_bits());
    }
    assert_eq!(serial_pair.swapped(), par_pair.swapped());
    assert_eq!(serial_pair.len(), par_pair.len());
    for (s, p) in serial_pair.runs().zip(par_pair.runs()) {
        assert_eq!(s.config, p.config);
        assert_eq!(
            s.metrics.makespan_s.to_bits(),
            p.metrics.makespan_s.to_bits()
        );
        assert_eq!(s.metrics.energy_j.to_bits(), p.metrics.energy_j.to_bits());
    }
}

/// Re-evaluating the same point is a hit, not a new simulation.
#[test]
fn repeat_evaluations_increment_the_hit_counter() {
    let eng = EvalEngine::atom();
    let mb = InputSize::Small.per_node_mb();
    let cfg = TuningConfig::hadoop_default(8);
    // Two jobs must share the 8-core node: 4 + 4.
    let half = TuningConfig { mappers: 4, ..cfg };
    let pc = PairConfig { a: half, b: half };

    let first = eng
        .solo_metrics(App::Wc.profile(), mb, cfg)
        .expect("solo sim");
    let s0 = eng.stats();
    let again = eng
        .solo_metrics(App::Wc.profile(), mb, cfg)
        .expect("solo sim");
    let s1 = eng.stats();
    assert_eq!(first, again);
    assert_eq!(s1.hits, s0.hits + 1);
    assert_eq!(s1.runs_simulated, s0.runs_simulated);

    eng.pair_metrics(App::Wc.profile(), mb, App::St.profile(), mb, pc)
        .expect("pair sim");
    let s2 = eng.stats();
    eng.pair_metrics(App::Wc.profile(), mb, App::St.profile(), mb, pc)
        .expect("pair sim");
    let s3 = eng.stats();
    assert_eq!(s3.hits, s2.hits + 1);
    assert_eq!(s3.runs_simulated, s2.runs_simulated);
}

const APPS: [App; 4] = [App::Wc, App::St, App::Gp, App::Fp];

fn cfg_from(f: usize, h: usize, m: u32) -> TuningConfig {
    TuningConfig {
        freq: ecost_sim::Frequency::ALL[f % ecost_sim::Frequency::ALL.len()],
        block: ecost_mapreduce::BlockSize::ALL[h % ecost_mapreduce::BlockSize::ALL.len()],
        mappers: m,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine is a memo, not a model: for any configuration its answer
    /// must be exactly what the executor computes directly.
    #[test]
    fn engine_matches_direct_executor(
        (ai, f, h) in (0usize..4, 0usize..8, 0usize..8),
        m in 1u32..=8,
        (bi, f2, h2, m2) in (0usize..4, 0usize..8, 0usize..8, 1u32..=4),
    ) {
        let eng = EvalEngine::atom();
        let tb = eng.testbed();
        let mb = InputSize::Small.per_node_mb();
        let a = APPS[ai].profile();
        let b = APPS[bi].profile();
        let cfg_a = cfg_from(f, h, m);
        // The co-located pair shares the 8-core node; cap the partition.
        let cfg_pair_a = cfg_from(f, h, m.min(4));
        let cfg_b = cfg_from(f2, h2, m2);

        let via_engine = eng.solo_metrics(a, mb, cfg_a).expect("engine solo");
        let direct = run_standalone(
            &tb.node,
            &tb.fw,
            JobSpec::from_profile(a.clone(), mb, cfg_a),
        )
        .expect("direct solo")
        .metrics;
        prop_assert_eq!(via_engine.exec_time_s.to_bits(), direct.exec_time_s.to_bits());
        prop_assert_eq!(via_engine.energy_j.to_bits(), direct.energy_j.to_bits());

        let pc = PairConfig { a: cfg_pair_a, b: cfg_b };
        let pair_engine = eng.pair_metrics(a, mb, b, mb, pc).expect("engine pair");
        let (outs, makespan) = run_colocated(
            &tb.node,
            &tb.fw,
            vec![
                JobSpec::from_profile(a.clone(), mb, cfg_pair_a),
                JobSpec::from_profile(b.clone(), mb, cfg_b),
            ],
        )
        .expect("direct pair");
        let direct_energy: f64 = outs.iter().map(|o| o.metrics.energy_j).sum();
        prop_assert_eq!(pair_engine.makespan_s.to_bits(), makespan.to_bits());
        prop_assert_eq!(pair_engine.energy_j.to_bits(), direct_energy.to_bits());
    }
}
