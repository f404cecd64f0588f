//! Shape regression tests: coarse assertions of the paper's headline
//! results, so a calibration regression fails CI rather than silently
//! deforming every figure. Thresholds are deliberately loose — they encode
//! *who wins*, not exact factors.

use ecost::apps::{App, InputSize};
use ecost::core::engine::EvalEngine;
use ecost::core::strategies;
use ecost::mapreduce::{BlockSize, TuningConfig};
use ecost::sim::Frequency;
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn fig3_shape_ii_wins_mm_flat() {
    let eng = EvalEngine::atom();
    let mb = InputSize::Small.per_node_mb();
    let gain = |a: App, b: App| {
        strategies::colao_over_ilao_gain(&eng, a.profile(), b.profile(), mb).expect("gain")
    };
    let ii = gain(App::St, App::St);
    let mm = gain(App::Fp, App::Fp);
    let ci = gain(App::Wc, App::St);
    assert!(ii > 2.0, "I-I gain {ii}");
    assert!(
        ii > ci && ci > mm,
        "ordering I-I {ii} > C-I {ci} > M-M {mm}"
    );
    assert!(mm > 0.8 && mm < 1.8, "M-M ≈ flat, got {mm}");
}

#[test]
fn fig2_shape_sensitivity_declines_with_mappers() {
    let eng = EvalEngine::atom();
    let idle = eng.idle_w();
    let gain_at = |m: u32| {
        let edp = |f: Frequency, h: BlockSize| {
            eng.solo_metrics(
                App::Wc.profile(),
                InputSize::Small.per_node_mb(),
                TuningConfig {
                    freq: f,
                    block: h,
                    mappers: m,
                },
            )
            .expect("solo sim")
            .edp_wall(idle)
        };
        let base = edp(Frequency::F1_2, BlockSize::B64);
        let best = Frequency::ALL
            .iter()
            .flat_map(|f| BlockSize::ALL.iter().map(move |h| (*f, *h)))
            .map(|(f, h)| edp(f, h))
            .fold(f64::INFINITY, f64::min);
        1.0 - best / base
    };
    let g1 = gain_at(1);
    let g8 = gain_at(8);
    assert!(g1 > 0.4, "tuning must matter at m=1: {g1}");
    assert!(
        g1 > g8,
        "sensitivity shrinks with mappers: m1 {g1} vs m8 {g8}"
    );
}

#[test]
fn table2_shape_optimal_configs_prefer_high_freq_large_blocks() {
    // Table 2's oracle configs are almost all 2.4 GHz with 512/1024 MB
    // blocks; verify the same tendency.
    let eng = EvalEngine::atom();
    let mb = InputSize::Small.per_node_mb();
    let mut high_freq = 0;
    let mut large_block = 0;
    let mut total = 0;
    for app in [App::Wc, App::Gp, App::Fp] {
        let best = eng.best_solo(app.profile(), mb).expect("solo sweep");
        total += 1;
        if best.config.freq >= Frequency::F2_0 {
            high_freq += 1;
        }
        if best.config.block >= BlockSize::B512 {
            large_block += 1;
        }
    }
    assert!(
        high_freq >= total - 1,
        "{high_freq}/{total} high-frequency optima"
    );
    assert!(
        large_block >= total - 1,
        "{large_block}/{total} large-block optima"
    );
}

#[test]
fn io_apps_get_few_mappers_compute_apps_many() {
    // The §4.1/§5 driver: at the optimum, Sort wants few slots, WordCount
    // wants most of the node.
    let eng = EvalEngine::atom();
    let mb = InputSize::Medium.per_node_mb();
    let st = eng.best_solo(App::St.profile(), mb).expect("solo sweep");
    let wc = eng.best_solo(App::Wc.profile(), mb).expect("solo sweep");
    assert!(st.config.mappers <= 5, "st mappers {}", st.config.mappers);
    assert!(wc.config.mappers >= 6, "wc mappers {}", wc.config.mappers);
}

#[test]
fn colocation_beyond_two_degrades() {
    // §4.2: "co-locating beyond 2 applications … degrades energy
    // efficiency". Eight 5 GB FP-Growth jobs through one node: four batches
    // of two co-located jobs (working sets fit in DRAM) vs. all eight at
    // once (8 × ~3 GB resident blows past 8 GB → spill pressure).
    let eng = EvalEngine::atom();
    let tb = eng.testbed();
    let idle = eng.idle_w();
    let run_batches = |per_batch: usize| {
        let m = (8 / per_batch as u32).max(1);
        let cfg = TuningConfig {
            freq: Frequency::F2_0,
            block: BlockSize::B512,
            mappers: m,
        };
        let mut makespan = 0.0;
        let mut energy = 0.0;
        for _batch in 0..(8 / per_batch) {
            let jobs: Vec<_> = (0..per_batch)
                .map(|_| {
                    ecost::mapreduce::JobSpec::from_profile(
                        App::Fp.profile().clone(),
                        5.0 * 1024.0,
                        cfg,
                    )
                })
                .collect();
            let (outs, span) =
                ecost::mapreduce::executor::run_colocated(&tb.node, &tb.fw, jobs).expect("sim");
            makespan += span;
            energy += outs.iter().map(|o| o.metrics.energy_j).sum::<f64>();
        }
        ecost::mapreduce::PairMetrics {
            makespan_s: makespan,
            energy_j: energy,
        }
        .edp_wall(idle)
    };
    let e2 = run_batches(2);
    let e8 = run_batches(8);
    assert!(e8 > 1.1 * e2, "8-way {e8} must degrade vs 2-at-a-time {e2}");
}

/// The `required` columns of a committed golden under `results/`, one
/// `Vec` per data row, in `required` order. The header must name every
/// required column before any row is read, and every row must have the
/// header's width (`report::Table` writes no quoted cells).
fn golden_columns(name: &str, required: &[&str]) -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let idx: Vec<usize> = required
        .iter()
        .map(|col| {
            header
                .iter()
                .position(|h| h == col)
                .unwrap_or_else(|| panic!("{name}: no `{col}` column in {header:?}"))
        })
        .collect();
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), header.len(), "{name}: ragged row {line:?}");
            idx.iter().map(|&i| cells[i].to_string()).collect()
        })
        .collect()
}

#[test]
fn fig5_ranking_puts_ii_first_and_mm_last() {
    // Read from the goldens, which CI's regeneration ties to the code. The
    // measured ranking deviates from the paper's in the middle (I-M and
    // H-M rank 4th and 5th, ahead of C-I, C-H and C-C; EXPERIMENTS.md), so
    // only the ends and the derived priority are asserted.
    let ranking = golden_columns("fig5_priority_1.csv", &["rank", "classes", "EDP/ILAO"]);
    let classes: BTreeSet<&str> = ranking.iter().map(|r| r[1].as_str()).collect();
    assert_eq!(ranking.len(), 10, "one row per class pair");
    assert_eq!(classes.len(), 10, "class pairs repeat: {classes:?}");
    let mut prev = f64::NEG_INFINITY;
    for (i, row) in ranking.iter().enumerate() {
        assert_eq!(row[0], (i + 1).to_string(), "rows out of rank order");
        let score: f64 = row[2].parse().expect("numeric EDP/ILAO");
        assert!(
            score >= prev,
            "EDP/ILAO falls at rank {}: {score} < {prev}",
            i + 1
        );
        prev = score;
    }
    assert_eq!(ranking[0][1], "I-I");
    assert_eq!(ranking[9][1], "M-M");

    let priority = golden_columns("fig5_priority_2.csv", &["priority", "class"]);
    let order: Vec<&str> = priority.iter().map(|r| r[1].as_str()).collect();
    assert_eq!(order, ["I", "H", "C", "M"]);
    for (i, row) in priority.iter().enumerate() {
        assert_eq!(row[0], (i + 1).to_string(), "rows out of priority order");
    }
}

#[test]
fn table1_lr_is_worst_in_every_row_and_reptree_beats_mlp() {
    // The paper's headline: the linear model is far worse than the
    // non-linear ones, in every class pair and on average. The measured
    // REPTree average sits below the MLP's, the reverse of the paper's
    // order (EXPERIMENTS.md, deviation note 2).
    let rows = golden_columns("table1_ape_0.csv", &["classes", "LR", "REPTree", "MLP"]);
    let ape = |row: &[String], i: usize| -> f64 {
        row[i]
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric APE in {row:?}"))
    };
    let average = rows
        .iter()
        .find(|r| r[0] == "Average")
        .expect("an Average row");
    assert_eq!(rows.len(), 11, "ten class pairs plus the Average row");
    for row in &rows {
        let (lr, reptree, mlp) = (ape(row, 1), ape(row, 2), ape(row, 3));
        assert!(
            lr > reptree && lr > mlp,
            "{}: LR {lr} is not the largest APE (REPTree {reptree}, MLP {mlp})",
            row[0]
        );
    }
    let (reptree, mlp) = (ape(average, 2), ape(average, 3));
    assert!(reptree < mlp, "average REPTree {reptree} >= MLP {mlp}");
}

#[test]
fn table2_reptree_and_lkt_in_single_digits_lr_the_outlier() {
    let rows = golden_columns(
        "table2_configs_1.csv",
        &["technique", "mean error %", "worst error %"],
    );
    let err = |technique: &str, i: usize| -> f64 {
        let row = rows
            .iter()
            .find(|r| r[0] == technique)
            .unwrap_or_else(|| panic!("no {technique} row"));
        row[i]
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric error in {row:?}"))
    };
    for technique in ["LkT", "REPTree"] {
        let mean = err(technique, 1);
        assert!(
            mean < 10.0,
            "{technique} mean error {mean} % is not below 10 %"
        );
    }
    for (i, what) in [(1, "mean"), (2, "worst")] {
        let lr = err("LR", i);
        for technique in ["LkT", "MLP", "REPTree"] {
            let other = err(technique, i);
            assert!(
                lr > other,
                "LR {what} error {lr} % <= {technique}'s {other} %"
            );
        }
    }
}

#[test]
fn fig9_ecost_closest_to_ub_at_every_size_and_cbm_beats_ptm() {
    // Means over WS1–WS8 of the normalised EDP (policy / UB). ECoST is the
    // closest non-UB policy at every size and within 5 % of UB on one
    // node; CBM beats PTM, the reverse of the paper's 8-node observation
    // (EXPERIMENTS.md, deviation note 3).
    const POLICIES: [&str; 7] = ["SM", "MNM1", "MNM2", "SNM", "CBM", "PTM", "ECoST"];
    for (i, nodes) in [1, 2, 4, 8].into_iter().enumerate() {
        let name = format!("fig9_scalability_{i}.csv");
        let mut columns = vec!["workload"];
        columns.extend(POLICIES);
        let rows = golden_columns(&name, &columns);
        let workloads: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            workloads,
            ["WS1", "WS2", "WS3", "WS4", "WS5", "WS6", "WS7", "WS8"],
            "{name}"
        );
        let mean = |policy: &str| -> f64 {
            let col = 1 + POLICIES
                .iter()
                .position(|p| *p == policy)
                .unwrap_or_else(|| panic!("no {policy} column"));
            let sum: f64 = rows
                .iter()
                .map(|r| {
                    r[col]
                        .parse::<f64>()
                        .unwrap_or_else(|_| panic!("{name}: non-numeric {policy} in {r:?}"))
                })
                .sum();
            sum / rows.len() as f64
        };
        let ecost = mean("ECoST");
        for policy in &POLICIES[..6] {
            let other = mean(policy);
            assert!(
                ecost < other,
                "{nodes} node(s): ECoST mean {ecost:.3} is not below {policy}'s {other:.3}"
            );
        }
        if nodes == 1 {
            assert!(ecost <= 1.05, "1 node: ECoST mean {ecost:.3} above 1.05");
        }
        let (cbm, ptm) = (mean("CBM"), mean("PTM"));
        assert!(
            cbm < ptm,
            "{nodes} node(s): CBM mean {cbm:.3} does not beat PTM's {ptm:.3}"
        );
    }
}
