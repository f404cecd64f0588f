//! One function per paper table/figure. Each returns [`Table`]s ready for
//! [`ecost_core::report::emit`].

use crate::harness::{Ctx, NOISE, SEED};
use ecost_apps::catalog::ALL_APPS;
use ecost_apps::class::ClassPair;
use ecost_apps::{App, InputSize, WorkloadScenario};
use ecost_core::engine::EvalEngine;
use ecost_core::features::Testbed;
use ecost_core::mapping::{
    run_policy, run_stream, ConfiguredPolicy, Decisions, EcostContext, FaultSetup, MappingPolicy,
    OpenArrival, OpenOptions,
};
use ecost_core::report::{f, Table};
use ecost_core::strategies;
use ecost_mapreduce::{BlockSize, Feature, TuningConfig};
use ecost_ml::model::Regressor;
use ecost_ml::{hcluster, Pca, ZScore};
use ecost_sim::Frequency;
use std::time::Instant;

/// Re-exported from [`ecost_core::report`], where the rendering now lives
/// alongside the other table helpers (it gained the fault/retry/fallback
/// counters of the fault-injection subsystem).
pub use ecost_core::report::{engine_stats_table, telemetry_stats_table};

// ---------------------------------------------------------------- Fig 1 --

/// Fig 1: PCA of the 14 collected feature metrics over all applications ×
/// sizes, plus the hierarchical clustering that selects 7 representatives.
pub fn fig1_pca(ctx: &mut Ctx) -> Vec<Table> {
    // Observations: all 11 apps × 3 sizes, standalone profiling runs.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for app in ALL_APPS {
        for size in InputSize::ALL {
            rows.push(ctx.signature(app, size).features.as_slice().to_vec());
        }
    }
    let z = ZScore::fit(&rows);
    let pca = Pca::fit(&z.transform_all(&rows)).expect("PCA on normalised counters");
    let ratio = pca.explained_variance_ratio();

    let mut variance = Table::new(
        "Fig 1a: PCA explained variance (paper: PC1+PC2 = 85.22%)",
        &["component", "variance %", "cumulative %"],
    );
    for (k, &r) in ratio.iter().enumerate().take(4) {
        variance.row(&[
            format!("PC{}", k + 1),
            f(100.0 * r, 2),
            f(100.0 * pca.cumulative_variance(k + 1), 2),
        ]);
    }

    // Feature scatter in (PC1, PC2) loading space + clustering to 7 groups.
    let pts: Vec<Vec<f64>> = (0..rows[0].len())
        .map(|feat| vec![pca.loading(0, feat), pca.loading(1, feat)])
        .collect();
    let dend = hcluster::agglomerative(&pts, hcluster::Linkage::Average);
    let labels = dend.cut(7);
    let reps = hcluster::representatives(&pts, 7, hcluster::Linkage::Average);

    let mut scatter = Table::new(
        "Fig 1b: feature loadings on PC1/PC2 with 7-cluster grouping",
        &["feature", "PC1", "PC2", "cluster", "representative"],
    );
    for (i, feat) in Feature::ALL.iter().enumerate() {
        scatter.row(&[
            feat.name().to_string(),
            f(pts[i][0], 3),
            f(pts[i][1], 3),
            labels[i].to_string(),
            if reps.contains(&i) {
                "*".into()
            } else {
                "".into()
            },
        ]);
    }

    let mut selected = Table::new(
        "Fig 1c: selected features (paper keeps CPUuser, CPUiowait, I/O read, I/O write, IPC, MemFootprint, LLC MPKI)",
        &["cluster representative"],
    );
    for &r in &reps {
        selected.row(&[Feature::ALL[r].name().to_string()]);
    }
    vec![variance, scatter, selected]
}

// ---------------------------------------------------------------- Fig 2 --

/// Fig 2: EDP improvement from tuning HDFS block size and frequency
/// individually vs concurrently, as a function of the mapper count. All EDP
/// normalised to (64 MB, 1.2 GHz) per the paper.
pub fn fig2_tuning(ctx: &mut Ctx) -> Vec<Table> {
    let eng = &ctx.engine;
    let idle = eng.idle_w();
    let cores = eng.testbed().node.cores;
    let apps = [App::Wc, App::Gp, App::St, App::Fp];
    let size = InputSize::Medium;

    let mut table = Table::new(
        "Fig 2: EDP improvement vs (64MB, 1.2GHz) baseline — individual vs concurrent tuning",
        &[
            "app",
            "mappers",
            "h-only %",
            "f-only %",
            "h+f %",
            "concurrent gain over best individual %",
        ],
    );
    let mut margins: Vec<f64> = Vec::new();
    for app in apps {
        for m in 1..=cores {
            let edp = |freq: Frequency, block: BlockSize| {
                let cfg = TuningConfig {
                    freq,
                    block,
                    mappers: m,
                };
                eng.solo_metrics(app.profile(), size.per_node_mb(), cfg)
                    .expect("solo sim")
                    .edp_wall(idle)
            };
            let base = edp(Frequency::F1_2, BlockSize::B64);
            let best_h = BlockSize::ALL
                .iter()
                .map(|h| edp(Frequency::F1_2, *h))
                .fold(f64::INFINITY, f64::min);
            let best_f = Frequency::ALL
                .iter()
                .map(|fq| edp(*fq, BlockSize::B64))
                .fold(f64::INFINITY, f64::min);
            let best_hf = Frequency::ALL
                .iter()
                .flat_map(|fq| BlockSize::ALL.iter().map(move |h| (*fq, *h)))
                .map(|(fq, h)| edp(fq, h))
                .fold(f64::INFINITY, f64::min);
            let margin = 100.0 * (1.0 - best_hf / best_h.min(best_f));
            margins.push(margin);
            table.row(&[
                app.name().into(),
                m.to_string(),
                f(100.0 * (1.0 - best_h / base), 1),
                f(100.0 * (1.0 - best_f / base), 1),
                f(100.0 * (1.0 - best_hf / base), 1),
                f(margin, 1),
            ]);
        }
    }
    let (lo, hi) = margins
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &m| {
            (l.min(m), h.max(m))
        });
    let mut summary = Table::new(
        "Fig 2 summary (paper: concurrent beats individual by 3.73%-87.39%, shrinking with mappers)",
        &["metric", "value"],
    );
    summary.row(&["min concurrent gain %".into(), f(lo, 2)]);
    summary.row(&["max concurrent gain %".into(), f(hi, 2)]);
    vec![table, summary]
}

// ---------------------------------------------------------------- Fig 3 --

/// Fig 3: COLAO vs ILAO EDP for every same-size training pair.
pub fn fig3_colao_ilao(ctx: &mut Ctx) -> Vec<Table> {
    let eng = &ctx.engine;
    let idle = eng.idle_w();
    let mut table = Table::new(
        "Fig 3: ILAO/COLAO wall-EDP ratio (>1 = co-location wins; paper max 4.52x at I-I)",
        &["pair", "classes", "size", "ILAO EDP", "COLAO EDP", "gain x"],
    );
    let mut best_gain: (String, f64) = (String::new(), 0.0);
    for (i, &a) in ecost_apps::TRAINING_APPS.iter().enumerate() {
        for &b in &ecost_apps::TRAINING_APPS[i..] {
            for size in InputSize::ALL {
                let mb = size.per_node_mb();
                let il = strategies::ilao(eng, a.profile(), mb, b.profile(), mb).expect("ilao");
                let co = strategies::colao(eng, a.profile(), mb, b.profile(), mb).expect("colao");
                let gain = il.metrics.edp_wall(idle) / co.metrics.edp_wall(idle);
                if gain > best_gain.1 {
                    best_gain = (format!("{}-{} @{size}", a.name(), b.name()), gain);
                }
                table.row(&[
                    format!("{}-{}", a.name(), b.name()),
                    ClassPair::new(a.class(), b.class()).to_string(),
                    size.to_string(),
                    format!("{:.3e}", il.metrics.edp_wall(idle)),
                    format!("{:.3e}", co.metrics.edp_wall(idle)),
                    f(gain, 2),
                ]);
            }
        }
    }
    let mut summary = Table::new("Fig 3 summary", &["metric", "value"]);
    summary.row(&[
        "largest gain".into(),
        format!("{} ({:.2}x)", best_gain.0, best_gain.1),
    ]);
    vec![table, summary]
}

// ---------------------------------------------------------------- Fig 5 --

/// Fig 5: per class pair, the tuned EDP across every core partitioning; the
/// minimum over partitions ranks the pairs and derives the scheduler's
/// class priority.
pub fn fig5_priority(ctx: &mut Ctx) -> Vec<Table> {
    let eng = &ctx.engine;
    let idle = eng.idle_w();
    let size = InputSize::Medium;
    let mb = size.per_node_mb();

    // For every training pair: group its full sweep by partition.
    let mut per_class: std::collections::HashMap<ClassPair, (f64, String, (u32, u32))> =
        std::collections::HashMap::new();
    let mut partition_table = Table::new(
        "Fig 5a: best normalised EDP per core partition (selected pairs)",
        &["pair", "classes", "partition", "EDP/ILAO"],
    );
    for (i, &a) in ecost_apps::TRAINING_APPS.iter().enumerate() {
        for &b in &ecost_apps::TRAINING_APPS[i..] {
            let cp = ClassPair::new(a.class(), b.class());
            let il = strategies::ilao(eng, a.profile(), mb, b.profile(), mb)
                .expect("ilao")
                .metrics
                .edp_wall(idle);
            let sweep = eng
                .pair_sweep(a.profile(), mb, b.profile(), mb)
                .expect("sweep");
            let mut by_part: std::collections::HashMap<(u32, u32), f64> =
                std::collections::HashMap::new();
            for run in sweep.runs() {
                // Report partitions in (a, b) orientation.
                let cfg = if sweep.swapped() {
                    run.config.swapped()
                } else {
                    run.config
                };
                let part = (cfg.a.mappers, cfg.b.mappers);
                let e = run.metrics.edp_wall(idle);
                let slot = by_part.entry(part).or_insert(f64::INFINITY);
                *slot = slot.min(e);
            }
            // Emit the balanced partitions for the figure's solid line.
            for part in [(1u32, 7u32), (2, 6), (4, 4), (6, 2), (7, 1)] {
                if let Some(e) = by_part.get(&part) {
                    partition_table.row(&[
                        format!("{}-{}", a.name(), b.name()),
                        cp.to_string(),
                        format!("{}+{}", part.0, part.1),
                        f(e / il, 3),
                    ]);
                }
            }
            let (best_part, best_edp) = by_part
                .into_iter()
                .min_by(|x, y| x.1.total_cmp(&y.1))
                .expect("non-empty");
            let norm = best_edp / il;
            let entry = per_class
                .entry(cp)
                .or_insert((f64::INFINITY, String::new(), (0, 0)));
            if norm < entry.0 {
                *entry = (norm, format!("{}-{}", a.name(), b.name()), best_part);
            }
        }
    }

    type RankRow = (ClassPair, (f64, String, (u32, u32)));
    let mut ranking: Vec<RankRow> = per_class.into_iter().collect();
    ranking.sort_by(|x, y| x.1 .0.total_cmp(&y.1 .0));
    let mut rank_table = Table::new(
        "Fig 5b: class-pair ranking by lowest normalised EDP (paper: I-I first, M-X last)",
        &["rank", "classes", "best pair", "partition", "EDP/ILAO"],
    );
    let ranking_scores: Vec<(ClassPair, f64)> =
        ranking.iter().map(|(cp, (s, _, _))| (*cp, *s)).collect();
    for (r, (cp, (score, pair, part))) in ranking.iter().enumerate() {
        rank_table.row(&[
            (r + 1).to_string(),
            cp.to_string(),
            pair.clone(),
            format!("{}+{}", part.0, part.1),
            f(*score, 3),
        ]);
    }

    let policy = ecost_core::pairing::PairingPolicy::from_ranking(&ranking_scores);
    let mut policy_table = Table::new(
        "Fig 5c: derived scheduler class priority (paper: I > H/C > M)",
        &["priority", "class"],
    );
    for (i, c) in policy.priority.iter().enumerate() {
        policy_table.row(&[(i + 1).to_string(), c.to_string()]);
    }
    vec![partition_table, rank_table, policy_table]
}

// -------------------------------------------------------------- Table 1 --

/// Table 1: absolute percentage error of the LR / REPTree / MLP models on
/// the training applications, per class pair (errors back in EDP space).
pub fn table1_ape(ctx: &mut Ctx) -> Vec<Table> {
    ctx.models();
    let training = ctx.training().clone();
    let training_mlp = ctx.training_mlp().clone();
    let models = ctx.models();
    let mut table = Table::new(
        "Table 1: APE (%) on training applications (paper avg: LR 55.2, REPTree 4.38, MLP 0.77)",
        &["classes", "LR", "REPTree", "MLP"],
    );
    let mut sums = [0.0_f64; 3];
    let mut pairs: Vec<&ClassPair> = training.keys().collect();
    pairs.sort();
    for cp in &pairs {
        let ds = &training[cp];
        let ds_mlp = &training_mlp[cp];
        let ape_of = |truth_ln: &[f64], pred_ln: Vec<f64>| {
            let truth: Vec<f64> = truth_ln.iter().map(|y| y.exp()).collect();
            let pred: Vec<f64> = pred_ln.iter().map(|p| p.exp()).collect();
            ecost_ml::mean_absolute_percentage_error(&truth, &pred)
        };
        let lr = ape_of(
            &ds.y,
            models.lr.model_for(**cp).expect("model").predict_all(&ds.x),
        );
        let rt = ape_of(
            &ds.y,
            models
                .reptree
                .model_for(**cp)
                .expect("model")
                .predict_all(&ds.x),
        );
        let mlp = ape_of(
            &ds_mlp.y,
            models
                .mlp
                .model_for(**cp)
                .expect("model")
                .predict_all(&ds_mlp.x),
        );
        sums[0] += lr;
        sums[1] += rt;
        sums[2] += mlp;
        table.row(&[cp.to_string(), f(lr, 2), f(rt, 2), f(mlp, 2)]);
    }
    let n = pairs.len() as f64;
    table.row(&[
        "Average".into(),
        f(sums[0] / n, 2),
        f(sums[1] / n, 2),
        f(sums[2] / n, 2),
    ]);
    vec![table]
}

// -------------------------------------------------------------- Table 2 --

/// The test workloads evaluated in Table 2 / §7.1: pairs built from the six
/// unknown applications (optionally mixed with known ones, as the paper
/// allows).
pub fn table2_pairs() -> Vec<(App, App, InputSize)> {
    use App::*;
    use InputSize::*;
    vec![
        (Pr, Pr, Medium),  // H-H
        (Svm, Cf, Medium), // C-M
        (St, Cf, Medium),  // I-M (known I + unknown M)
        (Pr, Cf, Medium),  // H-M
        (St, Pr, Medium),  // I-H
        (Pr, Pr, Large),   // H-H at large input
        (Pr, Fp, Medium),  // H-M (unknown H + known M)
        (Cf, Cf, Medium),  // M-M
        (Km, Hmm, Medium), // C-C
        (Nb, St, Medium),  // C-I
    ]
}

/// Table 2 + §7.1: configurations chosen by each STP technique for unknown
/// pairs, and their EDP error vs the COLAO oracle.
pub fn table2_configs(ctx: &mut Ctx) -> Vec<Table> {
    ctx.models();
    let cores = ctx.tb().node.cores;
    let idle = ctx.engine.idle_w();
    let pairs = table2_pairs();

    let mut table = Table::new(
        "Table 2: configs (f,h,m per app) and EDP error vs COLAO oracle",
        &[
            "pair",
            "classes",
            "size",
            "oracle cfg",
            "LkT cfg",
            "LR cfg",
            "MLP cfg",
            "REPTree cfg",
            "LkT %",
            "LR %",
            "MLP %",
            "REPTree %",
        ],
    );
    let mut sums = [0.0_f64; 4];
    let mut worst = [0.0_f64; 4];
    for &(a, b, size) in &pairs {
        let mb = size.per_node_mb();
        let sig_a = ctx.signature(a, size);
        let sig_b = ctx.signature(b, size);
        let (models, eng) = ctx.models_and_engine();
        let oracle_run = eng
            .best_pair(a.profile(), mb, b.profile(), mb)
            .expect("oracle");
        let oracle_edp = oracle_run.metrics.edp_wall(idle);
        let mut cfgs: Vec<String> =
            vec![oracle_run.config.a.table_row() + " | " + &oracle_run.config.b.table_row()];
        let mut errs: Vec<String> = Vec::new();
        for (i, (_, stp)) in models.all().iter().enumerate() {
            let cfg = stp.choose(&sig_a, &sig_b, cores).expect("stp choice");
            let metrics = eng
                .pair_metrics(a.profile(), mb, b.profile(), mb, cfg)
                .expect("pair sim");
            let err = 100.0 * (metrics.edp_wall(idle) - oracle_edp) / oracle_edp;
            sums[i] += err.max(0.0);
            worst[i] = worst[i].max(err);
            cfgs.push(cfg.a.table_row() + " | " + &cfg.b.table_row());
            errs.push(f(err, 2));
        }
        let mut row = vec![
            format!("{}-{}", a.name(), b.name()),
            ClassPair::new(a.class(), b.class()).to_string(),
            size.to_string(),
        ];
        row.extend(cfgs);
        row.extend(errs);
        table.row(&row);
    }
    let n = pairs.len() as f64;
    let mut summary = Table::new(
        "§7.1 summary: mean/worst EDP error vs COLAO (paper: LkT 8.09, LR 20.37, MLP 3.43, REPTree 3.84)",
        &["technique", "mean error %", "worst error %"],
    );
    for (i, name) in ["LkT", "LR", "MLP", "REPTree"].iter().enumerate() {
        summary.row(&[name.to_string(), f(sums[i] / n, 2), f(worst[i], 2)]);
    }
    vec![table, summary]
}

// ---------------------------------------------------------------- Fig 8 --

/// Fig 8: training and prediction cost of the STP techniques, plus the
/// engine's own account of how much simulation backed them.
pub fn fig8_overhead(ctx: &mut Ctx) -> Vec<Table> {
    ctx.models();
    let cores = ctx.tb().node.cores;
    let pairs = table2_pairs();
    // Measure decision latency over the test pairs.
    let sigs: Vec<_> = pairs
        .iter()
        .map(|&(a, b, size)| (ctx.signature(a, size), ctx.signature(b, size)))
        .collect();
    let models = ctx.models();
    let mut predict_ms: Vec<(String, f64)> = Vec::new();
    for (name, stp) in models.all() {
        let t0 = Instant::now();
        let mut guard = 0u32;
        for (sa, sb) in &sigs {
            let cfg = stp.choose(sa, sb, cores).expect("stp choice");
            guard = guard.wrapping_add(cfg.cores());
        }
        assert!(guard > 0);
        predict_ms.push((
            name.to_string(),
            1e3 * t0.elapsed().as_secs_f64() / sigs.len() as f64,
        ));
    }
    let tt = ctx.train_times();
    let mut table = Table::new(
        "Fig 8: (a) training time, (b) prediction time per decision (paper shape: LR/REPTree ≪ LkT < MLP train; LkT fastest predict, MLP slowest)",
        &["technique", "train s", "predict ms"],
    );
    let train = [
        ("LkT", tt.lkt_s),
        ("LR", tt.lr_s),
        ("MLP", tt.mlp_s),
        ("REPTree", tt.reptree_s),
    ];
    for ((name, tr), (pname, pm)) in train.iter().zip(&predict_ms) {
        assert_eq!(name, pname);
        table.row(&[name.to_string(), f(*tr, 3), f(*pm, 3)]);
    }
    let stats = ctx.engine.stats();
    vec![
        table,
        telemetry_stats_table(
            "Fig 8 addendum: evaluation-engine stats (the offline cost every technique shares)",
            &stats,
            ctx.engine.recorder(),
        ),
    ]
}

// ---------------------------------------------------------------- Fig 9 --

/// Fig 9: EDP of the mapping policies on 1/2/4/8 nodes for WS1–WS8,
/// normalised to the brute-force upper bound.
pub fn fig9_scalability(ctx: &mut Ctx, sizes: &[usize], size: InputSize) -> Vec<Table> {
    ctx.models();
    let db = ctx.db().clone();
    let classifier = ctx.rule_classifier();
    let pairing = ecost_core::pairing::PairingPolicy::default();
    let idle = ctx.engine.idle_w();

    let mut tables = Vec::new();
    let mut ecost_gap_sum = 0.0;
    let mut ecost_gap_n = 0usize;
    for &n in sizes {
        let mut table = Table::new(
            format!("Fig 9: normalised EDP (policy/UB) on {n} node(s), inputs {size}"),
            &[
                "workload", "SM", "MNM1", "MNM2", "SNM", "CBM", "PTM", "ECoST", "UB",
            ],
        );
        for ws in WorkloadScenario::ALL {
            let workload = ws.workload(size);
            let (models, eng) = ctx.models_and_engine();
            let ecx = EcostContext {
                db: &db,
                stp: &models.reptree,
                classifier: &classifier,
                pairing: &pairing,
                noise: NOISE,
                seed: SEED,
                pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
            };
            // Run everything, then normalise by the envelope: our UB is the
            // better of two brute-force schedules (oracle-streamed, matched
            // pairs), but a heuristic schedule can occasionally edge it out;
            // the paper's UB is by construction the best schedule found, so
            // the denominator is the minimum across all runs.
            let runs: Vec<f64> = MappingPolicy::ALL
                .iter()
                .map(|policy| {
                    let p = ConfiguredPolicy::new(*policy, Some(&ecx)).expect("policy config");
                    run_policy(eng, n, &workload, &p)
                        .expect("cluster run")
                        .edp_wall(idle)
                })
                .collect();
            let ub_edp = runs.iter().copied().fold(f64::INFINITY, f64::min);
            let mut row = vec![ws.label().to_string()];
            for (policy, edp) in MappingPolicy::ALL.iter().zip(&runs) {
                let norm = edp / ub_edp;
                if *policy == MappingPolicy::Ecost {
                    ecost_gap_sum += norm - 1.0;
                    ecost_gap_n += 1;
                }
                row.push(f(norm, 2));
            }
            table.row(&row);
            eprintln!("[fig9] {n} node(s) {} done", ws.label());
        }
        tables.push(table);
    }
    let mut summary = Table::new(
        "Fig 9 summary (paper: ECoST within 4% of UB at 1 node, 8% at 8 nodes)",
        &["metric", "value"],
    );
    summary.row(&[
        "mean ECoST gap over UB %".into(),
        f(100.0 * ecost_gap_sum / ecost_gap_n.max(1) as f64, 2),
    ]);
    tables.push(summary);
    tables
}

// ------------------------------------------------------------ ablations --

/// Ablation (paper §4.2 claim): co-locating more than 2 applications
/// degrades EDP. Eight 5 GB FP-Growth jobs are pushed through one node in
/// batches of k ∈ {1, 2, 4, 8} co-located jobs; beyond 2 the combined
/// working sets exceed DRAM and spill pressure erodes the packing gain.
pub fn ablation_kway(ctx: &mut Ctx) -> Vec<Table> {
    let tb = ctx.tb().clone();
    let idle = ctx.engine.idle_w();
    let jobs_total = 8usize;
    let input_mb = InputSize::Medium.per_node_mb();
    let mut table = Table::new(
        "Ablation: k-way co-location of FP-Growth batches (paper: 2 best, >2 degrades)",
        &[
            "k per batch",
            "makespan s",
            "energy J",
            "wall EDP",
            "vs k=2",
        ],
    );
    let mut edp2 = None;
    for k in [1usize, 2, 4, 8] {
        let m = (tb.node.cores / k as u32).max(1);
        let cfg = TuningConfig {
            freq: Frequency::F2_0,
            block: BlockSize::B512,
            mappers: m,
        };
        let mut makespan = 0.0;
        let mut energy = 0.0;
        for _batch in 0..(jobs_total / k) {
            let jobs: Vec<ecost_mapreduce::JobSpec> = (0..k)
                .map(|_| {
                    ecost_mapreduce::JobSpec::from_profile(App::Fp.profile().clone(), input_mb, cfg)
                })
                .collect();
            let (outs, span) =
                ecost_mapreduce::executor::run_colocated(&tb.node, &tb.fw, jobs).expect("sim");
            makespan += span;
            energy += outs.iter().map(|o| o.metrics.energy_j).sum::<f64>();
        }
        let pm = ecost_mapreduce::PairMetrics {
            makespan_s: makespan,
            energy_j: energy,
        };
        let edp = pm.edp_wall(idle);
        if k == 2 {
            edp2 = Some(edp);
        }
        table.row(&[
            k.to_string(),
            f(makespan, 1),
            f(energy, 0),
            format!("{edp:.3e}"),
            edp2.map_or("-".into(), |e| f(edp / e, 2)),
        ]);
    }
    vec![table]
}

/// Ablation: the per-job I/O-path ceiling is what makes I-I co-location
/// profitable — remove it (cap = disk peak) and the gain should collapse.
pub fn ablation_job_cap(ctx: &mut Ctx) -> Vec<Table> {
    let mut table = Table::new(
        "Ablation: I-I COLAO gain with and without the per-job I/O ceiling",
        &["job I/O cap MB/s", "ILAO/COLAO gain x"],
    );
    let mb = InputSize::Small.per_node_mb();
    for cap in [70.0, 170.0] {
        let mut tb = ctx.tb().clone();
        tb.fw.job_io_cap_mbps = cap;
        // A modified testbed means a separate engine (its memo is keyed by
        // app/input/config, not framework parameters).
        let eng = EvalEngine::new(tb);
        let gain = strategies::colao_over_ilao_gain(&eng, App::St.profile(), App::St.profile(), mb)
            .expect("gain");
        table.row(&[f(cap, 0), f(gain, 2)]);
    }
    vec![table]
}

/// Ablation: value of the Fig 4 pairing decision tree — ECoST with the
/// class-priority tree vs. class-blind FIFO pairing vs. random pairing, on
/// the mixed workload WS8.
pub fn ablation_pairing(ctx: &mut Ctx) -> Vec<Table> {
    use ecost_core::pairing::PairingMode;
    ctx.models();
    let db = ctx.db().clone();
    let classifier = ctx.rule_classifier();
    let pairing = ecost_core::pairing::PairingPolicy::default();
    let idle = ctx.engine.idle_w();
    let workload = WorkloadScenario::Ws8.workload(InputSize::Small);

    let mut table = Table::new(
        "Ablation: partner-selection mode in the ECoST scheduler (WS8, 2 nodes)",
        &["mode", "makespan s", "wall EDP", "vs decision tree"],
    );
    let mut base = None;
    for (label, mode) in [
        ("decision-tree", PairingMode::DecisionTree),
        ("fifo", PairingMode::Fifo),
        ("random", PairingMode::Random(SEED)),
    ] {
        let (models, eng) = ctx.models_and_engine();
        let ecx = EcostContext {
            db: &db,
            stp: &models.reptree,
            classifier: &classifier,
            pairing: &pairing,
            noise: NOISE,
            seed: SEED,
            pairing_mode: mode,
        };
        let p = ConfiguredPolicy::new(MappingPolicy::Ecost, Some(&ecx)).expect("policy config");
        let run = run_policy(eng, 2, &workload, &p).expect("cluster run");
        let edp = run.edp_wall(idle);
        if base.is_none() {
            base = Some(edp);
        }
        table.row(&[
            label.into(),
            f(run.makespan_s, 1),
            format!("{edp:.3e}"),
            f(edp / base.expect("set on first row"), 3),
        ]);
    }
    vec![table]
}

/// Extension: open-queue operation. §5 describes jobs *arriving* to the
/// datacenter; this experiment drives ECoST with Poisson arrivals and
/// sweeps the head-reservation allowance, quantifying the value of the
/// paper's small-job leap-forward rule (allowance 0 = strict FIFO head).
pub fn extension_open_queue(ctx: &mut Ctx) -> Vec<Table> {
    ctx.models();
    let db = ctx.db().clone();
    let classifier = ctx.rule_classifier();
    let pairing = ecost_core::pairing::PairingPolicy::default();
    let idle = ctx.engine.idle_w();
    let workload = WorkloadScenario::Ws8.workload(InputSize::Small);
    let mut rng = ecost_sim::rng::stream(SEED, "arrivals");
    let arrivals = workload.poisson_arrivals(&mut rng, 45.0);
    let stream = OpenArrival::from_workload(&workload, 2, Some(&arrivals)).expect("arrival stream");
    let setup = FaultSetup {
        plan: ecost_sim::FaultPlan::none(),
        retry: ecost_core::engine::RetryPolicy::none(),
    };

    let mut table = Table::new(
        "Extension: open queue (Poisson arrivals, WS8, 2 nodes) vs head-reservation allowance",
        &["max head skips", "makespan s", "wall EDP", "vs allowance 2"],
    );
    let mut base = None;
    for skips in [0u32, 2, 8] {
        let (models, eng) = ctx.models_and_engine();
        let ecx = EcostContext {
            db: &db,
            stp: &models.reptree,
            classifier: &classifier,
            pairing: &pairing,
            noise: NOISE,
            seed: SEED,
            pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
        };
        let opts = OpenOptions {
            max_head_skips: skips,
            ..OpenOptions::default()
        };
        let run = run_stream(eng, 2, &stream, Decisions::Ecost(&ecx), opts, &setup)
            .expect("open-queue run")
            .run;
        let edp = run.edp_wall(idle);
        if skips == 2 {
            base = Some(edp);
        }
        table.row(&[
            skips.to_string(),
            f(run.makespan_s, 1),
            format!("{edp:.3e}"),
            base.map_or("-".into(), |b| f(edp / b, 3)),
        ]);
    }
    vec![table]
}

/// Extension: the §2.1 claim that the methodology transfers to big-core
/// servers — rerun the Fig 3 headline on a Xeon-class node.
pub fn extension_xeon(_ctx: &mut Ctx) -> Vec<Table> {
    let tb = Testbed {
        node: ecost_sim::NodeSpec::xeon_like(),
        fw: ecost_mapreduce::FrameworkSpec {
            job_io_cap_mbps: 180.0,
            ..ecost_mapreduce::FrameworkSpec::default()
        },
    };
    let eng = EvalEngine::new(tb);
    let mb = InputSize::Medium.per_node_mb();
    let mut table = Table::new(
        "Extension: COLAO gain on a Xeon-class node (paper §2.1: results transfer)",
        &["pair", "classes", "gain x"],
    );
    for (a, b) in [
        (App::St, App::St),
        (App::Wc, App::St),
        (App::Wc, App::Wc),
        (App::Fp, App::Fp),
    ] {
        let gain =
            strategies::colao_over_ilao_gain(&eng, a.profile(), b.profile(), mb).expect("gain");
        table.row(&[
            format!("{}-{}", a.name(), b.name()),
            ClassPair::new(a.class(), b.class()).to_string(),
            f(gain, 2),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------- Chaos --

/// Chaos extension: sweep fault schedules × scheduling policy and report
/// the EDP degradation curve plus every fault/degradation counter. Runs
/// against a small LkT subset (3 apps × Small inputs) so the bin is cheap
/// enough for CI. Besides the tables, returns a deterministic JSON
/// document (no wall-clock fields): CI runs the bin twice with the same
/// seed and diffs the two files byte-for-byte to pin scheduler
/// determinism under faults.
pub fn chaos(ctx: &mut Ctx) -> (Vec<Table>, String) {
    use ecost_core::engine::{EvalError, RetryPolicy};
    use ecost_core::mapping::StreamRun;
    use ecost_sim::{ClusterSpec, FaultKind, FaultPlan, FaultSpec};
    use std::fmt::Write as _;

    const NODES: usize = 2;
    let eng = &ctx.engine;
    let idle = eng.idle_w();
    let db = ecost_core::database::ConfigDatabase::build_subset(
        eng,
        &[App::Wc, App::St, App::Fp],
        &[InputSize::Small],
        NOISE,
        SEED,
    )
    .expect("subset database");
    let classifier = ecost_core::classify::RuleClassifier::fit(&db.signatures);
    let lkt = ecost_core::stp::LktStp::from_database(&db);
    let pairing = ecost_core::pairing::PairingPolicy::default();
    let ecx = EcostContext {
        db: &db,
        stp: &lkt,
        classifier: &classifier,
        pairing: &pairing,
        noise: NOISE,
        seed: SEED,
        pairing_mode: ecost_core::pairing::PairingMode::DecisionTree,
    };
    let mut workload = ecost_apps::Workload {
        name: "chaos-mix".into(),
        jobs: vec![
            (App::Wc, InputSize::Small),
            (App::St, InputSize::Small),
            (App::Fp, InputSize::Small),
            (App::St, InputSize::Small),
            (App::Wc, InputSize::Small),
            (App::Fp, InputSize::Small),
        ],
    };
    if ctx.quick {
        workload.jobs.truncate(4);
    }
    let stream = OpenArrival::from_workload(&workload, NODES, None).expect("chaos stream");
    let retry = RetryPolicy::default();
    let run = |decisions: Decisions<'_, '_>, setup: &FaultSetup| {
        run_stream(
            eng,
            NODES,
            &stream,
            decisions,
            OpenOptions::default(),
            setup,
        )
    };

    // The healthy ECoST run fixes the horizon fault schedules are drawn in.
    let healthy = run(
        Decisions::Ecost(&ecx),
        &FaultSetup {
            plan: FaultPlan::none(),
            retry,
        },
    )
    .expect("healthy ECoST run");
    let horizon = healthy.run.makespan_s;
    let cluster = ClusterSpec::atom_cluster(NODES);

    let schedules: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        (
            "one-crash",
            FaultPlan::none().with_event(0.2 * horizon, 1, FaultKind::NodeCrash),
        ),
        (
            "sampled-0.5",
            FaultPlan::sample(&cluster, &FaultSpec::scaled(0.5, horizon), SEED),
        ),
        (
            "sampled-1.0",
            FaultPlan::sample(&cluster, &FaultSpec::scaled(1.0, horizon), SEED),
        ),
    ];

    let mut table = Table::new(
        "Chaos: fault sweep on 2 nodes (LkT subset) — EDP degradation and counters",
        &[
            "policy",
            "faults",
            "outcome",
            "makespan s",
            "wall EDP",
            "vs healthy",
            "crash",
            "requeue",
            "slow",
            "strag",
            "spec",
            "solo fb",
            "cfg fb",
            "retry",
        ],
    );
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"nodes\": {NODES},");
    let _ = writeln!(json, "  \"jobs\": {},", workload.jobs.len());
    let _ = writeln!(json, "  \"horizon_s\": {horizon:.6e},");
    json.push_str("  \"runs\": [\n");

    // Healthy wall EDP per policy, filled by the "none" schedule (first).
    let mut healthy_edp: [Option<f64>; 2] = [None, None];
    let total = schedules.len() * 2;
    let mut emitted = 0usize;
    for (label, plan) in &schedules {
        for (pi, policy) in ["ecost", "untuned"].iter().enumerate() {
            let setup = FaultSetup {
                plan: plan.clone(),
                retry,
            };
            let decisions = if pi == 0 {
                Decisions::Ecost(&ecx)
            } else {
                Decisions::Untuned
            };
            let result: Result<StreamRun, EvalError> = run(decisions, &setup);
            emitted += 1;
            let comma = if emitted < total { "," } else { "" };
            match result {
                Ok(fr) => {
                    let edp = fr.run.edp_wall(idle);
                    if *label == "none" {
                        healthy_edp[pi] = Some(edp);
                    }
                    let rel = healthy_edp[pi].map(|b| edp / b);
                    let r = &fr.report;
                    table.row(&[
                        policy.to_string(),
                        (*label).to_string(),
                        "ok".into(),
                        f(fr.run.makespan_s, 1),
                        format!("{edp:.3e}"),
                        rel.map_or("-".into(), |v| f(v, 3)),
                        r.crashes.to_string(),
                        r.requeued_jobs.to_string(),
                        r.slowdowns.to_string(),
                        r.stragglers.to_string(),
                        r.speculations.to_string(),
                        r.solo_fallbacks.to_string(),
                        r.config_fallbacks.to_string(),
                        r.retries.to_string(),
                    ]);
                    let _ = writeln!(
                        json,
                        "    {{\"policy\": \"{policy}\", \"faults\": \"{label}\", \
                         \"outcome\": \"ok\", \"makespan_s\": {:.6e}, \"edp_wall\": {:.6e}, \
                         \"crashes\": {}, \"requeued\": {}, \"slowdowns\": {}, \
                         \"stragglers\": {}, \"speculations\": {}, \"solo_fallbacks\": {}, \
                         \"config_fallbacks\": {}, \"retries\": {}, \
                         \"retry_backoff_s\": {:.6e}}}{comma}",
                        fr.run.makespan_s,
                        edp,
                        r.crashes,
                        r.requeued_jobs,
                        r.slowdowns,
                        r.stragglers,
                        r.speculations,
                        r.solo_fallbacks,
                        r.config_fallbacks,
                        r.retries,
                        r.retry_backoff_s,
                    );
                }
                Err(e) => {
                    let mut row = vec![policy.to_string(), (*label).to_string(), "failed".into()];
                    row.extend(std::iter::repeat_n("-".to_string(), 11));
                    table.row(&row);
                    let msg = e.to_string().replace('"', "\\\"");
                    let _ = writeln!(
                        json,
                        "    {{\"policy\": \"{policy}\", \"faults\": \"{label}\", \
                         \"outcome\": \"failed\", \"error\": \"{msg}\"}}{comma}"
                    );
                }
            }
        }
    }
    json.push_str("  ]\n}\n");
    let stats = telemetry_stats_table(
        "Chaos: engine counters after the sweep",
        &eng.stats(),
        eng.recorder(),
    );
    (vec![table, stats], json)
}
