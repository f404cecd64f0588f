//! The cache budget changes *retention*, never *values*.
//!
//! A capacity-bounded engine may evict memo entries and re-simulate them
//! on the next probe — that shows up in the hit/miss/eviction counters,
//! and nowhere else. Every metric a bounded engine returns must be
//! bit-identical to what an unbounded engine returns for the same query,
//! because the simulator itself is deterministic and eviction only decides
//! *whether* a query recomputes, not *what* it computes.

use ecost_apps::{App, InputSize};
use ecost_core::engine::EvalEngine;
use ecost_core::CacheBudget;
use ecost_mapreduce::{BlockSize, PairConfig, TuningConfig};
use ecost_sim::Frequency;
use proptest::prelude::*;

const APPS: [App; 3] = [App::Wc, App::St, App::Fp];

fn cfg_from(f: usize, h: usize, m: u32) -> TuningConfig {
    TuningConfig {
        freq: Frequency::ALL[f % Frequency::ALL.len()],
        block: BlockSize::ALL[h % BlockSize::ALL.len()],
        mappers: m,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any interleaving of solo queries against a tightly budgeted engine
    /// (16 entries — guaranteed thrashing across 36 distinct keys) returns
    /// bit-identical results to an unbounded engine, while the budget
    /// itself holds.
    #[test]
    fn bounded_solo_results_are_bit_identical_to_unbounded(
        seq in proptest::collection::vec(
            (0usize..3, 0u8..12, 0usize..4, 0usize..4, 1u32..=8),
            8..24,
        ),
    ) {
        let unbounded = EvalEngine::atom();
        let bounded = EvalEngine::atom().with_cache_budget(CacheBudget {
            solo: Some(16),
            ..CacheBudget::unbounded()
        });
        for (ai, mboff, f, h, m) in seq {
            let p = APPS[ai].profile();
            let mb = 100.0 + f64::from(mboff) * 37.5;
            let cfg = cfg_from(f, h, m);
            let a = unbounded.solo_metrics(p, mb, cfg).expect("unbounded solo");
            let b = bounded.solo_metrics(p, mb, cfg).expect("bounded solo");
            prop_assert_eq!(a.exec_time_s.to_bits(), b.exec_time_s.to_bits());
            prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            prop_assert_eq!(a.avg_power_w.to_bits(), b.avg_power_w.to_bits());
            prop_assert!(bounded.cached_solo_runs() <= 16);
        }
        // Retention differs even though values never do.
        prop_assert_eq!(bounded.stats().evictions >= 1, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A solo sweep stores all its misses at once, after solving them, in
    /// sweep order. Under a thrashing 16-entry budget the CLOCK ring
    /// evicts during those inserts, even entries the same sweep just
    /// stored; every returned metric must still be bit-identical to an
    /// unbounded engine, the budget must hold, and the eviction counter
    /// must conserve entries (`resident + evicted == inserted`, where the
    /// sweep inserts exactly its misses).
    #[test]
    fn bounded_bulk_insert_sweep_is_bit_identical_to_unbounded(seed in 0usize..3) {
        let p = APPS[seed].profile();
        let mb = InputSize::Small.per_node_mb();
        let unbounded = EvalEngine::atom();
        let bounded = EvalEngine::atom().with_cache_budget(CacheBudget {
            solo: Some(16),
            ..CacheBudget::unbounded()
        });
        // Both engines run the batch-resident sweep (the engine default):
        // the bounded one exercises CLOCK eviction × a sweep's inserts.
        for pass in 0..2 {
            let a = unbounded.sweep_solo(p, mb).expect("unbounded sweep");
            let b = bounded.sweep_solo(p, mb).expect("bounded sweep");
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.config, y.config);
                prop_assert_eq!(
                    x.metrics.exec_time_s.to_bits(),
                    y.metrics.exec_time_s.to_bits(),
                    "pass {}: exec time drifted under eviction", pass
                );
                prop_assert_eq!(x.metrics.energy_j.to_bits(), y.metrics.energy_j.to_bits());
            }
            prop_assert!(bounded.cached_solo_runs() <= 16);
        }
        let s = bounded.stats();
        // 160 distinct keys through 16 slots thrash on every pass.
        prop_assert!(s.evictions > 0);
        // Entry conservation: every miss inserted exactly one entry, and
        // each is either still resident or counted evicted.
        prop_assert_eq!(bounded.cached_solo_runs() as u64 + s.evictions, s.misses);
        // The unbounded engine answered pass 2 entirely from memo.
        prop_assert!(s.misses > unbounded.stats().misses);
    }
}

/// Memo traffic of solo sweeps on a bounded engine, pinned. A sweep
/// probes its points in sweep order and stores its misses in sweep order
/// once they are solved; which points survive the CLOCK ring then decides
/// which later point queries hit. Two passes over three apps × sizes,
/// each sweep followed by point queries at every ninth configuration,
/// through a 32-entry budget (two slots per shard): the counts below
/// move if the sweep's probe or store order does.
#[test]
fn bounded_solo_sweeps_keep_their_memo_traffic() {
    let eng = EvalEngine::atom().with_cache_budget(CacheBudget::entries(32));
    let grid = [
        (App::Wc, InputSize::Small),
        (App::St, InputSize::Small),
        (App::Wc, InputSize::Medium),
    ];
    let points: Vec<TuningConfig> = TuningConfig::space(8).step_by(9).collect();
    for _pass in 0..2 {
        for &(app, size) in &grid {
            let mb = size.per_node_mb();
            eng.sweep_solo(app.profile(), mb).expect("bounded sweep");
            for &cfg in &points {
                eng.solo_metrics(app.profile(), mb, cfg)
                    .expect("bounded point");
            }
        }
    }
    let s = eng.stats();
    assert_eq!(
        (s.hits, s.misses, s.evictions, eng.cached_solo_runs()),
        (20, 1048, 1016, 32),
        "{s}"
    );
    assert_eq!(s.runs_simulated, s.misses);
}

/// Pair-point queries through a thrashing pair-point cache: evicted points
/// recompute to exactly the same metrics, and re-querying the full set a
/// second time still matches the unbounded engine bit for bit.
#[test]
fn bounded_pair_points_are_bit_identical_to_unbounded() {
    let mb = InputSize::Small.per_node_mb();
    let unbounded = EvalEngine::atom();
    let bounded = EvalEngine::atom().with_cache_budget(CacheBudget {
        pair_points: Some(16),
        ..CacheBudget::unbounded()
    });

    let points: Vec<(App, App, PairConfig)> = (0..24)
        .map(|i| {
            let a = APPS[i % 3];
            let b = APPS[(i / 3) % 3];
            let cfg = PairConfig {
                a: cfg_from(i, i / 2, 1 + (i as u32 % 4)),
                b: cfg_from(i + 1, i / 3, 1 + ((i as u32 + 2) % 4)),
            };
            (a, b, cfg)
        })
        .collect();

    for pass in 0..2 {
        for (a, b, cfg) in &points {
            let u = unbounded
                .pair_metrics(a.profile(), mb, b.profile(), mb, *cfg)
                .expect("unbounded pair");
            let v = bounded
                .pair_metrics(a.profile(), mb, b.profile(), mb, *cfg)
                .expect("bounded pair");
            assert_eq!(
                u.makespan_s.to_bits(),
                v.makespan_s.to_bits(),
                "pass {pass}: makespan drifted under eviction"
            );
            assert_eq!(u.energy_j.to_bits(), v.energy_j.to_bits());
            assert!(bounded.cached_pair_points() <= 16);
        }
    }
    let s = bounded.stats();
    assert!(s.evictions > 0, "24 keys through 16 slots must evict");
    // The unbounded engine answered pass 2 from memo alone; the bounded
    // one re-simulated what it evicted. Values stayed identical anyway.
    assert!(s.runs_simulated > unbounded.stats().runs_simulated);
}
