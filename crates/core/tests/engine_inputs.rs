//! Input sizes at the engine boundary: every public solo and pair entry
//! point answers a NaN, infinite, zero or negative size with a typed
//! `EvalError::InvalidInput` before it keys a memo or builds a job — no
//! panic, no simulation, no late simulator error.

use ecost_apps::{App, InputSize};
use ecost_core::engine::{EvalEngine, EvalError};
use ecost_mapreduce::{PairConfig, TuningConfig};
use proptest::prelude::*;

/// A size no entry point may accept.
fn bad_size() -> impl Strategy<Value = f64> {
    (0u8..6, -1e6f64..-1e-9).prop_map(|(kind, negative)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => negative,
    })
}

fn is_invalid_input<T: std::fmt::Debug>(r: Result<T, EvalError>) -> bool {
    matches!(r, Err(EvalError::InvalidInput { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bad_sizes_are_typed_errors_at_every_entry_point(bad in bad_size(), bad_first in 0u8..2) {
        let eng = EvalEngine::atom();
        let (p, q) = (App::Wc.profile(), App::St.profile());
        let good = InputSize::Small.per_node_mb();
        let cfg = TuningConfig::hadoop_default(4);
        let pc = PairConfig { a: cfg, b: cfg };
        let (a_mb, b_mb) = if bad_first == 0 { (bad, good) } else { (good, bad) };

        prop_assert!(is_invalid_input(eng.solo_outcome(p, bad, cfg)), "solo_outcome({bad})");
        prop_assert!(is_invalid_input(eng.solo_metrics(p, bad, cfg)));
        prop_assert!(is_invalid_input(eng.sweep_solo(p, bad)));
        prop_assert!(is_invalid_input(eng.best_solo(p, bad)));
        prop_assert!(is_invalid_input(eng.pair_metrics(p, a_mb, q, b_mb, pc)));
        prop_assert!(is_invalid_input(eng.pair_sweep(p, a_mb, q, b_mb)));
        prop_assert!(is_invalid_input(eng.best_pair(p, a_mb, q, b_mb)));
        prop_assert!(is_invalid_input(eng.best_pair_with_partition(p, a_mb, q, b_mb, (2, 2))));

        // Rejected before the memo: nothing was looked up or simulated.
        let stats = eng.stats();
        prop_assert_eq!(stats.hits + stats.misses, 0);
        prop_assert_eq!(stats.runs_simulated, 0);
    }
}
