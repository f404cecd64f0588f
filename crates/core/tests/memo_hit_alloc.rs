//! A warm `best_pair` memo hit performs **zero heap allocations**: the
//! winners table stores each swept pair's wall-EDP winner inline, so a hit
//! is a shard probe and a 32-byte copy, in either query orientation, and
//! it stays one after the pair's sweep was evicted. The tuning service
//! answers a warm pair request through that hit, so a warm
//! `TuningService::decide` allocates nothing either. A counting
//! `#[global_allocator]` wraps the system allocator; the one test in this
//! binary (kept alone so no sibling test allocates concurrently) sweeps a
//! pair once, then asserts that the following hits left the allocation
//! counter where it was.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecost_apps::{App, InputSize};
use ecost_core::engine::EvalEngine;
use ecost_core::features::Testbed;
use ecost_core::{
    CacheBudget, DecidedConfig, DecisionTier, ServiceConfig, TuningRequest, TuningService,
};
use ecost_sim::ServiceFaultSpec;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves or grows is an allocation for our purposes.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn warm_best_pair_hit_is_allocation_free() {
    let eng = EvalEngine::atom();
    let (wc, st) = (App::Wc.profile(), App::St.profile());
    let mb = InputSize::Small.per_node_mb();

    // The miss: simulates and stores the sweep (allocation is allowed).
    let cold = eng.best_pair(wc, mb, st, mb).expect("pair sweep");

    let before = ALLOCS.load(Ordering::SeqCst);
    let fwd = eng.best_pair(wc, mb, st, mb).expect("memo hit");
    let rev = eng.best_pair(st, mb, wc, mb).expect("memo hit, swapped");
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "two warm best_pair hits allocated {} times",
        after - before
    );

    // They really were hits, answered in each query's orientation.
    let s = eng.stats();
    assert_eq!((s.misses, s.hits), (1, 2));
    assert_eq!(fwd.config, cold.config);
    assert_eq!(rev.config, cold.config.swapped());
    assert_eq!(fwd.metrics, cold.metrics);
    assert_eq!(rev.metrics, cold.metrics);

    // Warm service decisions: the deployed defaults (slot limiter,
    // breaker, deadlines), requests ten simulated seconds apart so each
    // finds a free worker and is granted a full sweep, answered from the
    // winners table in either orientation.
    let svc = TuningService::new(&eng, ServiceConfig::default(), ServiceFaultSpec::healthy(7))
        .expect("service");
    // Even sequence numbers ask for (wc, st), odd ones for (st, wc).
    let request = |seq: u64| {
        let [a, b] = [[App::Wc, App::St], [App::St, App::Wc]][seq as usize % 2];
        TuningRequest::pair(seq, seq as f64 * 10.0, 60.0, (a, mb), (b, mb))
    };
    svc.decide(&request(0)).expect("first decision");
    let s0 = eng.stats();
    let mut decided = Vec::with_capacity(8);
    let before = ALLOCS.load(Ordering::SeqCst);
    for seq in 1..=8 {
        decided.push(svc.decide(&request(seq)).expect("warm decision"));
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "eight warm decide hits allocated {} times",
        after - before
    );
    let s1 = eng.stats();
    assert_eq!((s1.hits - s0.hits, s1.misses - s0.misses), (8, 0));
    for (seq, d) in (1u64..).zip(&decided) {
        assert_eq!(d.tier, DecisionTier::FullSweep);
        let want = [cold.config, cold.config.swapped()][seq as usize % 2];
        assert_eq!(d.config, DecidedConfig::Pair(want));
    }

    // After eviction: a 2-core node (400-point sweeps) under a 16-sweep
    // budget, one slot per shard, so 64 further keys evict the pair's
    // sweep; its winner stays in the unbounded winners table.
    let tb = Testbed {
        node: ecost_sim::NodeSpec {
            cores: 2,
            ..ecost_sim::NodeSpec::atom_c2758()
        },
        ..Testbed::atom()
    };
    let eng = EvalEngine::new(tb).with_cache_budget(CacheBudget {
        sweeps: Some(16),
        ..CacheBudget::unbounded()
    });
    let cold = eng.best_pair(wc, mb, st, mb).expect("pair sweep");
    for i in 1..=64 {
        eng.pair_sweep(wc, mb + f64::from(i), st, mb)
            .expect("evicting sweep");
    }
    let s0 = eng.stats();
    let before = ALLOCS.load(Ordering::SeqCst);
    let fwd = eng.best_pair(wc, mb, st, mb).expect("winner hit");
    let rev = eng.best_pair(st, mb, wc, mb).expect("winner hit, swapped");
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "two winner hits after eviction allocated {} times",
        after - before
    );
    let s1 = eng.stats();
    assert_eq!((s1.hits - s0.hits, s1.misses - s0.misses), (2, 0));
    assert_eq!(s1.runs_simulated, s0.runs_simulated);
    assert_eq!(fwd.config, cold.config);
    assert_eq!(rev.config, cold.config.swapped());
    assert_eq!(fwd.metrics, cold.metrics);
    assert_eq!(rev.metrics, cold.metrics);
    // The sweep really was gone: asking for it re-sweeps.
    eng.pair_sweep(wc, mb, st, mb).expect("re-sweep");
    assert_eq!(eng.stats().misses, s1.misses + 1);
}
