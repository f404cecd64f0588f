//! The benchmark's inputs: pinned on the default seed, different on
//! another, and shaped as the workloads promise.

use ecost_e2ebench::inputs::{
    pair_keys, request_shape, requests, requests_digest, trace, trace_digest, trace_shape,
    zipf_quotas, DEFAULT_SEED, TRACE_LKT_ARRIVALS, TRACE_REPTREE_ARRIVALS,
};

/// Digests of the default seed's inputs. A change here changes what every
/// workload measures, so it needs a new baseline.
const LKT_TRACE: u64 = 0xe8d7_ae60_ea50_b3d4;
const REPTREE_TRACE: u64 = 0xd9b7_f993_44f5_bef9;
const REQUESTS: u64 = 0x8a31_9c8a_7b6b_2c24;

#[test]
fn default_seed_inputs_are_pinned() {
    let lkt = trace(DEFAULT_SEED, &trace_shape(TRACE_LKT_ARRIVALS));
    let rep = trace(DEFAULT_SEED, &trace_shape(TRACE_REPTREE_ARRIVALS));
    let reqs = requests(DEFAULT_SEED, &request_shape());
    assert_eq!(
        (
            trace_digest(&lkt),
            trace_digest(&rep),
            requests_digest(&reqs)
        ),
        (LKT_TRACE, REPTREE_TRACE, REQUESTS),
        "{:#x} {:#x} {:#x}",
        trace_digest(&lkt),
        trace_digest(&rep),
        requests_digest(&reqs)
    );
}

#[test]
fn another_seed_gives_other_inputs() {
    let shape = trace_shape(TRACE_REPTREE_ARRIVALS);
    let a = trace(DEFAULT_SEED, &shape);
    let b = trace(DEFAULT_SEED + 1, &shape);
    assert_ne!(trace_digest(&a), trace_digest(&b));
    assert_eq!(trace_digest(&a), trace_digest(&trace(DEFAULT_SEED, &shape)));
    let ra = requests(DEFAULT_SEED, &request_shape());
    let rb = requests(DEFAULT_SEED + 1, &request_shape());
    assert_ne!(requests_digest(&ra), requests_digest(&rb));
}

#[test]
fn traces_are_sorted_bounded_and_mix_every_app() {
    let shape = trace_shape(TRACE_LKT_ARRIVALS);
    let t = trace(7, &shape);
    assert_eq!(t.len(), TRACE_LKT_ARRIVALS);
    assert!(t[0].at_s > 0.0);
    assert!(t.windows(2).all(|w| w[0].at_s <= w[1].at_s));
    let (lo, hi) = shape.size_mb;
    assert!(t.iter().all(|a| a.input_mb >= lo && a.input_mb <= hi));
    let mut apps: Vec<_> = t.iter().map(|a| a.app).collect();
    apps.sort();
    apps.dedup();
    assert_eq!(apps.len(), 11);
    // The rate cycle averages 620 arrivals per 250 s.
    let per_s = t.len() as f64 / t[t.len() - 1].at_s;
    assert!((per_s - 2.48).abs() < 0.05, "{per_s}");
}

#[test]
fn requests_use_the_198_pair_keys_by_fixed_quotas() {
    let keys = pair_keys();
    assert_eq!(keys.len(), 198);
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 198);
    let q = zipf_quotas(400, 198, 1.3);
    assert_eq!(q.iter().sum::<usize>(), 400);
    assert!(q.windows(2).all(|w| w[0] >= w[1]));
    let reqs = requests(3, &request_shape());
    assert_eq!(reqs.len(), 400);
    assert!(reqs.windows(2).all(|w| w[0].submit_t_s < w[1].submit_t_s));
}
