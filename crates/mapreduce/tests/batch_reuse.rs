//! A `BatchScratch` keeps the rate solutions of recurring job mixes
//! across the windows it runs (the reuse table), and answering a mix from
//! that table must be invisible in the results: every lane of every
//! window is bit-identical to the same point run alone on a fresh
//! simulator. This drives the table the way a pair sweep does — many
//! consecutive windows of one pair's configurations through one scratch,
//! on the detected backend and the scalar one.

use ecost_apps::{App, InputSize};
use ecost_mapreduce::executor::NodeSim;
use ecost_mapreduce::{
    run_batch_to_completion, BatchScratch, FrameworkSpec, JobSpec, PairConfig, MAX_BATCH_LANES,
};
use ecost_sim::{NodeSpec, SimdBackend};

/// Everything a finished simulator reports, as bit patterns: clock,
/// metered energy, and each outcome's metrics, usage and timeline.
fn outcome_bits(sim: &NodeSim) -> Vec<u64> {
    let mut v = vec![sim.now().to_bits(), sim.energy_j().to_bits()];
    for o in sim.finished() {
        let (m, u) = (&o.metrics, &o.usage);
        v.push(o.id.0);
        v.extend(
            [
                m.exec_time_s,
                m.energy_j,
                m.avg_power_w,
                u.busy_core_s,
                u.alloc_core_s,
                u.read_mb,
                u.write_mb,
                u.nic_mb,
                u.mem_mb,
                u.energy_j,
                u.stall_weighted_s,
                u.peak_footprint_mb,
            ]
            .map(f64::to_bits),
        );
        v.extend(o.timeline.iter().map(|(_, t)| t.to_bits()));
    }
    v
}

fn submit(sim: &mut NodeSim, pc: PairConfig) {
    sim.submit(JobSpec::new(App::Cf, InputSize::Small, pc.a))
        .expect("submit a");
    sim.submit(JobSpec::new(App::Fp, InputSize::Small, pc.b))
        .expect("submit b");
}

#[test]
fn reused_rate_solutions_match_fresh_runs_across_windows() {
    let node = NodeSpec::atom_c2758();
    let fw = FrameworkSpec::default();
    // The first three core partitions of the Cf × Fp sweep: 1 200 points,
    // 75 full windows, in sweep order.
    let points: Vec<PairConfig> = PairConfig::space(node.cores)
        .into_iter()
        .take(1200)
        .collect();
    let fresh: Vec<Vec<u64>> = points
        .iter()
        .map(|&pc| {
            let mut sim = NodeSim::new(node.clone(), fw.clone());
            submit(&mut sim, pc);
            sim.run_to_completion().expect("fresh run");
            outcome_bits(&sim)
        })
        .collect();
    for backend in [SimdBackend::detect(), SimdBackend::Scalar] {
        let mut scratch = BatchScratch::new(backend);
        let mut sims: Vec<NodeSim> = (0..MAX_BATCH_LANES)
            .map(|_| NodeSim::new(node.clone(), fw.clone()))
            .collect();
        let (mut solved, mut reused) = (0u64, 0u64);
        for (w, window) in points.chunks(MAX_BATCH_LANES).enumerate() {
            let lanes = &mut sims[..window.len()];
            for (sim, &pc) in lanes.iter_mut().zip(window) {
                sim.reset();
                submit(sim, pc);
            }
            run_batch_to_completion(lanes, &mut scratch).expect("batched window");
            let p = scratch.take_phases();
            solved += p.solved;
            reused += p.reused;
            for (l, sim) in lanes.iter().enumerate() {
                let i = w * MAX_BATCH_LANES + l;
                assert_eq!(
                    outcome_bits(sim),
                    fresh[i],
                    "{backend:?}: point {i} ({:?})",
                    points[i]
                );
            }
        }
        assert!(
            reused > 0 && solved > 0,
            "{backend:?}: {solved} solved, {reused} reused"
        );
    }
}
