//! Property-based tests of the AMVA solver and the hardware curves — the
//! invariants every downstream performance number silently relies on —
//! and the bit-identity of the fixed-shape AMVA kernel to the
//! runtime-shape loop.

use ecost_sim::{amva, AmvaScratch, ClassDemand, FixedClasses, FixedSolution, NodeSpec, SimError};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = ClassDemand> {
    (1.0f64..8.0, 0.01f64..20.0, 0.0f64..10.0, 0.0f64..5.0).prop_map(|(n, z, d0, d1)| ClassDemand {
        population: n.floor(),
        think_time_s: z,
        demands_s: vec![d0, d1],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Throughput obeys both classical bounds: X ≤ N/(Z+ΣD) (no contention)
    /// and station utilisation never exceeds capacity.
    #[test]
    fn throughput_and_utilisation_bounds(classes in prop::collection::vec(arb_class(), 1..5)) {
        let sol = amva::solve(&classes, 2).expect("solvable");
        for (j, c) in classes.iter().enumerate() {
            let no_contention = c.population / (c.think_time_s + c.demands_s.iter().sum::<f64>());
            prop_assert!(sol.throughput[j] <= no_contention * (1.0 + 1e-6),
                "class {j}: X {} > bound {no_contention}", sol.throughput[j]);
            prop_assert!(sol.throughput[j] >= 0.0);
        }
        for u in &sol.station_util {
            prop_assert!((0.0..=1.0 + 1e-9).contains(u));
        }
    }

    /// Adding a competitor never speeds up an existing class.
    #[test]
    fn contention_is_monotone(a in arb_class(), b in arb_class()) {
        let alone = amva::solve(std::slice::from_ref(&a), 2).expect("solvable");
        let shared = amva::solve(&[a.clone(), b], 2).expect("solvable");
        prop_assert!(shared.throughput[0] <= alone.throughput[0] * (1.0 + 1e-6));
    }

    /// Queue lengths are non-negative and bounded by the population.
    #[test]
    fn queues_are_physical(classes in prop::collection::vec(arb_class(), 1..4)) {
        let sol = amva::solve(&classes, 2).expect("solvable");
        for (j, c) in classes.iter().enumerate() {
            let q_total: f64 = sol.queue[j].iter().sum();
            prop_assert!(q_total >= -1e-9);
            prop_assert!(q_total <= c.population * (1.0 + 1e-6),
                "class {j}: queue {q_total} > population {}", c.population);
        }
    }

    /// Scaling all times by a constant scales throughput inversely
    /// (the solver is unit-consistent).
    #[test]
    fn time_scale_invariance(c in arb_class(), k in 0.1f64..10.0) {
        let base = amva::solve(std::slice::from_ref(&c), 2).expect("solvable");
        let scaled_class = ClassDemand {
            population: c.population,
            think_time_s: c.think_time_s * k,
            demands_s: c.demands_s.iter().map(|d| d * k).collect(),
        };
        let scaled = amva::solve(&[scaled_class], 2).expect("solvable");
        let rel = (scaled.throughput[0] * k - base.throughput[0]).abs()
            / base.throughput[0].max(1e-12);
        prop_assert!(rel < 1e-4, "rel {rel}");
    }

    /// The disk curves are monotone in their arguments.
    #[test]
    fn disk_curves_monotone(k1 in 1.0f64..32.0, k2 in 1.0f64..32.0, e1 in 1.0f64..2048.0, e2 in 1.0f64..2048.0) {
        let disk = NodeSpec::atom_c2758().disk;
        let (klo, khi) = if k1 < k2 { (k1, k2) } else { (k2, k1) };
        prop_assert!(disk.aggregate_bw(khi) <= disk.aggregate_bw(klo) + 1e-9);
        let (elo, ehi) = if e1 < e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(disk.stream_rate(ehi) >= disk.stream_rate(elo) - 1e-9);
        prop_assert!(disk.stream_rate(ehi) <= disk.stream_cap_mbps);
    }
}

/// Population draw for the kernel bit-identity test: zero, fractional
/// below one, integer slot counts, fractional tail waves, or huge
/// (1e13–1e18), where queue lengths outgrow the tolerance's resolution
/// and the fixed point fails to converge.
fn population(kind: u8, u: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => u,
        2 => (1.0 + 11.0 * u).floor(),
        3 => 1.0 + 11.0 * u,
        _ => 10f64.powf(13.0 + 5.0 * u),
    }
}

/// One class over `stations` shared stations in the executor's layout
/// (I/O paths first, the NIC last). Each demand is zero a quarter of the
/// time; think time is zero a fifth of the time, so some drawn classes
/// are invalid (customers but no demand) and both kernels must reject
/// them identically.
fn arb_kernel_class(stations: usize) -> impl Strategy<Value = ClassDemand> {
    (
        (0u8..5, 0.0f64..1.0),
        (0u8..5, 0.0f64..20.0),
        prop::collection::vec((0u8..4, 1e-4f64..5.0), stations),
    )
        .prop_map(|((kind, u), (zk, z), demands)| ClassDemand {
            population: population(kind, u),
            think_time_s: if zk == 0 { 0.0 } else { z },
            demands_s: demands
                .into_iter()
                .map(|(dk, d)| if dk == 0 { 0.0 } else { d })
                .collect(),
        })
}

/// Everything a solve exposes, as bit patterns.
#[derive(Debug, PartialEq)]
enum Observed {
    Solved {
        throughput: Vec<u64>,
        queue: Vec<u64>,
        station_util: Vec<u64>,
        station_queue: Vec<u64>,
        iterations: usize,
    },
    NoConvergence {
        iterations: usize,
        residual: u64,
    },
    Invalid(SimError),
}

fn failed(e: SimError) -> Observed {
    match e {
        SimError::NoConvergence {
            iterations,
            residual,
        } => Observed::NoConvergence {
            iterations,
            residual: residual.to_bits(),
        },
        e => Observed::Invalid(e),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Read a scratch back through its public accessors.
fn observe_scratch(s: &AmvaScratch, r: Result<(), SimError>, nc: usize, st: usize) -> Observed {
    match r {
        Ok(()) => Observed::Solved {
            throughput: bits(s.throughput()),
            queue: (0..nc)
                .flat_map(|j| (0..st).map(move |k| (j, k)))
                .map(|(j, k)| s.queue(j, k).to_bits())
                .collect(),
            station_util: bits(s.station_util()),
            station_queue: bits(s.station_queue()),
            iterations: s.iterations(),
        },
        Err(e) => failed(e),
    }
}

fn observe_fixed<const NC: usize, const S: usize>(
    r: Result<FixedSolution<NC, S>, SimError>,
) -> Observed {
    match r {
        Ok(sol) => Observed::Solved {
            throughput: bits(&sol.throughput),
            queue: sol.queue.iter().flat_map(|row| bits(row)).collect(),
            station_util: bits(&sol.station_util),
            station_queue: bits(&sol.station_queue),
            iterations: sol.iterations,
        },
        Err(e) => failed(e),
    }
}

/// The by-value fixed-shape entry point on the same problem.
fn solve_by_value(classes: &[ClassDemand]) -> Observed {
    fn pack<const NC: usize, const S: usize>(classes: &[ClassDemand]) -> FixedClasses<NC, S> {
        let mut p = FixedClasses::zeroed();
        for (j, c) in classes.iter().enumerate() {
            p.population[j] = c.population;
            p.think_time_s[j] = c.think_time_s;
            p.demands_s[j].copy_from_slice(&c.demands_s);
        }
        p
    }
    match classes.len() {
        1 => observe_fixed(pack::<1, 2>(classes).solve()),
        _ => observe_fixed(pack::<2, 3>(classes).solve()),
    }
}

/// Assert that every kernel entry point agrees to the bit on `classes`
/// (one job over 2 stations, or two over 3): the runtime-shape loop (the
/// oracle), the dispatching scalar solve and the by-value fixed kernel.
fn assert_kernels_agree(classes: &[ClassDemand]) -> Observed {
    let (nc, st) = (classes.len(), classes.len() + 1);
    let mut oracle = AmvaScratch::new();
    let r = oracle.solve_runtime_shape(classes, st);
    let want = observe_scratch(&oracle, r, nc, st);
    let mut fixed = AmvaScratch::new();
    let r = fixed.solve(classes, st);
    assert_eq!(observe_scratch(&fixed, r, nc, st), want, "{classes:?}");
    assert_eq!(solve_by_value(classes), want, "{classes:?}");
    want
}

#[test]
fn non_convergent_inputs_fail_identically_in_both_kernels() {
    // Populations so large that queue lengths carry no digits below the
    // tolerance: the residual stalls on rounding noise for the whole
    // iteration budget.
    let one = [ClassDemand {
        population: 1.208_784_889_756_496e17,
        think_time_s: 57_564.804_853_312_62,
        demands_s: vec![0.000_308_869_578_553_701_9, 0.0],
    }];
    let two = [
        ClassDemand {
            population: 12_656_925.861_342_978,
            think_time_s: 4.769_071_571_645_862_5,
            demands_s: vec![
                153.057_969_651_649_9,
                0.015_093_799_998_189_4,
                1.826_137_354_635_575_5,
            ],
        },
        ClassDemand {
            population: 58_189_104_202_201.586,
            think_time_s: 69_047.049_640_577_72,
            demands_s: vec![
                0.007_150_354_961_355_426,
                9_239.895_740_487_69,
                6.262_387_535_945_49,
            ],
        },
    ];
    for classes in [&one[..], &two[..]] {
        let got = assert_kernels_agree(classes);
        assert!(
            matches!(
                got,
                Observed::NoConvergence {
                    iterations: 4000,
                    ..
                }
            ),
            "{got:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The register-resident fixed-shape kernel is the runtime-shape loop
    /// to the bit — throughputs, queues, station figures, iteration
    /// counts, and the `NoConvergence`/`InvalidDemand` payloads — on the
    /// two shapes it serves.
    #[test]
    fn fixed_shape_kernel_is_bit_identical_to_the_runtime_shape_loop(
        classes in (1usize..=2).prop_flat_map(|nc| prop::collection::vec(arb_kernel_class(nc + 1), nc)),
    ) {
        assert_kernels_agree(&classes);
    }
}
