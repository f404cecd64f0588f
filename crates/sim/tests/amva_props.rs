//! Property-based tests of the AMVA solver and the hardware curves — the
//! invariants every downstream performance number silently relies on —
//! the bit-identity of the fixed-shape AMVA kernel to the runtime-shape
//! loop, and of the lane kernel to the fixed-shape kernel.

use ecost_sim::{
    amva, solve_lanes, AmvaScratch, ClassDemand, FixedClasses, FixedSolution, NodeSpec, SimError,
    SimdBackend,
};
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
#[derive(Debug, Clone, PartialEq)]
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

/// `classes` as a by-value fixed-shape problem.
fn pack<const NC: usize, const S: usize>(classes: &[ClassDemand]) -> FixedClasses<NC, S> {
    let mut p = FixedClasses::zeroed();
    for (j, c) in classes.iter().enumerate() {
        p.population[j] = c.population;
        p.think_time_s[j] = c.think_time_s;
        p.demands_s[j].copy_from_slice(&c.demands_s);
    }
    p
}

/// The by-value fixed-shape entry point on the same problem.
fn solve_by_value(classes: &[ClassDemand]) -> Observed {
    match classes.len() {
        1 => observe_fixed(pack::<1, 2>(classes).solve()),
        _ => observe_fixed(pack::<2, 3>(classes).solve()),
    }
}

/// Assert that both scalar kernels agree to the bit on `classes` (one job
/// over 2 stations, or two over 3): the runtime-shape loop (the oracle)
/// and the by-value fixed kernel.
fn assert_kernels_agree(classes: &[ClassDemand]) -> Observed {
    let (nc, st) = (classes.len(), classes.len() + 1);
    let mut oracle = AmvaScratch::new();
    let r = oracle.solve(classes, st);
    let want = observe_scratch(&oracle, r, nc, st);
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

/// Every lane's result from one [`solve_lanes`] call on `backend`, in
/// problem order, each lane reported exactly once. All problems share
/// one shape: one job over 2 stations, or two over 3.
fn observe_lanes(backend: SimdBackend, problems: &[Vec<ClassDemand>]) -> Vec<Observed> {
    fn run<const NC: usize, const S: usize>(
        backend: SimdBackend,
        problems: &[Vec<ClassDemand>],
    ) -> Vec<Observed> {
        let packed: Vec<FixedClasses<NC, S>> = problems.iter().map(|c| pack(c)).collect();
        let mut out: Vec<Option<Observed>> = (0..problems.len()).map(|_| None).collect();
        solve_lanes(backend, &packed, |i, r| {
            assert!(out[i].is_none(), "lane {i} reported twice");
            out[i] = Some(observe_fixed(r));
        });
        out.into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("lane {i} never reported")))
            .collect()
    }
    match problems[0].len() {
        1 => run::<1, 2>(backend, problems),
        _ => run::<2, 3>(backend, problems),
    }
}

/// Every backend's lane kernel on one call over `window`, against a
/// by-value [`FixedClasses::solve`] of each problem alone (`want`).
fn assert_window_agrees(window: &[Vec<ClassDemand>], want: &[Observed]) {
    // Avx2 validates down to Portable off-x86, so every backend that can
    // run here is covered.
    for backend in [
        SimdBackend::Scalar,
        SimdBackend::Portable,
        SimdBackend::Avx2,
    ] {
        let got = observe_lanes(backend, window);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(
                g,
                &want[i],
                "{backend:?} width {} lane {i}: {:?}",
                window.len(),
                window[i]
            );
        }
    }
}

/// [`assert_window_agrees`] on every chunking of `problems` by widths
/// 1..=16: one kernel call of eight problems (two `f64x4` vectors) or two,
/// full or padded.
fn assert_lanes_agree(problems: &[Vec<ClassDemand>]) {
    let want: Vec<Observed> = problems.iter().map(|c| solve_by_value(c)).collect();
    for width in 1..=16usize {
        for (window, want) in problems.chunks(width).zip(want.chunks(width)) {
            assert_window_agrees(window, want);
        }
    }
}

/// A healthy class `j` of `nc` in the executor's layout: `n` slots, think
/// time `z`, demand `d` at its own I/O station and, when `nic`, `dn` at
/// the last (NIC) station.
fn healthy_class(nc: usize, j: usize, (n, z, d, nic, dn): (f64, f64, f64, u8, f64)) -> ClassDemand {
    let mut demands_s = vec![0.0; nc + 1];
    demands_s[j] = d;
    if nic == 1 {
        demands_s[nc] = dn;
    }
    ClassDemand {
        population: n,
        think_time_s: z,
        demands_s,
    }
}

/// A class whose throughput overflows: a huge population `n` over a
/// subnormal think time and zero or subnormal demands (raw bit patterns
/// below 1000), so `x = ∞` and the zero-demand queue updates turn
/// `∞ · 0` into NaN.
fn overflow_class((n, z, demands): (f64, u64, Vec<(u8, u64)>)) -> ClassDemand {
    ClassDemand {
        population: n,
        think_time_s: f64::from_bits(z),
        demands_s: demands
            .into_iter()
            .map(|(dk, d)| if dk == 0 { 0.0 } else { f64::from_bits(d) })
            .collect(),
    }
}

/// One lane of `nc` classes: healthy five times in eight, drawn from the
/// kernel-test mix (zero, huge and invalid classes) twice in eight, and
/// overflowing once in eight.
fn arb_lane(nc: usize) -> impl Strategy<Value = Vec<ClassDemand>> {
    let st = nc + 1;
    (
        0u8..8,
        prop::collection::vec(
            (
                1.0f64..12.0,
                0.01f64..5.0,
                0.01f64..2.0,
                0u8..2,
                0.0f64..0.1,
            ),
            nc,
        ),
        prop::collection::vec(arb_kernel_class(st), nc),
        prop::collection::vec(
            (
                1e5f64..1e7,
                1u64..1000,
                prop::collection::vec((0u8..2, 1u64..1000), st),
            ),
            nc,
        ),
    )
        .prop_map(move |(kind, healthy, mixed, overflow)| match kind {
            0..=4 => healthy
                .into_iter()
                .enumerate()
                .map(|(j, raw)| healthy_class(nc, j, raw))
                .collect(),
            5 | 6 => mixed,
            _ => overflow.into_iter().map(overflow_class).collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The AMVA lane kernel is `FixedClasses::solve` to the bit on every
    /// lane — throughputs, queues, station figures, iteration counts and
    /// error payloads — on every backend and at every width 1..=16, with
    /// invalid, non-convergent and overflowing lanes mixed into healthy
    /// chunks.
    #[test]
    fn lane_kernel_is_bit_identical_to_the_fixed_kernel(
        lanes in (1usize..=2).prop_flat_map(|nc| prop::collection::vec(arb_lane(nc), 1..=16)),
    ) {
        assert_lanes_agree(&lanes);
    }
}

#[test]
fn odd_lanes_match_the_fixed_kernel_at_every_chunk_position() {
    for nc in [1usize, 2] {
        let st = nc + 1;
        let class = |population: f64, think_time_s: f64, d: f64| ClassDemand {
            population,
            think_time_s,
            demands_s: (0..st).map(|s| if s == 0 { d } else { 0.25 * d }).collect(),
        };
        // Healthy filler with varied convergence speeds.
        let filler: Vec<Vec<ClassDemand>> = (0..16)
            .map(|i| {
                let n = 1.0 + (i % 7) as f64;
                vec![class(n, 0.1 + 0.3 * i as f64, 0.2 + 0.05 * i as f64); nc]
            })
            .collect();
        let stalled = vec![
            ClassDemand {
                population: 1.208_784_889_756_496e17,
                think_time_s: 57_564.804_853_312_62,
                demands_s: (0..st)
                    .map(|s| if s == 0 {
                        0.000_308_869_578_553_701_9
                    } else {
                        0.0
                    })
                    .collect(),
            };
            nc
        ];
        let overflow = vec![
            ClassDemand {
                population: 1e6,
                think_time_s: 1e-320,
                demands_s: vec![0.0; st],
            };
            nc
        ];
        let invalid = vec![class(-1.0, 1.0, 1.0); nc];
        let empty = vec![class(0.0, 0.0, 0.0); nc];
        let want_filler: Vec<Observed> = filler.iter().map(|c| solve_by_value(c)).collect();
        let odd = [stalled, overflow, invalid, empty];
        let want_odd: Vec<Observed> = odd.iter().map(|c| solve_by_value(c)).collect();
        for (k, lane) in odd.iter().enumerate() {
            // The odd lane at every index of every window size puts it at
            // every position of an eight-problem call — either `f64x4`
            // vector, first call to last. Where the window reaches it, the
            // same position of the call's other vector holds the next odd
            // kind, so each vector's masks and residual must stay its own.
            let (next, want_next) = (&odd[(k + 1) % odd.len()], &want_odd[(k + 1) % odd.len()]);
            for width in 1..=16usize {
                for pos in 0..width {
                    let mut lanes = filler[..width].to_vec();
                    let mut want = want_filler[..width].to_vec();
                    lanes[pos] = lane.clone();
                    want[pos] = want_odd[k].clone();
                    assert_window_agrees(&lanes, &want);
                    let other = pos ^ 4;
                    if other < width {
                        lanes[other] = next.clone();
                        want[other] = want_next.clone();
                        assert_window_agrees(&lanes, &want);
                    }
                }
            }
        }
    }
}
