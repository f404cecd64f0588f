//! Approximate Mean Value Analysis (Bard–Schweitzer AMVA) for multiclass
//! closed queueing networks.
//!
//! ## Why a queueing model?
//!
//! A MapReduce job with `m` mapper slots is, at the node level, a *closed*
//! system: each slot repeatedly (1) reads a block from the shared disk, then
//! (2) computes on its private core. The slot count never changes during a
//! stage, so the right performance model is a closed network with `m`
//! customers per job:
//!
//! * the private cores form a **delay station** (no queueing — every slot owns
//!   a core), contributing the think time `Z`;
//! * the disk (and, cluster-wide, the NIC) is a **processor-sharing station**
//!   contested by *all* co-located jobs.
//!
//! This structure is what creates the paper's co-location headroom: a single
//! I/O-bound job with few slots leaves the disk idle while its slots compute
//! (`U_disk = X·D_disk < 1`), and a co-located job's requests soak up exactly
//! that idle time. AMVA gives us each job's steady-state task throughput under
//! contention in microseconds of compute, which is what lets the brute-force
//! oracle of the paper (84 480 runs) be swept in seconds.
//!
//! ## Algorithm
//!
//! Bard–Schweitzer fixed point: queue lengths seed residence times,
//! residence times give throughputs (Little's law on the full cycle),
//! throughputs refresh queue lengths; iterate with damping until the queue
//! estimate is stable. For a single class this is exact in the limit and
//! within a few percent of exact MVA for small populations — adequate here,
//! since model error is swamped by profile calibration error.

use crate::error::SimError;
use crate::simd::{self, LaneVec, SimdBackend};

/// Label for a shared processor-sharing station (used for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedStation {
    /// Human-readable name, e.g. `"disk"` or `"nic"`.
    pub name: &'static str,
}

/// Demand description of one customer class (= one co-located job).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDemand {
    /// Customer population `N_j` — the job's slot count. Fractional
    /// populations are allowed (used for tail-wave corrections).
    pub population: f64,
    /// Think time `Z_j` (seconds per cycle spent at the private cores).
    pub think_time_s: f64,
    /// Service demand at each shared station (seconds per cycle).
    pub demands_s: Vec<f64>,
}

impl ClassDemand {
    fn validate(&self, stations: usize) -> Result<(), SimError> {
        validate_class(
            self.population,
            self.think_time_s,
            &self.demands_s,
            stations,
        )
    }
}

/// The per-class input checks, in the order both kernels apply them, so a
/// bad class fails with the same [`SimError`] whichever kernel sees it.
fn validate_class(
    population: f64,
    think_time_s: f64,
    demands_s: &[f64],
    stations: usize,
) -> Result<(), SimError> {
    if !population.is_finite() || population < 0.0 {
        return Err(SimError::InvalidDemand(
            "population must be finite and >= 0",
        ));
    }
    if !think_time_s.is_finite() || think_time_s < 0.0 {
        return Err(SimError::InvalidDemand(
            "think time must be finite and >= 0",
        ));
    }
    if demands_s.len() != stations {
        return Err(SimError::InvalidDemand(
            "demand vector length != station count",
        ));
    }
    if demands_s.iter().any(|d| !d.is_finite() || *d < 0.0) {
        return Err(SimError::InvalidDemand(
            "station demand must be finite and >= 0",
        ));
    }
    if population > 0.0 {
        let total: f64 = think_time_s + demands_s.iter().sum::<f64>();
        if total <= 0.0 {
            return Err(SimError::InvalidDemand(
                "class with customers needs positive total demand",
            ));
        }
    }
    Ok(())
}

/// The post-loop convergence test shared by every kernel: a residual at
/// or above `TOL · 10`, finite and above `1e-3` is a failure.
fn convergence_check(iterations: usize, residual: f64) -> Result<(), SimError> {
    if residual >= TOL * 10.0 && residual.is_finite() && residual > 1e-3 {
        return Err(SimError::NoConvergence {
            iterations,
            residual,
        });
    }
    Ok(())
}

/// Converged AMVA solution.
#[derive(Debug, Clone)]
pub struct AmvaSolution {
    /// Per-class cycle throughput `X_j` (cycles/second).
    pub throughput: Vec<f64>,
    /// Per-class, per-station mean queue length `Q[j][s]`.
    pub queue: Vec<Vec<f64>>,
    /// Per-station utilisation `U_s = Σ_j X_j·D_{j,s}`, clamped to `[0, 1]`.
    pub station_util: Vec<f64>,
    /// Per-station *total* mean queue length (customers at or in service).
    pub station_queue: Vec<f64>,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

/// Convergence tolerance on queue lengths.
const TOL: f64 = 1e-7;
/// Iteration budget; typical problems converge in < 60 iterations.
const MAX_ITER: usize = 4000;
/// Damping factor for the queue update (guards oscillation at heavy load).
const DAMPING: f64 = 0.5;

/// Reusable solver state for the Bard–Schweitzer fixed point.
///
/// The executor calls AMVA inside a ~200-iteration outer fixed point on
/// *every* rate re-solve, so the solver must not touch the heap once warm.
/// All working vectors live here and are grown monotonically (`clear` +
/// `resize` keeps capacity, so after the first solve at a given problem
/// size every subsequent solve is allocation-free).
///
/// [`Self::solve`] is the runtime-shape loop: it walks slices sized at
/// run time, so it takes any class and station count. The executor runs
/// it for mixes of three or more jobs and sends one- and two-job mixes
/// (1 class × 2 stations, 2 × 3) to the register-resident
/// [`FixedClasses`] kernel, which runs the same arithmetic and is pinned
/// against this loop. [`solve`] wraps it.
#[derive(Debug, Default)]
pub struct AmvaScratch {
    /// Queue lengths, row-major: `q[j * stations + s]`.
    q: Vec<f64>,
    /// Per-class throughput.
    x: Vec<f64>,
    /// Per-class residence times (reused across classes within an iteration).
    r: Vec<f64>,
    /// Total queue per station.
    qtot: Vec<f64>,
    station_util: Vec<f64>,
    station_queue: Vec<f64>,
    nc: usize,
    stations: usize,
    iterations: usize,
}

impl AmvaScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> AmvaScratch {
        AmvaScratch::default()
    }

    /// Solve the network in place; the converged state is read back
    /// through the accessors below.
    ///
    /// The fixed point is decomposed into `Self::begin` (validate + seed),
    /// `Self::iterate` (one Bard–Schweitzer step, repeated to convergence
    /// or the iteration budget) and `Self::finish` (derived per-station
    /// figures).
    pub fn solve(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
        self.begin(classes, stations)?;
        let mut residual = f64::INFINITY;
        for _ in 0..MAX_ITER {
            residual = self.iterate(classes);
            if residual < TOL {
                break;
            }
        }
        convergence_check(self.iterations, residual)?;
        self.finish(classes);
        Ok(())
    }

    /// Validate the problem, size the buffers and seed the fixed point.
    fn begin(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
        for c in classes {
            c.validate(stations)?;
        }
        let nc = classes.len();
        self.nc = nc;
        self.stations = stations;
        self.q.clear();
        self.q.resize(nc * stations, 0.0);
        self.x.clear();
        self.x.resize(nc, 0.0);
        self.r.clear();
        self.r.resize(stations, 0.0);
        self.qtot.clear();
        self.qtot.resize(stations, 0.0);
        self.iterations = 0;
        // Seed: spread each population across stations + think.
        for (j, c) in classes.iter().enumerate() {
            if c.population <= 0.0 {
                continue;
            }
            let share = c.population / (stations as f64 + 1.0);
            for (qv, d) in self.q[j * stations..(j + 1) * stations]
                .iter_mut()
                .zip(&c.demands_s)
            {
                *qv = if *d > 0.0 { share } else { 0.0 };
            }
        }
        Ok(())
    }

    /// One Bard–Schweitzer iteration; returns the residual (max queue
    /// delta). Hot loop: row slices are hoisted out of the station loops so
    /// the indexing below is bounds-checked once per class, not once per
    /// access. Every floating-point operation and its order is unchanged
    /// from the pre-split implementation (the executor's bit-identity
    /// property tests pin this).
    #[inline]
    fn iterate(&mut self, classes: &[ClassDemand]) -> f64 {
        self.iterations += 1;
        let stations = self.stations;
        let AmvaScratch { q, x, r, qtot, .. } = self;
        // Total queue per station.
        for v in qtot.iter_mut() {
            *v = 0.0;
        }
        for row in q.chunks_exact(stations.max(1)) {
            for (qt, v) in qtot.iter_mut().zip(row) {
                *qt += v;
            }
        }
        let mut residual = 0.0_f64;
        for (j, c) in classes.iter().enumerate() {
            if c.population <= 0.0 {
                x[j] = 0.0;
                continue;
            }
            let n = c.population;
            let qrow = &mut q[j * stations..(j + 1) * stations];
            let demands = &c.demands_s[..stations];
            let mut r_total = 0.0;
            for v in r.iter_mut() {
                *v = 0.0;
            }
            for s in 0..stations {
                let d = demands[s];
                if d <= 0.0 {
                    continue;
                }
                // Bard–Schweitzer: a class-j arrival sees the other
                // classes' full queues plus (N_j-1)/N_j of its own.
                let others = qtot[s] - qrow[s];
                let own = if n > 1.0 {
                    qrow[s] * (n - 1.0) / n
                } else {
                    0.0
                };
                r[s] = d * (1.0 + others + own);
                r_total += r[s];
            }
            let xj = n / (c.think_time_s + r_total);
            x[j] = xj;
            for s in 0..stations {
                let new_q = xj * r[s];
                let delta = new_q - qrow[s];
                residual = residual.max(delta.abs());
                qrow[s] += DAMPING * delta;
            }
        }
        residual
    }

    /// Derive the per-station utilisation/queue figures from the converged
    /// fixed point.
    fn finish(&mut self, classes: &[ClassDemand]) {
        let stations = self.stations;
        self.station_util.clear();
        self.station_util.resize(stations, 0.0);
        self.station_queue.clear();
        self.station_queue.resize(stations, 0.0);
        for (j, c) in classes.iter().enumerate() {
            for s in 0..stations {
                self.station_util[s] += self.x[j] * c.demands_s[s];
                self.station_queue[s] += self.q[j * stations + s];
            }
        }
        for u in &mut self.station_util {
            *u = u.clamp(0.0, 1.0);
        }
    }

    /// Per-class cycle throughput `X_j` from the last solve.
    pub fn throughput(&self) -> &[f64] {
        &self.x[..self.nc]
    }

    /// Mean queue length of class `j` at station `s` from the last solve.
    pub fn queue(&self, class: usize, station: usize) -> f64 {
        self.q[class * self.stations + station]
    }

    /// Per-station utilisation (clamped to `[0, 1]`) from the last solve.
    pub fn station_util(&self) -> &[f64] {
        &self.station_util[..self.stations]
    }

    /// Per-station total mean queue length from the last solve.
    pub fn station_queue(&self) -> &[f64] {
        &self.station_queue[..self.stations]
    }

    /// Fixed-point iterations used by the last solve.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Materialise the last solve as an owned [`AmvaSolution`].
    fn to_solution(&self) -> AmvaSolution {
        let queue = if self.stations == 0 {
            vec![Vec::new(); self.nc]
        } else {
            self.q[..self.nc * self.stations]
                .chunks(self.stations)
                .map(|c| c.to_vec())
                .collect()
        };
        AmvaSolution {
            throughput: self.x[..self.nc].to_vec(),
            queue,
            station_util: self.station_util[..self.stations].to_vec(),
            station_queue: self.station_queue[..self.stations].to_vec(),
            iterations: self.iterations,
        }
    }
}

/// Solve the network. `stations` is the number of shared PS stations; every
/// class must provide exactly that many demands.
///
/// Classes with zero population are carried through with zero throughput.
/// Runs the runtime-shape loop ([`AmvaScratch::solve`]) for every
/// shape, so callers that serve as an oracle for the fixed-shape
/// kernel (the frozen reference executor) stay on an independent path.
///
/// ```
/// use ecost_sim::amva::{solve, ClassDemand};
///
/// // One job with 2 slots: each cycle computes 3 s then reads 1 s of disk.
/// let job = ClassDemand {
///     population: 2.0,
///     think_time_s: 3.0,
///     demands_s: vec![1.0],
/// };
/// let sol = solve(&[job], 1).unwrap();
/// // Nearly two tasks per 4 s-cycle; the disk is mostly idle (≈ fill-in
/// // headroom for a co-located job).
/// assert!(sol.throughput[0] > 0.45 && sol.throughput[0] < 0.5);
/// assert!(sol.station_util[0] < 0.5);
/// ```
pub fn solve(classes: &[ClassDemand], stations: usize) -> Result<AmvaSolution, SimError> {
    let mut scratch = AmvaScratch::new();
    scratch.solve(classes, stations)?;
    Ok(scratch.to_solution())
}

/// An AMVA problem of fixed shape — `NC` classes over `S` shared stations —
/// held by value, so the whole Bard–Schweitzer fixed point can live in
/// registers.
///
/// Outside k-way co-location the executor builds only two shapes: one job
/// (1 class × its I/O path + the NIC) and two co-located jobs (2 × 3). On
/// those the
/// runtime-shape loop's slice walks, per-class row hoisting and heap
/// round-trips cost as much as the arithmetic, which is one dependent
/// divide chain per iteration (DESIGN.md §11). With the shape a compile-
/// time constant every loop unrolls and every queue, residence time and
/// throughput stays in a register across iterations.
///
/// The kernel executes exactly the floating-point operations of the
/// runtime-shape loop, in the same order — same seed, same
/// `(q·(n-1))/n` association, same accumulation order, same damping and
/// convergence test; Rust never contracts to FMA or reassociates — so
/// every result and iteration count is bit-identical
/// (`crates/sim/tests/amva_props.rs` pins this, also under
/// `-Ctarget-cpu=native`).
///
/// ```
/// use ecost_sim::amva::{solve, ClassDemand, FixedClasses};
///
/// let job = FixedClasses::<1, 2> {
///     population: [2.0],
///     think_time_s: [3.0],
///     demands_s: [[1.0, 0.25]],
/// };
/// let fixed = job.solve().unwrap();
/// let oracle = solve(
///     &[ClassDemand { population: 2.0, think_time_s: 3.0, demands_s: vec![1.0, 0.25] }],
///     2,
/// )
/// .unwrap();
/// assert_eq!(fixed.throughput[0].to_bits(), oracle.throughput[0].to_bits());
/// assert_eq!(fixed.iterations, oracle.iterations);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedClasses<const NC: usize, const S: usize> {
    /// Customer population `N_j` per class.
    pub population: [f64; NC],
    /// Think time `Z_j` per class (seconds per cycle).
    pub think_time_s: [f64; NC],
    /// Service demand of class `j` at station `s`, `demands_s[j][s]`.
    pub demands_s: [[f64; S]; NC],
}

/// Converged solution of a [`FixedClasses`] problem — the fields of
/// [`AmvaSolution`], by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedSolution<const NC: usize, const S: usize> {
    /// Per-class cycle throughput `X_j` (cycles/second).
    pub throughput: [f64; NC],
    /// Per-class, per-station mean queue length `Q[j][s]`.
    pub queue: [[f64; S]; NC],
    /// Per-station utilisation, clamped to `[0, 1]`.
    pub station_util: [f64; S],
    /// Per-station total mean queue length.
    pub station_queue: [f64; S],
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl<const NC: usize, const S: usize> FixedClasses<NC, S> {
    /// All-zero problem: every class empty (population, think time and
    /// demands 0), ready to be filled in place.
    pub fn zeroed() -> FixedClasses<NC, S> {
        FixedClasses {
            population: [0.0; NC],
            think_time_s: [0.0; NC],
            demands_s: [[0.0; S]; NC],
        }
    }

    /// Validate and solve. Errors, results and iteration counts are
    /// bit-identical to [`AmvaScratch::solve`] on the equivalent
    /// [`ClassDemand`] slice.
    pub fn solve(&self) -> Result<FixedSolution<NC, S>, SimError> {
        self.validate()?;
        let (queue, throughput, iterations, residual) = self.fixed_point();
        self.finish(queue, throughput, iterations, residual)
    }

    /// The per-class input checks of [`AmvaScratch::solve`], class by
    /// class.
    fn validate(&self) -> Result<(), SimError> {
        for j in 0..NC {
            validate_class(
                self.population[j],
                self.think_time_s[j],
                &self.demands_s[j],
                S,
            )?;
        }
        Ok(())
    }

    /// The post-loop half of a solve: the shared convergence test, then
    /// [`AmvaScratch::finish`]'s station figures, by value (class-order
    /// sums from +0.0).
    fn finish(
        &self,
        queue: [[f64; S]; NC],
        throughput: [f64; NC],
        iterations: usize,
        residual: f64,
    ) -> Result<FixedSolution<NC, S>, SimError> {
        convergence_check(iterations, residual)?;
        let mut station_util = [0.0_f64; S];
        let mut station_queue = [0.0_f64; S];
        for j in 0..NC {
            for s in 0..S {
                station_util[s] += throughput[j] * self.demands_s[j][s];
                station_queue[s] += queue[j][s];
            }
        }
        for u in &mut station_util {
            *u = u.clamp(0.0, 1.0);
        }
        Ok(FixedSolution {
            throughput,
            queue,
            station_util,
            station_queue,
            iterations,
        })
    }

    /// The Bard–Schweitzer fixed point on a validated problem: `begin`'s
    /// seed, then [`AmvaScratch::iterate`] to convergence or the
    /// iteration budget, operation for operation. Returns
    /// `(queues, throughputs, iterations, last residual)`.
    #[inline]
    fn fixed_point(&self) -> ([[f64; S]; NC], [f64; NC], usize, f64) {
        let FixedClasses {
            population: pop,
            think_time_s: think,
            demands_s: dem,
        } = *self;
        let mut q = [[0.0_f64; S]; NC];
        for j in 0..NC {
            if pop[j] <= 0.0 {
                continue;
            }
            let share = pop[j] / (S as f64 + 1.0);
            for s in 0..S {
                q[j][s] = if dem[j][s] > 0.0 { share } else { 0.0 };
            }
        }
        let mut x = [0.0_f64; NC];
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        for _ in 0..MAX_ITER {
            iterations += 1;
            let mut qtot = [0.0_f64; S];
            for row in &q {
                for s in 0..S {
                    qtot[s] += row[s];
                }
            }
            let mut res = 0.0_f64;
            for j in 0..NC {
                let n = pop[j];
                if n <= 0.0 {
                    x[j] = 0.0;
                    continue;
                }
                let mut r = [0.0_f64; S];
                let mut r_total = 0.0;
                // `if d > 0.0` rather than the runtime loop's `continue` on
                // `d <= 0.0` (the same test: demands are validated finite):
                // same operations, but with `continue` LLVM keeps this loop
                // rolled and `q`/`r` on the stack (DESIGN.md §11).
                for s in 0..S {
                    let d = dem[j][s];
                    if d > 0.0 {
                        let others = qtot[s] - q[j][s];
                        let own = if n > 1.0 {
                            q[j][s] * (n - 1.0) / n
                        } else {
                            0.0
                        };
                        r[s] = d * (1.0 + others + own);
                        r_total += r[s];
                    }
                }
                let xj = n / (think[j] + r_total);
                x[j] = xj;
                for s in 0..S {
                    let delta = xj * r[s] - q[j][s];
                    res = res.max(delta.abs());
                    q[j][s] += DAMPING * delta;
                }
            }
            residual = res;
            if residual < TOL {
                break;
            }
        }
        (q, x, iterations, residual)
    }
}

/// Problems one `f64x4` vector holds.
const VLANES: usize = 4;

/// Problems one lane-kernel call takes: two `f64x4` vectors, each an
/// independent dependency chain.
const LANES: usize = 2 * VLANES;

/// The lane kernel's exit state for [`LANES`] problems: queues,
/// throughputs, iteration counts and last residuals, problem `l` in
/// element `l`.
pub(crate) struct LaneFixedPoint<const NC: usize, const S: usize> {
    q: [[[f64; LANES]; S]; NC],
    x: [[f64; LANES]; NC],
    iterations: [f64; LANES],
    residual: [f64; LANES],
}

impl<const NC: usize, const S: usize> LaneFixedPoint<NC, S> {
    /// Problem `l`'s `(queues, throughputs, iterations, last residual)`,
    /// as [`FixedClasses::fixed_point`] returns them.
    fn lane(&self, l: usize) -> ([[f64; S]; NC], [f64; NC], usize, f64) {
        (
            self.q.map(|row| row.map(|v| v[l])),
            self.x.map(|v| v[l]),
            self.iterations[l] as usize,
            self.residual[l],
        )
    }
}

/// One `f64x4` vector's share of a lane-kernel call: four problems'
/// inputs, masks and fixed-point state, problem `l` in element `l`.
/// Nothing here is read by the other vector of the call.
struct Chain<V: LaneVec, const NC: usize, const S: usize> {
    pop: [V; NC],
    nm1: [V; NC],
    think: [V; NC],
    live: [V; NC],
    many: [V; NC],
    dem: [[V; S]; NC],
    busy: [[V; S]; NC],
    /// Cells with a positive demand in at least one lane of the vector.
    any_busy: [[bool; S]; NC],
    q: [[V; S]; NC],
    x: [V; NC],
    iterations: V,
    residual: V,
    /// Lanes still iterating (all-ones), frozen ones all-zero.
    active: V,
}

impl<V: LaneVec, const NC: usize, const S: usize> Chain<V, NC, S> {
    /// Load four validated problems and seed their queues (`begin`'s
    /// seed, per lane).
    #[inline(always)]
    fn new(p: &[FixedClasses<NC, S>]) -> Chain<V, NC, S> {
        let zero = V::splat(0.0);
        let one = V::splat(1.0);
        let mut c = Chain {
            pop: [zero; NC],
            nm1: [zero; NC],
            think: [zero; NC],
            live: [zero; NC],
            many: [zero; NC],
            dem: [[zero; S]; NC],
            busy: [[zero; S]; NC],
            any_busy: [[false; S]; NC],
            q: [[zero; S]; NC],
            x: [zero; NC],
            iterations: zero,
            residual: V::splat(f64::INFINITY),
            active: one.gt(zero),
        };
        for j in 0..NC {
            c.pop[j] = V::from_array(std::array::from_fn(|l| p[l].population[j]));
            c.think[j] = V::from_array(std::array::from_fn(|l| p[l].think_time_s[j]));
            // `n - 1.0` is loop-invariant: hoisting it keeps the bits.
            c.nm1[j] = c.pop[j].sub(one);
            c.live[j] = c.pop[j].gt(zero);
            c.many[j] = c.pop[j].gt(one);
            let share = c.pop[j].div(V::splat(S as f64 + 1.0));
            for s in 0..S {
                c.dem[j][s] = V::from_array(std::array::from_fn(|l| p[l].demands_s[j][s]));
                c.busy[j][s] = c.dem[j][s].gt(zero);
                c.any_busy[j][s] = c.busy[j][s].any();
                c.q[j][s] = V::select(c.live[j].and(c.busy[j][s]), share, zero);
            }
        }
        c
    }

    /// One Bard–Schweitzer iteration on every lane still active; lanes
    /// whose residual drops below the tolerance freeze here.
    #[inline(always)]
    fn step(&mut self) {
        let zero = V::splat(0.0);
        let one = V::splat(1.0);
        let damp = V::splat(DAMPING);
        let inf = V::splat(f64::INFINITY);
        let Chain {
            pop,
            nm1,
            think,
            live,
            many,
            dem,
            busy,
            any_busy,
            q,
            x,
            iterations,
            residual,
            active,
        } = self;
        let mut qtot = [zero; S];
        for row in q.iter() {
            for s in 0..S {
                qtot[s] = qtot[s].add(row[s]);
            }
        }
        let mut res = zero;
        for j in 0..NC {
            let n = pop[j];
            let step = live[j].and(*active);
            let mut r = [zero; S];
            let mut r_total = zero;
            for s in 0..S {
                // No lane has demand here: every lane selects `r = +0.0`,
                // which is already in place, and adding it to `r_total`
                // would change no bit — skip the cell's divide.
                if !any_busy[j][s] {
                    continue;
                }
                let others = qtot[s].sub(q[j][s]);
                let own = V::select(many[j], q[j][s].mul(nm1[j]).div(n), zero);
                let rv = dem[j][s].mul(one.add(others).add(own));
                r[s] = V::select(busy[j][s], rv, zero);
                r_total = r_total.add(r[s]);
            }
            let xj = n.div(think[j].add(r_total));
            x[j] = V::select(step, xj, x[j]);
            // A cell with no demand in any lane was seeded 0, so its queue
            // is 0 or (once `x` overflowed) NaN; while every stepping
            // lane's `x` is finite its update `q + ½(x·0 − q)` and its
            // `|Δ|` change nothing, so it may be skipped. Any non-finite
            // `x` (`∞ · 0` is NaN) takes the dense update.
            let idle_ok = !V::select(inf.gt(xj), zero, step).any();
            for s in 0..S {
                if idle_ok && !any_busy[j][s] {
                    continue;
                }
                let delta = xj.mul(r[s]).sub(q[j][s]);
                let absd = delta.abs();
                res = V::select(live[j].and(absd.gt(res)), absd, res);
                q[j][s] = V::select(step, q[j][s].add(damp.mul(delta)), q[j][s]);
            }
        }
        *iterations = iterations.add(V::select(*active, one, zero));
        *residual = V::select(*active, res, *residual);
        *active = V::select(V::splat(TOL).gt(res), zero, *active);
    }
}

/// [`FixedClasses::fixed_point`] on [`LANES`] validated problems at once:
/// two `f64x4` vectors of the backend `V`, problems `0..4` in the first
/// and `4..8` in the second. Queues, throughputs, residuals and
/// iteration counts stay in vectors for the whole fixed point.
///
/// Each vector is its own dependency chain: every iteration steps the
/// first vector, then the second, and neither reads the other's queues,
/// residual or masks. One chain is a sequence of dependent divides
/// (DESIGN.md §11); two independent ones keep the divider fed while the
/// other chain's quotients are in flight. A vector whose lanes have all
/// converged stops stepping; the loop ends when both have, or the
/// iteration budget is spent.
///
/// Per lane this is exactly the scalar floating-point sequence — same
/// seed, same `(q·(n-1))/n` association, same class and station order,
/// same damping and convergence test. The differences are structural and
/// bit-neutral, and every mask below is per vector:
///
/// * Branches become masks + selects. A dead class (population ≤ 0)
///   holds `x = 0` and its queues; the `n ≤ 1` lanes discard the `own`
///   divide; a zero-demand station selects `r = 0`. The not-taken side
///   may be inf/NaN; IEEE 754 arithmetic is non-trapping and the select
///   throws it away.
/// * The residence total adds the selected `+0.0` of a zero-demand
///   station, which leaves it bit-unchanged: it starts at `+0.0` and every
///   other term is positive (`d > 0` times a factor ≥ 1), infinite or
///   NaN, so it is never `-0.0`. A cell with no demand in *any* lane of
///   the vector therefore skips its residence term (and its divide)
///   outright.
/// * The queue update runs on every cell, as in the scalar loop —
///   including zero-demand cells, where `x = ∞` makes `∞ · 0` a NaN. Only
///   a cell idle in all four lanes of the vector may skip it, and only
///   while every stepping lane's `x` is finite: its queue is then 0 or
///   NaN and the update changes neither it nor the residual. (Skipping
///   without that guard leaves an overflowed lane's idle queues at 0
///   where the scalar kernel has NaN.)
/// * The residual's `f64::max` becomes `select(|Δ| > res, |Δ|, res)`,
///   bit-identical for the non-negative, never-NaN running maximum.
/// * A lane whose residual drops below the tolerance freezes by select
///   on that iteration: its queues, throughputs, iteration count and
///   residual keep the values of the iteration where the scalar loop
///   would have stopped, while the other lanes run on. A vector with no
///   active lane is skipped outright, which changes nothing.
#[inline(always)]
pub(crate) fn lane_fixed_point<V: LaneVec, const NC: usize, const S: usize>(
    p: &[FixedClasses<NC, S>; LANES],
) -> LaneFixedPoint<NC, S> {
    let (lo, hi) = p.split_at(VLANES);
    let mut a = Chain::<V, NC, S>::new(lo);
    let mut b = Chain::<V, NC, S>::new(hi);
    for _ in 0..MAX_ITER {
        let (run_a, run_b) = (a.active.any(), b.active.any());
        if !(run_a || run_b) {
            break;
        }
        if run_a {
            a.step();
        }
        if run_b {
            b.step();
        }
    }
    let join = |lo: V, hi: V| -> [f64; LANES] {
        let (lo, hi) = (lo.to_array(), hi.to_array());
        std::array::from_fn(|l| if l < VLANES { lo[l] } else { hi[l - VLANES] })
    };
    LaneFixedPoint {
        q: std::array::from_fn(|j| std::array::from_fn(|s| join(a.q[j][s], b.q[j][s]))),
        x: std::array::from_fn(|j| join(a.x[j], b.x[j])),
        iterations: join(a.iterations, b.iterations),
        residual: join(a.residual, b.residual),
    }
}

/// Solve independent problems of one fixed shape — the batched
/// counterpart of [`FixedClasses::solve`], for sweeps that have many
/// unrelated fixed points to advance at once. `each(i, result)` is called
/// exactly once per problem, with `problems[i]`'s result; every result —
/// throughputs, queues, station figures, iteration count, error payload —
/// is bit-identical to `problems[i].solve()`.
///
/// A single solve is one dependent chain of divides (DESIGN.md §11), so
/// the divider idles while each quotient's inputs wind through it. The
/// vector backends run eight problems per kernel call in registers
/// (`lane_fixed_point`): four per `f64x4`, overlapping four problems per
/// instruction, and two vectors as independent chains, so one vector's
/// divides start while the other's are in flight. A vector runs until
/// its slowest lane converges. Problems are validated one by one first
/// (an invalid problem gets its error and takes no vector lane), and a
/// short last call is padded with empty problems, which converge on the
/// first iteration. [`SimdBackend::Scalar`] runs each problem through
/// [`FixedClasses::solve`], with no vector code. Allocation-free.
///
/// ```
/// use ecost_sim::amva::solve_lanes;
/// use ecost_sim::{FixedClasses, SimdBackend};
///
/// let problems: Vec<FixedClasses<1, 2>> = (1..=6)
///     .map(|n| FixedClasses {
///         population: [n as f64],
///         think_time_s: [3.0],
///         demands_s: [[1.0, 0.25]],
///     })
///     .collect();
/// solve_lanes(SimdBackend::detect(), &problems, |i, lane| {
///     let (lane, alone) = (lane.unwrap(), problems[i].solve().unwrap());
///     assert_eq!(lane.throughput[0].to_bits(), alone.throughput[0].to_bits());
///     assert_eq!(lane.iterations, alone.iterations);
/// });
/// ```
pub fn solve_lanes<const NC: usize, const S: usize>(
    backend: SimdBackend,
    problems: &[FixedClasses<NC, S>],
    mut each: impl FnMut(usize, Result<FixedSolution<NC, S>, SimError>),
) {
    if backend == SimdBackend::Scalar {
        for (i, p) in problems.iter().enumerate() {
            each(i, p.solve());
        }
        return;
    }
    let mut chunk = [FixedClasses::zeroed(); LANES];
    let mut index = [0usize; LANES];
    let mut w = 0;
    for (i, p) in problems.iter().enumerate() {
        if let Err(e) = p.validate() {
            each(i, Err(e));
            continue;
        }
        chunk[w] = *p;
        index[w] = i;
        w += 1;
        if w == LANES {
            solve_chunk(backend, &chunk, &index, &mut each);
            w = 0;
        }
    }
    if w > 0 {
        chunk[w..].fill(FixedClasses::zeroed());
        solve_chunk(backend, &chunk, &index[..w], &mut each);
    }
}

/// Run one call's worth of validated problems through the vector kernel
/// and hand each real lane (`index[l]` is lane `l`'s problem index) its
/// convergence test and station figures.
fn solve_chunk<const NC: usize, const S: usize>(
    backend: SimdBackend,
    chunk: &[FixedClasses<NC, S>; LANES],
    index: &[usize],
    each: &mut impl FnMut(usize, Result<FixedSolution<NC, S>, SimError>),
) {
    let out = simd::fixed_point_x8(backend, chunk);
    for (l, &i) in index.iter().enumerate() {
        let (q, x, iterations, residual) = out.lane(l);
        each(i, chunk[l].finish(q, x, iterations, residual));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact single-class MVA for validation.
    fn exact_mva_single(n: usize, z: f64, d: f64) -> f64 {
        let mut q = 0.0;
        let mut x = 0.0;
        for k in 1..=n {
            let r = d * (1.0 + q);
            x = k as f64 / (z + r);
            q = x * r;
        }
        x
    }

    #[test]
    fn matches_exact_mva_single_class() {
        for &n in &[1usize, 2, 4, 8] {
            for &(z, d) in &[(1.0, 1.0), (3.0, 0.5), (0.5, 2.0)] {
                let sol = solve(
                    &[ClassDemand {
                        population: n as f64,
                        think_time_s: z,
                        demands_s: vec![d],
                    }],
                    1,
                )
                .unwrap();
                let exact = exact_mva_single(n, z, d);
                let rel = (sol.throughput[0] - exact).abs() / exact;
                assert!(
                    rel < 0.08,
                    "n={n} z={z} d={d}: amva={} exact={exact}",
                    sol.throughput[0]
                );
            }
        }
    }

    #[test]
    fn n1_is_exact() {
        let sol = solve(
            &[ClassDemand {
                population: 1.0,
                think_time_s: 2.0,
                demands_s: vec![3.0],
            }],
            1,
        )
        .unwrap();
        assert!((sol.throughput[0] - 1.0 / 5.0).abs() < 1e-6);
        // Disk utilisation = X·D = 0.6: the single customer leaves the disk
        // idle 40% of the time — the co-location headroom.
        assert!((sol.station_util[0] - 0.6).abs() < 1e-5);
    }

    #[test]
    fn symmetric_classes_share_equally() {
        let c = ClassDemand {
            population: 2.0,
            think_time_s: 1.0,
            demands_s: vec![1.0],
        };
        let sol = solve(&[c.clone(), c], 1).unwrap();
        assert!((sol.throughput[0] - sol.throughput[1]).abs() < 1e-6);
        assert!(sol.station_util[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn colocation_fills_idle_disk_time() {
        // One I/O-ish job: Z = 1, D_disk = 1, one slot → util 0.5.
        let one = ClassDemand {
            population: 1.0,
            think_time_s: 1.0,
            demands_s: vec![1.0],
        };
        let alone = solve(std::slice::from_ref(&one), 1).unwrap();
        let pair = solve(&[one.clone(), one], 1).unwrap();
        // Per-job throughput drops under sharing, but far less than 2×:
        // the pair's combined throughput exceeds the standalone throughput.
        let x_alone = alone.throughput[0];
        let x_pair = pair.throughput[0];
        assert!(x_pair < x_alone);
        assert!(
            2.0 * x_pair > 1.3 * x_alone,
            "x_pair={x_pair} x_alone={x_alone}"
        );
        assert!(pair.station_util[0] > alone.station_util[0]);
    }

    #[test]
    fn zero_population_class_is_inert() {
        let busy = ClassDemand {
            population: 4.0,
            think_time_s: 1.0,
            demands_s: vec![0.5],
        };
        let idle = ClassDemand {
            population: 0.0,
            think_time_s: 0.0,
            demands_s: vec![0.0],
        };
        let with_idle = solve(&[busy.clone(), idle], 1).unwrap();
        let alone = solve(&[busy], 1).unwrap();
        assert!((with_idle.throughput[0] - alone.throughput[0]).abs() < 1e-9);
        assert_eq!(with_idle.throughput[1], 0.0);
    }

    #[test]
    fn throughput_bounded_by_capacity_and_population() {
        let sol = solve(
            &[ClassDemand {
                population: 8.0,
                think_time_s: 0.1,
                demands_s: vec![1.0],
            }],
            1,
        )
        .unwrap();
        // Capacity bound: X ≤ 1/D.
        assert!(sol.throughput[0] <= 1.0 / 1.0 + 1e-6);
        // Heavy load should approach the capacity bound.
        assert!(sol.throughput[0] > 0.9);
    }

    #[test]
    fn pure_delay_class() {
        // No shared demand: X = N/Z exactly.
        let sol = solve(
            &[ClassDemand {
                population: 3.0,
                think_time_s: 2.0,
                demands_s: vec![0.0, 0.0],
            }],
            2,
        )
        .unwrap();
        assert!((sol.throughput[0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(solve(
            &[ClassDemand {
                population: -1.0,
                think_time_s: 1.0,
                demands_s: vec![1.0],
            }],
            1
        )
        .is_err());
        assert!(solve(
            &[ClassDemand {
                population: 1.0,
                think_time_s: 0.0,
                demands_s: vec![0.0],
            }],
            1
        )
        .is_err());
        assert!(solve(
            &[ClassDemand {
                population: 1.0,
                think_time_s: 1.0,
                demands_s: vec![1.0, 1.0],
            }],
            1
        )
        .is_err());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_problem_sizes() {
        // One scratch solving a 2-class problem, then a 1-class problem,
        // then the 2-class problem again must agree to the bit with fresh
        // solves: clear+resize reuse may never leak state between solves.
        let a = ClassDemand {
            population: 4.0,
            think_time_s: 0.5,
            demands_s: vec![0.8, 0.1],
        };
        let b = ClassDemand {
            population: 2.0,
            think_time_s: 2.0,
            demands_s: vec![0.1, 0.9],
        };
        let mut scratch = AmvaScratch::new();
        for classes in [vec![a.clone(), b.clone()], vec![b.clone()], vec![a, b]] {
            let stations = classes[0].demands_s.len();
            scratch.solve(&classes, stations).unwrap();
            let fresh = solve(&classes, stations).unwrap();
            assert_eq!(scratch.iterations(), fresh.iterations);
            for j in 0..classes.len() {
                assert_eq!(
                    scratch.throughput()[j].to_bits(),
                    fresh.throughput[j].to_bits()
                );
                for s in 0..stations {
                    assert_eq!(scratch.queue(j, s).to_bits(), fresh.queue[j][s].to_bits());
                }
            }
            for s in 0..stations {
                assert_eq!(
                    scratch.station_util()[s].to_bits(),
                    fresh.station_util[s].to_bits()
                );
                assert_eq!(
                    scratch.station_queue()[s].to_bits(),
                    fresh.station_queue[s].to_bits()
                );
            }
        }
    }

    /// Two-job (2 classes × 3 stations) problems for the lane kernel:
    /// varied populations (zero, one, fractional, heavy), zero-demand
    /// stations, varied convergence speeds. Sixteen of them, so the width
    /// sweep covers full eight-problem calls and every short last call
    /// (1 to 7 real lanes, filling one or both vectors).
    fn uniform_problem_set() -> Vec<FixedClasses<2, 3>> {
        let mk =
            |pop_a: f64, pop_b: f64, da: [f64; 3], db: [f64; 3], za: f64, zb: f64| FixedClasses {
                population: [pop_a, pop_b],
                think_time_s: [za, zb],
                demands_s: [da, db],
            };
        vec![
            mk(2.0, 3.0, [1.0, 0.2, 0.0], [0.3, 0.9, 0.1], 3.0, 1.0),
            mk(8.0, 1.0, [2.0, 0.0, 0.4], [0.1, 0.1, 0.1], 0.1, 5.0),
            mk(0.0, 3.0, [0.0, 0.0, 0.0], [0.5, 0.5, 0.2], 0.0, 1.0),
            mk(1.0, 1.0, [1.5, 0.0, 0.0], [0.0, 1.5, 0.0], 0.0, 0.0),
            mk(6.0, 2.5, [0.2, 0.2, 0.2], [0.4, 0.0, 0.8], 4.0, 0.25),
            mk(5.0, 4.0, [1.1, 0.7, 0.3], [0.9, 1.3, 0.0], 0.25, 0.5),
            mk(3.0, 0.0, [0.0, 0.0, 0.9], [0.0, 0.0, 0.0], 2.0, 0.0),
            mk(4.0, 4.0, [0.8, 0.1, 0.5], [0.1, 0.9, 0.5], 0.5, 2.0),
            mk(7.0, 2.0, [0.6, 1.4, 0.2], [0.2, 0.3, 1.1], 1.5, 0.75),
            mk(1.5, 1.5, [0.4, 0.4, 0.4], [0.7, 0.0, 0.7], 0.0, 3.0),
            mk(9.0, 0.5, [1.8, 0.1, 0.0], [0.0, 0.2, 0.6], 0.2, 0.9),
            mk(0.5, 6.0, [0.3, 0.0, 0.2], [1.2, 0.8, 0.4], 6.0, 0.1),
            mk(2.5, 2.5, [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], 1.0, 1.0),
            mk(12.0, 3.0, [0.9, 0.9, 0.9], [0.3, 0.6, 0.9], 0.4, 2.5),
            mk(4.5, 0.0, [0.5, 0.7, 0.0], [0.0, 0.0, 0.0], 0.8, 0.0),
            mk(3.5, 5.5, [1.3, 0.2, 0.8], [0.6, 1.1, 0.2], 2.2, 0.3),
        ]
    }

    /// A lane result as bit patterns (errors as-is), so `-0.0`/`+0.0`
    /// and NaN payloads compare exactly.
    type LaneBits = Result<(Vec<u64>, usize), SimError>;

    fn lane_bits<const NC: usize, const S: usize>(
        r: Result<FixedSolution<NC, S>, SimError>,
    ) -> LaneBits {
        r.map(|sol| {
            let mut v: Vec<u64> = sol.throughput.iter().map(|x| x.to_bits()).collect();
            v.extend(sol.queue.iter().flatten().map(|x| x.to_bits()));
            v.extend(sol.station_util.iter().map(|x| x.to_bits()));
            v.extend(sol.station_queue.iter().map(|x| x.to_bits()));
            (v, sol.iterations)
        })
    }

    /// Every lane's result from one [`solve_lanes`] call, in problem
    /// order; each lane must be reported exactly once.
    fn lanes<const NC: usize, const S: usize>(
        backend: SimdBackend,
        problems: &[FixedClasses<NC, S>],
    ) -> Vec<LaneBits> {
        let mut out: Vec<Option<LaneBits>> = vec![None; problems.len()];
        solve_lanes(backend, problems, |i, r| {
            assert!(out[i].is_none(), "lane {i} reported twice");
            out[i] = Some(lane_bits(r));
        });
        out.into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("lane {i} never reported")))
            .collect()
    }

    #[test]
    fn interleaved_kernel_is_bit_identical_to_scalar_at_every_width() {
        let problems = uniform_problem_set();
        for width in 1..=problems.len() {
            for window in problems.chunks(width) {
                let got = lanes(SimdBackend::detect(), window);
                for (i, p) in window.iter().enumerate() {
                    assert_eq!(got[i], lane_bits(p.solve()), "width {width} lane {i}");
                }
            }
        }
    }

    #[test]
    fn every_simd_backend_is_bit_identical_to_the_scalar_backend() {
        let problems = uniform_problem_set();
        // Portable always; Avx2 validates down to Portable off-x86, so
        // on every machine this covers each backend that can run here.
        for backend in [SimdBackend::Portable, SimdBackend::Avx2] {
            for width in 1..=problems.len() {
                for window in problems.chunks(width) {
                    assert_eq!(
                        lanes(backend, window),
                        lanes(SimdBackend::Scalar, window),
                        "backend {backend:?} width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_report_each_failing_lane_and_keep_good_lanes() {
        let good = |scale: f64| FixedClasses::<1, 2> {
            population: [2.0],
            think_time_s: [3.0 * scale],
            demands_s: [[1.0, 0.25 * scale]],
        };
        // A population so large that queue lengths carry no digits below
        // the tolerance: the residual stalls on rounding noise for the
        // whole iteration budget.
        let stalled = |population: f64| FixedClasses::<1, 2> {
            population: [population],
            think_time_s: [57_564.804_853_312_62],
            demands_s: [[0.000_308_869_578_553_701_9, 0.0]],
        };
        let negative = FixedClasses::<1, 2> {
            population: [-1.0],
            ..good(1.0)
        };
        let bad_demand = FixedClasses::<1, 2> {
            demands_s: [[1.0, -1.0]],
            ..good(1.0)
        };
        let problems = [
            good(1.0),
            stalled(1.208_784_889_756_496e17),
            negative,
            good(2.0),
            stalled(3.5e17),
            bad_demand,
            good(0.5),
        ];
        for backend in [
            SimdBackend::Scalar,
            SimdBackend::Portable,
            SimdBackend::Avx2,
        ] {
            let got = lanes(backend, &problems);
            for (i, p) in problems.iter().enumerate() {
                assert_eq!(got[i], lane_bits(p.solve()), "{backend:?} lane {i}");
            }
            // Each failing lane carries its own error, payload included.
            assert!(matches!(got[1], Err(SimError::NoConvergence { .. })));
            assert_ne!(got[1], got[4]);
            assert!(matches!(got[2], Err(SimError::InvalidDemand(_))));
            assert!(matches!(got[5], Err(SimError::InvalidDemand(_))));
            for i in [0, 3, 6] {
                assert!(got[i].is_ok(), "{backend:?} lane {i}");
            }
        }
    }

    #[test]
    fn two_stations_multiclass_utilisation_valid() {
        let a = ClassDemand {
            population: 4.0,
            think_time_s: 0.5,
            demands_s: vec![0.8, 0.1],
        };
        let b = ClassDemand {
            population: 2.0,
            think_time_s: 2.0,
            demands_s: vec![0.1, 0.9],
        };
        let sol = solve(&[a, b], 2).unwrap();
        for u in &sol.station_util {
            assert!(*u >= 0.0 && *u <= 1.0 + 1e-9);
        }
        assert!(sol.throughput.iter().all(|x| *x > 0.0));
    }
}
