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

impl AmvaSolution {
    /// Mean number of class-`j` customers currently *thinking* (at their
    /// private cores) — by Little's law, `X_j · Z_j`.
    pub fn thinking(&self, class: usize, classes: &[ClassDemand]) -> f64 {
        self.throughput[class] * classes[class].think_time_s
    }
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
/// Two kernels run the same arithmetic: [`Self::solve`] hands the two
/// shapes the executor produces (1 class × 2 stations, 2 × 3) to the
/// register-resident [`FixedClasses`] kernel, and
/// [`Self::solve_runtime_shape`] is the slice-walking loop for any shape —
/// the fallback for wider mixes and the oracle the fixed kernel is pinned
/// against. [`solve`] wraps the runtime-shape loop.
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
    /// through the accessors below. Results, iteration counts and errors
    /// are bit-identical to [`Self::solve_runtime_shape`] (and so to
    /// [`solve`]): the 1×2 and 2×3 shapes run the [`FixedClasses`] kernel,
    /// which writes its queues, throughputs and iteration count back here
    /// before the shared convergence test and [`Self::finish`].
    pub fn solve(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
        let residual = match (classes.len(), stations) {
            (1, 2) => self.run_fixed(&FixedClasses::<1, 2>::from_classes(classes, stations)?),
            (2, 3) => self.run_fixed(&FixedClasses::<2, 3>::from_classes(classes, stations)?),
            _ => {
                self.begin(classes, stations)?;
                self.run_loop(classes)
            }
        };
        self.convergence_err(residual)?;
        self.finish(classes);
        Ok(())
    }

    /// [`Self::solve`] on the runtime-shape loop whatever the shape: the
    /// oracle the fixed-shape kernel is tested and benchmarked against.
    ///
    /// The fixed point is decomposed into [`Self::begin`] (validate + seed),
    /// [`Self::iterate`] (one Bard–Schweitzer step) and [`Self::finish`]
    /// (derived per-station figures); [`AmvaBatch`] shares the validation,
    /// convergence test and `finish` with it, and its SoA round runs
    /// `iterate`'s arithmetic across independent lanes.
    pub fn solve_runtime_shape(
        &mut self,
        classes: &[ClassDemand],
        stations: usize,
    ) -> Result<(), SimError> {
        self.begin(classes, stations)?;
        let residual = self.run_loop(classes);
        self.convergence_err(residual)?;
        self.finish(classes);
        Ok(())
    }

    /// Iterate a seeded problem to convergence or the iteration budget;
    /// returns the last residual.
    fn run_loop(&mut self, classes: &[ClassDemand]) -> f64 {
        let mut residual = f64::INFINITY;
        for _ in 0..MAX_ITER {
            residual = self.iterate(classes);
            if residual < TOL {
                break;
            }
        }
        residual
    }

    /// Run the fixed-shape kernel on a problem the caller already
    /// validated, and write its state back into this scratch (sized here)
    /// so the accessors, [`Self::convergence_err`] and [`Self::finish`]
    /// see exactly what the runtime-shape loop would have left. Returns
    /// the last residual.
    fn run_fixed<const NC: usize, const S: usize>(&mut self, p: &FixedClasses<NC, S>) -> f64 {
        let (q, x, iterations, residual) = p.fixed_point();
        self.nc = NC;
        self.stations = S;
        self.q.clear();
        self.q.extend(q.iter().flatten());
        self.x.clear();
        self.x.extend_from_slice(&x);
        self.iterations = iterations;
        residual
    }

    /// Validate the problem, size the buffers and seed the fixed point.
    fn begin(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
        self.begin_sized(classes, stations)?;
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

    /// The validation/sizing half of [`AmvaScratch::begin`], without the
    /// queue seed. Resident windows start here: their seed is recomputed
    /// inside [`Soa::pack_window`] every round (same expression, same
    /// bits), so spreading it into the scalar scratch as well would be
    /// dead work — nothing reads `q` before [`Soa::retire`] writes the
    /// converged queues back.
    fn begin_sized(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
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

    /// The scalar loop's post-exit convergence test.
    fn convergence_err(&self, residual: f64) -> Result<(), SimError> {
        convergence_check(self.iterations, residual)
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
/// Runs the runtime-shape loop ([`AmvaScratch::solve_runtime_shape`]) for
/// every shape, so callers that serve as an oracle for the fixed-shape
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
    scratch.solve_runtime_shape(classes, stations)?;
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

    /// Validate `classes` against `stations` (the same checks, in the same
    /// order, as [`AmvaScratch::solve_runtime_shape`]) and copy them in.
    /// The caller guarantees the shape: `NC` classes over `S == stations`.
    fn from_classes(
        classes: &[ClassDemand],
        stations: usize,
    ) -> Result<FixedClasses<NC, S>, SimError> {
        let mut p = FixedClasses::zeroed();
        for (j, c) in classes.iter().enumerate().take(NC) {
            c.validate(stations)?;
            p.population[j] = c.population;
            p.think_time_s[j] = c.think_time_s;
            p.demands_s[j].copy_from_slice(&c.demands_s[..S]);
        }
        Ok(p)
    }

    /// Validate and solve. Errors, results and iteration counts are
    /// bit-identical to [`AmvaScratch::solve_runtime_shape`] on the
    /// equivalent [`ClassDemand`] slice.
    pub fn solve(&self) -> Result<FixedSolution<NC, S>, SimError> {
        for j in 0..NC {
            validate_class(
                self.population[j],
                self.think_time_s[j],
                &self.demands_s[j],
                S,
            )?;
        }
        let (queue, throughput, iterations, residual) = self.fixed_point();
        convergence_check(iterations, residual)?;
        // `AmvaScratch::finish`, by value: class-order sums from +0.0.
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

/// Lane-interleaved batch of *independent* AMVA solves.
///
/// `K` unrelated fixed points advance in lockstep: each global round runs
/// one Bard–Schweitzer iteration in every still-unconverged lane. A lane's
/// loop-carried dependency — next iteration's queues feed on this one's —
/// is what caps the scalar solver (DESIGN.md §11: a dependent divide chain),
/// but *across* lanes the rounds are independent, so interleaving them lets
/// out-of-order execution overlap the chains.
///
/// Each lane runs the exact scalar [`AmvaScratch::solve`] sequence: same
/// seed, same per-iteration arithmetic order, same damping, same
/// convergence test and iteration count. Converged lanes are compacted out
/// of later rounds and never re-touched. Every lane is therefore
/// bit-identical to a scalar solve of the same problem.
///
/// A batch solves *resident windows* of two or more shape-uniform lanes
/// ([`AmvaBatch::begin_window`], then one [`AmvaBatch::solve_window`] per
/// outer round); a single problem has nothing to interleave with and
/// belongs on the scalar [`AmvaScratch::solve`].
///
/// Lane buffers grow on first use and are reused afterwards; a warm batch
/// allocates nothing as long as problem sizes do not grow.
///
/// The lane loop runs on an explicit `f64x4` vector backend
/// ([`SimdBackend`], auto-detected; see `crate::simd`): four adjacent
/// columns advance per vector step, with the odd tail (live width ≢ 0
/// mod 4) taking the scalar lane loop. Backends are bit-identical by
/// construction, so the choice never shows up in results — only in
/// throughput.
#[derive(Debug)]
pub struct AmvaBatch {
    lanes: Vec<AmvaScratch>,
    residual: Vec<f64>,
    errs: Vec<Option<SimError>>,
    soa: Soa,
    backend: SimdBackend,
    win: WindowState,
}

impl Default for AmvaBatch {
    fn default() -> AmvaBatch {
        AmvaBatch {
            lanes: Vec::new(),
            residual: Vec::new(),
            errs: Vec::new(),
            soa: Soa::default(),
            backend: SimdBackend::detect(),
            win: WindowState::default(),
        }
    }
}

/// Resident-window state for [`AmvaBatch::begin_window`] /
/// [`AmvaBatch::solve_window`]: the shape of the open shape-uniform
/// window, validated once so re-solves of the same window skip
/// per-round validation entirely.
///
/// No queue seed is stored: `begin`'s population spread depends only on
/// each class's population and the *signs* of its demands — both
/// outer-invariant for the contention fixed point driving this API — so
/// [`Soa::pack_window`] recomputes it in place each round with the same
/// expression (and therefore the same bits), even after [`Soa::retire`]
/// scrambles the working columns.
#[derive(Debug, Default)]
struct WindowState {
    /// `(classes, stations, width)` of the open window; `None` when no
    /// window is open.
    shape: Option<(usize, usize, usize)>,
}

/// Structure-of-arrays state for shape-uniform windows: every per-lane
/// quantity is stored lane-contiguous (`[... logical index ...][lane]`
/// with a fixed column stride), so the lane loop — the innermost loop of
/// every round phase — walks unit-stride memory with no per-lane pointer
/// chasing. That contiguity is what actually buys the interleaving win:
/// each lane's loop-carried chain (queues → residence → throughput →
/// queues, through a divide) stalls a scalar solve, and K adjacent
/// independent lanes give out-of-order execution real work to overlap
/// into those stalls.
///
/// Converged lanes are *compacted out*: the last live column is swapped
/// into the retiring column's slot (a handful of moves), so live width
/// shrinks as lanes finish and dead lanes are never re-touched — which
/// both preserves bit-identity and keeps late rounds from paying for
/// drained lanes.
#[derive(Debug, Default)]
struct Soa {
    /// Column stride (the window's initial live width).
    stride: usize,
    /// Queue lengths, `[class × station][lane]`.
    q: Vec<f64>,
    /// Per-class throughput, `[class][lane]`.
    x: Vec<f64>,
    /// Station demands, `[class × station][lane]`.
    dem: Vec<f64>,
    /// Population, `[class][lane]`.
    pop: Vec<f64>,
    /// Precomputed `population - 1.0` (bit-identical hoist), `[class][lane]`.
    nm1: Vec<f64>,
    /// Think time, `[class][lane]`.
    think: Vec<f64>,
    /// Total queue per station, `[station][lane]` (per-round scratch).
    qtot: Vec<f64>,
    /// Residence times, `[station][lane]` (per-class scratch).
    r: Vec<f64>,
    /// Residence-time accumulator, `[lane]` (per-class scratch).
    rtot: Vec<f64>,
    /// This round's residual, `[lane]`.
    res: Vec<f64>,
    /// Iterations taken so far, `[lane]`.
    iters: Vec<usize>,
    /// Which batch lane each live column belongs to, `[lane]`.
    lane_of: Vec<usize>,
}

impl Soa {
    /// One lockstep Bard–Schweitzer round over the first `kw` columns.
    /// Each column executes exactly the floating-point sequence of
    /// [`AmvaScratch::iterate`] — same class order, same station order,
    /// same accumulation order, `(q·(n-1))/n` association included — so
    /// results stay bit-identical to scalar solves; only the interleaving
    /// across lanes differs.
    ///
    /// The vector backends peel the widest `f64x4`-aligned prefix of the
    /// live columns into [`round_chunks_impl`] and run the remaining tail
    /// columns (`kw mod 4`) through the scalar span. Columns are fully
    /// independent, so splitting them between kernels cannot change any
    /// column's bits.
    fn round(&mut self, kw: usize, nc: usize, stations: usize, backend: SimdBackend) {
        for it in self.iters[..kw].iter_mut() {
            *it += 1;
        }
        for v in self.res[..kw].iter_mut() {
            *v = 0.0;
        }
        let kw4 = match backend {
            SimdBackend::Scalar => 0,
            _ => kw & !3,
        };
        if kw4 > 0 {
            simd::round_chunks(backend, self.span(kw4, nc, stations));
        }
        if kw4 < kw {
            self.round_span(kw4, kw, nc, stations);
        }
    }

    /// Borrow the SoA state as a [`RoundSpan`] over the first `kw4` live
    /// columns for the vector kernel.
    fn span(&mut self, kw4: usize, nc: usize, stations: usize) -> RoundSpan<'_> {
        RoundSpan {
            q: &mut self.q,
            x: &mut self.x,
            dem: &self.dem,
            pop: &self.pop,
            nm1: &self.nm1,
            think: &self.think,
            qtot: &mut self.qtot,
            r: &mut self.r,
            res: &mut self.res,
            ks: self.stride,
            kw4,
            nc,
            stations,
        }
    }

    /// The scalar round body over columns `lo..hi` — the original
    /// lane-innermost loops, also serving as the vector backends' tail
    /// path (and, via `lo = 0, hi = kw`, as the whole `Scalar` arm).
    fn round_span(&mut self, lo: usize, hi: usize, nc: usize, stations: usize) {
        let ks = self.stride;
        let w = hi - lo;
        let Soa {
            q,
            x,
            dem,
            pop,
            nm1,
            think,
            qtot,
            r,
            rtot,
            res,
            ..
        } = self;
        let rtot = &mut rtot[lo..hi];
        let res = &mut res[lo..hi];
        // Total queue per station, accumulated in class order. The first
        // class assigns instead of zero-then-add: queues are never -0.0
        // (seeded non-negative; round-to-nearest sums only produce +0.0),
        // so `q` and `0.0 + q` are the same bits.
        for j in 0..nc {
            for s in 0..stations {
                let base = (j * stations + s) * ks + lo;
                let qrow = &q[base..base + w];
                let qb = s * ks + lo;
                let qt = &mut qtot[qb..qb + w];
                if j == 0 {
                    qt[..w].copy_from_slice(qrow);
                } else {
                    for l in 0..w {
                        qt[l] += qrow[l];
                    }
                }
            }
        }
        for j in 0..nc {
            let cb = j * ks + lo;
            // Class-row slices hoisted once: the station loops below then
            // index only length-`w` slices, so bounds checks vanish.
            let prow = &pop[cb..cb + w];
            let nrow = &nm1[cb..cb + w];
            let trow = &think[cb..cb + w];
            let xrow = &mut x[cb..cb + w];
            // Class prologue: zero-population lanes emit x = 0 and sit
            // the class out (their scratch writes below are never read).
            for l in 0..w {
                if prow[l] <= 0.0 {
                    xrow[l] = 0.0;
                } else {
                    rtot[l] = 0.0;
                }
            }
            // Residence times, lanes innermost. Zero-demand stations get
            // `r = 0.0` written in-pass — the value the scalar kernel's
            // up-front zeroing leaves there.
            for s in 0..stations {
                let base = (j * stations + s) * ks + lo;
                let qrow = &q[base..base + w];
                let drow = &dem[base..base + w];
                let qb = s * ks + lo;
                let qt = &qtot[qb..qb + w];
                let rrow = &mut r[qb..qb + w];
                for l in 0..w {
                    let n = prow[l];
                    if n <= 0.0 {
                        continue;
                    }
                    let d = drow[l];
                    if d <= 0.0 {
                        rrow[l] = 0.0;
                        continue;
                    }
                    let qjs = qrow[l];
                    let others = qt[l] - qjs;
                    let own = if n > 1.0 { qjs * nrow[l] / n } else { 0.0 };
                    let rv = d * (1.0 + others + own);
                    rrow[l] = rv;
                    rtot[l] += rv;
                }
            }
            // Little's law on the full cycle: one divide per lane.
            for l in 0..w {
                let n = prow[l];
                if n > 0.0 {
                    xrow[l] = n / (trow[l] + rtot[l]);
                }
            }
            // Damped queue update + residual, lanes innermost again.
            for s in 0..stations {
                let base = (j * stations + s) * ks + lo;
                let qrow = &mut q[base..base + w];
                let qb = s * ks + lo;
                let rrow = &r[qb..qb + w];
                for l in 0..w {
                    if prow[l] <= 0.0 {
                        continue;
                    }
                    let new_q = xrow[l] * rrow[l];
                    let delta = new_q - qrow[l];
                    res[l] = res[l].max(delta.abs());
                    qrow[l] += DAMPING * delta;
                }
            }
        }
    }

    /// Retire column `col`: copy its converged state out to its lane's
    /// scalar scratch, then compact by moving the last live column
    /// (`kw - 1`) into its slot. The caller shrinks the live width.
    fn retire(
        &mut self,
        col: usize,
        kw: usize,
        nc: usize,
        stations: usize,
        lanes: &mut [AmvaScratch],
        residual: &mut [f64],
    ) {
        let ks = self.stride;
        let lane = self.lane_of[col];
        let sc = &mut lanes[lane];
        for j in 0..nc {
            for s in 0..stations {
                sc.q[j * stations + s] = self.q[(j * stations + s) * ks + col];
            }
            sc.x[j] = self.x[j * ks + col];
        }
        sc.iterations = self.iters[col];
        residual[lane] = self.res[col];
        let last = kw - 1;
        if col != last {
            for j in 0..nc {
                for s in 0..stations {
                    let idx = (j * stations + s) * ks;
                    self.q[idx + col] = self.q[idx + last];
                    self.dem[idx + col] = self.dem[idx + last];
                }
                let cb = j * ks;
                self.x[cb + col] = self.x[cb + last];
                self.pop[cb + col] = self.pop[cb + last];
                self.nm1[cb + col] = self.nm1[cb + last];
                self.think[cb + col] = self.think[cb + last];
            }
            self.res[col] = self.res[last];
            self.iters[col] = self.iters[last];
            self.lane_of[col] = self.lane_of[last];
        }
    }

    /// Load the live columns of a resident window, one column per live
    /// lane, and return the live width. Validation was paid once by
    /// [`AmvaBatch::begin_window`]. The queue seed is recomputed in place
    /// (`begin`'s population spread: it depends only on class population
    /// and demand signs, both fixed across the window's rounds, so
    /// re-evaluating the same expression reproduces the same bits),
    /// demands/think/populations are re-read from `problems` (they carry
    /// the caller's per-round values), and buffers are resized without
    /// zero-fill: every cell the round kernel reads is either written here
    /// or written inside the round before its first read (`qtot`/`r`
    /// assign-then-use, `x` stored for every live column each round, `res`
    /// zeroed by [`Soa::round`]).
    fn pack_window(
        &mut self,
        problems: &[(&[ClassDemand], usize)],
        live: &[usize],
        nc: usize,
        stations: usize,
    ) -> usize {
        self.lane_of.clear();
        self.lane_of.extend_from_slice(live);
        let kw = live.len();
        self.stride = kw;
        self.q.resize(nc * stations * kw, 0.0);
        self.dem.resize(nc * stations * kw, 0.0);
        self.x.resize(nc * kw, 0.0);
        self.pop.resize(nc * kw, 0.0);
        self.nm1.resize(nc * kw, 0.0);
        self.think.resize(nc * kw, 0.0);
        self.qtot.resize(stations * kw, 0.0);
        self.r.resize(stations * kw, 0.0);
        self.rtot.resize(kw, 0.0);
        self.res.resize(kw, 0.0);
        self.iters.resize(kw, 0);
        for it in self.iters[..kw].iter_mut() {
            *it = 0;
        }
        for (col, &lane) in live.iter().enumerate() {
            let classes = problems[lane].0;
            for (j, c) in classes.iter().enumerate() {
                let cb = j * kw;
                self.pop[cb + col] = c.population;
                self.nm1[cb + col] = c.population - 1.0;
                self.think[cb + col] = c.think_time_s;
                let seeded = c.population > 0.0;
                let share = c.population / (stations as f64 + 1.0);
                for s in 0..stations {
                    let idx = (j * stations + s) * kw;
                    let d = c.demands_s[s];
                    self.dem[idx + col] = d;
                    self.q[idx + col] = if seeded && d > 0.0 { share } else { 0.0 };
                }
            }
        }
        kw
    }
}

/// Borrowed view of the SoA state handed to the vector round kernel
/// ([`round_chunks_impl`]): the first `kw4` live columns (a multiple of
/// 4) of every lane-contiguous array, plus the window's shape. Exists so
/// the kernel can live behind a trait-generic function without a
/// ten-argument signature.
pub(crate) struct RoundSpan<'a> {
    /// Queue lengths, `[class × station][lane]`.
    pub(crate) q: &'a mut [f64],
    /// Per-class throughput, `[class][lane]`.
    pub(crate) x: &'a mut [f64],
    /// Station demands, `[class × station][lane]`.
    pub(crate) dem: &'a [f64],
    /// Population, `[class][lane]`.
    pub(crate) pop: &'a [f64],
    /// Precomputed `population - 1.0`, `[class][lane]`.
    pub(crate) nm1: &'a [f64],
    /// Think time, `[class][lane]`.
    pub(crate) think: &'a [f64],
    /// Total queue per station, `[station][lane]` (per-round scratch).
    pub(crate) qtot: &'a mut [f64],
    /// Residence times, `[station][lane]` (per-class scratch).
    pub(crate) r: &'a mut [f64],
    /// This round's residual, `[lane]`.
    pub(crate) res: &'a mut [f64],
    /// Column stride (the window's initial live width).
    pub(crate) ks: usize,
    /// Vector-covered live width (`live width & !3`).
    pub(crate) kw4: usize,
    /// Classes per lane.
    pub(crate) nc: usize,
    /// Shared stations per lane.
    pub(crate) stations: usize,
}

/// The vector round body over the first `kw4` columns (`kw4 % 4 == 0`),
/// four lanes per step, generic over the `f64x4` backend. Per lane this
/// is exactly the scalar [`Soa::round_span`] floating-point sequence; the
/// differences are purely structural and bit-neutral:
///
/// * The station-total and residence accumulators live in registers
///   instead of memory — same adds, same order, and f64 registers hold
///   exactly the stored value (no x87-style extended precision).
/// * Per-lane branches become masks + blends. Dead lanes (population ≤ 0)
///   and zero-demand stations blend `rv = 0.0` into residence state; the
///   running residence total starts at `+0.0` and rv ≥ demand > 0 on
///   every live add, so it is never `-0.0` and adding a masked lane's
///   `+0.0` is bit-exact. A masked lane's discarded alternative (e.g. the
///   `(q·(n-1))/n` divide when `n ≤ 1`) may produce inf/NaN; IEEE 754
///   arithmetic is non-trapping and the blend throws the value away.
/// * The residual `f64::max` becomes `select(|Δ| > res, |Δ|, res)` —
///   bit-identical for the non-NaN, non-negative values the reduction
///   sees (on ties either pick is the same bits).
#[inline(always)]
pub(crate) fn round_chunks_impl<V: LaneVec>(span: RoundSpan<'_>) {
    let RoundSpan {
        q,
        x,
        dem,
        pop,
        nm1,
        think,
        qtot,
        r,
        res,
        ks,
        kw4,
        nc,
        stations,
    } = span;
    let zero = V::splat(0.0);
    let one = V::splat(1.0);
    let damp = V::splat(DAMPING);
    for l in (0..kw4).step_by(4) {
        // Total queue per station for these four lanes, accumulated in
        // class order exactly like the scalar kernel (assign, then add).
        for s in 0..stations {
            let mut qt = V::load(q, s * ks + l);
            for j in 1..nc {
                qt = qt.add(V::load(q, (j * stations + s) * ks + l));
            }
            qt.store(qtot, s * ks + l);
        }
        for j in 0..nc {
            let cb = j * ks + l;
            let n = V::load(pop, cb);
            let live = n.gt(zero);
            let nm1v = V::load(nm1, cb);
            // Residence times; the per-lane total stays in a register
            // across the station walk. Dead lanes accumulate +0.0 per
            // station — bit-neutral (see the doc comment) — and their
            // r-row scratch writes are never read.
            let mut rtot = zero;
            for s in 0..stations {
                let base = (j * stations + s) * ks + l;
                let qjs = V::load(q, base);
                let d = V::load(dem, base);
                let qt = V::load(qtot, s * ks + l);
                let others = qt.sub(qjs);
                // `(q·(n-1))/n`, left-associative like the scalar kernel.
                let own = V::select(n.gt(one), qjs.mul(nm1v).div(n), zero);
                let rv = d.mul(one.add(others).add(own));
                let rv = V::select(live.and(d.gt(zero)), rv, zero);
                rv.store(r, s * ks + l);
                rtot = rtot.add(rv);
            }
            // Little's law; dead lanes emit x = 0.0 (the scalar
            // prologue's value).
            let xv = V::select(live, n.div(V::load(think, cb).add(rtot)), zero);
            xv.store(x, cb);
            // Damped queue update + residual max, dead lanes held.
            let mut resv = V::load(res, l);
            for s in 0..stations {
                let base = (j * stations + s) * ks + l;
                let qv = V::load(q, base);
                let delta = xv.mul(V::load(r, s * ks + l)).sub(qv);
                let absd = delta.abs();
                resv = V::select(live.and(absd.gt(resv)), absd, resv);
                V::select(live, qv.add(damp.mul(delta)), qv).store(q, base);
            }
            resv.store(res, l);
        }
    }
}

impl AmvaBatch {
    /// Empty batch; lanes are created on first [`AmvaBatch::begin_window`].
    pub fn new() -> AmvaBatch {
        AmvaBatch::default()
    }

    /// Select the vector backend for the lane-interleaved kernel. The
    /// request is validated against the running CPU (an unsupported
    /// backend falls back to the portable lanes); every backend is
    /// bit-identical, so this is a throughput knob, never a results knob.
    pub fn set_simd_backend(&mut self, backend: SimdBackend) {
        self.backend = backend.validated();
    }

    /// The vector backend the next [`AmvaBatch::solve_window`] will use.
    pub fn simd_backend(&self) -> SimdBackend {
        self.backend
    }

    /// Lane `i`'s solver state after [`AmvaBatch::solve_window`] — read it with
    /// the scalar accessors ([`AmvaScratch::throughput`],
    /// [`AmvaScratch::queue`], [`AmvaScratch::station_util`],
    /// [`AmvaScratch::iterations`], …).
    pub fn lane(&self, i: usize) -> &AmvaScratch {
        &self.lanes[i]
    }

    /// Open a *resident window* over `problems`: validate every class once,
    /// compute the scalar queue seed once, and capture both so repeated
    /// [`AmvaBatch::solve_window`] calls over the same window skip all of
    /// that per-round bookkeeping.
    ///
    /// Returns `Ok(true)` when the window is resident-eligible (at least
    /// two lanes, shape-uniform — the sweep drivers' case). `Ok(false)`
    /// opens no window: a single problem belongs on the scalar
    /// [`AmvaScratch::solve`], and mixed shapes on separate windows. A lane
    /// that fails validation fails the call with the lowest such lane's
    /// error, exactly as a scalar solve of that lane would.
    ///
    /// Contract for the rounds that follow: the *shape* (class and station
    /// counts), each class's population, and the sign of every demand must
    /// stay fixed across `solve_window` calls — exactly what an outer
    /// contention fixed point varies nothing but demand magnitudes and
    /// think times. Under that contract each lane of every round is
    /// bit-identical to a fresh scalar [`AmvaScratch::solve`] of the same
    /// problem: the seed captured here is the seed `begin` would recompute.
    pub fn begin_window(&mut self, problems: &[(&[ClassDemand], usize)]) -> Result<bool, SimError> {
        self.win.shape = None;
        let k = problems.len();
        let uniform = k >= 2
            && problems
                .windows(2)
                .all(|w| w[0].0.len() == w[1].0.len() && w[0].1 == w[1].1);
        if !uniform {
            return Ok(false);
        }
        while self.lanes.len() < k {
            self.lanes.push(AmvaScratch::new());
        }
        self.residual.clear();
        self.residual.resize(k, f64::INFINITY);
        self.errs.clear();
        self.errs.resize(k, None);
        let nc = problems[0].0.len();
        let stations = problems[0].1;
        // One scalar validation/sizing pass per lane for the whole window;
        // the population-spread seed is outer-invariant too, but it lives
        // in `pack_window` (recomputed per round, same bits) rather than
        // being captured here.
        for (i, &(classes, st)) in problems.iter().enumerate() {
            self.lanes[i].begin_sized(classes, st)?;
        }
        self.win.shape = Some((nc, stations, k));
        Ok(true)
    }

    /// One full lockstep solve of the open resident window's `live` lanes —
    /// semantically a fresh scalar solve of each of those lanes, minus the
    /// validation and buffer sizing that [`AmvaBatch::begin_window`]
    /// already paid. `problems` must be the
    /// window's full lane array (indexed by original lane id, carrying the
    /// caller's current per-round demands/think values); `live` selects the
    /// lanes still iterating.
    ///
    /// Afterwards every live lane is readable through [`AmvaBatch::lane`]
    /// exactly as if [`AmvaScratch::solve`] had run it alone. On failure
    /// the lowest-indexed failing live lane's error is returned.
    pub fn solve_window(
        &mut self,
        problems: &[(&[ClassDemand], usize)],
        live: &[usize],
    ) -> Result<(), SimError> {
        let (nc, stations, k) = self
            .win
            .shape
            .ok_or(SimError::Internal("solve_window without an open window"))?;
        if live.iter().any(|&l| l >= k) || problems.len() != k {
            return Err(SimError::Internal("solve_window lane out of window"));
        }
        if live.is_empty() {
            return Ok(());
        }
        let mut kw = self.soa.pack_window(problems, live, nc, stations);
        for _round in 0..MAX_ITER {
            if kw == 0 {
                break;
            }
            self.soa.round(kw, nc, stations, self.backend);
            let mut col = 0;
            while col < kw {
                if self.soa.res[col] < TOL {
                    self.soa
                        .retire(col, kw, nc, stations, &mut self.lanes, &mut self.residual);
                    kw -= 1;
                } else {
                    col += 1;
                }
            }
        }
        while kw > 0 {
            self.soa
                .retire(0, kw, nc, stations, &mut self.lanes, &mut self.residual);
            kw -= 1;
        }
        let mut first_err: Option<usize> = None;
        for &i in live {
            match self.lanes[i].convergence_err(self.residual[i]) {
                Ok(()) => self.lanes[i].finish(problems[i].0),
                Err(e) => {
                    self.errs[i] = Some(e);
                    if first_err.is_none_or(|f| i < f) {
                        first_err = Some(i);
                    }
                }
            }
        }
        match first_err {
            Some(i) => match &self.errs[i] {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            },
            None => Ok(()),
        }
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

    /// Shape-uniform family (2 classes × 3 stations throughout) so the
    /// batch takes the lane-interleaved kernel: varied populations (zero,
    /// one, fractional, heavy), zero-demand stations, varied convergence
    /// speeds.
    fn uniform_problem_set() -> Vec<Vec<ClassDemand>> {
        let mk = |pop_a: f64, pop_b: f64, da: [f64; 3], db: [f64; 3], za: f64, zb: f64| {
            vec![
                ClassDemand {
                    population: pop_a,
                    think_time_s: za,
                    demands_s: da.to_vec(),
                },
                ClassDemand {
                    population: pop_b,
                    think_time_s: zb,
                    demands_s: db.to_vec(),
                },
            ]
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
            // Second half: 16 lanes total, so the width sweep exercises
            // full four-lane vector windows plus every tail residue
            // (live count ≡ 1, 2, 3 mod 4) and mid-round compaction.
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

    /// Open a resident window over `probs` and solve every lane once.
    /// `Ok(false)` when the window is not resident-eligible (one lane).
    fn solve_resident(
        batch: &mut AmvaBatch,
        probs: &[(&[ClassDemand], usize)],
    ) -> Result<bool, SimError> {
        if !batch.begin_window(probs)? {
            return Ok(false);
        }
        let live: Vec<usize> = (0..probs.len()).collect();
        batch.solve_window(probs, &live)?;
        Ok(true)
    }

    /// Assert lane `lane` of `batch` holds exactly the state of `scalar`.
    fn assert_lane_matches(batch: &AmvaBatch, lane: usize, scalar: &AmvaScratch, what: &str) {
        let l = batch.lane(lane);
        assert_eq!(l.iterations(), scalar.iterations(), "{what} lane {lane}");
        let (nc, stations) = (scalar.throughput().len(), scalar.station_util().len());
        for j in 0..nc {
            assert_eq!(
                l.throughput()[j].to_bits(),
                scalar.throughput()[j].to_bits(),
                "{what} lane {lane}"
            );
            for s in 0..stations {
                assert_eq!(l.queue(j, s).to_bits(), scalar.queue(j, s).to_bits());
            }
        }
        for s in 0..stations {
            assert_eq!(
                l.station_util()[s].to_bits(),
                scalar.station_util()[s].to_bits()
            );
            assert_eq!(
                l.station_queue()[s].to_bits(),
                scalar.station_queue()[s].to_bits()
            );
        }
    }

    #[test]
    fn interleaved_kernel_is_bit_identical_to_scalar_at_every_width() {
        let problems = uniform_problem_set();
        // One batch across every width: buffer reuse may not leak state
        // between windows, mirroring the scratch-reuse contract.
        let mut batch = AmvaBatch::new();
        for width in 2..=problems.len() {
            for window in problems.chunks(width) {
                let probs: Vec<(&[ClassDemand], usize)> =
                    window.iter().map(|c| (c.as_slice(), 3)).collect();
                if !solve_resident(&mut batch, &probs).unwrap() {
                    // A one-lane tail is the scalar kernel's job.
                    assert_eq!(window.len(), 1);
                    continue;
                }
                for (i, classes) in window.iter().enumerate() {
                    let mut scalar = AmvaScratch::new();
                    scalar.solve(classes, 3).unwrap();
                    assert_lane_matches(&batch, i, &scalar, &format!("width {width}"));
                }
            }
        }
    }

    #[test]
    fn every_simd_backend_is_bit_identical_to_the_scalar_backend() {
        let problems = uniform_problem_set();
        let mut scalar_batch = AmvaBatch::new();
        scalar_batch.set_simd_backend(SimdBackend::Scalar);
        assert_eq!(scalar_batch.simd_backend(), SimdBackend::Scalar);
        // Portable always; Avx2 validates down to Portable off-x86, so
        // on every machine this covers each backend that can run here.
        for backend in [SimdBackend::Portable, SimdBackend::Avx2] {
            let mut batch = AmvaBatch::new();
            batch.set_simd_backend(backend);
            for width in 2..=problems.len() {
                for window in problems.chunks(width).filter(|w| w.len() >= 2) {
                    let probs: Vec<(&[ClassDemand], usize)> =
                        window.iter().map(|c| (c.as_slice(), 3)).collect();
                    assert!(solve_resident(&mut batch, &probs).unwrap());
                    assert!(solve_resident(&mut scalar_batch, &probs).unwrap());
                    for (i, classes) in window.iter().enumerate() {
                        let (v, s) = (batch.lane(i), scalar_batch.lane(i));
                        assert_eq!(
                            v.iterations(),
                            s.iterations(),
                            "backend {:?} width {width} lane {i}",
                            batch.simd_backend()
                        );
                        for j in 0..classes.len() {
                            assert_eq!(v.throughput()[j].to_bits(), s.throughput()[j].to_bits());
                            for st in 0..3 {
                                assert_eq!(v.queue(j, st).to_bits(), s.queue(j, st).to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_reports_lowest_failing_lane_and_keeps_good_lanes() {
        let good = |scale: f64| {
            vec![ClassDemand {
                population: 2.0,
                think_time_s: 3.0 * scale,
                demands_s: vec![1.0, 0.25 * scale],
            }]
        };
        // A population so large that queue lengths carry no digits below
        // the tolerance: the residual stalls on rounding noise for the
        // whole iteration budget.
        let stalled = |population: f64| {
            vec![ClassDemand {
                population,
                think_time_s: 57_564.804_853_312_62,
                demands_s: vec![0.000_308_869_578_553_701_9, 0.0],
            }]
        };
        let lanes = [
            good(1.0),
            stalled(1.208_784_889_756_496e17),
            good(2.0),
            stalled(3.5e17),
        ];
        let probs: Vec<(&[ClassDemand], usize)> = lanes.iter().map(|c| (c.as_slice(), 2)).collect();
        let mut batch = AmvaBatch::new();
        let err = solve_resident(&mut batch, &probs).unwrap_err();
        // The lowest failing lane's error, payload included.
        let mut scalar = AmvaScratch::new();
        let want = scalar.solve(&lanes[1], 2).unwrap_err();
        assert!(matches!(want, SimError::NoConvergence { .. }), "{want:?}");
        assert_eq!(err, want);
        assert_ne!(err, scalar.solve(&lanes[3], 2).unwrap_err());
        // The good lanes still finished with scalar-identical state.
        for i in [0, 2] {
            scalar.solve(&lanes[i], 2).unwrap();
            assert_lane_matches(&batch, i, &scalar, "good");
        }
        // Validation failures surface from `begin_window`, lowest lane
        // first, and leave no window open.
        let negative = vec![ClassDemand {
            population: -1.0,
            ..good(1.0)[0].clone()
        }];
        let bad_demand = vec![ClassDemand {
            demands_s: vec![1.0, -1.0],
            ..good(1.0)[0].clone()
        }];
        let bad = [good(1.0), negative.clone(), bad_demand];
        let probs: Vec<(&[ClassDemand], usize)> = bad.iter().map(|c| (c.as_slice(), 2)).collect();
        let err = batch.begin_window(&probs).unwrap_err();
        assert_eq!(err, scalar.solve(&negative, 2).unwrap_err());
        assert!(batch.solve_window(&probs, &[0]).is_err());
    }

    #[test]
    #[ignore = "timing probe, run with --release -- --ignored --nocapture"]
    fn timing_probe_interleaved_vs_scalar() {
        // Equal-shape, similar-iteration-count lanes: isolates the
        // interleaved kernel's ILP from lane drain effects.
        let mk = |scale: f64| {
            vec![
                ClassDemand {
                    population: 6.0,
                    think_time_s: 0.3,
                    demands_s: vec![0.9 * scale, 0.4, 0.2],
                },
                ClassDemand {
                    population: 4.0,
                    think_time_s: 0.5,
                    demands_s: vec![0.2, 0.8 * scale, 0.3],
                },
            ]
        };
        let problems: Vec<Vec<ClassDemand>> = (0..16).map(|i| mk(1.0 + 0.01 * i as f64)).collect();
        let mut scratch = AmvaScratch::new();
        let reps = 10_000usize;
        let t0 = std::time::Instant::now();
        let mut iters = 0usize;
        for _ in 0..reps {
            for p in &problems {
                scratch.solve(p, 3).unwrap();
                iters += scratch.iterations();
            }
        }
        let scalar_s = t0.elapsed().as_secs_f64();
        println!(
            "scalar: {scalar_s:.3}s ({iters} iters), {:.1} ns/iter",
            1e9 * scalar_s / iters as f64
        );
        for backend in [SimdBackend::Scalar, SimdBackend::detect()] {
            let mut batch = AmvaBatch::new();
            batch.set_simd_backend(backend);
            for width in [2usize, 4, 8, 12, 16] {
                let t0 = std::time::Instant::now();
                let mut biters = 0usize;
                for _ in 0..reps {
                    for window in problems.chunks(width) {
                        let probs: Vec<(&[ClassDemand], usize)> =
                            window.iter().map(|p| (p.as_slice(), 3)).collect();
                        solve_resident(&mut batch, &probs).unwrap();
                        for i in 0..probs.len() {
                            biters += batch.lane(i).iterations();
                        }
                    }
                }
                let batch_s = t0.elapsed().as_secs_f64();
                println!(
                    "batch{width} [{}]: {batch_s:.3}s ({biters} iters), speedup {:.2}x, {:.1} ns/iter",
                    backend.name(),
                    scalar_s / batch_s,
                    1e9 * batch_s / biters as f64
                );
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
