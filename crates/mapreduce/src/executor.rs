//! The co-located node executor.
//!
//! [`NodeSim`] runs any number of MapReduce jobs concurrently on one
//! simulated node. Between events (stage or job completions, job arrivals)
//! all rates are constant and come from one consistent solution of the
//! contention model:
//!
//! 1. **DRAM pressure** — active footprints are summed; over-subscription
//!    inflates every job's disk traffic (spill pressure).
//! 2. **Queueing network** — each fluid stage is an AMVA class whose slots
//!    alternate between private cores (think time) and the job's private I/O
//!    path (a PS station capped at the framework's per-job ceiling and the
//!    slots' stream rates). Remote shuffle adds a shared NIC station.
//! 3. **Physical disk coupling** — the jobs' achieved I/O rates must fit the
//!    disk's aggregate bandwidth at the current stream concurrency
//!    (`η`-degraded); a proportional-fair scale factor θ on the granted
//!    bandwidths closes the loop.
//! 4. **Memory-bandwidth coupling** — busy cores demand bandwidth per their
//!    profile; over-subscription dilates the stall-sensitive fraction of
//!    every job's compute time.
//!
//! The executor integrates idle-subtracted power piecewise (the Wattsup
//! stand-in), attributes energy to jobs, and accumulates the per-job usage
//! records the synthetic counters are derived from.

use crate::framework::FrameworkSpec;
use crate::job::JobSpec;
use crate::metrics::JobMetrics;
use crate::stage::Stage;
use ecost_sim::{
    solve_lanes, AmvaScratch, ClassDemand, EnergyMeter, FixedClasses, FixedSolution, NodeSpec,
    PowerModel, SimError, SimdBackend,
};
use ecost_telemetry::{Event, Recorder, SpanKey};
use std::time::Instant;

/// Opaque handle identifying a submitted job within one `NodeSim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobHandle(pub u64);

/// Accumulated per-job resource usage (the raw material for counters).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobUsage {
    /// Core-seconds actively computing.
    pub busy_core_s: f64,
    /// Core-seconds allocated (busy + iowait).
    pub alloc_core_s: f64,
    /// Disk reads, MB.
    pub read_mb: f64,
    /// Disk writes, MB.
    pub write_mb: f64,
    /// Network bytes, MB.
    pub nic_mb: f64,
    /// Memory traffic served, MB.
    pub mem_mb: f64,
    /// Attributed dynamic energy, joules.
    pub energy_j: f64,
    /// ∫ stall-dilation × busy-cores dt — for effective-IPC synthesis.
    pub stall_weighted_s: f64,
    /// Peak resident footprint observed, MB.
    pub peak_footprint_mb: f64,
}

/// A finished job: its spec, metrics and usage record.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Handle it ran under.
    pub id: JobHandle,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Time/energy/EDP results.
    pub metrics: JobMetrics,
    /// Usage record for counter synthesis.
    pub usage: JobUsage,
    /// Stage completion timeline: `(stage kind, absolute completion time)`,
    /// in execution order — the per-job Gantt record.
    pub timeline: Vec<(crate::stage::StageKind, f64)>,
}

struct ActiveJob {
    id: JobHandle,
    spec: JobSpec,
    stages: Vec<Stage>,
    stage_idx: usize,
    /// Work units remaining in the current stage (tasks, or fraction of the
    /// setup interval).
    remaining: f64,
    start_s: f64,
    /// When the current stage began — the open end of its telemetry span.
    stage_start_s: f64,
    usage: JobUsage,
    timeline: Vec<(crate::stage::StageKind, f64)>,
    /// Straggler multiplier on the current task wave (1 = healthy). Cleared
    /// at the next stage boundary or by a successful speculation.
    straggler: f64,
    /// Extra mapper slots granted by speculative re-execution, released at
    /// the next stage boundary.
    extra_slots: u32,
}

impl ActiveJob {
    fn stage(&self) -> &Stage {
        &self.stages[self.stage_idx]
    }

    /// Slots active this wave: the configured slots plus any speculative
    /// backups.
    fn eff_slots(&self) -> u32 {
        self.stage().slots + self.extra_slots
    }
}

/// Hard cap on co-located jobs per node simulator.
///
/// Sized to the widest built-in node (16 Xeon cores): every job needs at
/// least one mapper core, so the admission check in [`NodeSim::submit`]
/// already bounds the active count by the core count. The cap exists so the
/// rate solution can live in fixed inline arrays instead of per-solve heap
/// vectors; exceeding it (only possible with a custom `NodeSpec` wider than
/// 16 cores) is a typed [`SimError::ColocationCapExceeded`], not a panic.
pub const MAX_COLOCATED: usize = 16;

/// Per-job rates valid until the next event.
///
/// Structure-of-arrays over fixed inline storage: entries `[..n]` are live,
/// the tail is stale and never read. Two of these are embedded in
/// [`NodeSim`] as a double buffer — `solve_into` always fills the *back*
/// buffer and flips on success, so the front buffer `advance` reads from is
/// never torn by a failed re-solve, and no per-event clone is needed.
#[derive(Debug, Clone)]
struct RateSolution {
    /// Live entry count (= active job count at solve time).
    n: usize,
    /// Work units per second, per active job.
    rate: [f64; MAX_COLOCATED],
    busy_cores: [f64; MAX_COLOCATED],
    read_mbps: [f64; MAX_COLOCATED],
    write_mbps: [f64; MAX_COLOCATED],
    nic_mbps: [f64; MAX_COLOCATED],
    mem_mbps: [f64; MAX_COLOCATED],
    power_attr_w: [f64; MAX_COLOCATED],
    slow: f64,
    footprint_mb: f64,
    power_total_w: f64,
    disk_util: f64,
    mem_util: f64,
    nic_util: f64,
}

impl RateSolution {
    fn empty() -> RateSolution {
        RateSolution {
            n: 0,
            rate: [0.0; MAX_COLOCATED],
            busy_cores: [0.0; MAX_COLOCATED],
            read_mbps: [0.0; MAX_COLOCATED],
            write_mbps: [0.0; MAX_COLOCATED],
            nic_mbps: [0.0; MAX_COLOCATED],
            mem_mbps: [0.0; MAX_COLOCATED],
            power_attr_w: [0.0; MAX_COLOCATED],
            slow: 1.0,
            footprint_mb: 0.0,
            power_total_w: 0.0,
            disk_util: 0.0,
            mem_util: 0.0,
            nic_util: 0.0,
        }
    }
}

/// Heap-backed scratch reused across every `solve_into` call of one
/// [`NodeSim`]. Buffers only ever grow (`clear` + `resize` keeps capacity),
/// so after the first solve at a given job-mix size the whole contention
/// model runs without touching the allocator.
struct SolveScratch {
    /// AMVA customer classes, one per active job; the per-class demand
    /// vectors are rebuilt in place each outer fixed-point iteration.
    classes: Vec<ClassDemand>,
    /// In-place Bard–Schweitzer solver state.
    amva: AmvaScratch,
}

impl SolveScratch {
    fn new() -> SolveScratch {
        SolveScratch {
            classes: Vec::new(),
            amva: AmvaScratch::new(),
        }
    }
}

/// One simulated node executing co-located MapReduce jobs.
///
/// ```
/// use ecost_mapreduce::{NodeSim, FrameworkSpec, JobSpec, TuningConfig};
/// use ecost_apps::{App, InputSize};
/// use ecost_sim::NodeSpec;
///
/// let mut node = NodeSim::new(NodeSpec::atom_c2758(), FrameworkSpec::default());
/// let cfg = TuningConfig::hadoop_default(4); // 4 mappers each
/// node.submit(JobSpec::new(App::Wc, InputSize::Small, cfg)).unwrap();
/// node.submit(JobSpec::new(App::St, InputSize::Small, cfg)).unwrap();
/// node.run_to_completion().unwrap();
/// assert_eq!(node.finished().len(), 2);
/// assert!(node.energy_j() > 0.0);
/// ```
pub struct NodeSim {
    spec: NodeSpec,
    fw: FrameworkSpec,
    power: PowerModel,
    nic_bw_mbps: f64,
    nic_power_w: f64,
    now: f64,
    active: Vec<ActiveJob>,
    finished: Vec<JobOutcome>,
    meter: EnergyMeter,
    next_id: u64,
    /// Double-buffered rate solution: `bufs[front]` is the last good solve,
    /// the other buffer is filled by the next solve and flipped in.
    bufs: [RateSolution; 2],
    front: usize,
    /// Whether `bufs[front]` reflects the current job mix.
    sol_valid: bool,
    /// Reusable solver scratch (AMVA state + class demand vectors).
    scratch: SolveScratch,
    /// Node-wide degradation factor (1 = healthy). Divides compute and disk
    /// rates — a thermal frequency cap plus disk-bandwidth decay.
    slowdown: f64,
    stragglers_injected: u64,
    speculative_retries: u64,
    /// Telemetry sink for stage/job spans and executor events. A no-op
    /// recorder (the default) drops everything without building payloads.
    recorder: Recorder,
    /// `(run, node)` identity stamped on every span this node emits.
    run_id: u32,
    node_id: u32,
    /// Whether [`NodeSim::set_telemetry`] replaced the construction-time
    /// no-op recorder. Lets [`NodeSim::reset`] skip rebuilding a recorder
    /// (an `Arc` + registry allocation) when nothing was ever attached —
    /// the common case for pooled sweep simulators.
    telemetry_attached: bool,
    /// Retired stage vectors, kept warm for the next submit. A pooled
    /// simulator crunching a sweep allocates its stage lists once and then
    /// recycles them run after run.
    spare_stages: Vec<Vec<Stage>>,
    /// Recycled timeline vectors (harvested by
    /// [`NodeSim::drain_finished_energy`]), reused by the next submit.
    spare_timelines: Vec<Vec<(crate::stage::StageKind, f64)>>,
}

/// Numerical floor treating a stage as complete.
const WORK_EPS: f64 = 1e-9;

impl NodeSim {
    /// New node with effectively infinite NIC (single-node studies).
    pub fn new(spec: NodeSpec, fw: FrameworkSpec) -> NodeSim {
        NodeSim::with_nic(spec, fw, f64::INFINITY, 0.0)
    }

    /// New node with a finite NIC (cluster studies).
    pub fn with_nic(
        spec: NodeSpec,
        fw: FrameworkSpec,
        nic_bw_mbps: f64,
        nic_power_w: f64,
    ) -> NodeSim {
        let power = PowerModel::new(spec.clone());
        NodeSim {
            spec,
            fw,
            power,
            nic_bw_mbps,
            nic_power_w,
            now: 0.0,
            active: Vec::new(),
            finished: Vec::new(),
            meter: EnergyMeter::new(),
            next_id: 0,
            bufs: [RateSolution::empty(), RateSolution::empty()],
            front: 0,
            sol_valid: false,
            scratch: SolveScratch::new(),
            slowdown: 1.0,
            stragglers_injected: 0,
            speculative_retries: 0,
            recorder: Recorder::noop(),
            run_id: 0,
            node_id: 0,
            telemetry_attached: false,
            // Pre-reserve: the recycle pushes in `advance` /
            // `drain_finished_energy` are capped at `MAX_COLOCATED`, so this
            // capacity keeps the event loop allocation-free (see
            // tests/zero_alloc.rs).
            spare_stages: Vec::with_capacity(MAX_COLOCATED),
            spare_timelines: Vec::with_capacity(MAX_COLOCATED),
        }
    }

    /// Attach a telemetry recorder plus the `(run, node)` identity this
    /// node stamps on its spans and events. Until called, a no-op recorder
    /// is in place and recording costs nothing.
    pub fn set_telemetry(&mut self, recorder: Recorder, run: u32, node: u32) {
        self.recorder = recorder;
        self.telemetry_attached = true;
        self.run_id = run;
        self.node_id = node;
    }

    /// Degrade (or restore) every rate on this node by `factor` (≥ 1, 1 =
    /// healthy). Models a thermal frequency cap plus disk-bandwidth decay.
    pub fn set_slowdown(&mut self, factor: f64) -> Result<(), SimError> {
        if !factor.is_finite() || factor < 1.0 {
            return Err(SimError::InvalidDemand(
                "slowdown factor must be finite and >= 1",
            ));
        }
        self.slowdown = factor;
        self.sol_valid = false;
        Ok(())
    }

    /// Current node-wide degradation factor (1 = healthy).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Straggler events injected on this node so far.
    pub fn stragglers_injected(&self) -> u64 {
        self.stragglers_injected
    }

    /// Speculative re-executions launched on this node so far.
    pub fn speculative_retries(&self) -> u64 {
        self.speculative_retries
    }

    /// Slow the current task wave of job `h` by `multiplier` (≥ 1). The
    /// multiplier lasts until the wave (stage) completes or a speculative
    /// backup clears it.
    pub fn inject_straggler(&mut self, h: JobHandle, multiplier: f64) -> Result<(), SimError> {
        if !multiplier.is_finite() || multiplier < 1.0 {
            return Err(SimError::InvalidDemand(
                "straggler multiplier must be finite and >= 1",
            ));
        }
        let job = self
            .active
            .iter_mut()
            .find(|j| j.id == h)
            .ok_or(SimError::NoSuchJob(h.0))?;
        job.straggler = job.straggler.max(multiplier);
        self.stragglers_injected += 1;
        self.sol_valid = false;
        Ok(())
    }

    /// MapReduce-style speculative re-execution: if job `h` is straggling
    /// and spare mapper slots exist, launch up to `extra` backup slots that
    /// re-run the slowed tasks at healthy speed. The duplicated work is
    /// charged to the job (its remaining wave grows), so the retry costs
    /// real time and energy. Returns `Ok(true)` when a backup was launched,
    /// `Ok(false)` when the job is not straggling or no slots are free.
    pub fn speculate(&mut self, h: JobHandle, extra: u32) -> Result<bool, SimError> {
        let free = self.free_cores();
        let job = self
            .active
            .iter_mut()
            .find(|j| j.id == h)
            .ok_or(SimError::NoSuchJob(h.0))?;
        if job.straggler <= 1.0 {
            return Ok(false);
        }
        let granted = extra.min(free);
        if granted == 0 {
            return Ok(false);
        }
        // Backups duplicate in-flight tasks: charge the re-executed work,
        // bounded by what is actually left in the wave.
        let dup = f64::from(granted).min(job.remaining.max(0.0));
        job.remaining += dup;
        job.extra_slots += granted;
        job.straggler = 1.0;
        self.speculative_retries += 1;
        self.recorder
            .emit(self.now, Some(self.node_id), Some(h.0), || {
                Event::SpeculativeClone {
                    extra_slots: granted,
                }
            });
        self.sol_valid = false;
        Ok(true)
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Cores currently allocated to active jobs (speculative backup slots
    /// included).
    pub fn allocated_cores(&self) -> u32 {
        self.active
            .iter()
            .map(|j| j.spec.config.mappers + j.extra_slots)
            .sum()
    }

    /// Cores free for a new job.
    pub fn free_cores(&self) -> u32 {
        self.spec.cores.saturating_sub(self.allocated_cores())
    }

    /// Active job count.
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Completed jobs so far (in completion order).
    pub fn finished(&self) -> &[JobOutcome] {
        &self.finished
    }

    /// Take ownership of the completed-job list.
    pub fn take_finished(&mut self) -> Vec<JobOutcome> {
        std::mem::take(&mut self.finished)
    }

    /// Pop the most recently finished job, keeping the finished list's
    /// capacity with the simulator (unlike [`Self::take_finished`], which
    /// steals the whole vector and forces the next submit to reallocate).
    pub fn pop_finished(&mut self) -> Option<JobOutcome> {
        self.finished.pop()
    }

    /// Drain the finished jobs, returning their summed attributed dynamic
    /// energy (in completion order, matching a caller-side sum over
    /// [`Self::take_finished`] bit for bit).
    ///
    /// This is the zero-allocation epilogue for sweeps that only need the
    /// aggregate: outcome buffers (timelines, the finished list's capacity)
    /// stay with the simulator and feed the next run's submits.
    pub fn drain_finished_energy(&mut self) -> f64 {
        let NodeSim {
            finished,
            spare_timelines,
            ..
        } = self;
        let mut energy_j = 0.0;
        for out in finished.drain(..) {
            energy_j += out.metrics.energy_j;
            let mut timeline = out.timeline;
            if spare_timelines.len() < MAX_COLOCATED {
                timeline.clear();
                spare_timelines.push(timeline);
            }
        }
        energy_j
    }

    /// Total idle-subtracted energy integrated so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.meter.energy_j()
    }

    /// Record a Wattsup-style 1 Hz power trace for this node. Call before
    /// any simulation time elapses.
    pub fn enable_power_trace(&mut self) {
        assert_eq!(self.now, 0.0, "enable the trace before advancing time");
        self.meter = EnergyMeter::with_trace();
    }

    /// The recorded 1 Hz dynamic-power samples (if tracing was enabled).
    pub fn power_trace(&self) -> Option<&[f64]> {
        self.meter.trace()
    }

    /// Submit a job; fails if its mapper count exceeds the free cores or
    /// the node's co-location cap ([`MAX_COLOCATED`]).
    ///
    /// All heap capacity a job will ever need during execution is reserved
    /// here (its stage timeline, its slot in the finished list), keeping
    /// the event loop itself allocation-free.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobHandle, SimError> {
        let m = spec.config.mappers;
        if m == 0 || m > self.free_cores() {
            return Err(SimError::CoreBudgetExceeded {
                requested: self.allocated_cores() + m,
                available: self.spec.cores,
            });
        }
        if self.active.len() >= MAX_COLOCATED {
            return Err(SimError::ColocationCapExceeded {
                active: self.active.len(),
                cap: MAX_COLOCATED,
            });
        }
        // Recycled buffers (warm after the first few runs of a pooled
        // simulator): the stage list is rebuilt in place, the timeline
        // arrives cleared from `drain_finished_energy`'s harvest.
        let mut stages = self.spare_stages.pop().unwrap_or_default();
        spec.stages_into(&self.fw, &mut stages);
        assert!(!stages.is_empty());
        let id = JobHandle(self.next_id);
        self.next_id += 1;
        let remaining = stages[0].tasks;
        let mut timeline = self.spare_timelines.pop().unwrap_or_default();
        timeline.reserve(stages.len());
        // Every currently active job (this one included) retires into
        // `finished` at most once: reserving here means the push in
        // `advance` never reallocates mid-run.
        self.finished.reserve(self.active.len() + 1);
        self.active.push(ActiveJob {
            id,
            spec,
            stages,
            stage_idx: 0,
            remaining,
            start_s: self.now,
            stage_start_s: self.now,
            usage: JobUsage::default(),
            timeline,
            straggler: 1.0,
            extra_slots: 0,
        });
        self.sol_valid = false;
        Ok(id)
    }

    /// Seconds until the next stage completion at current rates, if any job
    /// is active.
    pub fn time_to_next_event(&mut self) -> Result<Option<f64>, SimError> {
        if self.active.is_empty() {
            return Ok(None);
        }
        self.ensure_solution()?;
        let sol = &self.bufs[self.front];
        let mut dt = f64::INFINITY;
        for (job, r) in self.active.iter().zip(&sol.rate[..sol.n]) {
            debug_assert!(*r > 0.0, "active job {} has zero rate", job.spec.label);
            dt = dt.min(job.remaining / r);
        }
        Ok(Some(dt.max(0.0)))
    }

    /// Advance the clock by `dt` seconds (must not exceed the time to the
    /// next event by more than a rounding margin), integrating usage, energy
    /// and progress, and retiring any stages/jobs that complete.
    pub fn advance(&mut self, dt: f64) -> Result<(), SimError> {
        if !(dt >= 0.0 && dt.is_finite()) {
            return Err(SimError::InvalidTimeStep { dt });
        }
        if self.active.is_empty() || dt == 0.0 {
            self.now += dt;
            return Ok(());
        }
        self.ensure_solution()?;
        // Split borrows: the front solution buffer is read while job state,
        // the meter and the clock are mutated — the disjoint field access
        // replaces the full solution clone the old code paid per event.
        let Self {
            active,
            finished,
            meter,
            recorder,
            bufs,
            front,
            sol_valid,
            now,
            run_id,
            node_id,
            spare_stages,
            ..
        } = self;
        let sol = &bufs[*front];
        meter.record(dt, sol.power_total_w);
        let mut completed = [0usize; MAX_COLOCATED];
        let mut ncomp = 0usize;
        let mut dirty = false;
        for (j, job) in active.iter_mut().enumerate() {
            let stage_slots = f64::from(job.eff_slots());
            job.usage.busy_core_s += sol.busy_cores[j] * dt;
            job.usage.alloc_core_s += stage_slots * dt;
            job.usage.read_mb += sol.read_mbps[j] * dt;
            job.usage.write_mb += sol.write_mbps[j] * dt;
            job.usage.nic_mb += sol.nic_mbps[j] * dt;
            job.usage.mem_mb += sol.mem_mbps[j] * dt;
            job.usage.energy_j += sol.power_attr_w[j] * dt;
            job.usage.stall_weighted_s += sol.slow * sol.busy_cores[j] * dt;
            job.usage.peak_footprint_mb = job.usage.peak_footprint_mb.max(job.stage().footprint_mb);
            job.remaining -= sol.rate[j] * dt;
            if job.remaining <= WORK_EPS * job.stage().tasks.max(1.0) {
                job.timeline.push((job.stage().kind, *now + dt));
                recorder.span(
                    SpanKey::new(*run_id, *node_id, job.id.0, job.stage().kind.label()),
                    job.stage_start_s,
                    *now + dt,
                );
                job.stage_start_s = *now + dt;
                job.stage_idx += 1;
                // Wave boundary: straggling and speculative backups end with
                // the wave that suffered/launched them.
                if job.straggler != 1.0 || job.extra_slots != 0 {
                    job.straggler = 1.0;
                    job.extra_slots = 0;
                    dirty = true;
                }
                if job.stage_idx >= job.stages.len() {
                    completed[ncomp] = j;
                    ncomp += 1;
                } else {
                    job.remaining = job.stages[job.stage_idx].tasks;
                    dirty = true;
                }
            }
        }
        if dirty {
            *sol_valid = false;
        }
        *now += dt;
        // Retire completed jobs (reverse order keeps indices valid). The
        // outcome push is a pure move into capacity reserved at submit.
        for &j in completed[..ncomp].iter().rev() {
            let mut job = active.swap_remove(j);
            // The stage list never leaves the simulator: recycle it for the
            // next submit instead of freeing it.
            let mut stages = std::mem::take(&mut job.stages);
            if spare_stages.len() < MAX_COLOCATED {
                stages.clear();
                spare_stages.push(stages);
            }
            let exec = *now - job.start_s;
            recorder.span(
                SpanKey::new(*run_id, *node_id, job.id.0, "job"),
                job.start_s,
                *now,
            );
            recorder.emit(*now, Some(*node_id), Some(job.id.0), || Event::JobFinish {
                app: job.spec.profile.name.to_string(),
                exec_time_s: exec,
            });
            let metrics = JobMetrics {
                exec_time_s: exec,
                energy_j: job.usage.energy_j,
                avg_power_w: if exec > 0.0 {
                    job.usage.energy_j / exec
                } else {
                    0.0
                },
            };
            finished.push(JobOutcome {
                id: job.id,
                spec: job.spec,
                metrics,
                usage: job.usage,
                timeline: job.timeline,
            });
            *sol_valid = false;
        }
        Ok(())
    }

    /// Run one event step; returns how many jobs finished during it (their
    /// outcomes are appended to [`NodeSim::finished`] in completion order).
    pub fn step(&mut self) -> Result<usize, SimError> {
        let before = self.finished.len();
        match self.time_to_next_event()? {
            None => Ok(0),
            Some(dt) => {
                self.advance(dt)?;
                Ok(self.finished.len() - before)
            }
        }
    }

    /// Run until no active jobs remain.
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        // Generous budget: stages × jobs is the true event count; blowing
        // past it means the rate solution stalled (a model bug), surfaced
        // as a typed error rather than a panic.
        let budget = 64 + 16 * self.active.iter().map(|j| j.stages.len()).sum::<usize>();
        let budget = budget as u64;
        let mut events = 0u64;
        while !self.active.is_empty() {
            self.step()?;
            events += 1;
            if events >= budget {
                return Err(SimError::EventLoopRunaway { events, budget });
            }
        }
        Ok(())
    }

    /// Re-solve the contention model into the back buffer and flip it to
    /// the front, if the cached solution is stale.
    fn ensure_solution(&mut self) -> Result<(), SimError> {
        if self.sol_valid {
            return Ok(());
        }
        let back = 1 - self.front;
        let Self {
            spec,
            fw,
            power,
            nic_bw_mbps,
            nic_power_w,
            active,
            scratch,
            bufs,
            slowdown,
            ..
        } = self;
        solve_into(
            spec,
            fw,
            power,
            *nic_bw_mbps,
            *nic_power_w,
            *slowdown,
            active,
            scratch,
            &mut bufs[back],
        )?;
        self.front = back;
        self.sol_valid = true;
        Ok(())
    }

    /// Handles of currently active jobs, in submission order.
    pub fn active_handles(&self) -> Vec<JobHandle> {
        self.active.iter().map(|j| j.id).collect()
    }

    /// Permanently fail the node: active jobs are dropped without outcomes
    /// (their in-flight work is lost) and their handles are returned so a
    /// scheduler can requeue them elsewhere. Energy already integrated stays
    /// on the meter — the wasted work is part of the cluster's bill.
    pub fn crash(&mut self) -> Vec<JobHandle> {
        let handles = self.active.iter().map(|j| j.id).collect();
        self.active.clear();
        self.sol_valid = false;
        handles
    }

    /// Diagnostic snapshot of the current rate solution: (disk util, memory
    /// bandwidth util, memory stall dilation, total footprint MB).
    pub fn contention_snapshot(&mut self) -> Result<(f64, f64, f64, f64), SimError> {
        self.ensure_solution()?;
        let s = &self.bufs[self.front];
        Ok((s.disk_util, s.mem_util, s.slow, s.footprint_mb))
    }

    /// Restore this simulator to its freshly constructed state while
    /// keeping every heap buffer's capacity (solver scratch, job lists).
    ///
    /// This is what makes simulator pooling bit-identical to fresh
    /// construction: after `reset`, every observable field equals the value
    /// `NodeSim::new` would set, so a pooled run replays the exact same
    /// arithmetic as an unpooled one — only the warm allocations differ.
    pub fn reset(&mut self) {
        self.now = 0.0;
        self.active.clear();
        self.finished.clear();
        self.meter = EnergyMeter::new();
        self.next_id = 0;
        self.sol_valid = false;
        self.slowdown = 1.0;
        self.stragglers_injected = 0;
        self.speculative_retries = 0;
        if self.telemetry_attached {
            self.recorder = Recorder::noop();
            self.telemetry_attached = false;
        }
        self.run_id = 0;
        self.node_id = 0;
    }
}

/// Solve the contention model for the current job mix into `out`.
///
/// Free function (rather than a method) so `ensure_solution` can hand it
/// disjoint borrows of the simulator's fields: `active` is read, `scratch`
/// and the back buffer are written. All working state lives either on the
/// stack (fixed arrays sized to the job count) or in `scratch` (grown
/// once, then reused), so a warm solve performs zero heap allocations.
///
/// One job and two co-located jobs — every solve outside k-way
/// co-location — run the whole outer fixed point on the stack
/// ([`fixed_round`]); wider mixes rebuild `scratch`'s class vectors each
/// round ([`runtime_round`]). The arithmetic — every operation and its
/// order — is copied verbatim from the pre-refactor allocating
/// implementation (preserved in [`crate::reference`]); the property tests
/// require the two to agree to the bit.
#[allow(clippy::too_many_arguments)]
fn solve_into(
    spec: &NodeSpec,
    fw: &FrameworkSpec,
    power: &PowerModel,
    nic_bw_mbps: f64,
    nic_power_w: f64,
    slowdown: f64,
    active: &[ActiveJob],
    scratch: &mut SolveScratch,
    out: &mut RateSolution,
) -> Result<(), SimError> {
    match active.len() {
        1 => {
            let (prep, st) = solve_outer::<1>(spec, fw, slowdown, active, |prep, st| {
                fixed_round::<1, 2>(prep, nic_bw_mbps, st)
            })?;
            finalize(&prep, spec, power, nic_power_w, active, &st, out);
        }
        2 => {
            let (prep, st) = solve_outer::<2>(spec, fw, slowdown, active, |prep, st| {
                fixed_round::<2, 3>(prep, nic_bw_mbps, st)
            })?;
            finalize(&prep, spec, power, nic_power_w, active, &st, out);
        }
        _ => {
            let (prep, st) =
                solve_outer::<MAX_COLOCATED>(spec, fw, slowdown, active, |prep, st| {
                    runtime_round(prep, nic_bw_mbps, scratch, st)
                })?;
            finalize(&prep, spec, power, nic_power_w, active, &st, out);
        }
    }
    Ok(())
}

/// [`prepare`] a node of at most `N` jobs, then run its outer fixed point
/// with `round` as the per-round network solve.
fn solve_outer<const N: usize>(
    spec: &NodeSpec,
    fw: &FrameworkSpec,
    slowdown: f64,
    active: &[ActiveJob],
    mut round: impl FnMut(&SolvePrep<N>, &mut OuterState<N>) -> Result<(), SimError>,
) -> Result<(SolvePrep<N>, OuterState<N>), SimError> {
    let mut prep = SolvePrep::empty();
    prepare(spec, fw, slowdown, active, &mut prep);
    let st = outer_fixed_point(&prep, spec, |st| round(&prep, st))?;
    Ok((prep, st))
}

/// State of one node's outer contention fixed point for at most `N`
/// jobs: the current `(θ, slow)` and the AMVA readback the coupling step
/// consumes.
#[derive(Clone, Copy)]
struct OuterState<const N: usize> {
    theta: f64,
    slow: f64,
    think: [f64; N],
    x: [f64; N],
    q_io: [f64; N],
    nic_util: f64,
}

impl<const N: usize> OuterState<N> {
    /// The starting point of every solve: `(θ, slow) = (1, 1)`, empty
    /// readback.
    fn start() -> OuterState<N> {
        OuterState {
            theta: 1.0,
            slow: 1.0,
            think: [0.0; N],
            x: [0.0; N],
            q_io: [0.0; N],
            nic_util: 0.0,
        }
    }

    /// Apply one [`couple`] step; returns whether the outer fixed point
    /// goes on (its residual is still at or above `1e-5`).
    fn couple(&mut self, prep: &SolvePrep<N>, spec: &NodeSpec) -> bool {
        let (slow_next, theta_next, resid) = couple(
            prep,
            spec,
            &self.x,
            &self.q_io,
            &self.think,
            self.slow,
            self.theta,
        );
        self.slow = slow_next;
        self.theta = theta_next;
        resid >= 1e-5
    }
}

/// Outer fixed point over θ (disk scale) and slow (memory): each round
/// re-solves the queueing network at the current `(θ, slow)` through
/// `round`, then applies the [`couple`] step until its residual drops
/// below `1e-5` or [`OUTER_ROUNDS`] rounds pass.
fn outer_fixed_point<const N: usize>(
    prep: &SolvePrep<N>,
    spec: &NodeSpec,
    mut round: impl FnMut(&mut OuterState<N>) -> Result<(), SimError>,
) -> Result<OuterState<N>, SimError> {
    let mut st = OuterState::start();
    for _outer in 0..OUTER_ROUNDS {
        round(&mut st)?;
        if !st.couple(prep, spec) {
            break;
        }
    }
    Ok(st)
}

/// Round budget of the outer contention fixed point.
const OUTER_ROUNDS: usize = 200;

/// One outer round for any job count: rebuild the class vectors in
/// `scratch`, solve, read back.
fn runtime_round(
    prep: &SolvePrep,
    nic_bw_mbps: f64,
    scratch: &mut SolveScratch,
    st: &mut OuterState<MAX_COLOCATED>,
) -> Result<(), SimError> {
    let n = prep.n;
    build_classes(
        prep,
        nic_bw_mbps,
        st.theta,
        st.slow,
        &mut scratch.classes,
        &mut st.think,
    );
    scratch.amva.solve(&scratch.classes[..n], n + 1)?;
    st.x[..n].copy_from_slice(scratch.amva.throughput());
    for (j, q) in st.q_io[..n].iter_mut().enumerate() {
        *q = scratch.amva.queue(j, j);
    }
    st.nic_util = scratch.amva.station_util()[n];
    Ok(())
}

/// One outer round for exactly `NC` jobs over `S = NC + 1` stations: the
/// classes [`build_classes`] would build, held by value and solved by the
/// register-resident [`FixedClasses`] kernel, which validates every round
/// exactly as the runtime-shape solve does.
fn fixed_round<const NC: usize, const S: usize>(
    prep: &SolvePrep<NC>,
    nic_bw_mbps: f64,
    st: &mut OuterState<NC>,
) -> Result<(), SimError> {
    let sol = fixed_classes::<NC, S>(prep, nic_bw_mbps, st).solve()?;
    read_back(&sol, st);
    Ok(())
}

/// The classes of one outer round at the state's `(θ, slow)`, by value:
/// [`build_classes`]' arithmetic for exactly `NC` jobs. Each fluid job's
/// think time is also recorded in `st.think` for the coupling step.
fn fixed_classes<const NC: usize, const S: usize>(
    prep: &SolvePrep<NC>,
    nic_bw_mbps: f64,
    st: &mut OuterState<NC>,
) -> FixedClasses<NC, S> {
    let mut p = FixedClasses::<NC, S>::zeroed();
    for j in 0..NC {
        if !prep.fluid[j] {
            continue;
        }
        st.think[j] = think_at(prep, j, st.slow);
        p.demands_s[j][j] = io_demand_at(prep, j, st.theta);
        p.demands_s[j][NC] = nic_demand(prep, j, nic_bw_mbps);
        p.population[j] = prep.eff_slots[j];
        p.think_time_s[j] = st.think[j];
    }
    p
}

/// Copy the AMVA readback the coupling step and [`finalize`] use — each
/// job's throughput and own I/O queue, and the NIC utilisation — into
/// the outer state.
fn read_back<const NC: usize, const S: usize>(sol: &FixedSolution<NC, S>, st: &mut OuterState<NC>) {
    st.x = sol.throughput;
    for j in 0..NC {
        st.q_io[j] = sol.queue[j][j];
    }
    st.nic_util = sol.station_util[NC];
}

/// Loop-invariant inputs of one node's contention fixed point for at most
/// `N` jobs, hoisted to fixed stack arrays once per solve ([`prepare`]) so
/// the outer iterations never re-chase the job → stage indirection.
/// Splitting this out of `solve_into` is what lets [`solve_batch`] keep
/// several nodes' fixed points in flight at once with per-lane state that
/// is plain `Copy` data; sizing it to the job count keeps that state small
/// for the one- and two-job shapes.
#[derive(Clone, Copy)]
struct SolvePrep<const N: usize = MAX_COLOCATED> {
    n: usize,
    slowdown: f64,
    spill: f64,
    footprint_mb: f64,
    /// Fault context: per-wave straggler multipliers and effective slots.
    /// On a healthy node these are exactly 1.0 / the configured slots, so
    /// every expression below reduces bit-identically to the undegraded
    /// model.
    stragglers: [f64; N],
    eff_slots: [f64; N],
    /// Static per-job grant ceiling: job pipeline cap ∧ slot stream rates.
    static_cap: [f64; N],
    fluid: [bool; N],
    think0: [f64; N],
    stall: [f64; N],
    io_mb: [f64; N],
    nic_mb: [f64; N],
    bw_core: [f64; N],
}

impl<const N: usize> SolvePrep<N> {
    fn empty() -> SolvePrep<N> {
        SolvePrep {
            n: 0,
            slowdown: 1.0,
            spill: 1.0,
            footprint_mb: 0.0,
            stragglers: [0.0; N],
            eff_slots: [0.0; N],
            static_cap: [0.0; N],
            fluid: [false; N],
            think0: [0.0; N],
            stall: [0.0; N],
            io_mb: [0.0; N],
            nic_mb: [0.0; N],
            bw_core: [0.0; N],
        }
    }
}

/// Hoist the loop-invariant part of the contention solve — the pre-loop
/// prelude of the original `solve_into`, arithmetic verbatim.
fn prepare<const N: usize>(
    spec: &NodeSpec,
    fw: &FrameworkSpec,
    slowdown: f64,
    active: &[ActiveJob],
    prep: &mut SolvePrep<N>,
) {
    prep.n = active.len();
    prep.slowdown = slowdown;
    for (j, job) in active.iter().enumerate() {
        prep.stragglers[j] = job.straggler;
        prep.eff_slots[j] = f64::from(job.eff_slots());
    }

    // --- 1. DRAM pressure: spill inflation for everyone. ---
    prep.footprint_mb = active.iter().map(|job| job.stage().footprint_mb).sum();
    prep.spill = fw.spill_inflation(prep.footprint_mb, spec.mem.capacity_mb);

    for (j, job) in active.iter().enumerate() {
        let s = job.stage();
        prep.static_cap[j] = if s.is_fluid() && s.io_mb > 0.0 {
            fw.job_io_cap(s.extent_mb)
                .min(s.stream_bound_mbps(spec.disk.stream_rate(s.extent_mb)))
                / slowdown
        } else {
            0.0
        };
    }

    // Loop-invariant stage quantities, copied to the stack so the fixed
    // point never re-chases the job → stage indirection. The `think`
    // expression is still evaluated with exactly the original operations
    // and order (bit-identity, pinned by the executor property tests);
    // hoisting only stops it being *recomputed* in the coupling step.
    for (j, job) in active.iter().enumerate() {
        let s = job.stage();
        prep.fluid[j] = s.is_fluid();
        prep.think0[j] = s.think0_s;
        prep.stall[j] = s.stall_frac;
        prep.io_mb[j] = s.io_mb;
        prep.nic_mb[j] = s.nic_mb;
        prep.bw_core[j] = s.bw_per_core_mbps;
    }
}

/// Fluid job `j`'s think time at memory-stall dilation `slow`.
#[inline]
fn think_at<const N: usize>(prep: &SolvePrep<N>, j: usize, slow: f64) -> f64 {
    prep.think0[j]
        * (1.0 - prep.stall[j] + prep.stall[j] * slow)
        * prep.slowdown
        * prep.stragglers[j]
}

/// Fluid job `j`'s demand at its private I/O path under disk scale
/// `theta` (0 for a job without disk traffic).
#[inline]
fn io_demand_at<const N: usize>(prep: &SolvePrep<N>, j: usize, theta: f64) -> f64 {
    if prep.io_mb[j] > 0.0 && prep.static_cap[j] > 0.0 {
        prep.io_mb[j] * prep.spill / (theta * prep.static_cap[j]).max(1e-9)
    } else {
        0.0
    }
}

/// Fluid job `j`'s demand at the shared NIC (0 without remote shuffle or
/// on an unbounded NIC).
#[inline]
fn nic_demand<const N: usize>(prep: &SolvePrep<N>, j: usize, nic_bw_mbps: f64) -> f64 {
    if prep.nic_mb[j] > 0.0 && nic_bw_mbps.is_finite() {
        prep.nic_mb[j] / nic_bw_mbps
    } else {
        0.0
    }
}

/// Rebuild the AMVA classes for the current `(θ, slow)` — one outer-loop
/// body prefix of the original `solve_into`, arithmetic verbatim.
///
/// Per-job think time goes to `think`; for a non-fluid job the entry stays
/// 0.0, and its coupling term is 0.0 either way (AMVA gives zero-population
/// classes zero throughput).
fn build_classes(
    prep: &SolvePrep,
    nic_bw_mbps: f64,
    theta: f64,
    slow: f64,
    classes: &mut Vec<ClassDemand>,
    think: &mut [f64; MAX_COLOCATED],
) {
    let n = prep.n;
    let stations = n + 1;
    while classes.len() < n {
        classes.push(ClassDemand {
            population: 0.0,
            think_time_s: 0.0,
            demands_s: Vec::new(),
        });
    }
    *think = [0.0_f64; MAX_COLOCATED];
    for j in 0..n {
        let c = &mut classes[j];
        c.demands_s.clear();
        c.demands_s.resize(stations, 0.0);
        if !prep.fluid[j] {
            c.population = 0.0;
            c.think_time_s = 0.0;
            continue;
        }
        think[j] = think_at(prep, j, slow);
        c.demands_s[j] = io_demand_at(prep, j, theta);
        c.demands_s[n] = nic_demand(prep, j, nic_bw_mbps);
        c.population = prep.eff_slots[j];
        c.think_time_s = think[j];
    }
}

/// One θ/slow coupling step from the AMVA readback — the outer-loop body
/// suffix of the original `solve_into`, arithmetic verbatim. Returns
/// `(slow_next, theta_next, resid)`.
fn couple<const N: usize>(
    prep: &SolvePrep<N>,
    spec: &NodeSpec,
    x: &[f64; N],
    q_io: &[f64; N],
    think: &[f64; N],
    slow: f64,
    theta: f64,
) -> (f64, f64, f64) {
    let n = prep.n;

    // Memory-bandwidth coupling.
    let bw_demand: f64 = (0..n)
        .map(|j| (x[j] * think[j]).min(prep.eff_slots[j]) * prep.bw_core[j])
        .sum();
    let slow_target = (bw_demand / spec.mem_bw_mbps()).max(1.0);
    let slow_next = slow + 0.5 * (slow_target - slow);

    // Physical-disk coupling.
    let streams: f64 = q_io[..n].iter().sum::<f64>().max(1.0);
    let cap_phys = spec.disk.aggregate_bw(streams) / prep.slowdown;
    let total_io: f64 = (0..n).map(|j| x[j] * prep.io_mb[j] * prep.spill).sum();
    let theta_target = if total_io > cap_phys {
        (theta * cap_phys / total_io).clamp(0.01, 1.0)
    } else {
        // Relax back toward no throttling.
        (theta * 1.15).min(1.0)
    };
    let theta_next = theta + 0.5 * (theta_target - theta);

    let resid = (slow_next - slow).abs() / slow + (theta_next - theta).abs();
    (slow_next, theta_next, resid)
}

/// Derive the final consistent quantities of a converged solve into `out` —
/// the post-loop tail of the original `solve_into`, arithmetic verbatim.
fn finalize<const N: usize>(
    prep: &SolvePrep<N>,
    spec: &NodeSpec,
    power: &PowerModel,
    nic_power_w: f64,
    active: &[ActiveJob],
    st: &OuterState<N>,
    out: &mut RateSolution,
) {
    let OuterState {
        x,
        q_io,
        nic_util,
        slow,
        ..
    } = st;
    let (nic_util, slow) = (*nic_util, *slow);
    let n = prep.n;
    let slowdown = prep.slowdown;
    let spill = prep.spill;
    let stragglers = &prep.stragglers;
    let eff_slots = &prep.eff_slots;
    let footprint_mb = prep.footprint_mb;

    // --- Final consistent quantities. ---
    for (j, job) in active.iter().enumerate() {
        let s = job.stage();
        if s.is_fluid() {
            out.rate[j] = x[j];
            let think =
                s.think0_s * (1.0 - s.stall_frac + s.stall_frac * slow) * slowdown * stragglers[j];
            out.busy_cores[j] = (x[j] * think).min(eff_slots[j]);
            let io = x[j] * s.io_mb * spill;
            out.read_mbps[j] = io * s.read_frac;
            out.write_mbps[j] = io * (1.0 - s.read_frac);
            out.nic_mbps[j] = x[j] * s.nic_mb;
            out.mem_mbps[j] = out.busy_cores[j] * s.bw_per_core_mbps;
        } else {
            out.rate[j] = 1.0 / (s.setup_s * slowdown * stragglers[j]);
            out.busy_cores[j] = 0.4; // single setup thread, partially busy
            out.read_mbps[j] = 0.0;
            out.write_mbps[j] = 0.0;
            out.nic_mbps[j] = 0.0;
            out.mem_mbps[j] = 0.0;
        }
    }
    let total_io: f64 = out.read_mbps[..n]
        .iter()
        .chain(out.write_mbps[..n].iter())
        .sum();
    let streams: f64 = q_io[..n].iter().sum::<f64>().max(1.0);
    let cap_phys = spec.disk.aggregate_bw(streams) / slowdown;
    let disk_util = (total_io / cap_phys).clamp(0.0, 1.0);
    let total_mem: f64 = out.mem_mbps[..n].iter().sum();
    let mem_util = (total_mem / spec.mem_bw_mbps()).clamp(0.0, 1.0);
    let allocated: f64 = eff_slots[..n].iter().sum();

    let mut busy_at = [(0.0_f64, 0.0_f64); MAX_COLOCATED];
    for (j, job) in active.iter().enumerate() {
        busy_at[j] = (out.busy_cores[j], job.stage().dyn_factor);
    }
    let breakdown = power.dynamic_power(&busy_at[..n], allocated, disk_util, mem_util, 0.0);
    let nic_w = nic_util * nic_power_w;
    let power_total_w = breakdown.total() + nic_w;

    // Attribution: cores exactly; shared resources pro-rata by usage.
    let total_nic: f64 = out.nic_mbps[..n].iter().sum();
    for j in 0..n {
        let s = active[j].stage();
        let core = out.busy_cores[j] * spec.core_busy_power_w * s.dyn_factor
            + (eff_slots[j] - out.busy_cores[j]).max(0.0) * spec.core_iowait_power_w
            + eff_slots[j] * spec.core_static_power_w;
        let io_j = out.read_mbps[j] + out.write_mbps[j];
        let disk = if total_io > 0.0 {
            breakdown.disk_w * io_j / total_io
        } else {
            0.0
        };
        let mem = if total_mem > 0.0 {
            breakdown.mem_w * out.mem_mbps[j] / total_mem
        } else {
            0.0
        };
        let nic = if total_nic > 0.0 {
            nic_w * out.nic_mbps[j] / total_nic
        } else {
            0.0
        };
        out.power_attr_w[j] = core + disk + mem + nic;
    }

    out.n = n;
    out.slow = slow;
    out.footprint_mb = footprint_mb;
    out.power_total_w = power_total_w;
    out.disk_util = disk_util;
    out.mem_util = mem_util;
    out.nic_util = nic_util;
}

/// Hard cap on simulators per batched window ([`run_batch_to_completion`]).
///
/// Sixteen lanes: the AMVA lane kernel solves four problems per `f64x4`
/// vector, so a full window is four vector chunks per outer round, and
/// it still fills whole chunks as lanes whose coupling converged drop
/// out. The per-round bookkeeping below stays in small fixed stack
/// arrays.
pub const MAX_BATCH_LANES: usize = 16;

/// Wall-clock breakdown of batched window execution, accumulated while
/// phase timing is enabled ([`BatchScratch::set_phase_timing`]) and drained
/// with [`BatchScratch::take_phases`]. All buckets are nanoseconds; timing
/// never changes any simulated quantity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPhases {
    /// Inside the AMVA lane kernel ([`ecost_sim::amva::solve_lanes`]).
    pub solve_ns: u64,
    /// Outer contention fixed-point bookkeeping around the kernel: class
    /// builds, θ/slow coupling, convergence masking, finalize.
    pub outer_ns: u64,
    /// Event-loop bookkeeping between solves: re-solve detection, event
    /// stepping, budgets, live-lane compaction.
    pub event_ns: u64,
}

impl BatchPhases {
    /// Bucket-wise sum, for aggregating across windows.
    pub fn absorb(&mut self, other: BatchPhases) {
        self.solve_ns += other.solve_ns;
        self.outer_ns += other.outer_ns;
        self.event_ns += other.event_ns;
    }
}

/// Settings and phase timers for batched run windows
/// ([`run_batch_to_completion`]): the AMVA lane kernel's backend and the
/// optional phase breakdown. All per-lane solve state lives on the stack,
/// so a scratch holds no buffers and a batched run allocates nothing.
pub struct BatchScratch {
    backend: SimdBackend,
    timing: bool,
    phases: BatchPhases,
}

impl BatchScratch {
    /// A scratch on the detected backend ([`SimdBackend::detect`]), phase
    /// timing off.
    pub fn new() -> BatchScratch {
        BatchScratch {
            backend: SimdBackend::detect(),
            timing: false,
            phases: BatchPhases::default(),
        }
    }

    /// Select the AMVA lane kernel's backend for this scratch's batched
    /// solves (validated against the running CPU). Every backend is
    /// bit-identical to the scalar path, so this only moves throughput.
    pub fn set_simd_backend(&mut self, backend: SimdBackend) {
        self.backend = backend.validated();
    }

    /// The AMVA lane kernel's backend for the next batched solve.
    pub fn simd_backend(&self) -> SimdBackend {
        self.backend
    }

    /// Enable wall-clock phase accounting ([`BatchPhases`]). Off by
    /// default: the hot path takes no timestamps unless asked.
    pub fn set_phase_timing(&mut self, timing: bool) {
        self.timing = timing;
    }

    /// Drain the accumulated phase breakdown, resetting it to zero.
    pub fn take_phases(&mut self) -> BatchPhases {
        std::mem::take(&mut self.phases)
    }
}

impl Default for BatchScratch {
    fn default() -> Self {
        BatchScratch::new()
    }
}

/// Solve a group of two or more simulators that all run `NC` jobs (one
/// or two — `S = NC + 1` stations) with the AMVA lane kernel.
///
/// Each lane runs exactly [`outer_fixed_point`] + [`fixed_round`] — same
/// [`prepare`], same classes built by value through [`think_at`],
/// [`io_demand_at`] and [`nic_demand`], same θ/slow [`couple`] step and
/// residual test, starting from `(θ, slow) = (1, 1)` — and then the same
/// [`finalize`]; only the schedule differs. Every outer round solves all
/// still-coupling lanes in one [`solve_lanes`] call, then drops the lanes
/// whose coupling converged (order-preserving), so each simulator's rate
/// solution is bit-identical to what its own `ensure_solution` would
/// have produced. A round in which any lane fails fails the group with
/// the lowest failing lane's error. Per-lane state is on the stack.
fn solve_fixed_group<const NC: usize, const S: usize>(
    sims: &mut [NodeSim],
    lane_ids: &[usize],
    scratch: &mut BatchScratch,
) -> Result<(), SimError> {
    let k = lane_ids.len();
    let t_all = scratch.timing.then(Instant::now);
    let mut solve_ns = 0u64;
    let mut preps = [SolvePrep::<NC>::empty(); MAX_BATCH_LANES];
    let mut states = [OuterState::<NC>::start(); MAX_BATCH_LANES];
    for (prep, &i) in preps.iter_mut().zip(lane_ids) {
        let sim = &sims[i];
        prepare(&sim.spec, &sim.fw, sim.slowdown, &sim.active, prep);
    }
    let mut live: [usize; MAX_BATCH_LANES] = std::array::from_fn(|slot| slot);
    let mut nlive = k;
    let mut problems = [FixedClasses::<NC, S>::zeroed(); MAX_BATCH_LANES];
    for _outer in 0..OUTER_ROUNDS {
        if nlive == 0 {
            break;
        }
        for (p, &slot) in problems.iter_mut().zip(&live[..nlive]) {
            let nic_bw_mbps = sims[lane_ids[slot]].nic_bw_mbps;
            *p = fixed_classes(&preps[slot], nic_bw_mbps, &mut states[slot]);
        }
        let mut failed: Option<(usize, SimError)> = None;
        let t_solve = scratch.timing.then(Instant::now);
        solve_lanes(scratch.backend, &problems[..nlive], |r, sol| {
            let slot = live[r];
            match sol {
                Ok(sol) => read_back(&sol, &mut states[slot]),
                Err(e) => {
                    if failed.as_ref().is_none_or(|&(f, _)| slot < f) {
                        failed = Some((slot, e));
                    }
                }
            }
        });
        if let Some(t) = t_solve {
            solve_ns += t.elapsed().as_nanos() as u64;
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
        let mut w = 0usize;
        for r in 0..nlive {
            let slot = live[r];
            if states[slot].couple(&preps[slot], &sims[lane_ids[slot]].spec) {
                live[w] = slot;
                w += 1;
            }
        }
        nlive = w;
    }

    for ((prep, st), &i) in preps.iter().zip(&states).zip(lane_ids) {
        let sim = &mut sims[i];
        let back = 1 - sim.front;
        let NodeSim {
            spec,
            power,
            nic_power_w,
            active,
            bufs,
            ..
        } = sim;
        finalize(prep, spec, power, *nic_power_w, active, st, &mut bufs[back]);
        sim.front = back;
        sim.sol_valid = true;
    }

    if let Some(t) = t_all {
        let total = t.elapsed().as_nanos() as u64;
        scratch.phases.solve_ns += solve_ns;
        scratch.phases.outer_ns += total.saturating_sub(solve_ns);
    }
    Ok(())
}

/// Solve several independent simulators' contention models at once:
/// `lane_ids` is stably partitioned into shape-uniform groups (same
/// co-located job count). A group of two or more one-job or two-job
/// simulators — every sweep solve outside k-way co-location — runs on the
/// AMVA lane kernel ([`solve_fixed_group`]); a singleton has nothing to
/// batch with, and a group of three or more jobs has no fixed-shape
/// kernel, so those take each simulator's own `ensure_solution`. Per-lane
/// results are bit-identical to the scalar solve either way.
fn solve_batch(
    sims: &mut [NodeSim],
    lane_ids: &[usize],
    scratch: &mut BatchScratch,
) -> Result<(), SimError> {
    let k = lane_ids.len();
    if k > MAX_BATCH_LANES {
        return Err(SimError::Internal(
            "batched window wider than MAX_BATCH_LANES",
        ));
    }
    let mut used = [false; MAX_BATCH_LANES];
    for i in 0..k {
        if used[i] {
            continue;
        }
        used[i] = true;
        let n = sims[lane_ids[i]].active.len();
        let mut group: [usize; MAX_BATCH_LANES] = [0; MAX_BATCH_LANES];
        group[0] = lane_ids[i];
        let mut g = 1usize;
        for j in i + 1..k {
            if !used[j] && sims[lane_ids[j]].active.len() == n {
                used[j] = true;
                group[g] = lane_ids[j];
                g += 1;
            }
        }
        match (n, g) {
            (1, 2..) => solve_fixed_group::<1, 2>(sims, &group[..g], scratch)?,
            (2, 2..) => solve_fixed_group::<2, 3>(sims, &group[..g], scratch)?,
            _ => {
                for &lane in &group[..g] {
                    sims[lane].ensure_solution()?;
                }
            }
        }
    }
    Ok(())
}

/// Run every simulator in `sims` to completion, solving their rate models
/// in batches on the AMVA lane kernel ([`solve_lanes`]) instead of one at
/// a time.
///
/// Equivalent to calling [`NodeSim::run_to_completion`] on each simulator
/// in sequence — same per-simulator event order and budgets, bit-identical
/// outcomes (each lane's rate solutions match its own scalar solves) — but
/// the independent contention fixed points of simulators that need a
/// re-solve in the same round advance together (`solve_batch`),
/// overlapping their dependent divide chains for instruction-level
/// parallelism. The event-loop bookkeeping runs over a compacted live-lane
/// list rather than re-scanning every simulator per round.
///
/// Fails fast on the first lane error, matching a scalar sweep abandoning
/// the failing window. At most [`MAX_BATCH_LANES`] simulators per call.
pub fn run_batch_to_completion(
    sims: &mut [NodeSim],
    scratch: &mut BatchScratch,
) -> Result<(), SimError> {
    if sims.len() > MAX_BATCH_LANES {
        return Err(SimError::Internal(
            "batched window wider than MAX_BATCH_LANES",
        ));
    }
    let mut budget = [0u64; MAX_BATCH_LANES];
    let mut events = [0u64; MAX_BATCH_LANES];
    for (b, sim) in budget.iter_mut().zip(sims.iter()) {
        *b = (64 + 16 * sim.active.iter().map(|j| j.stages.len()).sum::<usize>()) as u64;
    }
    // Live-lane list, compacted order-preservingly as simulators drain so
    // each simulator steps in the order a full scan would visit it.
    let mut live: [usize; MAX_BATCH_LANES] = [0; MAX_BATCH_LANES];
    let mut nlive = 0usize;
    for (i, sim) in sims.iter().enumerate() {
        if !sim.active.is_empty() {
            live[nlive] = i;
            nlive += 1;
        }
    }
    while nlive > 0 {
        let t0 = scratch.timing.then(Instant::now);
        // Lanes whose job mix changed since the last solve get re-solved
        // together, lane-interleaved.
        let mut need = [0usize; MAX_BATCH_LANES];
        let mut k = 0usize;
        for &i in &live[..nlive] {
            if !sims[i].sol_valid {
                need[k] = i;
                k += 1;
            }
        }
        if let Some(t) = t0 {
            scratch.phases.event_ns += t.elapsed().as_nanos() as u64;
        }
        if k > 0 {
            solve_batch(sims, &need[..k], scratch)?;
        }
        // One event step per still-active lane; the solutions were just
        // refreshed, so `step` never falls back to a scalar solve.
        let t1 = scratch.timing.then(Instant::now);
        let mut w = 0usize;
        for r in 0..nlive {
            let i = live[r];
            let sim = &mut sims[i];
            sim.step()?;
            events[i] += 1;
            if events[i] >= budget[i] {
                return Err(SimError::EventLoopRunaway {
                    events: events[i],
                    budget: budget[i],
                });
            }
            if !sim.active.is_empty() {
                live[w] = i;
                w += 1;
            }
        }
        nlive = w;
        if let Some(t) = t1 {
            scratch.phases.event_ns += t.elapsed().as_nanos() as u64;
        }
    }
    Ok(())
}

/// Convenience: run `jobs` co-located from t=0 on a fresh node and return
/// their outcomes in completion order plus the makespan.
pub fn run_colocated(
    spec: &NodeSpec,
    fw: &FrameworkSpec,
    jobs: Vec<JobSpec>,
) -> Result<(Vec<JobOutcome>, f64), SimError> {
    let mut node = NodeSim::new(spec.clone(), fw.clone());
    for j in jobs {
        node.submit(j)?;
    }
    node.run_to_completion()?;
    let makespan = node.now();
    Ok((node.take_finished(), makespan))
}

/// Convenience: run one job alone on a fresh node.
pub fn run_standalone(
    spec: &NodeSpec,
    fw: &FrameworkSpec,
    job: JobSpec,
) -> Result<JobOutcome, SimError> {
    let (mut out, _) = run_colocated(spec, fw, vec![job])?;
    out.pop()
        .ok_or(SimError::Internal("one job submitted, none finished"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BlockSize, TuningConfig};
    use ecost_apps::{App, InputSize};
    use ecost_sim::Frequency;

    fn cfg(m: u32, f: Frequency, b: BlockSize) -> TuningConfig {
        TuningConfig {
            freq: f,
            block: b,
            mappers: m,
        }
    }

    fn atom() -> (NodeSpec, FrameworkSpec) {
        (NodeSpec::atom_c2758(), FrameworkSpec::default())
    }

    #[test]
    fn standalone_job_completes_with_positive_metrics() {
        let (spec, fw) = atom();
        let job = JobSpec::new(
            App::Wc,
            InputSize::Small,
            cfg(4, Frequency::F2_4, BlockSize::B256),
        );
        let out = run_standalone(&spec, &fw, job).unwrap();
        assert!(out.metrics.exec_time_s > 10.0);
        assert!(out.metrics.energy_j > 0.0);
        assert!(out.metrics.avg_power_w > 0.0);
        assert!(out.usage.read_mb >= 1024.0 * 0.99);
    }

    #[test]
    fn more_mappers_speed_up_compute_bound() {
        let (spec, fw) = atom();
        let t = |m| {
            run_standalone(
                &spec,
                &fw,
                JobSpec::new(
                    App::Wc,
                    InputSize::Large,
                    cfg(m, Frequency::F2_4, BlockSize::B256),
                ),
            )
            .unwrap()
            .metrics
            .exec_time_s
        };
        let (t1, t4, t8) = (t(1), t(4), t(8));
        assert!(t4 < 0.35 * t1, "t1={t1} t4={t4}");
        assert!(t8 < 0.7 * t4, "t4={t4} t8={t8}");
    }

    #[test]
    fn mappers_barely_help_io_bound() {
        // Sort is capped by the job I/O pipeline: going 2 → 8 mappers must
        // give far less than the 4× a compute-bound job would enjoy.
        let (spec, fw) = atom();
        let t = |m| {
            run_standalone(
                &spec,
                &fw,
                JobSpec::new(
                    App::St,
                    InputSize::Medium,
                    cfg(m, Frequency::F2_4, BlockSize::B256),
                ),
            )
            .unwrap()
            .metrics
            .exec_time_s
        };
        let (t2, t8) = (t(2), t(8));
        assert!(t8 > 0.7 * t2, "t2={t2} t8={t8}");
    }

    #[test]
    fn frequency_speeds_up_compute_not_io() {
        let (spec, fw) = atom();
        let run = |app, f| {
            run_standalone(
                &spec,
                &fw,
                JobSpec::new(app, InputSize::Medium, cfg(4, f, BlockSize::B512)),
            )
            .unwrap()
            .metrics
            .exec_time_s
        };
        let wc_speedup = run(App::Wc, Frequency::F1_2) / run(App::Wc, Frequency::F2_4);
        let st_speedup = run(App::St, Frequency::F1_2) / run(App::St, Frequency::F2_4);
        assert!(wc_speedup > 1.7, "wc {wc_speedup}");
        assert!(st_speedup < 1.35, "st {st_speedup}");
    }

    #[test]
    fn colocated_sorts_beat_serial_execution() {
        // The headline mechanism: two I/O-bound jobs fill each other's disk
        // gaps and together beat back-to-back execution.
        let (spec, fw) = atom();
        let job = || {
            JobSpec::new(
                App::St,
                InputSize::Medium,
                cfg(2, Frequency::F2_4, BlockSize::B512),
            )
        };
        let solo = run_standalone(&spec, &fw, job())
            .unwrap()
            .metrics
            .exec_time_s;
        let (_, makespan) = run_colocated(&spec, &fw, vec![job(), job()]).unwrap();
        assert!(
            makespan < 1.75 * solo,
            "makespan {makespan} vs serial {}",
            2.0 * solo
        );
    }

    #[test]
    fn colocated_compute_jobs_roughly_serialize() {
        let (spec, fw) = atom();
        let job = |m| {
            JobSpec::new(
                App::Wc,
                InputSize::Medium,
                cfg(m, Frequency::F2_4, BlockSize::B128),
            )
        };
        let solo8 = run_standalone(&spec, &fw, job(8))
            .unwrap()
            .metrics
            .exec_time_s;
        let (_, makespan) = run_colocated(&spec, &fw, vec![job(4), job(4)]).unwrap();
        // Two half-width compute jobs ≈ one full-width job run twice.
        assert!(makespan > 1.5 * solo8, "makespan {makespan} solo8 {solo8}");
        assert!(makespan < 2.6 * solo8, "makespan {makespan} solo8 {solo8}");
    }

    #[test]
    fn memory_bound_pair_contends_on_bandwidth() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        for _ in 0..2 {
            node.submit(JobSpec::new(
                App::Fp,
                InputSize::Medium,
                cfg(4, Frequency::F2_4, BlockSize::B512),
            ))
            .unwrap();
        }
        // Skip past setup so the map stages are active.
        node.step().unwrap();
        let (_, mem_util, slow, _) = node.contention_snapshot().unwrap();
        assert!(mem_util > 0.9, "mem_util {mem_util}");
        assert!(slow > 1.1, "slow {slow}");
    }

    #[test]
    fn compute_pair_has_no_memory_pressure() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        for _ in 0..2 {
            node.submit(JobSpec::new(
                App::Wc,
                InputSize::Medium,
                cfg(4, Frequency::F2_4, BlockSize::B512),
            ))
            .unwrap();
        }
        node.step().unwrap();
        let (_, _, slow, _) = node.contention_snapshot().unwrap();
        assert!((slow - 1.0).abs() < 1e-6, "slow {slow}");
    }

    #[test]
    fn core_budget_is_enforced() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        node.submit(JobSpec::new(
            App::Wc,
            InputSize::Small,
            cfg(6, Frequency::F2_4, BlockSize::B256),
        ))
        .unwrap();
        let err = node.submit(JobSpec::new(
            App::St,
            InputSize::Small,
            cfg(4, Frequency::F2_4, BlockSize::B256),
        ));
        assert!(matches!(err, Err(SimError::CoreBudgetExceeded { .. })));
        assert_eq!(node.free_cores(), 2);
    }

    #[test]
    fn disk_work_is_conserved() {
        // Total bytes moved must match the job's static I/O inventory
        // (no DRAM over-subscription in this setup).
        let (spec, fw) = atom();
        let job = JobSpec::new(
            App::Ts,
            InputSize::Small,
            cfg(4, Frequency::F2_0, BlockSize::B128),
        );
        let expect = job.total_io_mb(&fw);
        let out = run_standalone(&spec, &fw, job).unwrap();
        let moved = out.usage.read_mb + out.usage.write_mb;
        assert!(
            (moved - expect).abs() / expect < 0.02,
            "moved {moved} expect {expect}"
        );
    }

    #[test]
    fn node_energy_equals_sum_of_attributed_energy() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        node.submit(JobSpec::new(
            App::Gp,
            InputSize::Small,
            cfg(3, Frequency::F2_0, BlockSize::B256),
        ))
        .unwrap();
        node.submit(JobSpec::new(
            App::St,
            InputSize::Small,
            cfg(2, Frequency::F1_6, BlockSize::B128),
        ))
        .unwrap();
        node.run_to_completion().unwrap();
        let attributed: f64 = node.finished().iter().map(|o| o.usage.energy_j).sum();
        let total = node.energy_j();
        assert!(
            (attributed - total).abs() / total < 0.02,
            "attributed {attributed} total {total}"
        );
    }

    #[test]
    fn dram_oversubscription_inflates_io() {
        let (spec, fw) = atom();
        // Two big FP-Growth jobs with huge block buffers blow past 8 GB.
        let job = || {
            JobSpec::new(
                App::Fp,
                InputSize::Large,
                cfg(4, Frequency::F2_4, BlockSize::B1024),
            )
        };
        let mut node = NodeSim::new(spec, fw.clone());
        node.submit(job()).unwrap();
        node.submit(job()).unwrap();
        node.step().unwrap();
        let (_, _, _, footprint) = node.contention_snapshot().unwrap();
        assert!(footprint > 8192.0, "footprint {footprint}");
        node.run_to_completion().unwrap();
        let moved: f64 = node
            .finished()
            .iter()
            .map(|o| o.usage.read_mb + o.usage.write_mb)
            .sum();
        let static_io: f64 = 2.0 * job().total_io_mb(&fw);
        assert!(
            moved > 1.05 * static_io,
            "spill should inflate: {moved} vs {static_io}"
        );
    }

    #[test]
    fn small_blocks_pay_task_overhead() {
        let (spec, fw) = atom();
        let t = |b| {
            run_standalone(
                &spec,
                &fw,
                JobSpec::new(App::Gp, InputSize::Large, cfg(4, Frequency::F2_4, b)),
            )
            .unwrap()
            .metrics
            .exec_time_s
        };
        assert!(t(BlockSize::B64) > 1.15 * t(BlockSize::B512));
    }

    #[test]
    fn time_is_monotone_under_colocation() {
        // A job never gets faster because a rival appeared.
        let (spec, fw) = atom();
        let st = JobSpec::new(
            App::St,
            InputSize::Small,
            cfg(2, Frequency::F2_4, BlockSize::B256),
        );
        let wc = JobSpec::new(
            App::Wc,
            InputSize::Small,
            cfg(6, Frequency::F2_4, BlockSize::B256),
        );
        let solo = run_standalone(&spec, &fw, st.clone())
            .unwrap()
            .metrics
            .exec_time_s;
        let (outs, _) = run_colocated(&spec, &fw, vec![st, wc]).unwrap();
        let st_out = outs.iter().find(|o| o.spec.profile.name == "st").unwrap();
        assert!(st_out.metrics.exec_time_s >= 0.99 * solo);
    }

    #[test]
    fn timeline_records_stages_in_order() {
        let (spec, fw) = atom();
        let out = run_standalone(
            &spec,
            &fw,
            JobSpec::new(
                App::Ts,
                InputSize::Small,
                cfg(4, Frequency::F2_0, BlockSize::B256),
            ),
        )
        .unwrap();
        let kinds: Vec<_> = out.timeline.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                crate::stage::StageKind::Setup,
                crate::stage::StageKind::Map,
                crate::stage::StageKind::Reduce
            ]
        );
        // Times strictly increase and end at the job's completion.
        for w in out.timeline.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
        let last = out.timeline.last().unwrap().1;
        assert!((last - out.metrics.exec_time_s).abs() < 1e-6);
    }

    #[test]
    fn power_trace_integrates_to_metered_energy() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        node.enable_power_trace();
        node.submit(JobSpec::new(
            App::Gp,
            InputSize::Small,
            cfg(4, Frequency::F2_0, BlockSize::B256),
        ))
        .unwrap();
        node.run_to_completion().unwrap();
        let trace = node.power_trace().expect("enabled");
        assert!(!trace.is_empty());
        let trace_energy: f64 = trace.iter().sum();
        // Whole-second samples cover all but the trailing partial second.
        assert!(trace_energy <= node.energy_j() + 1e-9);
        assert!(trace_energy >= node.energy_j() * 0.9);
    }

    #[test]
    fn advancing_an_idle_node_moves_time_only() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        node.advance(5.0).unwrap();
        assert_eq!(node.now(), 5.0);
        assert_eq!(node.energy_j(), 0.0);
    }

    /// `job` alone on a fresh node slowed by `slowdown` through
    /// [`NodeSim::set_slowdown`], the only way the scheduler degrades a node.
    fn run_slowed(job: JobSpec, slowdown: f64) -> JobOutcome {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        node.set_slowdown(slowdown).unwrap();
        node.submit(job).unwrap();
        node.run_to_completion().unwrap();
        node.pop_finished().unwrap()
    }

    #[test]
    fn unit_slowdown_is_bit_identical_to_healthy() {
        let (spec, fw) = atom();
        let job = JobSpec::new(
            App::Gp,
            InputSize::Small,
            cfg(4, Frequency::F2_0, BlockSize::B256),
        );
        let healthy = run_standalone(&spec, &fw, job.clone()).unwrap();
        let degraded = run_slowed(job, 1.0);
        assert_eq!(healthy.metrics.exec_time_s, degraded.metrics.exec_time_s);
        assert_eq!(healthy.usage.energy_j, degraded.usage.energy_j);
    }

    #[test]
    fn slowdown_stretches_time_for_compute_and_io() {
        let t = |app, slow| {
            let job = JobSpec::new(
                app,
                InputSize::Small,
                cfg(4, Frequency::F2_4, BlockSize::B256),
            );
            run_slowed(job, slow).metrics.exec_time_s
        };
        for app in [App::Wc, App::St] {
            let (healthy, slow) = (t(app, 1.0), t(app, 2.0));
            assert!(
                slow > 1.5 * healthy,
                "{app:?}: healthy {healthy} slow {slow}"
            );
        }
    }

    #[test]
    fn slowdown_rejects_bad_factors() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        assert!(node.set_slowdown(0.5).is_err());
        assert!(node.set_slowdown(f64::NAN).is_err());
        assert!(node.set_slowdown(1.0).is_ok());
        assert_eq!(node.slowdown(), 1.0);
    }

    #[test]
    fn straggler_slows_the_wave_and_clears_at_boundary() {
        let (spec, fw) = atom();
        let job = || {
            JobSpec::new(
                App::Wc,
                InputSize::Small,
                cfg(4, Frequency::F2_4, BlockSize::B256),
            )
        };
        let healthy = run_standalone(&spec, &fw, job())
            .unwrap()
            .metrics
            .exec_time_s;

        let mut node = NodeSim::new(spec, fw);
        let h = node.submit(job()).unwrap();
        node.step().unwrap(); // retire setup → map wave active
        node.inject_straggler(h, 4.0).unwrap();
        assert_eq!(node.stragglers_injected(), 1);
        node.run_to_completion().unwrap();
        let slowed = node.finished()[0].metrics.exec_time_s;
        assert!(slowed > 1.5 * healthy, "healthy {healthy} slowed {slowed}");
        // The reduce wave runs at full speed again: total must stay well
        // under a whole-job 4× stretch.
        assert!(slowed < 4.0 * healthy, "healthy {healthy} slowed {slowed}");
    }

    #[test]
    fn speculation_recovers_time_at_an_energy_premium() {
        let (spec, fw) = atom();
        let job = || {
            JobSpec::new(
                App::Wc,
                InputSize::Small,
                cfg(4, Frequency::F2_4, BlockSize::B256),
            )
        };
        let run = |speculate: bool| {
            let mut node = NodeSim::new(spec.clone(), fw.clone());
            let h = node.submit(job()).unwrap();
            node.step().unwrap();
            node.inject_straggler(h, 6.0).unwrap();
            if speculate {
                assert!(node.speculate(h, 2).unwrap());
                assert_eq!(node.speculative_retries(), 1);
            }
            node.run_to_completion().unwrap();
            node.finished()[0].clone()
        };
        let stalled = run(false);
        let rescued = run(true);
        assert!(
            rescued.metrics.exec_time_s < stalled.metrics.exec_time_s,
            "speculation must beat waiting out the straggler: {} vs {}",
            rescued.metrics.exec_time_s,
            stalled.metrics.exec_time_s
        );
        // The duplicated work costs energy relative to a healthy run.
        let healthy = run_standalone(&spec, &fw, job()).unwrap();
        assert!(rescued.usage.energy_j > healthy.usage.energy_j);
    }

    #[test]
    fn speculation_needs_straggler_and_free_cores() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        let h = node
            .submit(JobSpec::new(
                App::Wc,
                InputSize::Small,
                cfg(8, Frequency::F2_4, BlockSize::B256),
            ))
            .unwrap();
        node.step().unwrap();
        // Not straggling → no backup.
        assert!(!node.speculate(h, 2).unwrap());
        node.inject_straggler(h, 3.0).unwrap();
        // Straggling but zero free cores → no backup.
        assert!(!node.speculate(h, 2).unwrap());
        assert_eq!(node.speculative_retries(), 0);
        // Unknown handle is a typed error, not a panic.
        assert!(matches!(
            node.inject_straggler(JobHandle(999), 2.0),
            Err(SimError::NoSuchJob(999))
        ));
    }

    #[test]
    fn crash_drops_active_jobs_and_keeps_energy() {
        let (spec, fw) = atom();
        let mut node = NodeSim::new(spec, fw);
        let h = node
            .submit(JobSpec::new(
                App::St,
                InputSize::Small,
                cfg(4, Frequency::F2_4, BlockSize::B256),
            ))
            .unwrap();
        node.step().unwrap();
        node.advance(5.0).unwrap();
        let spent = node.energy_j();
        assert!(spent > 0.0);
        let displaced = node.crash();
        assert_eq!(displaced, vec![h]);
        assert_eq!(node.active_jobs(), 0);
        assert!(node.finished().is_empty());
        assert_eq!(node.energy_j(), spent);
        assert_eq!(node.free_cores(), 8);
    }

    #[test]
    fn lane_group_fails_with_its_lowest_failing_lane() {
        let (spec, fw) = atom();
        let sims = || -> Vec<NodeSim> {
            let mut sims: Vec<NodeSim> = (0..5)
                .map(|_| {
                    let mut sim = NodeSim::new(spec.clone(), fw.clone());
                    sim.submit(JobSpec::new(
                        App::St,
                        InputSize::Small,
                        cfg(4, Frequency::F2_4, BlockSize::B256),
                    ))
                    .unwrap();
                    // Start on the first fluid (map) stage.
                    let job = &mut sim.active[0];
                    job.stage_idx = job.stages.iter().position(Stage::is_fluid).unwrap();
                    sim
                })
                .collect();
            // Two different invalid classes: lane 1's disk demand and
            // lane 3's think time are not finite.
            fn stage(sim: &mut NodeSim) -> &mut Stage {
                let job = &mut sim.active[0];
                &mut job.stages[job.stage_idx]
            }
            stage(&mut sims[1]).io_mb = f64::INFINITY;
            stage(&mut sims[3]).think0_s = f64::NAN;
            sims
        };
        for backend in [SimdBackend::detect(), SimdBackend::Scalar] {
            let mut group = sims();
            let mut scratch = BatchScratch::new();
            scratch.set_simd_backend(backend);
            let err = run_batch_to_completion(&mut group, &mut scratch).unwrap_err();
            let mut alone = sims();
            let lane1 = alone[1].ensure_solution().unwrap_err();
            let lane3 = alone[3].ensure_solution().unwrap_err();
            assert_ne!(lane1, lane3);
            assert_eq!(err, lane1, "{backend:?}");
        }
    }
}
