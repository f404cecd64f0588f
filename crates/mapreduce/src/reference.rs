//! Frozen pre-optimisation executor: the bit-identity oracle.
//!
//! This is a faithful copy of the [`crate::executor`] hot path *before* the
//! zero-allocation refactor: `solve` returns a freshly allocated
//! [`Vec`]-of-`Vec`s rate solution, `advance` clones the whole solution and
//! `time_to_next_event` clones the rate vector — on every event. It exists
//! for two reasons:
//!
//! 1. **Correctness oracle** — the property tests in
//!    `tests/reference_identity.rs` drive random job mixes and fault plans
//!    through both executors and require every metric to match to the bit
//!    (`f64::to_bits`). Any arithmetic drift introduced by the scratch
//!    buffers is caught immediately.
//! 2. **Perf baseline** — `bench_report`'s baseline arms sweep with this
//!    executor (fresh simulator per point, no pooling) so `BENCH_sim.json`
//!    records the speedup of the optimised path against a live, compiled-
//!    in-the-same-build reference rather than a stale number.
//!
//! Telemetry hooks are omitted (a recorder observes, it never feeds back
//! into the numbers). Do not "fix" or optimise this module — its value is
//! that it stays byte-for-byte the old arithmetic.

use crate::executor::{JobHandle, JobOutcome, JobUsage};
use crate::framework::FrameworkSpec;
use crate::job::JobSpec;
use crate::metrics::JobMetrics;
use crate::stage::Stage;
use ecost_sim::{amva, ClassDemand, EnergyMeter, NodeSpec, PowerModel, SimError};

struct ActiveJob {
    id: JobHandle,
    spec: JobSpec,
    stages: Vec<Stage>,
    stage_idx: usize,
    remaining: f64,
    start_s: f64,
    usage: JobUsage,
    timeline: Vec<(crate::stage::StageKind, f64)>,
    straggler: f64,
    extra_slots: u32,
}

impl ActiveJob {
    fn stage(&self) -> &Stage {
        &self.stages[self.stage_idx]
    }

    fn eff_slots(&self) -> u32 {
        self.stage().slots + self.extra_slots
    }
}

/// Per-job rates valid until the next event (allocating original).
#[derive(Debug, Clone)]
struct RateSolution {
    rate: Vec<f64>,
    busy_cores: Vec<f64>,
    read_mbps: Vec<f64>,
    write_mbps: Vec<f64>,
    nic_mbps: Vec<f64>,
    mem_mbps: Vec<f64>,
    slow: f64,
    power_total_w: f64,
    power_attr_w: Vec<f64>,
}

/// The pre-refactor node executor (see the module docs for why it exists).
pub struct ReferenceNodeSim {
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
    cached: Option<RateSolution>,
    slowdown: f64,
}

/// Numerical floor treating a stage as complete (same as the executor's).
const WORK_EPS: f64 = 1e-9;

impl ReferenceNodeSim {
    /// New node with effectively infinite NIC.
    pub fn new(spec: NodeSpec, fw: FrameworkSpec) -> ReferenceNodeSim {
        ReferenceNodeSim::with_nic(spec, fw, f64::INFINITY, 0.0)
    }

    /// New node with a finite NIC.
    pub fn with_nic(
        spec: NodeSpec,
        fw: FrameworkSpec,
        nic_bw_mbps: f64,
        nic_power_w: f64,
    ) -> ReferenceNodeSim {
        let power = PowerModel::new(spec.clone());
        ReferenceNodeSim {
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
            cached: None,
            slowdown: 1.0,
        }
    }

    /// Degrade every rate on this node by `factor` (≥ 1).
    pub fn set_slowdown(&mut self, factor: f64) -> Result<(), SimError> {
        if !factor.is_finite() || factor < 1.0 {
            return Err(SimError::InvalidDemand(
                "slowdown factor must be finite and >= 1",
            ));
        }
        self.slowdown = factor;
        self.cached = None;
        Ok(())
    }

    /// Slow the current task wave of job `h` by `multiplier` (≥ 1).
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
        self.cached = None;
        Ok(())
    }

    /// Speculative re-execution (same semantics as the executor's).
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
        let dup = f64::from(granted).min(job.remaining.max(0.0));
        job.remaining += dup;
        job.extra_slots += granted;
        job.straggler = 1.0;
        self.cached = None;
        Ok(true)
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Cores currently allocated to active jobs.
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

    /// Completed jobs so far (in completion order).
    pub fn finished(&self) -> &[JobOutcome] {
        &self.finished
    }

    /// Take ownership of the completed-job list.
    pub fn take_finished(&mut self) -> Vec<JobOutcome> {
        std::mem::take(&mut self.finished)
    }

    /// Total idle-subtracted energy integrated so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.meter.energy_j()
    }

    /// Submit a job; fails if its mapper count exceeds the free cores.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobHandle, SimError> {
        let m = spec.config.mappers;
        if m == 0 || m > self.free_cores() {
            return Err(SimError::CoreBudgetExceeded {
                requested: self.allocated_cores() + m,
                available: self.spec.cores,
            });
        }
        let stages = spec.stages(&self.fw);
        assert!(!stages.is_empty());
        let id = JobHandle(self.next_id);
        self.next_id += 1;
        let remaining = stages[0].tasks;
        self.active.push(ActiveJob {
            id,
            spec,
            stages,
            stage_idx: 0,
            remaining,
            start_s: self.now,
            usage: JobUsage::default(),
            timeline: Vec::new(),
            straggler: 1.0,
            extra_slots: 0,
        });
        self.cached = None;
        Ok(id)
    }

    /// Seconds until the next stage completion at current rates.
    pub fn time_to_next_event(&mut self) -> Result<Option<f64>, SimError> {
        if self.active.is_empty() {
            return Ok(None);
        }
        let rates = self.solution()?.rate.clone();
        let mut dt = f64::INFINITY;
        for (job, r) in self.active.iter().zip(rates) {
            debug_assert!(r > 0.0, "active job {} has zero rate", job.spec.label);
            dt = dt.min(job.remaining / r);
        }
        Ok(Some(dt.max(0.0)))
    }

    /// Advance the clock by `dt` seconds.
    pub fn advance(&mut self, dt: f64) -> Result<(), SimError> {
        assert!(dt >= 0.0 && dt.is_finite(), "bad dt {dt}");
        if self.active.is_empty() || dt == 0.0 {
            self.now += dt;
            return Ok(());
        }
        let sol = self.solution()?.clone();
        self.meter.record(dt, sol.power_total_w);
        let mut completed = Vec::new();
        let mut dirty = false;
        for (j, job) in self.active.iter_mut().enumerate() {
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
                job.timeline.push((job.stage().kind, self.now + dt));
                job.stage_idx += 1;
                if job.straggler != 1.0 || job.extra_slots != 0 {
                    job.straggler = 1.0;
                    job.extra_slots = 0;
                    dirty = true;
                }
                if job.stage_idx >= job.stages.len() {
                    completed.push(j);
                } else {
                    job.remaining = job.stages[job.stage_idx].tasks;
                    dirty = true;
                }
            }
        }
        if dirty {
            self.cached = None;
        }
        self.now += dt;
        for &j in completed.iter().rev() {
            let job = self.active.swap_remove(j);
            let exec = self.now - job.start_s;
            let metrics = JobMetrics {
                exec_time_s: exec,
                energy_j: job.usage.energy_j,
                avg_power_w: if exec > 0.0 {
                    job.usage.energy_j / exec
                } else {
                    0.0
                },
            };
            self.finished.push(JobOutcome {
                id: job.id,
                spec: job.spec,
                metrics,
                usage: job.usage,
                timeline: job.timeline,
            });
            self.cached = None;
        }
        Ok(())
    }

    /// Run one event step; returns handles of jobs that finished during it.
    pub fn step(&mut self) -> Result<Vec<JobHandle>, SimError> {
        let before = self.finished.len();
        match self.time_to_next_event()? {
            None => Ok(Vec::new()),
            Some(dt) => {
                self.advance(dt)?;
                Ok(self.finished[before..].iter().map(|o| o.id).collect())
            }
        }
    }

    /// Run until no active jobs remain.
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        let mut guard = 64 + 16 * self.active.iter().map(|j| j.stages.len()).sum::<usize>();
        while !self.active.is_empty() {
            self.step()?;
            guard -= 1;
            assert!(guard > 0, "event-loop runaway: rates failed to progress");
        }
        Ok(())
    }

    fn solution(&mut self) -> Result<&RateSolution, SimError> {
        if self.cached.is_none() {
            self.cached = Some(self.solve()?);
        }
        self.cached
            .as_ref()
            .ok_or(SimError::Internal("rate solution vanished after fill"))
    }

    /// Solve the contention model for the current job mix (allocating
    /// original — one `Vec` per quantity, fresh AMVA classes per outer
    /// iteration).
    fn solve(&self) -> Result<RateSolution, SimError> {
        let n = self.active.len();
        let stages: Vec<&Stage> = self.active.iter().map(|j| j.stage()).collect();
        let slowdown = self.slowdown;
        let stragglers: Vec<f64> = self.active.iter().map(|j| j.straggler).collect();
        let eff_slots: Vec<f64> = self
            .active
            .iter()
            .map(|j| f64::from(j.eff_slots()))
            .collect();

        let footprint_mb: f64 = stages.iter().map(|s| s.footprint_mb).sum();
        let spill = self
            .fw
            .spill_inflation(footprint_mb, self.spec.mem.capacity_mb);

        let static_cap: Vec<f64> = stages
            .iter()
            .map(|s| {
                if s.is_fluid() && s.io_mb > 0.0 {
                    self.fw
                        .job_io_cap(s.extent_mb)
                        .min(s.stream_bound_mbps(self.spec.disk.stream_rate(s.extent_mb)))
                        / slowdown
                } else {
                    0.0
                }
            })
            .collect();

        let mut theta: f64 = 1.0;
        let mut slow: f64 = 1.0;
        let mut x = vec![0.0_f64; n];
        let mut q_io = vec![0.0_f64; n];
        let mut nic_util = 0.0_f64;
        let stations = n + 1;
        for _outer in 0..200 {
            let classes: Vec<ClassDemand> = stages
                .iter()
                .enumerate()
                .map(|(j, s)| {
                    if !s.is_fluid() {
                        return ClassDemand {
                            population: 0.0,
                            think_time_s: 0.0,
                            demands_s: vec![0.0; stations],
                        };
                    }
                    let think = s.think0_s
                        * (1.0 - s.stall_frac + s.stall_frac * slow)
                        * slowdown
                        * stragglers[j];
                    let mut demands = vec![0.0; stations];
                    if s.io_mb > 0.0 && static_cap[j] > 0.0 {
                        demands[j] = s.io_mb * spill / (theta * static_cap[j]).max(1e-9);
                    }
                    if s.nic_mb > 0.0 && self.nic_bw_mbps.is_finite() {
                        demands[n] = s.nic_mb / self.nic_bw_mbps;
                    }
                    ClassDemand {
                        population: eff_slots[j],
                        think_time_s: think,
                        demands_s: demands,
                    }
                })
                .collect();

            let sol = amva::solve(&classes, stations)?;
            x.copy_from_slice(&sol.throughput);
            for (j, q) in q_io.iter_mut().enumerate() {
                *q = sol.queue[j][j];
            }
            nic_util = sol.station_util[n];

            let bw_demand: f64 = (0..n)
                .map(|j| {
                    let s = stages[j];
                    let think = s.think0_s
                        * (1.0 - s.stall_frac + s.stall_frac * slow)
                        * slowdown
                        * stragglers[j];
                    (x[j] * think).min(eff_slots[j]) * s.bw_per_core_mbps
                })
                .sum();
            let slow_target = (bw_demand / self.spec.mem_bw_mbps()).max(1.0);
            let slow_next = slow + 0.5 * (slow_target - slow);

            let streams: f64 = q_io.iter().sum::<f64>().max(1.0);
            let cap_phys = self.spec.disk.aggregate_bw(streams) / slowdown;
            let total_io: f64 = (0..n).map(|j| x[j] * stages[j].io_mb * spill).sum();
            let theta_target = if total_io > cap_phys {
                (theta * cap_phys / total_io).clamp(0.01, 1.0)
            } else {
                (theta * 1.15).min(1.0)
            };
            let theta_next = theta + 0.5 * (theta_target - theta);

            let resid = (slow_next - slow).abs() / slow + (theta_next - theta).abs();
            slow = slow_next;
            theta = theta_next;
            if resid < 1e-5 {
                break;
            }
        }

        let mut rate = vec![0.0_f64; n];
        let mut busy_cores = vec![0.0_f64; n];
        let mut read_mbps = vec![0.0_f64; n];
        let mut write_mbps = vec![0.0_f64; n];
        let mut nic_mbps = vec![0.0_f64; n];
        let mut mem_mbps = vec![0.0_f64; n];
        for (j, s) in stages.iter().enumerate() {
            if s.is_fluid() {
                rate[j] = x[j];
                let think = s.think0_s
                    * (1.0 - s.stall_frac + s.stall_frac * slow)
                    * slowdown
                    * stragglers[j];
                busy_cores[j] = (x[j] * think).min(eff_slots[j]);
                let io = x[j] * s.io_mb * spill;
                read_mbps[j] = io * s.read_frac;
                write_mbps[j] = io * (1.0 - s.read_frac);
                nic_mbps[j] = x[j] * s.nic_mb;
                mem_mbps[j] = busy_cores[j] * s.bw_per_core_mbps;
            } else {
                rate[j] = 1.0 / (s.setup_s * slowdown * stragglers[j]);
                busy_cores[j] = 0.4;
            }
        }
        let total_io: f64 = read_mbps.iter().chain(write_mbps.iter()).sum();
        let streams: f64 = q_io.iter().sum::<f64>().max(1.0);
        let cap_phys = self.spec.disk.aggregate_bw(streams) / slowdown;
        let disk_util = (total_io / cap_phys).clamp(0.0, 1.0);
        let total_mem: f64 = mem_mbps.iter().sum();
        let mem_util = (total_mem / self.spec.mem_bw_mbps()).clamp(0.0, 1.0);
        let allocated: f64 = eff_slots.iter().sum();

        let busy_at: Vec<(f64, f64)> = stages
            .iter()
            .enumerate()
            .map(|(j, s)| (busy_cores[j], s.dyn_factor))
            .collect();
        let breakdown = self
            .power
            .dynamic_power(&busy_at, allocated, disk_util, mem_util, 0.0);
        let nic_w = nic_util * self.nic_power_w;
        let power_total_w = breakdown.total() + nic_w;

        let total_nic: f64 = nic_mbps.iter().sum();
        let power_attr_w: Vec<f64> = (0..n)
            .map(|j| {
                let s = stages[j];
                let core = busy_cores[j] * self.spec.core_busy_power_w * s.dyn_factor
                    + (eff_slots[j] - busy_cores[j]).max(0.0) * self.spec.core_iowait_power_w
                    + eff_slots[j] * self.spec.core_static_power_w;
                let io_j = read_mbps[j] + write_mbps[j];
                let disk = if total_io > 0.0 {
                    breakdown.disk_w * io_j / total_io
                } else {
                    0.0
                };
                let mem = if total_mem > 0.0 {
                    breakdown.mem_w * mem_mbps[j] / total_mem
                } else {
                    0.0
                };
                let nic = if total_nic > 0.0 {
                    nic_w * nic_mbps[j] / total_nic
                } else {
                    0.0
                };
                core + disk + mem + nic
            })
            .collect();

        Ok(RateSolution {
            rate,
            busy_cores,
            read_mbps,
            write_mbps,
            nic_mbps,
            mem_mbps,
            slow,
            power_total_w,
            power_attr_w,
        })
    }
}

/// Run `jobs` co-located from t=0 on a fresh reference node.
pub fn run_colocated_reference(
    spec: &NodeSpec,
    fw: &FrameworkSpec,
    jobs: Vec<JobSpec>,
) -> Result<(Vec<JobOutcome>, f64), SimError> {
    let mut node = ReferenceNodeSim::new(spec.clone(), fw.clone());
    for j in jobs {
        node.submit(j)?;
    }
    node.run_to_completion()?;
    let makespan = node.now();
    Ok((node.take_finished(), makespan))
}

/// Run one job alone on a fresh reference node.
pub fn run_standalone_reference(
    spec: &NodeSpec,
    fw: &FrameworkSpec,
    job: JobSpec,
) -> Result<JobOutcome, SimError> {
    let (mut out, _) = run_colocated_reference(spec, fw, vec![job])?;
    out.pop()
        .ok_or(SimError::Internal("one job submitted, none finished"))
}
