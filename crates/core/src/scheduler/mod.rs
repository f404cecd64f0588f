//! The streaming cluster scheduler: the shared state machine and the
//! event-calendar driver that moves it through time.
//!
//! The §5 controller is a *streaming* scheduler: jobs enter a wait queue,
//! every node hosts up to two co-located jobs, and a policy
//! ([`StreamPolicy`]) decides partners and knob settings at each dispatch
//! point. This module owns that machinery, extracted from `mapping` so the
//! policies (what to run) and the event loop (when to run it) evolve
//! independently. [`StreamSim`] holds the state; the [`calendar`] driver
//! keeps per-node completion events in a binary-heap calendar, arrivals
//! and faults in sorted lists, and syncs only the touched nodes to each
//! event's time. Per-event cost scales with live jobs, not with cluster
//! size or arrival history. Every stream run, the closed §8 ECoST and UB
//! schedules and every fleet shard use this one driver.
//!
//! The wait-queue fairness rules (head reservation, small-job
//! leap-forward) apply within each dispatch's partner-scan window
//! ([`OPEN_ELIGIBLE_WINDOW`] positions by default), so a deep backlog
//! cannot make a single dispatch O(queue length).
//!
//! A lockstep driver, which advances every node by the global minimum
//! time-to-next-event at each step, remains only under `#[cfg(test)]`
//! (`lockstep.rs`), as the oracle the calendar is checked against: on the
//! tested streams the two make the same decisions and agree on makespan
//! and energy to 1e-6 relative. They define "simultaneous" differently,
//! though. Lockstep completes, in the same step, every job whose remaining
//! work falls within the simulator's work tolerance (`WORK_EPS`, in work
//! units), then dispatches in node-index order; the calendar treats node
//! events more than [`calendar::TIE_EPS`] seconds apart as separate
//! events, in time order. On Fig 9's WS4 at 4 nodes, nodes 2 and 0 finish
//! 1.048 ns apart at t ≈ 185.44 s: lockstep serves node 0 first, the
//! calendar node 2, and ECoST's normalised EDP in that cell is 1.86 × UB
//! under lockstep against 1.20 under the calendar, which the goldens
//! pin.

pub mod calendar;
#[cfg(test)]
mod lockstep;

pub(crate) use calendar::CalendarShard;

use crate::engine::{EvalEngine, EvalError, RetryPolicy};
use crate::features::AppSignature;
use crate::mapping::{ClusterRun, FaultReport};
use crate::queue::WaitQueue;
use ecost_apps::AppClass;
use ecost_mapreduce::executor::NodeSim;
use ecost_mapreduce::{JobSpec, TuningConfig};
use ecost_sim::{FaultKind, FaultPlan};
use ecost_telemetry::{Event, Gauge};
use std::collections::VecDeque;

/// Default partner-scan window: dispatch considers at most this many
/// queue positions (head first). Deep backlogs keep O(1) dispatch cost;
/// the head reservation and leap-forward rules apply unchanged within the
/// window. Table 3's 16-job workloads fit inside it whole.
pub const OPEN_ELIGIBLE_WINDOW: usize = 64;

/// A workload job prepared for cluster scheduling: its learning-period
/// signature and behaviour class.
#[derive(Clone)]
pub(crate) struct Prepared {
    pub(crate) sig: AppSignature,
    pub(crate) class: AppClass,
}

/// How a streaming scheduler picks partners and configurations. Implemented
/// by ECoST (classifier + decision tree + STP), its serviced twin, the
/// untuned baseline and the oracle-streamed upper bound (perfect pairing +
/// perfect tuning).
pub(crate) trait StreamPolicy {
    /// Given the job that anchors the node (already running or just taken
    /// from the head) and the eligible queue candidates, return the position
    /// *within `candidates`* of the chosen partner and the full pair
    /// configuration (`.a` for the anchor, `.b` for the partner).
    /// `now` is the scheduler's simulated clock, used to stamp any
    /// degradation events the policy records.
    fn pick(
        &self,
        now: f64,
        anchor: &Prepared,
        candidates: &[&Prepared],
        cores: u32,
    ) -> Result<(usize, ecost_mapreduce::PairConfig), EvalError>;

    /// Configuration for a job running alone (tail of the workload).
    fn solo_config(&self, now: f64, job: &Prepared, cores: u32) -> Result<TuningConfig, EvalError>;
}

/// Mutable state of one streaming-scheduler run: the nodes, what runs
/// where, which nodes are still alive, the wait queue and the fault /
/// degradation counters.
pub(crate) struct StreamSim<'e> {
    pub(crate) engine: &'e EvalEngine,
    pub(crate) cores: u32,
    pub(crate) retry: RetryPolicy,
    /// The scheduler's simulated clock, mirrored from the event loop so
    /// telemetry records carry simulated (never wall) timestamps.
    pub(crate) now: f64,
    /// Queue-depth gauge (`scheduler.queue_depth`), sampled at every
    /// dispatch decision point.
    pub(crate) queue_depth: Gauge,
    pub(crate) nodes: Vec<NodeSim>,
    pub(crate) running: Vec<Vec<(ecost_mapreduce::JobHandle, Prepared, u32)>>,
    pub(crate) alive: Vec<bool>,
    pub(crate) queue: WaitQueue<Prepared>,
    pub(crate) report: FaultReport,
    /// Partner scans consider the first `eligible_window` queue positions.
    pub(crate) eligible_window: usize,
}

impl<'e> StreamSim<'e> {
    /// Fresh scheduler state over `n` telemetry-tagged nodes.
    pub(crate) fn new(
        engine: &'e EvalEngine,
        n: usize,
        retry: RetryPolicy,
        max_head_skips: u32,
        eligible_window: usize,
    ) -> StreamSim<'e> {
        let tb = engine.testbed();
        StreamSim {
            engine,
            cores: tb.node.cores,
            retry,
            now: 0.0,
            queue_depth: engine.recorder().metrics().gauge("scheduler.queue_depth"),
            nodes: (0..n)
                .map(|i| {
                    let mut node = NodeSim::new(tb.node.clone(), tb.fw.clone());
                    node.set_telemetry(engine.recorder().clone(), 0, i as u32);
                    node
                })
                .collect(),
            running: vec![Vec::new(); n],
            alive: vec![true; n],
            queue: WaitQueue::new(max_head_skips),
            report: FaultReport::default(),
            eligible_window,
        }
    }

    /// The eligible partner candidates within the scan window.
    fn eligible_slice(&self) -> Vec<(usize, AppClass)> {
        self.queue.eligible_windowed(self.eligible_window)
    }

    /// Admit every pending job that has arrived by `now` into the wait
    /// queue (FIFO among simultaneous arrivals — `pending` is sorted).
    pub(crate) fn admit_due(&mut self, now: f64, pending: &mut VecDeque<(f64, Prepared)>) {
        while pending.front().is_some_and(|(t, _)| *t <= now + 1e-9) {
            if let Some((_, p)) = pending.pop_front() {
                self.engine
                    .recorder()
                    .emit(now, None, None, || Event::JobSubmit {
                        app: p.sig.profile.name.to_string(),
                        class: class_char(p.class),
                    });
                // "Small job" for the leap-forward rule = short estimated
                // runtime; the learning-period execution time is the estimate.
                let est = p.sig.profile_time_s;
                let class = p.class;
                self.queue.push(p, class, est);
            }
        }
    }

    /// Run `op` under the retry policy, folding the retry count and the
    /// accrued simulated backoff into the fault report.
    fn with_retry_tracked<T>(
        &mut self,
        mut op: impl FnMut() -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        let before = self.engine.stats().retries;
        let res = self.engine.with_retry(&self.retry, self.now, &mut op);
        self.report.retries += self.engine.stats().retries.saturating_sub(before);
        match res {
            Ok((value, backoff_s)) => {
                self.report.retry_backoff_s += backoff_s;
                Ok(value)
            }
            Err(e) => Err(e),
        }
    }

    /// Clone the payloads behind `eligible`'s queue indices, so partner
    /// selection can run without holding a borrow of the queue.
    fn eligible_payloads(
        &self,
        eligible: &[(usize, AppClass)],
    ) -> Result<Vec<Prepared>, EvalError> {
        eligible
            .iter()
            .map(|(qi, _)| {
                self.queue
                    .peek(*qi)
                    .map(|q| q.payload.clone())
                    .ok_or(EvalError::Internal {
                        what: "eligible index out of queue range",
                    })
            })
            .collect()
    }

    /// Sample the wait-queue depth into the gauge and (when recording)
    /// the `scheduler.queue_depth` counter track.
    fn sample_queue_depth(&self) {
        let depth = self.queue.len() as u64;
        self.queue_depth.sample(depth);
        self.engine
            .recorder()
            .counter_sample(self.now, "scheduler.queue_depth", depth);
    }

    /// Record a placement decision for `job` on node `i`.
    fn emit_place(&self, i: usize, job: &Prepared, mappers: u32) {
        self.engine
            .recorder()
            .emit(self.now, Some(i as u32), None, || Event::JobPlace {
                app: job.sig.profile.name.to_string(),
                mappers,
            });
    }

    /// Place `job` alone on node `i` at its solo configuration, degrading
    /// to the untuned default when the policy cannot provide one.
    fn submit_solo(
        &mut self,
        i: usize,
        policy: &dyn StreamPolicy,
        job: Prepared,
    ) -> Result<(), EvalError> {
        let cores = self.cores;
        let now = self.now;
        let solo = match self.with_retry_tracked(|| policy.solo_config(now, &job, cores)) {
            Ok(cfg) => cfg,
            Err(e) if e.is_degradable() => {
                self.engine.note_fallback(now, "config");
                self.report.config_fallbacks += 1;
                TuningConfig::hadoop_default(cores)
            }
            Err(e) => return Err(e),
        };
        let h = self.nodes[i].submit(JobSpec::from_profile(
            job.sig.profile.clone(),
            job.sig.input_mb,
            solo,
        ))?;
        self.emit_place(i, &job, solo.mappers);
        self.running[i].push((h, job, solo.mappers));
        Ok(())
    }

    /// Fill node `i` up to two jobs, degrading to solo placement when the
    /// policy cannot produce a pairing.
    pub(crate) fn dispatch(
        &mut self,
        i: usize,
        policy: &dyn StreamPolicy,
    ) -> Result<(), EvalError> {
        self.sample_queue_depth();
        while self.running[i].len() < 2 && !self.queue.is_empty() && self.nodes[i].free_cores() >= 1
        {
            if self.running[i].is_empty() {
                // Empty node: honour FIFO for the first job…
                let Some(first) = self.queue.take(0) else {
                    break;
                };
                let first = first.payload;
                let eligible = self.eligible_slice();
                if eligible.is_empty() {
                    // Lone tail job: the whole node, solo-tuned.
                    self.submit_solo(i, policy, first)?;
                    continue;
                }
                let cands_owned = self.eligible_payloads(&eligible)?;
                let cands: Vec<&Prepared> = cands_owned.iter().collect();
                let cores = self.cores;
                let now = self.now;
                match self.with_retry_tracked(|| policy.pick(now, &first, &cands, cores)) {
                    Ok((pick, cfg)) => {
                        let Some(second) = self.queue.take(eligible[pick].0) else {
                            return Err(EvalError::Internal {
                                what: "picked partner vanished from the queue",
                            });
                        };
                        let second = second.payload;
                        let ha = self.nodes[i].submit(JobSpec::from_profile(
                            first.sig.profile.clone(),
                            first.sig.input_mb,
                            cfg.a,
                        ))?;
                        let hb = self.nodes[i].submit(JobSpec::from_profile(
                            second.sig.profile.clone(),
                            second.sig.input_mb,
                            cfg.b,
                        ))?;
                        self.emit_place(i, &first, cfg.a.mappers);
                        self.emit_place(i, &second, cfg.b.mappers);
                        self.running[i].push((ha, first, cfg.a.mappers));
                        self.running[i].push((hb, second, cfg.b.mappers));
                    }
                    Err(e) if e.is_degradable() => {
                        // No viable partner or pair config: the anchor runs
                        // solo rather than the whole schedule aborting.
                        self.engine.note_fallback(now, "pairing");
                        self.report.solo_fallbacks += 1;
                        self.submit_solo(i, policy, first)?;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                // One job running: pick a partner for it.
                let eligible = self.eligible_slice();
                if eligible.is_empty() {
                    break;
                }
                let cands_owned = self.eligible_payloads(&eligible)?;
                let cands: Vec<&Prepared> = cands_owned.iter().collect();
                let anchor = self.running[i][0].1.clone();
                let cores = self.cores;
                let now = self.now;
                match self.with_retry_tracked(|| policy.pick(now, &anchor, &cands, cores)) {
                    Ok((pick, cfg)) => {
                        let Some(partner) = self.queue.take(eligible[pick].0) else {
                            return Err(EvalError::Internal {
                                what: "picked partner vanished from the queue",
                            });
                        };
                        let partner = partner.payload;
                        let free = self.nodes[i].free_cores();
                        let mut bcfg = cfg.b;
                        bcfg.mappers = bcfg.mappers.min(free).max(1);
                        let h = self.nodes[i].submit(JobSpec::from_profile(
                            partner.sig.profile.clone(),
                            partner.sig.input_mb,
                            bcfg,
                        ))?;
                        self.emit_place(i, &partner, bcfg.mappers);
                        self.running[i].push((h, partner, bcfg.mappers));
                    }
                    Err(e) if e.is_degradable() => {
                        // The running job continues alone; candidates wait
                        // for a node that can host them.
                        self.engine.note_fallback(now, "pairing");
                        self.report.solo_fallbacks += 1;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Apply every fault event due at or before `now`. Crashed nodes stop
    /// accepting work and their in-flight jobs are re-queued at the head;
    /// slowdowns compound; stragglers hit the longest-running job and are
    /// answered with a speculative backup on spare mapper slots.
    pub(crate) fn apply_due_faults(
        &mut self,
        now: f64,
        next: &mut usize,
        faults: &FaultPlan,
    ) -> Result<(), EvalError> {
        while *next < faults.len() && faults.events()[*next].at_s <= now + 1e-9 {
            let ev = faults.events()[*next];
            *next += 1;
            let i = ev.node;
            if i >= self.nodes.len() || !self.alive[i] {
                continue; // fault against a missing or already-dead node
            }
            let kind_name = match ev.kind {
                FaultKind::NodeCrash => "node-crash",
                FaultKind::NodeSlowdown { .. } => "node-slowdown",
                FaultKind::Straggler { .. } => "straggler",
            };
            self.engine.note_fault(now, kind_name);
            match ev.kind {
                FaultKind::NodeCrash => {
                    self.alive[i] = false;
                    self.report.crashes += 1;
                    let displaced = self.nodes[i].crash();
                    // Reverse order so the first-submitted displaced job
                    // lands back at the queue head.
                    for (h, p, _) in self.running[i].drain(..).rev() {
                        if displaced.contains(&h) {
                            self.report.requeued_jobs += 1;
                            self.engine.recorder().emit(now, Some(i as u32), None, || {
                                Event::Requeue {
                                    app: p.sig.profile.name.to_string(),
                                }
                            });
                            let est = p.sig.profile_time_s;
                            let class = p.class;
                            self.queue.push_front(p, class, est);
                        }
                    }
                }
                FaultKind::NodeSlowdown { factor } => {
                    self.report.slowdowns += 1;
                    let compound = self.nodes[i].slowdown() * factor;
                    self.nodes[i].set_slowdown(compound)?;
                }
                FaultKind::Straggler { multiplier } => {
                    if let Some(&h) = self.nodes[i].active_handles().first() {
                        self.report.stragglers += 1;
                        self.nodes[i].inject_straggler(h, multiplier)?;
                        let spare = self.nodes[i].free_cores().min(2);
                        if spare > 0 && self.nodes[i].speculate(h, spare)? {
                            self.report.speculations += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Single-letter form of a behaviour class, for telemetry payloads.
pub(crate) fn class_char(class: AppClass) -> char {
    match class {
        AppClass::C => 'C',
        AppClass::H => 'H',
        AppClass::I => 'I',
        AppClass::M => 'M',
    }
}

/// Fold a finished cluster into its makespan/energy outcome.
pub(crate) fn collect(nodes: Vec<NodeSim>, n: usize) -> ClusterRun {
    ClusterRun {
        makespan_s: nodes.iter().map(NodeSim::now).fold(0.0, f64::max),
        energy_dyn_j: nodes.iter().map(NodeSim::energy_j).sum(),
        nodes: n,
    }
}
