//! The event-calendar streaming driver: the one production scheduler
//! loop.
//!
//! Advancing *every* node by the global minimum time-to-next-event costs
//! O(nodes) per event and chops each node's float accumulators at every
//! other node's stage boundaries; that does not scale to 100k arrivals
//! on hundreds of nodes. This driver keeps a calendar instead:
//!
//! * a min-heap of **per-node next internal event** times (stage boundary
//!   or job completion), with a per-node generation stamp so a rescheduled
//!   node's stale heap entries are skipped on pop rather than removed;
//! * the sorted **pending arrivals** list;
//! * the sorted **fault schedule**.
//!
//! Each step pops the earliest time across the three sources and touches
//! only the nodes involved: due nodes are lazily synced from their own
//! clock up to the event time (integrating usage/energy over per-node
//! spans), completions free scheduler slots, and one dispatch pass over
//! the capacity set places queued work. Idle nodes are never visited, so
//! per-event cost scales with the nodes that actually changed — O(live
//! jobs) — not with cluster size or arrival history. Finished-job
//! outcomes are drained as they are observed, keeping resident state
//! proportional to live work.
//!
//! Tests check it against the lockstep oracle (`super::lockstep`); see
//! the [`super`] docs for where the two differ.

use super::{collect, Prepared, StreamPolicy, StreamSim};
use crate::engine::{EvalEngine, EvalError};
use crate::mapping::{ClusterRun, FaultReport, FaultSetup};
use ecost_sim::FaultPlan;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Tie window, in seconds, for "due at the same instant": arrivals,
/// faults and node events within `TIE_EPS` of a step's time are handled
/// in that step. The simulator's own completion tolerance (`WORK_EPS`)
/// is in work units, not seconds, so two jobs finishing a nanosecond or
/// so apart on different nodes can be one step for a driver that
/// advances all nodes together and two steps here (see the [`super`]
/// docs). The fleet's epoch barrier reuses the window for its
/// arrival-drain rule (see [`CalendarShard`]).
pub(crate) const TIE_EPS: f64 = 1e-9;

/// Total-ordered event time for the calendar heap. The driver never
/// schedules a NaN (times come from finite node clocks plus finite
/// `time_to_next_event` deltas); `total_cmp` makes the ordering lawful
/// anyway.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stamp(f64);

impl Eq for Stamp {}

impl PartialOrd for Stamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Stamp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The calendar: per-node next-event heap plus generation stamps.
struct Calendar {
    /// Min-heap of `(event time, node, generation)`.
    heap: BinaryHeap<Reverse<(Stamp, usize, u64)>>,
    /// Current generation per node; heap entries with an older stamp are
    /// stale and skipped on pop.
    gen: Vec<u64>,
}

impl Calendar {
    fn new(n: usize) -> Calendar {
        Calendar {
            heap: BinaryHeap::new(),
            gen: vec![0; n],
        }
    }

    /// Earliest still-valid node event, discarding stale entries.
    fn peek(&mut self) -> Option<(f64, usize)> {
        while let Some(Reverse((s, i, g))) = self.heap.peek() {
            if self.gen[*i] == *g {
                return Some((s.0, *i));
            }
            self.heap.pop();
        }
        None
    }

    /// Drop node `i`'s scheduled event (if any) and schedule a fresh one
    /// at `at`.
    fn schedule(&mut self, i: usize, at: f64) {
        self.gen[i] += 1;
        self.heap.push(Reverse((Stamp(at), i, self.gen[i])));
    }

    /// Drop node `i`'s scheduled event without a replacement (node went
    /// idle or crashed).
    fn clear(&mut self, i: usize) {
        self.gen[i] += 1;
    }
}

/// Advance node `i` from its own clock up to `t`, stepping through every
/// internal event (stage boundary / completion) on the way so the rate
/// solution is re-solved at each of them. A node with no active jobs just
/// fast-forwards its clock.
fn sync_node(sim: &mut StreamSim<'_>, i: usize, t: f64) -> Result<(), EvalError> {
    loop {
        let dt_target = t - sim.nodes[i].now();
        if dt_target <= 0.0 {
            return Ok(());
        }
        match sim.nodes[i].time_to_next_event()? {
            Some(dt_ev) if dt_ev <= dt_target + TIE_EPS => {
                sim.nodes[i].advance(dt_ev)?;
            }
            _ => {
                sim.nodes[i].advance(dt_target)?;
                return Ok(());
            }
        }
    }
}

/// Recompute node `i`'s membership in the capacity set (alive, a free
/// scheduler slot and at least one free core).
fn update_capacity(sim: &StreamSim<'_>, caps: &mut BTreeSet<usize>, i: usize) {
    let can = sim.alive[i] && sim.running[i].len() < 2 && sim.nodes[i].free_cores() >= 1;
    if can {
        caps.insert(i);
    } else {
        caps.remove(&i);
    }
}

/// Drain node `i`'s newly finished jobs: free their scheduler slots and
/// drop the outcomes (the stream drivers never read them, and keeping
/// them would grow per-node state with arrival history).
fn reap_finished(sim: &mut StreamSim<'_>, i: usize) -> usize {
    let done = sim.nodes[i].take_finished();
    if !done.is_empty() {
        sim.running[i].retain(|(h, _, _)| !done.iter().any(|o| o.id == *h));
    }
    done.len()
}

/// Refresh node `i`'s calendar entry from its next internal event.
fn reschedule(sim: &mut StreamSim<'_>, cal: &mut Calendar, i: usize) -> Result<(), EvalError> {
    match sim.nodes[i].time_to_next_event()? {
        Some(dt) => cal.schedule(i, sim.nodes[i].now() + dt),
        None => cal.clear(i),
    }
    Ok(())
}

/// A resumable event-calendar scheduler over one node set. A driver can
/// interleave *pushing arrivals* and *advancing the clock* instead of
/// providing the whole trace up front: `mapping::run_stream` pushes a
/// whole stream and calls [`Self::finish`]; each fleet shard owns one
/// `CalendarShard` and advances it epoch by epoch under a virtual-time
/// barrier.
///
/// Contract (what keeps a single fleet shard bit-identical to
/// `run_stream` on the same arrival sequence):
///
/// * arrivals must be pushed in non-decreasing time order, and every
///   arrival with `at_s < horizon + TIE_EPS` must be pushed before
///   `advance(policy, horizon)` — the tie window matters: an event just
///   inside the horizon admits arrivals up to `TIE_EPS` past itself,
///   exactly like a single `finish` over the whole stream;
/// * `advance` processes every event *strictly before* `horizon` and
///   stops; an event at exactly the horizon belongs to the next epoch
///   (by which time that epoch's arrivals are present);
/// * the t = 0 prologue (admit, fault, dispatch) runs lazily at the first
///   `advance`, so arrivals pushed before any advance are admitted the
///   way a single `finish` admits them;
/// * `finish` drains the remaining events (`horizon = ∞`), applies the
///   stranded-queue check, and fast-forwards idle nodes to the final
///   event time — deferring that check to `finish` is what lets a shard
///   sit idle mid-epoch without tripping it.
pub(crate) struct CalendarShard<'e> {
    sim: StreamSim<'e>,
    cal: Calendar,
    /// Nodes able to take work right now, in dispatch (index) order.
    caps: BTreeSet<usize>,
    /// Nodes whose event horizon changed this step and need rescheduling.
    touched: BTreeSet<usize>,
    /// Arrivals pushed but not yet admitted, soonest first.
    pending: VecDeque<(f64, Prepared)>,
    faults: FaultPlan,
    next_fault: usize,
    n: usize,
    /// Simulated clock: the time of the last processed event.
    t: f64,
    /// Whether the t = 0 prologue has run.
    primed: bool,
}

impl<'e> CalendarShard<'e> {
    /// Fresh shard over `n` nodes; `eligible_window` bounds the partner
    /// scan (see [`super::OPEN_ELIGIBLE_WINDOW`]).
    pub(crate) fn new(
        engine: &'e EvalEngine,
        n: usize,
        max_head_skips: u32,
        setup: &FaultSetup,
        eligible_window: usize,
    ) -> CalendarShard<'e> {
        setup.plan.record_schedule(engine.recorder());
        CalendarShard {
            sim: StreamSim::new(engine, n, setup.retry, max_head_skips, eligible_window),
            cal: Calendar::new(n),
            caps: (0..n).collect(),
            touched: BTreeSet::new(),
            pending: VecDeque::new(),
            faults: setup.plan.clone(),
            next_fault: 0,
            n,
            t: 0.0,
            primed: false,
        }
    }

    /// Queue one arrival. Times must be finite, non-negative and
    /// non-decreasing across pushes (the stream is sorted by submission).
    pub(crate) fn push_arrival(&mut self, at_s: f64, job: Prepared) -> Result<(), EvalError> {
        if !at_s.is_finite() || at_s < 0.0 {
            return Err(EvalError::InvalidInput {
                what: "arrival times must be finite and non-negative",
            });
        }
        if self.pending.back().is_some_and(|(last, _)| at_s < *last) {
            return Err(EvalError::InvalidInput {
                what: "arrivals must be pushed in non-decreasing time order",
            });
        }
        self.pending.push_back((at_s, job));
        Ok(())
    }

    /// Jobs this shard is responsible for but has not finished: pushed
    /// and not yet admitted, waiting in the queue, or running on a node.
    /// The fleet router's least-outstanding policy reads this.
    pub(crate) fn outstanding(&self) -> usize {
        self.pending.len()
            + self.sim.queue.len()
            + self.sim.running.iter().map(Vec::len).sum::<usize>()
    }

    /// t = 0: admit, fault, dispatch.
    fn prime(&mut self, policy: &dyn StreamPolicy) -> Result<(), EvalError> {
        self.primed = true;
        self.sim.admit_due(0.0, &mut self.pending);
        self.sim
            .apply_due_faults(0.0, &mut self.next_fault, &self.faults)?;
        for i in 0..self.n {
            update_capacity(&self.sim, &mut self.caps, i);
        }
        for i in self.caps.clone() {
            if self.sim.queue.is_empty() {
                break;
            }
            self.sim.dispatch(i, policy)?;
            update_capacity(&self.sim, &mut self.caps, i);
            self.touched.insert(i);
        }
        for i in std::mem::take(&mut self.touched) {
            reschedule(&mut self.sim, &mut self.cal, i)?;
        }
        Ok(())
    }

    /// Process every event strictly before `horizon`, then stop with the
    /// clock parked at the last processed event. `advance(∞)` drains the
    /// shard completely (modulo the stranded check, which [`Self::finish`]
    /// owns).
    pub(crate) fn advance(
        &mut self,
        policy: &dyn StreamPolicy,
        horizon: f64,
    ) -> Result<(), EvalError> {
        if !self.primed {
            self.prime(policy)?;
        }
        loop {
            // Earliest event across the three calendars. Faults cannot
            // keep a finished cluster alive: they are only considered
            // while a node event or an arrival is still due.
            let t_node = self.cal.peek();
            let t_arr = self.pending.front().map(|(at, _)| *at);
            let mut t_next = f64::INFINITY;
            if let Some((at, _)) = t_node {
                t_next = t_next.min(at);
            }
            if let Some(at) = t_arr {
                t_next = t_next.min(at);
            }
            if t_next.is_finite() {
                if let Some(ev) = self.faults.events().get(self.next_fault) {
                    t_next = t_next.min(ev.at_s);
                }
            }
            if t_next >= horizon {
                // Nothing left before the horizon (∞ = shard fully idle).
                return Ok(());
            }
            let t = t_next.max(self.t);
            self.t = t;
            self.sim.now = t;

            // 1. Arrivals due at t join the wait queue.
            let queued_before = self.sim.queue.len();
            self.sim.admit_due(t, &mut self.pending);
            let admitted = self.sim.queue.len() != queued_before;

            // 2. Faults due at t, each applied to a node synced to t.
            let mut faulted = false;
            {
                let evs = self.faults.events();
                let mut k = self.next_fault;
                while k < evs.len() && evs[k].at_s <= t + TIE_EPS {
                    if evs[k].node < self.n {
                        sync_node(&mut self.sim, evs[k].node, t)?;
                        self.touched.insert(evs[k].node);
                    }
                    k += 1;
                    faulted = true;
                }
            }
            if faulted {
                self.sim
                    .apply_due_faults(t, &mut self.next_fault, &self.faults)?;
            }

            // 3. Node events due at t: sync the node through its internal
            // events and reap any completions.
            let mut completed = false;
            while let Some((at, i)) = self.cal.peek() {
                if at > t + TIE_EPS {
                    break;
                }
                self.cal.heap.pop();
                sync_node(&mut self.sim, i, t)?;
                if reap_finished(&mut self.sim, i) > 0 {
                    completed = true;
                }
                self.touched.insert(i);
            }
            for &i in &self.touched {
                update_capacity(&self.sim, &mut self.caps, i);
            }

            // 4. One dispatch pass in node-index order over the capacity
            // set, only when this step could have changed what is
            // dispatchable.
            if (admitted || faulted || completed) && !self.sim.queue.is_empty() {
                for i in self.caps.clone() {
                    if self.sim.queue.is_empty() {
                        break;
                    }
                    sync_node(&mut self.sim, i, t)?;
                    self.sim.dispatch(i, policy)?;
                    update_capacity(&self.sim, &mut self.caps, i);
                    self.touched.insert(i);
                }
            }

            // 5. Refresh the calendar for every node touched this step.
            for i in std::mem::take(&mut self.touched) {
                reschedule(&mut self.sim, &mut self.cal, i)?;
            }
        }
    }

    /// Drain every remaining event, apply the stranded-queue check, and
    /// fold the shard into its outcome.
    pub(crate) fn finish(
        mut self,
        policy: &dyn StreamPolicy,
    ) -> Result<(ClusterRun, FaultReport), EvalError> {
        self.advance(policy, f64::INFINITY)?;
        if !self.sim.queue.is_empty() {
            return Err(if self.sim.alive.iter().any(|a| *a) {
                EvalError::Internal {
                    what: "jobs stranded in the scheduler queue",
                }
            } else {
                EvalError::Degraded {
                    what: "all nodes failed with jobs still queued",
                }
            });
        }
        // Fast-forward every node's clock to the final event time so the
        // makespan is the max node clock; idle advancement integrates no
        // energy.
        for i in 0..self.n {
            sync_node(&mut self.sim, i, self.t)?;
        }
        let mut run = collect(self.sim.nodes, self.n);
        run.makespan_s += self.sim.report.retry_backoff_s;
        Ok((run, self.sim.report))
    }
}
