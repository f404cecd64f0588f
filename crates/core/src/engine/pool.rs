//! Simulator pool for the engine's miss paths.
//!
//! A sweep evaluates hundreds to thousands of configurations; before this
//! pool every point constructed a fresh [`NodeSim`] (node spec + framework
//! clone, power model, solver scratch) just to throw it away milliseconds
//! later. The pool keeps finished simulators and hands them back out after
//! [`NodeSim::reset`]: a single-point miss checks out one simulator, a
//! sweep span one lane window's worth, so a rayon worker crunching a sweep
//! reuses the same warm simulators point after point. The pool holds
//! simulators only: each sweep worker builds one `BatchScratch` (the lane
//! kernel's backend and a 127 KiB rate-solution reuse table) and keeps it
//! across all its spans of that sweep, so a recurring job mix is solved
//! once per worker.
//!
//! Correctness: `reset` restores every observable field to its
//! freshly-constructed value (the executor's property tests hold pooled
//! runs bit-identical to fresh ones), and the pool is owned by one engine,
//! so the node spec and framework of every pooled simulator always match.
//! A simulator is returned to the pool only after a *successful* run;
//! error paths drop it, trading a rebuild for never caching a simulator in
//! a half-advanced state.

use ecost_mapreduce::{FrameworkSpec, NodeSim};
use ecost_sim::NodeSpec;
use std::sync::Mutex;

pub(crate) struct SimPool {
    free: Mutex<Vec<NodeSim>>,
}

impl SimPool {
    pub(crate) fn new() -> SimPool {
        SimPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Check out a simulator: a pooled one when available, otherwise a
    /// fresh construction. The second element reports which happened
    /// (`true` = reused), so the engine can account allocations saved.
    pub(crate) fn acquire(&self, spec: &NodeSpec, fw: &FrameworkSpec) -> (NodeSim, bool) {
        // A poisoned lock (a panicking thread mid-push) only costs us the
        // pooled simulators; fall back to fresh construction.
        let pooled = match self.free.lock() {
            Ok(mut v) => v.pop(),
            Err(_) => None,
        };
        match pooled {
            Some(sim) => (sim, true),
            None => (NodeSim::new(spec.clone(), fw.clone()), false),
        }
    }

    /// Return a simulator after a successful run: reset to pristine state
    /// (warm buffers kept) and shelve it for the next acquire.
    pub(crate) fn release(&self, mut sim: NodeSim) {
        sim.reset();
        if let Ok(mut v) = self.free.lock() {
            v.push(sim);
        }
    }

    /// Check out `k` simulators under one lock acquisition — the batched
    /// window's counterpart of [`SimPool::acquire`]. Appends to `out` and
    /// returns `(reused, built)` so the engine can account pool hits with
    /// one counter bump per window instead of one per lane.
    pub(crate) fn acquire_window(
        &self,
        spec: &NodeSpec,
        fw: &FrameworkSpec,
        k: usize,
        out: &mut Vec<NodeSim>,
    ) -> (u64, u64) {
        let mut reused = 0u64;
        if let Ok(mut v) = self.free.lock() {
            let take = k.min(v.len());
            let at = v.len() - take;
            out.extend(v.drain(at..));
            reused = take as u64;
        }
        let built = (k as u64).saturating_sub(reused);
        for _ in 0..built {
            out.push(NodeSim::new(spec.clone(), fw.clone()));
        }
        (reused, built)
    }

    /// Return a whole window of simulators after a successful run: reset
    /// each, then shelve them all under one lock acquisition.
    pub(crate) fn release_window(&self, sims: &mut Vec<NodeSim>) {
        for sim in sims.iter_mut() {
            sim.reset();
        }
        if let Ok(mut v) = self.free.lock() {
            v.append(sims);
        }
        // Poisoned lock: the drained sims are dropped with the Vec's
        // contents, same outcome as scalar `release` losing its push.
        sims.clear();
    }

    /// Simulators currently shelved (diagnostics).
    pub(crate) fn idle(&self) -> usize {
        self.free.lock().map(|v| v.len()).unwrap_or(0)
    }
}

impl std::fmt::Debug for SimPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPool")
            .field("idle", &self.idle())
            .finish()
    }
}
