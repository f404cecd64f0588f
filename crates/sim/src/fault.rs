//! Deterministic fault injection: node crashes, node slowdowns and task
//! stragglers scheduled against a [`ClusterSpec`].
//!
//! The paper's testbed is an 8-node Atom micro-server cluster where node
//! slowdowns, disk contention and task stragglers are the norm, yet the
//! happy-path simulation assumes a perfect cluster. A [`FaultPlan`] is the
//! bridge: a pre-drawn, time-sorted list of fault events that a scheduler
//! replays against its simulated nodes. Plans are sampled from the seeded
//! [`crate::rng`] streams, so a chaos experiment is exactly as reproducible
//! as a healthy one — same seed, same faults, same result.
//!
//! The three event kinds mirror what degrades real MapReduce clusters:
//!
//! * [`FaultKind::NodeCrash`] — the node leaves service permanently; any
//!   work in flight there is lost and must be rescheduled elsewhere.
//! * [`FaultKind::NodeSlowdown`] — the node keeps running but every rate is
//!   degraded by a factor (thermal frequency cap, a failing disk, a noisy
//!   neighbour on shared storage).
//! * [`FaultKind::Straggler`] — one task wave of one job on the node runs a
//!   multiplier slower (skewed partition, page-cache miss storm); the
//!   classic target of MapReduce speculative execution.

use crate::cluster::ClusterSpec;
use crate::rng;
use ecost_telemetry::{Event, Recorder};
use rand::Rng;

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node fails permanently: in-flight work is lost, the node serves
    /// nothing afterwards.
    NodeCrash,
    /// Every rate on the node is divided by `factor` (≥ 1) from the event
    /// time on — modelling a frequency cap and/or disk-bandwidth
    /// degradation.
    NodeSlowdown {
        /// Degradation factor (1 = healthy, 2 = half speed).
        factor: f64,
    },
    /// The current task wave of one job on the node is slowed by
    /// `multiplier` (≥ 1) until the wave completes or a speculative backup
    /// replaces it.
    Straggler {
        /// Wave slow-down multiplier (1 = healthy).
        multiplier: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time the fault strikes, seconds.
    pub at_s: f64,
    /// Index of the afflicted node (0-based).
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Per-node fault intensities used by [`FaultPlan::sample`]. Probabilities
/// apply independently per node over the plan's horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability a node crashes somewhere in the horizon.
    pub crash_rate: f64,
    /// Probability a node suffers a permanent slowdown in the horizon.
    pub slowdown_rate: f64,
    /// Slowdown factor applied when a slowdown fires (≥ 1).
    pub slowdown_factor: f64,
    /// Expected straggler events per node over the horizon.
    pub straggler_rate: f64,
    /// Wave multiplier applied when a straggler fires (≥ 1).
    pub straggler_multiplier: f64,
    /// Time window events are placed in, seconds.
    pub horizon_s: f64,
}

impl FaultSpec {
    /// A perfectly healthy cluster: nothing ever fires.
    pub fn healthy(horizon_s: f64) -> FaultSpec {
        FaultSpec {
            crash_rate: 0.0,
            slowdown_rate: 0.0,
            slowdown_factor: 1.0,
            straggler_rate: 0.0,
            straggler_multiplier: 1.0,
            horizon_s,
        }
    }

    /// A one-knob preset: `intensity` in [0, 1] scales every rate from
    /// healthy (0) to a harsh regime (1: every other node degraded, one
    /// straggler per node expected, a quarter of nodes lost).
    pub fn scaled(intensity: f64, horizon_s: f64) -> FaultSpec {
        let x = intensity.clamp(0.0, 1.0);
        FaultSpec {
            crash_rate: 0.25 * x,
            slowdown_rate: 0.5 * x,
            slowdown_factor: 1.0 + x,
            straggler_rate: x,
            straggler_multiplier: 1.0 + 2.0 * x,
            horizon_s,
        }
    }
}

/// A pre-drawn, time-sorted fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a run under it is bit-identical to a fault-free run.
    pub fn none() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Scheduled events, sorted by time (ties by node index).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Add one event (re-sorts; non-finite or negative times are clamped to
    /// zero, degradation knobs below 1 are clamped to 1).
    pub fn with_event(mut self, at_s: f64, node: usize, kind: FaultKind) -> FaultPlan {
        let at_s = if at_s.is_finite() { at_s.max(0.0) } else { 0.0 };
        let kind = match kind {
            FaultKind::NodeSlowdown { factor } => FaultKind::NodeSlowdown {
                factor: if factor.is_finite() {
                    factor.max(1.0)
                } else {
                    1.0
                },
            },
            FaultKind::Straggler { multiplier } => FaultKind::Straggler {
                multiplier: if multiplier.is_finite() {
                    multiplier.max(1.0)
                } else {
                    1.0
                },
            },
            FaultKind::NodeCrash => FaultKind::NodeCrash,
        };
        self.events.push(FaultEvent { at_s, node, kind });
        self.sort();
        self
    }

    /// Draw a plan for `cluster` under `spec`, deterministically from
    /// `seed` (the `"faults"` stream of [`crate::rng`]). Same seed, same
    /// spec, same cluster → identical plan.
    pub fn sample(cluster: &ClusterSpec, spec: &FaultSpec, seed: u64) -> FaultPlan {
        let mut rng = rng::stream(seed, "faults");
        let horizon = if spec.horizon_s.is_finite() {
            spec.horizon_s.max(0.0)
        } else {
            0.0
        };
        let mut plan = FaultPlan::none();
        for node in 0..cluster.nodes {
            // Stragglers: expectation `straggler_rate`, drawn as whole
            // events plus a Bernoulli fractional part.
            let rate = spec.straggler_rate.max(0.0);
            let mut count = rate.floor() as u32;
            if rng.gen_range(0.0..1.0) < rate.fract() {
                count += 1;
            }
            for _ in 0..count {
                plan.events.push(FaultEvent {
                    at_s: rng.gen_range(0.0..1.0) * horizon,
                    node,
                    kind: FaultKind::Straggler {
                        multiplier: spec.straggler_multiplier.max(1.0),
                    },
                });
            }
            if rng.gen_range(0.0..1.0) < spec.slowdown_rate.clamp(0.0, 1.0) {
                plan.events.push(FaultEvent {
                    at_s: rng.gen_range(0.0..1.0) * horizon,
                    node,
                    kind: FaultKind::NodeSlowdown {
                        factor: spec.slowdown_factor.max(1.0),
                    },
                });
            }
            if rng.gen_range(0.0..1.0) < spec.crash_rate.clamp(0.0, 1.0) {
                plan.events.push(FaultEvent {
                    at_s: rng.gen_range(0.0..1.0) * horizon,
                    node,
                    kind: FaultKind::NodeCrash,
                });
            }
        }
        plan.sort();
        plan
    }

    /// Record every scheduled event into `rec` as a `fault-planned` instant
    /// at the time it will strike. A no-op recorder drops them for free;
    /// recorded traces show the plan alongside the faults that actually
    /// fired (a crashed node never fires faults planned after its death).
    pub fn record_schedule(&self, rec: &Recorder) {
        for ev in &self.events {
            let kind = match ev.kind {
                FaultKind::NodeCrash => "node-crash",
                FaultKind::NodeSlowdown { .. } => "node-slowdown",
                FaultKind::Straggler { .. } => "straggler",
            };
            rec.emit(ev.at_s, Some(ev.node as u32), None, || {
                Event::FaultPlanned {
                    kind: kind.to_string(),
                }
            });
        }
    }

    fn sort(&mut self) {
        self.events
            .sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.node.cmp(&b.node)));
    }
}

/// What the service-level fault machinery injects into one tuning
/// request: how many consecutive transient evaluation failures it hits
/// before succeeding, and how much slower than nominal its simulated
/// evaluation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestFaults {
    /// Transient failures before the evaluation succeeds (0 = healthy).
    pub transient_failures: u32,
    /// Multiplier on the request's simulated evaluation cost (≥ 1).
    pub slow_factor: f64,
}

impl RequestFaults {
    /// A healthy request: no failures, nominal speed.
    pub fn none() -> RequestFaults {
        RequestFaults {
            transient_failures: 0,
            slow_factor: 1.0,
        }
    }
}

/// Seeded fault spec for a *tuning service* rather than a cluster: the
/// service-level twin of [`FaultSpec`]. Where `FaultSpec` rates describe
/// node crashes and stragglers over a horizon, this one describes what a
/// tuning request experiences on its way through the evaluation engine —
/// transient-failure bursts (cured by bounded retry when short enough)
/// and slow evaluations (which eat the request's deadline budget).
///
/// Draws are *per request sequence number*: [`ServiceFaultSpec::draw`]
/// derives a fresh RNG from `(seed, seq)`, so the faults a request sees
/// are independent of the order in which concurrent worker threads reach
/// it — the scenario harness depends on this for byte-identical reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceFaultSpec {
    /// Probability a request hits a transient-failure burst.
    pub transient_rate: f64,
    /// Consecutive failures in a burst (retry cures bursts that fit the
    /// retry budget; longer bursts fail the evaluation tier).
    pub transient_burst: u32,
    /// Probability a request's simulated evaluation runs slow.
    pub slow_rate: f64,
    /// Cost multiplier applied to a slow evaluation (≥ 1).
    pub slow_factor: f64,
    /// Root seed for the per-request draws.
    pub seed: u64,
}

impl ServiceFaultSpec {
    /// No injected service faults; every request draws healthy.
    pub fn healthy(seed: u64) -> ServiceFaultSpec {
        ServiceFaultSpec {
            transient_rate: 0.0,
            transient_burst: 0,
            slow_rate: 0.0,
            slow_factor: 1.0,
            seed,
        }
    }

    /// The faults request number `seq` experiences. Deterministic in
    /// `(self, seq)` and independent across sequence numbers: each draw
    /// folds `seq` into the root seed and opens its own
    /// [`crate::rng::stream`], so concurrent workers can draw in any
    /// order. Degenerate rates (NaN, negative) draw healthy; a slow
    /// factor below 1 is clamped to nominal speed.
    pub fn draw(&self, seq: u64) -> RequestFaults {
        if self.transient_rate <= 0.0 && self.slow_rate <= 0.0 {
            return RequestFaults::none();
        }
        let mut z = self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut rng = rng::stream(z, "service.request");
        let transient: f64 = rng.gen_range(0.0..1.0);
        let slow: f64 = rng.gen_range(0.0..1.0);
        RequestFaults {
            transient_failures: if self.transient_rate > 0.0 && transient < self.transient_rate {
                self.transient_burst
            } else {
                0
            },
            slow_factor: if self.slow_rate > 0.0
                && slow < self.slow_rate
                && self.slow_factor.is_finite()
            {
                self.slow_factor.max(1.0)
            } else {
                1.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let cluster = ClusterSpec::atom_cluster(8);
        let spec = FaultSpec::scaled(0.8, 1000.0);
        let a = FaultPlan::sample(&cluster, &spec, 42);
        let b = FaultPlan::sample(&cluster, &spec, 42);
        assert_eq!(a, b);
        let c = FaultPlan::sample(&cluster, &spec, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_time_sorted() {
        let cluster = ClusterSpec::atom_cluster(8);
        let spec = FaultSpec::scaled(1.0, 500.0);
        let p = FaultPlan::sample(&cluster, &spec, 7);
        assert!(!p.is_empty(), "intensity 1 on 8 nodes must draw something");
        for w in p.events().windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
    }

    #[test]
    fn healthy_spec_draws_nothing() {
        let cluster = ClusterSpec::atom_cluster(8);
        let p = FaultPlan::sample(&cluster, &FaultSpec::healthy(1000.0), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn with_event_clamps_and_sorts() {
        let p = FaultPlan::none()
            .with_event(50.0, 1, FaultKind::NodeCrash)
            .with_event(-3.0, 0, FaultKind::NodeSlowdown { factor: 0.2 })
            .with_event(f64::NAN, 2, FaultKind::Straggler { multiplier: 0.0 });
        assert_eq!(p.len(), 3);
        assert_eq!(p.events()[0].at_s, 0.0);
        assert!(matches!(
            p.events()[0].kind,
            FaultKind::NodeSlowdown { factor } if factor == 1.0
        ));
        assert!(matches!(
            p.events()[1].kind,
            FaultKind::Straggler { multiplier } if multiplier == 1.0
        ));
        assert_eq!(p.events()[2].at_s, 50.0);
        assert!(matches!(p.events()[2].kind, FaultKind::NodeCrash));
    }

    #[test]
    fn scaled_zero_equals_healthy() {
        let s = FaultSpec::scaled(0.0, 100.0);
        assert_eq!(s, FaultSpec::healthy(100.0));
    }

    #[test]
    fn service_draws_are_per_seq_deterministic() {
        let spec = ServiceFaultSpec {
            transient_rate: 0.5,
            transient_burst: 3,
            slow_rate: 0.5,
            slow_factor: 4.0,
            seed: 11,
        };
        // Same (spec, seq) → same draw, in any order.
        for seq in [0_u64, 1, 7, 1000] {
            assert_eq!(spec.draw(seq), spec.draw(seq));
        }
        // The rates actually bite: over many draws both arms appear.
        let (mut bursts, mut slows) = (0, 0);
        for seq in 0..200 {
            let f = spec.draw(seq);
            if f.transient_failures > 0 {
                bursts += 1;
            }
            if f.slow_factor > 1.0 {
                slows += 1;
            }
            assert!(f.transient_failures == 0 || f.transient_failures == 3);
            assert!(f.slow_factor == 1.0 || f.slow_factor == 4.0);
        }
        assert!((40..160).contains(&bursts), "bursts {bursts}");
        assert!((40..160).contains(&slows), "slows {slows}");
        // A different seed draws a different fault pattern.
        let other = ServiceFaultSpec { seed: 12, ..spec };
        assert!((0..200).any(|s| other.draw(s) != spec.draw(s)));
    }

    #[test]
    fn healthy_service_spec_draws_nothing() {
        let spec = ServiceFaultSpec::healthy(5);
        for seq in 0..50 {
            assert_eq!(spec.draw(seq), RequestFaults::none());
        }
    }

    #[test]
    fn degenerate_service_rates_are_sanitised() {
        let spec = ServiceFaultSpec {
            transient_rate: f64::NAN,
            transient_burst: 2,
            slow_rate: 2.0,
            slow_factor: 0.5,
            seed: 3,
        };
        for seq in 0..20 {
            let f = spec.draw(seq);
            // NaN rate never fires; slow factor below 1 clamps to nominal.
            assert_eq!(f.transient_failures, 0);
            assert_eq!(f.slow_factor, 1.0);
        }
    }
}
