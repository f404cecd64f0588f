//! The [`Recorder`] handle threaded through every layer of the stack.

use crate::event::{Event, SpanKey, TraceEvent};
use crate::metrics::Registry;
use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Debug, Default)]
struct Log {
    events: Vec<TraceEvent>,
    /// Open spans, in enter order; exit closes the most recent match
    /// (LIFO), which gives natural nesting.
    open: Vec<(SpanKey, f64)>,
}

/// Cheap, clonable handle for recording metrics and trace events.
///
/// Two flavours:
///
/// * [`Recorder::noop`] (the `Default`): the metrics [`Registry`] is live —
///   counters/gauges/histograms cost exactly the relaxed atomics they are
///   made of — but trace events are dropped *without constructing their
///   payloads* ([`Recorder::emit`] takes a closure for this reason).
/// * [`Recorder::recording`]: additionally appends every span and event to
///   an in-memory log, which [`Recorder::events`] returns in a canonical
///   deterministic order.
///
/// Instrumented code must behave bit-identically under both flavours: the
/// recorder observes the simulation, it never steers it.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    metrics: Registry,
    log: Option<Arc<Mutex<Log>>>,
}

impl Recorder {
    /// Metrics-only recorder (the default): trace events are dropped.
    pub fn noop() -> Recorder {
        Recorder::default()
    }

    /// Recorder that also keeps the full trace event log.
    pub fn recording() -> Recorder {
        Recorder {
            metrics: Registry::default(),
            log: Some(Arc::new(Mutex::new(Log::default()))),
        }
    }

    /// The metrics registry this recorder writes through to.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Record a discrete event at simulated time `t_s`, attributed to an
    /// optional node/job. The payload closure runs only when recording.
    pub fn emit<F>(&self, t_s: f64, node: Option<u32>, job: Option<u64>, make: F)
    where
        F: FnOnce() -> Event,
    {
        if let Some(log) = &self.log {
            lock(log).events.push(TraceEvent::Instant {
                t_s,
                node,
                job,
                event: make(),
            });
        }
    }

    /// Record a sampled counter track value (e.g. queue depth over time).
    pub fn counter_sample(&self, t_s: f64, name: &str, value: u64) {
        if let Some(log) = &self.log {
            lock(log).events.push(TraceEvent::CounterSample {
                t_s,
                name: name.to_string(),
                value,
            });
        }
    }

    /// Open a span at simulated time `t_s`. Pair with
    /// [`Recorder::span_exit`]; spans left open are closed at the log's
    /// maximum timestamp on export.
    pub fn span_enter(&self, key: SpanKey, t_s: f64) {
        if let Some(log) = &self.log {
            lock(log).open.push((key, t_s));
        }
    }

    /// Close the most recently opened span matching `key` at `t_s`.
    /// A no-op (not an error) when no such span is open, so instrumented
    /// code never has to branch on recorder state.
    pub fn span_exit(&self, key: &SpanKey, t_s: f64) {
        if let Some(log) = &self.log {
            let mut g = lock(log);
            if let Some(pos) = g.open.iter().rposition(|(k, _)| k == key) {
                let (key, start_s) = g.open.remove(pos);
                g.events.push(TraceEvent::Span {
                    key,
                    start_s,
                    end_s: t_s,
                });
            }
        }
    }

    /// Record an already-closed interval directly.
    pub fn span(&self, key: SpanKey, start_s: f64, end_s: f64) {
        if let Some(log) = &self.log {
            lock(log).events.push(TraceEvent::Span {
                key,
                start_s,
                end_s,
            });
        }
    }

    /// Snapshot the trace log in canonical order: sorted by timestamp,
    /// ties broken on the full serialized record. Identical events are
    /// interchangeable, so this yields byte-identical exports even when
    /// events were pushed from parallel workers in a different
    /// interleaving. Spans still open are closed at the log's maximum
    /// timestamp. Empty when the recorder is a no-op.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(log) = &self.log else {
            return Vec::new();
        };
        let g = lock(log);
        let mut events = g.events.clone();
        let horizon = events
            .iter()
            .map(|e| match e {
                TraceEvent::Span { end_s, .. } => *end_s,
                other => other.t_s(),
            })
            .chain(g.open.iter().map(|(_, t)| *t))
            .fold(0.0f64, f64::max);
        for (key, start_s) in g.open.iter() {
            events.push(TraceEvent::Span {
                key: *key,
                start_s: *start_s,
                end_s: horizon,
            });
        }
        drop(g);
        events.sort_by(|a, b| {
            a.t_s()
                .total_cmp(&b.t_s())
                .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_keeps_metrics_but_drops_events() {
        let r = Recorder::noop();
        r.metrics().counter("c").inc();
        let mut built = false;
        r.emit(1.0, None, None, || {
            built = true;
            Event::Retry { backoff_s: 1.0 }
        });
        assert!(!built, "no-op recorder must not construct payloads");
        assert!(r.events().is_empty());
        assert_eq!(r.metrics().snapshot().counter("c"), 1);
    }

    #[test]
    fn spans_nest_and_close_lifo() {
        let r = Recorder::recording();
        let job = SpanKey::new(0, 1, 7, "job");
        let map = SpanKey::new(0, 1, 7, "map");
        r.span_enter(job, 0.0);
        r.span_enter(map, 1.0);
        r.span_exit(&map, 5.0);
        r.span_exit(&job, 9.0);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[0],
            TraceEvent::Span {
                key: job,
                start_s: 0.0,
                end_s: 9.0
            }
        );
        assert_eq!(
            ev[1],
            TraceEvent::Span {
                key: map,
                start_s: 1.0,
                end_s: 5.0
            }
        );
    }

    #[test]
    fn open_spans_close_at_horizon_on_export() {
        let r = Recorder::recording();
        r.span_enter(SpanKey::new(0, 0, 1, "job"), 2.0);
        r.emit(10.0, None, None, || Event::Retry { backoff_s: 0.5 });
        let ev = r.events();
        assert!(ev.iter().any(|e| matches!(
            e,
            TraceEvent::Span { end_s, .. } if *end_s == 10.0
        )));
    }

    #[test]
    fn export_order_is_independent_of_push_order() {
        let mk = |order: &[u32]| {
            let r = Recorder::recording();
            for &n in order {
                r.emit(1.0, Some(n), None, || Event::CacheHit { cache: "solo" });
            }
            r.events()
        };
        assert_eq!(mk(&[0, 1, 2]), mk(&[2, 0, 1]));
    }

    #[test]
    fn exit_without_enter_is_a_noop() {
        let r = Recorder::recording();
        r.span_exit(&SpanKey::new(0, 0, 0, "job"), 1.0);
        assert!(r.events().is_empty());
    }
}
