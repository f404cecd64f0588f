//! Host-clock spans taken by the benchmark around its calls into the
//! program. Spans stay in memory and are written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dense id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `stp.choose`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's clock origin.
    pub end_ns: u64,
    /// Named numeric attributes (request sequence number, counter deltas).
    pub attrs: Vec<(&'static str, f64)>,
}

/// An append-only span store with one clock origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            attrs,
        });
        id
    }

    /// All spans so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}
