//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, an optional world (for per-world metrics), start and
//! end, the span that caused it, and the request it belongs to. Spans stay in
//! memory until the run ends; a span's self time is its duration minus the
//! time its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use quhe_core::json::JsonValue;

use crate::plan::WORLDS;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.decode`.
    pub name: &'static str,
    /// World index for per-world spans.
    pub world: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: usize,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The metric name: the span name, plus `.<world>` for per-world spans.
    pub fn metric(&self) -> String {
        match self.world {
            Some(world) => format!("{}.{}", self.name, WORLDS[world]),
            None => self.name.to_string(),
        }
    }
}

/// Records spans; children nest under the innermost open span.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the request id of the spans opened from now on.
    pub fn set_request(&mut self, request: usize) {
        self.request = request;
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, world: Option<usize>) {
        let span = Span {
            name,
            world,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let index = self.open.pop().expect("end() matches a begin()");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        world: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, world);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every closed span, in nanoseconds, grouped by metric name.
    pub fn self_times(&self) -> BTreeMap<String, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            out.entry(span.metric())
                .or_default()
                .push(span.duration_ns().saturating_sub(children));
        }
        out
    }

    /// The spans as a JSON document, for writing out at the end of a run.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::object()
                        .with("name", JsonValue::String(s.metric()))
                        .with("start_ns", JsonValue::from_u64(s.start_ns))
                        .with("end_ns", JsonValue::from_u64(s.end_ns))
                        .with(
                            "parent",
                            s.parent.map_or(JsonValue::Null, JsonValue::from_usize),
                        )
                        .with("request", JsonValue::from_usize(s.request))
                })
                .collect(),
        )
    }
}

/// Nanoseconds one begin/end pair costs, measured on a throwaway recorder —
/// the tracing overhead per span.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 100_000;
    let mut probe = Recorder::new();
    let started = Instant::now();
    for i in 0..PAIRS {
        probe.set_request(i);
        probe.begin("calibrate", None);
        probe.end();
    }
    std::hint::black_box(probe.spans().len());
    started.elapsed().as_nanos() as f64 / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::new();
        rec.begin("root", None);
        rec.begin("child", Some(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end();
        rec.end();
        let times = rec.self_times();
        let child = times["child.dense_cell"][0];
        let root_total = rec.spans()[0].duration_ns();
        assert!(child >= 2_000_000);
        assert_eq!(times["root"][0], root_total - child);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }
}
