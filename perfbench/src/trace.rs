//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! it makes into a layer; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written out as
//! JSON lines. A span's self time is its duration minus the durations
//! of its direct children (children always nest inside their parent).

use crate::util::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer aggregate: summed self time and span count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub self_s: f64,
    pub spans: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: None,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Adds an already-timed span (e.g. measured on a client thread)
    /// under the innermost open span.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64, request: Option<u64>) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            request,
        });
    }

    /// Self time and span count per span name, over every span whose
    /// ancestry includes `root` (the root itself included).
    pub fn layers_under(&self, root: usize) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !self.descends_from(id, root) {
                continue;
            }
            let e = out.entry(s.name.clone()).or_default();
            e.self_s += s.dur_ns().saturating_sub(child_ns[id]) as f64 * 1e-9;
            e.spans += 1;
        }
        out
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {request}}}",
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        t.record("leaf", 0, 0, Some(1));
        t.span("mid", |t| t.record("leaf", 10, 40, Some(2)));
        t.exit(root);
        let layers = t.layers_under(root);
        assert_eq!(layers["leaf"].spans, 2);
        assert!((layers["leaf"].self_s - 30e-9).abs() < 1e-15);
        assert!(layers["mid"].self_s >= 0.0);
        assert_eq!(layers["root"].spans, 1);
    }
}
