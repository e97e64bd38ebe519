//! Spans recorded by the benchmark's own code around its calls into each
//! layer's public functions. Spans stay in memory while the workload
//! runs and are written out once it ends; the per-layer metrics and self
//! times of a traced run are computed from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer called into (`service`, `pan_tompkins`, ...).
    pub layer: &'static str,
    /// What was called, e.g. `push`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span served (a session or a search probe).
    pub request: u64,
    /// Units of work the call did (samples, multiplies, evaluations).
    pub count: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. When disabled every call is a no-op, so the untraced
/// run pays one branch per boundary.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
            count: 1,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, recording `count` units of work.
    pub fn end(&mut self, open: Open, count: u64) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = now;
            span.count = count;
        }
        if let Some(pos) = self.stack.iter().rposition(|&i| i == index) {
            self.stack.truncate(pos);
        }
    }

    /// Records an already finished call, nested in the innermost open
    /// span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            layer,
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.stack.last().copied(),
            request,
            count,
        };
        self.spans.push(span);
    }

    /// Runs `f` inside a span of `count` units.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(layer, name, 0);
        let out = f();
        self.end(open, count);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Closed spans of `layer.name`.
    pub fn named<'a>(
        &'a self,
        layer: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name && s.end_ns > 0)
    }

    /// Durations in `unit_ns` units of every `layer.name` span.
    #[must_use]
    pub fn durations(&self, layer: &str, name: &str, unit_ns: f64) -> Vec<f64> {
        self.named(layer, name)
            .map(|s| s.ns() as f64 / unit_ns)
            .collect()
    }

    /// Total ns over total count of every `layer.name` span: the cost of
    /// one unit of work.
    #[must_use]
    pub fn ns_per_unit(&self, layer: &str, name: &str) -> f64 {
        let (ns, count) = self
            .named(layer, name)
            .fold((0u64, 0u64), |(ns, c), s| (ns + s.ns(), c + s.count));
        if count == 0 {
            f64::NAN
        } else {
            ns as f64 / count as f64
        }
    }

    /// Self time per layer in ns: each span's duration minus the part of
    /// it that its child spans cover.
    #[must_use]
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += s.ns().saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"request\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.layer, s.name, s.request, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("core", "search", 0);
        let inner = t.begin("pan_tompkins", "detect", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner, 1);
        t.end(outer, 1);
        let by_layer = t.self_ns_by_layer();
        assert!(by_layer["pan_tompkins"] >= 5_000_000);
        assert!(by_layer["core"] < by_layer["pan_tompkins"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("service", "push", 7);
        t.end(open, 50);
        assert!(t.spans().is_empty());
    }
}
