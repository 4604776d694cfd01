//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: a name, start and end (nanoseconds
//! since the tracer was created), the span that caused it, a group id
//! shared by every span of one tenant or one sweep point, and a count
//! of work done inside it (cycles stepped, bytes moved). Nothing is
//! written until the run ends. A disabled tracer records nothing: every
//! call is one branch, and the untraced run uses one.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by all spans of one tenant, sweep point or pass.
    pub group: u64,
    /// Layer boundary, e.g. `sim.steps` or `rpc.status`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Work counted at this boundary (cycles, bytes, points).
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (`NONE` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(None);
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            id_base: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// A tracer for another thread, sharing this one's enabled flag and
    /// time origin; `lane` keeps its span ids disjoint from the parent's.
    pub fn fork(&self, lane: u64) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            id_base: (lane + 1) << 40,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, group: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let parent = parent.0.map(|i| self.spans[i].id);
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.id_base + idx as u64,
            parent,
            group,
            name,
            start_ns,
            end_ns: 0,
            count: 0,
        });
        SpanId(Some(idx))
    }

    /// Close a span, recording `count` units of work done inside it.
    pub fn end(&mut self, span: SpanId, count: u64) {
        if let Some(i) = span.0 {
            let now = self.now_ns();
            let s = &mut self.spans[i];
            s.end_ns = now;
            s.count = count;
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans (see [`Tracer::fork`]).
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Closed spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
    }

    /// Per span name: spans, total ns, and self ns (duration minus the
    /// part covered by direct children), sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        use std::collections::BTreeMap;
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(covered);
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, parent, s.group, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x", 0, SpanId::NONE);
        t.end(s, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        let outer = t.begin("outer", 1, SpanId::NONE);
        let inner = t.begin("inner", 1, outer);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, 1);
        t.end(outer, 1);
        let st = t.self_times();
        let (_, _, total, own) = st.iter().find(|e| e.0 == "outer").copied().unwrap();
        assert!(own < total);
        assert_eq!(t.spans()[1].parent, Some(t.spans()[0].id));
    }
}
