//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer. Held in memory, written as JSON lines when the
//! child ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub type Counts = Vec<(&'static str, u64)>;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Shared by every span of one request (one root span and its
    /// descendants).
    pub trace: u64,
    pub span: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub counts: Counts,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Records spans relative to its creation instant. Span ids are indices
/// into `spans`; `open` holds the ids of the spans currently open,
/// innermost last, so a new span's parent is whatever is open around it.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant, counts: Counts) -> u64 {
        let span = self.spans.len() as u64;
        let parent = self.open.last().copied();
        let trace = parent.map_or(span, |p| self.spans[p as usize].trace);
        let (start_us, end_us) = (self.micros(start), self.micros(end));
        self.spans.push(Span {
            trace,
            span,
            parent,
            name: name.to_string(),
            start_us,
            end_us: end_us.max(start_us),
            counts,
        });
        span
    }

    /// Runs `f` inside a new span named `name`; spans recorded by `f`
    /// become its children. `f` returns its result and the span's counts.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, Counts)) -> T {
        let start = Instant::now();
        let id = self.push(name, start, start, Vec::new());
        self.open.push(id);
        let (value, counts) = f(self);
        self.open.pop();
        let end_us = self.micros(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_us = end_us.max(span.start_us);
        span.counts = counts;
        value
    }

    /// Records an already-finished interval as a child of the innermost
    /// open span: BFS levels are cut from consecutive observer calls, and
    /// served requests are timed on client threads.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, counts: Counts) {
        self.push(name, start, end, counts);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The last span recorded under `name`.
    pub fn last_named(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// A span's duration minus the part of it its direct children cover
    /// (overlapping children — concurrent clients — are not counted
    /// twice, and a child is clipped to its parent).
    pub fn self_time_us(&self, id: u64) -> u64 {
        let span = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(start, end)| start < end)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut frontier = span.start_us;
        for (start, end) in children {
            let start = start.max(frontier);
            if end > start {
                covered += end - start;
                frontier = end;
            }
        }
        span.duration_us() - covered
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::Obj(vec![
                ("trace".into(), Json::Num(span.trace as f64)),
                ("span".into(), Json::Num(span.span as f64)),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::Str(span.name.clone())),
                ("start_us".into(), Json::Num(span.start_us as f64)),
                ("end_us".into(), Json::Num(span.end_us as f64)),
                (
                    "self_us".into(),
                    Json::Num(self.self_time_us(span.span) as f64),
                ),
                (
                    "counts".into(),
                    Json::Obj(
                        span.counts
                            .iter()
                            .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
                            .collect(),
                    ),
                ),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer with spans at fixed offsets (µs) from its origin.
    fn fixture(spans: &[(&str, Option<u64>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        let origin = t.origin;
        let at = |us: u64| origin + Duration::from_micros(us);
        for &(name, parent, start, end) in spans {
            let (start, end) = (at(start), at(end));
            t.open = parent.into_iter().collect();
            t.push(name, start, end, Vec::new());
        }
        t.open.clear();
        t
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // request [0,100] > level [10,60] > probe [20,30]
        let t = fixture(&[
            ("request", None, 0, 100),
            ("level", Some(0), 10, 60),
            ("probe", Some(1), 20, 30),
        ]);
        assert_eq!(t.self_time_us(0), 50, "only the direct child counts");
        assert_eq!(t.self_time_us(1), 40);
        assert_eq!(t.self_time_us(2), 10);
        // Self time plus direct children adds back up to the duration.
        assert_eq!(t.self_time_us(0) + t.spans[1].duration_us(), 100);
        assert!(
            t.spans.iter().all(|s| s.trace == 0),
            "one request, one trace"
        );
    }

    #[test]
    fn self_time_merges_overlapping_siblings_and_clips_to_the_parent() {
        // Two concurrent clients overlap on [30,50]; a third child
        // overruns the parent's end.
        let t = fixture(&[
            ("pass", None, 0, 100),
            ("client-a", Some(0), 10, 50),
            ("client-b", Some(0), 30, 70),
            ("late", Some(0), 90, 130),
        ]);
        // Covered: [10,70] = 60 and [90,100] = 10.
        assert_eq!(t.self_time_us(0), 30);
    }

    #[test]
    fn closures_nest_and_roots_start_new_traces() {
        let mut t = Tracer::new();
        let answer = t.span("first", |t| {
            t.span("inner", |_| ((), vec![("configs", 7)]));
            (42, Vec::new())
        });
        t.span("second", |_| ((), Vec::new()));
        assert_eq!(answer, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("configs", 7)]);
        assert_eq!((spans[0].trace, spans[1].trace, spans[2].trace), (0, 0, 2));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    }
}
