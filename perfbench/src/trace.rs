//! In-memory spans recorded around the replay's calls into each layer,
//! written out at the end of a run as Chrome trace-event JSON (opens in
//! Perfetto or `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Replay iteration the span belongs to.
    pub iter: usize,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder's origin.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. When disabled, [`Tracer::span`] only runs its closure,
/// so one replay code path serves the traced and the untraced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// Tag the spans that follow with replay iteration `iter`.
    pub fn set_iter(&mut self, iter: usize) {
        self.iter = iter;
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            iter: self.iter,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's duration minus the part of it its children cover
/// (children's intervals are merged first, so overlapping children are
/// not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// Per span name: (total duration, total self time).
pub fn totals_by_name(spans: &[Span], self_times: &[f64]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut out = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times) {
        let e = out.entry(s.name).or_insert((0.0, 0.0));
        e.0 += s.dur();
        e.1 += self_s;
    }
    out
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
/// microsecond timestamps, with the span id, parent id and iteration in
/// `args`.
pub fn chrome_trace_json(spans: &[Span], self_times: &[f64]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (id, (s, self_s)) in spans.iter().zip(self_times).enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span_id\":{id},\"parent\":{parent},\
             \"iter\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start * 1e6,
            s.dur() * 1e6,
            s.iter,
            self_s * 1e6,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            iter: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 4.0, 8.0),
            span("leaf", Some(2), 5.0, 6.0),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 5.0),
            span("b", Some(0), 3.0, 7.0),
            span("c", Some(0), 6.0, 12.0), // clipped at the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 1.0);
    }

    #[test]
    fn recorder_nests_and_tags_iterations() {
        let mut t = Tracer::new(true);
        t.set_iter(3);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].iter), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent, s[1].iter), ("inner", Some(0), 3));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let totals = totals_by_name(s, &self_times(s));
        assert_eq!(totals["outer"].0, s[0].dur());
        assert_eq!(totals["inner"].0, totals["inner"].1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 1), 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses() {
        let spans = vec![
            span("replay.iter", None, 0.0, 2.0),
            span("gnn.forward", Some(0), 0.5, 1.0),
        ];
        let json = chrome_trace_json(&spans, &self_times(&spans));
        let v = crate::json::parse(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").and_then(|p| p.as_str()), Some("X"));
        let args = child.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(child.get("dur").and_then(|d| d.as_f64()), Some(500000.0));
    }
}
