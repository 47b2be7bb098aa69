//! In-memory spans around the benchmark's own calls into each layer,
//! written out once when the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, start and end (ns since the trace began), the
/// span that caused it, and counts taken at the same boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `run:intruder/lazy-stm`.
    pub name: String,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Counts recorded at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

/// A trace: spans in start order, with a stack of the open ones.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, attaching `counts`.
    pub fn exit(&mut self, counts: Vec<(&'static str, u64)>) {
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.counts = counts;
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}",
                s.name, s.start_ns, s.end_ns
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Trace::default();
        t.enter("pass");
        t.enter("run:a/b");
        t.exit(vec![("commits", 3)]);
        t.exit(Vec::new());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0,\"commits\":3}"));
    }
}
