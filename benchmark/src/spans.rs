//! Spans of the traced pass: `{id, parent, name, start_ns, end_ns}`,
//! kept in memory and written to `trace.json` when the run ends.

use std::time::Instant;

use serde::Value;

use crate::report::{int, obj, s as text};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close span `id` and return its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_s()
    }

    /// Time `f` as a span under `parent`.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent);
        let out = f();
        (out, self.end(id))
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_time_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_s)
            .sum();
        self.spans[id].duration_s() - children
    }

    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("id", int(s.id as u64)),
                        ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                        ("name", text(s.name.clone())),
                        ("start_ns", int(s.start_ns)),
                        ("end_ns", int(s.end_ns)),
                        ("self_s", Value::Float(self.self_time_s(s.id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.begin("sweep", None);
        let a = t.begin("target", Some(root));
        let cell = t.begin("cell", Some(a));
        // Pin the clock: the arithmetic is what is under test.
        t.spans[root] = Span {
            start_ns: 0,
            end_ns: 1_000,
            ..t.spans[root].clone()
        };
        t.spans[a] = Span {
            start_ns: 100,
            end_ns: 700,
            ..t.spans[a].clone()
        };
        t.spans[cell] = Span {
            start_ns: 200,
            end_ns: 500,
            ..t.spans[cell].clone()
        };
        assert!((t.self_time_s(root) - 400e-9).abs() < 1e-15);
        assert!((t.self_time_s(a) - 300e-9).abs() < 1e-15);
        assert!((t.self_time_s(cell) - 300e-9).abs() < 1e-15);
        let Value::Array(rows) = t.to_value() else {
            panic!("spans render as an array")
        };
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn span_times_its_closure() {
        let mut t = Tracer::new();
        let (out, secs) = t.span("work", None, || 7);
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.spans[0].name, "work");
    }
}
