//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A disabled tracer runs the closure and records nothing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span (the span that caused this one).
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.t0.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Summed duration of every span named `name` \[s\].
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as a JSON array (`name`, `start_s`, `end_s`, `parent`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}}}",
                s.name,
                s.start,
                s.end,
                s.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string())
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer = t.total("outer");
        let inner = t.total("inner");
        assert!(inner >= 0.02 && outer >= inner);
        assert!(t.to_json().contains("\"name\": \"inner\", \"start_s\""));
        assert!(t.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.total("x"), 0.0);
    }
}
