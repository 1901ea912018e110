//! In-memory span log of one run, written as Chrome trace-event JSON.
//!
//! The harness records spans around its own calls into each layer —
//! `workload` → `setup` → {`build_system`, `minimize`, …}, `measure` →
//! `cycle[i]`, `layer_calls` → one span per direct kernel call — each with
//! name, start, end and the span that caused it. Nothing is written until
//! the run has ended.

use serde_json::{json, Value};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Numeric attachments, e.g. the phase durations of a traced cycle.
    pub args: Vec<(&'static str, f64)>,
}

/// Handle of an open span, returned by [`SpanLog::open`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose time zero is `origin` (process start).
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` (and anything still open inside it); returns its length
    /// in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id.0 {
                break;
            }
        }
        (now - self.spans[id.0].start_us) * 1e-6
    }

    /// Time `f` inside a span named `name`.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Seconds of each of `reps` timed calls of `f`, after one untimed
    /// warm-up call; every timed call gets its own span.
    pub fn timed_reps(&mut self, name: &str, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
        f();
        (0..reps).map(|_| self.timed(name, &mut f).1).collect()
    }

    pub fn attach(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id.0].args.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event document (`chrome://tracing`, Perfetto): one
    /// complete ("X") event per span; `args.id`/`args.parent` carry the
    /// causal link, since the viewer only infers nesting from timestamps.
    pub fn chrome_trace(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_string(), json!(id)),
                    ("parent".to_string(), json!(s.parent)),
                ];
                args.extend(s.args.iter().map(|(k, v)| (k.to_string(), json!(v))));
                json!({
                    "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                    "ts": s.start_us, "dur": s.end_us - s.start_us,
                    "args": Value::Object(args),
                })
            })
            .collect();
        json!({"traceEvents": events, "displayTimeUnit": "ms"})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open("workload");
        let setup = log.open("setup");
        let (x, _) = log.timed("build_system", || 7);
        assert_eq!(x, 7);
        log.close(setup);
        let cycle = log.open("cycle[0]");
        log.attach(cycle, "fft_us", 12.5);
        // Closing the root closes the forgotten cycle span too.
        log.close(root);
        let s = log.spans();
        let parents: Vec<Option<usize>> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(s.iter().all(|s| s.end_us >= s.start_us));
        assert!(s[0].end_us >= s[3].end_us && s[3].end_us > 0.0);

        let doc = log.chrome_trace();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3]["name"].as_str(), Some("cycle[0]"));
        assert_eq!(events[3]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(events[3]["args"]["fft_us"].as_f64(), Some(12.5));
        assert!(events[0]["args"]["parent"].is_null());
    }
}
