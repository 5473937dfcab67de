//! In-memory spans and counters recorded by the benchmark around its calls
//! into each layer, written out as Chrome trace-event JSON at the end.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced runs that give the end-to-end metrics pay one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; later spans still feed the aggregates.
const MAX_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// An open span; hand it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    id: Option<u32>,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the open spans, innermost last (`u32::MAX` once past the cap).
    stack: Vec<u32>,
    durations: BTreeMap<&'static str, Vec<u64>>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            durations: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open {
                name,
                start_ns: 0,
                id: None,
            };
        }
        let id = if self.spans.len() < MAX_SPANS {
            let parent = self.stack.last().copied().filter(|&p| p != u32::MAX);
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            self.spans.len() as u32 - 1
        } else {
            u32::MAX
        };
        self.stack.push(id);
        let start_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.start_ns = start_ns;
        }
        Open {
            name,
            start_ns,
            id: Some(id),
        }
    }

    /// Close `open`, returning its duration in ns (0 when tracing is off).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(id) = open.id else {
            return 0;
        };
        let end_ns = self.now_ns();
        self.stack.pop();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
        let dur = end_ns - open.start_ns;
        self.durations.entry(open.name).or_default().push(dur);
        dur
    }

    pub fn add(&mut self, counter: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(counter).or_default() += v;
        }
    }

    pub fn set(&mut self, counter: &'static str, v: f64) {
        if self.on {
            self.counters.insert(counter, v);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn durations(&self, name: &str) -> &[u64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration of the spans named `name`, in µs.
    pub fn median_us(&self, name: &str) -> f64 {
        let ns: Vec<f64> = self.durations(name).iter().map(|&d| d as f64).collect();
        crate::stats::median_f64(&ns) / 1e3
    }

    /// Total duration of the spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64
    }

    /// The recorded spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events in µs, each naming its parent span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}
