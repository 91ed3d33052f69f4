//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions: name, start, end and the span that
//! caused it. They are kept in memory and written out when the run
//! ends. A span's self time is its duration minus the time its direct
//! children cover; the per-layer busy times are sums of self time by
//! layer name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// An in-memory, single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    records: Vec<SpanRecord>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.records.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
        });
        out
    }

    /// Self time in nanoseconds per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<String, u64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &self.records {
            if r.parent != 0 {
                *child_ns.entry(r.parent).or_default() += r.dur_ns;
            }
        }
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.records {
            let own = r
                .dur_ns
                .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
            *out.entry(r.name.clone()).or_default() += own;
        }
        out
    }

    /// Self time (ms) of every span whose name starts with `prefix`.
    pub fn self_ms(&self, prefix: &str) -> f64 {
        self.self_ns_by_name()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Self time (ms) of every span whose name starts with one of
    /// `prefixes`.
    pub fn self_ms_any(&self, prefixes: &[&str]) -> f64 {
        prefixes.iter().map(|p| self.self_ms(p)).sum()
    }

    /// The number of spans recorded so far, a mark for
    /// [`Tracer::dur_ns_since`].
    pub fn mark(&self) -> usize {
        self.records.len()
    }

    /// Total duration (ns) of the spans recorded since `mark` whose name
    /// starts with one of `prefixes`.
    pub fn dur_ns_since(&self, mark: usize, prefixes: &[&str]) -> u64 {
        self.records[mark..]
            .iter()
            .filter(|r| prefixes.iter().any(|p| r.name.starts_with(p)))
            .map(|r| r.dur_ns)
            .sum()
    }

    /// Durations (µs) of every span named exactly `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_ns as f64 / 1e3)
            .collect()
    }

    /// The spans as JSON lines, one per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                r.id, r.parent, r.name, r.start_ns, r.dur_ns
            );
        }
        out
    }
}
