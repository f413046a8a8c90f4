//! Measurement plumbing shared by every workload: exact percentiles from
//! stored samples, amortized per-call timing, the in-memory span tracer,
//! peak RSS, and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`q` in (0, 1]).
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted f64 values (upper median for even counts, so the
/// result is always one of the inputs).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Latencies below this many nanoseconds are counted per nanosecond;
/// longer ones are stored one by one.
const DENSE_NS: usize = 1 << 16;

/// Per-request latencies at whole-nanosecond resolution, lossless, so
/// every percentile is exact. Short latencies are kept as a count per
/// nanosecond value, long ones as a list, which keeps memory small and
/// independent of how many requests a run completes: the process's
/// peak RSS then measures the program, not the benchmark's buffers.
pub struct Latencies {
    dense: Vec<u64>,
    sparse: Vec<u64>,
}

impl Default for Latencies {
    fn default() -> Self {
        Self { dense: vec![0; DENSE_NS], sparse: Vec::new() }
    }
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        match self.dense.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => self.sparse.push(ns),
        }
    }

    pub fn extend(&mut self, other: Latencies) {
        for (a, b) in self.dense.iter_mut().zip(&other.dense) {
            *a += b;
        }
        self.sparse.extend(other.sparse);
    }

    /// Sort once; afterwards the quantile accessors are exact.
    pub fn finish(mut self) -> SortedLatencies {
        self.sparse.sort_unstable();
        let mut cumulative = self.dense;
        let mut acc = 0;
        for c in cumulative.iter_mut() {
            acc += *c;
            *c = acc;
        }
        SortedLatencies { cumulative, sparse: self.sparse }
    }
}

pub struct SortedLatencies {
    /// `cumulative[v]`: requests that took at most `v` ns (below `DENSE_NS`).
    cumulative: Vec<u64>,
    sparse: Vec<u64>,
}

impl SortedLatencies {
    pub fn len(&self) -> usize {
        (self.dense_total() as usize) + self.sparse.len()
    }

    fn dense_total(&self) -> u64 {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// The `rank`-th smallest latency (1-based), in ns.
    fn nth(&self, rank: u64) -> u64 {
        let dense = self.dense_total();
        if rank <= dense {
            self.cumulative.partition_point(|&c| c < rank) as u64
        } else {
            self.sparse[(rank - dense - 1) as usize]
        }
    }

    /// Nearest-rank quantile in ns.
    fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.len() as u64;
        assert!(n > 0, "quantile of an empty sample");
        self.nth(((q * n as f64).ceil() as u64).clamp(1, n))
    }

    /// Quantile in microseconds, from whole nanoseconds (no truncation).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e3
    }

    /// Requests at or below `ns` nanoseconds.
    fn at_most(&self, ns: u64) -> u64 {
        let dense = match self.cumulative.get(ns as usize) {
            Some(&c) => return c,
            None => self.dense_total(),
        };
        dense + self.sparse.partition_point(|&x| x <= ns) as u64
    }

    /// Samples strictly above the `q` quantile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.len() as u64 - self.at_most(self.quantile_ns(q))
    }

    /// Share of samples below `us` microseconds.
    pub fn share_below_us(&self, us: f64) -> f64 {
        let cut = (us * 1e3) as u64;
        let below = if cut == 0 { 0 } else { self.at_most(cut - 1) };
        below as f64 / self.len() as f64
    }
}

/// Time `f` (which performs `ops` operations per call) until at least
/// `budget` has elapsed; repeat that `trials` times and return the
/// median nanoseconds per operation. Sub-microsecond calls are never
/// timed one by one.
pub fn ns_per_op(trials: usize, budget: Duration, ops: usize, mut f: impl FnMut()) -> f64 {
    assert!(ops > 0, "ns_per_op needs at least one operation per pass");
    f(); // warm caches and lazy state before the first trial
    let per_trial: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            let mut passes = 0u64;
            while start.elapsed() < budget || passes == 0 {
                f();
                passes += 1;
            }
            start.elapsed().as_nanos() as f64 / (passes as f64 * ops as f64)
        })
        .collect();
    median(&per_trial)
}

/// One span: a named interval of one request, relative to the tracer's
/// origin. `request` ties the spans of one request together; `depth` 0
/// is the request itself, 1 a call it made into a layer.
#[derive(Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub depth: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Disabled tracers cost one branch per span;
/// enabled ones two clock reads and a push. Spans are summarized when
/// the benchmark ends.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    request: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), request: 0, spans: Vec::new() }
    }

    /// Start a new request; later spans belong to it.
    pub fn next_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Clock reading that opens a span (0 when disabled).
    #[inline]
    pub fn start(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Close a span opened by [`Self::start`].
    #[inline]
    pub fn end(&mut self, name: &'static str, depth: u8, start_ns: u64) {
        if self.enabled {
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span { request: self.request, name, depth, start_ns, end_ns });
        }
    }

    #[inline]
    pub fn span<R>(&mut self, name: &'static str, depth: u8, f: impl FnOnce() -> R) -> R {
        let start = self.start();
        let out = f();
        self.end(name, depth, start);
        out
    }
}

/// Per span name: count, total time and self time (time not covered by
/// deeper spans of the same request), in microseconds.
fn summarize_spans(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    let mut i = 0;
    while i < spans.len() {
        let req = spans[i].request;
        let mut j = i;
        while j < spans.len() && spans[j].request == req {
            j += 1;
        }
        let group = &spans[i..j];
        for s in group {
            let total = (s.end_ns - s.start_ns) as f64 / 1e3;
            let children: u64 = group
                .iter()
                .filter(|c| {
                    c.depth == s.depth + 1 && c.start_ns >= s.start_ns && c.end_ns <= s.end_ns
                })
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - children as f64 / 1e3;
        }
        i = j;
    }
    out
}

pub fn print_span_summary(spans: &[Span]) {
    for (name, (count, total, self_us)) in summarize_spans(spans) {
        println!(
            "span {name:<28} n={count:<9} mean={:.3} us  self={:.3} us",
            total / count as f64,
            self_us / count as f64
        );
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Metrics of one run, printed as a table and as the final JSON line.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<40} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// reported as `null` (and the run as incorrect by its caller).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A correctness failure: printed at once, counted against `ok_frac`.
pub fn mismatch(what: std::fmt::Arguments<'_>) {
    println!("MISMATCH {what}");
}
