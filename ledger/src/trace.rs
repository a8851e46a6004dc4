//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A [`Tracer`] is owned by one thread.  `open`/`close` bracket a call;
//! spans nest by the order they are opened, and every span carries the id
//! of the operation (request, compile, run) it belongs to.  Nothing is
//! written while measuring: [`Tracer::finish`] hands back the spans, and
//! [`summarize`] / [`write_file`] run after the window has closed.
//!
//! A disabled tracer reads no clock and stores nothing, so the untraced
//! pass runs the same code with the spans compiled to two branches.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `analysis.analyze`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index (in the same span list) of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never closed records a zero-length interval"]
pub struct Open(Option<usize>);

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`, and is inert otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Set the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span.  Spans close innermost first.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = now;
    }

    /// Record a finished interval measured elsewhere (e.g. on another
    /// clock reading the caller already took), under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let rel = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent: self.stack.last().copied(),
            op: self.op,
        });
    }

    /// Stop recording and hand back every span.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
    }
}

/// Totals for all spans that share a name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// How many spans carry the name.
    pub count: usize,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, in nanoseconds.
    pub self_ns: u64,
    /// Each span's duration, ascending, in nanoseconds.
    pub durations_ns: Vec<u64>,
}

impl NameStats {
    /// Median duration in microseconds (0 when the name never occurred).
    pub fn p50_us(&self) -> f64 {
        if self.durations_ns.is_empty() {
            return 0.0;
        }
        let rank = self.durations_ns.len().div_ceil(2);
        self.durations_ns[rank - 1] as f64 / 1e3
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.  Children may overlap one another
/// (two threads working for one parent), so the cover is the length of
/// the union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Aggregate spans by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
        e.durations_ns.push(s.duration_ns());
    }
    for e in out.values_mut() {
        e.durations_ns.sort_unstable();
    }
    out
}

/// Share of the root spans' time that no child span accounts for:
/// `(root − Σ children) ÷ root`, over every span named `root`.
pub fn residual_rel(summary: &BTreeMap<&'static str, NameStats>, root: &str) -> f64 {
    match summary.get(root) {
        Some(r) if r.total_ns > 0 => r.self_ns as f64 / r.total_ns as f64,
        _ => 0.0,
    }
}

/// One report row per span name: its self time as a share of all time
/// under `root` spans, largest first.
pub fn share_rows(summary: &BTreeMap<&'static str, NameStats>, root: &str) -> Vec<String> {
    let total = summary.get(root).map_or(0, |r| r.total_ns).max(1) as f64;
    let mut rows: Vec<(&str, f64)> = summary
        .iter()
        .map(|(name, s)| (*name, s.self_ns as f64 / total))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.into_iter()
        .map(|(name, share)| format!("share {name} {:.1}%", share * 100.0))
        .collect()
}

/// Write spans as one JSON document, one span per line (see the README,
/// "Reading the trace file").
pub fn write_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"ledger_trace\": 1, \"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    )?;
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}, \"self\": {self_ns}}}{comma}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..70.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("g", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // root: 100 − (30 + 20) = 50; a: 30 − 10 = 20; leaves keep all.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let sum = summarize(&spans);
        assert_eq!(sum["root"].self_ns, 50);
        assert!((residual_rel(&sum, "root") - 0.5).abs() < 1e-12);
        assert_eq!(residual_rel(&sum, "absent"), 0.0);
    }

    #[test]
    fn overlapping_children_are_covered_as_a_union() {
        // Children 10..60 and 40..90 overlap on 40..60: the union is 80,
        // not 100.  A third child pokes past the parent and is clipped.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 90, Some(0)),
            span("z", 95, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn tracer_nests_by_open_order_and_stamps_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let root = t.open("root");
        let kid = t.open("kid");
        t.close(kid);
        t.close(root);
        t.set_op(8);
        let lone = t.open("lone");
        t.close(lone);
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].op, spans[2].op), (7, 8));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x");
        t.close(s);
        t.record("y", Instant::now(), Instant::now());
        assert!(t.finish().is_empty());
    }

    #[test]
    fn median_duration_is_nearest_rank() {
        let spans = vec![
            span("k", 0, 1_000, None),
            span("k", 0, 3_000, None),
            span("k", 0, 9_000, None),
            span("k", 0, 2_000, None),
        ];
        // ceil(4/2) = 2nd smallest = 2 µs.
        assert_eq!(summarize(&spans)["k"].p50_us(), 2.0);
    }
}
