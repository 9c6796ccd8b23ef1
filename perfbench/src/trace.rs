//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into the workspace
//! crates; nothing inside the library is instrumented. Each span carries an
//! id, its parent's id, the request it belongs to, a name, and start/end
//! offsets from the recorder's epoch. Spans stay in memory and are written
//! with the run record at exit. A disabled recorder times nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (`>= 1`).
    pub id: u64,
    /// Id of the enclosing span, `0` for a root.
    pub parent: u64,
    /// Request the span belongs to (an objective call, a job, a scan pass).
    pub request: u64,
    /// Layer-qualified name, e.g. `costvec.phase`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every [`span`](Self::span) a
    /// plain call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent` (`0` for a
    /// root); `f` receives the new span's id for its children (`0` when
    /// disabled).
    pub fn span<R>(&self, name: &str, parent: u64, request: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(id, name, parent, request, start, Instant::now());
        out
    }

    /// Records an interval measured by the caller (for boundaries that are
    /// observed rather than wrapped, e.g. batch completions seen by a
    /// sink). No-op when disabled.
    pub fn record(&self, name: &str, parent: u64, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, name, parent, request, start, end);
        }
    }

    fn push(&self, id: u64, name: &str, parent: u64, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking span")
            .push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                start_ns: ns(start),
                end_ns: ns(end),
            });
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking span")
            .clone()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed wall time, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Count, wall time and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: name.into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 40, 70),
            span(4, 3, "c", 50, 60),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 20 - 30);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 30 - 10);
        assert_eq!(s[&4], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Concurrent children (e.g. two client threads under one parent).
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "x", 10, 50),
            span(3, 1, "x", 30, 60),
            span(4, 1, "x", 90, 120), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 50 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span(1, 0, "obj", 0, 100),
            span(2, 1, "k", 0, 40),
            span(3, 1, "k", 50, 90),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["k"],
            NameTotals {
                count: 2,
                total_ns: 80,
                self_ns: 80
            }
        );
        assert_eq!(t["obj"].self_ns, 20);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let tr = Tracer::new(true);
        let v = tr.span("outer", 0, 1, |id| tr.span("inner", id, 1, |_| 5));
        assert_eq!(v, 5);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, 0, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
