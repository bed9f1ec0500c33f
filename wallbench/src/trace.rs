//! In-memory span recording around calls into the program's layers.
//!
//! Each thread records into its own [`Local`] buffer (no lock on the
//! recording path); buffers drain into the shared [`Tracer`] when they
//! drop, and the spans are written out once, when the benchmark ends.
//! A span carries a name, start and end (nanoseconds since the tracer
//! was created), the span that caused it, and the identifier of the
//! request (or epoch) it belongs to.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<u64>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The shared span store and clock origin.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    /// A per-thread recording buffer.
    pub fn local(&self) -> Local<'_> {
        Local { tracer: self, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Every span recorded so far by dropped [`Local`] buffers, in
    /// start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// A span that has started but not ended.
#[must_use]
pub struct Open {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A thread's recording buffer; drains into its [`Tracer`] on drop.
pub struct Local<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl Local<'_> {
    /// Starts a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, name, parent, request, start: Instant::now() }
    }

    /// Ends a span now; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        self.push(open.id, open.name, open.parent, open.request, open.start, end);
        end.duration_since(open.start).as_secs_f64()
    }

    /// Records a span whose bounds were taken elsewhere; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, request, start, end);
        id
    }

    fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.tracer.ns(start), self.tracer.ns(end));
        self.spans.push(Span { id, name, parent, request, start_ns, end_ns });
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        let mut all = self.tracer.spans.lock().unwrap_or_else(|e| e.into_inner());
        all.append(&mut self.spans);
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (each clipped to the window first, so overlapping children are not
/// counted twice).
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// A span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let iv: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    span.duration_ns() - covered_ns(span.start_ns, span.end_ns, &iv)
}

/// Per span name: `(count, total nanoseconds, total self nanoseconds)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_time_ns(s, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, name: "s", parent, request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, None, 0, 100);
        // Overlapping children [10, 40) and [30, 50) cover 40 ns, a
        // disjoint one [60, 70) 10 ns, and one straddling the end
        // [90, 120) is clipped to 10 ns.
        let a = span(2, Some(1), 10, 40);
        let b = span(3, Some(1), 30, 50);
        let c = span(4, Some(1), 60, 70);
        let d = span(5, Some(1), 90, 120);
        assert_eq!(self_time_ns(&root, &[&a, &b, &c, &d]), 100 - 40 - 10 - 10);
        assert_eq!(self_time_ns(&root, &[]), 100);
        assert_eq!(self_time_ns(&a, &[]), 30);
    }

    #[test]
    fn covered_handles_empty_and_nested_intervals() {
        assert_eq!(covered_ns(0, 10, &[]), 0);
        assert_eq!(covered_ns(0, 10, &[(2, 8), (3, 4)]), 6);
        assert_eq!(covered_ns(5, 10, &[(0, 3)]), 0);
        assert_eq!(covered_ns(0, 10, &[(0, 5), (5, 10)]), 10);
    }

    #[test]
    fn summary_reports_self_time_per_name() {
        let t = Tracer::new();
        {
            let mut l = t.local();
            let root = l.open("root", None, 7);
            let rid = root.id();
            let child = l.open("child", Some(rid), 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            l.close(child);
            l.close(root);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let sum = summarize(&spans);
        let (n, total, self_ns) = sum["root"];
        assert_eq!(n, 1);
        let child_total = sum["child"].1;
        assert_eq!(self_ns, total - child_total, "root self time excludes its child");
        assert!(spans.iter().all(|s| s.request == 7));
    }
}
