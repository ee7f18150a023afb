//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call into a layer's public function in a span
//! (name, start, end, parent, request id, thread). Spans stay in memory
//! until [`take`]; self time is derived afterwards. With tracing off
//! [`span`] is a direct call, so untraced runs pay one relaxed load per
//! call site.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the run.
    pub id: u32,
    /// The span that was open on the same thread when this one started.
    pub parent: Option<u32>,
    /// Layer call name, e.g. `fit.ptanh`.
    pub name: &'static str,
    /// Request (or pass) id shared by the spans of one request.
    pub req: u64,
    /// Small per-thread number, in order of first use.
    pub thread: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns recording on or off for spans started afterwards.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(record: SpanRecord) {
    SPANS
        .lock()
        .expect("span list lock is only poisoned by a panicking recorder")
        .push(record);
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    push(SpanRecord {
        id,
        parent,
        name,
        req,
        thread: THREAD.with(|t| *t),
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    });
    out
}

/// Records an interval measured elsewhere (a request's due time to its
/// response) as a child of the span open on the calling thread.
pub fn record(name: &'static str, req: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    push(SpanRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        req,
        thread: THREAD.with(|t| *t),
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end.max(start)),
    });
}

/// Removes and returns every recorded span, in completion order.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span list lock is only poisoned by a panicking recorder"),
    )
}

/// Indices of each span's children, by parent id.
fn children(spans: &[SpanRecord]) -> HashMap<u32, Vec<usize>> {
    let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    children
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let children = children(spans);
    spans
        .iter()
        .map(|s| {
            let mut covered: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|kids| {
                    kids.iter()
                        .map(|&k| {
                            let c = &spans[k];
                            (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                        })
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            covered.sort_unstable();
            let mut total = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - total
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Totals by span name over the spans that `keep` accepts.
pub fn totals_by_name(
    spans: &[SpanRecord],
    selfs: &[u64],
    keep: impl Fn(&SpanRecord) -> bool,
) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        if keep(s) {
            let t = out.entry(s.name).or_default();
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
    }
    out
}

/// Indices of `root` and every span below it.
fn subtree(spans: &[SpanRecord], root: u32) -> Vec<usize> {
    let children = children(spans);
    let mut out = Vec::new();
    let mut todo: Vec<usize> = spans
        .iter()
        .position(|s| s.id == root)
        .into_iter()
        .collect();
    while let Some(i) = todo.pop() {
        out.push(i);
        if let Some(kids) = children.get(&spans[i].id) {
            todo.extend(kids);
        }
    }
    out
}

/// Ratio of the summed self times in `root`'s tree to `wall_ns`, the time
/// the caller measured around the same work. Spans that nest properly make
/// this 1 up to the gap between the caller's clock reads and the root's.
pub fn self_sum_ratio(spans: &[SpanRecord], selfs: &[u64], root: u32, wall_ns: u64) -> f64 {
    let sum: u64 = subtree(spans, root).into_iter().map(|i| selfs[i]).sum();
    sum as f64 / wall_ns.max(1) as f64
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.req,
            s.thread,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            req: 0,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90);
        // c [60,95) overlaps b and sticks out of root's end.
        let spans = vec![
            rec(1, None, "root", 0, 100),
            rec(2, Some(1), "a", 10, 40),
            rec(3, Some(2), "a1", 15, 25),
            rec(4, Some(1), "b", 50, 90),
            rec(5, Some(1), "c", 60, 105),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 30 - 50, 30 - 10, 10, 40, 45]);
        // Properly nested children: self times add up to the root exactly.
        let nested = &spans[..4];
        let selfs = self_times(nested);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        assert!((self_sum_ratio(nested, &selfs, 1, 100) - 1.0).abs() < 1e-12);
        let totals = totals_by_name(nested, &selfs, |s| s.name != "root");
        assert_eq!(
            totals["a"],
            Totals {
                total_ns: 30,
                self_ns: 20
            }
        );
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        set_enabled(true);
        let start = Instant::now();
        span("outer", 7, || {
            span("inner", 7, || std::hint::black_box(1 + 1));
            record("measured", 7, start, Instant::now());
        });
        set_enabled(false);
        span("ignored", 0, || ());
        let spans: Vec<SpanRecord> = take().into_iter().filter(|s| s.req == 7).collect();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        for name in ["inner", "measured"] {
            let s = spans.iter().find(|s| s.name == name).expect("child");
            assert_eq!(s.parent, Some(outer.id));
        }
        assert_eq!(spans.len(), 3);
    }
}
