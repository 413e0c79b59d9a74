//! In-memory span recorder and the per-layer accounting built from it.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer: name, start, end, the span that caused it, and the trace
//! (one workload operation) it belongs to. Each thread appends to a
//! buffer of its own, so recording never contends for a lock; the
//! buffers stay in memory and are merged and written out once, when the
//! run ends. A layer's self time is the
//! duration of its spans minus the part of each interval that its child
//! spans cover (children may run in parallel on other threads, so the
//! covered part is the union of their intervals).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use predtop_service::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root span.
    pub parent: u32,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans. Only its own thread appends, so its lock is
/// uncontended until the buffers are merged.
type Buffer = Arc<Mutex<Vec<Span>>>;

/// The span recorder. When disabled, [`Tracer::span`] only runs its
/// closure: no clock reads, no allocation, no lock.
pub struct Tracer {
    /// Tells this tracer's per-thread buffers from another's.
    id: u64,
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    trace: AtomicU64,
    /// Every thread's buffer, registered on the thread's first span.
    buffers: Mutex<Vec<Buffer>>,
}

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            trace: AtomicU64::new(0),
            buffers: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Start a new trace (one workload operation) and return its id.
    pub fn begin_trace(&self) -> u64 {
        self.trace.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, caused by the span open on
    /// this thread (if any).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_under(name, CURRENT.with(Cell::get), f)
    }

    /// Run `f` inside a span named `name` whose cause is `parent`. While
    /// `f` runs, the new span is the current one on this thread.
    pub fn span_under<T>(&self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = self.trace.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let outer = CURRENT.with(|c| c.replace(id));
        let out = f();
        CURRENT.with(|c| c.set(outer));
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Append to the calling thread's buffer, registering one on the
    /// thread's first span.
    fn record(&self, span: Span) {
        BUFFER.with(|b| {
            let mut b = b.borrow_mut();
            if b.as_ref().is_none_or(|(owner, _)| *owner != self.id) {
                let buf = Buffer::default();
                self.buffers.lock().unwrap().push(Arc::clone(&buf));
                *b = Some((self.id, buf));
            }
            if let Some((_, buf)) = b.as_ref() {
                buf.lock().unwrap().push(span);
            }
        });
    }

    /// Every thread's spans, merged in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .buffers
            .lock()
            .unwrap()
            .iter()
            .flat_map(|b| b.lock().unwrap().clone())
            .collect();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }

    /// Count, total duration and self time of the spans of every name.
    pub fn layer_times(&self) -> LayerTimes {
        let spans = self.spans();
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(covered) as f64 * 1e-9;
        }
        LayerTimes(out)
    }

    /// Write the first [`TRACE_FILE_SPANS`] spans as one JSON document
    /// (Chrome trace-event format, complete events, times in
    /// microseconds). Returns how many spans were left out.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut doc = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().take(TRACE_FILE_SPANS).enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.trace,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        doc.push_str("]}\n");
        std::fs::write(path, doc)?;
        Ok(spans.len().saturating_sub(TRACE_FILE_SPANS))
    }
}

/// Most spans a trace file holds; a serving run records millions.
pub const TRACE_FILE_SPANS: usize = 200_000;

/// Per span name: (number of spans, total duration s, self time s).
pub struct LayerTimes(BTreeMap<&'static str, (usize, f64, f64)>);

impl LayerTimes {
    /// Self time in seconds of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |t| t.2)
    }

    /// Total duration in seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |t| t.1)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |t| t.0)
    }
}

thread_local! {
    /// Id of the span open on this thread (0: none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    /// This thread's span buffer and the id of the tracer it belongs to.
    static BUFFER: RefCell<Option<(u64, Buffer)>> = const { RefCell::new(None) };
}

/// Id of the span open on the calling thread (0: none).
pub fn current_span() -> u32 {
    CURRENT.with(Cell::get)
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// A latency service that records one span per query around `inner`.
/// The span's cause is the span open on the querying thread or, on a
/// batch worker thread where none is open, the span id in `parent` (set
/// by the caller around `query_batch`). This is how the benchmark times
/// a layer the search only calls from inside the service stack.
pub struct Timed<S> {
    inner: S,
    name: &'static str,
    tracer: Arc<Tracer>,
    parent: Arc<AtomicU32>,
}

impl<S> Timed<S> {
    pub fn new(
        inner: S,
        name: &'static str,
        tracer: &Arc<Tracer>,
        parent: &Arc<AtomicU32>,
    ) -> Timed<S> {
        Timed {
            inner,
            name,
            tracer: Arc::clone(tracer),
            parent: Arc::clone(parent),
        }
    }
}

impl<S: LatencyService> LatencyService for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let parent = match current_span() {
            0 => self.parent.load(Ordering::Relaxed),
            open => open,
        };
        self.tracer
            .span_under(self.name, parent, || self.inner.query(q))
    }
}
