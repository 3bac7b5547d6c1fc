//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! [`span`]; nothing is recorded inside the program. A span carries its
//! name, start and end (nanoseconds since the run's epoch), the span that
//! enclosed it on the same thread, and the request id set by
//! [`set_request`]. Spans stay in thread-local buffers until the outermost
//! span of a thread closes, then move to one global list under a lock, and
//! are written out once, by [`write_csv`], when the run ends.
//!
//! With tracing off, [`span`] costs one relaxed atomic load, so the
//! untraced and traced runs execute the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static GLOBAL: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `placement.delta.resolve`.
    pub name: &'static str,
    /// Start, ns since [`epoch`].
    pub start: u64,
    /// End, ns since [`epoch`].
    pub end: u64,
    /// Request the span belongs to (0 outside requests).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct Local {
    stack: Vec<u64>,
    buf: Vec<Span>,
    request: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// The instant all span times are measured from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the request id that spans opened on this thread carry.
pub fn set_request(id: u64) {
    LOCAL.with(|l| l.borrow_mut().request = id);
}

/// Runs `f` inside a span called `name` (a plain call when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        (parent, l.request)
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        l.buf.push(Span {
            id,
            parent,
            name,
            start,
            end,
            request,
        });
        if l.stack.is_empty() {
            let batch = std::mem::take(&mut l.buf);
            GLOBAL.lock().expect("span list poisoned").extend(batch);
        }
    });
    out
}

/// Records an already-timed root span (e.g. a TCP request measured from its
/// due time), when tracing is on.
pub fn record(name: &'static str, start: u64, end: u64, request: u64) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    GLOBAL.lock().expect("span list poisoned").push(Span {
        id,
        parent: 0,
        name,
        start,
        end,
        request,
    });
}

/// Takes every span recorded so far (all threads' closed root spans).
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *GLOBAL.lock().expect("span list poisoned"))
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus the time child spans cover), ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time in microseconds (0 without spans).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregates spans by name. Children of one span run on its thread and
/// nest without overlapping, so the time they cover is the sum of their
/// durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += s
            .dur()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as CSV (`id,parent,name,start_ns,end_ns,request`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,name,start_ns,end_ns,request")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.name, s.start, s.end, s.request
        )?;
    }
    w.flush()
}
