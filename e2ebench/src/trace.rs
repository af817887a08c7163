//! In-memory layer spans and an allocation counter.
//!
//! Spans wrap the benchmark's calls into each layer's public functions.
//! They are recorded only in a traced run (`--trace 1`); in a timed run
//! [`span`] returns an inert guard after one relaxed load. Spans are kept
//! in memory and written out when the run ends, with each layer's self
//! time: its spans' duration minus the part covered by child spans on the
//! same thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Counts the allocations the process makes, on any thread, while spans
/// are recorded; otherwise it adds one relaxed load of [`ENABLED`] per
/// allocation and never writes shared memory.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if enabled() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// atomic that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) counted so far, that is, made
/// while tracing was on.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last (indices into `SPANS`).
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Switches span recording on (the traced run) or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One recorded span; times are nanoseconds since the first span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer name, e.g. `labels.compute_perf_matrix`.
    pub name: &'static str,
    /// The enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Start and end offsets.
    pub start_ns: u64,
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Closes its span when dropped.
pub struct Span(Option<usize>);

/// Opens a span named `name` (a no-op unless tracing is on).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let start_ns = epoch().elapsed().as_nanos() as u64;
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let id = {
        let mut spans = SPANS.lock().expect("span log poisoned");
        spans.push(SpanRecord {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(id));
    Span(Some(id))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans[id].end_ns = end_ns;
        }
    }
}

/// Per-layer totals: span count, inclusive time and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Aggregates `spans` per name. A span's self time is its duration minus
/// that of its direct children.
pub fn layer_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.total_ms += dur as f64 / 1e6;
        t.self_ms += dur.saturating_sub(child) as f64 / 1e6;
    }
    out
}

/// Every span recorded so far.
pub fn recorded() -> Vec<SpanRecord> {
    SPANS.lock().expect("span log poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let rec = |name, parent, start_ns, end_ns| SpanRecord {
            name,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            rec("outer", None, 0, 10_000_000),
            rec("inner", Some(0), 1_000_000, 4_000_000),
            rec("inner", Some(0), 5_000_000, 6_000_000),
            rec("leaf", Some(1), 2_000_000, 3_000_000),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["outer"].total_ms, 10.0);
        assert_eq!(t["outer"].self_ms, 6.0);
        assert_eq!(t["inner"].spans, 2);
        assert_eq!(t["inner"].total_ms, 4.0);
        assert_eq!(t["inner"].self_ms, 3.0);
        assert_eq!(t["leaf"].self_ms, 1.0);
    }
}
