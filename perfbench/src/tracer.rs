//! Harness-side spans around each call into a layer of the program.
//!
//! Spans are recorded only while tracing is switched on (the traced run);
//! otherwise [`span`] costs one relaxed atomic load. Each record carries
//! its name, start and end, the span that was open when it began, and the
//! operation it belongs to. Records stay in memory and are written once,
//! as a Perfetto trace, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tta_obs::json::Json;
use tta_obs::TraceBuilder;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static OP: AtomicU64 = AtomicU64::new(0);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Record {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span's id, 0 at the top.
    pub parent: u64,
    /// Operation id the span belongs to.
    pub op: u64,
    /// `layer.what`, e.g. `sim.run`.
    pub name: String,
    /// Start and end in seconds since [`start`].
    pub start_s: f64,
    pub end_s: f64,
}

impl Record {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer: the part of the name before the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Switch recording on.
pub fn start() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

/// Mark the start of a new operation; later spans carry its id.
pub fn next_op() {
    OP.fetch_add(1, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, u64, String, Instant)>,
}

/// Open a span named `name` under the innermost open span of this thread.
pub fn span(name: impl Into<String>) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(0);
        s.push(id);
        p
    });
    Guard {
        open: Some((id, parent, name.into(), Instant::now())),
    }
}

impl Guard {
    /// Rename the span before it closes (a cache lookup that turned out
    /// to compile, for example).
    pub fn rename(&mut self, name: impl Into<String>) {
        if let Some(open) = self.open.as_mut() {
            open.2 = name.into();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, t0)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        let e = epoch();
        let rec = Record {
            id,
            parent,
            op: OP.load(Ordering::Relaxed),
            name,
            start_s: t0.duration_since(e).as_secs_f64(),
            end_s: end.duration_since(e).as_secs_f64(),
        };
        RECORDS.lock().expect("trace records lock").push(rec);
    }
}

/// Every span recorded so far.
pub fn records() -> Vec<Record> {
    RECORDS.lock().expect("trace records lock").clone()
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed over the layer's spans.
pub fn self_times(recs: &[Record]) -> BTreeMap<String, f64> {
    let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
    for r in recs {
        if r.parent != 0 {
            *child_s.entry(r.parent).or_default() += r.dur_s();
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for r in recs {
        let own = r.dur_s() - child_s.get(&r.id).copied().unwrap_or(0.0);
        *out.entry(r.layer().to_string()).or_default() += own.max(0.0);
    }
    out
}

/// Summed duration of the spans named exactly `name`, and their count.
pub fn total(recs: &[Record], name: &str) -> (f64, u64) {
    recs.iter()
        .filter(|r| r.name == name)
        .fold((0.0, 0), |(s, n), r| (s + r.dur_s(), n + 1))
}

/// The Perfetto (Chrome trace-event) document: the harness spans on
/// process 1, one complete event each with its parent and operation id,
/// and the program's own aggregated obs spans on process 2.
pub fn perfetto(recs: &[Record]) -> Json {
    let mut t = TraceBuilder::new();
    t.process_name(1, "perfbench harness spans");
    t.thread_name(1, 1, "main");
    for r in recs {
        t.complete(
            1,
            1,
            &r.name,
            r.start_s * 1e6,
            r.dur_s() * 1e6,
            vec![
                ("id", Json::Num(r.id as f64)),
                ("parent", Json::Num(r.parent as f64)),
                ("op", Json::Num(r.op as f64)),
            ],
        );
    }
    t.process_name(2, "program obs spans (aggregate flame)");
    t.add_host_spans(2);
    t.to_json()
}
