//! In-memory span recorder for the traced replay.
//!
//! Each span holds its layer, the public call it wraps, start and end
//! (nanoseconds since the replay began), its parent span, the trace id
//! `(window, round)` current when it opened, the thread it ran on, and a
//! work count. Spans stay in memory and are written out once the run ends.
//!
//! Self time is a span's duration minus the durations of its children
//! that ran on the *same* thread: children on pool workers run
//! concurrently with their parent, so they are reported as worker time,
//! never subtracted from wall time.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_index() -> u32 {
    THREAD.with(|t| *t)
}

/// `(window, round)`: the window active and the delivery round in
/// progress when a span opened. `None` before the first round.
pub type TraceId = Option<(u32, u32)>;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub trace: TraceId,
    pub layer: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub units: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; a parallel region gives each task its own
/// recorder and [`Tracer::adopt`]s their spans afterwards.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: TraceId,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            trace: None,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_trace(&mut self, trace: TraceId) {
        self.trace = trace;
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn enter(&mut self, layer: &'static str, op: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            trace: self.trace,
            layer,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            units: 0,
            thread: thread_index(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, crediting it
    /// with `units` of work.
    pub fn exit(&mut self, id: usize, units: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.units = units;
    }

    /// Moves a finished task recorder's spans under `parent`, renumbering
    /// them after the spans already held.
    pub fn adopt(&mut self, parent: usize, task: Tracer) {
        assert!(task.open.is_empty(), "task left a span open");
        let base = self.spans.len();
        for mut s in task.spans {
            s.id += base;
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            self.spans.push(s);
        }
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Summed duration of the spans opened with nothing else open.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "replay left a span open");
        self.spans
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].thread == s.thread {
                own[p] -= s.duration_ns();
            }
        }
    }
    own
}

/// One JSON object per span, in span-id order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let trace = match s.trace {
            Some((w, r)) => format!("[{w},{r}]"),
            None => "null".to_string(),
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"trace\":{trace},\"span\":{},\"parent\":{parent},\"layer\":\"{}\",\
             \"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"units\":{},\"thread\":{}}}",
            s.id, s.layer, s.op, s.start_ns, s.end_ns, s.units, s.thread
        )
        .expect("writing to a String cannot fail");
    }
    out
}
