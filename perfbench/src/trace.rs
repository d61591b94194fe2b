//! The benchmark's own spans, placed around each call it makes into a
//! layer of the program.
//!
//! Every call is timed whether tracing is on or off (latency needs the
//! duration anyway); with tracing on, each call additionally leaves a span
//! in memory — layer, label, parent span, request id, start, duration and
//! the number of items (queries, series, reads) it carried. Spans are
//! written out when the run ends. A span's self time is its duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (`index`, `storage`, `serve`, ...).
    pub layer: &'static str,
    /// Interned label (see [`Tracer::label`]).
    pub label: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request id shared by the spans of one request (0 when none).
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Items the call carried.
    pub items: u64,
}

/// Aggregate of the spans of one (layer, label).
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Items carried.
    pub items: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    labels: Vec<String>,
    spans: Vec<Span>,
    /// Open enclosing spans: (index into `spans`, start).
    open: Vec<(u32, Instant)>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            labels: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Interns a label (done once per cell, outside any timed call).
    pub fn label(&mut self, label: &str) -> u32 {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i as u32;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    fn parent(&self) -> Option<u32> {
        self.open.last().map(|&(id, _)| id)
    }

    /// Times `f` as one call into `layer`; records a span when on.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        label: u32,
        request: u64,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let elapsed = start.elapsed();
        if self.on {
            self.spans.push(Span {
                layer,
                label,
                parent: self.parent(),
                request,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: elapsed.as_nanos() as u64,
                items,
            });
        }
        (out, elapsed)
    }

    /// Records an already measured call (e.g. a client round trip whose
    /// start and end happen on another thread).
    pub fn record(
        &mut self,
        layer: &'static str,
        label: u32,
        request: u64,
        items: u64,
        start: Instant,
        dur: Duration,
    ) {
        if self.on {
            self.spans.push(Span {
                layer,
                label,
                parent: self.parent(),
                request,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                items,
            });
        }
    }

    /// Opens an enclosing span (a cell or a round); spans recorded until
    /// [`Tracer::close`] become its children.
    pub fn open(&mut self, label: u32) {
        if self.on {
            let now = Instant::now();
            self.spans.push(Span {
                layer: "bench",
                label,
                parent: self.parent(),
                request: 0,
                start_ns: now.duration_since(self.origin).as_nanos() as u64,
                dur_ns: 0,
                items: 0,
            });
            self.open.push(((self.spans.len() - 1) as u32, now));
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some((idx, start)) = self.open.pop() {
            self.spans[idx as usize].dur_ns = start.elapsed().as_nanos() as u64;
        }
    }

    /// Spans aggregated by (layer, label text), with self times.
    pub fn aggregate(&self) -> BTreeMap<(&'static str, String), Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<(&'static str, String), Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let a = out
                .entry((s.layer, self.labels[s.label as usize].clone()))
                .or_default();
            a.items += s.items;
            a.self_ns += s.dur_ns.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "layer,label,parent,request,start_ns,dur_ns,items")?;
        for s in &self.spans {
            let parent = s
                .parent
                .map(|p| self.labels[self.spans[p as usize].label as usize].as_str())
                .unwrap_or("");
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                s.layer,
                self.labels[s.label as usize],
                parent,
                s.request,
                s.start_ns,
                s.dur_ns,
                s.items
            )?;
        }
        w.flush()
    }
}
