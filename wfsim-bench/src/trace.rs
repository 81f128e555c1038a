//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Every thread records into its own [`Recorder`] (no shared state on the
//! measured path); the recorders hand their spans to the [`Tracer`] when
//! their thread ends, and the tracer derives per-layer self time — a
//! span's duration minus the part its child spans cover — and writes the
//! raw spans out as JSON lines.  A disabled recorder runs the wrapped call
//! and records nothing, so the untraced run shares the traced code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.  `parent` indexes the span that caused it in the same
/// recorder; spans of one root call share a `trace` id.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span sharing one name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub count: u64,
    pub self_ns: u64,
}

impl Layer {
    /// Mean self time per span, in the given unit (1e3 = µs, 1e6 = ms).
    pub fn mean(&self, ns_per_unit: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / ns_per_unit
        }
    }

    pub fn total_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    next_tag: AtomicU32,
    finished: Mutex<Vec<(u32, Vec<Span>)>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_tag: AtomicU32::new(0),
            finished: Mutex::new(Vec::new()),
        }
    }

    /// A recorder for one thread; `enabled = false` records nothing.
    pub fn recorder(&self, enabled: bool) -> Recorder {
        // ordering: Relaxed — a unique-tag ticket; publishes no other data.
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        Recorder {
            enabled,
            tag,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_trace: 0,
        }
    }

    /// Takes over a finished recorder's spans.
    pub fn collect(&self, recorder: Recorder) {
        if recorder.spans.is_empty() {
            return;
        }
        self.finished
            .lock()
            .expect("a recorder thread panicked while handing in spans")
            .push((recorder.tag, recorder.spans));
    }

    /// Self time and count per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let finished = self.finished.lock().expect("tracer poisoned");
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (_, spans) in finished.iter() {
            // Spans of one recorder nest strictly (one thread), so the
            // children of a span never overlap one another.
            let mut child_ns = vec![0u64; spans.len()];
            for span in spans {
                if let Some(parent) = span.parent {
                    child_ns[parent] += span.end_ns - span.start_ns;
                }
            }
            for (span, children) in spans.iter().zip(child_ns) {
                let layer = layers.entry(span.name).or_default();
                layer.count += 1;
                layer.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
            }
        }
        layers
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let finished = self.finished.lock().expect("tracer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (tag, spans) in finished.iter() {
            for (id, span) in spans.iter().enumerate() {
                let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"thread\":{tag},\"trace\":{},\"id\":{id},\"parent\":{parent},\
                     \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    span.trace, span.name, span.start_ns, span.end_ns
                )?;
            }
        }
        out.flush()
    }
}

pub struct Recorder {
    enabled: bool,
    tag: u32,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_trace: u64,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span of this recorder (a new trace when none is open).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p].trace,
            None => {
                self.next_trace += 1;
                (u64::from(self.tag) << 40) | self.next_trace
            }
        };
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }
}
