//! In-memory span recorder for the traced replay.
//!
//! One span per call into a layer: name, start, end, parent span and the
//! grid point it belongs to. Spans stay in memory while the replay runs
//! and are written out once at the end, so recording costs one mutex push
//! per boundary and no I/O. A layer's self time is its spans' durations
//! minus the parts of those intervals covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `soc.step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// The span that made this call.
    pub parent: Option<usize>,
    /// The grid or scenario point this call worked for.
    pub point: Option<usize>,
}

/// Thread-safe span sink shared by the replay's caller and worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        point: Option<usize>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            point,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes a span.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span sink poisoned")[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        point: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, point);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of one span, in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect("span sink poisoned");
        spans[id.0].end_ns.saturating_sub(spans[id.0].start_ns) as f64 / 1e9
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Per-span self time in nanoseconds: duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time per span name, in nanoseconds, plus the call count.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut layers: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = layers.entry(s.name).or_default();
        e.0 += self_ns;
        e.1 += 1;
    }
    layers
}

/// Whether a span name times a call into the program. `run` and
/// `bench.task` are the benchmark's own: their self time is work inside
/// the replay or a point that no program-layer span covers.
pub fn is_program_layer(name: &str) -> bool {
    !matches!(name, "run" | "bench.task")
}

/// Writes every span as one JSON line: name, start/end in nanoseconds
/// since the replay began, parent span index and point id (`null` when
/// absent). The span's index is its line number, counting from 0.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"point\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.point)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            point: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: only the uncovered 40..50 counts against root.
            span("b", 30, 50, Some(0)),
            span("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 22, 20, 8]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["root"], (60, 1));
        assert_eq!(layers.values().map(|v| v.0).sum::<u64>(), 110);
    }

    #[test]
    fn benchmark_spans_are_not_program_layers() {
        assert!(!is_program_layer("run"));
        assert!(!is_program_layer("bench.task"));
        assert!(is_program_layer("soc.step"));
        assert!(is_program_layer("grid.driver"));
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = [span("root", 0, 10, None), span("late", 5, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_nests_scopes() {
        let t = Tracer::new();
        let outer = t.begin("outer", None, None);
        t.scope("inner", Some(outer), Some(3), || {});
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].point, Some(3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
