//! In-memory spans around the benchmark's own calls into the system
//! (`submit`→`recv`, `http::post`). Recording is off in untraced runs,
//! where every call is a branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// What was timed.
    pub name: &'static str,
    /// The frame the span belongs to (`stream << 32 | position`), or
    /// `u64::MAX` when it belongs to no frame.
    pub frame: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// A per-thread span recorder. Threads own their logs (no locking on
/// the measured path) and hand them back when they finish.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    spans: Option<Vec<Span>>,
}

/// Frame key of a span: stream and position in the stream.
pub fn frame_key(stream: usize, pos: usize) -> u64 {
    ((stream as u64) << 32) | pos as u64
}

impl SpanLog {
    /// A recorder for thread `thread` (ids are namespaced per thread).
    pub fn new(epoch: Instant, thread: u64, enabled: bool) -> Self {
        SpanLog { epoch, next_id: (thread << 40) + 1, spans: enabled.then(Vec::new) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        frame: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let Some(spans) = self.spans.as_mut() else { return 0 };
        let id = self.next_id;
        self.next_id += 1;
        spans.push(Span { id, parent, name, frame, start_ns, end_ns });
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        if self.spans.is_none() {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under a previously reserved id.
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        frame: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span { id, parent: 0, name, frame, start_ns, end_ns });
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Writes spans as JSON lines, sorted by start time.
pub fn write_spans(path: &Path, mut spans: Vec<Span>) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        let line = Json::obj()
            .num("id", s.id as f64)
            .num("parent", s.parent as f64)
            .str("name", s.name)
            .num("frame", if s.frame == u64::MAX { -1.0 } else { s.frame as f64 })
            .num("start_ns", s.start_ns as f64)
            .num("end_ns", s.end_ns as f64)
            .render();
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let t = Instant::now();
        let mut log = SpanLog::new(t, 0, false);
        assert_eq!(log.record("x", 0, 0, t, t), 0);
        assert_eq!(log.reserve(), 0);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn children_link_to_reserved_parent() {
        let t = Instant::now();
        let mut log = SpanLog::new(t, 3, true);
        let root = log.reserve();
        let child = log.record("post", root, frame_key(1, 7), t, t);
        log.record_reserved(root, "frame", frame_key(1, 7), t, t);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        assert_eq!(spans[0].id, child);
        assert_eq!(root >> 40, 3, "ids are namespaced per thread");
        assert_eq!(spans[1].frame, (1 << 32) | 7);
    }
}
