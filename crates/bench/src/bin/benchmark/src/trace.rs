//! In-memory span recorder. Spans are recorded from this package's own
//! files, around the calls into each layer; they are written out as JSON
//! lines when the run ends. Spans inside the engine are ROADMAP item 1 and
//! will replace the staged replay under the same metric names.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<stage>`; layer names are the engine's module names.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by all spans of one request.
    pub query: u32,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its index for [`close`](Self::close) and for
    /// children's `parent`.
    pub fn open(&mut self, name: &'static str, parent: u32, query: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, query });
        (self.spans.len() - 1) as u32
    }

    /// End a span started with [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Record a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        query: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        out
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent_and_share_its_query() {
        let mut rec = Recorder::new();
        let root = rec.open("query", NO_PARENT, 7);
        let x = rec.time("core.traverse", root, 7, || 41 + 1);
        rec.close(root);
        assert_eq!(x, 42);
        let [parent, child] = rec.spans() else { panic!("two spans") };
        assert_eq!((child.parent, child.query), (root, 7));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(rec.total_ns("core.traverse"), child.end_ns - child.start_ns);
    }
}
