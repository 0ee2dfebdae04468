//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the calls the benchmark makes into
//! each layer; they are kept in memory and written out when the run
//! ends. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `stc.compile`; the layer is the part
    /// before the first dot (`op` spans belong to the benchmark itself).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation every span of one request shares.
    pub op: u64,
}

impl Span {
    /// The layer this span's time is attributed to.
    pub fn layer(&self) -> &'static str {
        match self.name.split('.').next() {
            Some("op") | None => "bench",
            Some(layer) => layer,
        }
    }
}

/// Records nested spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self
            .open
            .pop()
            .expect("Tracer::end without a matching begin");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    /// Every closed or open span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer in nanoseconds over the spans `keep`
    /// selects: each span's duration minus the part its child spans cover.
    pub fn self_ns_by_layer(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if !keep(s) {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *by_layer.entry(s.layer()).or_insert(0) += own;
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "stc.compile",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "core.call",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                op: 1,
            },
        ];
        let by = t.self_ns_by_layer(|_| true);
        assert_eq!(by["bench"], 30);
        assert_eq!(by["stc"], 40);
        assert_eq!(by["core"], 30);
    }

    #[test]
    fn nesting_and_disabled() {
        let mut t = Tracer::new(true);
        t.span("op", 7, || ());
        t.begin("op", 8);
        t.begin("vm.session", 8);
        t.end();
        t.end();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[2].op, 8);
        let mut off = Tracer::new(false);
        off.begin("op", 1);
        off.end();
        assert!(off.spans().is_empty());
    }
}
