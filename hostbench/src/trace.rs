//! Spans recorded around the benchmark's calls into each layer. They are
//! kept in memory and written out when the run ends.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `work` counts what the call processed (instructions
/// for `pipeline.run` and `isa.advance`), 0 otherwise.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub work: u64,
}

/// Span recorder. When off, `begin`/`end` do nothing, so untraced ops
/// run the same code without recording.
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Attribute the spans that follow to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            work: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        self.end_with(open, 0);
    }

    pub fn end_with(&mut self, open: Open, work: u64) {
        if let Some(id) = open.0 {
            let now = self.now();
            let span = &mut self.spans[id];
            span.end_ns = now;
            span.work = work;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.work
            )?;
        }
        out.flush()
    }
}

/// Totals per span name over a set of spans.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
    /// Name of the root span the calls sit under.
    pub root: &'static str,
}

impl Layer {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

/// Per-name totals and self times of `spans`, plus the summed length of
/// the root spans of each root name.
pub fn layers(spans: &[Span]) -> (BTreeMap<&'static str, Layer>, BTreeMap<&'static str, u64>) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut roots: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, (s, kids)) in spans.iter().zip(&children).enumerate() {
        let root = spans[root_of(spans, i)].name;
        let l = by_name.entry(s.name).or_insert(Layer {
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            work: 0,
            root,
        });
        l.calls += 1;
        l.total_ns += s.end_ns - s.start_ns;
        l.self_ns += self_time(s.start_ns, s.end_ns, kids);
        l.work += s.work;
        if s.parent.is_none() {
            *roots.entry(s.name).or_default() += s.end_ns - s.start_ns;
        }
    }
    (by_name, roots)
}

/// The root span that `id` descends from.
fn root_of(spans: &[Span], mut id: usize) -> usize {
    while let Some(p) = spans[id].parent {
        id = p;
    }
    id
}
