//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the library itself is not instrumented): name, start, end, parent span,
//! and the request (cell) id, plus the function index and spill round the
//! span belongs to. Each worker thread owns one [`Recorder`]; recorders are
//! merged and written out once, when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer boundary, e.g. `regalloc.build`.
    pub name: &'static str,
    /// The request (cell) the span served.
    pub req: u64,
    /// The function index within the request's program.
    pub func: u32,
    /// The spill round (1-based; 0 when the span is not per round).
    pub round: u32,
    /// Instructions in the body the span worked on (0 when not sized).
    pub size: u64,
    /// The enclosing span's index in the merged list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Where a span sits: its request, function, round, and parent.
#[derive(Debug, Clone, Copy)]
pub struct At {
    /// The request id.
    pub req: u64,
    /// The function index.
    pub func: u32,
    /// The spill round (0 = not per round).
    pub round: u32,
    /// Instructions in the body worked on (0 = not sized).
    pub size: u64,
    /// The parent span's id (from [`Recorder::open`]).
    pub parent: Option<usize>,
}

impl At {
    /// The same place with another round.
    pub fn round(self, round: u32) -> Self {
        At { round, ..self }
    }

    /// The same place, sized by `body`'s instruction count.
    pub fn size_of(self, body: &ccra_ir::Function) -> Self {
        At {
            size: body.num_insts() as u64,
            ..self
        }
    }

    /// The same place, nested under `parent`.
    pub fn under(self, parent: usize) -> Self {
        At {
            parent: Some(parent),
            ..self
        }
    }
}

/// One thread's span buffer plus the counts recorded at the same
/// boundaries.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// The recorded spans; a span's id is its index here.
    pub spans: Vec<Span>,
    /// Counts keyed by metric name, summed over the run.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// An empty recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, at: At) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: at.req,
            func: at.func,
            round: at.round,
            size: at.size,
            parent: at.parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, at);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `v` to the count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Appends `other`'s spans and counts, re-basing its parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            self.add(k, v);
        }
    }

    /// The count `name` (0 when never recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds of every span named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Seconds of every span named `name` minus the time its direct
    /// children cover (children never overlap: one thread records them
    /// in sequence).
    pub fn self_time(&self, name: &str) -> f64 {
        let mut child_secs: HashMap<usize, f64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_secs.entry(p).or_insert(0.0) += s.secs();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.secs() - child_secs.get(&i).copied().unwrap_or(0.0))
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"func\":{},\"round\":{},\"size\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.func, s.round, s.size, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let at = At {
            req: 1,
            func: 0,
            round: 0,
            size: 0,
            parent: None,
        };
        let mut a = Recorder::new(epoch);
        let outer = a.open("outer", at);
        a.time("inner", at.under(outer), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        a.close(outer);
        a.add("n", 2.0);
        let mut b = Recorder::new(epoch);
        b.absorb(Recorder::new(epoch));
        b.time("x", at, || ());
        b.absorb(a);
        assert_eq!(b.spans[2].parent, Some(1), "parent links are re-based");
        assert!(b.busy("outer") >= b.busy("inner"));
        let self_s = b.self_time("outer");
        assert!((0.0..b.busy("inner")).contains(&self_s));
        assert_eq!(b.count("n"), 2.0);
    }
}
