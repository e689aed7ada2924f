//! In-memory span recorder for the traced run.
//!
//! A span brackets one public call into one layer (a workspace crate):
//! name, layer, start, end, parent span and the op it belongs to. Spans
//! stay in memory and are written out once, when the run ends. A
//! layer's *self time* is its spans' durations minus the part covered
//! by their child spans.

use std::io::Write as _;
use std::time::Instant;

/// The layers a span can be charged to: the workspace crates the
/// benchmark calls into, plus the benchmark's own harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code between layer calls (op roots).
    Harness,
    /// `dsa-workloads`: building inputs, writing them, checking outputs.
    Workloads,
    /// `dsa-compiler`: lowering loop IR to a program.
    Compiler,
    /// `dsa-cpu`: predecode and hook-free (superblock) simulation,
    /// including the timing replay and the `dsa-mem` cache model.
    Cpu,
    /// `dsa-core`: DSA-attached simulation, oracle, snapshot, restore.
    Core,
    /// `dsa-energy`: the energy model.
    Energy,
    /// `dsa-bench`: the forge harness's supervised call.
    Bench,
    /// `dsa-serve`: submit and wait for a served job.
    Serve,
}

impl Layer {
    /// Every layer that reports a self-time fraction.
    pub const REPORTED: [Layer; 7] = [
        Layer::Workloads,
        Layer::Compiler,
        Layer::Cpu,
        Layer::Core,
        Layer::Energy,
        Layer::Bench,
        Layer::Serve,
    ];

    /// Metric-name spelling.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Workloads => "workloads",
            Layer::Compiler => "compiler",
            Layer::Cpu => "cpu",
            Layer::Core => "core",
            Layer::Energy => "energy",
            Layer::Bench => "bench",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call name, e.g. `run_with_hook`.
    pub name: &'static str,
    /// Layer the call belongs to.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u64,
    /// Whether the span lies inside an op root (set-up work traced
    /// outside the ops, such as a grid op's build, does not).
    pub in_op: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before the matching [`Spans::exit`]
    /// become its children.
    pub fn enter(&mut self, layer: Layer, name: &'static str) -> usize {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let in_op = parent.map_or(layer == Layer::Harness, |p| self.spans[p].in_op);
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            op: self.op,
            in_op,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, idx: usize) {
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.pop();
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let idx = self.enter(layer, name);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// Runs `f` as a leaf span.
    pub fn leaf<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(layer, name, |_| f())
    }

    /// Tags the spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs one op: a harness root span tagged with op id `op`.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.op = op;
        self.span(Layer::Harness, "op", f)
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration of the spans named `name`, in ms (0 when none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, ns) = self
            .named(name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.ns()));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e6
        }
    }

    /// Duration of the most recent span named `name`, in seconds.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.ns() as f64 / 1e9)
    }

    /// Total time of the op root spans, ns.
    pub fn op_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == "op")
            .map(Span::ns)
            .sum()
    }

    /// Self time per layer inside op roots, ns: each span's duration
    /// minus its direct children's (children run inside their parent,
    /// one at a time).
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.in_op && s.layer == layer)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"in_op\":{}}}",
                s.name,
                s.layer.name(),
                s.start,
                s.end,
                s.op,
                s.in_op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.op(7, |s| {
            s.span(Layer::Core, "outer", |s| {
                s.leaf(Layer::Cpu, "inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let all = spans.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert!(all.iter().all(|s| s.op == 7));
        let core = spans.self_ns(Layer::Core);
        let cpu = spans.self_ns(Layer::Cpu);
        assert!(cpu >= 2_000_000, "inner slept 2 ms: {cpu}");
        assert!(
            core < cpu,
            "outer's self time excludes the child: {core} vs {cpu}"
        );
        let total: u64 = [Layer::Harness, Layer::Core, Layer::Cpu]
            .iter()
            .map(|l| spans.self_ns(*l))
            .sum();
        assert_eq!(total, spans.op_ns(), "self times partition the op");
    }
}
