//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around every call it makes into a
//! layer's public function: name, start, end, parent span, and the op it
//! belongs to. Spans stay in memory until the run ends; [`Tracer::write`]
//! then dumps them, and [`self_times`] reduces them to per-layer self
//! time (a span's duration minus the part of it its children cover).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`frontend`, `sim.timing`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (suite, cell, request, case) the call served.
    pub op: u64,
}

/// Span and count recorder for one thread of work.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Tags every span opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let r = f(self);
        let end = self.now();
        self.open.pop();
        self.spans[idx].end = end;
        r
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The counter `name` (0 if never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed per span name, in nanoseconds.
    #[must_use]
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        self.self_ns_by_name_for(|_| true)
    }

    /// Self time summed per span name over the spans of the ops `keep`
    /// accepts, in nanoseconds.
    #[must_use]
    pub fn self_ns_by_name_for(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            if keep(span.op) {
                *out.entry(span.name).or_default() += own;
            }
        }
        out
    }

    /// Total duration of the root spans (no parent) named `name`.
    #[must_use]
    pub fn root_ns(&self, name: &str) -> u64 {
        self.root_ns_for(name, |_| true)
    }

    /// [`Tracer::root_ns`] over the ops `keep` accepts.
    #[must_use]
    pub fn root_ns_for(&self, name: &str, keep: impl Fn(u64) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name && keep(s.op))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes one tab-separated line per span (`op name parent start_ns
    /// end_ns`, parent `-` for a root) followed by the counters.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start, s.end
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(out, "# count\t{name}\t{n}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a.inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn sibling_children_are_summed_and_overlaps_counted_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            // Overlaps `b` and runs past the parent's end.
            span("c", 60, 120, Some(0)),
        ];
        // Covered: [10,30) + [40,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_spans_and_reduces_by_name() {
        let mut t = Tracer::new();
        t.set_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(0));
            t.span("inner", |_| std::hint::black_box(0));
        });
        t.count("things", 3);
        t.count("things", 2);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].parent, s[2].parent, s[0].parent),
            (Some(0), Some(0), None)
        );
        assert!(s.iter().all(|x| x.op == 7 && x.end >= x.start));
        let by_name = t.self_ns_by_name();
        let total: u64 = by_name.values().sum();
        assert_eq!(total, t.root_ns("outer"), "self times partition the root");
        assert_eq!(t.counter("things"), 5);
        assert_eq!(t.counter("absent"), 0);
    }
}
