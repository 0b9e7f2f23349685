//! What every workload shares: the run context, the result shape, the
//! seeded RNG, the program corpus, and the metric helpers.

use crate::procfs;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// Workload seed: inputs, orders and streams derive from it.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed their output check.
    pub failed: u64,
    /// End-to-end metrics (untraced phase).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Human-readable facts about the run, printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub tracer: Option<Tracer>,
}

/// SplitMix64: the benchmark's own seeded generator, so orders and
/// streams never depend on the crates' RNGs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label (different labels give
    /// unrelated sequences for one seed).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).expect("index fits usize")
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// One checked-in program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Workload name or pin file name.
    pub name: String,
    /// Source text.
    pub source: String,
    /// True for the `fpa-workloads` sources, false for fuzz pins.
    pub is_workload: bool,
}

/// The fuzz pins: `fuzz/corpus/*.zc` then `fuzz/corpus/coverage/*.zc`,
/// each directory in name order.
///
/// # Errors
///
/// A missing corpus or a pin the corpus loader rejects.
pub fn load_pins(root: &Path) -> Result<Vec<Program>, String> {
    let mut out = Vec::new();
    for dir in ["fuzz/corpus", "fuzz/corpus/coverage"] {
        let dir = root.join(dir);
        let paths = fpa_fuzz::corpus::list(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for path in paths {
            let pin = fpa_fuzz::corpus::load(&path).map_err(|e| e.to_string())?;
            out.push(Program {
                name: path
                    .file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
                source: pin.text,
                is_workload: false,
            });
        }
    }
    if out.is_empty() {
        return Err(format!(
            "no fuzz pins under {}",
            root.join("fuzz/corpus").display()
        ));
    }
    Ok(out)
}

/// The ten `fpa-workloads` sources followed by the fuzz pins.
///
/// # Errors
///
/// See [`load_pins`].
pub fn load_programs(root: &Path) -> Result<Vec<Program>, String> {
    let mut out: Vec<Program> = fpa_workloads::all()
        .into_iter()
        .map(|w| Program {
            name: w.name,
            source: w.source,
            is_workload: true,
        })
        .collect();
    out.extend(load_pins(root)?);
    Ok(out)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Whether a run that has spent `busy` of its `seconds` on whole passes,
/// the last taking `last`, starts another: only while at least half a
/// pass still fits, so the pass count (and the run length) does not
/// flip between runs of one configuration.
#[must_use]
pub fn another_pass(busy: f64, last: Option<f64>, seconds: f64) -> bool {
    last.is_none_or(|d| busy + d / 2.0 < seconds)
}

/// Runs `setup` `reps` times and returns the median duration in seconds
/// with the last repetition's product.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = setup();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (
        crate::stats::median(&secs),
        last.expect("at least one set-up repetition"),
    )
}

/// Per-op latency metrics in milliseconds: the median and the p99, each
/// only when the rule of [`crate::stats::tail_percentile`] allows it.
#[must_use]
pub fn latency_metrics(latencies_ms: &mut [f64]) -> Vec<Metric> {
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
    let mut out = Vec::new();
    if let Some(p50) = crate::stats::tail_percentile(latencies_ms, 0.50) {
        out.push(metric("op_p50_ms", p50, "ms"));
    }
    if let Some(p99) = crate::stats::tail_percentile(latencies_ms, 0.99) {
        out.push(metric("op_p99_ms", p99, "ms"));
    }
    out
}

/// `peak_rss_mib`, when `/proc` has it.
#[must_use]
pub fn peak_rss() -> Vec<Metric> {
    procfs::peak_rss_mib()
        .map(|v| metric("peak_rss_mib", v, "MiB"))
        .into_iter()
        .collect()
}

/// The `proc.*` layer metrics of a timed phase of `ops` ops.
#[must_use]
pub fn proc_metrics(delta: Option<procfs::Delta>, ops: u64) -> Vec<Metric> {
    let Some(d) = delta else {
        return Vec::new();
    };
    #[allow(clippy::cast_precision_loss)]
    let mut out = vec![
        metric("proc.sys_share", d.sys_share, "ratio"),
        metric(
            "proc.minflt_per_op",
            d.minflt as f64 / ops.max(1) as f64,
            "count",
        ),
    ];
    if let Some(ms) = d.runq_ms {
        out.push(metric("proc.runq_wait_ms", ms, "ms"));
    }
    out
}

/// Mean nanoseconds per op, in milliseconds.
#[must_use]
pub fn ms_per_op(ns: u64, ops: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let v = ns as f64 / 1e6 / ops.max(1) as f64;
    v
}

/// `(traced / untraced - 1)` in percent: what recording spans (and the
/// traced replica's own call structure) cost per op.
#[must_use]
pub fn overhead_pct(traced_ms_per_op: f64, untraced_ms_per_op: f64) -> Metric {
    metric(
        "trace.overhead_pct",
        (traced_ms_per_op / untraced_ms_per_op - 1.0) * 100.0,
        "%",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = Rng::new(7, 1).permutation(50);
        assert_eq!(a, Rng::new(7, 1).permutation(50));
        assert_ne!(a, Rng::new(8, 1).permutation(50));
        assert_ne!(a, Rng::new(7, 2).permutation(50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn passes_continue_while_half_a_pass_fits() {
        assert!(another_pass(0.0, None, 10.0));
        assert!(another_pass(4.0, Some(4.0), 10.0));
        assert!(!another_pass(8.0, Some(4.0), 10.0));
        assert!(!another_pass(9.0, Some(9.0), 10.0));
    }

    #[test]
    fn latency_metrics_follow_the_tail_rule() {
        let mut few: Vec<f64> = (0..500).map(f64::from).collect();
        let names: Vec<&str> = latency_metrics(&mut few).iter().map(|m| m.name).collect();
        assert_eq!(names, ["op_p50_ms"]);
        let mut many: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let m = latency_metrics(&mut many);
        assert_eq!(m[1], metric("op_p99_ms", 989.0, "ms"));
    }
}
