//! Simulator measurements several workloads share: the simulated
//! speed-up of the advanced scheme over a set of suites, the
//! simulator's fixed per-run cost, and the simulator-layer metrics of a
//! trace.

use crate::common::{metric, ms_per_op, Metric};
use crate::trace::Tracer;
use fpa_harness::experiments::TIMING_FUEL;
use fpa_harness::{Compiler, SuiteArtifacts, WidthPreset};
use std::time::Instant;

/// `speedup4_pct` and `speedup8_pct`: the geometric-mean speed-up of the
/// advanced binary (on the augmented machine) over the conventional
/// one (on the unaugmented machine), over `suites` — the same pairing
/// Figures 9 and 10 use.
///
/// # Errors
///
/// A simulation fault, rendered.
pub fn speedups<'a>(
    suites: impl IntoIterator<Item = &'a SuiteArtifacts>,
) -> Result<Vec<Metric>, String> {
    let (mut four, mut eight) = (Vec::new(), Vec::new());
    for s in suites {
        for (width, out) in [
            (WidthPreset::FourWay, &mut four),
            (WidthPreset::EightWay, &mut eight),
        ] {
            let cycles = |p, augmented| {
                fpa_sim::simulate(p, &width.config(augmented), TIMING_FUEL)
                    .map(|r| r.cycles)
                    .map_err(|e| e.to_string())
            };
            let conv = cycles(&s.conventional, false)?;
            let adv = cycles(&s.advanced, true)?;
            #[allow(clippy::cast_precision_loss)]
            out.push((conv as f64 / adv as f64 - 1.0) * 100.0);
        }
    }
    if four.is_empty() {
        return Err("no suites to simulate".into());
    }
    Ok(vec![
        metric(
            "speedup4_pct",
            crate::stats::geomean_speedup_pct(&four),
            "%",
        ),
        metric(
            "speedup8_pct",
            crate::stats::geomean_speedup_pct(&eight),
            "%",
        ),
    ])
}

/// The smallest program: `main` returns at once. Its binary is five
/// instructions (entry stub plus `main`), so one run is all per-run
/// set-up.
const TINY: &str = "int main() { return 0; }";

/// Host time of one timing run and of one functional run of [`TINY`],
/// in microseconds (median of many).
///
/// # Panics
///
/// Panics if the tiny program fails to build or run: that is a broken
/// toolchain, not a measurement.
#[must_use]
pub fn fixed_cost_us() -> (f64, f64) {
    const RUNS: usize = 2000;
    let suite = Compiler::new(TINY)
        .build_suite()
        .expect("tiny program builds");
    let p = &suite.advanced;
    let cfg = WidthPreset::FourWay.config(true);
    let time = |f: &dyn Fn()| {
        for _ in 0..RUNS / 10 {
            f();
        }
        let samples: Vec<f64> = (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        crate::stats::median(&samples)
    };
    let timing = time(&|| {
        std::hint::black_box(fpa_sim::simulate(p, &cfg, TIMING_FUEL).expect("tiny run"));
    });
    let functional = time(&|| {
        std::hint::black_box(fpa_sim::run_functional(p, TIMING_FUEL).expect("tiny run"));
    });
    (timing, functional)
}

/// Simulator-layer metrics of a trace with `sim.timing` /
/// `sim.functional` spans over `ops` ops, plus the fixed per-run costs.
pub fn layer_metrics(t: &Tracer, ops: u64, functional_minflt: u64) -> Vec<Metric> {
    let by_name = t.self_ns_by_name();
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0);
    let cycles = t.counter("sim.timing.cycles");
    let (timing_us, functional_us) = fixed_cost_us();
    #[allow(clippy::cast_precision_loss)]
    let out = vec![
        metric("sim.timing.self_ms", ms_per_op(ns("sim.timing"), ops), "ms"),
        metric("sim.timing.cycles", cycles as f64, "count"),
        metric(
            "sim.timing.ns_per_cycle",
            ns("sim.timing") as f64 / cycles.max(1) as f64,
            "ns",
        ),
        metric("sim.timing.fixed_us", timing_us, "us"),
        metric(
            "sim.functional.self_ms",
            ms_per_op(ns("sim.functional"), ops),
            "ms",
        ),
        metric(
            "sim.functional.insts",
            t.counter("sim.functional.insts") as f64,
            "count",
        ),
        metric("sim.functional.fixed_us", functional_us, "us"),
        metric("sim.functional.minflt", functional_minflt as f64, "count"),
    ];
    out
}
