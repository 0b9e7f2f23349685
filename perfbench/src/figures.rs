//! `figures`: the paper's reproduction path — `ExperimentContext::new`
//! over the integer workloads at `jobs = 1`, then `matrix()`, the cells
//! behind Figures 8–10 and §7.2; op = one cell.

use crate::common::{
    another_pass, metric, ms_per_op, overhead_pct, peak_rss, proc_metrics, repeated_setup, Ctx,
    Metric, Outcome, SETUP_REPS,
};
use crate::procfs::{self, Counters, Delta};
use crate::trace::Tracer;
use fpa_harness::experiments::{FUNC_FUEL, TIMING_FUEL};
use fpa_harness::{
    run_cells, CellId, CellMode, CellSpec, ExperimentContext, MatrixReport, Scheme, StageTimings,
    StoreOutcome, WidthPreset,
};
use fpa_partition::CostParams;
use std::time::Instant;

/// The checked-in golden the normalized matrix must equal.
const GOLDEN: &str = "crates/harness/tests/golden/matrix_stats.json";

/// `golden_stats.rs`'s normalization: wall-clock and store fields zeroed.
fn normalized(mut m: MatrixReport) -> MatrixReport {
    m.jobs = 0;
    m.build_seconds = 0.0;
    m.matrix_seconds = 0.0;
    m.frontend_runs = 0;
    m.store_hits = 0;
    m.store_misses = 0;
    m.store_coalesced = 0;
    for t in &mut m.telemetry {
        t.timings = StageTimings::default();
        t.sim_seconds = 0.0;
        t.store = StoreOutcome::Disabled;
    }
    m
}

/// The ten cells of one workload's matrix block, in the order and modes
/// `ExperimentContext::matrix` runs them (see `workload_specs` in
/// `crates/harness/src/engine.rs`).
fn workload_specs(name: &str) -> Vec<CellSpec> {
    let id = |scheme, width| CellId::new(name.to_string(), scheme, width);
    let t = |scheme, width| CellSpec::new(id(scheme, width), CellMode::Timing, TIMING_FUEL);
    let f = |scheme| {
        CellSpec::new(
            id(scheme, WidthPreset::FourWay),
            CellMode::Functional,
            FUNC_FUEL,
        )
    };
    vec![
        t(Scheme::Conventional, WidthPreset::EightWay),
        t(Scheme::Basic, WidthPreset::EightWay),
        t(Scheme::Advanced, WidthPreset::EightWay),
        t(Scheme::Conventional, WidthPreset::FourWay),
        t(Scheme::Basic, WidthPreset::FourWay),
        CellSpec::new(
            id(Scheme::Advanced, WidthPreset::FourWay),
            CellMode::TimingObserved,
            TIMING_FUEL,
        ),
        CellSpec {
            augmented: Some(true),
            ..t(Scheme::Conventional, WidthPreset::FourWay)
        },
        f(Scheme::Basic),
        f(Scheme::Advanced),
        f(Scheme::Conventional),
    ]
}

fn matrix_speedups(m: &MatrixReport) -> [Metric; 2] {
    let gm = |rows: &[fpa_harness::SpeedupRow]| {
        crate::stats::geomean_speedup_pct(&rows.iter().map(|r| r.advanced_pct).collect::<Vec<_>>())
    };
    [
        metric("speedup4_pct", gm(&m.fig9), "%"),
        metric("speedup8_pct", gm(&m.fig10), "%"),
    ]
}

/// Runs the workload.
///
/// # Errors
///
/// A workload failed to build, or the golden file is unreadable.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    fpa_harness::set_ambient(None);
    let golden =
        std::fs::read_to_string(ctx.root.join(GOLDEN)).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let set = fpa_workloads::integer();
    let (setup_s, built) = repeated_setup(SETUP_REPS, || {
        ExperimentContext::new(&set, &CostParams::default(), 1)
    });
    let exp = built.map_err(|e| e.to_string())?;
    let cells_per_pass = 10 * set.len() as u64;

    // Whole matrices only: a partial matrix would change the cell mix
    // from run to run. Throughput is the median over passes.
    let (mut attempted, mut failed, mut busy) = (0u64, 0u64, 0.0f64);
    let mut speedup = None;
    let mut pass_secs = Vec::new();
    let before = Counters::read();
    while another_pass(busy, pass_secs.last().copied(), ctx.seconds) {
        let t = Instant::now();
        let m = exp.matrix();
        let dt = t.elapsed().as_secs_f64();
        busy += dt;
        pass_secs.push(dt);
        attempted += cells_per_pass;
        match m {
            Ok(m) => {
                speedup.get_or_insert_with(|| matrix_speedups(&m));
                if normalized(m).to_json().render() != golden {
                    failed += cells_per_pass;
                }
            }
            Err(_) => failed += cells_per_pass,
        }
    }
    let delta = Delta::between(before, Counters::read());
    let passes = pass_secs.len();

    let mut out = Outcome {
        attempted,
        failed,
        notes: vec![format!(
            "figures: {} workloads, {passes} matrix pass(es) of {cells_per_pass} cells in {busy:.3} s",
            set.len()
        )],
        ..Outcome::default()
    };
    #[allow(clippy::cast_precision_loss)]
    let ms_per_cell = crate::stats::median(&pass_secs) * 1e3 / cells_per_pass as f64;
    out.end_to_end.extend([
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", 1e3 / ms_per_cell, "1/s"),
        // Cells are heterogeneous (0.1 ms functional runs to 1 s timing
        // runs) and a run holds only ~80 of them: a cell-latency median
        // falls between clusters and no p99 has 10 samples beyond it.
        // Both report the mean cell latency (of the median pass) instead.
        metric("op_p50_ms", ms_per_cell, "ms"),
        metric("op_p99_ms", ms_per_cell, "ms"),
    ]);
    match speedup {
        Some(s) => out.end_to_end.extend(s),
        None => return Err("no matrix pass succeeded".into()),
    }
    out.end_to_end.extend(peak_rss());

    if ctx.trace {
        let mut t = Tracer::new();
        let mut cycles = 0u64;
        let mut insts = 0u64;
        let mut minflt = 0u64;
        let specs: Vec<CellSpec> = set.iter().flat_map(|w| workload_specs(&w.name)).collect();
        for (i, spec) in specs.iter().enumerate() {
            t.set_op(i as u64);
            let name = match spec.mode {
                CellMode::Functional => "sim.functional",
                _ => "sim.timing",
            };
            let faults = procfs::minflt();
            let r = t.span(name, |_| {
                run_cells(exp.compiled(), std::slice::from_ref(spec), 1)
            });
            let Ok(mut r) = r else {
                out.failed += 1;
                continue;
            };
            let r = r.pop().expect("one cell");
            if let Some(f) = r.payload.functional() {
                insts += f.total;
                if let (Some(a), Some(b)) = (faults, procfs::minflt()) {
                    minflt += b - a;
                }
            } else if let Some(tr) = r.payload.timing() {
                cycles += tr.cycles;
            }
        }
        t.count("sim.timing.cycles", cycles);
        t.count("sim.functional.insts", insts);
        out.per_layer = crate::simcost::layer_metrics(&t, specs.len() as u64, minflt);
        let traced_ns = t.root_ns("sim.timing") + t.root_ns("sim.functional");
        out.per_layer.push(overhead_pct(
            ms_per_op(traced_ns, specs.len() as u64),
            ms_per_cell,
        ));
        out.per_layer.extend(proc_metrics(delta, attempted));
        out.tracer = Some(t);
    }
    Ok(out)
}
