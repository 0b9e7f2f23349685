//! `compile`: cold `Compiler::build_suite` of every checked-in program
//! (the `fpa-workloads` sources and the fuzz pins), one thread, a fresh
//! seeded order per pass; op = one suite.

use crate::common::{
    latency_metrics, load_programs, metric, ms_per_op, overhead_pct, peak_rss, proc_metrics,
    repeated_setup, Ctx, Metric, Outcome, Program, Rng, SETUP_REPS,
};
use crate::procfs::{Counters, Delta};
use crate::replica;
use crate::trace::Tracer;
use fpa_harness::experiments::FUNC_FUEL;
use fpa_harness::{CompiledWorkload, Compiler, SuiteArtifacts};
use fpa_partition::CostParams;
use std::hint::black_box;
use std::time::Instant;

fn build(p: &Program) -> Option<SuiteArtifacts> {
    Compiler::new(&p.source).build_suite().ok()
}

fn same_programs(a: &SuiteArtifacts, b: &SuiteArtifacts) -> bool {
    (&a.conventional, &a.basic, &a.advanced, &a.optimal)
        == (&b.conventional, &b.basic, &b.advanced, &b.optimal)
}

/// Runs the workload.
///
/// # Errors
///
/// The corpus could not be loaded.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    fpa_harness::set_ambient(None);
    // Set-up: read the sources and make one full warm-up pass. The last
    // pass's suites are the reference every timed build must reproduce.
    let (setup_s, loaded) = repeated_setup(SETUP_REPS, || {
        load_programs(&ctx.root).map(|programs| {
            let suites: Vec<Option<SuiteArtifacts>> = programs.iter().map(build).collect();
            (programs, suites)
        })
    });
    let (programs, reference) = loaded?;

    // Output check, outside the timed ops: every scheme's binary must
    // reproduce the golden interpreter run.
    let good: Vec<bool> = programs
        .iter()
        .zip(&reference)
        .map(|(p, s)| {
            s.as_ref().is_some_and(|s| {
                CompiledWorkload::from_suite(&p.name, s.clone())
                    .check(FUNC_FUEL)
                    .is_ok()
            })
        })
        .collect();

    let mut rng = Rng::new(ctx.seed, 0xc0);
    let mut latencies = Vec::new();
    let mut pass_rates = Vec::new();
    let (mut attempted, mut failed, mut busy) = (0u64, 0u64, 0.0f64);
    let before = Counters::read();
    while busy < ctx.seconds {
        let mut pass = 0.0;
        for i in rng.permutation(programs.len()) {
            let t = Instant::now();
            let suite = black_box(build(&programs[i]));
            let dt = t.elapsed().as_secs_f64();
            pass += dt;
            latencies.push(dt * 1e3);
            attempted += 1;
            let ok = good[i]
                && matches!((&suite, &reference[i]), (Some(a), Some(b)) if same_programs(a, b));
            failed += u64::from(!ok);
        }
        busy += pass;
        #[allow(clippy::cast_precision_loss)]
        pass_rates.push(programs.len() as f64 / pass);
    }
    let delta = Delta::between(before, Counters::read());
    #[allow(clippy::cast_precision_loss)]
    let untraced_ms_per_op = busy * 1e3 / attempted as f64;

    let workloads = programs.iter().filter(|p| p.is_workload).count();
    let mut out = Outcome {
        attempted,
        failed,
        notes: vec![format!(
            "compile: {} programs ({workloads} workloads, {} pins), {} suites timed",
            programs.len(),
            programs.len() - workloads,
            attempted
        )],
        ..Outcome::default()
    };
    #[allow(clippy::cast_precision_loss)]
    out.end_to_end.extend([
        metric("setup_s", setup_s, "s"),
        // Every pass builds the same programs, so per-pass throughput is
        // one distribution; its median shrugs off a slow stretch of host.
        metric("ops_per_s", crate::stats::median(&pass_rates), "1/s"),
    ]);
    out.end_to_end.extend(latency_metrics(&mut latencies));
    out.end_to_end.extend(crate::simcost::speedups(
        programs
            .iter()
            .zip(&reference)
            .filter(|(p, _)| !p.is_workload)
            .filter_map(|(_, s)| s.as_ref()),
    )?);
    out.end_to_end.extend(peak_rss());

    if ctx.trace {
        let mut t = Tracer::new();
        let order = Rng::new(ctx.seed, 0xc1).permutation(programs.len());
        for i in order {
            t.set_op(i as u64);
            let suite = t.span("suite", |t| {
                replica::build_suite(t, &programs[i].source, &CostParams::default())
            });
            let ok =
                matches!((&suite, &reference[i]), (Ok(a), Some(b)) if replica::same_suite(a, b));
            if !ok {
                out.failed += 1;
                out.notes
                    .push(format!("compile replica diverged on {}", programs[i].name));
            }
        }
        out.per_layer = layer_metrics(&t, programs.len() as u64);
        out.per_layer.extend(interp_shares(&t, &programs));
        out.per_layer.push(overhead_pct(
            ms_per_op(t.root_ns("suite"), programs.len() as u64),
            untraced_ms_per_op,
        ));
        out.per_layer.extend(proc_metrics(delta, attempted));
        out.tracer = Some(t);
    }
    Ok(out)
}

/// Compile-layer metrics of a replica trace over `ops` ops.
pub fn layer_metrics(t: &Tracer, ops: u64) -> Vec<Metric> {
    let by_name = t.self_ns_by_name();
    let self_ms = |name: &str| ms_per_op(by_name.get(name).copied().unwrap_or(0), ops);
    let interp_ns = by_name.get("ir.interp").copied().unwrap_or(0);
    let interp_insts = t.counter("ir.interp.insts");
    #[allow(clippy::cast_precision_loss)]
    let out = vec![
        metric("frontend.self_ms", self_ms("frontend"), "ms"),
        metric("ir.opt.self_ms", self_ms("ir.opt"), "ms"),
        metric("ir.opt.insts", t.counter("ir.opt.insts") as f64, "count"),
        metric("ir.interp.self_ms", self_ms("ir.interp"), "ms"),
        metric("ir.interp.insts", interp_insts as f64, "count"),
        metric(
            "ir.interp.ns_per_inst",
            interp_ns as f64 / interp_insts.max(1) as f64,
            "ns",
        ),
        metric("partition.basic.self_ms", self_ms("partition.basic"), "ms"),
        metric(
            "partition.advanced.self_ms",
            self_ms("partition.advanced"),
            "ms",
        ),
        metric(
            "partition.optimal.self_ms",
            self_ms("partition.optimal"),
            "ms",
        ),
        metric(
            "partition.copies",
            t.counter("partition.copies") as f64,
            "count",
        ),
        metric("codegen.self_ms", self_ms("codegen"), "ms"),
        metric(
            "codegen.static_insts",
            t.counter("codegen.static_insts") as f64,
            "count",
        ),
    ];
    out
}

/// The interpreter's share of compile time, split by program kind: the
/// workloads spend most of their compile in it, the pins almost none.
/// Op ids index `programs`.
fn interp_shares(t: &Tracer, programs: &[Program]) -> Vec<Metric> {
    let is_workload = |op: u64| {
        usize::try_from(op)
            .ok()
            .and_then(|i| programs.get(i))
            .is_some_and(|p| p.is_workload)
    };
    let mut out = Vec::new();
    for (name, keep) in [
        ("ir.interp.share_workloads_pct", true),
        ("ir.interp.share_pins_pct", false),
    ] {
        let total = t.root_ns_for("suite", |op| is_workload(op) == keep);
        let interp = t
            .self_ns_by_name_for(|op| is_workload(op) == keep)
            .get("ir.interp")
            .copied()
            .unwrap_or(0);
        if total > 0 {
            #[allow(clippy::cast_precision_loss)]
            out.push(metric(name, interp as f64 / total as f64 * 100.0, "%"));
        }
    }
    out
}
