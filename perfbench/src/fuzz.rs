//! `fuzz`: a coverage-guided `fpa_fuzz::run_campaign` at `jobs = 1`
//! with the seed as its base seed and a case budget fixed by the run
//! length; op = one case.

use crate::common::{
    load_pins, metric, ms_per_op, overhead_pct, peak_rss, proc_metrics, repeated_setup, Ctx,
    Outcome, SETUP_REPS,
};
use crate::procfs::{self, Counters, Delta};
use crate::replica;
use crate::trace::Tracer;
use fpa_fuzz::campaign::{merge_shards, run_campaign, CampaignConfig, LineageResult};
use fpa_fuzz::oracle::{OracleStats, GENERATED_WORKLOAD, ORACLE_FUEL};
use fpa_fuzz::{GenConfig, NovelCase};
use fpa_harness::{CellId, CellMode, CellSpec, Compiler, Scheme, WidthPreset};
use fpa_partition::CostParams;
use std::time::Instant;

/// Cases per second of run length: the budget is fixed by `--seconds`,
/// so a seed always runs the same cases and only their speed varies.
const CASES_PER_SECOND: u64 = 20;
/// Evolution chains (the campaign default).
const LINEAGES: u32 = 16;
/// Novel cases the traced run re-checks.
const REPLAY: usize = 120;
/// Seed of the set-up warm-up campaign. It is the same for every run:
/// the warm-up leaves glibc's adaptive malloc thresholds in one state,
/// and a seed-dependent warm-up put some seeds' campaigns in a mode
/// without page faults and others in one with ~12k per case (2.5x
/// apart in throughput).
const WARMUP_SEED: u64 = 0x5eed;
/// Warm-up cases in set-up (one per lineage).
const WARMUP_CASES: u32 = LINEAGES;

fn config(cases: u32, seed: u64) -> CampaignConfig {
    CampaignConfig {
        cases,
        base_seed: seed,
        jobs: 1,
        shards: 1,
        shard_id: 0,
        lineages: LINEAGES,
        gen: GenConfig::default(),
        corpus_dir: None,
    }
}

/// Whether two runs of one lineage agree on everything the campaign
/// derives from it.
fn same_lineage(a: &LineageResult, b: &LineageResult) -> bool {
    a.steps == b.steps
        && a.coverage.to_json().render() == b.coverage.to_json().render()
        && a.failures.len() == b.failures.len()
        && a.novel.len() == b.novel.len()
}

/// Runs the workload.
///
/// # Errors
///
/// The run length is too long for a `u32` case budget, or the pins
/// could not be loaded for the speed-up metrics.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    fpa_harness::set_ambient(None);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let cases = u32::try_from(ctx.seconds as u64 * CASES_PER_SECOND).map_err(|e| e.to_string())?;
    // Set-up: the campaign configuration plus a one-case-per-lineage
    // warm-up campaign on an unrelated seed.
    let (setup_s, ()) = repeated_setup(SETUP_REPS, || {
        let warm = run_campaign(&config(WARMUP_CASES, WARMUP_SEED));
        std::hint::black_box(warm);
    });

    let before = Counters::read();
    let t = Instant::now();
    let shard = run_campaign(&config(cases, ctx.seed));
    let busy = t.elapsed().as_secs_f64();
    let delta = Delta::between(before, Counters::read());
    let merged = merge_shards(std::slice::from_ref(&shard)).map_err(|e| e.to_string())?;

    // Output checks: no case diverged, and one lineage re-run on its own
    // (as a shard of one) reproduces its coverage exactly — so every run
    // of this seed reports the same feature count.
    let mut failed = merged.failures.len() as u64;
    let lineage = u32::try_from(ctx.seed % u64::from(LINEAGES)).expect("lineage below 16");
    let again = run_campaign(&CampaignConfig {
        shards: LINEAGES,
        shard_id: lineage,
        ..config(cases, ctx.seed)
    });
    let original = &shard.results[lineage as usize];
    if !same_lineage(original, &again.results[0]) {
        failed += u64::from(original.steps);
    }

    let attempted = u64::from(cases);
    #[allow(clippy::cast_precision_loss)]
    let ms_per_case = busy * 1e3 / attempted as f64;
    let mut out = Outcome {
        attempted,
        failed,
        notes: vec![format!(
            "fuzz: {cases} cases over {LINEAGES} lineages in {busy:.3} s, {} coverage features, \
             {} novel cases, lineage {lineage} replayed",
            merged.coverage.len(),
            merged.novel.len()
        )],
        ..Outcome::default()
    };
    #[allow(clippy::cast_precision_loss)]
    out.end_to_end.extend([
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", attempted as f64 / busy, "1/s"),
        // A campaign runs its cases internally, so per-case latency is
        // not observable from outside: both report the mean case latency.
        metric("op_p50_ms", ms_per_case, "ms"),
        metric("op_p99_ms", ms_per_case, "ms"),
    ]);
    let pins = load_pins(&ctx.root)?;
    let suites = pins
        .iter()
        .map(|p| Compiler::new(&p.source).build_suite())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    out.end_to_end.extend(crate::simcost::speedups(&suites)?);
    out.end_to_end.extend(peak_rss());

    if ctx.trace {
        let mut t = Tracer::new();
        let (mut functional_minflt, mut cosim_minflt) = (0u64, 0u64);
        for (i, case) in merged.novel.iter().take(REPLAY).enumerate() {
            t.set_op(i as u64);
            let ok = t.span("case", |t| {
                recheck(t, case, &mut functional_minflt, &mut cosim_minflt)
            });
            if let Err(e) = ok {
                out.failed += 1;
                out.notes
                    .push(format!("fuzz replica: case {}: {e}", case.case));
            }
        }
        let ops = merged.novel.len().min(REPLAY) as u64;
        let by_name = t.self_ns_by_name();
        let ns = |name: &str| by_name.get(name).copied().unwrap_or(0);
        out.per_layer = crate::compile::layer_metrics(&t, ops);
        out.per_layer
            .extend(crate::simcost::layer_metrics(&t, ops, functional_minflt));
        #[allow(clippy::cast_precision_loss)]
        out.per_layer.extend([
            metric("sim.cosim.self_ms", ms_per_op(ns("sim.cosim"), ops), "ms"),
            metric("sim.cosim.minflt", cosim_minflt as f64, "count"),
            metric(
                "analysis.lint.self_ms",
                ms_per_op(ns("analysis.lint"), ops),
                "ms",
            ),
            metric("fuzz.gen.self_ms", ms_per_op(ns("fuzz.gen"), ops), "ms"),
            metric(
                "fuzz.oracle.self_ms",
                ms_per_op(ns("fuzz.oracle"), ops),
                "ms",
            ),
            metric("fuzz.features", merged.coverage.len() as f64, "count"),
        ]);
        out.per_layer
            .push(overhead_pct(ms_per_op(t.root_ns("case"), ops), ms_per_case));
        out.per_layer.extend(proc_metrics(delta, attempted));
        out.tracer = Some(t);
    }
    Ok(out)
}

/// Runs `f` and adds the minor faults it took to `faults`.
fn faulting<R>(faults: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = procfs::minflt();
    let r = f();
    if let (Some(a), Some(b)) = (before, procfs::minflt()) {
        *faults += b - a;
    }
    r
}

/// One functional run, which must reproduce the suite's golden run.
fn functional(
    t: &mut Tracer,
    faults: &mut u64,
    prog: &fpa_isa::Program,
    suite: &fpa_harness::SuiteArtifacts,
) -> Result<fpa_sim::FuncSimResult, String> {
    let r = t
        .span("sim.functional", |_| {
            faulting(faults, || fpa_sim::run_functional(prog, ORACLE_FUEL))
        })
        .map_err(|e| e.to_string())?;
    t.count("sim.functional.insts", r.total);
    if (r.output.as_str(), r.exit_code) == (suite.golden_output.as_str(), suite.golden_exit) {
        Ok(r)
    } else {
        Err("functional run diverged from the golden run".into())
    }
}

/// Lints one binary against its module and assignment, adding the
/// examined sites to `stats` as the oracle does.
fn lint(
    t: &mut Tracer,
    stats: &mut OracleStats,
    prog: &fpa_isa::Program,
    module: &fpa_ir::Module,
    assignment: &fpa_partition::Assignment,
) -> Result<(), String> {
    let (findings, touches) = t.span("analysis.lint", |_| {
        fpa_analysis::lint_with_touches(prog, Some(module), Some(assignment))
    });
    for (slot, code) in fpa_analysis::ErrorCode::ALL.into_iter().enumerate() {
        stats.lint_touches[slot] += touches.sites_for(code);
    }
    stats.lint_checked += 1;
    if findings.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lint finding(s)", findings.len()))
    }
}

/// Re-checks one campaign case through the public functions
/// `fpa_fuzz::check_case` calls, in its order: the suite build, the
/// functional runs, the co-simulated timing runs, the linter, and the
/// cost-sweep builds; then coverage extraction, whose signature must
/// equal the one the campaign recorded.
fn recheck(
    t: &mut Tracer,
    case: &NovelCase,
    functional_minflt: &mut u64,
    cosim_minflt: &mut u64,
) -> Result<(), String> {
    let src = t.span("fuzz.gen", |_| case.genome.program().render());
    t.span("fuzz.oracle", |t| {
        let suite = replica::build_suite(t, &src, &CostParams::default())?;
        let mut stats = OracleStats::default();
        let mut run = |t: &mut Tracer, prog| functional(t, functional_minflt, prog, &suite);
        stats.conventional_total = run(t, &suite.conventional)?.total;
        stats.basic_augmented = run(t, &suite.basic)?.augmented;
        let adv = run(t, &suite.advanced)?;
        (
            stats.advanced_augmented,
            stats.advanced_copies,
            stats.advanced_builds,
        ) = (adv.augmented, adv.copies, 1);
        let opt = run(t, &suite.optimal)?;
        (stats.optimal_augmented, stats.optimal_copies) = (opt.augmented, opt.copies);

        for (slot, scheme) in Scheme::ALL.into_iter().enumerate() {
            let (_, prog, _, _) = suite.scheme_views()[slot];
            let cfg = CellSpec::new(
                CellId::new(GENERATED_WORKLOAD, scheme, WidthPreset::FourWay),
                CellMode::Cosim,
                ORACLE_FUEL,
            )
            .config();
            let report = t
                .span("sim.cosim", |_| {
                    faulting(cosim_minflt, || {
                        fpa_sim::cosimulate(prog, &cfg, ORACLE_FUEL)
                    })
                })
                .map_err(|e| e.to_string())?;
            if !report.clean() || report.result.output != suite.golden_output {
                return Err(format!("{scheme} co-simulation diverged"));
            }
            stats.timing_cycles[slot] = report.result.cycles;
            stats.timing_checked += 1;
        }

        for (_, prog, module, assignment) in suite.scheme_views() {
            lint(t, &mut stats, prog, module, assignment)?;
        }
        for (o_copy, o_dupl) in fpa_fuzz::oracle::COST_SWEEP {
            let params = CostParams {
                o_copy,
                o_dupl,
                balance_cap: None,
            };
            let (prog, module, assignment) = replica::build_advanced(t, &src, &params)?;
            functional(t, functional_minflt, &prog, &suite)?;
            lint(t, &mut stats, &prog, &module, &assignment)?;
            stats.advanced_builds += 1;
        }

        let signature = fpa_fuzz::extract(&suite, &stats);
        if signature == case.signature {
            Ok(())
        } else {
            Err("coverage signature differs from the campaign's".into())
        }
    })
}
