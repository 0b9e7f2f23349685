//! Command-line experiment runner: regenerates the paper's tables and
//! figures through the parallel experiment engine.
//!
//! ```text
//! fpa-report [table1|table2|fig8|fig9|fig10|overheads|optgap|ablation|fp|all]
//!            [--jobs N]          # worker threads (default: all cores)
//!            [--json [PATH]]     # also write the machine-readable report
//!            [--check]           # lockstep co-simulation + invariant sweep
//!            [--lint]            # partition-soundness lint sweep
//!            [--workloads A,B]   # restrict --check/--lint to named workloads
//!            [--store DIR]       # persistent artifact store (compile cache)
//! ```
//!
//! Workloads are compiled once into a shared artifact store
//! ([`fpa_harness::engine::ExperimentContext`]); figure cells then fan
//! out across the worker pool. The plain-text tables on stdout are
//! identical for every `--jobs` value.
//!
//! `--check` replaces the figure matrix with the co-simulation sweep:
//! every workload x scheme x machine cell re-runs under the lockstep and
//! invariant checkers ([`fpa_harness::check`]), and the process exits
//! non-zero if any cell reports a violation.
//!
//! `--lint` replaces it with the static partition-soundness sweep:
//! every workload x scheme binary is verified against its IR module and
//! assignment by the `fpa-analysis` linter ([`fpa_harness::lint`]), and
//! the process exits non-zero on any `FPA0xx` finding.

use fpa_harness::engine::{default_jobs, ExperimentContext, MatrixReport};
use fpa_harness::report;
use fpa_partition::CostParams;

fn usage() -> ! {
    eprintln!(
        "usage: fpa-report [table1|table2|fig8|fig9|fig10|overheads|optgap|ablation|fp|all] \
         [--jobs N] [--json [PATH]] [--check] [--lint] [--workloads A,B] [--store DIR]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = None;
    let mut jobs = default_jobs();
    let mut json_path: Option<String> = None;
    let mut check = false;
    let mut lint = false;
    let mut workloads: Option<Vec<String>> = None;
    let mut store_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--lint" => lint = true,
            "--workloads" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                workloads = Some(list.split(',').map(str::to_owned).collect());
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--store" => {
                i += 1;
                store_dir = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--json" => {
                // Optional value: `--json out.json` or bare `--json`.
                json_path = match args.get(i + 1) {
                    Some(p) if !p.starts_with('-') => {
                        i += 1;
                        Some(p.clone())
                    }
                    _ => Some("fpa-report.json".to_owned()),
                };
            }
            a if !a.starts_with('-') && what.is_none() => what = Some(a.to_owned()),
            _ => usage(),
        }
        i += 1;
    }
    if let Some(dir) = &store_dir {
        let store = fpa_harness::ArtifactStore::open(dir).unwrap_or_else(|e| {
            eprintln!("fpa-report: cannot open artifact store {dir}: {e}");
            std::process::exit(1);
        });
        fpa_harness::set_ambient(Some(std::sync::Arc::new(store)));
    }
    if check {
        run_check(workloads.as_deref(), jobs, what.as_deref());
    }
    if lint {
        run_lint(workloads.as_deref(), jobs, what.as_deref());
    }
    let what = what.unwrap_or_else(|| "all".to_owned());
    if !matches!(
        what.as_str(),
        "table1"
            | "table2"
            | "fig8"
            | "fig9"
            | "fig10"
            | "overheads"
            | "optgap"
            | "ablation"
            | "fp"
            | "all"
    ) {
        eprintln!("fpa-report: unknown target '{what}'");
        usage();
    }
    let needs_builds = json_path.is_some()
        || matches!(
            what.as_str(),
            "fig8" | "fig9" | "fig10" | "overheads" | "optgap" | "all"
        );

    if matches!(what.as_str(), "table1" | "all") {
        println!("{}", report::table1());
    }
    if matches!(what.as_str(), "table2" | "all") {
        println!("{}", report::table2());
    }
    if needs_builds {
        eprintln!(
            "building 8 integer workloads (conventional/basic/advanced/optimal), {jobs} worker(s)..."
        );
        let (ctx, m) = build_matrix(&fpa_workloads::integer(), jobs);
        if matches!(what.as_str(), "fig8" | "all") {
            println!("{}", report::fig8(&m.fig8));
        }
        if matches!(what.as_str(), "fig9" | "all") {
            println!(
                "{}",
                report::speedup("Figure 9: Speedups on a 4-way machine", &m.fig9)
            );
        }
        if matches!(what.as_str(), "fig10" | "all") {
            println!(
                "{}",
                report::speedup("Figure 10: Speedups on an 8-way machine", &m.fig10)
            );
        }
        if matches!(what.as_str(), "overheads" | "all") {
            println!("{}", report::overheads(&m.overheads));
        }
        if matches!(what.as_str(), "optgap" | "all") {
            eprintln!("timing the exact min-cut binaries for the optimality-gap table...");
            let rows =
                fpa_harness::experiments::optimality_gap(ctx.compiled()).unwrap_or_else(|e| {
                    eprintln!("simulation failed: {e}");
                    std::process::exit(1);
                });
            println!("{}", report::optimality_gap(&rows));
        }
        if let Some(path) = &json_path {
            write_json(path, &m);
        }
    }
    if matches!(what.as_str(), "ablation") {
        eprintln!("sweeping cost-model constants on gcc and m88ksim...");
        let rows =
            fpa_harness::experiments::ablate_cost_params(&["gcc", "m88ksim"]).expect("ablation");
        println!("{}", fpa_harness::report::ablation(&rows));
    }
    if matches!(what.as_str(), "fp" | "all") {
        eprintln!("building floating-point programs (section 7.5)...");
        let (_, m) = build_matrix(&fpa_workloads::floating(), jobs);
        println!("{}", report::fig8(&m.fig8));
        println!(
            "{}",
            report::speedup("Section 7.5: FP programs on the 4-way machine", &m.fig9)
        );
    }
}

/// Builds `set` once; exits 1 if any workload fails.
fn context(set: &[fpa_workloads::Workload], jobs: usize) -> ExperimentContext {
    ExperimentContext::new(set, &CostParams::default(), jobs).unwrap_or_else(|e| {
        eprintln!("pipeline failed: {e}");
        std::process::exit(1);
    })
}

/// Builds `set` once and runs its figure matrix; exits 1 on failure.
fn build_matrix(set: &[fpa_workloads::Workload], jobs: usize) -> (ExperimentContext, MatrixReport) {
    let ctx = context(set, jobs);
    eprintln!("running the experiment matrix (4-way and 8-way machines)...");
    let m = ctx.matrix().unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    (ctx, m)
}

/// The set-up `--check` and `--lint` share: refuses a figure target,
/// resolves `--workloads` (default: every integer workload), announces
/// the sweep (`verb`, then the `cells` each workload expands to) and
/// builds the set.
fn sweep_context(
    flag: &str,
    verb: &str,
    cells: &str,
    filter: Option<&[String]>,
    jobs: usize,
    what: Option<&str>,
) -> ExperimentContext {
    if what.is_some() {
        eprintln!("fpa-report: {flag} does not take a figure target");
        usage();
    }
    let set: Vec<fpa_workloads::Workload> = match filter {
        None => fpa_workloads::integer(),
        Some(names) => names
            .iter()
            .map(|n| {
                fpa_workloads::by_name(n).unwrap_or_else(|| {
                    eprintln!("fpa-report: unknown workload '{n}'");
                    usage()
                })
            })
            .collect(),
    };
    eprintln!(
        "{verb} {} workload(s) x {cells}, {jobs} worker(s)...",
        set.len()
    );
    context(&set, jobs)
}

/// The `--check` mode: builds the (optionally filtered) workload set and
/// sweeps every cell under lockstep co-simulation. Exits 0 when clean,
/// 1 on any violation.
fn run_check(filter: Option<&[String]>, jobs: usize, what: Option<&str>) -> ! {
    let ctx = sweep_context(
        "--check",
        "co-simulating",
        "4 schemes x 2 machines",
        filter,
        jobs,
        what,
    );
    let rows = fpa_harness::check_matrix(&ctx).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    print!("{}", report::check(&rows));
    let dirty: u64 = rows.iter().map(|r| r.total_violations).sum();
    if dirty > 0 {
        eprintln!("fpa-report: {dirty} violation(s) detected");
        std::process::exit(1);
    }
    eprintln!("all {} cells clean", rows.len());
    std::process::exit(0);
}

/// The `--lint` mode: builds the (optionally filtered) workload set and
/// statically verifies every scheme binary against its IR module and
/// partition assignment. Exits 0 when clean, 1 on any finding.
fn run_lint(filter: Option<&[String]>, jobs: usize, what: Option<&str>) -> ! {
    let ctx = sweep_context("--lint", "linting", "4 schemes", filter, jobs, what);
    let rows = fpa_harness::lint_matrix(&ctx);
    print!("{}", report::lint(&rows));
    let dirty: usize = rows.iter().map(|r| r.findings.len()).sum();
    if dirty > 0 {
        eprintln!("fpa-report: {dirty} lint finding(s)");
        std::process::exit(1);
    }
    eprintln!("all {} cells lint-clean", rows.len());
    std::process::exit(0);
}

fn write_json(path: &str, m: &MatrixReport) {
    let text = m.to_json().render();
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("fpa-report: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "wrote {path} ({} workloads, build {:.2}s, matrix {:.2}s)",
        m.telemetry.len(),
        m.build_seconds,
        m.matrix_seconds
    );
}
