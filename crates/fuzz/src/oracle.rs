//! The four-scheme differential oracle.
//!
//! [`check_source`] compiles one `zinc` program conventionally, with the
//! basic partitioning scheme, with the exact min-cut (optimal) scheme,
//! and with the advanced scheme under a sweep of cost parameters (one
//! front half, then a back half per build), then
//! runs every binary through functional simulation and demands
//! observable equivalence with the IR interpreter's golden run (same
//! printed output, same exit code). It also asserts the per-scheme
//! structural invariants:
//!
//! - the conventional build retires **zero** augmented (`*A`) opcodes;
//! - the basic scheme inserts **zero** copy instructions (the paper's
//!   defining property of the basic scheme, §5);
//! - every advanced-scheme assignment passes `fpa_ir::verify` (enforced
//!   inside the compiler's back half, which verifies the transformed
//!   module).
//!
//! Any violation is a compiler bug by construction: generated programs
//! terminate and never fault (see the `ast` module docs).
//!
//! Beyond the functional stages, every default-parameter build also runs
//! through the **timing simulator under lockstep co-simulation**
//! ([`fpa_sim::cosimulate`]): each retirement is diffed against an
//! independent functional execution and the pipeline's structural
//! invariants are audited, so the fuzzer also hunts for
//! timing-simulator bugs, not just compiler bugs.
//!
//! Finally, every emitted binary is **statically verified** by the
//! `fpa-analysis` partition-soundness linter against the IR module and
//! assignment it was compiled from — a translation-validation stage that
//! catches miscompiles on paths the generated input never executes.

use fpa_harness::cell::{run_cells, CellError, CellId, CellMode, CellSpec, WidthPreset};
use fpa_harness::{build_suite_cached, CompiledWorkload, Scheme};
use fpa_partition::CostParams;
use fpa_sim::run_functional;
use std::fmt;

/// Advanced-scheme cost-parameter sweep checked for every program, in
/// addition to the defaults (`o_copy = 6, o_dupl = 2`) exercised by the
/// suite build. Spans the corners of the range studied by the paper's
/// sensitivity analysis: `o_copy` in `[3, 6]`, `o_dupl` in `[1.5, 3]`.
pub const COST_SWEEP: [(f64, f64); 3] = [(3.0, 1.5), (4.5, 2.25), (6.0, 3.0)];

/// Simulation fuel for oracle runs. Generated programs are bounded far
/// below this; hitting the limit means a miscompiled loop.
pub const ORACLE_FUEL: u64 = 50_000_000;

/// What kind of disagreement the oracle saw. The shrinker preserves the
/// kind: a candidate only counts as "still failing" if it fails the same
/// way, so minimization cannot drift from a divergence to, say, an
/// unrelated build error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A compiler stage rejected the program (parse/verify/partition).
    Build,
    /// A binary faulted or ran out of fuel in the simulator.
    Exec,
    /// Printed output differed from the golden run.
    Output,
    /// Exit code differed from the golden run.
    Exit,
    /// A scheme invariant was violated (augmented ops in a conventional
    /// build, copies in a basic build).
    Invariant,
    /// The timing simulator violated a lockstep or microarchitectural
    /// invariant check under co-simulation.
    Cosim,
    /// The static partition-soundness linter (`fpa-analysis`) reported a
    /// `FPA0xx` finding against an emitted binary.
    Lint,
}

impl FailureKind {
    /// Stable lowercase label (used in corpus headers and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Build => "build",
            FailureKind::Exec => "exec",
            FailureKind::Output => "output",
            FailureKind::Exit => "exit",
            FailureKind::Invariant => "invariant",
            FailureKind::Cosim => "cosim",
            FailureKind::Lint => "lint",
        }
    }
}

/// One oracle failure: which configuration diverged, and how.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The kind of disagreement.
    pub kind: FailureKind,
    /// Human-readable label of the offending configuration, e.g.
    /// `advanced(o_copy=3, o_dupl=1.5)`.
    pub config: String,
    /// Details (expected vs got, or the underlying error).
    pub message: String,
    /// The simulation cell that diverged, when the failing stage ran a
    /// nameable (workload, scheme, width) cell — the co-simulated timing
    /// stage. `None` for build/lint/sweep failures.
    pub cell: Option<CellId>,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.kind.label(),
            self.config,
            self.message
        )
    }
}

impl std::error::Error for OracleFailure {}

/// Aggregate facts about one passing oracle check, for fleet telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleStats {
    /// Augmented (`*A`) instructions retired by the advanced build
    /// (default cost parameters).
    pub advanced_augmented: u64,
    /// Dynamic copies executed by the advanced build.
    pub advanced_copies: u64,
    /// Augmented instructions retired by the exact min-cut build.
    pub optimal_augmented: u64,
    /// Dynamic copies executed by the exact min-cut build.
    pub optimal_copies: u64,
    /// Augmented instructions retired by the basic build.
    pub basic_augmented: u64,
    /// Total instructions retired by the conventional build.
    pub conventional_total: u64,
    /// Advanced-scheme builds checked (default + sweep points).
    pub advanced_builds: u32,
    /// Timing-simulator runs checked under lockstep co-simulation.
    pub timing_checked: u32,
    /// Binaries statically verified by the partition-soundness linter.
    pub lint_checked: u32,
    /// Sites examined per linter rule (`FPA001`..`FPA006`), summed over
    /// every linted binary — the linter's rule-path coverage telemetry.
    pub lint_touches: [u64; 6],
    /// Cycles of the four co-simulated timing runs, in
    /// [`Scheme::ALL`] order (conventional, basic, advanced, optimal).
    pub timing_cycles: [u64; 4],
}

/// A passing oracle check plus its structural coverage signature — what
/// the coverage-guided campaign engine consumes per case.
#[derive(Debug, Clone)]
pub struct CheckedCase {
    /// Dynamic/static telemetry from the oracle stages.
    pub stats: OracleStats,
    /// The structural coverage signature extracted from the suite
    /// artifacts (see [`crate::coverage::extract`]).
    pub signature: crate::coverage::CoverageSignature,
}

fn truncate(s: &str, limit: usize) -> String {
    if s.len() <= limit {
        return s.to_string();
    }
    let mut end = limit;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… ({} bytes total)", &s[..end], s.len())
}

fn compare(
    config: &str,
    prog: &fpa_isa::Program,
    golden_output: &str,
    golden_exit: i32,
) -> Result<fpa_sim::FuncSimResult, OracleFailure> {
    let r = run_functional(prog, ORACLE_FUEL).map_err(|e| OracleFailure {
        kind: FailureKind::Exec,
        config: config.to_string(),
        message: e.to_string(),
        cell: None,
    })?;
    if r.output != golden_output {
        return Err(OracleFailure {
            kind: FailureKind::Output,
            config: config.to_string(),
            message: format!(
                "expected {:?}, got {:?}",
                truncate(golden_output, 160),
                truncate(&r.output, 160)
            ),
            cell: None,
        });
    }
    if r.exit_code != golden_exit {
        return Err(OracleFailure {
            kind: FailureKind::Exit,
            config: config.to_string(),
            message: format!("expected {golden_exit}, got {}", r.exit_code),
            cell: None,
        });
    }
    Ok(r)
}

/// Statically verifies one emitted binary against the IR module and
/// assignment it was compiled from. Any `FPA0xx` finding is a
/// miscompilation the dynamic stages may not have exercised (the broken
/// path might be cold on this input) — which is exactly why the linter
/// rides along as its own oracle stage.
fn lint_check(
    config: &str,
    prog: &fpa_isa::Program,
    module: &fpa_ir::Module,
    assignment: &fpa_partition::Assignment,
) -> Result<fpa_analysis::RuleTouches, OracleFailure> {
    let (findings, touches) = fpa_analysis::lint_with_touches(prog, Some(module), Some(assignment));
    if let Some(first) = findings.first() {
        return Err(OracleFailure {
            kind: FailureKind::Lint,
            config: format!("{config}(lint)"),
            message: format!("{} finding(s); first: {first}", findings.len()),
            cell: None,
        });
    }
    Ok(touches)
}

/// The label co-simulation cells carry for a generated (unnamed)
/// program. Campaign-level reports key failures by `(case, cell)`, so
/// the in-oracle label stays fixed.
pub const GENERATED_WORKLOAD: &str = "generated";

/// Validates one co-simulated cell: a violation-free run whose
/// observable behaviour matches the golden interpreter output.
fn cosim_validate(
    id: &CellId,
    report: &fpa_sim::CosimReport,
    golden_output: &str,
    golden_exit: i32,
) -> Result<(), OracleFailure> {
    let config = format!("{}(timing)", id.scheme.label());
    let fail = |kind, message| OracleFailure {
        kind,
        config: config.clone(),
        message,
        cell: Some(id.clone()),
    };
    if !report.clean() {
        let first = report
            .violations
            .first()
            .map_or_else(|| "(not stored)".to_string(), ToString::to_string);
        return Err(fail(
            FailureKind::Cosim,
            format!(
                "{} co-simulation violation(s); first: {first}",
                report.total_violations
            ),
        ));
    }
    if report.result.output != golden_output {
        return Err(fail(
            FailureKind::Output,
            format!(
                "expected {:?}, got {:?}",
                truncate(golden_output, 160),
                truncate(&report.result.output, 160)
            ),
        ));
    }
    if report.result.exit_code != golden_exit {
        return Err(fail(
            FailureKind::Exit,
            format!("expected {golden_exit}, got {}", report.result.exit_code),
        ));
    }
    Ok(())
}

/// Checks one `zinc` source against the full oracle: golden interpreter
/// run vs conventional, basic, advanced, optimal (default parameters),
/// and every [`COST_SWEEP`] point, plus the per-scheme invariants and a
/// lockstep co-simulated timing run of each default-parameter build.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] found.
pub fn check_source(src: &str) -> Result<OracleStats, OracleFailure> {
    check_case(src).map(|c| c.stats)
}

/// The artifact-store key this case's suite build is cached under
/// (default cost parameters — the oracle's suite configuration).
/// Campaign drivers count duplicate keys per evolution chain to report
/// cache traffic deterministically: the counts depend only on the
/// generated sources, never on shard splits, job counts, or what a
/// shared store already holds.
#[must_use]
pub fn case_store_key(src: &str) -> fpa_harness::artifact::Key {
    fpa_harness::artifact::suite_key(src, &CostParams::default())
}

/// [`check_source`] plus coverage extraction: the structural signature
/// of the suite artifacts rides back with the stats. This is the entry
/// point the campaign engine uses — the signature is a pure function of
/// the artifacts, so it is deterministic for a given source.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] found.
pub fn check_case(src: &str) -> Result<CheckedCase, OracleFailure> {
    // One frontend pass, four builds, plus the golden interpreter run —
    // through the ambient artifact store when one is configured
    // (`--store DIR`), so corpus replays and duplicate-heavy campaigns
    // compile each distinct source once.
    let (suite, _store) =
        build_suite_cached(src, &CostParams::default()).map_err(|e| OracleFailure {
            kind: FailureKind::Build,
            config: e
                .scheme()
                .map_or_else(|| "frontend".to_string(), |s| s.label().to_string()),
            message: e.to_string(),
            cell: None,
        })?;
    // The cell API addresses the four builds by (workload, scheme).
    let case = [CompiledWorkload::from_suite(GENERATED_WORKLOAD, suite)];
    let suite = &case[0].suite;
    let mut stats = OracleStats::default();

    let conv = compare(
        "conventional",
        &suite.conventional,
        &suite.golden_output,
        suite.golden_exit,
    )?;
    if conv.augmented != 0 {
        return Err(OracleFailure {
            kind: FailureKind::Invariant,
            config: "conventional".into(),
            message: format!(
                "conventional build retired {} augmented instructions (must be 0)",
                conv.augmented
            ),
            cell: None,
        });
    }
    stats.conventional_total = conv.total;

    if suite.basic_stats.static_copies != 0 {
        return Err(OracleFailure {
            kind: FailureKind::Invariant,
            config: "basic".into(),
            message: format!(
                "basic scheme inserted {} copies (must be 0)",
                suite.basic_stats.static_copies
            ),
            cell: None,
        });
    }
    let basic = compare(
        "basic",
        &suite.basic,
        &suite.golden_output,
        suite.golden_exit,
    )?;
    stats.basic_augmented = basic.augmented;

    let adv = compare(
        "advanced",
        &suite.advanced,
        &suite.golden_output,
        suite.golden_exit,
    )?;
    stats.advanced_augmented = adv.augmented;
    stats.advanced_copies = adv.copies;
    stats.advanced_builds = 1;

    let opt = compare(
        "optimal",
        &suite.optimal,
        &suite.golden_output,
        suite.golden_exit,
    )?;
    stats.optimal_augmented = opt.augmented;
    stats.optimal_copies = opt.copies;

    // Timing-simulator stage: every default-parameter build co-simulates
    // on the 4-way machine, batched through the cell API. A violation
    // here is a *simulator* bug (or a miscompile only visible under
    // out-of-order timing).
    let specs: Vec<CellSpec> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            CellSpec::new(
                CellId::new(GENERATED_WORKLOAD, scheme, WidthPreset::FourWay),
                CellMode::Cosim,
                ORACLE_FUEL,
            )
        })
        .collect();
    let cells = run_cells(&case[..], &specs, 1).map_err(|e| match e {
        CellError::Exec { id, source } => OracleFailure {
            kind: FailureKind::Exec,
            config: format!("{}(timing)", id.scheme.label()),
            message: source.to_string(),
            cell: Some(id),
        },
        CellError::UnknownCell(id) => panic!("cell {id} names no suite program"),
    })?;
    for r in &cells {
        let report = r.payload.cosim().expect("cosim cell");
        cosim_validate(&r.id, report, &suite.golden_output, suite.golden_exit)?;
        stats.timing_cycles[r.id.scheme as usize] = report.result.cycles;
        stats.timing_checked += 1;
    }

    // Static-verification stage: the linter re-proves the partition
    // invariants on each emitted binary, catching miscompiles on paths
    // the generated input never executes. Examined-site counts feed the
    // coverage signature.
    for (scheme, prog, module, assignment) in suite.scheme_views() {
        let touches = lint_check(scheme.label(), prog, module, assignment)?;
        for (slot, code) in fpa_analysis::ErrorCode::ALL.into_iter().enumerate() {
            stats.lint_touches[slot] += touches.sites_for(code);
        }
        stats.lint_checked += 1;
    }

    // Advanced scheme across the cost-parameter sweep: one back half per
    // point on the suite's profiled module. Each point can pick a
    // different partition; all must stay observably equivalent. The
    // module verifier runs inside every back half.
    for (o_copy, o_dupl) in COST_SWEEP {
        let config = format!("advanced(o_copy={o_copy}, o_dupl={o_dupl})");
        let arts = suite
            .rebuild(
                Scheme::Advanced,
                &CostParams {
                    o_copy,
                    o_dupl,
                    balance_cap: None,
                },
            )
            .map_err(|e| OracleFailure {
                kind: FailureKind::Build,
                config: config.clone(),
                message: e.to_string(),
                cell: None,
            })?;
        compare(
            &config,
            &arts.program,
            &suite.golden_output,
            suite.golden_exit,
        )?;
        let touches = lint_check(&config, &arts.program, &arts.module, &arts.assignment)?;
        for (slot, code) in fpa_analysis::ErrorCode::ALL.into_iter().enumerate() {
            stats.lint_touches[slot] += touches.sites_for(code);
        }
        stats.advanced_builds += 1;
        stats.lint_checked += 1;
    }

    let signature = crate::coverage::extract(suite, &stats);
    Ok(CheckedCase { stats, signature })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_known_good_mixed_program() {
        let src = "
            double d;
            int a[4];
            int main() {
                int i = 0;
                d = 1.5;
                for (i = 0; i < 4; i = i + 1) { a[(i) & 3] = i * 7; }
                d = d * ((double)(a[(2) & 3]));
                printd(d);
                print(a[(3) & 3]);
                return ((int)(d)) & 255;
            }
        ";
        let stats = check_source(src).expect("oracle should accept a correct program");
        assert_eq!(stats.advanced_builds, 1 + COST_SWEEP.len() as u32);
        assert!(stats.conventional_total > 0);
    }

    #[test]
    fn reports_build_failures_with_kind_build() {
        let e = check_source("int main() { return undeclared; }").unwrap_err();
        assert_eq!(e.kind, FailureKind::Build);
    }
}
