//! The unified compile API: one builder, one error type, one artifact
//! bundle.
//!
//! Every consumer of the pipeline — the `fpa` facade, the experiment
//! engine, `fpa-cc`, and the tests — goes through [`Compiler`]. The
//! stage sequence is written once, in two halves:
//!
//! - the **front half**, run once per source: parse → optimize → split
//!   webs → verify → profile → the partitioners' per-function graphs
//!   ([`Rdg`]; every frontend execution is counted, see
//!   [`frontend_runs`]);
//! - the **back half**, run once per scheme on the front half's graphs:
//!   partition → verify → stats → codegen.
//!
//! [`Compiler::build`] is one front half plus one back half,
//! [`Compiler::build_suite`] one front half plus four, and
//! [`SuiteArtifacts::rebuild`] one more back half on a suite's profiled
//! module (with its graphs built again) — which is how cost-parameter
//! sweeps re-partition one profile without recompiling it.
//!
//! ```no_run
//! use fpa_harness::compiler::{Compiler, Scheme};
//!
//! let art = Compiler::new("int main() { print(42); return 0; }")
//!     .scheme(Scheme::Advanced)
//!     .build()
//!     .unwrap();
//! assert_eq!(art.golden_output, "42\n");
//! let _machine_code = &art.program;
//! ```

use fpa_codegen::compile_module_timed;
use fpa_ir::{Interp, Module, Profile};
use fpa_isa::Program;
use fpa_partition::{
    partition_advanced_with, partition_basic_with, partition_optimal_with, Assignment, BlockFreq,
    CostParams, PartitionStats,
};
use fpa_rdg::Rdg;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which code-partitioning scheme to apply.
///
/// The discriminants are each scheme's index in [`Scheme::ALL`]; fuzz
/// coverage signatures and per-scheme stat slots use `scheme as u64`, so
/// they must not change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No offloading: integer code stays in the integer subsystem.
    Conventional = 0,
    /// The paper's basic scheme (§5): no new instructions.
    Basic = 1,
    /// The paper's advanced scheme (§6): profile-driven copies and
    /// duplication (profiled with the built-in interpreter).
    Advanced = 2,
    /// Exact partitioning: the advanced scheme's profit model solved to
    /// optimality as a minimum s-t cut (max-flow over the RDG). Bounds
    /// how much the greedy heuristics leave on the table.
    Optimal = 3,
}

impl Scheme {
    /// All schemes, in presentation order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Conventional,
        Scheme::Basic,
        Scheme::Advanced,
        Scheme::Optimal,
    ];

    /// Stable lowercase label (used in reports and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Conventional => "conventional",
            Scheme::Basic => "basic",
            Scheme::Advanced => "advanced",
            Scheme::Optimal => "optimal",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Scheme, String> {
        Scheme::ALL
            .into_iter()
            .find(|scheme| scheme.label() == s)
            .ok_or_else(|| format!("unknown scheme `{s}` (conventional|basic|advanced|optimal)"))
    }
}

/// A front-to-back compilation failure, from any pipeline stage.
///
/// This is the one error type of the whole system: the facade's
/// `fpa::Error` is this enum. The underlying stage error is reachable
/// through [`std::error::Error::source`].
#[derive(Debug)]
pub enum Error {
    /// The source failed to compile.
    Compile(fpa_frontend::CompileError),
    /// The profiling interpreter run failed.
    Profile(fpa_ir::InterpError),
    /// Generated IR failed verification.
    Verify(fpa_ir::VerifyError),
    /// Machine-level execution of a built program failed.
    Exec {
        /// Which scheme's binary faulted.
        scheme: Scheme,
        /// The simulator fault.
        source: fpa_sim::ExecError,
    },
    /// A built program's data segment (globals plus the code
    /// generator's constant pool) ends above its stack top, outside the
    /// machine's memory.
    DataOverflow {
        /// Which scheme's binary overflowed.
        scheme: Scheme,
        /// The first address past the data segment.
        end: u64,
        /// The program's stack top, where memory ends.
        stack_top: u32,
    },
    /// A built program's observable behaviour diverged from the golden
    /// interpreter run — the strongest possible correctness failure.
    Divergence {
        /// Which scheme's binary diverged.
        scheme: Scheme,
        /// What differed (output or exit code, expected vs actual).
        detail: String,
    },
    /// Context wrapper: the workload (or generated program) a nested
    /// failure belongs to, so one failing program in a matrix or fuzz
    /// batch is reported by name instead of aborting anonymously.
    Workload {
        /// The workload's name.
        name: String,
        /// The underlying failure.
        source: Box<Error>,
    },
}

impl Error {
    /// Wraps this error with the workload it occurred in.
    #[must_use]
    pub fn in_workload(self, name: &str) -> Error {
        Error::Workload {
            name: name.to_string(),
            source: Box::new(self),
        }
    }

    /// The scheme that failed, if this error is specific to one build.
    #[must_use]
    pub fn scheme(&self) -> Option<Scheme> {
        match self {
            Error::Exec { scheme, .. }
            | Error::DataOverflow { scheme, .. }
            | Error::Divergence { scheme, .. } => Some(*scheme),
            Error::Workload { source, .. } => source.scheme(),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile: {e}"),
            Error::Profile(e) => write!(f, "profile: {e}"),
            Error::Verify(e) => write!(f, "verify: {e}"),
            Error::Exec { scheme, source } => write!(f, "{scheme} build failed: {source}"),
            Error::DataOverflow {
                scheme,
                end,
                stack_top,
            } => write!(
                f,
                "{scheme} build failed: data ends at {end:#x}, past the end of memory at {stack_top:#x}"
            ),
            Error::Divergence { scheme, detail } => {
                write!(f, "{scheme} build diverged: {detail}")
            }
            Error::Workload { name, source } => write!(f, "workload `{name}`: {source}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Profile(e) => Some(e),
            Error::Verify(e) => Some(e),
            Error::Exec { source, .. } => Some(source),
            Error::DataOverflow { .. } | Error::Divergence { .. } => None,
            Error::Workload { source, .. } => Some(source.as_ref()),
        }
    }
}

/// Wall-clock cost of each compiler stage of one build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Frontend: lexing, parsing, lowering to IR.
    pub parse: Duration,
    /// IR optimization plus web splitting and verification.
    pub optimize: Duration,
    /// The profiling interpreter run.
    pub profile: Duration,
    /// Building the partitioners' graphs once, plus partitioning and
    /// verification of the transformed module summed over the schemes
    /// built.
    pub partition: Duration,
    /// Register allocation across all programs built.
    pub regalloc: Duration,
    /// Instruction emission, fixups, peephole, validation.
    pub emit: Duration,
}

impl StageTimings {
    /// Total time across all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.parse + self.optimize + self.profile + self.partition + self.regalloc + self.emit
    }
}

/// Everything one [`Compiler::build`] produces: the machine program plus
/// the intermediate products experiments need (no consumer has to rerun a
/// stage to recover them).
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// The scheme this artifact was built under.
    pub scheme: Scheme,
    /// The machine program.
    pub program: Program,
    /// The optimized (and, for the advanced scheme, transformed) IR the
    /// backend compiled — kept so the binary linter can check the emitted
    /// code against its source of truth.
    pub module: Module,
    /// The partition assignment the backend compiled against.
    pub assignment: Assignment,
    /// IR-level partition statistics under the profile's block weights.
    pub stats: PartitionStats,
    /// The interpreter profile (block execution counts).
    pub profile: Profile,
    /// Golden observable output from the IR interpreter.
    pub golden_output: String,
    /// Golden exit code.
    pub golden_exit: i32,
    /// Per-stage wall-clock timings for this build.
    pub timings: StageTimings,
}

/// One workload compiled under all four schemes from a **single**
/// frontend pass (the advanced and optimal schemes' destructive
/// transforms each run on their own clone of the optimized module).
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteArtifacts {
    /// Conventional binary (no offloading).
    pub conventional: Program,
    /// Basic-scheme binary.
    pub basic: Program,
    /// Advanced-scheme binary.
    pub advanced: Program,
    /// Optimal-scheme (exact min-cut) binary.
    pub optimal: Program,
    /// The optimized IR the conventional and basic binaries were compiled
    /// from.
    pub module: Module,
    /// The advanced-transformed IR (copies/duplication applied) behind
    /// the advanced binary.
    pub advanced_module: Module,
    /// The optimal-transformed IR behind the optimal binary.
    pub optimal_module: Module,
    /// The conventional (all-INT) assignment.
    pub conv_assignment: Assignment,
    /// The basic-scheme assignment.
    pub basic_assignment: Assignment,
    /// The advanced-scheme assignment.
    pub advanced_assignment: Assignment,
    /// The optimal-scheme assignment.
    pub optimal_assignment: Assignment,
    /// IR-level stats of the basic partition.
    pub basic_stats: PartitionStats,
    /// IR-level stats of the advanced partition.
    pub advanced_stats: PartitionStats,
    /// IR-level stats of the optimal partition.
    pub optimal_stats: PartitionStats,
    /// The interpreter profile shared by every scheme.
    pub profile: Profile,
    /// Golden observable output from the IR interpreter.
    pub golden_output: String,
    /// Golden exit code.
    pub golden_exit: i32,
    /// Per-stage timings summed over the four builds; zero for a suite
    /// decoded from the artifact store, whose payload carries none.
    pub timings: StageTimings,
}

impl SuiteArtifacts {
    /// One scheme's (binary, IR module, assignment): the conventional and
    /// basic binaries were compiled from the shared optimized module, the
    /// advanced and optimal binaries from their transformed clones.
    fn view(&self, scheme: Scheme) -> (&Program, &Module, &Assignment) {
        match scheme {
            Scheme::Conventional => (&self.conventional, &self.module, &self.conv_assignment),
            Scheme::Basic => (&self.basic, &self.module, &self.basic_assignment),
            Scheme::Advanced => (
                &self.advanced,
                &self.advanced_module,
                &self.advanced_assignment,
            ),
            Scheme::Optimal => (
                &self.optimal,
                &self.optimal_module,
                &self.optimal_assignment,
            ),
        }
    }

    /// The binary built under `scheme`.
    #[must_use]
    pub fn program(&self, scheme: Scheme) -> &Program {
        self.view(scheme).0
    }

    /// The per-scheme (binary, IR module, assignment) views, in
    /// [`Scheme::ALL`] order. This is the exact pairing the binary linter
    /// and coverage-signature extraction need.
    #[must_use]
    pub fn scheme_views(&self) -> [(Scheme, &Program, &Module, &Assignment); 4] {
        Scheme::ALL.map(|scheme| {
            let (program, module, assignment) = self.view(scheme);
            (scheme, program, module, assignment)
        })
    }

    /// IR-level partition statistics for an offloading scheme (`None`
    /// for the conventional build, which has no partition decision).
    #[must_use]
    pub fn partition_stats(&self, scheme: Scheme) -> Option<&PartitionStats> {
        match scheme {
            Scheme::Conventional => None,
            Scheme::Basic => Some(&self.basic_stats),
            Scheme::Advanced => Some(&self.advanced_stats),
            Scheme::Optimal => Some(&self.optimal_stats),
        }
    }

    /// Runs the back half once more on a clone of this suite's optimized
    /// module, under `scheme` and `params`, weighted by this suite's
    /// profile: the same result as a from-source
    /// `Compiler::new(src).scheme(scheme).cost_params(params).build()`,
    /// without re-running the front half.
    ///
    /// # Errors
    ///
    /// [`Error::Verify`] if the transformed module fails verification,
    /// [`Error::DataOverflow`] if the binary's data does not fit below
    /// its stack.
    pub fn rebuild(&self, scheme: Scheme, params: &CostParams) -> Result<SchemeBuild, Error> {
        let freq = BlockFreq::from_profile(&self.module, &self.profile);
        back(
            self.module.clone(),
            &Rdg::build_all(&self.module),
            &freq,
            scheme,
            params,
            &mut StageTimings::default(),
        )
    }
}

/// What the back half produces for one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeBuild {
    /// The machine program.
    pub program: Program,
    /// The IR the backend compiled: the optimized module itself for the
    /// conventional and basic schemes, transformed for advanced and
    /// optimal.
    pub module: Module,
    /// The partition assignment the backend compiled against.
    pub assignment: Assignment,
    /// IR-level partition statistics under the profile's block weights.
    pub stats: PartitionStats,
}

static FRONTEND_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of frontend (parse + optimize + verify) executions in this
/// process so far. The experiment engine's build-once guarantee is
/// asserted against this counter: building a whole figure matrix must
/// advance it by exactly the number of workloads. Back halves
/// ([`SuiteArtifacts::rebuild`]) never advance it.
#[must_use]
pub fn frontend_runs() -> u64 {
    FRONTEND_RUNS.load(Ordering::SeqCst)
}

/// Builder for a single compilation: source in, [`Artifacts`] out.
///
/// Defaults: [`Scheme::Advanced`], [`CostParams::default`].
#[derive(Debug, Clone)]
pub struct Compiler<'a> {
    src: &'a str,
    scheme: Scheme,
    params: CostParams,
}

impl<'a> Compiler<'a> {
    /// Starts a build of `src` (the `zinc` language).
    #[must_use]
    pub fn new(src: &'a str) -> Compiler<'a> {
        Compiler {
            src,
            scheme: Scheme::Advanced,
            params: CostParams::default(),
        }
    }

    /// Selects the partitioning scheme (default: advanced).
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Compiler<'a> {
        self.scheme = scheme;
        self
    }

    /// Overrides the advanced scheme's cost parameters.
    #[must_use]
    pub fn cost_params(mut self, params: CostParams) -> Compiler<'a> {
        self.params = params;
        self
    }

    /// Runs the frontend only: parse → optimize → split webs → verify.
    /// This is what `fpa-cc --emit ir` prints.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the stage that failed.
    pub fn optimized_ir(&self) -> Result<Module, Error> {
        optimized_module(self.src, &mut StageTimings::default())
    }

    /// Runs the full pipeline under the selected scheme.
    ///
    /// The profiling interpreter always runs — it provides the golden
    /// output, the block frequencies behind [`Artifacts::stats`], and (for
    /// the advanced scheme) the cost model's weights.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the stage that failed.
    pub fn build(self) -> Result<Artifacts, Error> {
        let mut timings = StageTimings::default();
        let front = front(self.src, &mut timings)?;
        let built = back(
            front.module,
            &front.graphs,
            &front.freq,
            self.scheme,
            &self.params,
            &mut timings,
        )?;
        Ok(Artifacts {
            scheme: self.scheme,
            program: built.program,
            module: built.module,
            assignment: built.assignment,
            stats: built.stats,
            profile: front.profile,
            golden_output: front.golden.output,
            golden_exit: front.golden.exit_code,
            timings,
        })
    }

    /// Builds the conventional, basic, advanced, and optimal programs
    /// from **one** front half: one frontend pass and one profiling run.
    /// The selected scheme is ignored; all four are produced.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the stage that failed.
    pub fn build_suite(self) -> Result<SuiteArtifacts, Error> {
        let mut timings = StageTimings::default();
        let Profiled {
            module,
            profile,
            freq,
            graphs,
            golden,
        } = front(self.src, &mut timings)?;
        // The advanced and optimal schemes transform the module in place,
        // so each partitions its own clone; the conventional and basic
        // builds share the untransformed module. All four read the graphs
        // the front half built on it.
        let (for_advanced, for_optimal) = (module.clone(), module.clone());
        let mut run = |module: Module, scheme: Scheme| {
            back(module, &graphs, &freq, scheme, &self.params, &mut timings)
        };
        let conventional = run(module, Scheme::Conventional)?;
        let basic = run(conventional.module, Scheme::Basic)?;
        let advanced = run(for_advanced, Scheme::Advanced)?;
        let optimal = run(for_optimal, Scheme::Optimal)?;
        Ok(SuiteArtifacts {
            conventional: conventional.program,
            basic: basic.program,
            advanced: advanced.program,
            optimal: optimal.program,
            module: basic.module,
            advanced_module: advanced.module,
            optimal_module: optimal.module,
            conv_assignment: conventional.assignment,
            basic_assignment: basic.assignment,
            advanced_assignment: advanced.assignment,
            optimal_assignment: optimal.assignment,
            basic_stats: basic.stats,
            advanced_stats: advanced.stats,
            optimal_stats: optimal.stats,
            profile,
            golden_output: golden.output,
            golden_exit: golden.exit_code,
            timings,
        })
    }
}

/// What the front half produces for one source.
struct Profiled {
    /// The optimized, web-split, verified module.
    module: Module,
    /// The interpreter profile (block execution counts).
    profile: Profile,
    /// `profile` as the partitioners' block weights.
    freq: BlockFreq,
    /// The partitioners' graph of each function of `module`.
    graphs: Vec<Rdg>,
    /// The golden interpreter run.
    golden: fpa_ir::ExecOutcome,
}

/// The front half, run once per source: parse → optimize → split webs →
/// verify → profile → graphs (charged to the partition stage).
fn front(src: &str, timings: &mut StageTimings) -> Result<Profiled, Error> {
    let module = optimized_module(src, timings)?;
    let t = Instant::now();
    let (golden, profile) = Interp::new(&module).run().map_err(Error::Profile)?;
    timings.profile = t.elapsed();
    let freq = BlockFreq::from_profile(&module, &profile);
    let t = Instant::now();
    let graphs = Rdg::build_all(&module);
    timings.partition += t.elapsed();
    Ok(Profiled {
        module,
        profile,
        freq,
        graphs,
        golden,
    })
}

/// The back half, run once per scheme: partition → verify → stats →
/// codegen, then a check that the binary's data fits below its stack
/// top. Takes the optimized module by value, with the graphs built on
/// it, and hands it back in the [`SchemeBuild`]: transformed by the
/// advanced and optimal schemes, untouched by the conventional and
/// basic ones.
fn back(
    mut module: Module,
    graphs: &[Rdg],
    freq: &BlockFreq,
    scheme: Scheme,
    params: &CostParams,
    timings: &mut StageTimings,
) -> Result<SchemeBuild, Error> {
    let t = Instant::now();
    let assignment = match scheme {
        Scheme::Conventional => Assignment::conventional(&module),
        Scheme::Basic => partition_basic_with(graphs, &module),
        Scheme::Advanced => partition_advanced_with(graphs, &mut module, freq, params),
        Scheme::Optimal => partition_optimal_with(graphs, &mut module, freq, params),
    };
    if matches!(scheme, Scheme::Advanced | Scheme::Optimal) {
        fpa_ir::verify::verify_module(&module).map_err(Error::Verify)?;
    }
    timings.partition += t.elapsed();

    let stats = PartitionStats::compute(&module, &assignment, freq);
    let (program, ct) = compile_module_timed(&module, &assignment);
    timings.regalloc += ct.regalloc;
    timings.emit += ct.emit;
    let end = program
        .data
        .iter()
        .map(|d| u64::from(d.addr) + d.bytes.len() as u64)
        .max()
        .unwrap_or(0);
    if end > u64::from(program.stack_top) {
        return Err(Error::DataOverflow {
            scheme,
            end,
            stack_top: program.stack_top,
        });
    }
    Ok(SchemeBuild {
        program,
        module,
        assignment,
        stats,
    })
}

/// The one frontend sequence of the whole system: parse → optimize →
/// split webs → verify. Increments the [`frontend_runs`] counter.
fn optimized_module(source: &str, timings: &mut StageTimings) -> Result<Module, Error> {
    FRONTEND_RUNS.fetch_add(1, Ordering::SeqCst);
    let t = Instant::now();
    let mut m = fpa_frontend::compile(source).map_err(Error::Compile)?;
    timings.parse = t.elapsed();

    let t = Instant::now();
    fpa_ir::opt::optimize(&mut m);
    for f in &mut m.funcs {
        fpa_ir::opt::split_webs(f);
    }
    fpa_ir::verify::verify_module(&m).map_err(Error::Verify)?;
    timings.optimize = t.elapsed();
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        int main() {
            int i;
            int x = 3;
            for (i = 0; i < 20; i = i + 1) { x = (x * 5 + i) ^ 9; }
            print(x);
            return 0;
        }";

    #[test]
    fn constant_pool_past_the_stack_top_is_an_error() {
        // The globals end exactly at the stack top, which the frontend
        // accepts; the double constant's pool slot above them does not fit.
        let src = "int a[2096128]; int main() { a[0] = 1; printd(2.5); return a[0]; }";
        let err = Compiler::new(src).build_suite().unwrap_err();
        assert!(
            matches!(
                err,
                Error::DataOverflow {
                    scheme: Scheme::Conventional,
                    end: 0x80_0008,
                    stack_top: 0x80_0000,
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn builder_produces_consistent_artifacts() {
        let art = Compiler::new(SRC).scheme(Scheme::Basic).build().unwrap();
        assert_eq!(art.scheme, Scheme::Basic);
        assert!(art.stats.static_insts > 0);
        assert_eq!(art.golden_exit, 0);
        let r = fpa_sim::run_functional(&art.program, 1_000_000).unwrap();
        assert_eq!(r.output, art.golden_output);
    }

    #[test]
    fn suite_matches_individual_builds() {
        let suite = Compiler::new(SRC).build_suite().unwrap();
        for (scheme, prog, module, assignment) in suite.scheme_views() {
            let single = Compiler::new(SRC).scheme(scheme).build().unwrap();
            assert_eq!(prog, &single.program, "{scheme} program");
            assert_eq!(module, &single.module, "{scheme} module");
            assert_eq!(assignment, &single.assignment, "{scheme} assignment");
            if let Some(stats) = suite.partition_stats(scheme) {
                assert_eq!(stats, &single.stats, "{scheme} stats");
            }
            assert_eq!(suite.profile, single.profile);
            let r = fpa_sim::run_functional(prog, 1_000_000).unwrap();
            assert_eq!(r.output, suite.golden_output, "{scheme} diverged");
        }
        // A back half on the suite's profiled module equals a from-source
        // build at every point of the fuzz oracle's cost sweep.
        for (o_copy, o_dupl) in [(3.0, 1.5), (4.5, 2.25), (6.0, 3.0)] {
            let params = CostParams {
                o_copy,
                o_dupl,
                balance_cap: None,
            };
            let rebuilt = suite.rebuild(Scheme::Advanced, &params).unwrap();
            let single = Compiler::new(SRC).cost_params(params).build().unwrap();
            let single = SchemeBuild {
                program: single.program,
                module: single.module,
                assignment: single.assignment,
                stats: single.stats,
            };
            assert_eq!(rebuilt, single, "o_copy={o_copy}, o_dupl={o_dupl}");
        }
    }

    #[test]
    fn error_chains_to_stage_error() {
        let err = Compiler::new("int main() { return undeclared; }")
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Compile(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().starts_with("compile: "));
    }
}
