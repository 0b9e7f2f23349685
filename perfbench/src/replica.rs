//! `Compiler::build_suite`'s stage sequence, rebuilt from the crates'
//! public functions with a span around each stage.
//!
//! The traced runs split compile time by layer through this replica,
//! so it must stay the real pipeline: callers assert that its output
//! equals `build_suite`'s (the unit test below does the same on real
//! programs). The stage order and the clones mirror
//! `crates/harness/src/compiler.rs`.

use crate::trace::Tracer;
use fpa_harness::SuiteArtifacts;
use fpa_ir::{ExecOutcome, FuncId, Interp, Module, Profile};
use fpa_partition::{
    partition_advanced, partition_basic, partition_optimal, Assignment, BlockFreq, CostParams,
    PartitionStats,
};

/// Static IR instructions (terminators included) of `m`.
fn static_insts(m: &Module) -> u64 {
    m.funcs
        .iter()
        .flat_map(|f| {
            f.block_ids()
                .map(move |b| f.block(b).insts.len() as u64 + 1)
        })
        .sum()
}

/// Dynamic IR instructions the profiling run executed: each block's
/// execution count times its length (terminator included).
fn dynamic_insts(m: &Module, profile: &Profile) -> u64 {
    let mut n = 0;
    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId::new(u32::try_from(fi).expect("function count fits u32"));
        for b in f.block_ids() {
            n += profile.count(fid, b) * (f.block(b).insts.len() as u64 + 1);
        }
    }
    n
}

/// The shared front of both builds: `frontend`, `ir.opt` (optimize +
/// split webs + verify) and the profiling `ir.interp` run.
fn front(t: &mut Tracer, src: &str) -> Result<(Module, ExecOutcome, Profile), String> {
    let mut m = t
        .span("frontend", |_| fpa_frontend::compile(src))
        .map_err(|e| format!("compile: {e}"))?;
    t.span("ir.opt", |_| {
        fpa_ir::opt::optimize(&mut m);
        for f in &mut m.funcs {
            fpa_ir::opt::split_webs(f);
        }
        fpa_ir::verify::verify_module(&m)
    })
    .map_err(|e| format!("verify: {e}"))?;
    t.count("ir.opt.insts", static_insts(&m));
    let (golden, profile) = t
        .span("ir.interp", |_| Interp::new(&m).run())
        .map_err(|e| format!("profile: {e}"))?;
    t.count("ir.interp.insts", dynamic_insts(&m, &profile));
    Ok((m, golden, profile))
}

/// Builds all four schemes of `src` under `params`, one span per stage:
/// `frontend`, `ir.opt` (optimize + split webs + verify), `ir.interp`,
/// `partition.basic`, `partition.advanced`, `partition.optimal` (each
/// transform with its verify), and `codegen` (four times). The returned
/// bundle's `timings` are zero; compare everything else.
///
/// # Errors
///
/// The failing stage's error, rendered.
pub fn build_suite(
    t: &mut Tracer,
    src: &str,
    params: &CostParams,
) -> Result<SuiteArtifacts, String> {
    let (m, golden, profile) = front(t, src)?;
    let freq = BlockFreq::from_profile(&m, &profile);

    let conv_assignment = Assignment::conventional(&m);
    let basic_assignment = t.span("partition.basic", |_| partition_basic(&m));
    let mut m2 = m.clone();
    let advanced_assignment = t
        .span("partition.advanced", |_| {
            let a = partition_advanced(&mut m2, &freq, params);
            fpa_ir::verify::verify_module(&m2).map(|()| a)
        })
        .map_err(|e| format!("verify: {e}"))?;
    let mut m3 = m.clone();
    let optimal_assignment = t
        .span("partition.optimal", |_| {
            let a = partition_optimal(&mut m3, &freq, params);
            fpa_ir::verify::verify_module(&m3).map(|()| a)
        })
        .map_err(|e| format!("verify: {e}"))?;

    let basic_stats = PartitionStats::compute(&m, &basic_assignment, &freq);
    let advanced_stats = PartitionStats::compute(&m2, &advanced_assignment, &freq);
    let optimal_stats = PartitionStats::compute(&m3, &optimal_assignment, &freq);
    t.count(
        "partition.copies",
        (advanced_stats.static_copies + optimal_stats.static_copies) as u64,
    );

    let mut backend = |module: &Module, a: &Assignment| {
        let p = t.span("codegen", |_| {
            fpa_codegen::compile_module_timed(module, a).0
        });
        t.count("codegen.static_insts", p.static_size() as u64);
        p
    };
    let conventional = backend(&m, &conv_assignment);
    let basic = backend(&m, &basic_assignment);
    let advanced = backend(&m2, &advanced_assignment);
    let optimal = backend(&m3, &optimal_assignment);

    Ok(SuiteArtifacts {
        conventional,
        basic,
        advanced,
        optimal,
        module: m,
        advanced_module: m2,
        optimal_module: m3,
        conv_assignment,
        basic_assignment,
        advanced_assignment,
        optimal_assignment,
        basic_stats,
        advanced_stats,
        optimal_stats,
        profile,
        golden_output: golden.output,
        golden_exit: golden.exit_code,
        timings: fpa_harness::StageTimings::default(),
    })
}

/// `Compiler::build` under the advanced scheme with `params` (the fuzz
/// oracle's cost-sweep builds): the same spans as [`build_suite`], one
/// partitioner, one backend run. Returns the program, its module and
/// its assignment: what the oracle runs and lints.
///
/// # Errors
///
/// The failing stage's error, rendered.
pub fn build_advanced(
    t: &mut Tracer,
    src: &str,
    params: &CostParams,
) -> Result<(fpa_isa::Program, Module, Assignment), String> {
    let (mut m, _, profile) = front(t, src)?;
    let freq = BlockFreq::from_profile(&m, &profile);
    let a = t
        .span("partition.advanced", |_| {
            let a = partition_advanced(&mut m, &freq, params);
            fpa_ir::verify::verify_module(&m).map(|()| a)
        })
        .map_err(|e| format!("verify: {e}"))?;
    t.count(
        "partition.copies",
        PartitionStats::compute(&m, &a, &freq).static_copies as u64,
    );
    let p = t.span("codegen", |_| fpa_codegen::compile_module_timed(&m, &a).0);
    t.count("codegen.static_insts", p.static_size() as u64);
    Ok((p, m, a))
}

/// True when `replica` equals `reference` in everything but wall-clock
/// stage timings.
#[must_use]
pub fn same_suite(replica: &SuiteArtifacts, reference: &SuiteArtifacts) -> bool {
    let mut r = replica.clone();
    r.timings = reference.timings;
    r == *reference
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_harness::Compiler;

    #[test]
    fn replica_equals_build_suite_on_a_workload_and_a_pin() {
        let pin = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../fuzz/corpus/pin_copy_chain.zc"
        );
        let sources = [
            fpa_workloads::by_name("compress").expect("compress").source,
            std::fs::read_to_string(pin).expect("pin readable"),
        ];
        let params = CostParams::default();
        for src in &sources {
            let mut t = Tracer::new();
            let replica = build_suite(&mut t, src, &params).expect("replica builds");
            let reference = Compiler::new(src).build_suite().expect("build_suite");
            assert!(same_suite(&replica, &reference), "replica diverged");
            let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "frontend",
                    "ir.opt",
                    "ir.interp",
                    "partition.basic",
                    "partition.advanced",
                    "partition.optimal",
                    "codegen",
                    "codegen",
                    "codegen",
                    "codegen"
                ]
            );
            assert!(t.counter("ir.interp.insts") > 0);
        }
    }

    #[test]
    fn advanced_replica_equals_compiler_build() {
        let src = fpa_workloads::by_name("li").expect("li").source;
        let params = CostParams {
            o_copy: 6.0,
            o_dupl: 3.0,
            balance_cap: None,
        };
        let (program, module, assignment) =
            build_advanced(&mut Tracer::new(), &src, &params).expect("replica builds");
        let reference = Compiler::new(&src)
            .scheme(fpa_harness::Scheme::Advanced)
            .cost_params(params)
            .build()
            .expect("build");
        assert_eq!(program, reference.program);
        assert_eq!(module, reference.module);
        assert_eq!(assignment, reference.assignment);
    }

    #[test]
    fn a_changed_program_is_not_the_same_suite() {
        let src = fpa_workloads::by_name("compress").expect("compress").source;
        let reference = Compiler::new(&src).build_suite().expect("build_suite");
        let mut other = reference.clone();
        other.golden_exit += 1;
        assert!(!same_suite(&other, &reference));
    }
}
