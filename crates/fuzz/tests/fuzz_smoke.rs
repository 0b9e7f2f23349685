//! End-to-end checks of the fuzzing subsystem itself: a clean bounded
//! campaign, determinism across worker counts, seed parsing, and — the
//! critical one — proof that an *injected* codegen bug is caught by the
//! differential oracle and shrunk to a small reproducer.

use fpa_fuzz::gen::{generate, GenConfig};
use fpa_fuzz::{
    case_seed, merge_shards, minimize, parse_seed, run_campaign, CampaignConfig, GProgram,
    MergedReport,
};
use fpa_harness::Compiler;
use fpa_isa::Op;
use fpa_sim::run_functional;
use fpa_testutil::Rng;

const FUEL: u64 = 50_000_000;

/// An unsharded `cases`-case campaign at `base_seed` on `jobs` workers,
/// merged.
fn campaign(cases: u32, base_seed: u64, jobs: usize) -> MergedReport {
    let shard = run_campaign(&CampaignConfig {
        cases,
        base_seed,
        jobs,
        ..CampaignConfig::default()
    });
    merge_shards(std::slice::from_ref(&shard)).expect("single shard merges")
}

#[test]
fn bounded_campaign_is_clean_and_exercises_offloading() {
    let cases = 40;
    let s = campaign(cases, 0x5eed, 2);
    assert!(
        s.ok(),
        "campaign found {} divergences; first: {}",
        s.failures.len(),
        s.failures[0].message
    );
    // The generator must produce programs the partitioner actually
    // offloads, or the fuzzer is not testing the paper's mechanism.
    assert!(
        s.offloaded_cases > cases / 4,
        "only {}/{cases} cases offloaded",
        s.offloaded_cases
    );
    // Every case checks the default advanced build plus the 3-point sweep.
    assert_eq!(s.advanced_builds, u64::from(cases) * 4);
    // ...and co-simulates all four default builds on the timing machine.
    assert_eq!(s.timing_checked, u64::from(cases) * 4);
}

#[test]
fn cosim_failures_stay_zero_on_200_seeded_cases() {
    // The wakeup-driven simulator fast path runs under lockstep
    // co-simulation on every fuzz case; across 200 seeded cases not one
    // may trip a lockstep or invariant check (FailureKind::Cosim).
    let cases = 200;
    let jobs = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let s = campaign(cases, 0xfa57, jobs);
    let cosim: Vec<_> = s.failures.iter().filter(|f| f.kind == "cosim").collect();
    assert!(
        cosim.is_empty(),
        "{} case(s) tripped co-simulation; first: {}",
        cosim.len(),
        cosim[0].message
    );
    // Four timing runs per case (conventional/basic/advanced/optimal, 4-way).
    assert_eq!(s.timing_checked, u64::from(cases) * 4);
}

#[test]
fn campaign_summary_is_identical_for_any_job_count() {
    let a = campaign(16, 7, 1).to_json().render();
    let b = campaign(16, 7, 3).to_json().render();
    assert_eq!(a, b, "summary depends on --jobs");
}

#[test]
fn seed_parsing_accepts_decimal_hex_and_mnemonics() {
    assert_eq!(parse_seed("42"), 42);
    assert_eq!(parse_seed("0xff"), 255);
    // `0xfpa2` is not valid hex; it must still parse (via hashing) and
    // be stable.
    let a = parse_seed("0xfpa2");
    let b = parse_seed("0xfpa2");
    assert_eq!(a, b);
    assert_ne!(a, 0);
    assert_ne!(parse_seed("0xfpa2"), parse_seed("0xfpa3"));
}

/// Emulates a codegen bug by patching the basic-scheme binary (the first
/// `addi rd, rs, 1` becomes `addi rd, rs, 2`) and returns true when the
/// patched binary observably diverges from the golden run.
fn diverges_under_injected_bug(p: &GProgram) -> bool {
    let src = p.render();
    let Ok(suite) = Compiler::new(&src).build_suite() else {
        return false;
    };
    let mut prog = suite.basic;
    let Some(inst) = prog
        .code
        .iter_mut()
        .find(|i| i.op == Op::Addi && i.imm == 1)
    else {
        return false;
    };
    inst.imm = 2;
    match run_functional(&prog, FUEL) {
        Ok(r) => r.output != suite.golden_output || r.exit_code != suite.golden_exit,
        Err(_) => true,
    }
}

#[test]
fn injected_codegen_bug_is_caught_and_shrunk_small() {
    // Find the first generated case the injected bug makes observable
    // (deterministic: fixed base seed, ascending cases).
    let gen_cfg = GenConfig::default();
    let mut victim = None;
    for case in 0..40u32 {
        let p = generate(&mut Rng::new(case_seed(0xb06, case)), &gen_cfg);
        if diverges_under_injected_bug(&p) {
            victim = Some(p);
            break;
        }
    }
    let p = victim.expect("no generated case exposed the injected +1 -> +2 bug");
    let original_lines = p.source_lines();

    let (min, steps) = minimize(p, diverges_under_injected_bug);
    assert!(diverges_under_injected_bug(&min));
    assert!(steps > 0, "shrinking made no progress");
    assert!(
        min.source_lines() <= 20,
        "minimized reproducer still {} lines (from {original_lines}):\n{}",
        min.source_lines(),
        min.render()
    );
}
