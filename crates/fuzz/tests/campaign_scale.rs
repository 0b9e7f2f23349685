//! Campaign-scale acceptance tests for the coverage-guided engine.
//!
//! Two properties from the engine's contract:
//!
//!   1. Feedback pays: a 500-case coverage-guided campaign reaches
//!      strictly more distinct coverage features than the same budget
//!      of fixed-seed cases — case `c` generated from
//!      `case_seed(SEED, c)` at the default grammar, with no feedback.
//!   2. Shard-merge determinism: splitting the same campaign over
//!      1, 2, or 4 shards (at varying `jobs`) merges to byte-identical
//!      report JSON, with identical failure lists.
//!
//! The 500-case unsharded run is computed once and shared between the
//! tests, so the whole file costs three campaign runs plus one pass over
//! the 500 fixed-seed cases.

use fpa_fuzz::{
    case_seed, check_case, generate, merge_shards, run_campaign, CampaignConfig, CoverageMap,
    CoverageSignature, GenConfig, MergedReport,
};
use fpa_harness::engine::parallel_map;
use fpa_testutil::Rng;
use std::sync::OnceLock;

const CASES: u32 = 500;
const SEED: u64 = 0x5eed;

fn campaign(shards: u32, shard_id: u32, jobs: usize) -> fpa_fuzz::ShardReport {
    run_campaign(&CampaignConfig {
        cases: CASES,
        base_seed: SEED,
        jobs,
        shards,
        shard_id,
        ..CampaignConfig::default()
    })
}

/// The canonical unsharded 500-case campaign, merged. Shared across
/// tests in this binary.
fn unsharded() -> &'static MergedReport {
    static REPORT: OnceLock<MergedReport> = OnceLock::new();
    REPORT.get_or_init(|| merge_shards(&[campaign(1, 0, 4)]).expect("single shard merges"))
}

/// The feedback-free baseline: the union of the coverage signatures of
/// cases `0..CASES`, case `c` generated from `case_seed(SEED, c)` at the
/// default grammar (a failing case contributes its failure signature).
fn fixed_seed_coverage() -> CoverageMap {
    let cases: Vec<u32> = (0..CASES).collect();
    let signatures = parallel_map(&cases, 4, |&c| {
        let src = generate(&mut Rng::new(case_seed(SEED, c)), &GenConfig::default()).render();
        match check_case(&src) {
            Ok(checked) => checked.signature,
            Err(f) => CoverageSignature::from_failure(f.kind.label(), &f.config),
        }
    });
    let mut coverage = CoverageMap::new();
    for signature in &signatures {
        coverage.add(signature);
    }
    coverage
}

#[test]
fn guided_campaign_beats_blind_coverage() {
    let blind = fixed_seed_coverage();
    let guided = unsharded();
    assert!(
        guided.coverage.len() > blind.len(),
        "coverage-guided campaign must reach strictly more distinct \
         features than fixed-seed cases at the same budget: guided {} \
         vs fixed-seed {}",
        guided.coverage.len(),
        blind.len()
    );
}

#[test]
fn shard_merge_is_byte_identical_across_splits() {
    let baseline = unsharded();
    let baseline_text = baseline.to_json().render();

    // Two shards, each at a different worker count; merged out of
    // order to prove merge order doesn't matter either.
    let two = merge_shards(&[campaign(2, 1, 3), campaign(2, 0, 1)]).expect("2-shard merge");
    assert_eq!(
        two.to_json().render(),
        baseline_text,
        "2-shard merged report must be byte-identical to the unsharded run"
    );

    let four_reports: Vec<_> = (0..4).map(|k| campaign(4, k, 1 + k as usize % 3)).collect();
    let four = merge_shards(&four_reports).expect("4-shard merge");
    assert_eq!(
        four.to_json().render(),
        baseline_text,
        "4-shard merged report must be byte-identical to the unsharded run"
    );

    // Failure lists agree coordinate-by-coordinate (already implied by
    // byte equality of the rendered JSON, but the direct comparison
    // localizes a regression to the failing case).
    let coords = |r: &MergedReport| {
        r.failures
            .iter()
            .map(|f| (f.lineage, f.step, f.kind.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(coords(&two), coords(baseline));
    assert_eq!(coords(&four), coords(baseline));
}
