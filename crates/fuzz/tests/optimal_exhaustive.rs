//! Brute-force differential validation of the exact min-cut
//! partitioner, over the fuzzer's own program generator.
//!
//! For every function of every generated program whose RDG collapses to
//! at most 16 free sibling groups, the partitioning problem is solved
//! twice: by the Dinic max-flow reduction ([`CostModel::min_cut`]) and
//! by exhaustive enumeration of every feasible group assignment
//! ([`exhaustive_minimum`]). The two minima must agree exactly — any
//! mismatch means the network construction mis-encodes the cost model,
//! which is precisely the class of bug a plausible-looking flow network
//! hides best.

use fpa_fuzz::oracle::COST_SWEEP;
use fpa_fuzz::{case_seed, generate, GenConfig};
use fpa_harness::Compiler;
use fpa_ir::FuncId;
use fpa_partition::{exhaustive_minimum, BlockFreq, CostModel, CostParams, FuncGraph};
use fpa_testutil::Rng;

/// Search-space cap: 2^20 assignments per function is the largest
/// brute force that stays cheap enough for a 200-case sweep.
const MAX_GROUPS: u32 = 20;

/// Runs the differential check on every function of one generated
/// program at one cost-parameter point. Returns how many functions were
/// small enough to brute-force.
fn check_program(case: u32, src: &str, params: &CostParams) -> u32 {
    let module = Compiler::new(src)
        .optimized_ir()
        .unwrap_or_else(|e| panic!("case {case}: generated program rejected: {e}"));
    let freq = BlockFreq::estimated(&module);
    let mut solved = 0;
    for (i, func) in module.funcs.iter().enumerate() {
        let graph = FuncGraph::build(func);
        let model = CostModel::build(&graph, freq.of_func(FuncId::new(i as u32)), params);
        let Some(exact) = exhaustive_minimum(&model, MAX_GROUPS) else {
            continue;
        };
        let cut = model.min_cut();
        assert!(
            model.feasible(&cut.side),
            "case {case} func {i}: min-cut returned an infeasible assignment"
        );
        assert_eq!(
            cut.cost, exact.cost,
            "case {case} func {i} ({} free groups, o_copy={}, o_dupl={}): \
             max-flow minimum {} != brute-force minimum {}",
            exact.free_groups, params.o_copy, params.o_dupl, cut.cost, exact.cost
        );
        solved += 1;
    }
    solved
}

#[test]
fn min_cut_matches_brute_force_on_a_300_program_corpus() {
    let params = CostParams::default();
    let mut solved = 0u32;
    for case in 0..300u32 {
        let src = generate(
            &mut Rng::new(case_seed(0xd1f1, case)),
            &GenConfig::default(),
        )
        .render();
        solved += check_program(case, &src, &params);
    }
    // The generator must keep producing functions small enough to
    // brute-force, or this test silently loses its power.
    assert!(
        solved >= 200,
        "only {solved} function instances were brute-forced across 300 programs"
    );
}

#[test]
fn min_cut_matches_brute_force_across_the_cost_sweep() {
    // The sweep points move the copy/duplicate trade-off, which changes
    // both edge capacities and the duplication fixpoint — each point is
    // a different network for the same RDG.
    let mut solved = 0u32;
    for case in 0..80u32 {
        let src = generate(
            &mut Rng::new(case_seed(0x0b5e55, case)),
            &GenConfig::default(),
        )
        .render();
        for (o_copy, o_dupl) in COST_SWEEP {
            let params = CostParams {
                o_copy,
                o_dupl,
                balance_cap: None,
            };
            solved += check_program(case, &src, &params);
        }
    }
    assert!(
        solved >= 120,
        "only {solved} (function, cost-point) instances were brute-forced"
    );
}
