//! Optimality regression over the real workload suite: the exact
//! min-cut partition must dominate both heuristic schemes under the
//! modeled objective, and the max-flow value must equal the objective
//! recomputed independently from the assignment the scheme returns.
//!
//! The per-workload objective totals at default cost parameters are
//! pinned byte-for-byte in `tests/golden/optimality_gap.json` (the
//! source of the README's optimality-gap table). After an intentional
//! cost-model or partitioner change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p fpa --test optimality`.

use fpa_harness::json::Json;
use fpa_harness::Compiler;
use fpa_ir::{FuncId, Interp, Module};
use fpa_partition::exhaustive::assignment_cost;
use fpa_partition::{
    partition_advanced, partition_basic, partition_optimal, BlockFreq, CostModel, CostParams,
    FuncGraph,
};

/// The cost-parameter corners the fuzz oracle sweeps (kept in sync with
/// `fpa_fuzz::oracle::COST_SWEEP`; restated here so the facade test does
/// not depend on the fuzz crate).
const COST_SWEEP: [(f64, f64); 3] = [(3.0, 1.5), (4.5, 2.25), (6.0, 3.0)];

/// One workload's modeled objective under each scheme (scaled units).
struct Objectives {
    name: String,
    basic: i64,
    advanced: i64,
    optimal: i64,
}

/// The shared frontend work per workload: optimized module + profiled
/// block frequencies (the same inputs `Compiler::build` feeds the
/// partitioners).
fn frontend(w: &fpa_workloads::Workload) -> (Module, BlockFreq) {
    let module = Compiler::new(&w.source)
        .optimized_ir()
        .unwrap_or_else(|e| panic!("{}: frontend failed: {e}", w.name));
    let (_, profile) = Interp::new(&module)
        .run()
        .unwrap_or_else(|e| panic!("{}: profiling run failed: {e}", w.name));
    let freq = BlockFreq::from_profile(&module, &profile);
    (module, freq)
}

/// Partitions `module` under all three schemes at one cost point and
/// evaluates every assignment under the shared cost model, asserting
/// exactness (flow value == recomputed objective of the returned
/// assignment) and dominance (optimal <= basic, optimal <= advanced)
/// function by function.
fn objectives(name: &str, module: &Module, freq: &BlockFreq, params: &CostParams) -> Objectives {
    let basic = partition_basic(module);
    let mut m_adv = module.clone();
    let advanced = partition_advanced(&mut m_adv, freq, params);
    let mut m_opt = module.clone();
    let optimal = partition_optimal(&mut m_opt, freq, params);

    let mut totals = Objectives {
        name: name.to_string(),
        basic: 0,
        advanced: 0,
        optimal: 0,
    };
    for (i, func) in module.funcs.iter().enumerate() {
        let graph = FuncGraph::build(func);
        let model = CostModel::build(&graph, freq.of_func(FuncId::new(i as u32)), params);
        let cut = model.min_cut();

        // Exactness: the max-flow value is not just a bound — it must
        // equal the objective recomputed from the assignment the scheme
        // actually handed to codegen.
        let recomputed = assignment_cost(&model, &optimal.funcs[i]);
        assert_eq!(
            cut.cost, recomputed,
            "{name} func {i} (o_copy={}, o_dupl={}): flow value {} != \
             objective {} recomputed from the returned assignment",
            params.o_copy, params.o_dupl, cut.cost, recomputed
        );

        // Dominance: no feasible assignment beats the min cut, so in
        // particular neither heuristic does.
        let cost_basic = assignment_cost(&model, &basic.funcs[i]);
        let cost_adv = assignment_cost(&model, &advanced.funcs[i]);
        assert!(
            cut.cost <= cost_basic,
            "{name} func {i}: optimal {} > basic {}",
            cut.cost,
            cost_basic
        );
        assert!(
            cut.cost <= cost_adv,
            "{name} func {i}: optimal {} > advanced {}",
            cut.cost,
            cost_adv
        );

        totals.basic += cost_basic;
        totals.advanced += cost_adv;
        totals.optimal += cut.cost;
    }
    totals
}

#[test]
fn optimal_dominates_heuristics_on_every_workload_across_the_cost_sweep() {
    for w in fpa_workloads::all() {
        let (module, freq) = frontend(&w);
        for (o_copy, o_dupl) in COST_SWEEP {
            let params = CostParams {
                o_copy,
                o_dupl,
                balance_cap: None,
            };
            // The dominance and exactness assertions live inside.
            let _ = objectives(&w.name, &module, &freq, &params);
        }
    }
}

#[test]
fn optimality_gap_matches_golden() {
    let params = CostParams::default();
    let rows: Vec<Json> = fpa_workloads::all()
        .iter()
        .map(|w| {
            let (module, freq) = frontend(w);
            let o = objectives(&w.name, &module, &freq, &params);
            let gap = |heuristic: i64| {
                if heuristic == 0 {
                    0.0
                } else {
                    (heuristic - o.optimal) as f64 / heuristic as f64 * 100.0
                }
            };
            let mut row = Json::obj();
            row.set("name", o.name.clone())
                .set("basic", o.basic as u64)
                .set("advanced", o.advanced as u64)
                .set("optimal", o.optimal as u64)
                .set("gap_vs_basic_pct", gap(o.basic))
                .set("gap_vs_advanced_pct", gap(o.advanced));
            row
        })
        .collect();
    let mut report = Json::obj();
    report
        .set("schema", "fpa-optimality-gap")
        .set("scale", fpa_partition::optimal::SCALE)
        .set("workloads", rows);
    let rendered = report.render();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/optimality_gap.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden gap file present (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        rendered, golden,
        "modeled optimality gaps drifted from tests/golden/optimality_gap.json; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
