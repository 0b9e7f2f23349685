//! The paper's experiments: the figure row types and their formulas,
//! the optimality-gap table and the cost-model ablation.
//!
//! Figures 8–10 and the §7.2 overheads are assembled in one place,
//! [`crate::engine::ExperimentContext::matrix`], which fans their cells
//! across a worker pool through [`crate::cell::run_cells`]. The
//! row-assembly helpers here (`*_row_from`) hold each figure's formula
//! exactly once.

use crate::cell::{run_cells, CellError, CellId, CellMode, CellSpec, WidthPreset};
use crate::compiler::Scheme;
use crate::pipeline::{build, CompiledWorkload};
use fpa_partition::CostParams;
use fpa_sim::{ExecError, FuncSimResult, TimingResult};

/// Functional-simulation fuel (instructions).
pub const FUNC_FUEL: u64 = 200_000_000;
/// Timing-simulation fuel (cycles).
pub const TIMING_FUEL: u64 = 200_000_000;

/// One bar pair of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Workload name.
    pub name: String,
    /// Percent of dynamic instructions in the FP subsystem, basic scheme.
    pub basic_pct: f64,
    /// Percent of dynamic instructions in the FP subsystem, advanced.
    pub advanced_pct: f64,
}

/// One bar (pair) of Figures 9/10.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Workload name.
    pub name: String,
    /// Percent speedup of the basic-scheme binary over conventional.
    pub basic_pct: f64,
    /// Percent speedup of the advanced-scheme binary over conventional.
    pub advanced_pct: f64,
    /// Conventional cycles (for reference).
    pub conventional_cycles: u64,
    /// Fraction of cycles the INT subsystem idled while FPa was busy
    /// (advanced build — §7.3's load-imbalance indicator).
    pub int_idle_fp_busy_frac: f64,
}

/// One row of the §7.2 overhead discussion.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Workload name.
    pub name: String,
    /// Percent increase in dynamic instructions (advanced vs conventional).
    pub dynamic_increase_pct: f64,
    /// Percent of dynamic instructions that are copies (advanced).
    pub copy_pct: f64,
    /// Percent increase in static code size (advanced vs conventional).
    pub static_increase_pct: f64,
    /// Percent change in dynamic loads (advanced vs conventional) —
    /// §6.6's register-pressure discussion.
    pub load_change_pct: f64,
    /// I-cache miss rates (conventional, advanced) on the 4-way machine —
    /// §7.2 reports "very little change in instruction cache hit rates".
    pub icache_miss_rates: (f64, f64),
}

pub(crate) fn pct(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new / old - 1.0) * 100.0
    }
}

// ---- Row assembly (the single home of each figure's formulas) ---------

/// Assembles a Figure 8 row from the basic and advanced functional runs.
pub(crate) fn fig8_row_from(name: &str, basic: &FuncSimResult, adv: &FuncSimResult) -> Fig8Row {
    Fig8Row {
        name: name.to_string(),
        basic_pct: basic.fp_fraction() * 100.0,
        advanced_pct: adv.fp_fraction() * 100.0,
    }
}

/// Assembles a Figure 9/10 row from the three timing runs.
pub(crate) fn speedup_row_from(
    name: &str,
    conv: &TimingResult,
    basic: &TimingResult,
    adv: &TimingResult,
) -> SpeedupRow {
    debug_assert_eq!(conv.output, basic.output);
    debug_assert_eq!(conv.output, adv.output);
    SpeedupRow {
        name: name.to_string(),
        basic_pct: pct(conv.cycles as f64, basic.cycles as f64),
        advanced_pct: pct(conv.cycles as f64, adv.cycles as f64),
        conventional_cycles: conv.cycles,
        int_idle_fp_busy_frac: adv.int_idle_fp_busy as f64 / adv.cycles as f64,
    }
}

/// Assembles a §7.2 overhead row. `tc`/`ta` are the conventional and
/// advanced binaries timed on the 4-way machine (the table compares
/// i-cache behaviour on one fixed machine; the augmented flag does not
/// change a binary's timing).
pub(crate) fn overhead_row_from(
    c: &CompiledWorkload,
    conv: &FuncSimResult,
    adv: &FuncSimResult,
    tc: &TimingResult,
    ta: &TimingResult,
) -> OverheadRow {
    let miss_rate = |(a, m): (u64, u64)| if a == 0 { 0.0 } else { m as f64 / a as f64 };
    OverheadRow {
        name: c.name.clone(),
        dynamic_increase_pct: pct(adv.total as f64, conv.total as f64),
        copy_pct: adv.copies as f64 / adv.total as f64 * 100.0,
        static_increase_pct: pct(
            c.suite.advanced.static_size() as f64,
            c.suite.conventional.static_size() as f64,
        ),
        load_change_pct: pct(adv.loads as f64, conv.loads as f64),
        icache_miss_rates: (miss_rate(tc.icache), miss_rate(ta.icache)),
    }
}

fn timing(r: &crate::cell::CellResult) -> &TimingResult {
    r.payload.timing().expect("timing cell")
}

/// One row of the optimality-gap table: how close the paper's heuristics
/// come to the exact min-cut partition, in simulated cycles on the 4-way
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalityGapRow {
    /// Workload name.
    pub name: String,
    /// Cycles of the basic-scheme binary.
    pub basic_cycles: u64,
    /// Cycles of the advanced-scheme binary.
    pub advanced_cycles: u64,
    /// Cycles of the exact min-cut binary.
    pub optimal_cycles: u64,
    /// Percent of advanced cycles shaved by the exact partition:
    /// `(advanced - optimal) / advanced * 100`. Positive means the
    /// heuristic left cycles on the table; small negative values are
    /// microarchitectural effects the offload cost model cannot see
    /// (cache layout, port contention), not a modeling bug — the model
    /// objective itself is provably minimized (see `tests/optimality.rs`).
    pub gap_pct: f64,
}

/// The optimality-gap table: every workload's basic/advanced/optimal
/// binaries timed on the 4-way machine.
///
/// # Errors
///
/// Returns the first simulation failure.
pub fn optimality_gap(compiled: &[CompiledWorkload]) -> Result<Vec<OptimalityGapRow>, ExecError> {
    let mut specs = Vec::with_capacity(3 * compiled.len());
    for c in compiled {
        for scheme in [Scheme::Basic, Scheme::Advanced, Scheme::Optimal] {
            specs.push(CellSpec::new(
                CellId::new(c.name.clone(), scheme, WidthPreset::FourWay),
                CellMode::Timing,
                TIMING_FUEL,
            ));
        }
    }
    let results = run_cells(compiled, &specs, 1).map_err(CellError::into_exec)?;
    Ok(compiled
        .iter()
        .zip(results.chunks_exact(3))
        .map(|(c, r)| {
            let (basic, adv, opt) = (timing(&r[0]), timing(&r[1]), timing(&r[2]));
            debug_assert_eq!(basic.output, opt.output);
            OptimalityGapRow {
                name: c.name.clone(),
                basic_cycles: basic.cycles,
                advanced_cycles: adv.cycles,
                optimal_cycles: opt.cycles,
                gap_pct: (adv.cycles as f64 - opt.cycles as f64) / adv.cycles as f64 * 100.0,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExperimentContext;

    /// A cheap smoke test over two workloads; the full matrix is pinned
    /// by `tests/golden_stats.rs` and printed by `fpa-report`.
    #[test]
    fn fig8_and_fig9_shapes_on_two_workloads() {
        let set: Vec<_> = ["m88ksim", "li"]
            .iter()
            .map(|n| fpa_workloads::by_name(n).unwrap())
            .collect();
        let m = ExperimentContext::new(&set, &CostParams::default(), 1)
            .unwrap()
            .matrix()
            .unwrap();
        assert_eq!(m.fig8.len(), 2);
        for row in &m.fig8 {
            assert!(row.advanced_pct >= row.basic_pct - 1e-9, "{row:?}");
            assert!(row.advanced_pct < 60.0, "{row:?}");
        }
        // m88ksim-analogue should speed up; nothing should slow down
        // catastrophically.
        for row in &m.fig9 {
            assert!(row.advanced_pct > -5.0, "{row:?}");
        }
        let m88 = m.fig9.iter().find(|r| r.name == "m88ksim").unwrap();
        assert!(m88.advanced_pct > 0.5, "m88ksim should gain: {m88:?}");
    }

    /// The gap table's cells must be real runs with consistent shapes;
    /// the modeled-objective dominance proof lives in `tests/optimality.rs`.
    #[test]
    fn optimality_gap_shape_on_one_workload() {
        let w = fpa_workloads::by_name("li").unwrap();
        let compiled = vec![build(&w, &CostParams::default()).unwrap()];
        let rows = optimality_gap(&compiled).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.basic_cycles > 0 && r.advanced_cycles > 0 && r.optimal_cycles > 0);
        let expected =
            (r.advanced_cycles as f64 - r.optimal_cycles as f64) / r.advanced_cycles as f64 * 100.0;
        assert!((r.gap_pct - expected).abs() < 1e-12, "{r:?}");
    }
}

/// One point of the cost-model ablation (§6.1's empirical calibration).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Workload name.
    pub name: String,
    /// The copy overhead constant used.
    pub o_copy: f64,
    /// The duplication overhead constant used.
    pub o_dupl: f64,
    /// Percent of dynamic instructions in the FP subsystem.
    pub offload_pct: f64,
    /// Percent speedup over conventional on the 4-way machine.
    pub speedup_pct: f64,
}

/// Sweeps the cost-model constants over the paper's empirical ranges
/// (`o_copy` in 3..=6, `o_dupl` in {1.5, 3}) for the given workloads —
/// the experiment behind §6.1's "determined empirically" sentence. Like
/// the paper's calibration, every point re-partitions one optimized,
/// profiled program: each workload runs the front half once, and each
/// point is one advanced-scheme back half on it.
///
/// # Errors
///
/// Returns the first pipeline or simulation failure.
pub fn ablate_cost_params(names: &[&str]) -> Result<Vec<AblationRow>, Box<dyn std::error::Error>> {
    let machine = |augmented| WidthPreset::FourWay.config(augmented);
    let mut rows = Vec::new();
    for name in names {
        let w = fpa_workloads::by_name(name).ok_or("unknown workload")?;
        let suite = build(&w, &CostParams::default())?.suite;
        let base_cycles =
            fpa_sim::simulate(&suite.conventional, &machine(false), TIMING_FUEL)?.cycles;
        for o_copy in [3.0, 4.0, 5.0, 6.0] {
            for o_dupl in [1.5, 3.0f64.min(o_copy - 0.5)] {
                let params = CostParams {
                    o_copy,
                    o_dupl,
                    balance_cap: None,
                };
                let advanced = suite.rebuild(Scheme::Advanced, &params)?.program;
                let run = fpa_sim::run_functional(&advanced, FUNC_FUEL)?;
                let cycles = fpa_sim::simulate(&advanced, &machine(true), TIMING_FUEL)?.cycles;
                rows.push(AblationRow {
                    name: w.name.clone(),
                    o_copy,
                    o_dupl,
                    offload_pct: run.fp_fraction() * 100.0,
                    speedup_pct: (base_cycles as f64 / cycles as f64 - 1.0) * 100.0,
                });
            }
        }
    }
    Ok(rows)
}
