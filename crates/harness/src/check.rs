//! Lockstep co-simulation sweep over the experiment matrix — the engine
//! behind `fpa-report --check`.
//!
//! Every [`CellId`] (workload, scheme, machine-width) re-runs its timing
//! simulation under the full [`fpa_sim::cosim`] harness: the lockstep
//! checker diffs each retirement against an independent functional
//! execution, the invariant checker audits the pipeline's structural
//! rules, and the final output/exit code is additionally compared
//! against the workload's golden interpreter run. Cells batch through
//! the same [`crate::cell::run_cells`] path as the figure matrix.

use crate::cell::{run_cells, CellError, CellId, CellMode, CellSpec, WidthPreset};
use crate::compiler::Scheme;
use crate::engine::ExperimentContext;
use crate::experiments::TIMING_FUEL;
use crate::pipeline::CompiledWorkload;
use fpa_sim::{CosimReport, ExecError, Violation};

/// One checked (workload, scheme, machine) cell.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Which cell ran.
    pub id: CellId,
    /// Cycles the run took.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Stored violations (capped per checker; see `total_violations`).
    pub violations: Vec<Violation>,
    /// Total violations detected, including beyond the storage cap.
    pub total_violations: u64,
}

impl CheckRow {
    /// True when every lockstep, invariant, and golden check passed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.total_violations == 0
    }
}

/// Folds one cell's co-simulation report into a [`CheckRow`], appending
/// synthetic violations when the timing run disagrees with the
/// workload's golden interpreter output or exit code.
fn check_row(id: CellId, c: &CompiledWorkload, report: &CosimReport) -> CheckRow {
    let mut violations = report.violations.clone();
    let mut total = report.total_violations;
    // The lockstep checker proves timing == functional; this closes the
    // loop back to the IR interpreter's golden run.
    let mut golden = |check: &'static str, detail: String| {
        total += 1;
        violations.push(Violation {
            cycle: report.result.cycles,
            seq: report.result.retired,
            pc: None,
            op: None,
            check,
            detail,
        });
    };
    if report.result.output != c.suite.golden_output {
        golden(
            "golden-output",
            format!(
                "timing output {:?} != interpreter golden {:?}",
                truncated(&report.result.output),
                truncated(&c.suite.golden_output)
            ),
        );
    }
    if report.result.exit_code != c.suite.golden_exit {
        golden(
            "golden-exit",
            format!(
                "timing exit code {} != interpreter golden {}",
                report.result.exit_code, c.suite.golden_exit
            ),
        );
    }
    CheckRow {
        id,
        cycles: report.result.cycles,
        retired: report.result.retired,
        violations,
        total_violations: total,
    }
}

fn truncated(s: &str) -> String {
    const MAX: usize = 60;
    if s.len() <= MAX {
        s.to_string()
    } else {
        format!("{}... ({} bytes)", &s[..MAX], s.len())
    }
}

/// Runs every (workload, scheme, machine) cell of `ctx` under lockstep
/// co-simulation, batching cells across the context's worker pool. Rows
/// come back in (workload, machine, scheme) order.
///
/// # Errors
///
/// Returns the first simulation failure (by cell order). Checker
/// violations are *not* errors — they are reported in the rows.
pub fn check_matrix(ctx: &ExperimentContext) -> Result<Vec<CheckRow>, ExecError> {
    let mut specs = Vec::new();
    for c in ctx.compiled() {
        for width in WidthPreset::ALL {
            for scheme in Scheme::ALL {
                specs.push(CellSpec::new(
                    CellId::new(c.name.clone(), scheme, width),
                    CellMode::Cosim,
                    TIMING_FUEL,
                ));
            }
        }
    }
    let results = run_cells(ctx.compiled(), &specs, ctx.jobs()).map_err(CellError::into_exec)?;
    Ok(results
        .into_iter()
        .map(|r| {
            let c = ctx
                .compiled()
                .iter()
                .find(|c| c.name == r.id.workload)
                .expect("cell resolved from this store");
            let report = r.payload.cosim().expect("cosim cell");
            check_row(r.id.clone(), c, report)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_partition::CostParams;

    #[test]
    fn full_check_sweep_is_clean_on_li() {
        let set = vec![fpa_workloads::by_name("li").unwrap()];
        let ctx = ExperimentContext::new(&set, &CostParams::default(), 1).unwrap();
        let rows = check_matrix(&ctx).unwrap();
        // 1 workload x 2 machines x 4 schemes.
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(
                row.clean(),
                "{}: {:?}",
                row.id,
                row.violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
            assert!(row.cycles > 0 && row.retired > 0);
        }
    }
}
