//! Partition-soundness lint sweep over the experiment matrix — the
//! engine behind `fpa-report --lint` and `fpa-cc --lint`.
//!
//! Every (workload, scheme) cell runs the binary-level linter from
//! `fpa-analysis` over the scheme's emitted program *together with* the
//! IR module and partition assignment it was compiled from, so the
//! claimed-vs-emitted checks (FPA005/FPA006) fire alongside the pure
//! dataflow ones. The linter is machine-width independent — the same
//! binary runs on both presets — so the sweep covers each binary once
//! and its verdict stands for every timing configuration.

use crate::compiler::Scheme;
use crate::engine::{parallel_map, ExperimentContext};
use crate::pipeline::CompiledWorkload;
use fpa_analysis::Finding;

/// One linted (workload, scheme) cell.
#[derive(Debug, Clone)]
pub struct LintRow {
    /// Workload name.
    pub workload: String,
    /// Which binary was linted.
    pub scheme: Scheme,
    /// Instructions analyzed (static size of the binary).
    pub insts: usize,
    /// Findings, sorted by (pc, code). Empty on a sound build.
    pub findings: Vec<Finding>,
}

impl LintRow {
    /// True when the linter proved every partition invariant.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints all four scheme binaries of one compiled workload, each
/// against its own IR module and assignment.
#[must_use]
pub fn lint_workload(c: &CompiledWorkload) -> Vec<LintRow> {
    c.suite
        .scheme_views()
        .into_iter()
        .map(|(scheme, prog, module, assignment)| LintRow {
            workload: c.name.clone(),
            scheme,
            insts: prog.static_size(),
            findings: fpa_analysis::lint(prog, Some(module), Some(assignment)),
        })
        .collect()
}

/// Runs the linter over every (workload, scheme) cell of `ctx`, fanning
/// workloads across the context's worker pool. Rows come back in
/// (workload, scheme) order. Linting is pure analysis — it cannot fail,
/// only find.
#[must_use]
pub fn lint_matrix(ctx: &ExperimentContext) -> Vec<LintRow> {
    let cells: Vec<_> = ctx.compiled().iter().collect();
    parallel_map(&cells, ctx.jobs(), |&c| lint_workload(c))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_partition::CostParams;

    #[test]
    fn full_lint_sweep_is_clean_on_li() {
        let set = vec![fpa_workloads::by_name("li").unwrap()];
        let ctx = ExperimentContext::new(&set, &CostParams::default(), 1).unwrap();
        let rows = lint_matrix(&ctx);
        // 1 workload x 4 schemes.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.clean(),
                "{} {}: {:?}",
                row.workload,
                row.scheme,
                row.findings
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
            assert!(row.insts > 0);
        }
    }
}
