//! Workload-level wrapper over the unified
//! [`Compiler`](crate::compiler::Compiler): one call builds a workload
//! under all four regimes from a single frontend pass.

use crate::artifact::{build_suite_cached, StoreOutcome};
use crate::compiler::{Error, Scheme, SuiteArtifacts};
use fpa_partition::CostParams;
use fpa_workloads::Workload;

/// A workload compiled under all four regimes.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    /// The workload name.
    pub name: String,
    /// The four builds and the one front half they came from.
    pub suite: SuiteArtifacts,
}

impl CompiledWorkload {
    /// Names a compiler [`SuiteArtifacts`] bundle (freshly built or
    /// decoded from the artifact store) as the engine's workload form.
    #[must_use]
    pub fn from_suite(name: &str, suite: SuiteArtifacts) -> CompiledWorkload {
        CompiledWorkload {
            name: name.to_string(),
            suite,
        }
    }

    /// Runs every scheme's binary through functional simulation and
    /// checks it against the golden interpreter run, propagating — not
    /// panicking on — any fault or divergence. The returned error names
    /// this workload and the offending scheme, so one bad program in a
    /// matrix or fuzz batch is reported precisely instead of aborting
    /// the whole run.
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] when a binary faults, [`Error::Divergence`] when
    /// output or exit code differ from the golden run — each wrapped in
    /// [`Error::Workload`].
    pub fn check(&self, fuel: u64) -> Result<(), Error> {
        let s = &self.suite;
        for scheme in Scheme::ALL {
            let wrap = |e: Error| e.in_workload(&self.name);
            let r = fpa_sim::run_functional(s.program(scheme), fuel)
                .map_err(|source| wrap(Error::Exec { scheme, source }))?;
            if r.output != s.golden_output {
                return Err(wrap(Error::Divergence {
                    scheme,
                    detail: format!(
                        "output mismatch: expected {:?}, got {:?}",
                        s.golden_output, r.output
                    ),
                }));
            }
            if r.exit_code != s.golden_exit {
                return Err(wrap(Error::Divergence {
                    scheme,
                    detail: format!(
                        "exit code mismatch: expected {}, got {}",
                        s.golden_exit, r.exit_code
                    ),
                }));
            }
        }
        Ok(())
    }
}

/// Compiles `workload` conventionally and under the basic, advanced,
/// and exact (min-cut) partitioning schemes, using an interpreter
/// profile for the cost models (exactly the paper's methodology,
/// §6.1/§7.1). The frontend and the profiler each run once; the
/// advanced and optimal schemes each transform a clone of the shared
/// optimized module.
///
/// Goes through the ambient artifact store when one is configured
/// ([`crate::artifact::set_ambient`]); use
/// [`build_traced`] to also observe whether the cache was hit.
///
/// # Errors
///
/// Returns an [`Error`] if any stage fails.
pub fn build(workload: &Workload, params: &CostParams) -> Result<CompiledWorkload, Error> {
    build_traced(workload, params).map(|(c, _)| c)
}

/// [`build`] plus how the ambient artifact store satisfied the request
/// ([`StoreOutcome::Disabled`] when no store is configured).
///
/// # Errors
///
/// Returns an [`Error`] if any stage fails.
pub fn build_traced(
    workload: &Workload,
    params: &CostParams,
) -> Result<(CompiledWorkload, StoreOutcome), Error> {
    let (suite, outcome) = build_suite_cached(&workload.source, params)?;
    Ok((CompiledWorkload::from_suite(&workload.name, suite), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_sim::run_functional;

    const FUEL: u64 = 100_000_000;

    #[test]
    fn all_four_builds_of_compress_agree_with_golden() {
        let w = fpa_workloads::by_name("compress").unwrap();
        let c = build(&w, &CostParams::default()).unwrap();
        // `check` propagates a structured error naming the workload and
        // the diverging scheme (instead of the old inline panic).
        c.check(FUEL).unwrap();
    }

    #[test]
    fn check_reports_workload_and_scheme_on_divergence() {
        let w = fpa_workloads::by_name("compress").unwrap();
        let mut c = build(&w, &CostParams::default()).unwrap();
        c.suite.golden_exit = c.suite.golden_exit.wrapping_add(1); // force a mismatch
        let e = c.check(FUEL).unwrap_err();
        assert_eq!(e.scheme(), Some(crate::compiler::Scheme::Conventional));
        let msg = e.to_string();
        assert!(
            msg.contains("compress") && msg.contains("exit code mismatch"),
            "unhelpful error: {msg}"
        );
    }

    #[test]
    fn basic_offload_is_between_conventional_and_advanced() {
        let w = fpa_workloads::by_name("m88ksim").unwrap();
        let c = build(&w, &CostParams::default()).unwrap();
        let conv = run_functional(&c.suite.conventional, FUEL).unwrap();
        let basic = run_functional(&c.suite.basic, FUEL).unwrap();
        let adv = run_functional(&c.suite.advanced, FUEL).unwrap();
        assert_eq!(conv.augmented, 0);
        assert!(
            basic.augmented > 0,
            "basic should offload something on m88ksim"
        );
        assert!(
            adv.fp_fraction() >= basic.fp_fraction(),
            "advanced ({:.3}) should be >= basic ({:.3})",
            adv.fp_fraction(),
            basic.fp_fraction()
        );
    }
}
