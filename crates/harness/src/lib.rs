//! # fpa-harness
//!
//! End-to-end experiment harness: compiles every workload four ways
//! (conventional, basic scheme, advanced scheme, exact min-cut), runs
//! functional and timing simulation, and regenerates each table and
//! figure of the paper (see DESIGN.md for the experiment index).
//!
//! The `fpa-report` binary prints any experiment:
//!
//! ```text
//! fpa-report table1   # machine parameters
//! fpa-report table2   # workloads
//! fpa-report fig8     # FPa partition sizes (basic vs advanced)
//! fpa-report fig9     # 4-way speedups
//! fpa-report fig10    # 8-way speedups
//! fpa-report overheads
//! fpa-report fp       # section 7.5, floating-point programs
//! fpa-report all
//! ```

pub mod artifact;
pub mod cell;
pub mod check;
pub mod compiler;
pub mod engine;
pub mod experiments;
pub mod json;
pub mod lint;
pub mod pipeline;
pub mod report;
pub mod serve;

pub use artifact::{build_suite_cached, set_ambient, ArtifactStore, StoreOutcome};
pub use cell::{
    run_cells, CellError, CellId, CellMode, CellPayload, CellResult, CellSpec, WidthPreset,
};
pub use check::{check_matrix, CheckRow};
pub use compiler::{
    frontend_runs, Artifacts, Compiler, Error, Scheme, StageTimings, SuiteArtifacts,
};
pub use engine::{ExperimentContext, MatrixReport, RunTelemetry};
pub use experiments::{ablate_cost_params, AblationRow, Fig8Row, OverheadRow, SpeedupRow};
pub use lint::{lint_matrix, lint_workload, LintRow};
pub use pipeline::{build, CompiledWorkload};
pub use serve::{respond, serve};
