//! # fpa-fuzz
//!
//! Differential fuzzing for the whole compiler pipeline.
//!
//! The paper's central claim is *observable equivalence*: a program
//! compiled with integer work offloaded to the idle floating-point
//! subsystem (basic or advanced scheme, any cost parameters) must behave
//! exactly like its conventional build. The hand-written workloads only
//! cover a sliver of the input space; this crate closes the gap with a
//! generate–check–shrink loop:
//!
//! 1. [`gen`] draws a random, always-terminating, never-faulting `zinc`
//!    program from a seed (functions, params, loops, branches,
//!    int/double mixing, calls, array stores/loads);
//! 2. [`oracle`] compiles it conventionally, with `partition_basic`,
//!    and with `partition_advanced` across a cost-parameter sweep, and
//!    demands agreement with the IR interpreter's golden run plus the
//!    per-scheme invariants (no `*A` ops conventionally, no copies under
//!    the basic scheme, `verify_module` on every advanced assignment);
//! 3. on failure, [`shrink`] minimizes the program while the failure
//!    kind reproduces, and [`corpus`] writes a self-contained `.zc`
//!    reproducer (seed and provenance in `//` comments) to
//!    `fuzz/corpus/`, which the regression tests replay.
//!
//! [`campaign`] ties it together: a coverage-guided campaign evolves
//! cases across independent lineages, fanned out over the harness's
//! worker pool, and merges shard reports deterministically. The
//! `fpa-fuzz` binary is the CLI (`fpa-fuzz --cases 1000 --seed 1
//! --jobs 4`). Runs are deterministic for a fixed seed at any job count
//! and any shard split.

pub mod ast;
pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod distill;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use ast::GProgram;
pub use campaign::{
    case_seed, merge_shards, parse_seed, run_campaign, CampaignConfig, CampaignFailure,
    MergedReport, ShardReport,
};
pub use corpus::CorpusError;
pub use coverage::{extract, CoverageMap, CoverageSignature};
pub use distill::{distill, union_coverage, write_pins, DistilledCase, NovelCase};
pub use gen::{generate, GenConfig, GenWeights};
pub use oracle::{
    case_store_key, check_case, check_source, CheckedCase, FailureKind, OracleFailure, OracleStats,
    COST_SWEEP,
};
pub use shrink::{candidates, minimize};
