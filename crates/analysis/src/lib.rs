//! # fpa-analysis
//!
//! Binary-level static analysis for the augmented-FP machine: a reusable
//! dataflow framework over linked [`fpa_isa::Program`]s, and on top of it
//! the **partition-soundness linter** — a translation validator that
//! re-proves, per function, the invariants the paper's INT/FPa partition
//! rests on (boundary crossings only via explicit copies, INT-resident
//! address and call/return slices, calling-convention conformance,
//! definite initialization, and agreement between the claimed
//! [`fpa_partition::Assignment`] and the code actually emitted).
//!
//! The framework layers:
//!
//! * [`cfg`](mod@cfg) — function-span and control-flow recovery from the symbol
//!   table and branch targets, plus witness-path extraction;
//! * [`solver`] — a generic forward worklist solver over join-semilattice
//!   domains ([`solver::JoinLattice`]), and the per-register abstract
//!   domain ([`solver::AbsVal`], [`solver::RegState`]) tracking
//!   initialized-ness, entry-value staleness, and FPa taint;
//! * [`lint`](mod@lint) — the six `FPA001`–`FPA006` checks producing structured
//!   [`Finding`]s.
//!
//! Use [`lint()`] directly, or through `fpa-cc --lint` /
//! `fpa-report --lint` / the fuzzing oracle.

pub mod cfg;
#[doc(hidden)]
pub mod corrupt;
pub mod lint;
pub mod solver;

pub use cfg::{function_spans, Cfg, FuncSpan};
pub use lint::{lint, lint_with_touches, ErrorCode, Finding, RuleTouches};
pub use solver::{solve_forward, AbsVal, JoinLattice, RegState, Solution};
