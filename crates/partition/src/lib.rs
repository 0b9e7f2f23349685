//! # fpa-partition
//!
//! The paper's two compiler code-partitioning schemes, which assign integer
//! computation to the augmented floating-point subsystem (FPa):
//!
//! * [`basic::partition_basic`] — §5's *basic scheme*: no new instructions;
//!   connected components of the undirected register dependence graph that
//!   contain no load/store-address, call, or return nodes move to FPa
//!   wholesale, communicating only through existing loads and stores.
//! * [`advanced::partition_advanced`] — §6's *advanced scheme*: inserts
//!   `cp_to_fpa` copies and duplicates cheap instructions to sever more of
//!   the graph, guided by a profile-driven cost model
//!   (`Profit = Benefit − Overhead` with per-copy overhead `o_copy` and
//!   per-duplicate overhead `o_dupl`, empirically best in `[3,6]` and
//!   `[1.5,3]` respectively — Section 6.1).
//!
//! Beyond the paper, [`optimal::partition_optimal`] solves the same
//! profit model *exactly* as a minimum s-t cut (Dinic's max-flow over the
//! RDG), bounding how much the greedy schemes leave on the table, and
//! [`exhaustive::exhaustive_minimum`] brute-forces small RDGs as an
//! independent oracle for the min-cut solver.
//!
//! All three schemes and the oracle read one [`fpa_rdg::Rdg`] per
//! function: the RDG with its node classes, instructions, register
//! definitions and pinning facts, built once by [`fpa_rdg::Rdg::build`].
//! The `*_with` entry points take a module's graphs from the caller, so a
//! suite builds them once for all schemes; the plain entry points build
//! them and delegate. Besides the schemes, this crate holds the partition
//! policy over that graph: which nodes may be duplicated, and the
//! instruction sides and register homes a side vector implies.
//!
//! All schemes produce an [`Assignment`] consumed by `fpa-codegen`: a
//! subsystem per instruction plus a home register file per virtual
//! register.
//! Execution frequencies come from an interpreter [`fpa_ir::Profile`] or,
//! for uncovered functions, the paper's probabilistic estimate
//! `n_B = p_B * 5^d_B` ([`freq::BlockFreq`]).

pub mod advanced;
pub mod assignment;
pub mod basic;
pub mod exhaustive;
pub mod freq;
pub mod optimal;
pub mod stats;

pub use advanced::{partition_advanced, partition_advanced_with, CostParams};
pub use assignment::{Assignment, FuncAssignment};
pub use basic::{partition_basic, partition_basic_with};
pub use exhaustive::exhaustive_minimum;
pub use freq::BlockFreq;
pub use optimal::{partition_optimal, partition_optimal_with, CostModel};
pub use stats::PartitionStats;
