//! # fpa — Exploiting Idle Floating-Point Resources for Integer Execution
//!
//! A from-scratch reproduction of Sastry, Palacharla & Smith (PLDI 1998):
//! compiler algorithms that offload integer computation to an augmented
//! floating-point subsystem, plus everything needed to evaluate them — a
//! small C-like language (`zinc`), an optimizing compiler, the two
//! partitioning schemes, a machine-code backend, and functional and
//! cycle-level out-of-order simulators for the paper's 4-way and 8-way
//! machines.
//!
//! ## Quick start
//!
//! ```
//! use fpa::{Compiler, Scheme};
//! use fpa::sim::{run_functional, simulate, MachineConfig};
//!
//! let src = "
//!     int a[64];
//!     int main() {
//!         int i;
//!         int x = 7;
//!         int sum = 0;
//!         for (i = 0; i < 64; i = i + 1) {
//!             // A running value chain disjoint from addressing: the
//!             // partitioner offloads it to the FP subsystem.
//!             x = (x ^ 25) + 3;
//!             a[i] = x;
//!         }
//!         for (i = 0; i < 64; i = i + 1) { sum = sum + a[i]; }
//!         print(sum);
//!         return 0;
//!     }
//! ";
//! let conventional = Compiler::new(src).scheme(Scheme::Conventional).build().unwrap();
//! let advanced = Compiler::new(src).scheme(Scheme::Advanced).build().unwrap();
//!
//! // Same observable behaviour...
//! let a = run_functional(&conventional.program, 10_000_000).unwrap();
//! let b = run_functional(&advanced.program, 10_000_000).unwrap();
//! assert_eq!(a.output, b.output);
//! assert_eq!(a.output, conventional.golden_output);
//!
//! // ...but the advanced build runs integer work on the FP subsystem.
//! assert_eq!(a.augmented, 0);
//! assert!(b.augmented > 0);
//! assert!(advanced.stats.fp_fraction() > 0.0);
//!
//! // Cycle-level timing on the paper's 4-way machine:
//! let t = simulate(&advanced.program, &MachineConfig::four_way(true), 10_000_000).unwrap();
//! assert_eq!(t.output, a.output);
//! ```
//!
//! The sub-crates are re-exported under short names: [`isa`], [`ir`],
//! [`frontend`], [`rdg`], [`partition`], [`codegen`], [`sim`],
//! [`workloads`], [`harness`].

pub use fpa_codegen as codegen;
pub use fpa_frontend as frontend;
pub use fpa_harness as harness;
pub use fpa_ir as ir;
pub use fpa_isa as isa;
pub use fpa_partition as partition;
pub use fpa_rdg as rdg;
pub use fpa_sim as sim;
pub use fpa_workloads as workloads;

pub use fpa_harness::cell::{
    run_cells, CellId, CellMode, CellPayload, CellResult, CellSpec, WidthPreset,
};
pub use fpa_harness::compiler::{frontend_runs, Artifacts, Compiler, Error, Scheme, StageTimings};
pub use fpa_harness::engine::{ExperimentContext, MatrixReport, RunTelemetry};
