//! # fpa-ir
//!
//! The compiler's intermediate representation: non-SSA three-address code
//! over virtual registers, organized into basic blocks and control-flow
//! graphs, together with the dataflow analyses (reaching definitions,
//! liveness), dominator/loop analysis, classic machine-independent
//! optimization passes, and an interpreter used both as the golden
//! semantic model and as the basic-block profiler.
//!
//! The design deliberately mirrors the compiler the paper built on
//! (gcc 2.7.1): partitioning runs on *non-SSA* three-address code after the
//! machine-independent optimizations, and the register dependence graph is
//! derived by solving the reaching-definitions dataflow problem (paper §3).
//!
//! Pipeline position: `fpa-frontend` lowers `zinc` source to a [`Module`];
//! the optimization passes in [`opt`] clean it up; `fpa-rdg` builds the
//! dependence graph; `fpa-partition` assigns instructions to subsystems; and
//! `fpa-codegen` emits machine code.

pub mod builder;
pub mod cfg;
pub mod dataflow;
pub mod display;
pub mod func;
pub mod inst;
pub mod interp;
pub mod opt;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cfg::{Cfg, DomTree, LoopInfo};
pub use dataflow::{DefUse, Liveness, ReachingDefs};
pub use func::{Block, BlockId, FuncId, Function, Global, InstId, Module, VReg};
pub use inst::{BinOp, CvtKind, Inst, MemWidth, Terminator};
pub use interp::{ExecOutcome, Interp, InterpError, Profile};
pub use types::Ty;
pub use verify::VerifyError;
