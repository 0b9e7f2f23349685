//! # fpa-sim
//!
//! Machine simulators for the augmented-FP architecture:
//!
//! * [`func_sim`] — a functional (architectural) simulator: the golden
//!   model for machine code, also used for dynamic-instruction accounting
//!   (Figure 8's offload percentages) and basic-block profiling.
//! * [`ooo`] — a cycle-based out-of-order timing simulator with the
//!   microarchitecture of the paper's Table 1: gshare branch prediction,
//!   I/D caches, separate INT and FP issue windows and functional units,
//!   register renaming, and in-order retirement. Conventional and
//!   augmented machines differ only in whether the FP subsystem accepts
//!   the `*A` opcodes. Internally it runs a wakeup-driven fast path
//!   (pre-decode, ready and store-barrier bitmasks, store-queue
//!   forwarding, cycle skipping).
//! * [`reference`](mod@reference) — the original full-window-rescan
//!   timing engine, frozen as the behavioural spec the fast path is
//!   proven against.
//! * [`config`] — machine parameter presets (4-way and 8-way, Table 1).
//! * [`cache`] / [`predictor`] — the memory-hierarchy and branch-predictor
//!   substrates.

pub mod cache;
pub mod config;
pub mod cosim;
mod dispatch;
pub mod exec;
pub mod func_sim;
pub mod observe;
pub mod ooo;
pub mod predictor;
pub mod reference;
pub mod session;

pub use config::MachineConfig;
pub use cosim::{
    cosimulate, CosimObserver, CosimReport, InvariantChecker, LockstepChecker, Violation,
};
pub use exec::{ExecError, Machine};
pub use func_sim::{run_functional, FuncSimResult};
pub use observe::{EventCounters, SimObserver};
pub use ooo::{simulate, simulate_observed, TimingResult};
pub use reference::simulate_reference;
pub use session::{with_session, SimSession};
