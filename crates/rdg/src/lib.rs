//! # fpa-rdg
//!
//! The **register dependence graph** (RDG) of paper §3, the node classes
//! of §4 and the slice machinery of §3–§4: the one graph of a function
//! that every partitioning scheme, the exact solver and the fuzzer's
//! coverage read.
//!
//! The RDG is a directed graph with a node per static instruction; there is
//! an edge from node *i* to node *j* when instruction *i* produces a value
//! that instruction *j* may consume. Edges come from the
//! reaching-definitions dataflow solution.
//!
//! Two structural choices from the paper are preserved exactly:
//!
//! * **Load/store splitting.** Each load becomes two nodes — address and
//!   value — with *no edge between them*, because the address is always
//!   computed in the INT subsystem while the loaded value may be delivered
//!   to either register file. Stores split the same way. This is what makes
//!   backward slices stop at load-value nodes and forward slices stop at
//!   address nodes.
//! * **Dummy parameter nodes.** Each formal parameter gets a node,
//!   pre-assigned to INT by the partitioner, modelling the calling
//!   convention (§6.4).
//!
//! [`Rdg::build`] walks the function once, in program order, and records
//! with the graph each node's class ([`NodeClass`]), one copy of the
//! function's instructions, the defining nodes of each register, the
//! LdSt slice and the nodes that feed a pinned-INT consumer. On top of
//! the graph this crate computes [`Rdg::backward_slice`] /
//! [`Rdg::forward_slice`], the [`Slices`] decomposition (LdSt slice,
//! branch slices, store-value slices) and undirected
//! [`Rdg::components`].

pub mod graph;
pub mod slices;

pub use graph::{NodeClass, NodeId, NodeKind, PinReason, Rdg};
pub use slices::{SliceKind, Slices};
