//! Node classification for partitioning.

use crate::graph::{NodeKind, Rdg};
use fpa_ir::{BinOp, Function, Inst, InstId, Terminator, Ty};
use std::collections::HashMap;

/// Why a node is pinned to the INT partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinReason {
    /// Load/store address generation — only INT can address memory (§4).
    Address,
    /// Calls execute on INT and integer arguments/returns use integer
    /// registers (calling convention, §4/§6.4).
    Call,
    /// Return values use integer registers.
    Return,
    /// Integer multiply/divide has no FP-subsystem support.
    MulDiv,
    /// Host output pseudo-ops execute on INT.
    Io,
    /// Formal-parameter dummy node (calling convention).
    Param,
    /// Byte-width memory values: the ISA has no byte-width FP-file load or
    /// store, so the value must pass through an integer register.
    ByteValue,
}

/// The partitioning class of an RDG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// Must execute in the INT subsystem.
    PinnedInt(PinReason),
    /// Natively floating-point (double arithmetic, conversions, double
    /// memory values): always in the FP subsystem, on conventional and
    /// augmented machines alike. Not counted as "offloaded" work.
    NativeFp,
    /// Free integer computation the partitioner may assign to either side.
    Free,
}

/// Classifies every node of `rdg` (paper §4's constraints).
#[must_use]
pub fn classify(func: &Function, rdg: &Rdg) -> Vec<NodeClass> {
    // Instruction table for kind lookups.
    let mut insts: HashMap<InstId, &Inst> = HashMap::new();
    for (_, inst) in func.insts() {
        insts.insert(inst.id(), inst);
    }
    let mut terms: HashMap<InstId, &Terminator> = HashMap::new();
    for b in func.block_ids() {
        let t = &func.block(b).term;
        if let Some(id) = t.id() {
            terms.insert(id, t);
        }
    }

    rdg.node_ids()
        .map(|n| match rdg.kind(n) {
            NodeKind::Param(_) => NodeClass::PinnedInt(PinReason::Param),
            NodeKind::LoadAddr(_) | NodeKind::StoreAddr(_) => {
                NodeClass::PinnedInt(PinReason::Address)
            }
            NodeKind::LoadValue(id) => match insts[&id] {
                Inst::Load { width, .. } if width.value_ty() == Ty::Double => NodeClass::NativeFp,
                Inst::Load {
                    width: fpa_ir::MemWidth::Byte | fpa_ir::MemWidth::ByteU,
                    ..
                } => NodeClass::PinnedInt(PinReason::ByteValue),
                _ => NodeClass::Free,
            },
            NodeKind::StoreValue(id) => match insts[&id] {
                Inst::Store { width, .. } if width.value_ty() == Ty::Double => NodeClass::NativeFp,
                Inst::Store {
                    width: fpa_ir::MemWidth::Byte | fpa_ir::MemWidth::ByteU,
                    ..
                } => NodeClass::PinnedInt(PinReason::ByteValue),
                _ => NodeClass::Free,
            },
            NodeKind::Plain(id) => {
                if let Some(inst) = insts.get(&id) {
                    classify_inst(func, inst)
                } else {
                    match terms.get(&id) {
                        Some(Terminator::Ret { .. }) => NodeClass::PinnedInt(PinReason::Return),
                        // Conditional branches are free: the branch outcome
                        // can be computed in either subsystem (the fetch
                        // unit is shared).
                        Some(Terminator::Br { .. }) => NodeClass::Free,
                        _ => NodeClass::Free,
                    }
                }
            }
        })
        .collect()
}

fn classify_inst(func: &Function, inst: &Inst) -> NodeClass {
    match inst {
        Inst::Bin { op, .. } => match op {
            BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Nor => {
                NodeClass::PinnedInt(PinReason::MulDiv)
            }
            op if op.operand_ty() == Ty::Double => NodeClass::NativeFp,
            _ => NodeClass::Free,
        },
        Inst::BinImm { .. } | Inst::Li { .. } | Inst::La { .. } => NodeClass::Free,
        Inst::LiD { .. } | Inst::Cvt { .. } => NodeClass::NativeFp,
        Inst::Move { dst, .. } | Inst::Copy { dst, .. } => {
            if func.vreg_ty(*dst) == Ty::Double {
                NodeClass::NativeFp
            } else {
                NodeClass::Free
            }
        }
        Inst::Call { .. } => NodeClass::PinnedInt(PinReason::Call),
        Inst::Print { .. } | Inst::PrintChar { .. } | Inst::PrintDouble { .. } => {
            NodeClass::PinnedInt(PinReason::Io)
        }
        Inst::Load { .. } | Inst::Store { .. } => {
            unreachable!("loads/stores are split nodes")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::{FunctionBuilder, MemWidth};

    #[test]
    fn classification_covers_the_constraints() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let e = b.block();
        b.switch_to(e);
        let load_id = b.peek_inst_id();
        let v = b.load(p, 0, MemWidth::Word);
        let mul_id = b.peek_inst_id();
        let sq = b.bin(BinOp::Mul, v, v);
        let add_id = b.peek_inst_id();
        let w = b.bin(BinOp::Add, sq, v);
        b.print(w);
        let dload_id = b.peek_inst_id();
        let d = b.load(p, 8, MemWidth::Dword);
        let fadd_id = b.peek_inst_id();
        let d2 = b.bin(BinOp::FAdd, d, d);
        b.print_double(d2);
        b.ret(Some(w));
        let f = b.finish();
        let g = crate::Rdg::build(&f);
        let classes = classify(&f, &g);
        let cls = |k: NodeKind| classes[g.node(k).unwrap().index()];

        assert_eq!(
            cls(NodeKind::Param(0)),
            NodeClass::PinnedInt(PinReason::Param)
        );
        assert_eq!(
            cls(NodeKind::LoadAddr(load_id)),
            NodeClass::PinnedInt(PinReason::Address)
        );
        assert_eq!(cls(NodeKind::LoadValue(load_id)), NodeClass::Free);
        assert_eq!(
            cls(NodeKind::Plain(mul_id)),
            NodeClass::PinnedInt(PinReason::MulDiv)
        );
        assert_eq!(cls(NodeKind::Plain(add_id)), NodeClass::Free);
        assert_eq!(cls(NodeKind::LoadValue(dload_id)), NodeClass::NativeFp);
        assert_eq!(cls(NodeKind::Plain(fadd_id)), NodeClass::NativeFp);
    }

    #[test]
    fn branches_are_free_returns_pinned() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let e = b.block();
        let t = b.block();
        let z = b.block();
        b.switch_to(e);
        let br_id = b.peek_inst_id();
        b.br(p, t, z);
        b.switch_to(t);
        let one = b.li(1);
        b.ret(Some(one));
        b.switch_to(z);
        let zero = b.li(0);
        b.ret(Some(zero));
        let f = b.finish();
        let g = crate::Rdg::build(&f);
        let classes = classify(&f, &g);
        assert_eq!(
            classes[g.node(NodeKind::Plain(br_id)).unwrap().index()],
            NodeClass::Free
        );
        // Both rets are pinned.
        let pinned_returns = g
            .node_ids()
            .filter(|n| classes[n.index()] == NodeClass::PinnedInt(PinReason::Return))
            .count();
        assert_eq!(pinned_returns, 2);
    }

    #[test]
    fn calls_and_io_pinned() {
        use fpa_ir::FuncId;
        let mut b = FunctionBuilder::new("f", None);
        let p = b.param(Ty::Int);
        let e = b.block();
        b.switch_to(e);
        let call_id = b.peek_inst_id();
        let _ = b.call(FuncId::new(0), vec![p], Some(Ty::Int));
        b.print(p);
        b.ret(None);
        let f = b.finish();
        let g = crate::Rdg::build(&f);
        let classes = classify(&f, &g);
        assert_eq!(
            classes[g.node(NodeKind::Plain(call_id)).unwrap().index()],
            NodeClass::PinnedInt(PinReason::Call)
        );
    }
}
