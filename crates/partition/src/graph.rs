//! The one graph every scheme partitions: the register dependence graph
//! of the optimized function (§3), its node classes (§4) and the facts
//! every scheme derives from them before a profile or cost parameter
//! enters, so all schemes agree on which nodes are pinned.

use fpa_ir::{Function, Inst, InstId, Module, Terminator, Ty, VReg};
use fpa_isa::Subsystem;
use fpa_rdg::{classify, NodeClass, NodeId, NodeKind, PinReason, Rdg};
use std::collections::HashMap;

/// One function's RDG, node classes and scheme-independent pinning
/// facts.
///
/// Built on the unpartitioned function. The ids of its instructions are
/// stable through materialization, so one graph serves every scheme run
/// on a clone of that function.
#[derive(Debug)]
pub struct FuncGraph {
    /// The register dependence graph (paper §3).
    pub(crate) rdg: Rdg,
    /// Per-node classification (paper §4).
    pub(crate) classes: Vec<NodeClass>,
    /// The function's instructions by id.
    pub(crate) insts: HashMap<InstId, Inst>,
    /// The register each node defines: parameters, load values and
    /// value-producing plain instructions.
    dst: Vec<Option<VReg>>,
    /// Every node defining each register, in node order.
    pub(crate) defs_of_vreg: HashMap<VReg, Vec<NodeId>>,
    /// Free nodes in a load/store address backward slice: INT under
    /// every scheme (§4's "LdSt slice in INT").
    addr_pinned: Vec<bool>,
    /// Nodes feeding a pinned-INT consumer that needs the value in an
    /// integer register: actual arguments, return values, printed
    /// values, multiply/divide operands (§6.4's copy sites).
    feeds_pinned: Vec<bool>,
}

impl FuncGraph {
    /// Builds the graph of `func`.
    #[must_use]
    pub fn build(func: &Function) -> FuncGraph {
        let rdg = Rdg::build(func);
        let classes = classify(func, &rdg);
        let insts: HashMap<InstId, Inst> = func
            .insts()
            .map(|(_, inst)| (inst.id(), inst.clone()))
            .collect();

        let dst: Vec<Option<VReg>> = rdg
            .node_ids()
            .map(|v| match rdg.kind(v) {
                NodeKind::Param(i) => Some(func.params[i]),
                NodeKind::LoadValue(id) | NodeKind::Plain(id) => insts.get(&id).and_then(Inst::dst),
                _ => None,
            })
            .collect();
        let mut defs_of_vreg: HashMap<VReg, Vec<NodeId>> = HashMap::new();
        for (v, w) in rdg.node_ids().zip(&dst) {
            if let Some(w) = w {
                defs_of_vreg.entry(*w).or_default().push(v);
            }
        }

        let mut addr_pinned = vec![false; rdg.len()];
        let addrs = rdg
            .node_ids()
            .filter(|&v| matches!(rdg.kind(v), NodeKind::LoadAddr(_) | NodeKind::StoreAddr(_)));
        for v in rdg.backward_slice_of(addrs) {
            addr_pinned[v.index()] = classes[v.index()] == NodeClass::Free;
        }

        let feeds_pinned = rdg
            .node_ids()
            .map(|v| {
                rdg.succs(v).iter().any(|&c| {
                    matches!(
                        classes[c.index()],
                        NodeClass::PinnedInt(
                            PinReason::Call | PinReason::Return | PinReason::Io | PinReason::MulDiv
                        )
                    )
                })
            })
            .collect();

        FuncGraph {
            rdg,
            classes,
            insts,
            dst,
            defs_of_vreg,
            addr_pinned,
            feeds_pinned,
        }
    }

    /// The graphs of every function of `module`, indexed like
    /// `module.funcs`.
    #[must_use]
    pub fn build_all(module: &Module) -> Vec<FuncGraph> {
        module.funcs.iter().map(FuncGraph::build).collect()
    }

    /// The register dependence graph (paper §3).
    #[must_use]
    pub fn rdg(&self) -> &Rdg {
        &self.rdg
    }

    /// Per-node classification (paper §4), indexed by node.
    #[must_use]
    pub fn classes(&self) -> &[NodeClass] {
        &self.classes
    }

    pub(crate) fn native(&self, v: NodeId) -> bool {
        self.classes[v.index()] == NodeClass::NativeFp
    }

    pub(crate) fn pinned(&self, v: NodeId) -> bool {
        matches!(self.classes[v.index()], NodeClass::PinnedInt(_))
    }

    pub(crate) fn free(&self, v: NodeId) -> bool {
        self.classes[v.index()] == NodeClass::Free
    }

    /// Whether `v` is a free node forced INT by an address slice.
    #[must_use]
    pub fn addr_pinned(&self, v: NodeId) -> bool {
        self.addr_pinned[v.index()]
    }

    /// Whether `v` feeds a pinned-INT consumer (§6.4 copy site).
    #[must_use]
    pub fn feeds_pinned_int(&self, v: NodeId) -> bool {
        self.feeds_pinned[v.index()]
    }

    /// Every node defining the register `v` defines, `v` included; empty
    /// when `v` defines none.
    pub(crate) fn siblings(&self, v: NodeId) -> &[NodeId] {
        self.dst[v.index()].map_or(&[], |w| &self.defs_of_vreg[&w])
    }

    /// The side of each instruction of `func`, terminators included,
    /// under the per-node `side`: a load or store takes its value node's
    /// side, and a return is INT.
    pub(crate) fn inst_sides(
        &self,
        func: &Function,
        side: &[Subsystem],
    ) -> HashMap<InstId, Subsystem> {
        let side_of = |k: NodeKind| side[self.rdg.node(k).expect("node exists").index()];
        let mut inst_side = HashMap::new();
        for (_, inst) in func.insts() {
            let id = inst.id();
            let s = match inst {
                Inst::Load { .. } => side_of(NodeKind::LoadValue(id)),
                Inst::Store { .. } => side_of(NodeKind::StoreValue(id)),
                _ => side_of(NodeKind::Plain(id)),
            };
            inst_side.insert(id, s);
        }
        for b in func.block_ids() {
            match func.block(b).term {
                Terminator::Br { id, .. } => {
                    inst_side.insert(id, side_of(NodeKind::Plain(id)));
                }
                Terminator::Ret { id, .. } => {
                    inst_side.insert(id, Subsystem::Int);
                }
                Terminator::Jump { .. } => {}
            }
        }
        inst_side
    }

    /// The home file of each register of `func` under the per-node
    /// `side`: FP for doubles and for integer registers whose every
    /// definition lands in FPa; INT for the rest, parameters and
    /// never-written registers included.
    pub(crate) fn homes(&self, func: &Function, side: &[Subsystem]) -> Vec<Subsystem> {
        (0..func.num_vregs())
            .map(|i| {
                let v = VReg::new(i as u32);
                let fp = func.vreg_ty(v) == Ty::Double
                    || self
                        .defs_of_vreg
                        .get(&v)
                        .is_some_and(|defs| defs.iter().all(|&d| side[d.index()] == Subsystem::Fp));
                if fp {
                    Subsystem::Fp
                } else {
                    Subsystem::Int
                }
            })
            .collect()
    }

    /// Whether `v`'s instruction may be cloned into the FP subsystem:
    /// pure, FPa-supported computation, or a load value (re-delivered via
    /// `l.w` into the FP file adjacent to the original, so no store can
    /// intervene).
    pub(crate) fn dup_allowed(&self, v: NodeId) -> bool {
        match self.rdg.kind(v) {
            NodeKind::LoadValue(_) => true,
            NodeKind::Plain(id) => match self.insts.get(&id) {
                Some(Inst::Bin { op, .. }) => op.fpa_supported() && op.operand_ty() == Ty::Int,
                Some(Inst::BinImm { op, .. }) => op.fpa_supported(),
                Some(Inst::Li { .. } | Inst::La { .. } | Inst::Move { .. }) => true,
                _ => false,
            },
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::{BinOp, FunctionBuilder, MemWidth};

    /// A loop whose induction variable `i` (returned) feeds addressing,
    /// a loaded value that is printed, and a call argument.
    fn sample() -> (Function, fpa_ir::VReg) {
        let mut b = FunctionBuilder::new("f", None);
        let base = b.param(Ty::Int);
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let i = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin_imm(BinOp::Slt, i, 8);
        b.br(c, body, exit);
        b.switch_to(body);
        let off = b.bin_imm(BinOp::Sll, i, 2);
        let addr = b.bin(BinOp::Add, base, off);
        let v = b.load(addr, 0, MemWidth::Word);
        let w = b.bin_imm(BinOp::Xor, v, 5);
        b.print(w);
        let i2 = b.bin_imm(BinOp::Add, i, 1);
        b.mov_to(i, i2);
        b.jump(header);
        b.switch_to(exit);
        b.call(fpa_ir::FuncId::new(0), vec![i], None);
        b.ret(None);
        (b.finish(), i)
    }

    #[test]
    fn facts_match_their_definitions() {
        let (f, i) = sample();
        let g = FuncGraph::build(&f);
        let rdg = &g.rdg;
        assert_eq!(g.classes, classify(&f, rdg));

        // The address mask is the free part of the union of every address
        // node's own backward slice.
        let mut in_ldst = vec![false; rdg.len()];
        for v in rdg.node_ids() {
            if matches!(rdg.kind(v), NodeKind::LoadAddr(_) | NodeKind::StoreAddr(_)) {
                for s in rdg.backward_slice(v) {
                    in_ldst[s.index()] = true;
                }
            }
        }
        for v in rdg.node_ids() {
            assert_eq!(g.addr_pinned(v), in_ldst[v.index()] && g.free(v), "{v}");
            let copy_site = rdg.succs(v).iter().any(|&c| {
                matches!(
                    g.classes[c.index()],
                    NodeClass::PinnedInt(
                        PinReason::Call | PinReason::Return | PinReason::Io | PinReason::MulDiv
                    )
                )
            });
            assert_eq!(g.feeds_pinned_int(v), copy_site, "{v}");
        }
        assert!(rdg.node_ids().any(|v| g.addr_pinned(v)));
        assert!(rdg.node_ids().any(|v| g.feeds_pinned_int(v)));

        // `i` has two definitions, the `li` and the loop-carried move;
        // each names both as its siblings.
        let defs_of_i = &g.defs_of_vreg[&i];
        assert_eq!(defs_of_i.len(), 2);
        for &d in defs_of_i {
            assert_eq!(g.siblings(d), &defs_of_i[..]);
        }
    }
}
