//! The basic partitioning scheme (paper §5).
//!
//! No instructions are added. Interpreting the partitioning conditions of
//! §5.1 on the undirected RDG: every connected component belongs wholly to
//! INT or wholly to FPa, and any component containing a load/store address
//! node, a call/return node, or other pinned computation must be INT. All
//! remaining components — which compute only branch outcomes and store
//! values — go to FPa, communicating with the rest of the program only
//! through existing loads and stores.

use crate::assignment::{Assignment, FuncAssignment};
use crate::graph::FuncGraph;
use fpa_ir::{Function, Module};
use fpa_isa::Subsystem;
use fpa_rdg::NodeClass;

/// Runs the basic scheme over a whole module.
///
/// The module is not modified (the basic scheme adds no instructions); the
/// returned [`Assignment`] records the chosen sides.
#[must_use]
pub fn partition_basic(module: &Module) -> Assignment {
    partition_basic_with(&FuncGraph::build_all(module), module)
}

/// [`partition_basic`] over graphs already built for `module` (one per
/// function, as [`FuncGraph::build_all`] returns them).
#[must_use]
pub fn partition_basic_with(graphs: &[FuncGraph], module: &Module) -> Assignment {
    assert_eq!(graphs.len(), module.funcs.len(), "one graph per function");
    Assignment {
        funcs: module
            .funcs
            .iter()
            .zip(graphs)
            .map(|(func, graph)| partition_basic_func(func, graph))
            .collect(),
    }
}

/// Runs the basic scheme over one function, given its graph.
#[must_use]
pub fn partition_basic_func(func: &Function, graph: &FuncGraph) -> FuncAssignment {
    let FuncGraph { rdg, classes, .. } = graph;
    // Connected components over everything that is not natively FP.
    let (comp, ncomp) = rdg.components(|n| classes[n.index()] != NodeClass::NativeFp);

    // A component is INT as soon as it contains any pinned node.
    let mut comp_side = vec![Subsystem::Fp; ncomp];
    for n in rdg.node_ids() {
        if let NodeClass::PinnedInt(_) = classes[n.index()] {
            let c = comp[n.index()];
            if c != usize::MAX {
                comp_side[c] = Subsystem::Int;
            }
        }
    }

    let side: Vec<Subsystem> = rdg
        .node_ids()
        .map(|n| match classes[n.index()] {
            NodeClass::NativeFp => Subsystem::Fp,
            NodeClass::PinnedInt(_) => Subsystem::Int,
            NodeClass::Free => comp_side[comp[n.index()]],
        })
        .collect();

    FuncAssignment {
        inst_side: graph.inst_sides(func, &side),
        vreg_side: graph.homes(func, &side),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::{BinOp, FunctionBuilder, Inst, MemWidth, Terminator, Ty};
    use fpa_rdg::NodeKind;

    /// Figure 3/4 in miniature: a loop whose induction variable feeds
    /// addressing (INT) and a store-value chain disjoint from addressing
    /// (offloadable to FPa).
    fn figure4_like() -> (Function, Vec<fpa_ir::InstId>) {
        let mut b = FunctionBuilder::new("f", None);
        let base = b.param(Ty::Int);
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        // The mask is a loaded value: its node is free (params are pinned).
        let mask = b.load(base, 256, MemWidth::Word);
        let i = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin_imm(BinOp::Slt, i, 64);
        b.br(c, body, exit);
        b.switch_to(body);
        // Address chain: base + 4*i (INT: feeds load/store addresses).
        let off = b.bin_imm(BinOp::Sll, i, 2);
        let addr = b.bin(BinOp::Add, base, off);
        // Store-value chain: v = load; w = (v ^ mask) + 1; store w.
        // The chain hangs off the load VALUE, not the address.
        let mut offload_ids = Vec::new();
        let v = b.load(addr, 0, MemWidth::Word);
        offload_ids.push(b.peek_inst_id());
        let x = b.bin(BinOp::Xor, v, mask);
        offload_ids.push(b.peek_inst_id());
        let w = b.bin_imm(BinOp::Add, x, 1);
        b.store(w, addr, 0, MemWidth::Word);
        let i2 = b.bin_imm(BinOp::Add, i, 1);
        b.mov_to(i, i2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        (b.finish(), offload_ids)
    }

    #[test]
    fn offloads_disjoint_store_value_chain() {
        let (f, offload_ids) = figure4_like();
        let a = partition_basic_func(&f, &FuncGraph::build(&f));
        for id in &offload_ids {
            assert_eq!(a.side(*id), Subsystem::Fp, "{id} should be offloaded");
        }
    }

    #[test]
    fn keeps_address_chain_and_branch_in_int() {
        let (f, _) = figure4_like();
        let a = partition_basic_func(&f, &FuncGraph::build(&f));
        // The induction variable's web (li, add, move) feeds addressing ->
        // INT; the loop branch slice shares the induction variable -> INT.
        for (_, inst) in f.insts() {
            match inst {
                Inst::BinImm { op: BinOp::Sll, .. } | Inst::Li { .. } | Inst::Move { .. } => {
                    assert_eq!(a.side(inst.id()), Subsystem::Int, "{:?}", inst);
                }
                _ => {}
            }
        }
        for b in f.block_ids() {
            if let Terminator::Br { id, cond, .. } = f.block(b).term {
                assert_eq!(a.side(id), Subsystem::Int);
                assert_eq!(a.home(cond), Subsystem::Int);
            }
        }
    }

    #[test]
    fn basic_conditions_hold() {
        // §5.1: no FPa node may have an INT node in its backward or
        // forward slice.
        let (f, _) = figure4_like();
        let graph = FuncGraph::build(&f);
        let a = partition_basic_func(&f, &graph);
        let FuncGraph { rdg, classes, .. } = &graph;
        let node_side = |n: fpa_rdg::NodeId| match rdg.kind(n) {
            NodeKind::LoadValue(id) | NodeKind::StoreValue(id) | NodeKind::Plain(id) => {
                a.inst_side.get(&id).copied()
            }
            _ => Some(Subsystem::Int),
        };
        for n in rdg.node_ids() {
            if classes[n.index()] != NodeClass::Free || node_side(n) != Some(Subsystem::Fp) {
                continue;
            }
            for m in rdg
                .backward_slice(n)
                .into_iter()
                .chain(rdg.forward_slice(n))
            {
                if classes[m.index()] == NodeClass::NativeFp {
                    continue;
                }
                assert_eq!(
                    node_side(m),
                    Some(Subsystem::Fp),
                    "FPa node {n} reaches INT node {m}"
                );
            }
        }
    }

    #[test]
    fn whole_memory_free_function_moves_to_fpa() {
        // The paper's `run` (compress RNG) anecdote: a function with no
        // memory access at all is moved to FPa wholesale (§6.6) except its
        // pinned return.
        let mut b = FunctionBuilder::new("rng", Some(Ty::Int));
        let seed = b.param(Ty::Int);
        let e = b.block();
        b.switch_to(e);
        let a1 = b.bin_imm(BinOp::Sll, seed, 13);
        let a2 = b.bin(BinOp::Xor, seed, a1);
        b.ret(Some(a2));
        let f = b.finish();
        let a = partition_basic_func(&f, &FuncGraph::build(&f));
        // ... but here the whole chain feeds the RETURN VALUE, which is
        // pinned; with no copies available, the basic scheme keeps it INT.
        for (_, inst) in f.insts() {
            assert_eq!(a.side(inst.id()), Subsystem::Int);
        }
    }

    #[test]
    fn branch_only_chain_offloads() {
        // A branch whose slice shares nothing with addressing/calls is
        // offloadable; its outcome reaches fetch, not registers.
        let mut b = FunctionBuilder::new("f", None);
        let base = b.param(Ty::Int);
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let k = b.li(0);
        b.jump(header);
        b.switch_to(header);
        // Branch slice: k's web (entirely non-address).
        let c = b.bin_imm(BinOp::Slt, k, 100);
        b.br(c, body, exit);
        b.switch_to(body);
        let k2 = b.bin_imm(BinOp::Add, k, 3);
        b.mov_to(k, k2);
        // Unrelated store keeps base (param, INT) busy.
        let zero = b.li(0);
        b.store(zero, base, 0, MemWidth::Word);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let a = partition_basic_func(&f, &FuncGraph::build(&f));
        for b_ in f.block_ids() {
            if let Terminator::Br { id, .. } = f.block(b_).term {
                assert_eq!(a.side(id), Subsystem::Fp, "branch should offload");
            }
        }
        // And the branch condition's home is the FP file.
        for (_, inst) in f.insts() {
            if let Inst::BinImm {
                op: BinOp::Slt,
                dst,
                ..
            } = inst
            {
                assert_eq!(a.home(*dst), Subsystem::Fp);
            }
        }
    }

    #[test]
    fn module_level_partition() {
        let mut m = Module::new();
        let (f, _) = figure4_like();
        m.funcs.push(f);
        m.assign_addresses();
        let a = partition_basic(&m);
        assert_eq!(a.funcs.len(), 1);
    }
}
