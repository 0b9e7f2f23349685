//! Computational slices (paper §3).
//!
//! All forward slices in an RDG terminate at memory addresses, call
//! arguments, return values, branch outcomes, or store values. Working
//! backward from those terminals gives the named slices the partitioner
//! reasons about:
//!
//! * **LdSt slice** — everything contributing to load/store addresses.
//!   The paper observes this is close to 50 % of dynamic instructions in
//!   integer code, bounding the FPa partition size (§4).
//! * **Branch slices** — computation of branch outcomes.
//! * **Store-value slices** — computation of stored values.
//! * Call-argument and return-value slices (pinned by the calling
//!   convention).

use crate::graph::{NodeId, NodeKind, Rdg};

/// The terminal categories of forward slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// Backward slices of load/store address nodes.
    LdSt,
    /// Backward slice of a conditional branch.
    Branch,
    /// Backward slice of a store-value node.
    StoreValue,
    /// Backward slice of a return value.
    Return,
}

/// The slice decomposition of a function's RDG.
#[derive(Debug, Clone)]
pub struct Slices {
    /// Union of backward slices of all address nodes, ascending.
    pub ldst: Vec<NodeId>,
    /// One backward slice per branch node.
    pub branches: Vec<(NodeId, Vec<NodeId>)>,
    /// One backward slice per store-value node.
    pub store_values: Vec<(NodeId, Vec<NodeId>)>,
    /// One backward slice per return node.
    pub returns: Vec<(NodeId, Vec<NodeId>)>,
}

impl Slices {
    /// Computes all slices of `rdg`: the LdSt slice its build recorded,
    /// and one backward slice per branch, store-value and return node.
    #[must_use]
    pub fn compute(rdg: &Rdg) -> Slices {
        let mut branches = Vec::new();
        let mut store_values = Vec::new();
        let mut returns = Vec::new();
        for n in rdg.node_ids() {
            let slices = match rdg.kind(n) {
                NodeKind::StoreValue(_) => &mut store_values,
                _ if rdg.is_branch(n) => &mut branches,
                _ if rdg.is_return(n) => &mut returns,
                _ => continue,
            };
            slices.push((n, rdg.backward_slice(n)));
        }
        Slices {
            ldst: rdg.node_ids().filter(|&n| rdg.in_ldst(n)).collect(),
            branches,
            store_values,
            returns,
        }
    }

    /// Fraction of nodes in the LdSt slice.
    #[must_use]
    pub fn ldst_fraction(&self, total_nodes: usize) -> f64 {
        if total_nodes == 0 {
            0.0
        } else {
            self.ldst.len() as f64 / total_nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::{BinOp, FunctionBuilder, MemWidth, Ty};

    /// The Figure 3 shape in miniature:
    /// loop over regno; load tick[regno]; conditionally bump and store;
    /// branch slice on regno (induction) and on the loaded mask.
    #[test]
    fn figure3_like_slices() {
        let mut b = FunctionBuilder::new("f", None);
        let base = b.param(Ty::Int); // &reg_tick
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let regno = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let cond = b.bin_imm(BinOp::Slt, regno, 66);
        b.br(cond, body, exit);
        b.switch_to(body);
        let off = b.bin_imm(BinOp::Sll, regno, 2);
        let addr = b.bin(BinOp::Add, base, off);
        let tick = b.load(addr, 0, MemWidth::Word);
        let tick2 = b.bin_imm(BinOp::Add, tick, 1);
        b.store(tick2, addr, 0, MemWidth::Word);
        let regno2 = b.bin_imm(BinOp::Add, regno, 1);
        b.mov_to(regno, regno2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let g = crate::Rdg::build(&f);
        let slices = Slices::compute(&g);

        // The LdSt slice contains the induction variable chain (regno
        // feeds address computation) — this is why the basic scheme cannot
        // offload the branch slice here.
        assert!(!slices.ldst.is_empty());
        assert_eq!(slices.branches.len(), 1);
        assert_eq!(slices.store_values.len(), 1);
        assert_eq!(slices.returns.len(), 1);

        // The branch slice and the LdSt slice overlap on the induction
        // variable (the paper's Figure 3/4 situation).
        let (_, branch_slice) = &slices.branches[0];
        let overlap = branch_slice
            .iter()
            .filter(|n| slices.ldst.contains(n))
            .count();
        assert!(
            overlap > 0,
            "induction variable shared between branch and LdSt slices"
        );

        // The store-value slice (tick+1) includes the load VALUE but not
        // the load ADDRESS node.
        let (_, sv_slice) = &slices.store_values[0];
        let has_load_value = sv_slice
            .iter()
            .any(|&n| matches!(g.kind(n), NodeKind::LoadValue(_)));
        let has_load_addr = sv_slice
            .iter()
            .any(|&n| matches!(g.kind(n), NodeKind::LoadAddr(_)));
        assert!(has_load_value);
        assert!(!has_load_addr);

        // LdSt fraction is meaningful.
        let frac = slices.ldst_fraction(g.len());
        assert!(frac > 0.2 && frac < 0.9, "frac = {frac}");
    }

    /// A pure store-value chain disjoint from addressing — the component
    /// the basic scheme CAN offload (Figure 4's {11v, 12, 13, 14v}).
    #[test]
    fn disjoint_store_value_chain() {
        let mut b = FunctionBuilder::new("f", None);
        let base = b.param(Ty::Int);
        let x = b.param(Ty::Int);
        let e = b.block();
        b.switch_to(e);
        let y = b.bin_imm(BinOp::Xor, x, 0x55);
        let z = b.bin(BinOp::Add, y, x);
        b.store(z, base, 0, MemWidth::Word);
        b.ret(None);
        let f = b.finish();
        let g = crate::Rdg::build(&f);
        let slices = Slices::compute(&g);
        let (_, sv) = &slices.store_values[0];
        // The store-value slice touches x (param), xor, add — but x also
        // feeds nothing address-related except via the base param, so the
        // LdSt slice holds only base's chain.
        assert!(slices
            .ldst
            .iter()
            .all(|&n| { matches!(g.kind(n), NodeKind::StoreAddr(_) | NodeKind::Param(_)) }));
        assert!(sv.len() >= 3);
    }
}
