//! RDG construction.

use fpa_ir::dataflow::DefPoint;
use fpa_ir::{BlockId, Cfg, DefUse, Function, Inst, InstId, ReachingDefs, VReg};
use std::collections::HashMap;

/// A node id in the RDG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index (node ids are `0..len`).
    #[must_use]
    pub fn new(index: u32) -> NodeId {
        NodeId(index)
    }

    /// The node's index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What an RDG node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An ordinary instruction (including `br`/`ret` terminators).
    Plain(InstId),
    /// The address half of a split load.
    LoadAddr(InstId),
    /// The value half of a split load.
    LoadValue(InstId),
    /// The address half of a split store.
    StoreAddr(InstId),
    /// The value half of a split store.
    StoreValue(InstId),
    /// The dummy definition node of formal parameter `i`.
    Param(usize),
}

impl NodeKind {
    /// The underlying instruction id, if the node is one.
    #[must_use]
    pub fn inst(self) -> Option<InstId> {
        match self {
            NodeKind::Plain(i)
            | NodeKind::LoadAddr(i)
            | NodeKind::LoadValue(i)
            | NodeKind::StoreAddr(i)
            | NodeKind::StoreValue(i) => Some(i),
            NodeKind::Param(_) => None,
        }
    }
}

/// The register dependence graph of one function.
#[derive(Debug, Clone)]
pub struct Rdg {
    nodes: Vec<NodeKind>,
    index: HashMap<NodeKind, NodeId>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    /// Basic block containing each node (params map to the entry block).
    block_of: Vec<BlockId>,
}

impl Rdg {
    /// Builds the RDG of `func` from its reaching definitions, exactly as
    /// in paper §3.
    #[must_use]
    pub fn build(func: &Function) -> Rdg {
        let cfg = Cfg::new(func);
        let rd = ReachingDefs::new(func, &cfg);
        let du = DefUse::new(func, &rd);
        Rdg::build_with(func, &du)
    }

    /// Builds the RDG from a precomputed def-use solution.
    #[must_use]
    pub fn build_with(func: &Function, du: &DefUse) -> Rdg {
        let mut g = Rdg {
            nodes: Vec::new(),
            index: HashMap::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            block_of: Vec::new(),
        };
        // Parameter dummy nodes.
        for i in 0..func.params.len() {
            g.add_node(NodeKind::Param(i), BlockId::ENTRY);
        }
        // Instruction nodes (loads/stores split).
        let mut is_load: HashMap<InstId, bool> = HashMap::new();
        for b in func.block_ids() {
            for inst in &func.block(b).insts {
                match inst {
                    Inst::Load { .. } => {
                        g.add_node(NodeKind::LoadAddr(inst.id()), b);
                        g.add_node(NodeKind::LoadValue(inst.id()), b);
                        is_load.insert(inst.id(), true);
                    }
                    Inst::Store { .. } => {
                        g.add_node(NodeKind::StoreAddr(inst.id()), b);
                        g.add_node(NodeKind::StoreValue(inst.id()), b);
                        is_load.insert(inst.id(), false);
                    }
                    _ => {
                        g.add_node(NodeKind::Plain(inst.id()), b);
                    }
                }
            }
            if let Some(tid) = func.block(b).term.id() {
                g.add_node(NodeKind::Plain(tid), b);
            }
        }
        // Edges from reaching definitions. The *use side* of a load is its
        // address node; of a store, address or value depending on operand.
        let mut inst_lookup: HashMap<InstId, Inst> = HashMap::new();
        for (_, inst) in func.insts() {
            inst_lookup.insert(inst.id(), inst.clone());
        }
        for ((user, vreg), defs) in &du.reaching {
            let use_nodes = g.use_nodes_for(*user, *vreg, &inst_lookup);
            for dp in defs {
                let def_node = match dp {
                    DefPoint::Param(i) => g.index[&NodeKind::Param(*i)],
                    DefPoint::Inst(di) => {
                        if is_load.get(di).copied() == Some(true) {
                            g.index[&NodeKind::LoadValue(*di)]
                        } else {
                            g.index[&NodeKind::Plain(*di)]
                        }
                    }
                };
                for &un in &use_nodes {
                    g.add_edge(def_node, un);
                }
            }
        }
        g
    }

    fn add_node(&mut self, kind: NodeKind, block: BlockId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.block_of.push(block);
        self.index.insert(kind, id);
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from.index()].contains(&to) {
            self.succs[from.index()].push(to);
            self.preds[to.index()].push(from);
        }
    }

    /// The use-side nodes for operand `vreg` of instruction `user`.
    fn use_nodes_for(
        &self,
        user: InstId,
        vreg: VReg,
        insts: &HashMap<InstId, Inst>,
    ) -> Vec<NodeId> {
        match insts.get(&user) {
            Some(Inst::Load { base, .. }) => {
                debug_assert_eq!(*base, vreg);
                vec![self.index[&NodeKind::LoadAddr(user)]]
            }
            Some(Inst::Store { base, value, .. }) => {
                let mut v = Vec::new();
                if *base == vreg {
                    v.push(self.index[&NodeKind::StoreAddr(user)]);
                }
                if *value == vreg {
                    v.push(self.index[&NodeKind::StoreValue(user)]);
                }
                v
            }
            // Plain instructions and terminators (not in `insts`).
            _ => vec![self.index[&NodeKind::Plain(user)]],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The kind of node `n`.
    #[must_use]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()]
    }

    /// Looks up the node for a kind.
    #[must_use]
    pub fn node(&self, kind: NodeKind) -> Option<NodeId> {
        self.index.get(&kind).copied()
    }

    /// Direct consumers of `n`'s value.
    #[must_use]
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n.index()]
    }

    /// Direct producers feeding `n`.
    #[must_use]
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n.index()]
    }

    /// The basic block containing node `n`.
    #[must_use]
    pub fn block_of(&self, n: NodeId) -> BlockId {
        self.block_of[n.index()]
    }

    /// `Backward_Slice(G, v)`: every node from which `v` is reachable,
    /// including `v`. Slices do not cross the load address/value split
    /// because those halves share no edge.
    #[must_use]
    pub fn backward_slice(&self, v: NodeId) -> Vec<NodeId> {
        self.walk([v], |g, n| g.preds(n))
    }

    /// The union of the backward slices of `seeds`, walked once: over
    /// every address node, the LdSt slice.
    #[must_use]
    pub fn backward_slice_of(&self, seeds: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
        self.walk(seeds, |g, n| g.preds(n))
    }

    /// `Forward_Slice(G, v)`: every node reachable from `v`, including `v`.
    #[must_use]
    pub fn forward_slice(&self, v: NodeId) -> Vec<NodeId> {
        self.walk([v], |g, n| g.succs(n))
    }

    fn walk<'a>(
        &'a self,
        starts: impl IntoIterator<Item = NodeId>,
        next: impl Fn(&'a Rdg, NodeId) -> &'a [NodeId],
    ) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        let mut stack = Vec::new();
        for s in starts {
            if !std::mem::replace(&mut seen[s.index()], true) {
                stack.push(s);
            }
        }
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &m in next(self, n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    stack.push(m);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Connected components of the *undirected* graph (paper §5.2),
    /// restricted to the nodes for which `include` holds. Returns, for each
    /// node, its component number (`usize::MAX` for excluded nodes), and
    /// the number of components.
    #[must_use]
    pub fn components(&self, include: impl Fn(NodeId) -> bool) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.len()];
        let mut next_comp = 0;
        for start in self.node_ids() {
            if comp[start.index()] != usize::MAX || !include(start) {
                continue;
            }
            let mut stack = vec![start];
            comp[start.index()] = next_comp;
            while let Some(n) = stack.pop() {
                for &m in self.succs(n).iter().chain(self.preds(n)) {
                    if comp[m.index()] == usize::MAX && include(m) {
                        comp[m.index()] = next_comp;
                        stack.push(m);
                    }
                }
            }
            next_comp += 1;
        }
        (comp, next_comp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::{BinOp, FunctionBuilder, MemWidth, Ty};

    /// v = load [p]; w = v + 1; store w -> [p]
    fn load_add_store() -> (Function, InstId, InstId, InstId) {
        let mut b = FunctionBuilder::new("f", None);
        let p = b.param(Ty::Int);
        let e = b.block();
        b.switch_to(e);
        let load_id = b.peek_inst_id();
        let v = b.load(p, 0, MemWidth::Word);
        let add_id = b.peek_inst_id();
        let w = b.bin_imm(BinOp::Add, v, 1);
        let store_id = b.peek_inst_id();
        b.store(w, p, 0, MemWidth::Word);
        b.ret(None);
        (b.finish(), load_id, add_id, store_id)
    }

    #[test]
    fn loads_and_stores_split() {
        let (f, load_id, add_id, store_id) = load_add_store();
        let g = Rdg::build(&f);
        let la = g.node(NodeKind::LoadAddr(load_id)).unwrap();
        let lv = g.node(NodeKind::LoadValue(load_id)).unwrap();
        let sa = g.node(NodeKind::StoreAddr(store_id)).unwrap();
        let sv = g.node(NodeKind::StoreValue(store_id)).unwrap();
        let add = g.node(NodeKind::Plain(add_id)).unwrap();
        // No edge between the two halves of the load.
        assert!(!g.succs(la).contains(&lv));
        assert!(!g.succs(lv).contains(&la));
        // Param feeds both address nodes.
        let param = g.node(NodeKind::Param(0)).unwrap();
        assert!(g.succs(param).contains(&la));
        assert!(g.succs(param).contains(&sa));
        // Value flows load-value -> add -> store-value.
        assert!(g.succs(lv).contains(&add));
        assert!(g.succs(add).contains(&sv));
        assert!(g.preds(sv).contains(&add));
    }

    #[test]
    fn backward_slice_stops_at_load_value() {
        let (f, load_id, add_id, store_id) = load_add_store();
        let g = Rdg::build(&f);
        let sv = g.node(NodeKind::StoreValue(store_id)).unwrap();
        let slice = g.backward_slice(sv);
        let lv = g.node(NodeKind::LoadValue(load_id)).unwrap();
        let la = g.node(NodeKind::LoadAddr(load_id)).unwrap();
        let add = g.node(NodeKind::Plain(add_id)).unwrap();
        assert!(slice.contains(&lv));
        assert!(slice.contains(&add));
        assert!(slice.contains(&sv));
        // Crucially: does NOT include the load's address computation.
        assert!(!slice.contains(&la));
        assert!(!slice.contains(&g.node(NodeKind::Param(0)).unwrap()));
    }

    #[test]
    fn backward_slice_of_seeds_is_the_union_of_their_slices() {
        let (f, load_id, _, store_id) = load_add_store();
        let g = Rdg::build(&f);
        let seeds = [
            NodeKind::LoadAddr(load_id),
            NodeKind::StoreValue(store_id),
            NodeKind::StoreAddr(store_id),
        ]
        .map(|k| g.node(k).unwrap());
        let mut union: Vec<NodeId> = seeds.iter().flat_map(|&s| g.backward_slice(s)).collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(g.backward_slice_of(seeds), union);
        assert_eq!(g.backward_slice_of([]), Vec::<NodeId>::new());
    }

    #[test]
    fn forward_slice_stops_at_address_nodes() {
        let (f, load_id, _, store_id) = load_add_store();
        let g = Rdg::build(&f);
        let param = g.node(NodeKind::Param(0)).unwrap();
        let fwd = g.forward_slice(param);
        assert!(fwd.contains(&g.node(NodeKind::LoadAddr(load_id)).unwrap()));
        assert!(fwd.contains(&g.node(NodeKind::StoreAddr(store_id)).unwrap()));
        // The forward slice ends at address nodes; it does not leak into
        // the loaded value's consumers.
        assert!(!fwd.contains(&g.node(NodeKind::LoadValue(load_id)).unwrap()));
        assert!(!fwd.contains(&g.node(NodeKind::StoreValue(store_id)).unwrap()));
    }

    #[test]
    fn components_separate_value_chain_from_address_chain() {
        let (f, load_id, _, store_id) = load_add_store();
        let g = Rdg::build(&f);
        let (comp, n) = g.components(|_| true);
        // Address chain: param, load-addr, store-addr. Value chain:
        // load-value, add, store-value. Ret node alone.
        assert!(n >= 2);
        let la = g.node(NodeKind::LoadAddr(load_id)).unwrap();
        let sv = g.node(NodeKind::StoreValue(store_id)).unwrap();
        assert_ne!(comp[la.index()], comp[sv.index()]);
        let sa = g.node(NodeKind::StoreAddr(store_id)).unwrap();
        assert_eq!(comp[la.index()], comp[sa.index()]);
    }

    #[test]
    fn branch_terminators_are_nodes() {
        let mut b = FunctionBuilder::new("f", None);
        let p = b.param(Ty::Int);
        let e = b.block();
        let t = b.block();
        let z = b.block();
        b.switch_to(e);
        let c = b.bin_imm(BinOp::Slt, p, 10);
        let br_id = b.peek_inst_id();
        b.br(c, t, z);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(z);
        b.ret(None);
        let f = b.finish();
        let g = Rdg::build(&f);
        let br = g.node(NodeKind::Plain(br_id)).unwrap();
        // The compare feeds the branch.
        assert_eq!(g.preds(br).len(), 1);
        let slt = g.preds(br)[0];
        assert!(g.backward_slice(br).contains(&slt));
        // Branch slice also includes the parameter.
        assert!(g
            .backward_slice(br)
            .contains(&g.node(NodeKind::Param(0)).unwrap()));
    }

    #[test]
    fn multiple_reaching_defs_create_multiple_edges() {
        // Loop-carried variable: both defs feed the loop-body use.
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let li_id = b.peek_inst_id();
        let i = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Slt, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let add_id = b.peek_inst_id();
        let i2 = b.bin_imm(BinOp::Add, i, 1);
        let mov_id = b.peek_inst_id();
        b.mov_to(i, i2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(i));
        let f = b.finish();
        let g = Rdg::build(&f);
        let add = g.node(NodeKind::Plain(add_id)).unwrap();
        let li = g.node(NodeKind::Plain(li_id)).unwrap();
        let mv = g.node(NodeKind::Plain(mov_id)).unwrap();
        assert!(g.preds(add).contains(&li));
        assert!(g.preds(add).contains(&mv));
    }
}
