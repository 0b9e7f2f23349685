//! RDG construction: one walk of a function yields its graph, its node
//! classes and the facts every partitioning scheme reads.

use fpa_ir::dataflow::{BitSet, DefPoint};
use fpa_ir::{
    BinOp, BlockId, Cfg, Function, Inst, InstId, MemWidth, Module, ReachingDefs, Terminator, Ty,
    VReg,
};

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

/// The class of a plain (unsplit, non-terminator) instruction's node.
fn inst_class(func: &Function, inst: &Inst) -> NodeClass {
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

/// The class of a load's or store's value node.
fn value_class(width: MemWidth) -> NodeClass {
    match width {
        MemWidth::Dword => NodeClass::NativeFp,
        MemWidth::Byte | MemWidth::ByteU => NodeClass::PinnedInt(PinReason::ByteValue),
        MemWidth::Word => NodeClass::Free,
    }
}

/// The `inst_node` entry of an id that is not in the function.
const NO_NODE: u32 = u32::MAX;

/// The register dependence graph of one function, with its node classes
/// (paper §4) and the facts every partitioning scheme derives from them.
///
/// Built on the unpartitioned function. The ids of its instructions are
/// stable through the advanced scheme's rewrite, so one graph serves
/// every scheme run on a clone of that function.
#[derive(Debug, Clone)]
pub struct Rdg {
    kinds: Vec<NodeKind>,
    /// Basic block containing each node (params map to the entry block).
    block_of: Vec<BlockId>,
    classes: Vec<NodeClass>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    /// The register each node defines: parameters, load values and
    /// value-producing plain instructions.
    dst: Vec<Option<VReg>>,
    /// Every node defining each register, in node order, by register.
    defs: Vec<Vec<NodeId>>,
    /// The function's instructions by id, terminators excluded: the one
    /// copy the graph keeps.
    insts: Vec<Option<Inst>>,
    /// The first node of each instruction and terminator, by id.
    inst_node: Vec<u32>,
    /// The LdSt slice: the union of the address nodes' backward slices.
    ldst: Vec<bool>,
    /// Nodes feeding a pinned-INT consumer that needs the value in an
    /// integer register: actual arguments, return values, printed values,
    /// multiply/divide operands (§6.4's copy sites).
    feeds_pinned: Vec<bool>,
}

impl Rdg {
    /// Builds the graph of `func` in one walk, in program order. Each
    /// instruction gets its nodes (a load or store split in two, §3),
    /// their classes (§4) and its entry in the instruction table when it
    /// is reached, and an edge from every definition that reaches each of
    /// its operands; a definition reached around a loop has no node yet,
    /// so the edges are added after the walk, in the same order.
    #[must_use]
    pub fn build(func: &Function) -> Rdg {
        let rd = ReachingDefs::new(func, &Cfg::new(func));
        let mut g = Rdg {
            kinds: Vec::new(),
            block_of: Vec::new(),
            classes: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            dst: Vec::new(),
            defs: vec![Vec::new(); func.num_vregs()],
            insts: vec![None; func.inst_id_bound()],
            inst_node: vec![NO_NODE; func.inst_id_bound()],
            ldst: Vec::new(),
            feeds_pinned: Vec::new(),
        };
        for (i, &p) in func.params.iter().enumerate() {
            let class = NodeClass::PinnedInt(PinReason::Param);
            g.add_node(NodeKind::Param(i), BlockId::ENTRY, class, Some(p));
        }
        // (definition index, use node) for every definition reaching an
        // operand, in program order.
        let mut uses: Vec<(usize, NodeId)> = Vec::new();
        let mut use_at = |v: VReg, node: NodeId, reaching: &BitSet| {
            for &d in rd.defs_of(v) {
                if reaching.contains(d) {
                    uses.push((d, node));
                }
            }
        };
        let mut addrs = Vec::new();
        for b in func.block_ids() {
            let block = func.block(b);
            let mut reaching = rd.live_in_set(b).clone();
            for inst in &block.insts {
                let id = inst.id();
                g.inst_node[id.index()] = g.kinds.len() as u32;
                match *inst {
                    Inst::Load {
                        width, base, dst, ..
                    } => {
                        let addr = NodeClass::PinnedInt(PinReason::Address);
                        let a = g.add_node(NodeKind::LoadAddr(id), b, addr, None);
                        g.add_node(NodeKind::LoadValue(id), b, value_class(width), Some(dst));
                        use_at(base, a, &reaching);
                        addrs.push(a);
                    }
                    Inst::Store {
                        width, base, value, ..
                    } => {
                        let addr = NodeClass::PinnedInt(PinReason::Address);
                        let a = g.add_node(NodeKind::StoreAddr(id), b, addr, None);
                        let v = g.add_node(NodeKind::StoreValue(id), b, value_class(width), None);
                        use_at(base, a, &reaching);
                        use_at(value, v, &reaching);
                        addrs.push(a);
                    }
                    _ => {
                        let class = inst_class(func, inst);
                        let n = g.add_node(NodeKind::Plain(id), b, class, inst.dst());
                        for u in inst.uses() {
                            use_at(u, n, &reaching);
                        }
                    }
                }
                if let Some(d) = inst.dst() {
                    // This definition of `d` kills every other one.
                    for &di in rd.defs_of(d) {
                        if rd.def(di).0 == DefPoint::Inst(id) {
                            reaching.insert(di);
                        } else {
                            reaching.remove(di);
                        }
                    }
                }
                g.insts[id.index()] = Some(inst.clone());
            }
            if let Some(id) = block.term.id() {
                // Conditional branches are free: the branch outcome can be
                // computed in either subsystem (the fetch unit is shared).
                let class = match block.term {
                    Terminator::Ret { .. } => NodeClass::PinnedInt(PinReason::Return),
                    _ => NodeClass::Free,
                };
                g.inst_node[id.index()] = g.kinds.len() as u32;
                let n = g.add_node(NodeKind::Plain(id), b, class, None);
                for u in block.term.uses() {
                    use_at(u, n, &reaching);
                }
            }
        }
        for (d, user) in uses {
            let def = match rd.def(d).0 {
                DefPoint::Param(i) => NodeId(i as u32),
                DefPoint::Inst(id) => {
                    // A load defines its register through its value node,
                    // the second of its pair.
                    let first = g.inst_node[id.index()];
                    let is_load = matches!(g.kinds[first as usize], NodeKind::LoadAddr(_));
                    NodeId(first + u32::from(is_load))
                }
            };
            g.add_edge(def, user);
        }

        g.ldst = vec![false; g.len()];
        for v in g.backward_slice_of(addrs) {
            g.ldst[v.index()] = true;
        }
        g.feeds_pinned = g
            .node_ids()
            .map(|v| {
                g.succs(v).iter().any(|&c| {
                    matches!(
                        g.class(c),
                        NodeClass::PinnedInt(
                            PinReason::Call | PinReason::Return | PinReason::Io | PinReason::MulDiv
                        )
                    )
                })
            })
            .collect();
        g
    }

    /// The graphs of every function of `module`, indexed like
    /// `module.funcs`.
    #[must_use]
    pub fn build_all(module: &Module) -> Vec<Rdg> {
        module.funcs.iter().map(Rdg::build).collect()
    }

    fn add_node(
        &mut self,
        kind: NodeKind,
        block: BlockId,
        class: NodeClass,
        dst: Option<VReg>,
    ) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.block_of.push(block);
        self.classes.push(class);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.dst.push(dst);
        if let Some(w) = dst {
            self.defs[w.index()].push(id);
        }
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from.index()].contains(&to) {
            self.succs[from.index()].push(to);
            self.preds[to.index()].push(from);
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// The kind of node `n`.
    #[must_use]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Looks up the node for a kind.
    #[must_use]
    pub fn node(&self, kind: NodeKind) -> Option<NodeId> {
        let n = match kind {
            NodeKind::Param(i) => i,
            NodeKind::LoadValue(id) | NodeKind::StoreValue(id) => self.first_node(id)? + 1,
            NodeKind::Plain(id) | NodeKind::LoadAddr(id) | NodeKind::StoreAddr(id) => {
                self.first_node(id)?
            }
        };
        (self.kinds.get(n) == Some(&kind)).then_some(NodeId(n as u32))
    }

    fn first_node(&self, id: InstId) -> Option<usize> {
        let n = *self.inst_node.get(id.index())?;
        (n != NO_NODE).then_some(n as usize)
    }

    /// The class of node `n` (paper §4).
    #[must_use]
    pub fn class(&self, n: NodeId) -> NodeClass {
        self.classes[n.index()]
    }

    /// Whether `n` is free for the partitioner to place on either side.
    #[must_use]
    pub fn is_free(&self, n: NodeId) -> bool {
        self.classes[n.index()] == NodeClass::Free
    }

    /// Whether `n` is pinned to INT.
    #[must_use]
    pub fn is_pinned(&self, n: NodeId) -> bool {
        matches!(self.classes[n.index()], NodeClass::PinnedInt(_))
    }

    /// Whether `n` is natively floating-point.
    #[must_use]
    pub fn is_native(&self, n: NodeId) -> bool {
        self.classes[n.index()] == NodeClass::NativeFp
    }

    /// Whether `n` is a conditional-branch terminator.
    #[must_use]
    pub fn is_branch(&self, n: NodeId) -> bool {
        // Terminators are the plain nodes with no instruction-table entry.
        matches!(self.kind(n), NodeKind::Plain(id) if self.insts[id.index()].is_none())
            && !self.is_return(n)
    }

    /// Whether `n` is a return terminator.
    #[must_use]
    pub fn is_return(&self, n: NodeId) -> bool {
        self.classes[n.index()] == NodeClass::PinnedInt(PinReason::Return)
    }

    /// Whether `n` is in the LdSt slice: the union of the backward slices
    /// of every load and store address node.
    #[must_use]
    pub fn in_ldst(&self, n: NodeId) -> bool {
        self.ldst[n.index()]
    }

    /// Whether `n` is a free node in the LdSt slice, which every scheme
    /// keeps in INT (§4's "LdSt slice in INT").
    #[must_use]
    pub fn addr_pinned(&self, n: NodeId) -> bool {
        self.ldst[n.index()] && self.is_free(n)
    }

    /// Whether `n` feeds a pinned-INT consumer (§6.4 copy site).
    #[must_use]
    pub fn feeds_pinned_int(&self, n: NodeId) -> bool {
        self.feeds_pinned[n.index()]
    }

    /// Every node defining register `v`, in node order.
    #[must_use]
    pub fn defs(&self, v: VReg) -> &[NodeId] {
        &self.defs[v.index()]
    }

    /// Every node defining the register `n` defines, `n` included; empty
    /// when `n` defines none.
    #[must_use]
    pub fn siblings(&self, n: NodeId) -> &[NodeId] {
        self.dst[n.index()].map_or(&[], |w| self.defs(w))
    }

    /// Instruction `id` as it was when the graph was built; `None` for
    /// terminators and ids not in the function.
    #[must_use]
    pub fn inst(&self, id: InstId) -> Option<&Inst> {
        self.insts.get(id.index())?.as_ref()
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
        let g = Rdg::build(&f);
        let cls = |k: NodeKind| g.class(g.node(k).unwrap());

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
        let g = Rdg::build(&f);
        let br = g.node(NodeKind::Plain(br_id)).unwrap();
        assert_eq!(g.class(br), NodeClass::Free);
        assert!(g.is_branch(br) && !g.is_return(br));
        // Both rets are pinned.
        let pinned_returns = g
            .node_ids()
            .filter(|&n| g.class(n) == NodeClass::PinnedInt(PinReason::Return))
            .count();
        assert_eq!(pinned_returns, 2);
        assert_eq!(g.node_ids().filter(|&n| g.is_return(n)).count(), 2);
        assert_eq!(g.node_ids().filter(|&n| g.is_branch(n)).count(), 1);
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
        let g = Rdg::build(&f);
        assert_eq!(
            g.class(g.node(NodeKind::Plain(call_id)).unwrap()),
            NodeClass::PinnedInt(PinReason::Call)
        );
    }

    /// A loop whose induction variable `i` (returned) feeds addressing,
    /// a loaded value that is printed, and a call argument.
    fn sample() -> (Function, VReg) {
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
        let g = Rdg::build(&f);

        // The LdSt slice is the union of every address node's own
        // backward slice; the address mask is its free part.
        let mut in_ldst = vec![false; g.len()];
        for v in g.node_ids() {
            if matches!(g.kind(v), NodeKind::LoadAddr(_) | NodeKind::StoreAddr(_)) {
                for s in g.backward_slice(v) {
                    in_ldst[s.index()] = true;
                }
            }
        }
        for v in g.node_ids() {
            assert_eq!(g.in_ldst(v), in_ldst[v.index()], "{v}");
            assert_eq!(g.addr_pinned(v), in_ldst[v.index()] && g.is_free(v), "{v}");
            let copy_site = g.succs(v).iter().any(|&c| {
                matches!(
                    g.class(c),
                    NodeClass::PinnedInt(
                        PinReason::Call | PinReason::Return | PinReason::Io | PinReason::MulDiv
                    )
                )
            });
            assert_eq!(g.feeds_pinned_int(v), copy_site, "{v}");
            // The instruction table holds each node's own instruction.
            if let Some(id) = g.kind(v).inst() {
                let held = f
                    .insts()
                    .find(|(_, inst)| inst.id() == id)
                    .map(|(_, inst)| inst);
                assert_eq!(g.inst(id), held, "{v}");
            }
        }
        assert!(g.node_ids().any(|v| g.addr_pinned(v)));
        assert!(g.node_ids().any(|v| g.feeds_pinned_int(v)));

        // `i` has two definitions, the `li` and the loop-carried move;
        // each names both as its siblings.
        let defs_of_i = g.defs(i);
        assert_eq!(defs_of_i.len(), 2);
        for &d in defs_of_i {
            assert_eq!(g.siblings(d), defs_of_i);
        }
    }
}
