//! The advanced partitioning scheme (paper §6).
//!
//! Starting from "LdSt slice in INT, everything else in FPa", the scheme:
//!
//! 1. **Phase 1 — boundary expansion** (§6.3): repeatedly examines FPa
//!    children of the INT boundary; when moving a child's FPa backward
//!    slice into INT *loses* nothing (copy savings outweigh offloaded
//!    work), the boundary expands. Zero-loss decisions are deferred to the
//!    children, exactly as in the paper's algorithm (lines 4–15).
//! 2. **Copy-vs-duplicate prepass** (§6.2): per-node communication cost is
//!    `copying_cost(v) = o_copy · n_B(v)` or the fixpoint
//!    `dupl_cost(v) = o_dupl · n_B(v) + Σ_parents min(copy, dupl)`; a node
//!    is duplicated only when strictly cheaper (requires `o_dupl < o_copy`).
//! 3. **Phase 2 — per-component profit pruning** (lines 16–26): copies and
//!    duplicates are tentatively attached to the FPa components they feed;
//!    any component with `Profit = Benefit − Overhead < 0` is assigned to
//!    INT and its copies/duplicates dropped.
//! 4. **Materialization**: surviving communication becomes real IR —
//!    [`fpa_ir::Inst::Copy`] instructions after the defining instruction
//!    (at function entry for parameters, §6.4's dummy nodes) or cloned
//!    instructions executing in FPa. FPa→INT copies appear only where
//!    calling conventions demand them (actual arguments, return values,
//!    and other pinned consumers), also per §6.4.

use crate::assignment::{Assignment, FuncAssignment};
use crate::freq::BlockFreq;
use crate::graph::FuncGraph;
use fpa_ir::{BinOp, BlockId, FuncId, Function, Inst, InstId, Module, Terminator, Ty, VReg};
use fpa_isa::Subsystem;
use fpa_rdg::{NodeId, NodeKind};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

const EPS: f64 = 1e-9;

/// Cost-model constants (paper §6.1: best results with `o_copy` in `[3,6]`
/// and `o_dupl` in `[1.5,3]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Overhead charged per copy instruction, scaled by block frequency.
    pub o_copy: f64,
    /// Overhead charged per duplicated instruction.
    pub o_dupl: f64,
    /// Optional load-balance cap: the maximum fraction of offloadable
    /// weight allowed in the FPa partition. The paper's greedy schemes
    /// can underutilize INT (§6.6, the `compress` RNG anecdote); with a
    /// cap, the least profitable FPa components are demoted until the
    /// partition fits. `None` reproduces the paper's greedy behaviour.
    pub balance_cap: Option<f64>,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            o_copy: 6.0,
            o_dupl: 2.0,
            balance_cap: None,
        }
    }
}

impl CostParams {
    /// Validates the paper's requirement `o_dupl < o_copy` (§6.2: with
    /// `o_dupl >= o_copy` no node would ever be duplicated).
    ///
    /// # Panics
    ///
    /// Panics when the constraint is violated.
    pub fn validate(&self) {
        assert!(
            self.o_dupl < self.o_copy,
            "cost model requires o_dupl < o_copy (got {} >= {})",
            self.o_dupl,
            self.o_copy
        );
    }
}

/// Runs the advanced scheme over a whole module, inserting copy and
/// duplicate instructions in place.
#[must_use]
pub fn partition_advanced(
    module: &mut Module,
    freq: &BlockFreq,
    params: &CostParams,
) -> Assignment {
    partition_advanced_with(&FuncGraph::build_all(module), module, freq, params)
}

/// [`partition_advanced`] over graphs already built for the
/// unpartitioned `module` (one per function, as
/// [`FuncGraph::build_all`] returns them).
#[must_use]
pub fn partition_advanced_with(
    graphs: &[FuncGraph],
    module: &mut Module,
    freq: &BlockFreq,
    params: &CostParams,
) -> Assignment {
    per_function(graphs, module, freq, params, partition_advanced_func)
}

/// Runs a profile-driven scheme over every function of `module` with
/// that function's graph and block frequencies.
pub(crate) fn per_function(
    graphs: &[FuncGraph],
    module: &mut Module,
    freq: &BlockFreq,
    params: &CostParams,
    scheme: fn(&mut Function, &FuncGraph, &[f64], &CostParams) -> FuncAssignment,
) -> Assignment {
    params.validate();
    assert_eq!(graphs.len(), module.funcs.len(), "one graph per function");
    let funcs = module
        .funcs
        .iter_mut()
        .zip(graphs)
        .enumerate()
        .map(|(i, (func, graph))| scheme(func, graph, freq.of_func(FuncId::new(i as u32)), params))
        .collect();
    Assignment { funcs }
}

/// How a boundary definition communicates its value to FPa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Choice {
    Copy,
    Dup,
}

/// Runs the advanced scheme over one function, given the graph built on
/// it before partitioning.
#[must_use]
pub fn partition_advanced_func(
    func: &mut Function,
    graph: &FuncGraph,
    freq: &[f64],
    params: &CostParams,
) -> FuncAssignment {
    let rdg = &graph.rdg;
    let nn = rdg.len();

    // Offloadable-instruction weight: only Plain nodes correspond to real
    // (ALU/branch) instructions; the two halves of a load or store execute
    // on the INT load/store unit regardless of where the value lives.
    let weight = |v: NodeId| -> f64 {
        match rdg.kind(v) {
            NodeKind::Plain(_) => freq[rdg.block_of(v).index()],
            _ => 0.0,
        }
    };
    let nfreq = |v: NodeId| freq[rdg.block_of(v).index()];

    // ---- Initial assignment --------------------------------------------
    let mut side: Vec<Subsystem> = rdg
        .node_ids()
        .map(|v| {
            if graph.pinned(v) {
                Subsystem::Int
            } else {
                Subsystem::Fp
            }
        })
        .collect();

    // Moves seeds and their FPa backward slices (plus sibling definitions
    // of the same registers, keeping register homes consistent) into INT.
    let move_to_int = |side: &mut Vec<Subsystem>, seeds: &[NodeId]| {
        let mut work: VecDeque<NodeId> = seeds.iter().copied().collect();
        while let Some(v) = work.pop_front() {
            if graph.native(v) || side[v.index()] == Subsystem::Int {
                continue;
            }
            side[v.index()] = Subsystem::Int;
            for &p in rdg.preds(v) {
                if graph.free(p) && side[p.index()] == Subsystem::Fp {
                    work.push_back(p);
                }
            }
            for &sib in graph.siblings(v) {
                if graph.free(sib) && side[sib.index()] == Subsystem::Fp {
                    work.push_back(sib);
                }
            }
        }
    };

    // LdSt slice -> INT (all memory addresses are ultimately needed in the
    // INT subsystem, §4).
    let addr_seeds: Vec<NodeId> = rdg.node_ids().filter(|&v| graph.addr_pinned(v)).collect();
    move_to_int(&mut side, &addr_seeds);

    let copy_cost = |v: NodeId| params.o_copy * nfreq(v);
    // One-level duplication estimate used during phase 1 (the full §6.2
    // fixpoint runs before phase 2).
    let comm_cost_est = |v: NodeId, side: &[Subsystem]| -> f64 {
        if !graph.dup_allowed(v) {
            return copy_cost(v);
        }
        let mut dup = params.o_dupl * nfreq(v);
        for &p in rdg.preds(v) {
            if !graph.native(p) && side[p.index()] == Subsystem::Int {
                dup += copy_cost(p);
            }
        }
        copy_cost(v).min(dup)
    };

    // ---- Phase 1: boundary expansion ------------------------------------
    let mut worklist: BTreeSet<NodeId> = BTreeSet::new();
    for v in rdg.node_ids() {
        if side[v.index()] == Subsystem::Int && !graph.native(v) {
            for &c in rdg.succs(v) {
                if graph.free(c) && side[c.index()] == Subsystem::Fp {
                    worklist.insert(c);
                }
            }
        }
    }
    let mut processed: BTreeSet<NodeId> = BTreeSet::new();
    while let Some(u) = worklist.pop_first() {
        if !processed.insert(u) {
            continue;
        }
        if side[u.index()] == Subsystem::Int || !graph.free(u) {
            continue;
        }
        // P = FPa nodes in Backward_Slice(G, u).
        let p: Vec<NodeId> = rdg
            .backward_slice(u)
            .into_iter()
            .filter(|&v| graph.free(v) && side[v.index()] == Subsystem::Fp)
            .collect();
        let mut in_p = vec![false; nn];
        for &v in &p {
            in_p[v.index()] = true;
        }
        // loss to FPa if P is assigned to INT.
        let mut loss = 0.0;
        for &v in &p {
            if graph.feeds_pinned_int(v) {
                loss -= copy_cost(v);
            } else {
                loss += weight(v);
                let has_fp_child_outside = rdg.succs(v).iter().any(|&c| {
                    graph.free(c) && side[c.index()] == Subsystem::Fp && !in_p[c.index()]
                });
                if has_fp_child_outside {
                    loss += copy_cost(v);
                }
            }
        }
        // Q = INT boundary parents of P; moving P may eliminate their
        // copies (delta(v) = -overhead when all FPa children are in P).
        let mut q: BTreeSet<NodeId> = BTreeSet::new();
        for &v in &p {
            for &par in rdg.preds(v) {
                if !graph.native(par) && side[par.index()] == Subsystem::Int {
                    q.insert(par);
                }
            }
        }
        for &qn in &q {
            let fp_children: Vec<NodeId> = rdg
                .succs(qn)
                .iter()
                .copied()
                .filter(|&c| graph.free(c) && side[c.index()] == Subsystem::Fp)
                .collect();
            if !fp_children.is_empty() && fp_children.iter().all(|c| in_p[c.index()]) {
                loss -= comm_cost_est(qn, &side);
            }
        }
        if loss < -EPS {
            move_to_int(&mut side, &p);
            for &v in &p {
                for &c in rdg.succs(v) {
                    if graph.free(c) && side[c.index()] == Subsystem::Fp {
                        worklist.insert(c);
                    }
                }
            }
        } else if loss.abs() <= EPS {
            for &v in &p {
                for &c in rdg.succs(v) {
                    if graph.free(c) && side[c.index()] == Subsystem::Fp && !processed.contains(&c)
                    {
                        worklist.insert(c);
                    }
                }
            }
        }
    }

    // ---- Copy-vs-duplicate prepass (§6.2) --------------------------------
    let mut dupl_cost = vec![f64::INFINITY; nn];
    for _ in 0..32 {
        let mut changed = false;
        for v in rdg.node_ids() {
            if graph.native(v) || side[v.index()] != Subsystem::Int || !graph.dup_allowed(v) {
                continue;
            }
            let mut cost = params.o_dupl * nfreq(v);
            for &p in rdg.preds(v) {
                if graph.native(p) || side[p.index()] == Subsystem::Fp {
                    continue;
                }
                cost += copy_cost(p).min(dupl_cost[p.index()]);
            }
            if cost < dupl_cost[v.index()] - EPS {
                dupl_cost[v.index()] = cost;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let choice = |v: NodeId| -> Choice {
        if dupl_cost[v.index()] < copy_cost(v) {
            Choice::Dup
        } else {
            Choice::Copy
        }
    };
    let comm_cost = |v: NodeId| copy_cost(v).min(dupl_cost[v.index()]);

    // ---- Phase 2: per-component profit pruning ---------------------------
    let (comp, ncomp) = rdg.components(|v| graph.free(v) && side[v.index()] == Subsystem::Fp);
    // Merge components fed by a common boundary definition: the shared
    // copy/duplicate result register connects them in the undirected graph
    // with tentative copies inserted.
    let mut parent_uf: Vec<usize> = (0..ncomp).collect();
    fn find(uf: &mut Vec<usize>, x: usize) -> usize {
        if uf[x] != x {
            let r = find(uf, uf[x]);
            uf[x] = r;
        }
        uf[x]
    }
    for v in rdg.node_ids() {
        if graph.native(v) || side[v.index()] != Subsystem::Int {
            continue;
        }
        let mut first: Option<usize> = None;
        for &c in rdg.succs(v) {
            let cc = comp[c.index()];
            if cc == usize::MAX {
                continue;
            }
            match first {
                None => first = Some(cc),
                Some(f) => {
                    let (rf, rc) = (find(&mut parent_uf, f), find(&mut parent_uf, cc));
                    if rf != rc {
                        parent_uf[rf] = rc;
                    }
                }
            }
        }
    }
    let mut profit: HashMap<usize, f64> = HashMap::new();
    let mut members: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for v in rdg.node_ids() {
        let c = comp[v.index()];
        if c == usize::MAX {
            continue;
        }
        let root = find(&mut parent_uf, c);
        let e = profit.entry(root).or_insert(0.0);
        *e += weight(v);
        if graph.feeds_pinned_int(v) {
            *e -= copy_cost(v);
        }
        members.entry(root).or_default().push(v);
    }
    let mut counted: BTreeSet<NodeId> = BTreeSet::new();
    for v in rdg.node_ids() {
        if graph.native(v) || side[v.index()] != Subsystem::Int {
            continue;
        }
        for &c in rdg.succs(v) {
            let cc = comp[c.index()];
            if cc != usize::MAX && counted.insert(v) {
                let root = find(&mut parent_uf, cc);
                *profit.entry(root).or_insert(0.0) -= comm_cost(v);
            }
        }
    }
    let mut to_demote: Vec<NodeId> = Vec::new();
    let mut surviving: Vec<(usize, f64)> = Vec::new();
    for (root, p) in &profit {
        if *p < -EPS {
            to_demote.extend(members[root].iter().copied());
        } else {
            surviving.push((*root, *p));
        }
    }
    move_to_int(&mut side, &to_demote);

    // §6.6 extension: optional load-balance cap. Demote the least
    // profitable surviving components until the FPa share of offloadable
    // weight fits under the cap.
    if let Some(cap) = params.balance_cap {
        let total_weight: f64 = rdg.node_ids().map(weight).sum();
        let fp_weight = |side: &[Subsystem]| -> f64 {
            rdg.node_ids()
                .filter(|&v| graph.free(v) && side[v.index()] == Subsystem::Fp)
                .map(weight)
                .sum()
        };
        surviving.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite profits"));
        let mut idx = 0;
        while total_weight > 0.0 && fp_weight(&side) / total_weight > cap && idx < surviving.len() {
            let (root, _) = surviving[idx];
            let demote: Vec<NodeId> = members
                .get(&root)
                .map(|m| {
                    m.iter()
                        .copied()
                        .filter(|v| side[v.index()] == Subsystem::Fp)
                        .collect()
                })
                .unwrap_or_default();
            move_to_int(&mut side, &demote);
            idx += 1;
        }
    }

    // ---- Materialization --------------------------------------------------
    let choices: Vec<Choice> = rdg.node_ids().map(choice).collect();
    materialize(func, graph, &side, &choices)
}

/// Twin-register bookkeeping shared by materialization steps.
struct Twins {
    /// FP twin of an INT-homed register.
    fp: BTreeMap<VReg, VReg>,
    /// INT twin of an FPa-homed register.
    int: BTreeMap<VReg, VReg>,
    fp_queue: VecDeque<VReg>,
    int_queue: VecDeque<VReg>,
}

impl Twins {
    fn request_fp(&mut self, w: VReg, func: &mut Function, home: &mut Vec<Subsystem>) -> VReg {
        if let Some(&t) = self.fp.get(&w) {
            return t;
        }
        let t = func.new_vreg(Ty::Int);
        home.push(Subsystem::Fp);
        debug_assert_eq!(home.len(), t.index() + 1);
        self.fp.insert(w, t);
        self.fp_queue.push_back(w);
        t
    }

    fn request_int(&mut self, x: VReg, func: &mut Function, home: &mut Vec<Subsystem>) -> VReg {
        if let Some(&t) = self.int.get(&x) {
            return t;
        }
        let t = func.new_vreg(Ty::Int);
        home.push(Subsystem::Int);
        debug_assert_eq!(home.len(), t.index() + 1);
        self.int.insert(x, t);
        self.int_queue.push_back(x);
        t
    }
}

/// Rewrites the function — inserting copies/duplicates and retargeting
/// FPa-side uses — then derives the final assignment. `graph` is the
/// function's graph from before this rewrite.
pub(crate) fn materialize(
    func: &mut Function,
    graph: &FuncGraph,
    side: &[Subsystem],
    choices: &[Choice],
) -> FuncAssignment {
    let FuncGraph {
        rdg,
        insts,
        defs_of_vreg,
        ..
    } = graph;
    // Final home of each original vreg, and the side each instruction
    // ends on (the value side for loads and stores).
    let mut home = graph.homes(func, side);
    let mut inst_side = graph.inst_sides(func, side);

    // ---- Discover communication needs in program order --------------------
    let mut twins = Twins {
        fp: BTreeMap::new(),
        int: BTreeMap::new(),
        fp_queue: VecDeque::new(),
        int_queue: VecDeque::new(),
    };
    let needs_int_operands = |inst: &Inst| -> bool {
        matches!(
            inst,
            Inst::Call { .. }
                | Inst::Print { .. }
                | Inst::PrintChar { .. }
                | Inst::Bin {
                    op: BinOp::Mul | BinOp::Div | BinOp::Rem,
                    ..
                }
        )
    };
    let mut wants: Vec<(bool, VReg)> = Vec::new();
    for b in func.block_ids() {
        let block = func.block(b);
        for inst in &block.insts {
            let s = inst_side[&inst.id()];
            if s == Subsystem::Fp
                && matches!(
                    inst,
                    Inst::Bin { .. } | Inst::BinImm { .. } | Inst::Move { .. }
                )
            {
                for u in inst.uses() {
                    if func.vreg_ty(u) == Ty::Int && home[u.index()] == Subsystem::Int {
                        wants.push((true, u));
                    }
                }
            } else if needs_int_operands(inst) {
                for u in inst.uses() {
                    if func.vreg_ty(u) == Ty::Int && home[u.index()] == Subsystem::Fp {
                        wants.push((false, u));
                    }
                }
            }
        }
        match &block.term {
            Terminator::Br { id, cond, .. } => {
                if inst_side[id] == Subsystem::Fp && home[cond.index()] == Subsystem::Int {
                    wants.push((true, *cond));
                } else if inst_side[id] == Subsystem::Int && home[cond.index()] == Subsystem::Fp {
                    wants.push((false, *cond));
                }
            }
            Terminator::Ret { value: Some(v), .. }
                if func.vreg_ty(*v) == Ty::Int && home[v.index()] == Subsystem::Fp =>
            {
                wants.push((false, *v));
            }
            _ => {}
        }
    }
    for (is_fp, w) in wants {
        if is_fp {
            twins.request_fp(w, func, &mut home);
        } else {
            twins.request_int(w, func, &mut home);
        }
    }

    // ---- Generate twin definitions ----------------------------------------
    let mut after: Vec<(InstId, Inst)> = Vec::new();
    let mut at_entry: Vec<Inst> = Vec::new();
    let mut new_sides: Vec<(InstId, Subsystem)> = Vec::new();
    loop {
        if let Some(w) = twins.fp_queue.pop_front() {
            let wf = twins.fp[&w];
            for &d in defs_of_vreg.get(&w).map_or(&[][..], |v| v) {
                match rdg.kind(d) {
                    NodeKind::Param(_) => {
                        let id = func.new_inst_id();
                        at_entry.push(Inst::Copy {
                            id,
                            dst: wf,
                            src: w,
                        });
                        new_sides.push((id, Subsystem::Fp));
                    }
                    kind => {
                        let anchor = kind.inst().expect("non-param def has an instruction");
                        let dup_ok = side[d.index()] == Subsystem::Int
                            && graph.free(d)
                            && choices[d.index()] == Choice::Dup
                            && graph.dup_allowed(d);
                        if dup_ok {
                            let dup =
                                clone_for_fpa(func, &insts[&anchor], wf, &mut home, &mut twins);
                            new_sides.push((dup.id(), Subsystem::Fp));
                            after.push((anchor, dup));
                        } else {
                            let id = func.new_inst_id();
                            after.push((
                                anchor,
                                Inst::Copy {
                                    id,
                                    dst: wf,
                                    src: w,
                                },
                            ));
                            new_sides.push((id, Subsystem::Fp));
                        }
                    }
                }
            }
            continue;
        }
        if let Some(x) = twins.int_queue.pop_front() {
            let xi = twins.int[&x];
            for &d in defs_of_vreg.get(&x).map_or(&[][..], |v| v) {
                if let Some(anchor) = rdg.kind(d).inst() {
                    let id = func.new_inst_id();
                    after.push((
                        anchor,
                        Inst::Copy {
                            id,
                            dst: xi,
                            src: x,
                        },
                    ));
                    new_sides.push((id, Subsystem::Int));
                }
            }
            continue;
        }
        break;
    }

    // ---- Apply insertions ---------------------------------------------------
    let mut after_map: HashMap<InstId, Vec<Inst>> = HashMap::new();
    for (anchor, inst) in after {
        after_map.entry(anchor).or_default().push(inst);
    }
    for bi in 0..func.blocks.len() {
        let old = std::mem::take(&mut func.blocks[bi].insts);
        let mut fresh = Vec::with_capacity(old.len());
        if bi == BlockId::ENTRY.index() {
            fresh.append(&mut at_entry);
        }
        for inst in old {
            let id = inst.id();
            fresh.push(inst);
            if let Some(extra) = after_map.remove(&id) {
                fresh.extend(extra);
            }
        }
        func.blocks[bi].insts = fresh;
    }
    debug_assert!(after_map.is_empty(), "every anchor must exist");

    // ---- Rewrite uses --------------------------------------------------------
    for bi in 0..func.blocks.len() {
        let block = &mut func.blocks[bi];
        for inst in &mut block.insts {
            let Some(&s) = inst_side.get(&inst.id()) else {
                continue; // freshly inserted copies/dups: already correct
            };
            match inst {
                Inst::Bin {
                    op: BinOp::Mul | BinOp::Div | BinOp::Rem,
                    lhs,
                    rhs,
                    ..
                } => {
                    if let Some(&t) = twins.int.get(lhs) {
                        *lhs = t;
                    }
                    if let Some(&t) = twins.int.get(rhs) {
                        *rhs = t;
                    }
                }
                Inst::Bin { .. } | Inst::BinImm { .. } | Inst::Move { .. }
                    if s == Subsystem::Fp =>
                {
                    let fp = &twins.fp;
                    inst.for_each_use_mut(|u| {
                        if let Some(&t) = fp.get(u) {
                            *u = t;
                        }
                    });
                }
                Inst::Call { args, .. } => {
                    for a in args {
                        if let Some(&t) = twins.int.get(a) {
                            *a = t;
                        }
                    }
                }
                Inst::Print { src, .. } | Inst::PrintChar { src, .. } => {
                    if let Some(&t) = twins.int.get(src) {
                        *src = t;
                    }
                }
                _ => {}
            }
        }
        let mut term = block.term;
        match &mut term {
            Terminator::Br { id, cond, .. } => {
                if inst_side[id] == Subsystem::Fp {
                    if let Some(&t) = twins.fp.get(cond) {
                        *cond = t;
                    }
                } else if let Some(&t) = twins.int.get(cond) {
                    *cond = t;
                }
            }
            Terminator::Ret { value: Some(v), .. } => {
                if let Some(&t) = twins.int.get(v) {
                    *v = t;
                }
            }
            _ => {}
        }
        block.term = term;
    }

    for (id, s) in new_sides {
        inst_side.insert(id, s);
    }
    FuncAssignment {
        inst_side,
        vreg_side: home,
    }
}

/// Clones an instruction for FPa execution with destination `wf`,
/// retargeting INT-homed integer operands to their FP twins (allocating
/// them on demand).
fn clone_for_fpa(
    func: &mut Function,
    original: &Inst,
    wf: VReg,
    home: &mut Vec<Subsystem>,
    twins: &mut Twins,
) -> Inst {
    let id = func.new_inst_id();
    let mut dup = original.clone();
    set_id(&mut dup, id);
    dup.set_dst(wf);
    if matches!(dup, Inst::Load { .. }) {
        // A duplicated load keeps its INT base address and simply delivers
        // the word to the FP file (the `l.w` idiom).
        return dup;
    }
    // Collect operand rewrites first (cannot allocate twins while the
    // instruction is mutably borrowed).
    let mut rewrites: Vec<(VReg, VReg)> = Vec::new();
    for u in dup.uses() {
        if func.vreg_ty(u) == Ty::Int && home[u.index()] == Subsystem::Int {
            let t = twins.request_fp(u, func, home);
            rewrites.push((u, t));
        }
    }
    dup.for_each_use_mut(|u| {
        if let Some((_, t)) = rewrites.iter().find(|(from, _)| from == u) {
            *u = *t;
        }
    });
    dup
}

fn set_id(inst: &mut Inst, new: InstId) {
    use Inst::*;
    match inst {
        Bin { id, .. }
        | BinImm { id, .. }
        | Li { id, .. }
        | LiD { id, .. }
        | Move { id, .. }
        | La { id, .. }
        | Cvt { id, .. }
        | Load { id, .. }
        | Store { id, .. }
        | Call { id, .. }
        | Print { id, .. }
        | PrintChar { id, .. }
        | PrintDouble { id, .. }
        | Copy { id, .. } => *id = new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::{FunctionBuilder, Interp, MemWidth, Module};

    /// Figure 5/6 situation: the loop's branch slice shares the induction
    /// variable with addressing. The basic scheme keeps the branch in INT;
    /// the advanced scheme offloads it with one copy or duplicate per
    /// iteration.
    fn figure5_module() -> Module {
        let mut m = Module::new();
        let g = m.add_global("reg_tick", 264, vec![]);
        let gm = m.add_global("mask", 4, vec![0x55, 0, 0, 0]);
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let update = b.block();
        let latch = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let i = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin_imm(BinOp::Slt, i, 66);
        b.br(c, body, exit);
        b.switch_to(body);
        // Figure 3's mask test: (mask >> regno) & 1 — pure branch slice.
        let mbase = b.la(gm);
        let mask = b.load(mbase, 0, MemWidth::Word);
        let sh = b.bin(BinOp::Sra, mask, i);
        let bit = b.bin_imm(BinOp::And, sh, 1);
        b.br(bit, update, latch);
        b.switch_to(update);
        let base = b.la(g);
        let off = b.bin_imm(BinOp::Sll, i, 2);
        let addr = b.bin(BinOp::Add, base, off);
        let v = b.load(addr, 0, MemWidth::Word);
        let w = b.bin_imm(BinOp::Add, v, 1);
        b.store(w, addr, 0, MemWidth::Word);
        b.jump(latch);
        b.switch_to(latch);
        let i2 = b.bin_imm(BinOp::Add, i, 1);
        b.mov_to(i, i2);
        b.jump(header);
        b.switch_to(exit);
        let z = b.li(0);
        b.ret(Some(z));
        m.funcs.push(b.finish());
        m.assign_addresses();
        m
    }

    fn uniform_freq(func: &Function, loop_weight: f64) -> Vec<f64> {
        // entry/exit weight 1, loop blocks weighted heavily.
        func.block_ids()
            .map(|b| {
                if (1..=4).contains(&b.index()) {
                    loop_weight
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// The advanced scheme on one function, with its graph built here.
    fn advanced(func: &mut Function, freq: &[f64], params: &CostParams) -> FuncAssignment {
        let graph = FuncGraph::build(func);
        partition_advanced_func(func, &graph, freq, params)
    }

    /// Mechanism-pinning cost parameters (the aggressive end of the
    /// paper's ranges; the library default is calibrated separately).
    fn test_params() -> CostParams {
        CostParams {
            o_copy: 4.0,
            o_dupl: 2.0,
            balance_cap: None,
        }
    }

    #[test]
    fn advanced_offloads_branch_slice_with_communication() {
        let mut m = figure5_module();
        let (golden, _) = Interp::new(&m).run().unwrap();
        let freq = uniform_freq(&m.funcs[0], 100.0);
        let a = advanced(&mut m.funcs[0], &freq, &test_params());
        fpa_ir::verify::verify_module(&m).unwrap();
        // Semantics preserved.
        let (out, _) = Interp::new(&m).run().unwrap();
        assert_eq!(out.output, golden.output);
        assert_eq!(out.exit_code, golden.exit_code);
        assert_eq!(out.memory, golden.memory);
        // The loop branch is offloaded (bnez,a).
        let f = &m.funcs[0];
        let mut branch_sides = Vec::new();
        for b in f.block_ids() {
            if let Terminator::Br { id, .. } = f.block(b).term {
                branch_sides.push(a.side(id));
            }
        }
        assert!(
            branch_sides.contains(&Subsystem::Fp),
            "advanced scheme should offload the loop branch: {branch_sides:?}"
        );
        // Communication was materialized: at least one Copy or duplicated
        // instruction exists.
        let comm = f
            .insts()
            .filter(|(_, i)| matches!(i, Inst::Copy { .. }))
            .count();
        let total: usize = f.blocks.iter().map(|b| b.insts.len()).sum();
        assert!(comm > 0 || total > 10, "copies or duplicates inserted");
    }

    #[test]
    fn advanced_with_tiny_weights_stays_conservative() {
        // With negligible execution counts, Profit < 0 everywhere: the
        // branch slice stays in INT and no communication is inserted.
        let mut m = figure5_module();
        let before: usize = m.funcs[0].blocks.iter().map(|b| b.insts.len()).sum();
        let freq = vec![0.001; m.funcs[0].blocks.len()];
        let a = advanced(&mut m.funcs[0], &freq, &test_params());
        let after: usize = m.funcs[0].blocks.iter().map(|b| b.insts.len()).sum();
        assert_eq!(before, after, "no copies for cold code");
        let f = &m.funcs[0];
        for b in f.block_ids() {
            if let Terminator::Br { id, .. } = f.block(b).term {
                assert_eq!(a.side(id), Subsystem::Int);
            }
        }
    }

    #[test]
    fn semantics_preserved_with_calls_and_params() {
        // Calls force FPa->INT copies for actual arguments (§6.4).
        let mut m = Module::new();
        let g = m.add_global("out", 8, vec![]);
        let mut cb = FunctionBuilder::new("sink", None);
        let p = cb.param(Ty::Int);
        let e = cb.block();
        cb.switch_to(e);
        cb.print(p);
        cb.ret(None);
        m.funcs.push(cb.finish());
        let sink = m.func_id("sink").unwrap();

        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let i = b.li(0);
        let acc = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin_imm(BinOp::Slt, i, 8);
        b.br(c, body, exit);
        b.switch_to(body);
        let acc2 = b.bin(BinOp::Add, acc, i);
        b.mov_to(acc, acc2);
        let i2 = b.bin_imm(BinOp::Add, i, 1);
        b.mov_to(i, i2);
        b.jump(header);
        b.switch_to(exit);
        b.call(sink, vec![acc], None);
        let base = b.la(g);
        b.store(acc, base, 0, MemWidth::Word);
        b.ret(Some(acc));
        m.funcs.push(b.finish());
        m.assign_addresses();

        let (golden, _) = Interp::new(&m).run().unwrap();
        let freqs: Vec<Vec<f64>> = m
            .funcs
            .iter()
            .map(|f| f.block_ids().map(|_| 50.0).collect())
            .collect();
        for (i, f) in m.funcs.iter_mut().enumerate() {
            let _ = advanced(f, &freqs[i], &CostParams::default());
        }
        fpa_ir::verify::verify_module(&m).unwrap();
        let (out, _) = Interp::new(&m).run().unwrap();
        assert_eq!(out.output, golden.output);
        assert_eq!(out.exit_code, golden.exit_code);
        assert_eq!(out.memory, golden.memory);
    }

    #[test]
    fn cost_params_validated() {
        CostParams::default().validate();
    }

    #[test]
    #[should_panic(expected = "o_dupl < o_copy")]
    fn cost_params_reject_inverted_costs() {
        CostParams {
            o_copy: 2.0,
            o_dupl: 3.0,
            balance_cap: None,
        }
        .validate();
    }

    #[test]
    fn advanced_beats_basic_on_figure5() {
        use crate::basic::partition_basic_func;
        let m0 = figure5_module();
        let basic = partition_basic_func(&m0.funcs[0], &FuncGraph::build(&m0.funcs[0]));
        let basic_fp = m0.funcs[0]
            .insts()
            .filter(|(_, i)| {
                basic.side(i.id()) == Subsystem::Fp
                    && !matches!(i, Inst::Load { .. } | Inst::Store { .. })
            })
            .count();

        let mut m1 = figure5_module();
        let freq = uniform_freq(&m1.funcs[0], 100.0);
        let adv = advanced(&mut m1.funcs[0], &freq, &test_params());
        let adv_fp = m1.funcs[0]
            .insts()
            .filter(|(_, i)| {
                adv.side(i.id()) == Subsystem::Fp
                    && !matches!(i, Inst::Load { .. } | Inst::Store { .. })
            })
            .count();
        assert!(
            adv_fp > basic_fp,
            "advanced ({adv_fp}) should offload more than basic ({basic_fp})"
        );
    }
}
