//! Dataflow analyses: reaching definitions, def-use chains, liveness.
//!
//! Reaching definitions is the analysis the paper's RDG is built from
//! (§3: "These edges are determined by solving the reaching-definitions
//! dataflow problem").

use crate::cfg::Cfg;
use crate::func::{BlockId, Function, InstId, VReg};
use std::collections::HashMap;

/// A compact bitset used by the dataflow solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set over a universe of `n` elements.
    #[must_use]
    pub fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts `i`; returns whether the set changed.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        self.words[w] &= !(1 << b);
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        (self.words[w] >> b) & 1 == 1
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// `self &= other` (set intersection, the meet of must-analyses).
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterates set members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if (w >> b) & 1 == 1 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

/// Where a definition comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefPoint {
    /// The `i`-th formal parameter, defined at function entry. The paper
    /// models these as *dummy nodes pre-assigned to INT* (§6.4).
    Param(usize),
    /// An instruction that writes its destination register.
    Inst(InstId),
}

/// Reaching-definitions solution for one function.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    defs: Vec<(DefPoint, VReg)>,
    defs_of_vreg: Vec<Vec<usize>>,
    ins: Vec<BitSet>,
}

impl ReachingDefs {
    /// Solves reaching definitions over `func`.
    #[must_use]
    pub fn new(func: &Function, cfg: &Cfg) -> ReachingDefs {
        // Universe of definitions.
        let mut defs: Vec<(DefPoint, VReg)> = Vec::new();
        let mut defs_of_vreg: Vec<Vec<usize>> = vec![Vec::new(); func.num_vregs()];
        for (i, &p) in func.params.iter().enumerate() {
            defs_of_vreg[p.index()].push(defs.len());
            defs.push((DefPoint::Param(i), p));
        }
        let mut inst_def: HashMap<InstId, usize> = HashMap::new();
        for (_, inst) in func.insts() {
            if let Some(d) = inst.dst() {
                inst_def.insert(inst.id(), defs.len());
                defs_of_vreg[d.index()].push(defs.len());
                defs.push((DefPoint::Inst(inst.id()), d));
            }
        }
        let nd = defs.len();
        let nb = func.blocks.len();

        // Block-local gen/kill.
        let mut gens = vec![BitSet::new(nd); nb];
        let mut kills = vec![BitSet::new(nd); nb];
        for b in func.block_ids() {
            for inst in &func.block(b).insts {
                if let Some(d) = inst.dst() {
                    let me = inst_def[&inst.id()];
                    for &other in &defs_of_vreg[d.index()] {
                        if other != me {
                            kills[b.index()].insert(other);
                        }
                        gens[b.index()].remove(other);
                    }
                    gens[b.index()].insert(me);
                    kills[b.index()].remove(me);
                }
            }
        }

        // Iterate to fixpoint over reverse postorder.
        let mut ins = vec![BitSet::new(nd); nb];
        let mut outs = vec![BitSet::new(nd); nb];
        // Boundary: parameters reach the entry.
        for i in 0..func.params.len() {
            ins[BlockId::ENTRY.index()].insert(i);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo() {
                let mut inb = ins[b.index()].clone();
                for &p in cfg.preds(b) {
                    inb.union_with(&outs[p.index()]);
                }
                let mut outb = inb.clone();
                outb.subtract(&kills[b.index()]);
                outb.union_with(&gens[b.index()]);
                if outb != outs[b.index()] || inb != ins[b.index()] {
                    changed = true;
                    ins[b.index()] = inb;
                    outs[b.index()] = outb;
                }
            }
        }
        let _ = (gens, kills);
        ReachingDefs {
            defs,
            defs_of_vreg,
            ins,
        }
    }

    /// Number of definition points.
    #[must_use]
    pub fn num_defs(&self) -> usize {
        self.defs.len()
    }

    /// The definition point and defined register of def index `i`.
    #[must_use]
    pub fn def(&self, i: usize) -> (DefPoint, VReg) {
        self.defs[i]
    }

    /// All definition indices of `v`.
    #[must_use]
    pub fn defs_of(&self, v: VReg) -> &[usize] {
        &self.defs_of_vreg[v.index()]
    }

    /// The reaching set at the *start* of `b`.
    #[must_use]
    pub fn live_in_set(&self, b: BlockId) -> &BitSet {
        &self.ins[b.index()]
    }
}

/// Def-use chains: for every use of a register, the definitions that may
/// reach it. Users are identified by [`InstId`] (branch/return terminators
/// included, since they carry ids).
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    /// `(definition, user)` edges. A `Param` definition means the use may
    /// see the incoming parameter value.
    pub edges: Vec<(DefPoint, InstId)>,
    /// For each user instruction: the definitions reaching each of its
    /// operands, keyed by `(user, operand vreg)`.
    pub reaching: HashMap<(InstId, VReg), Vec<DefPoint>>,
}

impl DefUse {
    /// Builds def-use chains from a reaching-definitions solution.
    #[must_use]
    pub fn new(func: &Function, rd: &ReachingDefs) -> DefUse {
        let mut du = DefUse::default();
        for b in func.block_ids() {
            // Current reaching set, updated as we walk the block.
            let mut cur = rd.live_in_set(b).clone();
            let record = |cur: &BitSet, uses: &[VReg], user: InstId, du: &mut DefUse| {
                for &v in uses {
                    for &di in rd.defs_of(v) {
                        if cur.contains(di) {
                            let (dp, _) = rd.def(di);
                            du.edges.push((dp, user));
                            du.reaching.entry((user, v)).or_default().push(dp);
                        }
                    }
                }
            };
            for inst in &func.block(b).insts {
                record(&cur, &inst.uses(), inst.id(), &mut du);
                if let Some(d) = inst.dst() {
                    for &other in rd.defs_of(d) {
                        cur.remove(other);
                    }
                    // Find this inst's def index.
                    for &di in rd.defs_of(d) {
                        if rd.def(di).0 == DefPoint::Inst(inst.id()) {
                            cur.insert(di);
                        }
                    }
                }
            }
            let term = &func.block(b).term;
            if let Some(tid) = term.id() {
                record(&cur, &term.uses(), tid, &mut du);
            }
        }
        du
    }

    /// Definitions that may reach operand `v` of user `user`.
    #[must_use]
    pub fn reaching_defs(&self, user: InstId, v: VReg) -> &[DefPoint] {
        self.reaching.get(&(user, v)).map_or(&[], Vec::as_slice)
    }
}

/// Live-variable analysis (backward).
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
    nv: usize,
}

impl Liveness {
    /// Solves liveness over `func`.
    #[must_use]
    pub fn new(func: &Function, cfg: &Cfg) -> Liveness {
        let nv = func.num_vregs();
        let nb = func.blocks.len();
        let mut uses = vec![BitSet::new(nv); nb];
        let mut defs = vec![BitSet::new(nv); nb];
        for b in func.block_ids() {
            let bi = b.index();
            for inst in &func.block(b).insts {
                for u in inst.uses() {
                    if !defs[bi].contains(u.index()) {
                        uses[bi].insert(u.index());
                    }
                }
                if let Some(d) = inst.dst() {
                    defs[bi].insert(d.index());
                }
            }
            for u in func.block(b).term.uses() {
                if !defs[bi].contains(u.index()) {
                    uses[bi].insert(u.index());
                }
            }
        }
        let mut live_in = vec![BitSet::new(nv); nb];
        let mut live_out = vec![BitSet::new(nv); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                let mut out = BitSet::new(nv);
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s.index()]);
                }
                let mut inn = out.clone();
                inn.subtract(&defs[bi]);
                inn.union_with(&uses[bi]);
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            nv,
        }
    }

    /// Whether `v` is live at the start of `b`.
    #[must_use]
    pub fn live_in(&self, b: BlockId, v: VReg) -> bool {
        self.live_in[b.index()].contains(v.index())
    }

    /// Whether `v` is live at the end of `b`.
    #[must_use]
    pub fn live_out(&self, b: BlockId, v: VReg) -> bool {
        self.live_out[b.index()].contains(v.index())
    }

    /// Number of virtual registers in the analyzed function.
    #[must_use]
    pub fn num_vregs(&self) -> usize {
        self.nv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;
    use crate::types::Ty;

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
        let mut t = BitSet::new(130);
        t.insert(5);
        assert!(s.union_with(&t));
        assert!(s.contains(5));
        s.subtract(&t);
        assert!(!s.contains(5));
    }

    /// x = param; loop { x = x + 1 } — two defs of x reach the loop use.
    #[test]
    fn reaching_defs_in_loop() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let n = b.param(Ty::Int);
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        b.jump(header);
        b.switch_to(header);
        let cond = b.bin(BinOp::Slt, x, n);
        b.br(cond, body, exit);
        b.switch_to(body);
        let one = b.li(1);
        let add_id = b.peek_inst_id();
        let x2 = b.bin(BinOp::Add, x, one);
        b.mov_to(x, x2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(x));
        let f = b.finish();

        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::new(&f, &cfg);
        let du = DefUse::new(&f, &rd);
        // The add's use of x sees both the param and the move in the body.
        let reaching = du.reaching_defs(add_id, x);
        assert_eq!(reaching.len(), 2, "param def and loop-carried def");
        assert!(reaching.contains(&DefPoint::Param(0)));
        assert!(reaching.iter().any(|d| matches!(d, DefPoint::Inst(_))));
    }

    #[test]
    fn straightline_kill() {
        // v = 1; v = 2; use v — only the second li reaches.
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let entry = b.block();
        b.switch_to(entry);
        let v = b.li(1);
        let second_id = b.peek_inst_id();
        let w = b.li(2);
        b.mov_to(v, w);
        // Actually: v is redefined via mov_to; test the move's use of w.
        let ret_uses = b.peek_inst_id();
        let _ = ret_uses;
        b.ret(Some(v));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::new(&f, &cfg);
        let du = DefUse::new(&f, &rd);
        // The return's use of v must see only the move (which killed li 1).
        let ret_id = match f.block(BlockId::ENTRY).term {
            crate::inst::Terminator::Ret { id, .. } => id,
            _ => unreachable!(),
        };
        let reaching = du.reaching_defs(ret_id, v);
        assert_eq!(reaching.len(), 1);
        assert!(matches!(reaching[0], DefPoint::Inst(_)));
        // And the second li's def index exists.
        assert!(rd.num_defs() >= 3);
        let _ = second_id;
    }

    #[test]
    fn liveness_through_diamond() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let entry = b.block();
        let t = b.block();
        let z = b.block();
        let join = b.block();
        b.switch_to(entry);
        let x = b.li(10);
        b.br(p, t, z);
        b.switch_to(t);
        b.jump(join);
        b.switch_to(z);
        b.jump(join);
        b.switch_to(join);
        let s = b.bin(BinOp::Add, x, p);
        b.ret(Some(s));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        // x is live through both arms of the diamond.
        assert!(lv.live_out(entry, x));
        assert!(lv.live_in(t, x));
        assert!(lv.live_in(z, x));
        assert!(lv.live_in(join, x));
        assert!(!lv.live_out(join, x));
        // p live from entry into join.
        assert!(lv.live_in(entry, p));
        assert!(lv.live_in(join, p));
        // s is never live-out of join.
        assert!(!lv.live_out(join, s));
    }

    #[test]
    fn params_reach_entry_uses() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let entry = b.block();
        b.switch_to(entry);
        let use_id = b.peek_inst_id();
        let q = b.bin_imm(BinOp::Add, p, 1);
        b.ret(Some(q));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::new(&f, &cfg);
        let du = DefUse::new(&f, &rd);
        assert_eq!(du.reaching_defs(use_id, p), &[DefPoint::Param(0)]);
    }
}
