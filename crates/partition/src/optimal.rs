//! Exact partitioning by minimum cut (ROADMAP item 1).
//!
//! The basic and advanced schemes are greedy heuristics over the RDG
//! profit model `Profit = Benefit − Overhead`. This module answers how
//! much they leave on the table by solving the same model *exactly*: the
//! partitioning decision is recast as a minimum s-t cut in a flow
//! network and solved with a self-contained Dinic's max-flow.
//!
//! # The network
//!
//! One flow node per RDG node, plus a source `s` (the INT subsystem), a
//! sink `t` (FPa), and one auxiliary node per communicating producer.
//! A node on the source side of the cut executes in INT, on the sink
//! side in FPa. All costs are profiled block frequencies scaled to
//! integers (see [`SCALE`]) so the flow value, the independently
//! recomputed objective, and the brute-force enumeration agree exactly,
//! with no floating-point epsilon.
//!
//! * **Pinning**: `s → v` with infinite capacity for every pinned-INT
//!   node and for every free node in a load/store address backward
//!   slice (the paper's "LdSt slice in INT", §4); `v → t` infinite for
//!   natively-FP nodes.
//! * **Benefit**: `v → t` with capacity `weight(v)` for every free
//!   node — cut exactly when the node stays in INT and its offloadable
//!   weight is forgone.
//! * **Communication**: for every non-native producer `v`, an auxiliary
//!   node `a_v` with `v → a_v` of capacity `comm(v)` and `a_v → c`
//!   infinite for each free consumer `c`. The `comm(v)` capacity is cut
//!   exactly when `v` is INT and at least one free consumer is FPa —
//!   one copy or duplicate per boundary definition, as in §6.2's
//!   accounting. `comm(v) = min(o_copy·n_B(v), dupl(v))` with `dupl`
//!   the §6.2 duplication fixpoint.
//! * **FPa→INT copies**: `s → v` with capacity `o_copy·n_B(v)` for
//!   nodes feeding pinned-INT consumers (actual arguments, return
//!   values, printed values, mul/div operands — §6.4) — cut when the
//!   producer lands in FPa.
//! * **Feasibility**: infinite edges `c → p` for every free→free
//!   dependence `p → c` keep the INT side closed under free
//!   predecessors, and infinite edges in both directions between free
//!   sibling definitions of one vreg keep register homes consistent —
//!   exactly the invariants the advanced scheme's `move_to_int`
//!   maintains, so every advanced (and basic) assignment is a feasible
//!   point and the exact minimum can only be at least as good.
//!
//! By max-flow/min-cut duality the minimum cut equals
//! `W_free − max Profit`: minimizing forgone weight plus communication
//! overhead is the same as maximizing `Benefit − Overhead`. The side
//! vector is recovered from the residual graph (source side = reachable
//! from `s`), and materialization — copy insertion, duplication, use
//! rewriting — reuses the advanced scheme's machinery unchanged.

use crate::advanced::{dup_allowed, materialize, per_function, Choice, CostParams};
use crate::assignment::{Assignment, FuncAssignment};
use crate::freq::BlockFreq;
use fpa_ir::{Function, Module};
use fpa_isa::Subsystem;
use fpa_rdg::{NodeId, NodeKind, Rdg};

/// Fixed-point scale for the integer cost domain: all frequencies and
/// overheads are multiplied by `SCALE` and rounded once. 2^10 keeps the
/// paper's fractional cost parameters (e.g. `o_dupl = 2.25`) exact while
/// leaving 50+ bits of headroom above the largest profiled counts.
pub const SCALE: f64 = 1024.0;

/// Infinite capacity: far above any sum of finite capacities, far below
/// overflow when a handful are added together.
const INF: i64 = i64::MAX / 8;

fn scaled(x: f64) -> i64 {
    (x * SCALE).round() as i64
}

/// The exact cost model of one function: everything the min-cut network,
/// the independent objective accounting, and the brute-force enumeration
/// share, over the function's [`Rdg`].
pub struct CostModel<'g> {
    /// The function's graph (built on the unpartitioned function).
    pub rdg: &'g Rdg,
    /// Offloadable weight per node, scaled (Plain nodes only; the halves
    /// of a load or store execute on the INT load/store unit regardless).
    pub(crate) weight: Vec<i64>,
    /// FPa→INT copy cost per node, scaled: `o_copy · n_B(v)`.
    pub(crate) copy: Vec<i64>,
    /// `min(copy, duplication fixpoint)` per node, scaled.
    pub(crate) comm: Vec<i64>,
    /// Copy-vs-duplicate choice per node (for materialization).
    choices: Vec<Choice>,
    /// Sibling-group representative per node: free definitions of one
    /// vreg share a group (their register must have one home); other
    /// nodes represent themselves.
    pub(crate) group_rep: Vec<NodeId>,
}

impl<'g> CostModel<'g> {
    /// Builds the model for the function `rdg` was built on, under
    /// profiled block frequencies and the given cost parameters.
    #[must_use]
    pub fn build(rdg: &'g Rdg, freq: &[f64], params: &CostParams) -> CostModel<'g> {
        let nn = rdg.len();
        let nfreq = |v: NodeId| freq[rdg.block_of(v).index()];

        let weight: Vec<i64> = rdg
            .node_ids()
            .map(|v| match rdg.kind(v) {
                NodeKind::Plain(_) if rdg.is_free(v) => scaled(nfreq(v)),
                _ => 0,
            })
            .collect();
        let copy: Vec<i64> = rdg
            .node_ids()
            .map(|v| scaled(params.o_copy * nfreq(v)))
            .collect();

        // §6.2 duplication fixpoint, made assignment-independent so the
        // cut capacities are constants: a duplicated producer re-delivers
        // every non-native operand, each at its own min(copy, dupl).
        let mut dupl = vec![INF; nn];
        for _ in 0..64 {
            let mut changed = false;
            for v in rdg.node_ids() {
                if rdg.is_native(v) || !dup_allowed(rdg, v) {
                    continue;
                }
                let mut cost = scaled(params.o_dupl * nfreq(v));
                for &p in rdg.preds(v) {
                    if !rdg.is_native(p) {
                        cost += copy[p.index()].min(dupl[p.index()]);
                    }
                }
                if cost < dupl[v.index()] {
                    dupl[v.index()] = cost;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let comm: Vec<i64> = (0..nn).map(|i| copy[i].min(dupl[i])).collect();
        let choices: Vec<Choice> = (0..nn)
            .map(|i| {
                if dupl[i] < copy[i] {
                    Choice::Dup
                } else {
                    Choice::Copy
                }
            })
            .collect();

        // Sibling groups: the free definitions of one vreg, represented
        // by the first of them (each node defines at most one vreg, so the
        // groups are disjoint).
        let group_rep: Vec<NodeId> = rdg
            .node_ids()
            .map(|v| {
                let first = rdg.siblings(v).iter().find(|&&d| rdg.is_free(d));
                match first {
                    Some(&first) if rdg.is_free(v) => first,
                    _ => v,
                }
            })
            .collect();

        CostModel {
            rdg,
            weight,
            copy,
            comm,
            choices,
            group_rep,
        }
    }

    /// The modeled cost of a side vector, recomputed independently of the
    /// network: forgone offloadable weight, plus one `comm` charge per
    /// INT producer with a free FPa consumer, plus one FPa→INT copy per
    /// FPa-side value feeding a pinned-INT consumer. This is a total
    /// function of the vector — it does not require feasibility — so
    /// basic and advanced assignments can be evaluated under the same
    /// model for the optimality-gap report.
    #[must_use]
    pub fn objective(&self, side: &[Subsystem]) -> i64 {
        let g = self.rdg;
        let mut cost = 0i64;
        for v in g.node_ids() {
            match side[v.index()] {
                Subsystem::Int => {
                    if g.is_free(v) {
                        cost += self.weight[v.index()];
                    }
                    if !g.is_native(v)
                        && g.succs(v)
                            .iter()
                            .any(|&c| g.is_free(c) && side[c.index()] == Subsystem::Fp)
                    {
                        cost += self.comm[v.index()];
                    }
                }
                Subsystem::Fp => {
                    if g.feeds_pinned_int(v) {
                        cost += self.copy[v.index()];
                    }
                }
            }
        }
        cost
    }

    /// Whether a side vector satisfies the model's constraints: pinned
    /// nodes (and address slices) INT, native nodes FPa, the INT side
    /// closed under free predecessors, and free sibling definitions on
    /// one side.
    #[must_use]
    pub fn feasible(&self, side: &[Subsystem]) -> bool {
        let g = self.rdg;
        for v in g.node_ids() {
            let s = side[v.index()];
            if (g.is_pinned(v) || g.addr_pinned(v)) && s != Subsystem::Int {
                return false;
            }
            if g.is_native(v) && s != Subsystem::Fp {
                return false;
            }
            if g.is_free(v) {
                if side[self.group_rep[v.index()].index()] != s {
                    return false;
                }
                if s == Subsystem::Fp
                    && g.succs(v)
                        .iter()
                        .any(|&c| g.is_free(c) && side[c.index()] == Subsystem::Int)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Projects a scheme's [`FuncAssignment`] back onto this model's RDG
    /// (which must have been built on the *unpartitioned* function; the
    /// ids of original instructions are stable through materialization).
    #[must_use]
    pub fn sides_of_assignment(&self, fa: &FuncAssignment) -> Vec<Subsystem> {
        let g = self.rdg;
        g.node_ids()
            .map(|v| {
                if g.is_pinned(v) {
                    Subsystem::Int
                } else if g.is_native(v) {
                    Subsystem::Fp
                } else {
                    let id = g.kind(v).inst().expect("free nodes have insts");
                    fa.side(id)
                }
            })
            .collect()
    }

    /// Solves the model exactly: returns the optimal side vector and its
    /// cost (= the max-flow value). Deterministic: the cut is always the
    /// source-reachable residual cut.
    #[must_use]
    pub fn min_cut(&self) -> MinCut {
        let g = self.rdg;
        let nn = g.len();
        // Flow-node layout: RDG nodes, then one aux per communicating
        // producer, then s, t.
        let mut aux_of: Vec<Option<usize>> = vec![None; nn];
        let mut next = nn;
        for v in g.node_ids() {
            if g.is_native(v) || self.comm[v.index()] == 0 {
                continue;
            }
            if g.succs(v).iter().any(|&c| g.is_free(c)) {
                aux_of[v.index()] = Some(next);
                next += 1;
            }
        }
        let (s, t) = (next, next + 1);
        let mut net = Dinic::new(next + 2);

        for v in g.node_ids() {
            let i = v.index();
            if g.is_pinned(v) || g.addr_pinned(v) {
                net.add_edge(s, i, INF);
            }
            if g.is_native(v) {
                net.add_edge(i, t, INF);
            }
            if g.is_free(v) && self.weight[i] > 0 {
                net.add_edge(i, t, self.weight[i]);
            }
            if g.feeds_pinned_int(v) && !g.is_pinned(v) && self.copy[i] > 0 {
                net.add_edge(s, i, self.copy[i]);
            }
            if let Some(a) = aux_of[i] {
                net.add_edge(i, a, self.comm[i]);
                for &c in g.succs(v) {
                    if g.is_free(c) {
                        net.add_edge(a, c.index(), INF);
                    }
                }
            }
            if g.is_free(v) {
                for &c in g.succs(v) {
                    if g.is_free(c) {
                        net.add_edge(c.index(), i, INF);
                    }
                }
                let rep = self.group_rep[i];
                if rep != v {
                    net.add_edge(i, rep.index(), INF);
                    net.add_edge(rep.index(), i, INF);
                }
            }
        }

        let cost = net.max_flow(s, t);
        let reach = net.residual_reachable(s);
        let side: Vec<Subsystem> = (0..nn)
            .map(|i| {
                if reach[i] {
                    Subsystem::Int
                } else {
                    Subsystem::Fp
                }
            })
            .collect();
        debug_assert!(self.feasible(&side), "min cut must be feasible");
        debug_assert_eq!(
            cost,
            self.objective(&side),
            "flow value must equal the recomputed objective"
        );
        MinCut { side, cost }
    }
}

/// The result of [`CostModel::min_cut`].
pub struct MinCut {
    /// The exact-optimal side per RDG node.
    pub side: Vec<Subsystem>,
    /// The minimum modeled cost (scaled; equals the max-flow value).
    pub cost: i64,
}

/// Runs the exact scheme over a whole module, inserting copy and
/// duplicate instructions in place (like [`crate::partition_advanced`]).
#[must_use]
pub fn partition_optimal(module: &mut Module, freq: &BlockFreq, params: &CostParams) -> Assignment {
    partition_optimal_with(&Rdg::build_all(module), module, freq, params)
}

/// [`partition_optimal`] over graphs already built for the unpartitioned
/// `module` (one per function, as [`Rdg::build_all`] returns them).
#[must_use]
pub fn partition_optimal_with(
    graphs: &[Rdg],
    module: &mut Module,
    freq: &BlockFreq,
    params: &CostParams,
) -> Assignment {
    per_function(graphs, module, freq, params, partition_optimal_func)
}

/// Runs the exact scheme over one function, given the graph built on it
/// before partitioning.
#[must_use]
pub fn partition_optimal_func(
    func: &mut Function,
    rdg: &Rdg,
    freq: &[f64],
    params: &CostParams,
) -> FuncAssignment {
    let model = CostModel::build(rdg, freq, params);
    materialize(func, rdg, &model.min_cut().side, &model.choices)
}

/// Dinic's max-flow on an adjacency-list residual graph. Self-contained:
/// the only solver dependency of the exact scheme.
struct Dinic {
    /// Per-edge target node; edge `2k+1` is the reverse of edge `2k`.
    to: Vec<u32>,
    /// Per-edge residual capacity.
    cap: Vec<i64>,
    /// Per-node incident edge ids.
    adj: Vec<Vec<u32>>,
    level: Vec<u32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(n: usize) -> Dinic {
        Dinic {
            to: Vec::new(),
            cap: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        debug_assert!(cap >= 0);
        let e = self.to.len() as u32;
        self.to.push(to as u32);
        self.cap.push(cap);
        self.to.push(from as u32);
        self.cap.push(0);
        self.adj[from].push(e);
        self.adj[to].push(e + 1);
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        const UNSEEN: u32 = u32::MAX;
        self.level.iter_mut().for_each(|l| *l = UNSEEN);
        self.level[s] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &e in &self.adj[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && self.level[v] == UNSEEN {
                    self.level[v] = self.level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        self.level[t] != UNSEEN
    }

    fn dfs(&mut self, u: usize, t: usize, limit: i64) -> i64 {
        if u == t {
            return limit;
        }
        while self.iter[u] < self.adj[u].len() {
            let e = self.adj[u][self.iter[u]] as usize;
            let v = self.to[e] as usize;
            if self.cap[e] > 0 && self.level[v] == self.level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[e]));
                if pushed > 0 {
                    self.cap[e] -= pushed;
                    self.cap[e ^ 1] += pushed;
                    return pushed;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let mut flow = 0;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs(s, t, i64::MAX);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }

    /// Nodes reachable from `s` in the final residual graph: the source
    /// (INT) side of the canonical minimum cut.
    fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for &e in &self.adj[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advanced::partition_advanced_func;
    use crate::basic::partition_basic_func;
    use fpa_ir::{BinOp, FunctionBuilder, Interp, MemWidth, Terminator, Ty};

    fn test_params() -> CostParams {
        CostParams {
            o_copy: 4.0,
            o_dupl: 2.0,
            balance_cap: None,
        }
    }

    /// The advanced scheme's figure-5 module: loop branch slice sharing
    /// the induction variable with addressing.
    fn figure5_module() -> fpa_ir::Module {
        let mut m = fpa_ir::Module::new();
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

    fn loop_freq(func: &Function, loop_weight: f64) -> Vec<f64> {
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

    #[test]
    fn optimal_preserves_semantics_on_figure5() {
        let mut m = figure5_module();
        let (golden, _) = Interp::new(&m).run().unwrap();
        let freq = loop_freq(&m.funcs[0], 100.0);
        let rdg = Rdg::build(&m.funcs[0]);
        let a = partition_optimal_func(&mut m.funcs[0], &rdg, &freq, &test_params());
        fpa_ir::verify::verify_module(&m).unwrap();
        let (out, _) = Interp::new(&m).run().unwrap();
        assert_eq!(out.output, golden.output);
        assert_eq!(out.exit_code, golden.exit_code);
        assert_eq!(out.memory, golden.memory);
        // The loop branch slice is profitable: it must be offloaded.
        let f = &m.funcs[0];
        let mut offloaded = false;
        for b in f.block_ids() {
            if let Terminator::Br { id, .. } = f.block(b).term {
                offloaded |= a.side(id) == Subsystem::Fp;
            }
        }
        assert!(offloaded, "optimal should offload the hot branch slice");
    }

    #[test]
    fn flow_value_equals_recomputed_objective() {
        let m = figure5_module();
        let freq = loop_freq(&m.funcs[0], 100.0);
        let rdg = Rdg::build(&m.funcs[0]);
        let model = CostModel::build(&rdg, &freq, &test_params());
        let cut = model.min_cut();
        assert!(model.feasible(&cut.side));
        assert_eq!(cut.cost, model.objective(&cut.side));
    }

    #[test]
    fn optimal_dominates_basic_and_advanced_on_figure5() {
        let m0 = figure5_module();
        let freq = loop_freq(&m0.funcs[0], 100.0);
        let rdg = Rdg::build(&m0.funcs[0]);
        let model = CostModel::build(&rdg, &freq, &test_params());
        let cut = model.min_cut();

        let basic = partition_basic_func(&m0.funcs[0], &rdg);
        let basic_cost = model.objective(&model.sides_of_assignment(&basic));

        let mut m1 = figure5_module();
        let adv = partition_advanced_func(&mut m1.funcs[0], &rdg, &freq, &test_params());
        let adv_side = model.sides_of_assignment(&adv);
        assert!(
            model.feasible(&adv_side),
            "advanced assignments are feasible points of the exact model"
        );
        let adv_cost = model.objective(&adv_side);

        assert!(
            cut.cost <= basic_cost && cut.cost <= adv_cost,
            "optimal {} must dominate basic {} and advanced {}",
            cut.cost,
            basic_cost,
            adv_cost
        );
    }

    #[test]
    fn cold_code_stays_in_int() {
        // With negligible execution counts every offload is unprofitable:
        // the exact scheme must agree with the conservative answer and
        // insert nothing.
        let mut m = figure5_module();
        let before: usize = m.funcs[0].blocks.iter().map(|b| b.insts.len()).sum();
        let freq = vec![0.001; m.funcs[0].blocks.len()];
        let rdg = Rdg::build(&m.funcs[0]);
        let a = partition_optimal_func(&mut m.funcs[0], &rdg, &freq, &test_params());
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
    fn conventional_projection_costs_total_free_weight() {
        // The all-INT vector forgoes every free node's weight and pays no
        // communication at all.
        let m = figure5_module();
        let freq = loop_freq(&m.funcs[0], 10.0);
        let rdg = Rdg::build(&m.funcs[0]);
        let model = CostModel::build(&rdg, &freq, &test_params());
        let all_int: Vec<Subsystem> = rdg
            .node_ids()
            .map(|v| {
                if rdg.is_native(v) {
                    Subsystem::Fp
                } else {
                    Subsystem::Int
                }
            })
            .collect();
        assert!(model.feasible(&all_int));
        let total: i64 = model.weight.iter().sum();
        assert_eq!(model.objective(&all_int), total);
        assert!(model.min_cut().cost <= total);
    }

    #[test]
    fn scaled_costs_round_not_truncate() {
        assert_eq!(scaled(2.25), 2304);
        assert_eq!(scaled(0.0), 0);
        assert_eq!(scaled(1.0 / 1024.0), 1);
    }
}
