//! Brute-force optimality oracle for the exact min-cut scheme.
//!
//! Enumerates every feasible assignment of a function's RDG and returns
//! the true minimum of [`CostModel::objective`] — an implementation of
//! the cost model that shares *nothing* with the flow-network encoding,
//! so agreement between the two is strong evidence that the network
//! construction is faithful (the differential property test in
//! `crates/fuzz/tests/optimal_exhaustive.rs` asserts exactly that over
//! hundreds of generated programs).
//!
//! The search space is decisions per *group*, not per node: free sibling
//! definitions of one vreg must share a side, and any group that is
//! address-pinned — or forced by the free-predecessor closure rule from
//! a forced group — is fixed to INT before enumeration. What remains is
//! `2^k` masks over the k genuinely free groups; the oracle refuses
//! functions with more than the caller's `max_groups` (the differential
//! harness uses 16, per-mask work is a few dozen adds, so the worst case
//! stays well under a second even unoptimized).

use crate::assignment::FuncAssignment;
use crate::optimal::CostModel;
use fpa_isa::Subsystem;
use fpa_rdg::NodeId;
use std::collections::HashMap;

/// The exhaustive-enumeration result.
pub struct Exhaustive {
    /// The true minimum modeled cost (scaled, same domain as
    /// [`CostModel::objective`]).
    pub cost: i64,
    /// A side vector attaining it (ties broken toward the
    /// lexicographically-first mask, i.e. toward INT — deterministic).
    pub side: Vec<Subsystem>,
    /// Number of free groups actually enumerated over.
    pub free_groups: usize,
}

/// Enumerates all feasible assignments of `model` and returns the true
/// minimum objective, or `None` when more than `max_groups` free groups
/// remain after pinning (the search space would exceed `2^max_groups`).
#[must_use]
pub fn exhaustive_minimum(model: &CostModel, max_groups: u32) -> Option<Exhaustive> {
    let rdg = model.rdg;
    let nn = rdg.len();
    let group = |v: NodeId| model.group_rep[v.index()];

    // ---- Fix groups that cannot be FPa ----------------------------------
    // Seed: any group with an address-pinned member. Propagate: a free
    // dependence p -> c with c forced INT forces p INT (the closure rule
    // forbids an FPa producer feeding an INT consumer).
    let mut fixed: HashMap<NodeId, bool> = HashMap::new();
    for v in rdg.node_ids() {
        if rdg.is_free(v) {
            let e = fixed.entry(group(v)).or_insert(false);
            *e |= rdg.addr_pinned(v);
        }
    }
    loop {
        let mut changed = false;
        for p in rdg.node_ids() {
            if !rdg.is_free(p) || fixed[&group(p)] {
                continue;
            }
            for &c in rdg.succs(p) {
                if rdg.is_free(c) && fixed[&group(c)] {
                    fixed.insert(group(p), true);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- Index the variable groups --------------------------------------
    let mut index: HashMap<NodeId, usize> = HashMap::new();
    for v in rdg.node_ids() {
        if rdg.is_free(v) && !fixed[&group(v)] {
            let next = index.len();
            index.entry(group(v)).or_insert(next);
        }
    }
    let k = index.len();
    if k as u32 > max_groups.min(24) {
        // 24 is an absolute ceiling (2^24 masks, u32 bit arithmetic);
        // callers normally pass 16.
        return None;
    }
    let bit_of = |v: NodeId| -> Option<u32> {
        if rdg.is_free(v) && !fixed[&group(v)] {
            Some(index[&group(v)] as u32)
        } else {
            None
        }
    };

    // ---- Precompute per-mask aggregates ----------------------------------
    // Constant part: weight of INT-fixed free nodes plus copies for native
    // values feeding pinned consumers (both independent of the mask).
    let mut base = 0i64;
    let mut w = vec![0i64; k]; // forgone weight when group stays INT
    let mut cc = vec![0i64; k]; // pinned-consumer copies when group is FPa
    for v in rdg.node_ids() {
        match bit_of(v) {
            Some(g) => {
                w[g as usize] += model.weight[v.index()];
                if rdg.feeds_pinned_int(v) {
                    cc[g as usize] += model.copy[v.index()];
                }
            }
            None if rdg.is_free(v) => base += model.weight[v.index()],
            None if rdg.is_native(v) && rdg.feeds_pinned_int(v) => base += model.copy[v.index()],
            None => {}
        }
    }
    // Closure constraints between variable groups: if gp is FPa, gc must
    // be FPa (else the forbidden FPa -> INT free dependence appears).
    let mut requires = vec![0u32; k];
    // Communication charges: producer v pays comm(v) when it is INT and
    // any variable-group free consumer is FPa. `group` is the producer's
    // own variable group when it has one (INT iff the bit is clear).
    struct Producer {
        group: Option<u32>,
        succ_mask: u32,
        comm: i64,
    }
    let mut producers: Vec<Producer> = Vec::new();
    for v in rdg.node_ids() {
        if rdg.is_free(v) {
            if let Some(gp) = bit_of(v) {
                for &c in rdg.succs(v) {
                    if let Some(gc) = bit_of(c) {
                        requires[gp as usize] |= 1 << gc;
                    }
                }
            }
        }
        if rdg.is_native(v) || model.comm[v.index()] == 0 {
            continue;
        }
        let mut succ_mask = 0u32;
        for &c in rdg.succs(v) {
            if let Some(gc) = bit_of(c) {
                succ_mask |= 1 << gc;
            }
        }
        if succ_mask != 0 {
            producers.push(Producer {
                group: bit_of(v),
                succ_mask,
                comm: model.comm[v.index()],
            });
        }
    }

    // ---- Enumerate --------------------------------------------------------
    // Bit set in `mask` = that group executes in FPa. Mask 0 (everything
    // INT) is always feasible, so `best` is always found.
    let mut best_mask = 0u32;
    let mut best_cost = i64::MAX;
    'mask: for mask in 0..(1u64 << k) as u32 {
        let mut cost = base;
        for g in 0..k {
            if mask & (1 << g) != 0 {
                if requires[g] & !mask != 0 {
                    continue 'mask;
                }
                cost += cc[g];
            } else {
                cost += w[g];
            }
        }
        for p in &producers {
            let is_int = match p.group {
                Some(g) => mask & (1 << g) == 0,
                None => true,
            };
            if is_int && mask & p.succ_mask != 0 {
                cost += p.comm;
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best_mask = mask;
        }
    }

    // ---- Reconstruct and cross-check the winning side vector -------------
    let side: Vec<Subsystem> = (0..nn)
        .map(|i| {
            let v = NodeId::new(i as u32);
            if rdg.is_native(v) {
                Subsystem::Fp
            } else {
                match bit_of(v) {
                    Some(g) if best_mask & (1 << g) != 0 => Subsystem::Fp,
                    _ => Subsystem::Int,
                }
            }
        })
        .collect();
    debug_assert!(model.feasible(&side), "enumerated winner must be feasible");
    debug_assert_eq!(
        best_cost,
        model.objective(&side),
        "aggregate accounting must match the objective"
    );
    Some(Exhaustive {
        cost: best_cost,
        side,
        free_groups: k,
    })
}

/// Convenience wrapper for tests: evaluates a scheme's returned
/// assignment under `model` (projection + objective in one call).
#[must_use]
pub fn assignment_cost(model: &CostModel, fa: &FuncAssignment) -> i64 {
    model.objective(&model.sides_of_assignment(fa))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advanced::CostParams;
    use crate::basic::partition_basic_func;
    use fpa_ir::{BinOp, FunctionBuilder, MemWidth, Ty};
    use fpa_rdg::Rdg;

    fn params() -> CostParams {
        CostParams {
            o_copy: 4.0,
            o_dupl: 2.0,
            balance_cap: None,
        }
    }

    /// A loop with an offloadable branch slice, an address web, and a
    /// store-value chain — a handful of free groups, comfortably under
    /// the enumeration limit.
    fn small_func() -> fpa_ir::Function {
        let mut b = FunctionBuilder::new("f", None);
        let base = b.param(Ty::Int);
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let mask = b.load(base, 256, MemWidth::Word);
        let i = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let c = b.bin_imm(BinOp::Slt, i, 64);
        b.br(c, body, exit);
        b.switch_to(body);
        let off = b.bin_imm(BinOp::Sll, i, 2);
        let addr = b.bin(BinOp::Add, base, off);
        let v = b.load(addr, 0, MemWidth::Word);
        let x = b.bin(BinOp::Xor, v, mask);
        let w = b.bin_imm(BinOp::Add, x, 1);
        b.store(w, addr, 0, MemWidth::Word);
        let i2 = b.bin_imm(BinOp::Add, i, 1);
        b.mov_to(i, i2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    fn loop_freq(f: &fpa_ir::Function, w: f64) -> Vec<f64> {
        f.block_ids()
            .map(|b| if (1..=2).contains(&b.index()) { w } else { 1.0 })
            .collect()
    }

    #[test]
    fn min_cut_matches_exhaustive_on_small_func() {
        let f = small_func();
        let rdg = Rdg::build(&f);
        for lw in [0.5, 2.0, 25.0, 400.0] {
            let freq = loop_freq(&f, lw);
            let model = CostModel::build(&rdg, &freq, &params());
            let cut = model.min_cut();
            let truth = exhaustive_minimum(&model, 16).expect("small function enumerates");
            assert_eq!(
                cut.cost, truth.cost,
                "min-cut must equal the brute-force minimum at loop weight {lw} \
                 ({} free groups)",
                truth.free_groups
            );
        }
    }

    #[test]
    fn exhaustive_dominates_basic_here() {
        let f = small_func();
        let rdg = Rdg::build(&f);
        let freq = loop_freq(&f, 100.0);
        let model = CostModel::build(&rdg, &freq, &params());
        let truth = exhaustive_minimum(&model, 16).unwrap();
        let basic_cost = assignment_cost(&model, &partition_basic_func(&f, &rdg));
        assert!(truth.cost <= basic_cost);
    }

    #[test]
    fn refuses_oversized_search_spaces() {
        let f = small_func();
        let rdg = Rdg::build(&f);
        let freq = loop_freq(&f, 10.0);
        let model = CostModel::build(&rdg, &freq, &params());
        let truth = exhaustive_minimum(&model, 16).unwrap();
        assert!(truth.free_groups > 0, "the test function has free groups");
        assert!(exhaustive_minimum(&model, truth.free_groups as u32 - 1).is_none());
    }

    #[test]
    fn all_int_mask_is_always_feasible() {
        let f = small_func();
        let rdg = Rdg::build(&f);
        let freq = loop_freq(&f, 0.25);
        let model = CostModel::build(&rdg, &freq, &params());
        let truth = exhaustive_minimum(&model, 16).unwrap();
        assert!(model.feasible(&truth.side));
        assert_eq!(truth.cost, model.objective(&truth.side));
    }
}
