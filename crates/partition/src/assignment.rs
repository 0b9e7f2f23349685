//! Partition assignments: the contract between the partitioner and codegen.

use fpa_ir::{Function, InstId, Module, Ty, VReg};
use fpa_isa::Subsystem;
use fpa_rdg::{NodeKind, Rdg};
use std::collections::HashMap;

/// The per-function result of partitioning.
///
/// * `inst_side` — the subsystem each instruction's *value* belongs to.
///   For ALU/branch instructions this is where the instruction executes;
///   for loads and stores (which always execute on the INT load/store
///   unit) it is the file the value is delivered to / taken from, deciding
///   `lw` vs `l.w` and `sw` vs `s.w`.
/// * `vreg_side` — the home register file of every virtual register.
///   Codegen allocates FPa-homed integer registers in the floating-point
///   file and emits `cp_to_fpa`/`cp_to_int` whenever a definition or use
///   crosses files.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncAssignment {
    /// Subsystem per instruction id (terminator branch/return ids
    /// included).
    pub inst_side: HashMap<InstId, Subsystem>,
    /// Home file per virtual register, indexed by register index.
    pub vreg_side: Vec<Subsystem>,
}

impl FuncAssignment {
    /// An all-INT assignment for `func` (the conventional build): every
    /// integer value stays in the integer file, doubles in the FP file.
    #[must_use]
    pub fn conventional(func: &Function) -> FuncAssignment {
        let mut inst_side = HashMap::new();
        for (_, inst) in func.insts() {
            inst_side.insert(inst.id(), conventional_inst_side(func, inst));
        }
        for b in func.block_ids() {
            if let Some(id) = func.block(b).term.id() {
                inst_side.insert(id, Subsystem::Int);
            }
        }
        let vreg_side = (0..func.num_vregs())
            .map(|i| match func.vreg_ty(VReg::new(i as u32)) {
                Ty::Int => Subsystem::Int,
                Ty::Double => Subsystem::Fp,
            })
            .collect();
        FuncAssignment {
            inst_side,
            vreg_side,
        }
    }

    /// The side of instruction `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has no recorded side (instruction not in the
    /// assignment's function).
    #[must_use]
    pub fn side(&self, id: InstId) -> Subsystem {
        self.inst_side[&id]
    }

    /// The home file of `v`.
    #[must_use]
    pub fn home(&self, v: VReg) -> Subsystem {
        self.vreg_side[v.index()]
    }
}

/// The side a conventional (unpartitioned) compiler gives an instruction:
/// FP only for natively floating-point work.
pub(crate) fn conventional_inst_side(func: &Function, inst: &fpa_ir::Inst) -> Subsystem {
    use fpa_ir::Inst;
    match inst {
        Inst::Bin { op, .. } if op.operand_ty() == Ty::Double => Subsystem::Fp,
        Inst::LiD { .. } | Inst::Cvt { .. } => Subsystem::Fp,
        Inst::Move { dst, .. } | Inst::Copy { dst, .. } if func.vreg_ty(*dst) == Ty::Double => {
            Subsystem::Fp
        }
        Inst::Load { width, .. } | Inst::Store { width, .. } if width.value_ty() == Ty::Double => {
            Subsystem::Fp
        }
        _ => Subsystem::Int,
    }
}

/// The side of each instruction of the function `rdg` was built on,
/// terminators included, under the per-node `side`: a load or store takes
/// its value node's side.
pub(crate) fn inst_sides(rdg: &Rdg, side: &[Subsystem]) -> HashMap<InstId, Subsystem> {
    rdg.node_ids()
        .filter_map(|v| match rdg.kind(v) {
            NodeKind::Plain(id) | NodeKind::LoadValue(id) | NodeKind::StoreValue(id) => {
                Some((id, side[v.index()]))
            }
            NodeKind::LoadAddr(_) | NodeKind::StoreAddr(_) | NodeKind::Param(_) => None,
        })
        .collect()
}

/// The home file of each register of `func` under the per-node `side`:
/// FP for doubles and for integer registers whose every definition lands
/// in FPa; INT for the rest, parameters and never-written registers
/// included.
pub(crate) fn homes(rdg: &Rdg, func: &Function, side: &[Subsystem]) -> Vec<Subsystem> {
    (0..func.num_vregs())
        .map(|i| {
            let v = VReg::new(i as u32);
            let defs = rdg.defs(v);
            let fp = func.vreg_ty(v) == Ty::Double
                || (!defs.is_empty() && defs.iter().all(|&d| side[d.index()] == Subsystem::Fp));
            if fp {
                Subsystem::Fp
            } else {
                Subsystem::Int
            }
        })
        .collect()
}

/// A whole-module assignment, parallel to [`Module::funcs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Per-function assignments, indexed like `module.funcs`.
    pub funcs: Vec<FuncAssignment>,
}

impl Assignment {
    /// The conventional (all-INT) assignment for a module.
    #[must_use]
    pub fn conventional(module: &Module) -> Assignment {
        Assignment {
            funcs: module
                .funcs
                .iter()
                .map(FuncAssignment::conventional)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::{BinOp, FunctionBuilder, MemWidth};

    #[test]
    fn conventional_assignment_is_int_for_integer_code() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let e = b.block();
        b.switch_to(e);
        let v = b.load(p, 0, MemWidth::Word);
        let w = b.bin_imm(BinOp::Add, v, 1);
        b.store(w, p, 0, MemWidth::Word);
        b.ret(Some(w));
        let f = b.finish();
        let a = FuncAssignment::conventional(&f);
        for (_, inst) in f.insts() {
            assert_eq!(a.side(inst.id()), Subsystem::Int);
        }
        assert!(a.vreg_side.iter().all(|&s| s == Subsystem::Int));
    }

    #[test]
    fn conventional_assignment_keeps_doubles_in_fp() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Double));
        let p = b.param(Ty::Int);
        let e = b.block();
        b.switch_to(e);
        let d = b.load(p, 0, MemWidth::Dword);
        let d2 = b.bin(BinOp::FAdd, d, d);
        b.ret(Some(d2));
        let f = b.finish();
        let a = FuncAssignment::conventional(&f);
        assert_eq!(a.home(d), Subsystem::Fp);
        assert_eq!(a.home(d2), Subsystem::Fp);
        assert_eq!(a.home(p), Subsystem::Int);
        // The double load's value side is FP.
        let load_id = f.block(e).insts[0].id();
        assert_eq!(a.side(load_id), Subsystem::Fp);
    }
}
