//! Content-addressed persistence for compile artifacts.
//!
//! This module turns the generic byte store (`fpa_store`) into a typed
//! compile cache: [`build_suite_cached`] is a drop-in replacement for
//! `Compiler::build_suite` that consults the process-wide *ambient*
//! store (configured by [`set_ambient`], which every tool's `--store
//! DIR` flag calls) before running the compiler.
//!
//! **Key derivation.** An artifact's identity is the hash of everything
//! that can change its bytes:
//!
//! 1. a format tag (`"fpa-artifact-v1"`),
//! 2. the **compiler fingerprint** — a hash over the full source text of
//!    every frontend/IR/partition/codegen file and of the payload codec
//!    (embedded at build time with `include_str!`), so editing any
//!    compiler stage or the codec invalidates the whole store rather
//!    than serving stale artifacts,
//! 3. the artifact kind (`"suite"`),
//! 4. the *canonical* workload source (`\r\n` normalized to `\n` — the
//!    parser treats both the same, so they must key the same), and
//! 5. every [`CostParams`] field by exact bit pattern.
//!
//! **Payload format.** [`SuiteArtifacts`] is serialized with the
//! explicit little-endian codec in `fpa_store::codec`. There is no
//! in-band schema: the key already pins the compiler revision, so a
//! payload is only decoded by the code that produced it. Decoding is
//! still fully checked; if a verified payload nevertheless fails to
//! decode (an encoder bug, or a fingerprint that missed a dependency),
//! the entry is evicted and the workload transparently recompiled —
//! a corrupt store can cost time, never correctness.

use crate::compiler::{Compiler, Error, StageTimings, SuiteArtifacts};
use fpa_ir::{
    BinOp, Block, BlockId, CvtKind, FuncId, Function, Global, InstId, MemWidth, Module, Profile,
    Terminator, Ty, VReg,
};
use fpa_isa::{DataItem, FpReg, IntReg, Op, Program, Reg, Subsystem, Symbol, SymbolKind};
use fpa_partition::{Assignment, CostParams, FuncAssignment, PartitionStats};
use fpa_store::codec::{CodecError, Decoder, Encoder};
pub use fpa_store::Key;
use fpa_store::{Hasher, Outcome, Store, StoreStats};
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

// ---- Key derivation ---------------------------------------------------

/// Every compiler-stage source file, embedded so the fingerprint tracks
/// the code actually compiled into this binary. The harness's own
/// compile driver is included too: it decides pass order and what goes
/// into the bundle. So is the payload codec (this file and
/// `fpa_store::codec`): a codec edit that keeps every field's type would
/// otherwise decode old entries into wrong values.
const COMPILER_SOURCES: &[&str] = &[
    include_str!("../../frontend/src/ast.rs"),
    include_str!("../../frontend/src/lib.rs"),
    include_str!("../../frontend/src/lower.rs"),
    include_str!("../../frontend/src/parser.rs"),
    include_str!("../../frontend/src/token.rs"),
    include_str!("../../ir/src/builder.rs"),
    include_str!("../../ir/src/cfg.rs"),
    include_str!("../../ir/src/dataflow.rs"),
    include_str!("../../ir/src/display.rs"),
    include_str!("../../ir/src/func.rs"),
    include_str!("../../ir/src/inst.rs"),
    include_str!("../../ir/src/interp.rs"),
    include_str!("../../ir/src/lib.rs"),
    include_str!("../../ir/src/opt/constfold.rs"),
    include_str!("../../ir/src/opt/copyprop.rs"),
    include_str!("../../ir/src/opt/cse.rs"),
    include_str!("../../ir/src/opt/dce.rs"),
    include_str!("../../ir/src/opt/licm.rs"),
    include_str!("../../ir/src/opt/mod.rs"),
    include_str!("../../ir/src/opt/simplify_cfg.rs"),
    include_str!("../../ir/src/opt/webs.rs"),
    include_str!("../../ir/src/types.rs"),
    include_str!("../../ir/src/verify.rs"),
    include_str!("../../isa/src/hostio.rs"),
    include_str!("../../isa/src/inst.rs"),
    include_str!("../../isa/src/lib.rs"),
    include_str!("../../isa/src/op.rs"),
    include_str!("../../isa/src/program.rs"),
    include_str!("../../isa/src/reg.rs"),
    include_str!("../../rdg/src/graph.rs"),
    include_str!("../../rdg/src/lib.rs"),
    include_str!("../../rdg/src/slices.rs"),
    include_str!("../../partition/src/advanced.rs"),
    include_str!("../../partition/src/assignment.rs"),
    include_str!("../../partition/src/basic.rs"),
    include_str!("../../partition/src/exhaustive.rs"),
    include_str!("../../partition/src/freq.rs"),
    include_str!("../../partition/src/lib.rs"),
    include_str!("../../partition/src/optimal.rs"),
    include_str!("../../partition/src/stats.rs"),
    include_str!("../../codegen/src/lib.rs"),
    include_str!("../../codegen/src/lower.rs"),
    include_str!("../../codegen/src/peephole.rs"),
    include_str!("../../codegen/src/regalloc.rs"),
    include_str!("compiler.rs"),
    include_str!("artifact.rs"),
    include_str!("../../store/src/codec.rs"),
];

/// Hash of the whole compiler's source, computed once per process.
#[must_use]
pub fn fingerprint() -> Key {
    static FP: OnceLock<Key> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut h = Hasher::new();
        for src in COMPILER_SOURCES {
            h.update_str(src);
        }
        h.finish()
    })
}

/// The store key of one workload's [`SuiteArtifacts`] under `params`.
#[must_use]
pub fn suite_key(src: &str, params: &CostParams) -> Key {
    let canonical: String = src.replace("\r\n", "\n");
    let mut h = Hasher::new();
    h.update_str("fpa-artifact-v1")
        .update(&fingerprint().0)
        .update_str("suite")
        .update_str(&canonical)
        .update_f64(params.o_copy)
        .update_f64(params.o_dupl);
    match params.balance_cap {
        None => h.update_u64(0),
        Some(cap) => h.update_u64(1).update_f64(cap),
    };
    h.finish()
}

// ---- Payload codec ----------------------------------------------------

/// [`BinOp`] variants in declaration order; index = wire tag.
const BINOPS: [BinOp; 21] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Nor,
    BinOp::Sll,
    BinOp::Srl,
    BinOp::Sra,
    BinOp::Slt,
    BinOp::Sltu,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::FAdd,
    BinOp::FSub,
    BinOp::FMul,
    BinOp::FDiv,
    BinOp::FCeq,
    BinOp::FClt,
    BinOp::FCle,
];

fn enc_op(e: &mut Encoder, op: Op) {
    let idx = Op::ALL
        .iter()
        .position(|&o| o == op)
        .expect("every opcode appears in Op::ALL");
    e.u8(idx as u8);
}

fn dec_op(d: &mut Decoder) -> Result<Op, CodecError> {
    Op::ALL
        .get(d.u8()? as usize)
        .copied()
        .ok_or(CodecError::Invalid("opcode"))
}

fn enc_mreg(e: &mut Encoder, r: Option<Reg>) {
    match r {
        None => {
            e.u8(0);
        }
        Some(Reg::Int(r)) => {
            e.u8(1).u8(r.index() as u8);
        }
        Some(Reg::Fp(r)) => {
            e.u8(2).u8(r.index() as u8);
        }
    }
}

fn dec_mreg(d: &mut Decoder) -> Result<Option<Reg>, CodecError> {
    match d.u8()? {
        0 => Ok(None),
        tag @ (1 | 2) => {
            let idx = d.u8()?;
            if idx >= 32 {
                return Err(CodecError::Invalid("register index"));
            }
            Ok(Some(if tag == 1 {
                IntReg::new(idx).into()
            } else {
                FpReg::new(idx).into()
            }))
        }
        _ => Err(CodecError::Invalid("register tag")),
    }
}

fn enc_minst(e: &mut Encoder, i: &fpa_isa::Inst) {
    enc_op(e, i.op);
    enc_mreg(e, i.rd);
    enc_mreg(e, i.rs);
    enc_mreg(e, i.rt);
    e.i32(i.imm).u32(i.target);
}

fn dec_minst(d: &mut Decoder) -> Result<fpa_isa::Inst, CodecError> {
    Ok(fpa_isa::Inst {
        op: dec_op(d)?,
        rd: dec_mreg(d)?,
        rs: dec_mreg(d)?,
        rt: dec_mreg(d)?,
        imm: d.i32()?,
        target: d.u32()?,
    })
}

fn enc_program(e: &mut Encoder, p: &Program) {
    e.usize(p.code.len());
    for i in &p.code {
        enc_minst(e, i);
    }
    e.usize(p.data.len());
    for item in &p.data {
        e.u32(item.addr).bytes(&item.bytes).str(&item.name);
    }
    e.u32(p.entry);
    e.usize(p.symbols.len());
    for s in &p.symbols {
        e.u32(s.pc).str(&s.name).u8(match s.kind {
            SymbolKind::Function => 0,
            SymbolKind::Block => 1,
        });
    }
    e.u32(p.stack_top);
}

fn dec_program(d: &mut Decoder) -> Result<Program, CodecError> {
    let mut p = Program::default();
    for _ in 0..d.usize()? {
        p.code.push(dec_minst(d)?);
    }
    for _ in 0..d.usize()? {
        p.data.push(DataItem {
            addr: d.u32()?,
            bytes: d.bytes()?.to_vec(),
            name: d.str()?.to_string(),
        });
    }
    p.entry = d.u32()?;
    for _ in 0..d.usize()? {
        p.symbols.push(Symbol {
            pc: d.u32()?,
            name: d.str()?.to_string(),
            kind: match d.u8()? {
                0 => SymbolKind::Function,
                1 => SymbolKind::Block,
                _ => return Err(CodecError::Invalid("symbol kind")),
            },
        });
    }
    p.stack_top = d.u32()?;
    Ok(p)
}

fn enc_ty(e: &mut Encoder, ty: Ty) {
    e.u8(match ty {
        Ty::Int => 0,
        Ty::Double => 1,
    });
}

fn dec_ty(d: &mut Decoder) -> Result<Ty, CodecError> {
    match d.u8()? {
        0 => Ok(Ty::Int),
        1 => Ok(Ty::Double),
        _ => Err(CodecError::Invalid("type")),
    }
}

fn enc_vreg(e: &mut Encoder, v: VReg) {
    e.u32(v.index() as u32);
}

fn dec_vreg(d: &mut Decoder) -> Result<VReg, CodecError> {
    Ok(VReg::new(d.u32()?))
}

fn enc_binop(e: &mut Encoder, op: BinOp) {
    let idx = BINOPS
        .iter()
        .position(|&o| o == op)
        .expect("every BinOp appears in BINOPS");
    e.u8(idx as u8);
}

fn dec_binop(d: &mut Decoder) -> Result<BinOp, CodecError> {
    BINOPS
        .get(d.u8()? as usize)
        .copied()
        .ok_or(CodecError::Invalid("binop"))
}

fn enc_width(e: &mut Encoder, w: MemWidth) {
    e.u8(match w {
        MemWidth::Byte => 0,
        MemWidth::ByteU => 1,
        MemWidth::Word => 2,
        MemWidth::Dword => 3,
    });
}

fn dec_width(d: &mut Decoder) -> Result<MemWidth, CodecError> {
    match d.u8()? {
        0 => Ok(MemWidth::Byte),
        1 => Ok(MemWidth::ByteU),
        2 => Ok(MemWidth::Word),
        3 => Ok(MemWidth::Dword),
        _ => Err(CodecError::Invalid("mem width")),
    }
}

#[allow(clippy::enum_glob_use)]
fn enc_ir_inst(e: &mut Encoder, i: &fpa_ir::Inst) {
    use fpa_ir::Inst::*;
    match i {
        Bin {
            id,
            dst,
            op,
            lhs,
            rhs,
        } => {
            e.u8(0).u32(id.index() as u32);
            enc_vreg(e, *dst);
            enc_binop(e, *op);
            enc_vreg(e, *lhs);
            enc_vreg(e, *rhs);
        }
        BinImm {
            id,
            dst,
            op,
            lhs,
            imm,
        } => {
            e.u8(1).u32(id.index() as u32);
            enc_vreg(e, *dst);
            enc_binop(e, *op);
            enc_vreg(e, *lhs);
            e.i32(*imm);
        }
        Li { id, dst, imm } => {
            e.u8(2).u32(id.index() as u32);
            enc_vreg(e, *dst);
            e.i32(*imm);
        }
        LiD { id, dst, val } => {
            e.u8(3).u32(id.index() as u32);
            enc_vreg(e, *dst);
            e.f64(*val);
        }
        Move { id, dst, src } => {
            e.u8(4).u32(id.index() as u32);
            enc_vreg(e, *dst);
            enc_vreg(e, *src);
        }
        La { id, dst, global } => {
            e.u8(5).u32(id.index() as u32);
            enc_vreg(e, *dst);
            e.u32(*global);
        }
        Cvt { id, dst, src, kind } => {
            e.u8(6).u32(id.index() as u32);
            enc_vreg(e, *dst);
            enc_vreg(e, *src);
            e.u8(match kind {
                CvtKind::IntToDouble => 0,
                CvtKind::DoubleToInt => 1,
            });
        }
        Load {
            id,
            dst,
            base,
            offset,
            width,
        } => {
            e.u8(7).u32(id.index() as u32);
            enc_vreg(e, *dst);
            enc_vreg(e, *base);
            e.i32(*offset);
            enc_width(e, *width);
        }
        Store {
            id,
            value,
            base,
            offset,
            width,
        } => {
            e.u8(8).u32(id.index() as u32);
            enc_vreg(e, *value);
            enc_vreg(e, *base);
            e.i32(*offset);
            enc_width(e, *width);
        }
        Call {
            id,
            callee,
            args,
            dst,
        } => {
            e.u8(9).u32(id.index() as u32).u32(callee.index() as u32);
            e.usize(args.len());
            for a in args {
                enc_vreg(e, *a);
            }
            match dst {
                None => {
                    e.u8(0);
                }
                Some(v) => {
                    e.u8(1);
                    enc_vreg(e, *v);
                }
            }
        }
        Print { id, src } => {
            e.u8(10).u32(id.index() as u32);
            enc_vreg(e, *src);
        }
        PrintChar { id, src } => {
            e.u8(11).u32(id.index() as u32);
            enc_vreg(e, *src);
        }
        PrintDouble { id, src } => {
            e.u8(12).u32(id.index() as u32);
            enc_vreg(e, *src);
        }
        Copy { id, dst, src } => {
            e.u8(13).u32(id.index() as u32);
            enc_vreg(e, *dst);
            enc_vreg(e, *src);
        }
    }
}

fn dec_ir_inst(d: &mut Decoder) -> Result<fpa_ir::Inst, CodecError> {
    let tag = d.u8()?;
    let id = InstId::new(d.u32()?);
    Ok(match tag {
        0 => fpa_ir::Inst::Bin {
            id,
            dst: dec_vreg(d)?,
            op: dec_binop(d)?,
            lhs: dec_vreg(d)?,
            rhs: dec_vreg(d)?,
        },
        1 => fpa_ir::Inst::BinImm {
            id,
            dst: dec_vreg(d)?,
            op: dec_binop(d)?,
            lhs: dec_vreg(d)?,
            imm: d.i32()?,
        },
        2 => fpa_ir::Inst::Li {
            id,
            dst: dec_vreg(d)?,
            imm: d.i32()?,
        },
        3 => fpa_ir::Inst::LiD {
            id,
            dst: dec_vreg(d)?,
            val: d.f64()?,
        },
        4 => fpa_ir::Inst::Move {
            id,
            dst: dec_vreg(d)?,
            src: dec_vreg(d)?,
        },
        5 => fpa_ir::Inst::La {
            id,
            dst: dec_vreg(d)?,
            global: d.u32()?,
        },
        6 => fpa_ir::Inst::Cvt {
            id,
            dst: dec_vreg(d)?,
            src: dec_vreg(d)?,
            kind: match d.u8()? {
                0 => CvtKind::IntToDouble,
                1 => CvtKind::DoubleToInt,
                _ => return Err(CodecError::Invalid("cvt kind")),
            },
        },
        7 => fpa_ir::Inst::Load {
            id,
            dst: dec_vreg(d)?,
            base: dec_vreg(d)?,
            offset: d.i32()?,
            width: dec_width(d)?,
        },
        8 => fpa_ir::Inst::Store {
            id,
            value: dec_vreg(d)?,
            base: dec_vreg(d)?,
            offset: d.i32()?,
            width: dec_width(d)?,
        },
        9 => {
            let callee = FuncId::new(d.u32()?);
            let mut args = Vec::new();
            for _ in 0..d.usize()? {
                args.push(dec_vreg(d)?);
            }
            let dst = match d.u8()? {
                0 => None,
                1 => Some(dec_vreg(d)?),
                _ => return Err(CodecError::Invalid("call dst tag")),
            };
            fpa_ir::Inst::Call {
                id,
                callee,
                args,
                dst,
            }
        }
        10 => fpa_ir::Inst::Print {
            id,
            src: dec_vreg(d)?,
        },
        11 => fpa_ir::Inst::PrintChar {
            id,
            src: dec_vreg(d)?,
        },
        12 => fpa_ir::Inst::PrintDouble {
            id,
            src: dec_vreg(d)?,
        },
        13 => fpa_ir::Inst::Copy {
            id,
            dst: dec_vreg(d)?,
            src: dec_vreg(d)?,
        },
        _ => return Err(CodecError::Invalid("ir inst tag")),
    })
}

fn enc_terminator(e: &mut Encoder, t: &Terminator) {
    match t {
        Terminator::Jump { target } => {
            e.u8(0).u32(target.index() as u32);
        }
        Terminator::Br {
            id,
            cond,
            nonzero,
            zero,
        } => {
            e.u8(1).u32(id.index() as u32);
            enc_vreg(e, *cond);
            e.u32(nonzero.index() as u32).u32(zero.index() as u32);
        }
        Terminator::Ret { id, value } => {
            e.u8(2).u32(id.index() as u32);
            match value {
                None => {
                    e.u8(0);
                }
                Some(v) => {
                    e.u8(1);
                    enc_vreg(e, *v);
                }
            }
        }
    }
}

fn dec_terminator(d: &mut Decoder) -> Result<Terminator, CodecError> {
    Ok(match d.u8()? {
        0 => Terminator::Jump {
            target: BlockId::new(d.u32()?),
        },
        1 => Terminator::Br {
            id: InstId::new(d.u32()?),
            cond: dec_vreg(d)?,
            nonzero: BlockId::new(d.u32()?),
            zero: BlockId::new(d.u32()?),
        },
        2 => Terminator::Ret {
            id: InstId::new(d.u32()?),
            value: match d.u8()? {
                0 => None,
                1 => Some(dec_vreg(d)?),
                _ => return Err(CodecError::Invalid("ret value tag")),
            },
        },
        _ => return Err(CodecError::Invalid("terminator tag")),
    })
}

fn enc_function(e: &mut Encoder, f: &Function) {
    e.str(&f.name);
    match f.ret_ty {
        None => {
            e.u8(0);
        }
        Some(ty) => {
            e.u8(1);
            enc_ty(e, ty);
        }
    }
    e.usize(f.num_vregs());
    for i in 0..f.num_vregs() {
        enc_ty(e, f.vreg_ty(VReg::new(i as u32)));
    }
    e.usize(f.inst_id_bound());
    e.usize(f.params.len());
    for p in &f.params {
        enc_vreg(e, *p);
    }
    e.usize(f.blocks.len());
    for b in &f.blocks {
        e.usize(b.insts.len());
        for i in &b.insts {
            enc_ir_inst(e, i);
        }
        enc_terminator(e, &b.term);
    }
}

fn dec_function(d: &mut Decoder) -> Result<Function, CodecError> {
    let name = d.str()?.to_string();
    let ret_ty = match d.u8()? {
        0 => None,
        1 => Some(dec_ty(d)?),
        _ => return Err(CodecError::Invalid("ret type tag")),
    };
    let mut f = Function::new(name, ret_ty);
    for _ in 0..d.usize()? {
        f.new_vreg(dec_ty(d)?);
    }
    for _ in 0..d.usize()? {
        f.new_inst_id();
    }
    for _ in 0..d.usize()? {
        f.params.push(dec_vreg(d)?);
    }
    for _ in 0..d.usize()? {
        let mut insts = Vec::new();
        for _ in 0..d.usize()? {
            insts.push(dec_ir_inst(d)?);
        }
        let term = dec_terminator(d)?;
        f.blocks.push(Block { insts, term });
    }
    Ok(f)
}

fn enc_module(e: &mut Encoder, m: &Module) {
    e.usize(m.funcs.len());
    for f in &m.funcs {
        enc_function(e, f);
    }
    e.usize(m.globals.len());
    for g in &m.globals {
        e.str(&g.name).u32(g.size).bytes(&g.init).u32(g.addr);
    }
}

fn dec_module(d: &mut Decoder) -> Result<Module, CodecError> {
    let mut m = Module::new();
    for _ in 0..d.usize()? {
        m.funcs.push(dec_function(d)?);
    }
    for _ in 0..d.usize()? {
        m.globals.push(Global {
            name: d.str()?.to_string(),
            size: d.u32()?,
            init: d.bytes()?.to_vec(),
            addr: d.u32()?,
        });
    }
    Ok(m)
}

fn enc_side(e: &mut Encoder, s: Subsystem) {
    e.u8(match s {
        Subsystem::Int => 0,
        Subsystem::Fp => 1,
    });
}

fn dec_side(d: &mut Decoder) -> Result<Subsystem, CodecError> {
    match d.u8()? {
        0 => Ok(Subsystem::Int),
        1 => Ok(Subsystem::Fp),
        _ => Err(CodecError::Invalid("subsystem")),
    }
}

fn enc_assignment(e: &mut Encoder, a: &Assignment) {
    e.usize(a.funcs.len());
    for fa in &a.funcs {
        // HashMap iteration order is nondeterministic; sort by id so the
        // payload (and thus the disk digest) is reproducible.
        let mut insts: Vec<(InstId, Subsystem)> =
            fa.inst_side.iter().map(|(k, v)| (*k, *v)).collect();
        insts.sort_by_key(|(id, _)| *id);
        e.usize(insts.len());
        for (id, side) in insts {
            e.u32(id.index() as u32);
            enc_side(e, side);
        }
        e.usize(fa.vreg_side.len());
        for side in &fa.vreg_side {
            enc_side(e, *side);
        }
    }
}

fn dec_assignment(d: &mut Decoder) -> Result<Assignment, CodecError> {
    let mut funcs = Vec::new();
    for _ in 0..d.usize()? {
        let mut fa = FuncAssignment {
            inst_side: std::collections::HashMap::new(),
            vreg_side: Vec::new(),
        };
        for _ in 0..d.usize()? {
            let id = InstId::new(d.u32()?);
            fa.inst_side.insert(id, dec_side(d)?);
        }
        for _ in 0..d.usize()? {
            fa.vreg_side.push(dec_side(d)?);
        }
        funcs.push(fa);
    }
    Ok(Assignment { funcs })
}

fn enc_stats(e: &mut Encoder, s: &PartitionStats) {
    e.f64(s.fp_weight)
        .f64(s.int_weight)
        .f64(s.copy_weight)
        .usize(s.static_insts)
        .usize(s.static_copies);
}

fn dec_stats(d: &mut Decoder) -> Result<PartitionStats, CodecError> {
    Ok(PartitionStats {
        fp_weight: d.f64()?,
        int_weight: d.f64()?,
        copy_weight: d.f64()?,
        static_insts: d.usize()?,
        static_copies: d.usize()?,
    })
}

fn enc_profile(e: &mut Encoder, p: &Profile) {
    let counts = p.raw_counts();
    e.usize(counts.len());
    for func in counts {
        e.usize(func.len());
        for c in func {
            e.u64(*c);
        }
    }
}

fn dec_profile(d: &mut Decoder) -> Result<Profile, CodecError> {
    let mut counts = Vec::new();
    for _ in 0..d.usize()? {
        let mut func = Vec::new();
        for _ in 0..d.usize()? {
            func.push(d.u64()?);
        }
        counts.push(func);
    }
    Ok(Profile::from_raw(counts))
}

/// Serializes a full suite bundle to the store payload format. The
/// stage timings stay out: they are the wall clock of one compile, not
/// part of what it built, so a decoded suite reports none.
#[must_use]
pub fn encode_suite(s: &SuiteArtifacts) -> Vec<u8> {
    let mut e = Encoder::new();
    for p in [&s.conventional, &s.basic, &s.advanced, &s.optimal] {
        enc_program(&mut e, p);
    }
    for m in [&s.module, &s.advanced_module, &s.optimal_module] {
        enc_module(&mut e, m);
    }
    for a in [
        &s.conv_assignment,
        &s.basic_assignment,
        &s.advanced_assignment,
        &s.optimal_assignment,
    ] {
        enc_assignment(&mut e, a);
    }
    for st in [&s.basic_stats, &s.advanced_stats, &s.optimal_stats] {
        enc_stats(&mut e, st);
    }
    enc_profile(&mut e, &s.profile);
    e.str(&s.golden_output).i32(s.golden_exit);
    e.finish()
}

/// Deserializes [`encode_suite`] output, rejecting truncated, trailing,
/// or out-of-range payloads.
///
/// # Errors
///
/// Returns the first [`CodecError`] encountered.
pub fn decode_suite(bytes: &[u8]) -> Result<SuiteArtifacts, CodecError> {
    let mut d = Decoder::new(bytes);
    let conventional = dec_program(&mut d)?;
    let basic = dec_program(&mut d)?;
    let advanced = dec_program(&mut d)?;
    let optimal = dec_program(&mut d)?;
    let module = dec_module(&mut d)?;
    let advanced_module = dec_module(&mut d)?;
    let optimal_module = dec_module(&mut d)?;
    let conv_assignment = dec_assignment(&mut d)?;
    let basic_assignment = dec_assignment(&mut d)?;
    let advanced_assignment = dec_assignment(&mut d)?;
    let optimal_assignment = dec_assignment(&mut d)?;
    let basic_stats = dec_stats(&mut d)?;
    let advanced_stats = dec_stats(&mut d)?;
    let optimal_stats = dec_stats(&mut d)?;
    let profile = dec_profile(&mut d)?;
    let golden_output = d.str()?.to_string();
    let golden_exit = d.i32()?;
    d.finish()?;
    Ok(SuiteArtifacts {
        conventional,
        basic,
        advanced,
        optimal,
        module,
        advanced_module,
        optimal_module,
        conv_assignment,
        basic_assignment,
        advanced_assignment,
        optimal_assignment,
        basic_stats,
        advanced_stats,
        optimal_stats,
        profile,
        golden_output,
        golden_exit,
        timings: StageTimings::default(),
    })
}

// ---- The typed store --------------------------------------------------

/// How a cached build request was satisfied (the store [`Outcome`] plus
/// the no-store case, for telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// No ambient store configured; the compiler ran directly.
    Disabled,
    /// Compiled and stored by this request.
    Miss,
    /// Served from the store's memory tier.
    MemHit,
    /// Served from the store's disk tier.
    DiskHit,
    /// Shared a concurrent request's in-flight compile.
    Coalesced,
}

impl StoreOutcome {
    /// Stable lowercase label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StoreOutcome::Disabled => "disabled",
            StoreOutcome::Miss => "miss",
            StoreOutcome::MemHit => "hit-mem",
            StoreOutcome::DiskHit => "hit-disk",
            StoreOutcome::Coalesced => "coalesced",
        }
    }
}

impl From<Outcome> for StoreOutcome {
    fn from(o: Outcome) -> StoreOutcome {
        match o {
            Outcome::HitMem => StoreOutcome::MemHit,
            Outcome::HitDisk => StoreOutcome::DiskHit,
            Outcome::Miss => StoreOutcome::Miss,
            Outcome::Coalesced => StoreOutcome::Coalesced,
        }
    }
}

/// A typed compile cache over the generic byte store.
#[derive(Debug)]
pub struct ArtifactStore {
    store: Store,
}

impl ArtifactStore {
    /// Opens (creating if needed) a disk-backed artifact store.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        Ok(ArtifactStore {
            store: Store::open(dir)?,
        })
    }

    /// A purely in-memory artifact store (no persistence) with the
    /// default budget.
    #[must_use]
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore {
            store: Store::in_memory(fpa_store::DEFAULT_MEM_BUDGET),
        }
    }

    /// The disk directory, if this store persists.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.store.dir()
    }

    /// Current request counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The underlying byte store (for tests and maintenance tools).
    #[must_use]
    pub fn raw(&self) -> &Store {
        &self.store
    }

    /// Compiles `src` under `params` through the cache: a hit decodes
    /// the stored bundle, a miss runs the compiler (single-flight — K
    /// concurrent identical requests run it once) and stores the result.
    ///
    /// A stored payload that fails to decode is evicted and the workload
    /// recompiled, so cache corruption degrades to a slow miss.
    ///
    /// # Errors
    ///
    /// Propagates compiler failures; never cache I/O failures (the store
    /// degrades to compute-through on those).
    pub fn suite(
        &self,
        src: &str,
        params: &CostParams,
    ) -> Result<(SuiteArtifacts, StoreOutcome), Error> {
        let key = suite_key(src, params);
        let mut computed: Option<SuiteArtifacts> = None;
        let (bytes, outcome) = self.store.get_or_compute(key, || {
            let suite = Compiler::new(src).cost_params(*params).build_suite()?;
            let payload = encode_suite(&suite);
            computed = Some(suite);
            Ok::<_, Error>(payload)
        })?;
        if let Some(suite) = computed {
            return Ok((suite, StoreOutcome::Miss));
        }
        match decode_suite(&bytes) {
            Ok(suite) => Ok((suite, outcome.into())),
            Err(_) => {
                // Verified payload, undecodable content: the entry was
                // written by an incompatible encoder. Drop it, rebuild,
                // and re-store the fresh bytes.
                self.store.evict(key);
                let suite = Compiler::new(src).cost_params(*params).build_suite()?;
                self.store.insert(key, encode_suite(&suite));
                Ok((suite, StoreOutcome::Miss))
            }
        }
    }
}

// ---- The ambient store ------------------------------------------------

static AMBIENT: RwLock<Option<Arc<ArtifactStore>>> = RwLock::new(None);

/// Replaces the process-wide ambient store (pass `None` to disable
/// caching). Tools with a `--store DIR` flag call this before building.
pub fn set_ambient(store: Option<Arc<ArtifactStore>>) {
    *AMBIENT.write().expect("ambient store poisoned") = store;
}

/// The current ambient store, if any.
#[must_use]
pub fn ambient() -> Option<Arc<ArtifactStore>> {
    AMBIENT.read().expect("ambient store poisoned").clone()
}

/// [`Compiler::build_suite`] through the ambient store: cached when one
/// is configured, a plain compile otherwise.
///
/// # Errors
///
/// Propagates compiler failures.
pub fn build_suite_cached(
    src: &str,
    params: &CostParams,
) -> Result<(SuiteArtifacts, StoreOutcome), Error> {
    match ambient() {
        Some(store) => store.suite(src, params),
        None => {
            let suite = Compiler::new(src).cost_params(*params).build_suite()?;
            Ok((suite, StoreOutcome::Disabled))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        int main() {
            int i;
            double acc = 0.0;
            int x = 7;
            for (i = 0; i < 25; i = i + 1) {
                x = (x * 3 + i) ^ 5;
                acc = acc + 0.5;
            }
            print(x);
            printd(acc);
            return 0;
        }";

    fn build() -> SuiteArtifacts {
        Compiler::new(SRC).build_suite().unwrap()
    }

    #[test]
    fn suite_payload_round_trips_exactly() {
        let suite = build();
        let bytes = encode_suite(&suite);
        let back = decode_suite(&bytes).unwrap();
        // Everything but the compile's wall clock, which stays out.
        assert_eq!(
            SuiteArtifacts {
                timings: StageTimings::default(),
                ..suite
            },
            back
        );
        // Re-encoding the decoded bundle is byte-identical: the codec
        // has one canonical form (assignments are sorted on encode).
        assert_eq!(encode_suite(&back), bytes);
    }

    #[test]
    fn separate_compiles_encode_to_the_same_bytes() {
        assert_eq!(encode_suite(&build()), encode_suite(&build()));
    }

    #[test]
    fn truncated_payloads_never_decode() {
        let bytes = encode_suite(&build());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_suite(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_suite(&padded).is_err(), "trailing byte accepted");
    }

    #[test]
    fn keys_separate_source_params_and_normalize_newlines() {
        let p = CostParams::default();
        let k1 = suite_key(SRC, &p);
        assert_ne!(k1, suite_key("int main() { return 1; }", &p));
        let p2 = CostParams {
            o_copy: p.o_copy + 1.0,
            ..p
        };
        assert_ne!(k1, suite_key(SRC, &p2));
        let p3 = CostParams {
            balance_cap: Some(0.5),
            ..p
        };
        assert_ne!(k1, suite_key(SRC, &p3));
        let crlf = SRC.replace('\n', "\r\n");
        assert_eq!(k1, suite_key(&crlf, &p));
    }

    #[test]
    fn fingerprint_covers_the_payload_codec() {
        for codec in [
            include_str!("artifact.rs"),
            include_str!("../../store/src/codec.rs"),
        ] {
            assert!(COMPILER_SOURCES.contains(&codec));
        }
    }

    #[test]
    fn fingerprint_covers_every_compiler_file() {
        // A compiler file left out of the fingerprint could change what
        // the compiler emits without moving any store key, and the store
        // would then serve stale suites.
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut missing = Vec::new();
        for krate in ["frontend", "ir", "isa", "rdg", "partition", "codegen"] {
            let mut dirs = vec![crates.join(krate).join("src")];
            while let Some(dir) = dirs.pop() {
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let path = entry.unwrap().path();
                    if path.is_dir() {
                        dirs.push(path);
                    } else if path.extension().is_some_and(|e| e == "rs") {
                        let src = std::fs::read_to_string(&path).unwrap();
                        if !COMPILER_SOURCES.contains(&src.as_str()) {
                            missing.push(path);
                        }
                    }
                }
            }
        }
        assert!(missing.is_empty(), "not in COMPILER_SOURCES: {missing:?}");
    }

    #[test]
    fn store_hits_after_miss_and_recovers_from_bad_payloads() {
        let store = ArtifactStore::in_memory();
        let params = CostParams::default();
        let (first, o1) = store.suite(SRC, &params).unwrap();
        assert_eq!(o1, StoreOutcome::Miss);
        let (second, o2) = store.suite(SRC, &params).unwrap();
        assert_eq!(o2, StoreOutcome::MemHit);
        // A hit reports no compile wall clock; everything else matches.
        let without_clock = |s: &SuiteArtifacts| SuiteArtifacts {
            timings: StageTimings::default(),
            ..s.clone()
        };
        assert_eq!(without_clock(&first), second);

        // A verified-but-undecodable payload is evicted and recompiled.
        let key = suite_key(SRC, &params);
        store.raw().insert(key, b"not a suite payload".to_vec());
        let (third, o3) = store.suite(SRC, &params).unwrap();
        assert_eq!(o3, StoreOutcome::Miss);
        assert_eq!(without_clock(&first), without_clock(&third));
        assert_eq!(store.stats().corrupt_evicted, 1);
        // And the re-inserted entry serves cleanly again.
        let (_, o4) = store.suite(SRC, &params).unwrap();
        assert_eq!(o4, StoreOutcome::MemHit);
    }

    #[test]
    fn outcome_labels_are_stable() {
        for (o, label) in [
            (StoreOutcome::Disabled, "disabled"),
            (StoreOutcome::Miss, "miss"),
            (StoreOutcome::MemHit, "hit-mem"),
            (StoreOutcome::DiskHit, "hit-disk"),
            (StoreOutcome::Coalesced, "coalesced"),
        ] {
            assert_eq!(o.label(), label);
        }
    }
}
