//! Instruction pre-decode and the one opcode dispatch table.
//!
//! Each run decodes its program into a `Vec<PreInst>` that the session
//! keeps, cleared and refilled by [`decode_into`]: per instruction, a
//! [`DecodedInst`] (every static property the pipeline asks about) fused
//! with an [`XInst`] — the instruction's operands, unused slots resolved
//! to `$0`. Both the functional simulator and the timing simulator's
//! architectural oracle then execute through [`exec_pre`], one match on
//! the opcode whose arms call the handlers below, instead of re-matching
//! the opcode and unwrapping operand `Option`s in `Machine::exec`.
//!
//! Handler semantics are mirrored arm-for-arm from `Machine::exec`, which
//! remains the behavioural spec (and the path the equivalence tests
//! drive); a unit test here runs every opcode through both paths.

use crate::exec::{ExecError, Machine, Step};
use fpa_isa::{hostio, Inst, IntReg, Op, Program, Reg, Subsystem};

/// One instruction's operands: registers resolved (unused slots read
/// `$0`, which is architecturally zero) for the handlers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XInst {
    /// `rs` (first source / base address).
    pub a: Reg,
    /// `rt` (second source / store value).
    pub b: Reg,
    /// `rd` (destination).
    pub d: Reg,
    pub imm: i32,
    pub target: u32,
}

/// One static instruction, decoded at the start of each run: every property
/// the pipeline asks about per dynamic instance, precomputed so the fetch
/// stage does table lookups instead of re-deriving op classes and
/// allocating operand vectors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInst {
    pub subsystem: Subsystem,
    pub latency_hint: u32,
    /// Bytes moved, or 0 for non-memory ops.
    pub mem_bytes: u32,
    pub is_load: bool,
    pub is_store: bool,
    pub is_mem: bool,
    pub is_cond_branch: bool,
    pub is_augmented: bool,
    pub is_copy: bool,
    /// Memory ops and INT-subsystem ops occupy the INT window.
    pub wants_int_window: bool,
    /// Register sources in `uses()` order (`rs`, then `rt`).
    pub uses: [Option<Reg>; 2],
    pub def: Option<Reg>,
}

impl DecodedInst {
    pub(crate) fn decode(op: Op, inst: &Inst) -> DecodedInst {
        let subsystem = op.subsystem();
        let is_mem = op.mem_bytes().is_some();
        DecodedInst {
            subsystem,
            latency_hint: op.fu_class().latency(),
            mem_bytes: op.mem_bytes().unwrap_or(0),
            is_load: op.is_load(),
            is_store: op.is_store(),
            is_mem,
            is_cond_branch: op.is_cond_branch(),
            is_augmented: op.is_augmented(),
            is_copy: matches!(op, Op::CpToFpa | Op::CpToInt),
            wants_int_window: is_mem || subsystem == Subsystem::Int,
            // Writes to $0 are architecturally discarded but still rename,
            // exactly like `Inst::defs`.
            uses: [inst.rs, inst.rt],
            def: inst.rd,
        }
    }
}

/// A decoded static instruction: decode properties plus the operands
/// its handler reads, everything the pipeline needs per dynamic instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreInst {
    pub op: Op,
    pub x: XInst,
    pub d: DecodedInst,
}

/// Decodes `program` into `out`, replacing what the previous run left.
pub(crate) fn decode_into(program: &Program, out: &mut Vec<PreInst>) {
    out.clear();
    out.extend(program.code.iter().map(|inst| PreInst {
        op: inst.op,
        x: operands(inst),
        d: DecodedInst::decode(inst.op, inst),
    }));
}

/// Resolves one instruction's operands: unused slots fall back to `$0`
/// (reads zero, writes discard), which matches `Machine::exec`'s
/// semantics for every opcode that can reach execution — including
/// `Halt`, whose optional `rs` defaults to exit code 0.
fn operands(inst: &Inst) -> XInst {
    const Z: Reg = Reg::Int(IntReg::ZERO);
    XInst {
        a: inst.rs.unwrap_or(Z),
        b: inst.rt.unwrap_or(Z),
        d: inst.rd.unwrap_or(Z),
        imm: inst.imm,
        target: inst.target,
    }
}

macro_rules! alu3 {
    ($name:ident, |$s:ident, $t:ident| $v:expr) => {
        fn $name(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
            let $s = m.geti(x.a);
            let $t = m.geti(x.b);
            m.seti(x.d, $v);
            Ok(Step::Next)
        }
    };
}

macro_rules! alui {
    ($name:ident, |$s:ident, $i:ident| $v:expr) => {
        fn $name(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
            let $s = m.geti(x.a);
            let $i = x.imm;
            m.seti(x.d, $v);
            Ok(Step::Next)
        }
    };
}

macro_rules! fp2 {
    ($name:ident, |$s:ident, $t:ident| $v:expr) => {
        fn $name(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
            let $s = m.getd(x.a);
            let $t = m.getd(x.b);
            m.setd(x.d, $v);
            Ok(Step::Next)
        }
    };
}

alu3!(h_add, |s, t| s.wrapping_add(t));
alu3!(h_sub, |s, t| s.wrapping_sub(t));
alu3!(h_and, |s, t| s & t);
alu3!(h_or, |s, t| s | t);
alu3!(h_xor, |s, t| s ^ t);
alu3!(h_nor, |s, t| !(s | t));
alu3!(h_slt, |s, t| i32::from(s < t));
alu3!(h_sltu, |s, t| i32::from((s as u32) < (t as u32)));
alu3!(h_sll, |s, t| s.wrapping_shl(t as u32 & 31));
alu3!(h_srl, |s, t| (s as u32).wrapping_shr(t as u32 & 31) as i32);
alu3!(h_sra, |s, t| s.wrapping_shr(t as u32 & 31));
alu3!(h_mul, |s, t| s.wrapping_mul(t));

alui!(h_addi, |s, i| s.wrapping_add(i));
alui!(h_andi, |s, i| s & i);
alui!(h_ori, |s, i| s | i);
alui!(h_xori, |s, i| s ^ i);
alui!(h_slti, |s, i| i32::from(s < i));
alui!(h_sltiu, |s, i| i32::from((s as u32) < (i as u32)));
alui!(h_slli, |s, i| s.wrapping_shl(i as u32 & 31));
alui!(h_srli, |s, i| (s as u32).wrapping_shr(i as u32 & 31) as i32);
alui!(h_srai, |s, i| s.wrapping_shr(i as u32 & 31));

fp2!(h_faddd, |s, t| s + t);
fp2!(h_fsubd, |s, t| s - t);
fp2!(h_fmuld, |s, t| s * t);
fp2!(h_fdivd, |s, t| s / t);

fn h_li(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    m.seti(x.d, x.imm);
    Ok(Step::Next)
}

fn h_move(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = m.geti(x.a);
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_div(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let d = m.geti(x.b);
    if d == 0 {
        return Err(ExecError::DivByZero { pc });
    }
    let v = m.geti(x.a).wrapping_div(d);
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_rem(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let d = m.geti(x.b);
    if d == 0 {
        return Err(ExecError::DivByZero { pc });
    }
    let v = m.geti(x.a).wrapping_rem(d);
    m.seti(x.d, v);
    Ok(Step::Next)
}

#[inline]
fn ea(m: &Machine, x: &XInst) -> u32 {
    m.geti(x.a).wrapping_add(x.imm) as u32
}

fn h_lw(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let v = m.read_u32(ea(m, x), pc)? as i32;
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_lb(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let lo = m.check(ea(m, x), 1, pc)?;
    let v = i32::from(m.mem[lo] as i8);
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_lbu(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let lo = m.check(ea(m, x), 1, pc)?;
    let v = i32::from(m.mem[lo]);
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_sw(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let v = m.geti(x.b) as u32;
    m.write_u32(ea(m, x), v, pc)?;
    Ok(Step::Next)
}

fn h_sb(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let lo = m.check(ea(m, x), 1, pc)?;
    m.store(lo, [m.geti(x.b) as u8]);
    Ok(Step::Next)
}

fn h_ld(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let lo = m.check(ea(m, x), 8, pc)?;
    let v = u64::from_le_bytes(m.mem[lo..lo + 8].try_into().unwrap());
    m.setraw(x.d, v);
    Ok(Step::Next)
}

fn h_sd(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let lo = m.check(ea(m, x), 8, pc)?;
    let v = m.getraw(x.b);
    m.store(lo, v.to_le_bytes());
    Ok(Step::Next)
}

fn h_beqz(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    if m.geti(x.a) == 0 {
        Ok(Step::Jump(x.target))
    } else {
        Ok(Step::Next)
    }
}

fn h_bnez(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    if m.geti(x.a) != 0 {
        Ok(Step::Jump(x.target))
    } else {
        Ok(Step::Next)
    }
}

fn h_beq(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    if m.geti(x.a) == m.geti(x.b) {
        Ok(Step::Jump(x.target))
    } else {
        Ok(Step::Next)
    }
}

fn h_bne(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    if m.geti(x.a) != m.geti(x.b) {
        Ok(Step::Jump(x.target))
    } else {
        Ok(Step::Next)
    }
}

fn h_j(_m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    Ok(Step::Jump(x.target))
}

fn h_jal(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    m.seti(IntReg::RA.into(), (pc + 1) as i32);
    Ok(Step::Jump(x.target))
}

fn h_jr(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let t = m.geti(x.a);
    Ok(Step::Jump(t as u32))
}

fn h_jalr(m: &mut Machine, x: &XInst, pc: u32) -> Result<Step, ExecError> {
    let t = m.geti(x.a);
    m.seti(IntReg::RA.into(), (pc + 1) as i32);
    Ok(Step::Jump(t as u32))
}

fn h_fnegd(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = -m.getd(x.a);
    m.setd(x.d, v);
    Ok(Step::Next)
}

fn h_fmovd(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = m.getraw(x.a);
    m.setraw(x.d, v);
    Ok(Step::Next)
}

fn h_cvtdw(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = f64::from(m.geti(x.a));
    m.setd(x.d, v);
    Ok(Step::Next)
}

fn h_cvtwd(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = m.getd(x.a) as i32;
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_ceqd(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = i32::from(m.getd(x.a) == m.getd(x.b));
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_cltd(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = i32::from(m.getd(x.a) < m.getd(x.b));
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_cled(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = i32::from(m.getd(x.a) <= m.getd(x.b));
    m.seti(x.d, v);
    Ok(Step::Next)
}

fn h_print(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = m.geti(x.a);
    m.output.push_str(&hostio::fmt_int(v));
    Ok(Step::Next)
}

fn h_print_char(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = m.geti(x.a);
    m.output.push_str(&hostio::fmt_char(v));
    Ok(Step::Next)
}

fn h_print_fp(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    let v = m.getd(x.a);
    m.output.push_str(&hostio::fmt_double(v));
    Ok(Step::Next)
}

fn h_halt(m: &mut Machine, x: &XInst, _pc: u32) -> Result<Step, ExecError> {
    Ok(Step::Halt(m.geti(x.a)))
}

/// Executes one decoded instruction: the opcode → handler table, shared
/// by the functional loop and the timing simulator's oracle step. A
/// match of direct calls, so the handlers inline and each step pays one
/// jump table.
#[inline(always)]
pub(crate) fn exec_pre(m: &mut Machine, x: &XInst, op: Op, pc: u32) -> Result<Step, ExecError> {
    use Op::*;
    match op {
        Add | AddA => h_add(m, x, pc),
        Sub | SubA => h_sub(m, x, pc),
        And | AndA => h_and(m, x, pc),
        Or | OrA => h_or(m, x, pc),
        Xor | XorA => h_xor(m, x, pc),
        Nor => h_nor(m, x, pc),
        Slt | SltA => h_slt(m, x, pc),
        Sltu | SltuA => h_sltu(m, x, pc),
        Sll | SllA => h_sll(m, x, pc),
        Srl | SrlA => h_srl(m, x, pc),
        Sra | SraA => h_sra(m, x, pc),
        Addi | AddiA => h_addi(m, x, pc),
        Andi | AndiA => h_andi(m, x, pc),
        Ori | OriA => h_ori(m, x, pc),
        Xori | XoriA => h_xori(m, x, pc),
        Slti | SltiA => h_slti(m, x, pc),
        Sltiu | SltiuA => h_sltiu(m, x, pc),
        Slli | SlliA => h_slli(m, x, pc),
        Srli | SrliA => h_srli(m, x, pc),
        Srai | SraiA => h_srai(m, x, pc),
        Li | LiA => h_li(m, x, pc),
        Move => h_move(m, x, pc),
        Mul => h_mul(m, x, pc),
        Div => h_div(m, x, pc),
        Rem => h_rem(m, x, pc),
        Lw | Lwf => h_lw(m, x, pc),
        Lb => h_lb(m, x, pc),
        Lbu => h_lbu(m, x, pc),
        Sw | Swf => h_sw(m, x, pc),
        Sb => h_sb(m, x, pc),
        Ld => h_ld(m, x, pc),
        Sd => h_sd(m, x, pc),
        Beqz | BeqzA => h_beqz(m, x, pc),
        Bnez | BnezA => h_bnez(m, x, pc),
        Beq => h_beq(m, x, pc),
        Bne => h_bne(m, x, pc),
        J => h_j(m, x, pc),
        Jal => h_jal(m, x, pc),
        Jr => h_jr(m, x, pc),
        Jalr => h_jalr(m, x, pc),
        CpToFpa | CpToInt => h_move(m, x, pc),
        FaddD => h_faddd(m, x, pc),
        FsubD => h_fsubd(m, x, pc),
        FmulD => h_fmuld(m, x, pc),
        FdivD => h_fdivd(m, x, pc),
        FnegD => h_fnegd(m, x, pc),
        FmovD => h_fmovd(m, x, pc),
        CvtDW => h_cvtdw(m, x, pc),
        CvtWD => h_cvtwd(m, x, pc),
        CeqD => h_ceqd(m, x, pc),
        CltD => h_cltd(m, x, pc),
        CleD => h_cled(m, x, pc),
        Print => h_print(m, x, pc),
        PrintChar => h_print_char(m, x, pc),
        PrintFp => h_print_fp(m, x, pc),
        Halt => h_halt(m, x, pc),
    }
}

/// The functional simulator's fast path: [`exec_pre`] over a decoded
/// program, recording per-pc visit counts in `pc_counts`
/// (resized and zeroed here) from which the caller derives instruction
/// mix and block counts. Behaviour, errors, and fuel semantics match
/// `crate::func_sim::run_functional` exactly.
pub(crate) fn run_functional_pre(
    decoded: &[PreInst],
    entry: u32,
    fuel: u64,
    m: &mut Machine,
    pc_counts: &mut Vec<u64>,
) -> Result<(i32, u64), ExecError> {
    pc_counts.clear();
    pc_counts.resize(decoded.len(), 0);
    let mut pc = entry;
    let mut total = 0u64;
    loop {
        if total >= fuel {
            return Err(ExecError::OutOfFuel);
        }
        let Some(p) = decoded.get(pc as usize) else {
            return Err(ExecError::BadPc { pc });
        };
        pc_counts[pc as usize] += 1;
        total += 1;
        match exec_pre(m, &p.x, p.op, pc)? {
            Step::Next => pc += 1,
            Step::Jump(t) => pc = t,
            Step::Halt(code) => return Ok((code, total)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_isa::FpReg;

    fn machine() -> Machine {
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        Machine::new(&p)
    }

    /// Every opcode's handler must agree with `Machine::exec` on both the
    /// control transfer and the full architectural state it produces,
    /// down to the memory pages it marks dirty.
    #[test]
    fn handlers_mirror_exec_for_every_opcode() {
        let r = |i: u8| -> Reg { IntReg::new(i).into() };
        let f = |i: u8| -> Reg { FpReg::new(i).into() };
        for &op in Op::ALL {
            // Build a representative instruction for the opcode with
            // file-correct operands and an in-range address/immediate.
            let files = op.operand_files();
            let pick = |slot: Option<fpa_isa::RegFile>, int_r: u8, fp_r: u8| {
                slot.map(|file| match file {
                    fpa_isa::RegFile::Int => r(int_r),
                    fpa_isa::RegFile::Fp => f(fp_r),
                })
            };
            let inst = Inst {
                op,
                rd: pick(files.rd, 10, 4),
                rs: pick(files.rs, 8, 2),
                rt: pick(files.rt, 9, 3),
                imm: 3,
                target: 5,
            };
            let mut a = machine();
            let mut b = machine();
            for m in [&mut a, &mut b] {
                // Non-trivial, mem-safe operand values: $8/$f2 hold a
                // mapped address, $9/$f3 a small nonzero integer.
                m.int_regs[8] = 0x2000;
                m.int_regs[9] = 5;
                m.fp_regs[2] = 0x2000;
                m.fp_regs[3] = 5;
            }
            let via_exec = a.exec(&inst, 7);
            let x = operands(&inst);
            let via_handler = exec_pre(&mut b, &x, op, 7);
            assert_eq!(via_exec, via_handler, "{op:?} step/result");
            assert_eq!(a.int_regs, b.int_regs, "{op:?} int regs");
            assert_eq!(a.fp_regs, b.fp_regs, "{op:?} fp regs");
            assert_eq!(a.mem, b.mem, "{op:?} memory");
            assert_eq!(a.dirty, b.dirty, "{op:?} dirty pages");
            assert_eq!(
                a.dirty.iter().any(|&w| w != 0),
                op.is_store(),
                "{op:?} marks a page exactly when it stores"
            );
            assert_eq!(a.output, b.output, "{op:?} output");
        }
    }
}
