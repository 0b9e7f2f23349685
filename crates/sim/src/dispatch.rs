//! Direct-threaded instruction dispatch and shared pre-decode.
//!
//! A program entering the simulator is *prepared* once into a
//! [`PreProgram`]: per instruction, a [`DecodedInst`] (every static
//! property the pipeline asks about) fused with an [`XInst`] — the
//! instruction's operands plus a handler function pointer that executes
//! its exact [`crate::exec::Machine::exec`] semantics. Both the
//! functional simulator and the timing simulator's architectural oracle
//! then run instructions through one indirect call instead of re-matching
//! the opcode and unwrapping operand `Option`s per dynamic instance.
//!
//! Prepared programs are content-addressed (see [`hash_program`]) and
//! shared through [`crate::session::SimSession`], so a workload decoded
//! once serves every scheme, machine width, and sweep point that runs it.
//!
//! Handler semantics are mirrored arm-for-arm from `Machine::exec`, which
//! remains the behavioural spec (and the path the equivalence tests
//! drive); a unit test here runs every opcode through both paths.

use crate::exec::{ExecError, Machine, Step};
use fpa_isa::{hostio, Inst, IntReg, Op, Program, Reg, Subsystem};

/// Executes one prepared instruction on the architectural machine.
pub(crate) type Handler = fn(&mut Machine, &XInst, u32) -> Result<Step, ExecError>;

/// One instruction, pre-threaded: operand registers resolved (unused
/// slots read `$0`, which is architecturally zero) and the opcode lowered
/// to a handler pointer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XInst {
    pub run: Handler,
    /// `rs` (first source / base address).
    pub a: Reg,
    /// `rt` (second source / store value).
    pub b: Reg,
    /// `rd` (destination).
    pub d: Reg,
    pub imm: i32,
    pub target: u32,
}

/// One static instruction, decoded once before simulation: every property
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

/// A fully prepared static instruction: decode properties plus the
/// threaded executor, one cache line's worth of everything the pipeline
/// needs per dynamic instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreInst {
    pub op: Op,
    pub x: XInst,
    pub d: DecodedInst,
}

/// A program prepared for simulation. Immutable once built; shared across
/// runs via `Rc` in [`crate::session::SimSession`].
#[derive(Debug)]
pub struct PreProgram {
    pub(crate) pre: Vec<PreInst>,
    /// Block markers as a dense sorted list (pc, function, block id) —
    /// the functional fast path derives per-block counts from a flat
    /// visit-count array instead of a per-instruction map lookup.
    pub(crate) markers: Vec<(u32, String, u32)>,
}

/// Prepares `program` for direct-threaded simulation.
#[must_use]
pub(crate) fn prepare(program: &Program) -> PreProgram {
    let pre = program
        .code
        .iter()
        .map(|inst| PreInst {
            op: inst.op,
            x: thread_inst(inst),
            d: DecodedInst::decode(inst.op, inst),
        })
        .collect();
    let markers = program
        .block_markers
        .iter()
        .map(|(&pc, (func, block))| (pc, func.clone(), *block))
        .collect();
    PreProgram { pre, markers }
}

/// Content hash of everything [`prepare`] reads from a program: the
/// instruction stream and the block markers. 128 bits via two
/// independently-seeded FNV-1a accumulators, so the prepared-program
/// cache can key on content without ever comparing programs.
#[must_use]
pub(crate) fn hash_program(program: &Program) -> u128 {
    let mut h = ProgramHash::new();
    for inst in &program.code {
        h.write(inst.op as u64);
        h.write(reg_code(inst.rd));
        h.write(reg_code(inst.rs));
        h.write(reg_code(inst.rt));
        h.write(inst.imm as u32 as u64);
        h.write(u64::from(inst.target));
    }
    for (pc, (func, block)) in &program.block_markers {
        h.write(u64::from(*pc));
        h.write(func.len() as u64);
        for byte in func.as_bytes() {
            h.write(u64::from(*byte));
        }
        h.write(u64::from(*block));
    }
    h.finish()
}

fn reg_code(r: Option<Reg>) -> u64 {
    match r {
        None => 0x8000,
        Some(Reg::Int(i)) => i.index() as u64,
        Some(Reg::Fp(f)) => 0x100 + f.index() as u64,
    }
}

struct ProgramHash {
    lo: u64,
    hi: u64,
}

impl ProgramHash {
    fn new() -> ProgramHash {
        ProgramHash {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
        }
    }

    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_0163);
        }
    }

    fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// Threads one instruction: unused operand slots fall back to `$0`
/// (reads zero, writes discard), which matches `Machine::exec`'s
/// semantics for every opcode that can reach execution — including
/// `Halt`, whose optional `rs` defaults to exit code 0.
fn thread_inst(inst: &Inst) -> XInst {
    const Z: Reg = Reg::Int(IntReg::ZERO);
    XInst {
        run: handler_for(inst.op),
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

/// The opcode → handler table, written once and expanded two ways:
/// [`handler_for`] materializes it as function pointers for the
/// direct-threaded functional loop, and [`exec_pre`] expands it as a
/// match of direct calls for the timing simulator's oracle step, where
/// the calls inline and the per-instruction pointer-call overhead is
/// measurable.
macro_rules! for_each_op {
    ($op:expr, $with:ident) => {{
        use Op::*;
        match $op {
            Add | AddA => $with!(h_add),
            Sub | SubA => $with!(h_sub),
            And | AndA => $with!(h_and),
            Or | OrA => $with!(h_or),
            Xor | XorA => $with!(h_xor),
            Nor => $with!(h_nor),
            Slt | SltA => $with!(h_slt),
            Sltu | SltuA => $with!(h_sltu),
            Sll | SllA => $with!(h_sll),
            Srl | SrlA => $with!(h_srl),
            Sra | SraA => $with!(h_sra),
            Addi | AddiA => $with!(h_addi),
            Andi | AndiA => $with!(h_andi),
            Ori | OriA => $with!(h_ori),
            Xori | XoriA => $with!(h_xori),
            Slti | SltiA => $with!(h_slti),
            Sltiu | SltiuA => $with!(h_sltiu),
            Slli | SlliA => $with!(h_slli),
            Srli | SrliA => $with!(h_srli),
            Srai | SraiA => $with!(h_srai),
            Li | LiA => $with!(h_li),
            Move => $with!(h_move),
            Mul => $with!(h_mul),
            Div => $with!(h_div),
            Rem => $with!(h_rem),
            Lw | Lwf => $with!(h_lw),
            Lb => $with!(h_lb),
            Lbu => $with!(h_lbu),
            Sw | Swf => $with!(h_sw),
            Sb => $with!(h_sb),
            Ld => $with!(h_ld),
            Sd => $with!(h_sd),
            Beqz | BeqzA => $with!(h_beqz),
            Bnez | BnezA => $with!(h_bnez),
            Beq => $with!(h_beq),
            Bne => $with!(h_bne),
            J => $with!(h_j),
            Jal => $with!(h_jal),
            Jr => $with!(h_jr),
            Jalr => $with!(h_jalr),
            CpToFpa | CpToInt => $with!(h_move),
            FaddD => $with!(h_faddd),
            FsubD => $with!(h_fsubd),
            FmulD => $with!(h_fmuld),
            FdivD => $with!(h_fdivd),
            FnegD => $with!(h_fnegd),
            FmovD => $with!(h_fmovd),
            CvtDW => $with!(h_cvtdw),
            CvtWD => $with!(h_cvtwd),
            CeqD => $with!(h_ceqd),
            CltD => $with!(h_cltd),
            CleD => $with!(h_cled),
            Print => $with!(h_print),
            PrintChar => $with!(h_print_char),
            PrintFp => $with!(h_print_fp),
            Halt => $with!(h_halt),
        }
    }};
}

fn handler_for(op: Op) -> Handler {
    macro_rules! as_ptr {
        ($h:ident) => {
            $h
        };
    }
    for_each_op!(op, as_ptr)
}

/// Executes one prepared instruction by matching on the opcode — the
/// timing simulator's oracle step. Semantically identical to calling
/// `x.run`; exists so the single hottest call site pays a jump table
/// instead of an indirect call.
#[inline(always)]
pub(crate) fn exec_pre(m: &mut Machine, x: &XInst, op: Op, pc: u32) -> Result<Step, ExecError> {
    macro_rules! call {
        ($h:ident) => {
            $h(m, x, pc)
        };
    }
    for_each_op!(op, call)
}

/// The functional simulator's fast path: direct-threaded execution over a
/// prepared program, recording per-pc visit counts in `pc_counts`
/// (resized and zeroed here) from which the caller derives instruction
/// mix and block counts. Behaviour, errors, and fuel semantics match
/// `crate::func_sim::run_functional` exactly.
pub(crate) fn run_functional_pre(
    pre: &PreProgram,
    entry: u32,
    fuel: u64,
    m: &mut Machine,
    pc_counts: &mut Vec<u64>,
) -> Result<(i32, u64), ExecError> {
    pc_counts.clear();
    pc_counts.resize(pre.pre.len(), 0);
    let mut pc = entry;
    let mut total = 0u64;
    loop {
        if total >= fuel {
            return Err(ExecError::OutOfFuel);
        }
        let Some(p) = pre.pre.get(pc as usize) else {
            return Err(ExecError::BadPc { pc });
        };
        pc_counts[pc as usize] += 1;
        total += 1;
        match (p.x.run)(m, &p.x, pc)? {
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
            let x = thread_inst(&inst);
            let via_handler = (x.run)(&mut b, &x, 7);
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

    #[test]
    fn hash_is_content_addressed() {
        let mut p1 = Program::new();
        p1.code = vec![Inst::li(Op::Li, IntReg::new(8).into(), 1)];
        let mut p2 = Program::new();
        p2.code = vec![Inst::li(Op::Li, IntReg::new(8).into(), 1)];
        assert_eq!(hash_program(&p1), hash_program(&p2));
        p2.code[0].imm = 2;
        assert_ne!(hash_program(&p1), hash_program(&p2));
        p2.code[0].imm = 1;
        p2.block_markers.insert(0, ("main".into(), 0));
        assert_ne!(hash_program(&p1), hash_program(&p2));
    }
}
