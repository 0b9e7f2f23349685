//! Architectural machine state and single-instruction execution semantics.
//!
//! Both the functional and the timing simulator execute instructions
//! through [`Machine::exec`], so their architectural behaviour is
//! identical by construction. Floating-point registers are 64-bit raw
//! values: doubles are IEEE-754 bit patterns, integer payloads (from `l.w`,
//! `cp_to_fpa`, and the `*A` opcodes) are sign-extended two's-complement.

use fpa_isa::{hostio, Inst, IntReg, Op, Program, Reg, WORD_BYTES};
use std::fmt;

/// An architectural execution fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Memory access outside the mapped range.
    BadAddress {
        /// Faulting byte address.
        addr: u32,
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// Integer division by zero.
    DivByZero {
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// Jump or fall-through outside the code segment.
    BadPc {
        /// The invalid program counter.
        pc: u32,
    },
    /// Instruction budget exhausted (probable infinite loop).
    OutOfFuel,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadAddress { addr, pc } => {
                write!(f, "bad address {addr:#x} at pc {pc}")
            }
            ExecError::DivByZero { pc } => write!(f, "division by zero at pc {pc}"),
            ExecError::BadPc { pc } => write!(f, "control transfer to invalid pc {pc}"),
            ExecError::OutOfFuel => f.write_str("instruction budget exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What one executed instruction did to control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Fall through to `pc + 1`.
    Next,
    /// Transfer to an absolute instruction index.
    Jump(u32),
    /// Stop the machine with an exit code.
    Halt(i32),
}

/// log2 of the page size the dirty map tracks (4 KiB pages).
const PAGE_SHIFT: u32 = 12;

/// Architectural machine state: both register files plus byte-addressed
/// memory.
///
/// Memory is zero-on-touch across runs: the machine records which 4 KiB
/// pages a run wrote, and [`Machine::reset`] zeroes only those, so a
/// reused machine pays for the pages a program touches, not for its
/// whole address space.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Integer register file (`$0` reads as zero).
    pub int_regs: [i32; 32],
    /// Floating-point register file (raw 64-bit values).
    pub fp_regs: [u64; 32],
    /// Byte-addressable memory, `0..stack_top`. Every write goes through
    /// [`Machine::store`] or [`Machine::reset`], which keep `dirty`
    /// exact; read it through [`Machine::memory`].
    pub(crate) mem: Vec<u8>,
    /// One bit per 4 KiB page of `mem`: set when a store or the data
    /// segment wrote the page since the last reset.
    pub(crate) dirty: Vec<u64>,
    /// Observable output.
    pub output: String,
}

impl Machine {
    /// Creates a machine loaded with `program`'s data segment, stack
    /// pointer at the top of memory.
    #[must_use]
    pub fn new(program: &Program) -> Machine {
        let mut m = Machine::empty();
        m.reset(program);
        m
    }

    /// A machine with no memory yet; [`Machine::reset`] sizes it.
    pub(crate) fn empty() -> Machine {
        Machine {
            int_regs: [0; 32],
            fp_regs: [0; 32],
            mem: Vec::new(),
            dirty: Vec::new(),
            output: String::new(),
        }
    }

    /// Re-initialises this machine for `program`, reusing the memory and
    /// output allocations from previous runs. Equivalent to
    /// `*self = Machine::new(program)` without the allocation churn: when
    /// the address space keeps its size, only the pages the last run
    /// wrote are zeroed; otherwise the allocator hands back fresh zeroed
    /// pages.
    pub fn reset(&mut self, program: &Program) {
        self.int_regs = [0; 32];
        self.fp_regs = [0; 32];
        let top = program.stack_top as usize;
        if self.mem.len() == top {
            for (w, word) in self.dirty.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let lo = (w * 64 + bits.trailing_zeros() as usize) << PAGE_SHIFT;
                    self.mem[lo..top.min(lo + (1 << PAGE_SHIFT))].fill(0);
                    bits &= bits - 1;
                }
            }
        } else {
            self.mem = vec![0; top];
            self.dirty = vec![0; top.div_ceil(64 << PAGE_SHIFT)];
        }
        for d in &program.data {
            let lo = d.addr as usize;
            self.mem[lo..lo + d.bytes.len()].copy_from_slice(&d.bytes);
            for page in lo >> PAGE_SHIFT..(lo + d.bytes.len()).div_ceil(1 << PAGE_SHIFT) {
                self.dirty[page >> 6] |= 1 << (page & 63);
            }
        }
        self.output.clear();
        self.int_regs[IntReg::SP.index()] = program.stack_top as i32;
    }

    /// The memory image, `0..stack_top`.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        &self.mem
    }

    /// Writes `bytes` at `lo`, which [`Machine::check`] accepted, and
    /// marks the pages of its first and last byte dirty (an unaligned
    /// access may cross a page boundary; none spans more than two).
    #[inline]
    pub(crate) fn store<const N: usize>(&mut self, lo: usize, bytes: [u8; N]) {
        self.mem[lo..lo + N].copy_from_slice(&bytes);
        for page in [lo >> PAGE_SHIFT, (lo + N - 1) >> PAGE_SHIFT] {
            self.dirty[page >> 6] |= 1 << (page & 63);
        }
    }

    /// Reads an integer register.
    #[inline]
    #[must_use]
    pub fn geti(&self, r: Reg) -> i32 {
        match r {
            Reg::Int(r) => self.int_regs[r.index()],
            Reg::Fp(r) => self.fp_regs[r.index()] as i64 as i32,
        }
    }

    #[inline]
    pub(crate) fn seti(&mut self, r: Reg, v: i32) {
        match r {
            Reg::Int(r) => {
                if !r.is_zero() {
                    self.int_regs[r.index()] = v;
                }
            }
            Reg::Fp(r) => self.fp_regs[r.index()] = i64::from(v) as u64,
        }
    }

    pub(crate) fn getd(&self, r: Reg) -> f64 {
        match r {
            Reg::Fp(r) => f64::from_bits(self.fp_regs[r.index()]),
            Reg::Int(r) => f64::from_bits(self.int_regs[r.index()] as u32 as u64),
        }
    }

    pub(crate) fn setd(&mut self, r: Reg, v: f64) {
        match r {
            Reg::Fp(r) => self.fp_regs[r.index()] = v.to_bits(),
            Reg::Int(_) => unreachable!("double written to integer register"),
        }
    }

    #[inline]
    pub(crate) fn getraw(&self, r: Reg) -> u64 {
        match r {
            Reg::Fp(r) => self.fp_regs[r.index()],
            Reg::Int(r) => self.int_regs[r.index()] as i64 as u64,
        }
    }

    /// Reads a register's raw 64-bit architectural value: integer
    /// registers sign-extend, FP registers return their bit pattern.
    /// This is the canonical form the co-simulation layer diffs, so both
    /// register files compare under one representation.
    #[inline]
    #[must_use]
    pub fn reg_raw(&self, r: Reg) -> u64 {
        self.getraw(r)
    }

    pub(crate) fn setraw(&mut self, r: Reg, v: u64) {
        match r {
            Reg::Fp(r) => self.fp_regs[r.index()] = v,
            Reg::Int(_) => unreachable!("raw 64-bit written to integer register"),
        }
    }

    #[inline]
    pub(crate) fn check(&self, addr: u32, bytes: u32, pc: u32) -> Result<usize, ExecError> {
        let lo = addr as usize;
        if lo + bytes as usize > self.mem.len() || addr < fpa_ir_data_base() {
            Err(ExecError::BadAddress { addr, pc })
        } else {
            Ok(lo)
        }
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    ///
    /// Fails when the access leaves the mapped range.
    pub fn read_u32(&self, addr: u32, pc: u32) -> Result<u32, ExecError> {
        let lo = self.check(addr, 4, pc)?;
        Ok(u32::from_le_bytes(self.mem[lo..lo + 4].try_into().unwrap()))
    }

    pub(crate) fn write_u32(&mut self, addr: u32, v: u32, pc: u32) -> Result<(), ExecError> {
        let lo = self.check(addr, 4, pc)?;
        self.store(lo, v.to_le_bytes());
        Ok(())
    }

    /// The effective address of a memory instruction (pre-execution), if
    /// it is one. Used by the timing simulator for dependence checks.
    #[inline]
    #[must_use]
    pub fn effective_addr(&self, inst: &Inst) -> Option<u32> {
        if inst.op.mem_bytes().is_some() {
            let base = self.geti(inst.rs.expect("memory op has base"));
            Some(base.wrapping_add(inst.imm) as u32)
        } else {
            None
        }
    }

    /// Executes one instruction at `pc`, returning the control transfer.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on bad memory accesses or division by zero.
    #[allow(clippy::too_many_lines)]
    pub fn exec(&mut self, inst: &Inst, pc: u32) -> Result<Step, ExecError> {
        use Op::*;
        let rd = || inst.rd.expect("dst operand");
        let rs = || inst.rs.expect("src1 operand");
        let rt = || inst.rt.expect("src2 operand");
        match inst.op {
            Add | AddA => {
                let v = self.geti(rs()).wrapping_add(self.geti(rt()));
                self.seti(rd(), v);
            }
            Sub | SubA => {
                let v = self.geti(rs()).wrapping_sub(self.geti(rt()));
                self.seti(rd(), v);
            }
            And | AndA => {
                let v = self.geti(rs()) & self.geti(rt());
                self.seti(rd(), v);
            }
            Or | OrA => {
                let v = self.geti(rs()) | self.geti(rt());
                self.seti(rd(), v);
            }
            Xor | XorA => {
                let v = self.geti(rs()) ^ self.geti(rt());
                self.seti(rd(), v);
            }
            Nor => {
                let v = !(self.geti(rs()) | self.geti(rt()));
                self.seti(rd(), v);
            }
            Slt | SltA => {
                let v = i32::from(self.geti(rs()) < self.geti(rt()));
                self.seti(rd(), v);
            }
            Sltu | SltuA => {
                let v = i32::from((self.geti(rs()) as u32) < (self.geti(rt()) as u32));
                self.seti(rd(), v);
            }
            Sll | SllA => {
                let v = self.geti(rs()).wrapping_shl(self.geti(rt()) as u32 & 31);
                self.seti(rd(), v);
            }
            Srl | SrlA => {
                let v = (self.geti(rs()) as u32).wrapping_shr(self.geti(rt()) as u32 & 31) as i32;
                self.seti(rd(), v);
            }
            Sra | SraA => {
                let v = self.geti(rs()).wrapping_shr(self.geti(rt()) as u32 & 31);
                self.seti(rd(), v);
            }
            Addi | AddiA => {
                let v = self.geti(rs()).wrapping_add(inst.imm);
                self.seti(rd(), v);
            }
            Andi | AndiA => {
                let v = self.geti(rs()) & inst.imm;
                self.seti(rd(), v);
            }
            Ori | OriA => {
                let v = self.geti(rs()) | inst.imm;
                self.seti(rd(), v);
            }
            Xori | XoriA => {
                let v = self.geti(rs()) ^ inst.imm;
                self.seti(rd(), v);
            }
            Slti | SltiA => {
                let v = i32::from(self.geti(rs()) < inst.imm);
                self.seti(rd(), v);
            }
            Sltiu | SltiuA => {
                let v = i32::from((self.geti(rs()) as u32) < (inst.imm as u32));
                self.seti(rd(), v);
            }
            Slli | SlliA => {
                let v = self.geti(rs()).wrapping_shl(inst.imm as u32 & 31);
                self.seti(rd(), v);
            }
            Srli | SrliA => {
                let v = (self.geti(rs()) as u32).wrapping_shr(inst.imm as u32 & 31) as i32;
                self.seti(rd(), v);
            }
            Srai | SraiA => {
                let v = self.geti(rs()).wrapping_shr(inst.imm as u32 & 31);
                self.seti(rd(), v);
            }
            Li | LiA => self.seti(rd(), inst.imm),
            Move => {
                let v = self.geti(rs());
                self.seti(rd(), v);
            }
            Mul => {
                let v = self.geti(rs()).wrapping_mul(self.geti(rt()));
                self.seti(rd(), v);
            }
            Div => {
                let d = self.geti(rt());
                if d == 0 {
                    return Err(ExecError::DivByZero { pc });
                }
                let v = self.geti(rs()).wrapping_div(d);
                self.seti(rd(), v);
            }
            Rem => {
                let d = self.geti(rt());
                if d == 0 {
                    return Err(ExecError::DivByZero { pc });
                }
                let v = self.geti(rs()).wrapping_rem(d);
                self.seti(rd(), v);
            }
            Lw | Lwf => {
                let addr = self.effective_addr(inst).expect("load");
                let v = self.read_u32(addr, pc)? as i32;
                self.seti(rd(), v);
            }
            Lb => {
                let addr = self.effective_addr(inst).expect("load");
                let lo = self.check(addr, 1, pc)?;
                let v = i32::from(self.mem[lo] as i8);
                self.seti(rd(), v);
            }
            Lbu => {
                let addr = self.effective_addr(inst).expect("load");
                let lo = self.check(addr, 1, pc)?;
                let v = i32::from(self.mem[lo]);
                self.seti(rd(), v);
            }
            Sw | Swf => {
                let addr = self.effective_addr(inst).expect("store");
                let v = self.geti(rt()) as u32;
                self.write_u32(addr, v, pc)?;
            }
            Sb => {
                let addr = self.effective_addr(inst).expect("store");
                let lo = self.check(addr, 1, pc)?;
                self.store(lo, [self.geti(rt()) as u8]);
            }
            Ld => {
                let addr = self.effective_addr(inst).expect("load");
                let lo = self.check(addr, 8, pc)?;
                let v = u64::from_le_bytes(self.mem[lo..lo + 8].try_into().unwrap());
                self.setraw(rd(), v);
            }
            Sd => {
                let addr = self.effective_addr(inst).expect("store");
                let lo = self.check(addr, 8, pc)?;
                let v = self.getraw(rt());
                self.store(lo, v.to_le_bytes());
            }
            Beqz | BeqzA => {
                if self.geti(rs()) == 0 {
                    return Ok(Step::Jump(inst.target));
                }
            }
            Bnez | BnezA => {
                if self.geti(rs()) != 0 {
                    return Ok(Step::Jump(inst.target));
                }
            }
            Beq => {
                if self.geti(rs()) == self.geti(rt()) {
                    return Ok(Step::Jump(inst.target));
                }
            }
            Bne => {
                if self.geti(rs()) != self.geti(rt()) {
                    return Ok(Step::Jump(inst.target));
                }
            }
            J => return Ok(Step::Jump(inst.target)),
            Jal => {
                self.seti(IntReg::RA.into(), (pc + 1) as i32);
                return Ok(Step::Jump(inst.target));
            }
            Jr => {
                let t = self.geti(rs());
                return Ok(Step::Jump(t as u32));
            }
            Jalr => {
                let t = self.geti(rs());
                self.seti(IntReg::RA.into(), (pc + 1) as i32);
                return Ok(Step::Jump(t as u32));
            }
            CpToFpa => {
                let v = self.geti(rs());
                self.seti(rd(), v);
            }
            CpToInt => {
                let v = self.geti(rs());
                self.seti(rd(), v);
            }
            FaddD => {
                let v = self.getd(rs()) + self.getd(rt());
                self.setd(rd(), v);
            }
            FsubD => {
                let v = self.getd(rs()) - self.getd(rt());
                self.setd(rd(), v);
            }
            FmulD => {
                let v = self.getd(rs()) * self.getd(rt());
                self.setd(rd(), v);
            }
            FdivD => {
                let v = self.getd(rs()) / self.getd(rt());
                self.setd(rd(), v);
            }
            FnegD => {
                let v = -self.getd(rs());
                self.setd(rd(), v);
            }
            FmovD => {
                let v = self.getraw(rs());
                self.setraw(rd(), v);
            }
            CvtDW => {
                let v = f64::from(self.geti(rs()));
                self.setd(rd(), v);
            }
            CvtWD => {
                let v = self.getd(rs()) as i32;
                self.seti(rd(), v);
            }
            CeqD => {
                let v = i32::from(self.getd(rs()) == self.getd(rt()));
                self.seti(rd(), v);
            }
            CltD => {
                let v = i32::from(self.getd(rs()) < self.getd(rt()));
                self.seti(rd(), v);
            }
            CleD => {
                let v = i32::from(self.getd(rs()) <= self.getd(rt()));
                self.seti(rd(), v);
            }
            Print => {
                let v = self.geti(rs());
                self.output.push_str(&hostio::fmt_int(v));
            }
            PrintChar => {
                let v = self.geti(rs());
                self.output.push_str(&hostio::fmt_char(v));
            }
            PrintFp => {
                let v = self.getd(rs());
                self.output.push_str(&hostio::fmt_double(v));
            }
            Halt => {
                let code = inst.rs.map_or(0, |r| self.geti(r));
                return Ok(Step::Halt(code));
            }
        }
        Ok(Step::Next)
    }
}

/// Lowest mapped address (same floor as the IR data layout).
fn fpa_ir_data_base() -> u32 {
    0x1000
}

const _: () = assert!(WORD_BYTES == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_isa::FpReg;

    fn machine() -> Machine {
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        Machine::new(&p)
    }

    fn r(i: u8) -> Reg {
        IntReg::new(i).into()
    }

    fn f(i: u8) -> Reg {
        FpReg::new(i).into()
    }

    #[test]
    fn integer_alu_on_both_files_agrees() {
        let mut m = machine();
        // $8 = -7, $9 = 3 in both files.
        m.exec(&Inst::li(Op::Li, r(8), -7), 0).unwrap();
        m.exec(&Inst::li(Op::Li, r(9), 3), 0).unwrap();
        m.exec(&Inst::li(Op::LiA, f(2), -7), 0).unwrap();
        m.exec(&Inst::li(Op::LiA, f(3), 3), 0).unwrap();
        for (iop, fop) in [
            (Op::Add, Op::AddA),
            (Op::Sub, Op::SubA),
            (Op::And, Op::AndA),
            (Op::Or, Op::OrA),
            (Op::Xor, Op::XorA),
            (Op::Slt, Op::SltA),
            (Op::Sltu, Op::SltuA),
            (Op::Sll, Op::SllA),
            (Op::Srl, Op::SrlA),
            (Op::Sra, Op::SraA),
        ] {
            m.exec(&Inst::alu(iop, r(10), r(8), r(9)), 0).unwrap();
            m.exec(&Inst::alu(fop, f(4), f(2), f(3)), 0).unwrap();
            assert_eq!(m.geti(r(10)), m.geti(f(4)), "{iop} vs {fop}");
        }
    }

    #[test]
    fn cross_file_copies_round_trip() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(8), -123456), 0).unwrap();
        m.exec(&Inst::unary(Op::CpToFpa, f(2), r(8)), 0).unwrap();
        m.exec(&Inst::unary(Op::CpToInt, r(9), f(2)), 0).unwrap();
        assert_eq!(m.geti(r(9)), -123456);
    }

    #[test]
    fn memory_word_and_byte() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(8), 0x2000), 0).unwrap();
        m.exec(&Inst::li(Op::Li, r(9), -2), 0).unwrap();
        m.exec(&Inst::store(Op::Sw, r(9), IntReg::new(8), 4), 0)
            .unwrap();
        m.exec(&Inst::load(Op::Lw, r(10), IntReg::new(8), 4), 0)
            .unwrap();
        assert_eq!(m.geti(r(10)), -2);
        m.exec(&Inst::load(Op::Lbu, r(11), IntReg::new(8), 4), 0)
            .unwrap();
        assert_eq!(m.geti(r(11)), 0xFE);
        m.exec(&Inst::load(Op::Lb, r(12), IntReg::new(8), 4), 0)
            .unwrap();
        assert_eq!(m.geti(r(12)), -2);
    }

    #[test]
    fn fp_file_loads_and_stores_integer_payload() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(8), 0x2000), 0).unwrap();
        m.exec(&Inst::li(Op::LiA, f(2), -99), 0).unwrap();
        m.exec(&Inst::store(Op::Swf, f(2), IntReg::new(8), 0), 0)
            .unwrap();
        m.exec(&Inst::load(Op::Lw, r(9), IntReg::new(8), 0), 0)
            .unwrap();
        assert_eq!(m.geti(r(9)), -99);
        m.exec(&Inst::load(Op::Lwf, f(3), IntReg::new(8), 0), 0)
            .unwrap();
        assert_eq!(m.geti(f(3)), -99);
    }

    #[test]
    fn doubles_raw_round_trip() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(8), 0x3000), 0).unwrap();
        m.fp_regs[2] = 2.5f64.to_bits();
        m.exec(&Inst::store(Op::Sd, f(2), IntReg::new(8), 0), 0)
            .unwrap();
        m.exec(&Inst::load(Op::Ld, f(4), IntReg::new(8), 0), 0)
            .unwrap();
        assert_eq!(f64::from_bits(m.fp_regs[4]), 2.5);
        m.exec(&Inst::alu(Op::FaddD, f(5), f(4), f(4)), 0).unwrap();
        assert_eq!(f64::from_bits(m.fp_regs[5]), 5.0);
    }

    #[test]
    fn branches_and_jumps() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(8), 0), 0).unwrap();
        assert_eq!(
            m.exec(&Inst::branch(Op::Beqz, r(8), 7), 0).unwrap(),
            Step::Jump(7)
        );
        assert_eq!(
            m.exec(&Inst::branch(Op::Bnez, r(8), 7), 0).unwrap(),
            Step::Next
        );
        m.exec(&Inst::li(Op::LiA, f(2), 5), 0).unwrap();
        assert_eq!(
            m.exec(&Inst::branch(Op::BnezA, f(2), 9), 0).unwrap(),
            Step::Jump(9)
        );
        assert_eq!(m.exec(&Inst::call(3), 10).unwrap(), Step::Jump(3));
        assert_eq!(m.geti(IntReg::RA.into()), 11);
        assert_eq!(m.exec(&Inst::jr(IntReg::RA), 3).unwrap(), Step::Jump(11));
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(0), 42), 0).unwrap();
        assert_eq!(m.geti(r(0)), 0);
    }

    #[test]
    fn faults_are_reported() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(8), 4), 0).unwrap();
        let e = m
            .exec(&Inst::load(Op::Lw, r(9), IntReg::new(8), 0), 3)
            .unwrap_err();
        assert!(matches!(e, ExecError::BadAddress { addr: 4, pc: 3 }));
        m.exec(&Inst::li(Op::Li, r(9), 0), 0).unwrap();
        m.exec(&Inst::li(Op::Li, r(10), 1), 0).unwrap();
        let e = m
            .exec(&Inst::alu(Op::Div, r(11), r(10), r(9)), 5)
            .unwrap_err();
        assert_eq!(e, ExecError::DivByZero { pc: 5 });
    }

    #[test]
    fn conversions() {
        let mut m = machine();
        m.exec(&Inst::li(Op::LiA, f(2), -3), 0).unwrap();
        m.exec(&Inst::unary(Op::CvtDW, f(3), f(2)), 0).unwrap();
        assert_eq!(f64::from_bits(m.fp_regs[3]), -3.0);
        m.fp_regs[4] = 7.9f64.to_bits();
        m.exec(&Inst::unary(Op::CvtWD, f(5), f(4)), 0).unwrap();
        assert_eq!(m.geti(f(5)), 7);
        m.exec(&Inst::alu(Op::CltD, f(6), f(3), f(4)), 0).unwrap();
        assert_eq!(m.geti(f(6)), 1);
    }

    #[test]
    fn output_formatting() {
        let mut m = machine();
        m.exec(&Inst::li(Op::Li, r(8), 65), 0).unwrap();
        m.exec(
            &Inst {
                op: Op::Print,
                rd: None,
                rs: Some(r(8)),
                rt: None,
                imm: 0,
                target: 0,
            },
            0,
        )
        .unwrap();
        m.exec(
            &Inst {
                op: Op::PrintChar,
                rd: None,
                rs: Some(r(8)),
                rt: None,
                imm: 0,
                target: 0,
            },
            0,
        )
        .unwrap();
        assert_eq!(m.output, "65\nA");
    }
}
