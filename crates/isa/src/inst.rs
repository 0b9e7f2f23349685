//! Machine instructions.

use crate::op::Op;
use crate::reg::{IntReg, Reg};
use std::fmt;

/// A decoded machine instruction.
///
/// Operand roles by opcode family (mirroring MIPS conventions):
///
/// * ALU: `rd = op(rs, rt)` or `rd = op(rs, imm)`
/// * Load: `rd = mem[rs + imm]` — the base `rs` is always an integer
///   register; `rd` may be in either file
/// * Store: `mem[rs + imm] = rt` — `rs` integer base, `rt` either file
/// * Conditional branch: test `rs` (and `rt` for `beq`/`bne`), go to `target`
/// * `jal`/`j`: `target`; `jr`/`jalr`: `rs`
///
/// `target` is an *instruction index* into [`crate::Program::code`]; this ISA
/// is word-addressed for code, byte-addressed for data.
///
/// ```
/// use fpa_isa::{Inst, IntReg, Op};
/// let i = Inst::alu_imm(Op::Addi, IntReg::V0.into(), IntReg::ZERO.into(), 5);
/// assert_eq!(i.disasm(), "addiu $2, $0, 5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inst {
    /// The opcode.
    pub op: Op,
    /// Destination register.
    pub rd: Option<Reg>,
    /// First source register.
    pub rs: Option<Reg>,
    /// Second source register (or store value).
    pub rt: Option<Reg>,
    /// Immediate operand / memory offset.
    pub imm: i32,
    /// Branch/jump target as an instruction index.
    pub target: u32,
}

impl Inst {
    /// Creates an instruction with no operands (only meaningful for a few
    /// opcodes; prefer the specific constructors).
    #[must_use]
    pub fn bare(op: Op) -> Inst {
        Inst {
            op,
            rd: None,
            rs: None,
            rt: None,
            imm: 0,
            target: 0,
        }
    }

    /// Three-register ALU instruction: `rd = op(rs, rt)`.
    #[must_use]
    pub fn alu(op: Op, rd: Reg, rs: Reg, rt: Reg) -> Inst {
        Inst {
            op,
            rd: Some(rd),
            rs: Some(rs),
            rt: Some(rt),
            imm: 0,
            target: 0,
        }
    }

    /// Register-immediate ALU instruction: `rd = op(rs, imm)`.
    #[must_use]
    pub fn alu_imm(op: Op, rd: Reg, rs: Reg, imm: i32) -> Inst {
        Inst {
            op,
            rd: Some(rd),
            rs: Some(rs),
            rt: None,
            imm,
            target: 0,
        }
    }

    /// Load-immediate: `rd = imm` ([`Op::Li`] / [`Op::LiA`]).
    #[must_use]
    pub fn li(op: Op, rd: Reg, imm: i32) -> Inst {
        Inst {
            op,
            rd: Some(rd),
            rs: None,
            rt: None,
            imm,
            target: 0,
        }
    }

    /// Unary register move/convert: `rd = op(rs)`.
    #[must_use]
    pub fn unary(op: Op, rd: Reg, rs: Reg) -> Inst {
        Inst {
            op,
            rd: Some(rd),
            rs: Some(rs),
            rt: None,
            imm: 0,
            target: 0,
        }
    }

    /// Memory load: `rd = mem[base + offset]`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a load or the base is not an integer register.
    #[must_use]
    pub fn load(op: Op, rd: Reg, base: IntReg, offset: i32) -> Inst {
        assert!(op.is_load(), "{op} is not a load");
        Inst {
            op,
            rd: Some(rd),
            rs: Some(base.into()),
            rt: None,
            imm: offset,
            target: 0,
        }
    }

    /// Memory store: `mem[base + offset] = value`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a store.
    #[must_use]
    pub fn store(op: Op, value: Reg, base: IntReg, offset: i32) -> Inst {
        assert!(op.is_store(), "{op} is not a store");
        Inst {
            op,
            rd: None,
            rs: Some(base.into()),
            rt: Some(value),
            imm: offset,
            target: 0,
        }
    }

    /// One-register conditional branch (`beqz`/`bnez`/`beqz,a`/`bnez,a`).
    #[must_use]
    pub fn branch(op: Op, rs: Reg, target: u32) -> Inst {
        assert!(op.is_cond_branch(), "{op} is not a conditional branch");
        Inst {
            op,
            rd: None,
            rs: Some(rs),
            rt: None,
            imm: 0,
            target,
        }
    }

    /// Unconditional jump to an instruction index.
    #[must_use]
    pub fn jump(target: u32) -> Inst {
        Inst {
            op: Op::J,
            rd: None,
            rs: None,
            rt: None,
            imm: 0,
            target,
        }
    }

    /// Call: `jal target`, writing the return address to `$31`.
    #[must_use]
    pub fn call(target: u32) -> Inst {
        Inst {
            op: Op::Jal,
            rd: Some(IntReg::RA.into()),
            rs: None,
            rt: None,
            imm: 0,
            target,
        }
    }

    /// Return: `jr rs`.
    #[must_use]
    pub fn jr(rs: IntReg) -> Inst {
        Inst {
            op: Op::Jr,
            rd: None,
            rs: Some(rs.into()),
            rt: None,
            imm: 0,
            target: 0,
        }
    }

    /// Registers written by this instruction.
    #[must_use]
    pub fn defs(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(1);
        if let Some(rd) = self.rd {
            // Writes to $0 are architecturally discarded but still rename.
            v.push(rd);
        }
        v
    }

    /// Registers read by this instruction.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(2);
        if let Some(rs) = self.rs {
            v.push(rs);
        }
        if let Some(rt) = self.rt {
            v.push(rt);
        }
        v
    }

    /// Disassembles to assembler syntax.
    #[must_use]
    pub fn disasm(&self) -> String {
        self.to_string()
    }

    fn fmt_reg(r: Option<Reg>) -> String {
        r.map_or_else(|| "?".to_owned(), |r| r.to_string())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        let rd = Inst::fmt_reg(self.rd);
        let rs = Inst::fmt_reg(self.rs);
        let rt = Inst::fmt_reg(self.rt);
        use Op::*;
        match self.op {
            Add | Sub | And | Or | Xor | Nor | Slt | Sltu | Sll | Srl | Sra | Mul | Div | Rem
            | AddA | SubA | AndA | OrA | XorA | SltA | SltuA | SllA | SrlA | SraA => {
                write!(f, "{m} {rd}, {rs}, {rt}")
            }
            Addi | Andi | Ori | Xori | Slti | Sltiu | Slli | Srli | Srai | AddiA | AndiA | OriA
            | XoriA | SltiA | SltiuA | SlliA | SrliA | SraiA => {
                write!(f, "{m} {rd}, {rs}, {}", self.imm)
            }
            Li | LiA => write!(f, "{m} {rd}, {}", self.imm),
            Move | CpToFpa | CpToInt | FnegD | FmovD | CvtDW | CvtWD => {
                write!(f, "{m} {rd}, {rs}")
            }
            FaddD | FsubD | FmulD | FdivD | CeqD | CltD | CleD => {
                write!(f, "{m} {rd}, {rs}, {rt}")
            }
            Lw | Lb | Lbu | Lwf | Ld => write!(f, "{m} {rd}, {}({rs})", self.imm),
            Sw | Sb | Swf | Sd => write!(f, "{m} {rt}, {}({rs})", self.imm),
            Beqz | Bnez | BeqzA | BnezA => write!(f, "{m} {rs}, L{}", self.target),
            Beq | Bne => write!(f, "{m} {rs}, {rt}, L{}", self.target),
            J | Jal => write!(f, "{m} L{}", self.target),
            Jr => write!(f, "{m} {rs}"),
            Jalr => write!(f, "{m} {rs}"),
            Print | PrintChar | PrintFp | Halt => write!(f, "{m} {rs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::FpReg;

    #[test]
    fn constructors_and_disasm() {
        let add = Inst::alu(
            Op::Add,
            IntReg::V0.into(),
            IntReg::A0.into(),
            IntReg::A1.into(),
        );
        assert_eq!(add.disasm(), "addu $2, $4, $5");

        let lw = Inst::load(Op::Lw, IntReg::V0.into(), IntReg::SP, 8);
        assert_eq!(lw.disasm(), "lw $2, 8($29)");

        let swf = Inst::store(Op::Swf, FpReg::new(4).into(), IntReg::A0, 0);
        assert_eq!(swf.disasm(), "s.w $f4, 0($4)");

        let b = Inst::branch(Op::BnezA, FpReg::new(2).into(), 17);
        assert_eq!(b.disasm(), "bnez,a $f2, L17");

        let li = Inst::li(Op::LiA, FpReg::new(3).into(), -4);
        assert_eq!(li.disasm(), "li,a $f3, -4");
    }

    #[test]
    fn defs_and_uses() {
        let add = Inst::alu(
            Op::Add,
            IntReg::V0.into(),
            IntReg::A0.into(),
            IntReg::A1.into(),
        );
        assert_eq!(add.defs(), vec![Reg::Int(IntReg::V0)]);
        assert_eq!(add.uses(), vec![Reg::Int(IntReg::A0), Reg::Int(IntReg::A1)]);

        let sw = Inst::store(Op::Sw, IntReg::V0.into(), IntReg::SP, 0);
        assert!(sw.defs().is_empty());
        assert_eq!(sw.uses().len(), 2);

        let jal = Inst::call(3);
        assert_eq!(jal.defs(), vec![Reg::Int(IntReg::RA)]);
        assert!(jal.uses().is_empty());
    }

    #[test]
    fn cross_file_copy_defs() {
        let to_fpa = Inst::unary(Op::CpToFpa, FpReg::new(2).into(), IntReg::V0.into());
        assert_eq!(to_fpa.defs(), vec![Reg::Fp(FpReg::new(2))]);
        assert_eq!(to_fpa.uses(), vec![Reg::Int(IntReg::V0)]);
        assert_eq!(to_fpa.disasm(), "cp_to_fpa $f2, $2");
    }

    #[test]
    #[should_panic(expected = "is not a load")]
    fn load_constructor_validates() {
        let _ = Inst::load(Op::Add, IntReg::V0.into(), IntReg::SP, 0);
    }

    #[test]
    #[should_panic(expected = "is not a conditional branch")]
    fn branch_constructor_validates() {
        let _ = Inst::branch(Op::J, IntReg::V0.into(), 0);
    }
}
