//! Functional (architectural) simulation.
//!
//! Runs a program to completion, producing observable output plus the
//! dynamic-instruction accounting behind Figure 8: how many retired
//! instructions belong to each subsystem, how many are the paper's new
//! `*A` opcodes, and how many are inter-file copies.

use crate::exec::ExecError;
use fpa_isa::Program;

/// The result of a functional run. The final memory image stays in the
/// session that ran it: see [`crate::SimSession::memory`].
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSimResult {
    /// `main`'s return value.
    pub exit_code: i32,
    /// Everything printed.
    pub output: String,
    /// Total retired instructions.
    pub total: u64,
    /// Instructions that executed in the FP subsystem (augmented integer
    /// ops plus native FP arithmetic).
    pub fp_subsystem: u64,
    /// Retired instructions using the paper's 22 new opcodes.
    pub augmented: u64,
    /// Dynamic `cp_to_fpa` / `cp_to_int` copies.
    pub copies: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
}

impl FuncSimResult {
    /// Fraction of dynamic instructions executed by the FP subsystem —
    /// the paper's "size of the FPa partition" metric (Figure 8).
    #[must_use]
    pub fn fp_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.fp_subsystem as f64 / self.total as f64
        }
    }
}

/// Default instruction budget for functional runs.
pub const DEFAULT_FUEL: u64 = 5_000_000_000;

/// Runs `program` to completion.
///
/// Uses the calling thread's shared [`crate::session::SimSession`]
/// (direct-threaded dispatch over a cached pre-decoded program); see
/// [`crate::SimSession::run_functional`] for explicit batched use.
///
/// # Errors
///
/// Returns an [`ExecError`] on memory faults, division by zero, invalid
/// control transfers, or fuel exhaustion.
pub fn run_functional(program: &Program, fuel: u64) -> Result<FuncSimResult, ExecError> {
    crate::session::with_session(|s| s.run_functional(program, fuel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_isa::{FpReg, Inst, IntReg, Op, Reg};

    /// Hand-assembled: sum 1..=5 on the FP subsystem, print, halt.
    #[test]
    fn hand_assembled_fpa_loop() {
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        let f2: Reg = FpReg::new(2).into(); // i
        let f3: Reg = FpReg::new(3).into(); // sum
        let f4: Reg = FpReg::new(4).into(); // cond
        let r8: Reg = IntReg::new(8).into();
        p.code = vec![
            Inst::li(Op::LiA, f2, 1),            // 0
            Inst::li(Op::LiA, f3, 0),            // 1
            Inst::alu_imm(Op::SltiA, f4, f2, 6), // 2: loop head
            Inst::branch(Op::BeqzA, f4, 7),      // 3
            Inst::alu(Op::AddA, f3, f3, f2),     // 4
            Inst::alu_imm(Op::AddiA, f2, f2, 1), // 5
            Inst::jump(2),                       // 6
            Inst::unary(Op::CpToInt, r8, f3),    // 7
            Inst {
                op: Op::Print,
                rd: None,
                rs: Some(r8),
                rt: None,
                imm: 0,
                target: 0,
            }, // 8
            Inst {
                op: Op::Halt,
                rd: None,
                rs: Some(r8),
                rt: None,
                imm: 0,
                target: 0,
            }, // 9
        ];
        let res = run_functional(&p, 10_000).unwrap();
        assert_eq!(res.output, "15\n");
        assert_eq!(res.exit_code, 15);
        assert!(
            res.augmented > 15,
            "loop body runs on FPa: {}",
            res.augmented
        );
        assert_eq!(res.copies, 1);
        assert!(res.fp_fraction() > 0.7);
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![Inst::jump(0)];
        assert_eq!(run_functional(&p, 100).unwrap_err(), ExecError::OutOfFuel);
    }

    #[test]
    fn bad_pc_detected() {
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![Inst::jump(77)];
        assert!(matches!(
            run_functional(&p, 100).unwrap_err(),
            ExecError::BadPc { pc: 77 }
        ));
    }
}
