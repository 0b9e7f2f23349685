//! Architectural register files.
//!
//! The machine has two 32-entry register files, mirroring Figure 1 of the
//! paper: an integer file (`$0`–`$31`) and a floating-point file
//! (`$f0`–`$f31`). Under the augmented microarchitecture the floating-point
//! file additionally holds *integer* values operated on by the `*A` opcodes.

use std::fmt;

/// An architectural integer register, `$0` through `$31`.
///
/// Calling convention (MIPS o32-flavoured, simplified):
///
/// | register | role |
/// |---|---|
/// | `$0` | hardwired zero |
/// | `$2` | integer return value (`V0`) |
/// | `$4`–`$7` | first four integer arguments (`A0`–`A3`) |
/// | `$29` | stack pointer (`SP`) |
/// | `$30` | frame pointer (`FP`) |
/// | `$31` | return address (`RA`) |
///
/// ```
/// use fpa_isa::IntReg;
/// assert_eq!(IntReg::ZERO.index(), 0);
/// assert_eq!(IntReg::SP.to_string(), "$29");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntReg(u8);

impl IntReg {
    /// The hardwired zero register `$0`.
    pub const ZERO: IntReg = IntReg(0);
    /// Assembler temporary `$1` (reserved for codegen spill shuffles).
    pub const AT: IntReg = IntReg(1);
    /// Integer return value register `$2`.
    pub const V0: IntReg = IntReg(2);
    /// Second return value register `$3`.
    pub const V1: IntReg = IntReg(3);
    /// First argument register `$4`.
    pub const A0: IntReg = IntReg(4);
    /// Second argument register `$5`.
    pub const A1: IntReg = IntReg(5);
    /// Third argument register `$6`.
    pub const A2: IntReg = IntReg(6);
    /// Fourth argument register `$7`.
    pub const A3: IntReg = IntReg(7);
    /// Stack pointer `$29`.
    pub const SP: IntReg = IntReg(29);
    /// Frame pointer `$30`.
    pub const FP: IntReg = IntReg(30);
    /// Return address `$31`.
    pub const RA: IntReg = IntReg(31);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(index: u8) -> IntReg {
        assert!(index < 32, "integer register index {index} out of range");
        IntReg(index)
    }

    /// The register's index in the file, `0..32`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this register is the hardwired zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The argument registers in order, `$4..=$7`.
    #[must_use]
    pub fn args() -> [IntReg; 4] {
        [Self::A0, Self::A1, Self::A2, Self::A3]
    }

    /// Second assembler scratch `$28` (reserved for codegen spill shuffles).
    pub const AT2: IntReg = IntReg(28);

    /// Registers available to the register allocator: `$8..=$27`. Excluded
    /// are `$0` (zero), `$1`/`$28` (codegen scratches), `$2`/`$3` (return
    /// values), `$4`–`$7` (arguments), and `$29`–`$31` (SP/FP/RA).
    #[must_use]
    pub fn allocatable() -> Vec<IntReg> {
        (8..28).map(IntReg).collect()
    }

    /// Caller-saved (temporary) registers `$8..=$15`: never preserved
    /// across calls, so values allocated here must not live across one.
    #[must_use]
    pub fn caller_saved() -> Vec<IntReg> {
        (8..16).map(IntReg).collect()
    }

    /// Callee-saved registers `$16..=$27`: preserved by any function that
    /// uses them.
    #[must_use]
    pub fn callee_saved() -> Vec<IntReg> {
        (16..28).map(IntReg).collect()
    }
}

impl fmt::Display for IntReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// An architectural floating-point register, `$f0` through `$f31`.
///
/// Under the augmented microarchitecture these registers also hold integer
/// values for the `*A` opcodes. `$f0`/`$f1` are reserved by codegen as
/// scratch for spill shuffles, `$f2`+ are allocatable.
///
/// ```
/// use fpa_isa::FpReg;
/// assert_eq!(FpReg::new(4).to_string(), "$f4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FpReg(u8);

impl FpReg {
    /// Scratch register `$f1` reserved for codegen spill shuffles.
    pub const AT: FpReg = FpReg(1);
    /// Floating-point return value register `$f0`.
    pub const FV0: FpReg = FpReg(0);
    /// First floating-point argument register `$f12`.
    pub const FA0: FpReg = FpReg(12);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn new(index: u8) -> FpReg {
        assert!(index < 32, "fp register index {index} out of range");
        FpReg(index)
    }

    /// The register's index in the file, `0..32`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The floating-point argument registers, `$f12..=$f15`.
    #[must_use]
    pub fn args() -> [FpReg; 4] {
        [FpReg(12), FpReg(13), FpReg(14), FpReg(15)]
    }

    /// Registers available to the register allocator: `$f2..=$f31` except
    /// the argument registers (which are managed by the calling convention).
    #[must_use]
    pub fn allocatable() -> Vec<FpReg> {
        (2..32)
            .filter(|i| !(12..16).contains(i))
            .map(FpReg)
            .collect()
    }

    /// Caller-saved floating-point registers `$f2..=$f11`.
    #[must_use]
    pub fn caller_saved() -> Vec<FpReg> {
        (2..12).map(FpReg).collect()
    }

    /// Callee-saved floating-point registers `$f16..=$f31`.
    #[must_use]
    pub fn callee_saved() -> Vec<FpReg> {
        (16..32).map(FpReg).collect()
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$f{}", self.0)
    }
}

/// Either kind of architectural register.
///
/// ```
/// use fpa_isa::{FpReg, IntReg, Reg};
/// let r: Reg = IntReg::V0.into();
/// assert!(r.is_int());
/// let f: Reg = FpReg::new(2).into();
/// assert_eq!(f.to_string(), "$f2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// A register in the integer file.
    Int(IntReg),
    /// A register in the floating-point file.
    Fp(FpReg),
}

impl Reg {
    /// Whether this is an integer-file register.
    #[must_use]
    pub fn is_int(self) -> bool {
        matches!(self, Reg::Int(_))
    }

    /// Whether this is a floating-point-file register.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, Reg::Fp(_))
    }

    /// The integer register, if this is one.
    #[must_use]
    pub fn as_int(self) -> Option<IntReg> {
        match self {
            Reg::Int(r) => Some(r),
            Reg::Fp(_) => None,
        }
    }
}

impl From<IntReg> for Reg {
    fn from(r: IntReg) -> Reg {
        Reg::Int(r)
    }
}

impl From<FpReg> for Reg {
    fn from(r: FpReg) -> Reg {
        Reg::Fp(r)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Int(r) => r.fmt(f),
            Reg::Fp(r) => r.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_reg_roles() {
        assert!(IntReg::ZERO.is_zero());
        assert!(!IntReg::SP.is_zero());
        assert_eq!(IntReg::RA.index(), 31);
        assert_eq!(
            IntReg::args(),
            [IntReg::A0, IntReg::A1, IntReg::A2, IntReg::A3]
        );
    }

    #[test]
    fn allocatable_pools_exclude_reserved() {
        let ints = IntReg::allocatable();
        assert!(!ints.contains(&IntReg::ZERO));
        assert!(!ints.contains(&IntReg::AT));
        assert!(!ints.contains(&IntReg::AT2));
        assert!(!ints.contains(&IntReg::SP));
        assert!(!ints.contains(&IntReg::FP));
        assert!(!ints.contains(&IntReg::RA));
        assert!(!ints.contains(&IntReg::V0));
        assert!(!ints.contains(&IntReg::A0));
        assert_eq!(ints.len(), 20);

        let fps = FpReg::allocatable();
        assert!(!fps.contains(&FpReg::FV0));
        assert!(!fps.contains(&FpReg::AT));
        assert!(!fps.contains(&FpReg::FA0));
        assert_eq!(fps.len(), 26);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_reg_range_checked() {
        let _ = IntReg::new(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_reg_range_checked() {
        let _ = FpReg::new(200);
    }

    #[test]
    fn display_forms() {
        assert_eq!(IntReg::new(17).to_string(), "$17");
        assert_eq!(FpReg::new(31).to_string(), "$f31");
        assert_eq!(Reg::from(IntReg::V0).to_string(), "$2");
    }

    #[test]
    fn reg_conversions() {
        let r = Reg::from(IntReg::A0);
        assert_eq!(r.as_int(), Some(IntReg::A0));
        let f = Reg::from(FpReg::new(3));
        assert!(f.is_fp() && !f.is_int());
    }
}
