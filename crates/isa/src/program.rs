//! Linked machine programs.

use crate::inst::Inst;
use std::collections::BTreeMap;
use std::fmt;

/// An initialized datum in the data segment.
#[derive(Debug, Clone, PartialEq)]
pub struct DataItem {
    /// Byte address of the first byte.
    pub addr: u32,
    /// Initial contents.
    pub bytes: Vec<u8>,
    /// Symbolic name (for disassembly and debugging).
    pub name: String,
}

/// What a code symbol denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// Entry point of a function.
    Function,
    /// Start of a basic block within a function.
    Block,
}

/// A code symbol: a named instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Instruction index the symbol refers to.
    pub pc: u32,
    /// Symbol name, e.g. `main` or `main.bb3`.
    pub name: String,
    /// Function or block marker.
    pub kind: SymbolKind,
}

/// A fully linked executable for the simulated machine.
///
/// Code is word-addressed: `pc` is an index into [`Program::code`]. Data is
/// byte-addressed within a flat 32-bit space; the loader places
/// [`Program::data`] before starting execution at [`Program::entry`].
///
/// ```
/// use fpa_isa::{Inst, IntReg, Op, Program};
/// let mut p = Program::new();
/// p.code.push(Inst::li(Op::Li, IntReg::V0.into(), 0));
/// p.code.push(Inst::bare(Op::Halt));
/// assert_eq!(p.code.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// The instruction stream.
    pub code: Vec<Inst>,
    /// Initialized data.
    pub data: Vec<DataItem>,
    /// Instruction index where execution starts.
    pub entry: u32,
    /// Code symbols sorted by construction order.
    pub symbols: Vec<Symbol>,
    /// Lowest address of the (downward-growing) stack region; the stack
    /// pointer is initialized to `stack_top`.
    pub stack_top: u32,
}

impl Program {
    /// Default top-of-stack: 8 MiB.
    pub const DEFAULT_STACK_TOP: u32 = 0x0080_0000;

    /// Creates an empty program with the default stack placement.
    #[must_use]
    pub fn new() -> Program {
        Program {
            stack_top: Self::DEFAULT_STACK_TOP,
            ..Program::default()
        }
    }

    /// Looks up a function symbol's entry pc.
    #[must_use]
    pub fn function_entry(&self, name: &str) -> Option<u32> {
        self.symbols
            .iter()
            .find(|s| s.kind == SymbolKind::Function && s.name == name)
            .map(|s| s.pc)
    }

    /// The name of the function containing instruction index `pc`, if any.
    ///
    /// Functions are assumed contiguous: a function spans from its entry
    /// symbol to the next function symbol.
    #[must_use]
    pub fn function_at(&self, pc: u32) -> Option<&str> {
        let mut best: Option<(&Symbol, u32)> = None;
        for s in &self.symbols {
            if s.kind == SymbolKind::Function && s.pc <= pc {
                match best {
                    Some((_, bp)) if bp >= s.pc => {}
                    _ => best = Some((s, s.pc)),
                }
            }
        }
        best.map(|(s, _)| s.name.as_str())
    }

    /// Total static code size in instructions.
    #[must_use]
    pub fn static_size(&self) -> usize {
        self.code.len()
    }

    /// Disassembles the whole program, one instruction per line, with
    /// function labels interleaved.
    #[must_use]
    pub fn disasm(&self) -> String {
        let mut by_pc: BTreeMap<u32, Vec<&Symbol>> = BTreeMap::new();
        for s in &self.symbols {
            by_pc.entry(s.pc).or_default().push(s);
        }
        let mut out = String::new();
        for (pc, inst) in self.code.iter().enumerate() {
            if let Some(syms) = by_pc.get(&(pc as u32)) {
                for s in syms {
                    out.push_str(&format!("{}:\n", s.name));
                }
            }
            out.push_str(&format!("  {pc:5}: {inst}\n"));
        }
        out
    }

    /// Checks internal consistency: every branch/jump target is a valid
    /// instruction index and the entry point is in range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let n = self.code.len() as u32;
        if self.entry >= n {
            return Err(ProgramError {
                pc: self.entry,
                message: "entry out of range".into(),
            });
        }
        for (pc, inst) in self.code.iter().enumerate() {
            let is_jump_like = matches!(inst.op, crate::Op::J | crate::Op::Jal);
            if (inst.op.is_cond_branch() || is_jump_like) && inst.target >= n {
                return Err(ProgramError {
                    pc: pc as u32,
                    message: format!("branch target L{} out of range", inst.target),
                });
            }
        }
        Ok(())
    }
}

/// A consistency error in a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramError {
    /// The offending instruction index.
    pub pc: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid program at pc {}: {}", self.pc, self.message)
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Inst, IntReg, Op};

    fn sample() -> Program {
        let mut p = Program::new();
        p.symbols.push(Symbol {
            pc: 0,
            name: "main".into(),
            kind: SymbolKind::Function,
        });
        p.code.push(Inst::li(Op::Li, IntReg::V0.into(), 1));
        p.code.push(Inst::jump(3));
        p.symbols.push(Symbol {
            pc: 2,
            name: "helper".into(),
            kind: SymbolKind::Function,
        });
        p.code.push(Inst::jr(IntReg::RA));
        p.code.push(Inst::bare(Op::Halt));
        p
    }

    #[test]
    fn function_lookup() {
        let p = sample();
        assert_eq!(p.function_entry("main"), Some(0));
        assert_eq!(p.function_entry("helper"), Some(2));
        assert_eq!(p.function_entry("absent"), None);
        assert_eq!(p.function_at(0), Some("main"));
        assert_eq!(p.function_at(1), Some("main"));
        assert_eq!(p.function_at(2), Some("helper"));
        assert_eq!(p.function_at(3), Some("helper"));
    }

    #[test]
    fn validate_accepts_good_program() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut p = sample();
        p.code[1].target = 99;
        let err = p.validate().unwrap_err();
        assert_eq!(err.pc, 1);
        assert!(err.to_string().contains("L99"));
    }

    #[test]
    fn validate_rejects_bad_entry() {
        let mut p = sample();
        p.entry = 1000;
        assert!(p.validate().is_err());
    }

    #[test]
    fn disasm_includes_labels() {
        let text = sample().disasm();
        assert!(text.contains("main:"));
        assert!(text.contains("helper:"));
        assert!(text.contains("li $2, 1"));
    }
}
