//! The tree-walking IR interpreter, frozen as the behavioural spec of
//! `fpa_ir::Interp`.
//!
//! This is the interpreter `fpa_ir` shipped before it lowered functions to
//! flat code: it walks each block's `Inst`s, keeps every register as a
//! tagged [`Value`] in a per-call `Vec`, and recurses on calls. It is kept
//! only for the differential test in `interp_oracle.rs`; do not change its
//! semantics. Two additions serve that test and change no result: block
//! counts live in a local table, and a run that runs out of fuel reports
//! where (see [`Stop`]).

use fpa_ir::{
    BinOp, BlockId, CvtKind, ExecOutcome, FuncId, Function, Inst, InterpError, MemWidth, Module,
    Profile, Terminator, Ty, VReg,
};

/// Where a run's budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stop {
    /// The step that did not fit.
    pub at: Point,
    /// Frames below the running one (0 in `main`).
    pub depth: usize,
}

/// The kind of step a budget ran out on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// Entering a block: the budget ends at a block boundary.
    BlockEntry,
    /// A non-terminator instruction: the budget ends mid-block.
    Inst,
    /// A `Br` or `Ret`.
    Terminator,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An integer (or address).
    Int(i32),
    /// A double-precision float.
    Double(f64),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a double (interpreter type confusion — the
    /// verifier rules this out for well-typed IR).
    #[must_use]
    pub fn as_int(self) -> i32 {
        match self {
            Value::Int(v) => v,
            Value::Double(d) => panic!("expected int, found double {d}"),
        }
    }

    /// The double payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    #[must_use]
    pub fn as_double(self) -> f64 {
        match self {
            Value::Double(v) => v,
            Value::Int(i) => panic!("expected double, found int {i}"),
        }
    }
}

/// The interpreter.
#[derive(Debug)]
pub struct Interp<'m> {
    module: &'m Module,
    mem: Vec<u8>,
    mem_base: u32,
    output: String,
    fuel: u64,
    executed: u64,
    steps: u64,
    depth_limit: usize,
    counts: Vec<Vec<u64>>,
    stop: Option<Stop>,
}

impl<'m> Interp<'m> {
    /// Default dynamic-instruction budget.
    pub const DEFAULT_FUEL: u64 = 2_000_000_000;

    /// Creates an interpreter for `module` (whose addresses must already be
    /// assigned via [`Module::assign_addresses`]).
    #[must_use]
    pub fn new(module: &'m Module) -> Interp<'m> {
        let end = module
            .globals
            .iter()
            .map(|g| g.addr + g.size)
            .max()
            .unwrap_or(Module::DATA_BASE);
        let mem_base = Module::DATA_BASE;
        let mut mem = vec![0u8; (end - mem_base) as usize];
        for g in &module.globals {
            let off = (g.addr - mem_base) as usize;
            mem[off..off + g.init.len()].copy_from_slice(&g.init);
        }
        Interp {
            module,
            mem,
            mem_base,
            output: String::new(),
            fuel: Self::DEFAULT_FUEL,
            executed: 0,
            steps: 0,
            depth_limit: 4096,
            counts: module
                .funcs
                .iter()
                .map(|f| vec![0; f.blocks.len()])
                .collect(),
            stop: None,
        }
    }

    /// Overrides the dynamic-instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Interp<'m> {
        self.fuel = fuel;
        self
    }

    /// Runs `main` with no arguments; on [`InterpError::OutOfFuel`], also
    /// says where the budget ran out.
    pub fn run(mut self) -> (Result<(ExecOutcome, Profile), InterpError>, Option<Stop>) {
        let result = self.run_main();
        (result, self.stop)
    }

    fn run_main(&mut self) -> Result<(ExecOutcome, Profile), InterpError> {
        let main = self
            .module
            .func_id("main")
            .ok_or(InterpError::MissingMain)?;
        let ret = self.exec_function(main, &[], 0)?;
        let exit_code = match ret {
            Some(Value::Int(v)) => v,
            _ => 0,
        };
        Ok((
            ExecOutcome {
                exit_code,
                output: std::mem::take(&mut self.output),
                dynamic_insts: self.executed,
                memory: std::mem::take(&mut self.mem),
            },
            Profile::from_raw(std::mem::take(&mut self.counts)),
        ))
    }

    fn charge(&mut self, at: Point, depth: usize) -> Result<(), InterpError> {
        self.executed += 1;
        self.step(at, depth)
    }

    /// Charges one unit of progress without counting an instruction —
    /// block transitions are charged so that even jump-only loops (which
    /// execute no instructions) exhaust the budget.
    fn step(&mut self, at: Point, depth: usize) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.fuel {
            self.stop = Some(Stop { at, depth });
            Err(InterpError::OutOfFuel)
        } else {
            Ok(())
        }
    }

    fn read_mem(&self, func: &Function, addr: u32, width: MemWidth) -> Result<Value, InterpError> {
        let n = width.bytes();
        let lo = addr.wrapping_sub(self.mem_base) as usize;
        if addr < self.mem_base || lo + n as usize > self.mem.len() {
            return Err(InterpError::BadAddress {
                addr,
                func: func.name.clone(),
            });
        }
        Ok(match width {
            MemWidth::Byte => Value::Int(i32::from(self.mem[lo] as i8)),
            MemWidth::ByteU => Value::Int(i32::from(self.mem[lo])),
            MemWidth::Word => {
                Value::Int(i32::from_le_bytes(self.mem[lo..lo + 4].try_into().unwrap()))
            }
            MemWidth::Dword => {
                Value::Double(f64::from_le_bytes(self.mem[lo..lo + 8].try_into().unwrap()))
            }
        })
    }

    fn write_mem(
        &mut self,
        func: &Function,
        addr: u32,
        width: MemWidth,
        v: Value,
    ) -> Result<(), InterpError> {
        let n = width.bytes();
        let lo = addr.wrapping_sub(self.mem_base) as usize;
        if addr < self.mem_base || lo + n as usize > self.mem.len() {
            return Err(InterpError::BadAddress {
                addr,
                func: func.name.clone(),
            });
        }
        match width {
            MemWidth::Byte | MemWidth::ByteU => self.mem[lo] = v.as_int() as u8,
            MemWidth::Word => {
                self.mem[lo..lo + 4].copy_from_slice(&v.as_int().to_le_bytes());
            }
            MemWidth::Dword => {
                self.mem[lo..lo + 8].copy_from_slice(&v.as_double().to_le_bytes());
            }
        }
        Ok(())
    }

    fn exec_function(
        &mut self,
        fid: FuncId,
        args: &[Value],
        depth: usize,
    ) -> Result<Option<Value>, InterpError> {
        if depth >= self.depth_limit {
            return Err(InterpError::StackOverflow);
        }
        let func = self.module.func(fid);
        // Registers start zeroed per their type, like machine registers.
        let mut regs: Vec<Value> = (0..func.num_vregs())
            .map(|i| match func.vreg_ty(VReg::new(i as u32)) {
                Ty::Int => Value::Int(0),
                Ty::Double => Value::Double(0.0),
            })
            .collect();
        for (p, a) in func.params.iter().zip(args) {
            regs[p.index()] = *a;
        }
        let mut block = BlockId::ENTRY;
        loop {
            self.step(Point::BlockEntry, depth)?;
            self.counts[fid.index()][block.index()] += 1;
            for inst in &func.block(block).insts {
                self.charge(Point::Inst, depth)?;
                match inst {
                    Inst::Bin {
                        dst, op, lhs, rhs, ..
                    } => {
                        let l = regs[lhs.index()];
                        let r = regs[rhs.index()];
                        regs[dst.index()] =
                            eval_bin(*op, l, r).ok_or_else(|| InterpError::DivByZero {
                                func: func.name.clone(),
                            })?;
                    }
                    Inst::BinImm {
                        dst, op, lhs, imm, ..
                    } => {
                        let l = regs[lhs.index()];
                        regs[dst.index()] =
                            eval_bin(*op, l, Value::Int(*imm)).ok_or_else(|| {
                                InterpError::DivByZero {
                                    func: func.name.clone(),
                                }
                            })?;
                    }
                    Inst::Li { dst, imm, .. } => regs[dst.index()] = Value::Int(*imm),
                    Inst::LiD { dst, val, .. } => regs[dst.index()] = Value::Double(*val),
                    Inst::Move { dst, src, .. } | Inst::Copy { dst, src, .. } => {
                        regs[dst.index()] = regs[src.index()];
                    }
                    Inst::La { dst, global, .. } => {
                        regs[dst.index()] =
                            Value::Int(self.module.globals[*global as usize].addr as i32);
                    }
                    Inst::Cvt { dst, src, kind, .. } => {
                        regs[dst.index()] = match kind {
                            CvtKind::IntToDouble => {
                                Value::Double(f64::from(regs[src.index()].as_int()))
                            }
                            CvtKind::DoubleToInt => {
                                Value::Int(regs[src.index()].as_double() as i32)
                            }
                        };
                    }
                    Inst::Load {
                        dst,
                        base,
                        offset,
                        width,
                        ..
                    } => {
                        let addr = (regs[base.index()].as_int().wrapping_add(*offset)) as u32;
                        regs[dst.index()] = self.read_mem(func, addr, *width)?;
                    }
                    Inst::Store {
                        value,
                        base,
                        offset,
                        width,
                        ..
                    } => {
                        let addr = (regs[base.index()].as_int().wrapping_add(*offset)) as u32;
                        let v = regs[value.index()];
                        self.write_mem(func, addr, *width, v)?;
                    }
                    Inst::Call {
                        callee, args, dst, ..
                    } => {
                        let argv: Vec<Value> = args.iter().map(|a| regs[a.index()]).collect();
                        let r = self.exec_function(*callee, &argv, depth + 1)?;
                        if let Some(d) = dst {
                            regs[d.index()] = r.expect("verified: callee returns a value");
                        }
                    }
                    Inst::Print { src, .. } => {
                        self.output
                            .push_str(&fpa_isa::hostio::fmt_int(regs[src.index()].as_int()));
                    }
                    Inst::PrintChar { src, .. } => {
                        self.output
                            .push_str(&fpa_isa::hostio::fmt_char(regs[src.index()].as_int()));
                    }
                    Inst::PrintDouble { src, .. } => {
                        self.output
                            .push_str(&fpa_isa::hostio::fmt_double(regs[src.index()].as_double()));
                    }
                }
            }
            match &func.block(block).term {
                Terminator::Jump { target } => block = *target,
                Terminator::Br {
                    cond,
                    nonzero,
                    zero,
                    ..
                } => {
                    self.charge(Point::Terminator, depth)?;
                    block = if regs[cond.index()].as_int() != 0 {
                        *nonzero
                    } else {
                        *zero
                    };
                }
                Terminator::Ret { value, .. } => {
                    self.charge(Point::Terminator, depth)?;
                    return Ok(value.map(|v| regs[v.index()]));
                }
            }
        }
    }
}

/// Evaluates a binary operator; `None` signals division by zero.
fn eval_bin(op: BinOp, l: Value, r: Value) -> Option<Value> {
    use BinOp::*;
    Some(match op {
        Add => Value::Int(l.as_int().wrapping_add(r.as_int())),
        Sub => Value::Int(l.as_int().wrapping_sub(r.as_int())),
        And => Value::Int(l.as_int() & r.as_int()),
        Or => Value::Int(l.as_int() | r.as_int()),
        Xor => Value::Int(l.as_int() ^ r.as_int()),
        Nor => Value::Int(!(l.as_int() | r.as_int())),
        Sll => Value::Int(l.as_int().wrapping_shl(r.as_int() as u32 & 31)),
        Srl => Value::Int(((l.as_int() as u32).wrapping_shr(r.as_int() as u32 & 31)) as i32),
        Sra => Value::Int(l.as_int().wrapping_shr(r.as_int() as u32 & 31)),
        Slt => Value::Int(i32::from(l.as_int() < r.as_int())),
        Sltu => Value::Int(i32::from((l.as_int() as u32) < (r.as_int() as u32))),
        Mul => Value::Int(l.as_int().wrapping_mul(r.as_int())),
        Div => {
            if r.as_int() == 0 {
                return None;
            }
            Value::Int(l.as_int().wrapping_div(r.as_int()))
        }
        Rem => {
            if r.as_int() == 0 {
                return None;
            }
            Value::Int(l.as_int().wrapping_rem(r.as_int()))
        }
        FAdd => Value::Double(l.as_double() + r.as_double()),
        FSub => Value::Double(l.as_double() - r.as_double()),
        FMul => Value::Double(l.as_double() * r.as_double()),
        FDiv => Value::Double(l.as_double() / r.as_double()),
        FCeq => Value::Int(i32::from(l.as_double() == r.as_double())),
        FClt => Value::Int(i32::from(l.as_double() < r.as_double())),
        FCle => Value::Int(i32::from(l.as_double() <= r.as_double())),
    })
}
