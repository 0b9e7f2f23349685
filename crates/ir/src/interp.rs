//! The profiling interpreter for IR modules.
//!
//! Serves two purposes:
//!
//! 1. **Golden semantic model** — differential tests execute a module here
//!    and compare observable output against the machine-level functional
//!    simulation of compiled (and partitioned) code.
//! 2. **Basic-block profiler** — the advanced partitioning scheme's cost
//!    model needs execution counts `n_B` per basic block (paper §6.1, which
//!    used "basic-block execution profiles"). [`Interp::run`] returns a
//!    [`Profile`] with exactly those counts.
//!
//! # Lowered form
//!
//! Every compile runs this interpreter to completion, so it does not walk
//! the IR. [`Interp::run`] lowers each function once, at its first call
//! (a function that never runs is never lowered), into flat code:
//!
//! * each virtual register becomes a slot in one of two typed banks
//!   (`i32` or `f64`, by [`Function::vreg_ty`]), so no operation inspects
//!   a value's type at run time; `BinImm` immediates live in constant
//!   slots of the integer bank, so it shares the register form's operation;
//! * each block is an offset into the function's code: a header holding
//!   its fuel cost and its index in the run's flat block counts, its
//!   operations, and its terminator, inlined as one more operation;
//! * a call pushes a frame onto an explicit stack; every frame's registers
//!   live in one pair of arenas reused for the whole run, so a call
//!   allocates nothing once the arenas have grown.
//!
//! The flat counts become the [`Profile`] when the run ends.
//!
//! # Fuel
//!
//! A run charges one step per block entry, one per instruction and one
//! per `Br` or `Ret` (`Jump` is free); it fails with
//! [`InterpError::OutOfFuel`] at the first step past the budget, after
//! executing (and possibly faulting in) every instruction charged before
//! it. The steps are charged a *segment* at a time: a block's operations
//! up to and including its first call, or else to its end, and after each
//! call, up to the next call or the end. A segment that does not fit in
//! the budget left is replayed one operation at a time to find where the
//! budget runs out. A call closes its segment, so a callee never runs on
//! fuel charged for its caller's later instructions.
//!
//! The tree-walking interpreter this replaced is kept as the oracle of a
//! differential test (`crates/fuzz/tests/interp_oracle.rs`).

use crate::func::{BlockId, FuncId, Function, Module, VReg};
use crate::inst::{BinOp, CvtKind, Inst, MemWidth, Terminator};
use crate::types::Ty;
use std::fmt;

/// Execution-count profile: `counts[func][block]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    counts: Vec<Vec<u64>>,
}

impl Profile {
    /// Creates an all-zero profile shaped like `module`.
    #[must_use]
    pub fn new(module: &Module) -> Profile {
        Profile {
            counts: module
                .funcs
                .iter()
                .map(|f| vec![0; f.blocks.len()])
                .collect(),
        }
    }

    /// Execution count of block `b` in function `f`.
    #[must_use]
    pub fn count(&self, f: FuncId, b: BlockId) -> u64 {
        self.counts
            .get(f.index())
            .and_then(|c| c.get(b.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Whether function `f` was ever entered.
    #[must_use]
    pub fn covered(&self, f: FuncId) -> bool {
        self.counts
            .get(f.index())
            .is_some_and(|c| c.iter().any(|&n| n > 0))
    }

    /// The raw `counts[func][block]` table (for serialization).
    #[must_use]
    pub fn raw_counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    /// Rebuilds a profile from a raw counts table (the inverse of
    /// [`Profile::raw_counts`]).
    #[must_use]
    pub fn from_raw(counts: Vec<Vec<u64>>) -> Profile {
        Profile { counts }
    }
}

/// Why interpretation stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// `main` is missing from the module.
    MissingMain,
    /// Integer division or remainder by zero.
    DivByZero {
        /// Function where the fault occurred.
        func: String,
    },
    /// A memory access fell outside the data segment.
    BadAddress {
        /// The faulting byte address.
        addr: u32,
        /// Function where the fault occurred.
        func: String,
    },
    /// The dynamic-instruction budget was exhausted (probable infinite loop).
    OutOfFuel,
    /// The call stack exceeded the recursion limit.
    StackOverflow,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingMain => f.write_str("module has no `main` function"),
            InterpError::DivByZero { func } => write!(f, "division by zero in `{func}`"),
            InterpError::BadAddress { addr, func } => {
                write!(f, "bad address {addr:#x} in `{func}`")
            }
            InterpError::OutOfFuel => f.write_str("dynamic-instruction budget exhausted"),
            InterpError::StackOverflow => f.write_str("call stack exceeded recursion limit"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The observable result of running a module.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// `main`'s return value (0 if `main` is void).
    pub exit_code: i32,
    /// Everything printed, in order.
    pub output: String,
    /// Dynamic IR instructions executed (branch/return terminators count).
    pub dynamic_insts: u64,
    /// Final contents of the data segment (for memory-equivalence checks).
    pub memory: Vec<u8>,
}

/// The interpreter.
///
/// The module must pass [`crate::verify::verify_module`]: lowering trusts
/// its operand types.
///
/// ```
/// use fpa_ir::{FunctionBuilder, Interp, Module, Ty};
/// let mut m = Module::new();
/// let mut b = FunctionBuilder::new("main", Some(Ty::Int));
/// let e = b.block();
/// b.switch_to(e);
/// let v = b.li(42);
/// b.print(v);
/// b.ret(Some(v));
/// m.funcs.push(b.finish());
/// m.assign_addresses();
/// let (outcome, _profile) = Interp::new(&m).run().unwrap();
/// assert_eq!(outcome.exit_code, 42);
/// assert_eq!(outcome.output, "42\n");
/// ```
#[derive(Debug)]
pub struct Interp<'m> {
    module: &'m Module,
    mem: Vec<u8>,
    fuel: u64,
}

/// Frames a run may hold at once, `main`'s included.
const DEPTH_LIMIT: usize = 4096;

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
        let mut mem = vec![0u8; (end - Module::DATA_BASE) as usize];
        for g in &module.globals {
            let off = (g.addr - Module::DATA_BASE) as usize;
            mem[off..off + g.init.len()].copy_from_slice(&g.init);
        }
        Interp {
            module,
            mem,
            fuel: Self::DEFAULT_FUEL,
        }
    }

    /// Overrides the dynamic-instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Interp<'m> {
        self.fuel = fuel;
        self
    }

    /// Runs `main` with no arguments.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on missing `main`, division by zero,
    /// out-of-range memory access, fuel exhaustion, or stack overflow.
    pub fn run(self) -> Result<(ExecOutcome, Profile), InterpError> {
        let module = self.module;
        let main = module.func_id("main").ok_or(InterpError::MissingMain)?;
        let mut prof_base = Vec::with_capacity(module.funcs.len());
        let mut blocks = 0;
        for f in &module.funcs {
            prof_base.push(blocks);
            blocks += f.blocks.len();
        }
        let mut io = Io {
            mem: self.mem,
            output: String::new(),
        };
        // Every function's block counts, back to back.
        let mut counts = vec![0; blocks];
        let mut left = self.fuel;
        let ret = execute(
            module,
            &prof_base,
            main.index(),
            &mut io,
            &mut counts,
            &mut left,
        )?;
        let exit_code = match ret {
            Ret::Int(v) => v,
            Ret::Double(_) | Ret::Void => 0,
        };
        let entries: u64 = counts.iter().sum();
        let profile = module
            .funcs
            .iter()
            .zip(&prof_base)
            .map(|(f, &base)| counts[base..base + f.blocks.len()].to_vec())
            .collect();
        Ok((
            ExecOutcome {
                exit_code,
                output: io.output,
                // Every step charged went to a block entry or an instruction.
                dynamic_insts: self.fuel - left - entries,
                memory: io.mem,
            },
            Profile::from_raw(profile),
        ))
    }
}

// ---- Lowered form -------------------------------------------------------

/// A register slot in one of a frame's two banks.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Int(u32),
    Double(u32),
}

/// One operation of a function's flat code. Operands are slot indices:
/// `(dst, lhs, rhs)` in the banks the operation implies, and memory
/// operations take `(value, base, offset)`. Each block starts with a
/// `Block` header, which control transfers read rather than execute, and
/// ends in a `Jump`, `Br` or return; calls may also stand mid-block.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(u32, u32, u32),
    Sub(u32, u32, u32),
    And(u32, u32, u32),
    Or(u32, u32, u32),
    Xor(u32, u32, u32),
    Nor(u32, u32, u32),
    Sll(u32, u32, u32),
    Srl(u32, u32, u32),
    Sra(u32, u32, u32),
    Slt(u32, u32, u32),
    Sltu(u32, u32, u32),
    Mul(u32, u32, u32),
    Div(u32, u32, u32),
    Rem(u32, u32, u32),
    FAdd(u32, u32, u32),
    FSub(u32, u32, u32),
    FMul(u32, u32, u32),
    FDiv(u32, u32, u32),
    /// `FCeq`, `FClt` and `FCle` write an integer slot.
    FCeq(u32, u32, u32),
    FClt(u32, u32, u32),
    FCle(u32, u32, u32),
    Li(u32, i32),
    LiD(u32, f64),
    Mov(u32, u32),
    MovD(u32, u32),
    IntToDouble(u32, u32),
    DoubleToInt(u32, u32),
    Lb(u32, u32, i32),
    Lbu(u32, u32, i32),
    Lw(u32, u32, i32),
    Ld(u32, u32, i32),
    Sb(u32, u32, i32),
    Sw(u32, u32, i32),
    Sd(u32, u32, i32),
    Print(u32),
    PrintChar(u32),
    PrintDouble(u32),
    /// `Block(cost, count)`: entering the block charges `cost` steps (one
    /// for the entry, one per operation up to and including its first
    /// call, or else to its end plus one for a `Br` or return) and bumps
    /// the run's flat block count `count`.
    Block(u32, u32),
    /// Enter the block whose header is at `.0`.
    Jump(u32),
    /// `Br(cond, nonzero, zero)`, blocks as for `Jump`.
    Br(u32, u32, u32),
    /// Call site `.0` of [`Code::calls`].
    Call(u32),
    RetInt(u32),
    RetDouble(u32),
    RetVoid,
}

/// A call site.
#[derive(Debug, Clone, Copy)]
struct CallSite {
    callee: u32,
    /// A range of [`Code::args`]: slots in the caller's banks.
    args: (u32, u32),
    dst: Option<Slot>,
    /// Steps charged when the call returns: one per operation after it up
    /// to and including the next call, or else to the block's end plus
    /// one for a `Br` or return.
    resume_cost: u32,
}

/// One function, lowered: each block is an offset into `ops`, where its
/// header is followed by its operations and its terminator. The entry
/// block's header is `ops[0]`.
#[derive(Debug)]
struct Code {
    ops: Vec<Op>,
    calls: Vec<CallSite>,
    args: Vec<Slot>,
    params: Vec<Slot>,
    /// A fresh frame's integer bank: zeroed registers, then constants.
    int_init: Vec<i32>,
    /// Double registers (zeroed in a fresh frame).
    doubles: usize,
}

/// The record a segment's cost goes to when lowering closes it: the
/// header of the block it starts, or the call it resumes after.
enum Open {
    Block(usize),
    Call(usize),
}

impl Code {
    fn lower(module: &Module, f: &Function, prof_base: usize) -> Code {
        let (mut ints, mut doubles) = (0u32, 0u32);
        let slots: Vec<Slot> = (0..f.num_vregs())
            .map(|i| match f.vreg_ty(VReg::new(i as u32)) {
                Ty::Int => {
                    ints += 1;
                    Slot::Int(ints - 1)
                }
                Ty::Double => {
                    doubles += 1;
                    Slot::Double(doubles - 1)
                }
            })
            .collect();
        let slot = |v: VReg| slots[v.index()];
        let idx = |v: VReg| match slots[v.index()] {
            Slot::Int(i) | Slot::Double(i) => i,
        };
        // Header offsets: a block is its header, body and terminator.
        let mut headers = Vec::with_capacity(f.blocks.len());
        let mut pc = 0;
        for bl in &f.blocks {
            headers.push(pc);
            pc += bl.insts.len() as u32 + 2;
        }
        let block = |b: BlockId| headers[b.index()];
        let mut int_init = vec![0; ints as usize];
        let mut constant = |imm: i32| {
            int_init.push(imm);
            int_init.len() as u32 - 1
        };

        let mut code = Code {
            ops: Vec::with_capacity(pc as usize),
            calls: Vec::new(),
            args: Vec::new(),
            params: f.params.iter().map(|&p| slot(p)).collect(),
            int_init: Vec::new(),
            doubles: doubles as usize,
        };
        let close = |code: &mut Code, open: &Open, cost: u32| match *open {
            Open::Block(h) => {
                if let Op::Block(c, _) = &mut code.ops[h] {
                    *c = cost;
                }
            }
            Open::Call(c) => code.calls[c].resume_cost = cost,
        };
        for (b, bl) in f.blocks.iter().enumerate() {
            let (mut open, mut cost) = (Open::Block(code.ops.len()), 1);
            code.ops.push(Op::Block(0, (prof_base + b) as u32));
            for inst in &bl.insts {
                cost += 1;
                let op = match *inst {
                    Inst::Bin {
                        dst, op, lhs, rhs, ..
                    } => bin_op(op, idx(dst), idx(lhs), idx(rhs)),
                    Inst::BinImm {
                        dst, op, lhs, imm, ..
                    } => bin_op(op, idx(dst), idx(lhs), constant(imm)),
                    Inst::Li { dst, imm, .. } => Op::Li(idx(dst), imm),
                    Inst::LiD { dst, val, .. } => Op::LiD(idx(dst), val),
                    Inst::Move { dst, src, .. } | Inst::Copy { dst, src, .. } => match slot(dst) {
                        Slot::Int(d) => Op::Mov(d, idx(src)),
                        Slot::Double(d) => Op::MovD(d, idx(src)),
                    },
                    Inst::La { dst, global, .. } => {
                        Op::Li(idx(dst), module.globals[global as usize].addr as i32)
                    }
                    Inst::Cvt { dst, src, kind, .. } => match kind {
                        CvtKind::IntToDouble => Op::IntToDouble(idx(dst), idx(src)),
                        CvtKind::DoubleToInt => Op::DoubleToInt(idx(dst), idx(src)),
                    },
                    Inst::Load {
                        dst,
                        base,
                        offset,
                        width,
                        ..
                    } => {
                        let (d, b) = (idx(dst), idx(base));
                        match width {
                            MemWidth::Byte => Op::Lb(d, b, offset),
                            MemWidth::ByteU => Op::Lbu(d, b, offset),
                            MemWidth::Word => Op::Lw(d, b, offset),
                            MemWidth::Dword => Op::Ld(d, b, offset),
                        }
                    }
                    Inst::Store {
                        value,
                        base,
                        offset,
                        width,
                        ..
                    } => {
                        let (v, b) = (idx(value), idx(base));
                        match width {
                            MemWidth::Byte | MemWidth::ByteU => Op::Sb(v, b, offset),
                            MemWidth::Word => Op::Sw(v, b, offset),
                            MemWidth::Dword => Op::Sd(v, b, offset),
                        }
                    }
                    Inst::Print { src, .. } => Op::Print(idx(src)),
                    Inst::PrintChar { src, .. } => Op::PrintChar(idx(src)),
                    Inst::PrintDouble { src, .. } => Op::PrintDouble(idx(src)),
                    Inst::Call {
                        callee,
                        ref args,
                        dst,
                        ..
                    } => {
                        let first = code.args.len() as u32;
                        code.args.extend(args.iter().map(|&a| slot(a)));
                        close(&mut code, &open, cost);
                        (open, cost) = (Open::Call(code.calls.len()), 0);
                        code.calls.push(CallSite {
                            callee: callee.index() as u32,
                            args: (first, code.args.len() as u32),
                            dst: dst.map(slot),
                            resume_cost: 0,
                        });
                        Op::Call(code.calls.len() as u32 - 1)
                    }
                };
                code.ops.push(op);
            }
            let term = match bl.term {
                Terminator::Jump { target } => Op::Jump(block(target)),
                Terminator::Br {
                    cond,
                    nonzero,
                    zero,
                    ..
                } => Op::Br(idx(cond), block(nonzero), block(zero)),
                Terminator::Ret { value, .. } => match value.map(slot) {
                    Some(Slot::Int(v)) => Op::RetInt(v),
                    Some(Slot::Double(v)) => Op::RetDouble(v),
                    None => Op::RetVoid,
                },
            };
            close(
                &mut code,
                &open,
                cost + u32::from(!matches!(term, Op::Jump(_))),
            );
            code.ops.push(term);
        }
        code.int_init = int_init;
        code
    }
}

/// The operation computing `d = op(a, b)`, slots in the banks `op` reads
/// and writes.
fn bin_op(op: BinOp, d: u32, a: u32, b: u32) -> Op {
    match op {
        BinOp::Add => Op::Add(d, a, b),
        BinOp::Sub => Op::Sub(d, a, b),
        BinOp::And => Op::And(d, a, b),
        BinOp::Or => Op::Or(d, a, b),
        BinOp::Xor => Op::Xor(d, a, b),
        BinOp::Nor => Op::Nor(d, a, b),
        BinOp::Sll => Op::Sll(d, a, b),
        BinOp::Srl => Op::Srl(d, a, b),
        BinOp::Sra => Op::Sra(d, a, b),
        BinOp::Slt => Op::Slt(d, a, b),
        BinOp::Sltu => Op::Sltu(d, a, b),
        BinOp::Mul => Op::Mul(d, a, b),
        BinOp::Div => Op::Div(d, a, b),
        BinOp::Rem => Op::Rem(d, a, b),
        BinOp::FAdd => Op::FAdd(d, a, b),
        BinOp::FSub => Op::FSub(d, a, b),
        BinOp::FMul => Op::FMul(d, a, b),
        BinOp::FDiv => Op::FDiv(d, a, b),
        BinOp::FCeq => Op::FCeq(d, a, b),
        BinOp::FClt => Op::FClt(d, a, b),
        BinOp::FCle => Op::FCle(d, a, b),
    }
}

// ---- Execution ----------------------------------------------------------

/// A value returned by `Ret`.
#[derive(Debug, Clone, Copy)]
enum Ret {
    Int(i32),
    Double(f64),
    Void,
}

/// Why a frame stopped; faults become an [`InterpError`] naming the
/// function they happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trap {
    DivByZero,
    BadAddress(u32),
    OutOfFuel,
}

impl Trap {
    fn in_func(self, f: &Function) -> InterpError {
        match self {
            Trap::DivByZero => InterpError::DivByZero {
                func: f.name.clone(),
            },
            Trap::BadAddress(addr) => InterpError::BadAddress {
                addr,
                func: f.name.clone(),
            },
            Trap::OutOfFuel => InterpError::OutOfFuel,
        }
    }
}

/// Where control goes after one operation.
enum Flow {
    Next,
    Block(u32),
    Call(u32),
    Ret(Ret),
}

/// How the running frame left [`run_frame`]: a call (by call site, the
/// caller resuming at `resume`) or a return.
enum Exit {
    Call { site: u32, resume: usize },
    Ret(Ret),
}

/// A caller waiting on the stack: where it resumes and what that costs,
/// where its registers start in the arenas, and where the callee's result
/// goes.
struct Frame {
    func: usize,
    pc: usize,
    resume_cost: u32,
    ints: usize,
    doubles: usize,
    dst: Option<Slot>,
}

/// What operations touch besides registers.
struct Io {
    mem: Vec<u8>,
    output: String,
}

/// Runs `main` to its return, counting block entries into `counts` (each
/// function's at its `prof_base`) and charging steps against `left`.
fn execute(
    module: &Module,
    prof_base: &[usize],
    main: usize,
    io: &mut Io,
    counts: &mut [u64],
    left: &mut u64,
) -> Result<Ret, InterpError> {
    let mut codes: Vec<Option<Code>> = (0..module.funcs.len()).map(|_| None).collect();
    let lower = |codes: &mut Vec<Option<Code>>, f: usize| {
        if codes[f].is_none() {
            codes[f] = Some(Code::lower(module, &module.funcs[f], prof_base[f]));
        }
    };

    let mut stack: Vec<Frame> = Vec::new();
    let (mut ints, mut doubles): (Vec<i32>, Vec<f64>) = (Vec::new(), Vec::new());
    let (mut f, mut ib, mut db) = (main, 0, 0);
    lower(&mut codes, f);
    let code = codes[f].as_ref().expect("lowered");
    ints.extend_from_slice(&code.int_init);
    doubles.resize(code.doubles, 0.0);
    let mut pc = enter(code, 0, &mut ints, &mut doubles, io, counts, left)
        .map_err(|t| t.in_func(&module.funcs[f]))?;
    loop {
        let code = codes[f].as_ref().expect("lowered at its first call");
        let exit = run_frame(
            code,
            pc,
            &mut ints[ib..],
            &mut doubles[db..],
            io,
            counts,
            left,
        )
        .map_err(|t| t.in_func(&module.funcs[f]))?;
        match exit {
            Exit::Call { site, resume } => {
                if stack.len() + 1 >= DEPTH_LIMIT {
                    return Err(InterpError::StackOverflow);
                }
                let call = code.calls[site as usize];
                let callee = call.callee as usize;
                lower(&mut codes, callee);
                let caller = codes[f].as_ref().expect("running");
                let code = codes[callee].as_ref().expect("lowered");
                let (cib, cdb) = (ints.len(), doubles.len());
                ints.extend_from_slice(&code.int_init);
                doubles.resize(cdb + code.doubles, 0.0);
                let actuals = &caller.args[call.args.0 as usize..call.args.1 as usize];
                for (&p, &a) in code.params.iter().zip(actuals) {
                    match (p, a) {
                        (Slot::Int(p), Slot::Int(a)) => {
                            ints[cib + p as usize] = ints[ib + a as usize];
                        }
                        (Slot::Double(p), Slot::Double(a)) => {
                            doubles[cdb + p as usize] = doubles[db + a as usize];
                        }
                        _ => unreachable!("verified: argument types match parameters"),
                    }
                }
                stack.push(Frame {
                    func: f,
                    pc: resume,
                    resume_cost: call.resume_cost,
                    ints: ib,
                    doubles: db,
                    dst: call.dst,
                });
                (f, ib, db) = (callee, cib, cdb);
                pc = enter(
                    code,
                    0,
                    &mut ints[ib..],
                    &mut doubles[db..],
                    io,
                    counts,
                    left,
                )
                .map_err(|t| t.in_func(&module.funcs[f]))?;
            }
            Exit::Ret(value) => {
                let Some(caller) = stack.pop() else {
                    return Ok(value);
                };
                ints.truncate(ib);
                doubles.truncate(db);
                (f, ib, db, pc) = (caller.func, caller.ints, caller.doubles, caller.pc);
                match (caller.dst, value) {
                    (Some(Slot::Int(d)), Ret::Int(v)) => ints[ib + d as usize] = v,
                    (Some(Slot::Double(d)), Ret::Double(v)) => doubles[db + d as usize] = v,
                    _ => {}
                }
                let code = codes[f].as_ref().expect("running");
                let (ri, rd) = (&mut ints[ib..], &mut doubles[db..]);
                charge(code, pc, caller.resume_cost, false, ri, rd, io, left)
                    .map_err(|t| t.in_func(&module.funcs[f]))?;
            }
        }
    }
}

/// Runs the frame whose registers are `ri`/`rd` from `pc` (its segment
/// already charged) until it calls or returns.
fn run_frame(
    code: &Code,
    mut pc: usize,
    ri: &mut [i32],
    rd: &mut [f64],
    io: &mut Io,
    counts: &mut [u64],
    left: &mut u64,
) -> Result<Exit, Trap> {
    loop {
        let op = &code.ops[pc];
        pc += 1;
        pc = match exec(op, ri, rd, io)? {
            Flow::Next => continue,
            Flow::Block(b) => enter(code, b, ri, rd, io, counts, left)?,
            Flow::Call(site) => return Ok(Exit::Call { site, resume: pc }),
            Flow::Ret(value) => return Ok(Exit::Ret(value)),
        };
    }
}

/// Counts and charges an entry to the block whose header is at `header`;
/// returns where its operations start.
#[inline(always)]
fn enter(
    code: &Code,
    header: u32,
    ri: &mut [i32],
    rd: &mut [f64],
    io: &mut Io,
    counts: &mut [u64],
    left: &mut u64,
) -> Result<usize, Trap> {
    let pc = header as usize;
    let Op::Block(cost, count) = code.ops[pc] else {
        unreachable!("control enters blocks at their headers")
    };
    counts[count as usize] += 1;
    charge(code, pc + 1, cost, true, ri, rd, io, left)?;
    Ok(pc + 1)
}

/// Charges the `cost` steps of the segment at `pc` (a block's start if
/// `entry`), or, if they do not all fit, runs the operations that do and
/// stops.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn charge(
    code: &Code,
    pc: usize,
    cost: u32,
    entry: bool,
    ri: &mut [i32],
    rd: &mut [f64],
    io: &mut Io,
    left: &mut u64,
) -> Result<(), Trap> {
    match left.checked_sub(u64::from(cost)) {
        Some(l) => {
            *left = l;
            Ok(())
        }
        None => Err(starve(code, pc, entry, ri, rd, io, *left)),
    }
}

/// The segment at `pc` costs more than the `left` steps: runs the
/// operations the budget covers (one of which may fault), then runs out.
/// They are all straight-line: the segment's call, `Br` or return would
/// be charged after them.
#[cold]
fn starve(
    code: &Code,
    pc: usize,
    entry: bool,
    ri: &mut [i32],
    rd: &mut [f64],
    io: &mut Io,
    left: u64,
) -> Trap {
    let Some(covered) = left.checked_sub(u64::from(entry)) else {
        return Trap::OutOfFuel;
    };
    for op in code.ops[pc..]
        .iter()
        .take(usize::try_from(covered).unwrap_or(usize::MAX))
    {
        match exec(op, ri, rd, io) {
            Ok(Flow::Next) => {}
            Ok(_) => unreachable!("a segment's budget ends before its control transfer"),
            Err(t) => return t,
        }
    }
    Trap::OutOfFuel
}

#[inline(always)]
fn exec(op: &Op, ri: &mut [i32], rd: &mut [f64], io: &mut Io) -> Result<Flow, Trap> {
    let i = |r: u32| r as usize;
    match *op {
        Op::Add(d, a, b) => ri[i(d)] = ri[i(a)].wrapping_add(ri[i(b)]),
        Op::Sub(d, a, b) => ri[i(d)] = ri[i(a)].wrapping_sub(ri[i(b)]),
        Op::And(d, a, b) => ri[i(d)] = ri[i(a)] & ri[i(b)],
        Op::Or(d, a, b) => ri[i(d)] = ri[i(a)] | ri[i(b)],
        Op::Xor(d, a, b) => ri[i(d)] = ri[i(a)] ^ ri[i(b)],
        Op::Nor(d, a, b) => ri[i(d)] = !(ri[i(a)] | ri[i(b)]),
        Op::Sll(d, a, b) => ri[i(d)] = ri[i(a)].wrapping_shl(ri[i(b)] as u32 & 31),
        Op::Srl(d, a, b) => {
            ri[i(d)] = (ri[i(a)] as u32).wrapping_shr(ri[i(b)] as u32 & 31) as i32;
        }
        Op::Sra(d, a, b) => ri[i(d)] = ri[i(a)].wrapping_shr(ri[i(b)] as u32 & 31),
        Op::Slt(d, a, b) => ri[i(d)] = i32::from(ri[i(a)] < ri[i(b)]),
        Op::Sltu(d, a, b) => ri[i(d)] = i32::from((ri[i(a)] as u32) < (ri[i(b)] as u32)),
        Op::Mul(d, a, b) => ri[i(d)] = ri[i(a)].wrapping_mul(ri[i(b)]),
        Op::Div(d, a, b) => {
            let r = ri[i(b)];
            if r == 0 {
                return Err(Trap::DivByZero);
            }
            ri[i(d)] = ri[i(a)].wrapping_div(r);
        }
        Op::Rem(d, a, b) => {
            let r = ri[i(b)];
            if r == 0 {
                return Err(Trap::DivByZero);
            }
            ri[i(d)] = ri[i(a)].wrapping_rem(r);
        }
        Op::FAdd(d, a, b) => rd[i(d)] = rd[i(a)] + rd[i(b)],
        Op::FSub(d, a, b) => rd[i(d)] = rd[i(a)] - rd[i(b)],
        Op::FMul(d, a, b) => rd[i(d)] = rd[i(a)] * rd[i(b)],
        Op::FDiv(d, a, b) => rd[i(d)] = rd[i(a)] / rd[i(b)],
        Op::FCeq(d, a, b) => ri[i(d)] = i32::from(rd[i(a)] == rd[i(b)]),
        Op::FClt(d, a, b) => ri[i(d)] = i32::from(rd[i(a)] < rd[i(b)]),
        Op::FCle(d, a, b) => ri[i(d)] = i32::from(rd[i(a)] <= rd[i(b)]),
        Op::Li(d, imm) => ri[i(d)] = imm,
        Op::LiD(d, val) => rd[i(d)] = val,
        Op::Mov(d, a) => ri[i(d)] = ri[i(a)],
        Op::MovD(d, a) => rd[i(d)] = rd[i(a)],
        Op::IntToDouble(d, a) => rd[i(d)] = f64::from(ri[i(a)]),
        Op::DoubleToInt(d, a) => ri[i(d)] = rd[i(a)] as i32,
        Op::Lb(d, b, off) => {
            let [v] = io.load(ri[i(b)], off)?;
            ri[i(d)] = i32::from(v as i8);
        }
        Op::Lbu(d, b, off) => {
            let [v] = io.load(ri[i(b)], off)?;
            ri[i(d)] = i32::from(v);
        }
        Op::Lw(d, b, off) => ri[i(d)] = i32::from_le_bytes(io.load(ri[i(b)], off)?),
        Op::Ld(d, b, off) => rd[i(d)] = f64::from_le_bytes(io.load(ri[i(b)], off)?),
        Op::Sb(v, b, off) => io.store(ri[i(b)], off, [ri[i(v)] as u8])?,
        Op::Sw(v, b, off) => io.store(ri[i(b)], off, ri[i(v)].to_le_bytes())?,
        Op::Sd(v, b, off) => io.store(ri[i(b)], off, rd[i(v)].to_le_bytes())?,
        Op::Print(a) => io.output.push_str(&fpa_isa::hostio::fmt_int(ri[i(a)])),
        Op::PrintChar(a) => io.output.push_str(&fpa_isa::hostio::fmt_char(ri[i(a)])),
        Op::PrintDouble(a) => io.output.push_str(&fpa_isa::hostio::fmt_double(rd[i(a)])),
        Op::Block(..) => unreachable!("block headers are entered, not executed"),
        Op::Jump(b) => return Ok(Flow::Block(b)),
        Op::Br(c, nonzero, zero) => {
            return Ok(Flow::Block(if ri[i(c)] != 0 { nonzero } else { zero }))
        }
        Op::Call(site) => return Ok(Flow::Call(site)),
        Op::RetInt(v) => return Ok(Flow::Ret(Ret::Int(ri[i(v)]))),
        Op::RetDouble(v) => return Ok(Flow::Ret(Ret::Double(rd[i(v)]))),
        Op::RetVoid => return Ok(Flow::Ret(Ret::Void)),
    }
    Ok(Flow::Next)
}

impl Io {
    /// The data-segment byte range an `N`-byte access at `base + off`
    /// touches.
    fn range<const N: usize>(&self, base: i32, off: i32) -> Result<std::ops::Range<usize>, Trap> {
        let addr = base.wrapping_add(off) as u32;
        let lo = addr.wrapping_sub(Module::DATA_BASE) as usize;
        if addr < Module::DATA_BASE || lo + N > self.mem.len() {
            return Err(Trap::BadAddress(addr));
        }
        Ok(lo..lo + N)
    }

    fn load<const N: usize>(&self, base: i32, off: i32) -> Result<[u8; N], Trap> {
        let r = self.range::<N>(base, off)?;
        Ok(self.mem[r].try_into().expect("range is N bytes"))
    }

    fn store<const N: usize>(&mut self, base: i32, off: i32, bytes: [u8; N]) -> Result<(), Trap> {
        let r = self.range::<N>(base, off)?;
        self.mem[r].copy_from_slice(&bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::func::Module;

    fn run(m: &Module) -> (ExecOutcome, Profile) {
        Interp::new(m).run().expect("interp failed")
    }

    fn module(funcs: Vec<Function>) -> Module {
        let mut m = Module::new();
        m.funcs = funcs;
        m.assign_addresses();
        m
    }

    /// Steps a successful run charged: one per block entry plus one per
    /// instruction executed.
    fn steps(out: &ExecOutcome, prof: &Profile) -> u64 {
        out.dynamic_insts + prof.raw_counts().iter().flatten().sum::<u64>()
    }

    /// The least budget `m` runs on, checked from both sides: it succeeds
    /// with `N` steps and runs out with every budget below `N`.
    fn exact_fuel(m: &Module) -> u64 {
        let (out, prof) = run(m);
        let n = steps(&out, &prof);
        let exact = Interp::new(m).with_fuel(n).run().expect("exact budget");
        assert_eq!(exact, (out, prof));
        for short in 0..n {
            let err = Interp::new(m).with_fuel(short).run().unwrap_err();
            assert_eq!(err, InterpError::OutOfFuel, "budget {short} of {n}");
        }
        n
    }

    /// sum 0..10 through a loop, print, return.
    fn loop_module() -> Module {
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let entry = b.block();
        let header = b.block();
        let body = b.block();
        let exit = b.block();
        b.switch_to(entry);
        let i = b.li(0);
        let sum = b.li(0);
        b.jump(header);
        b.switch_to(header);
        let cond = b.bin_imm(BinOp::Slt, i, 10);
        b.br(cond, body, exit);
        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, sum, i);
        b.mov_to(sum, s2);
        let i2 = b.bin_imm(BinOp::Add, i, 1);
        b.mov_to(i, i2);
        b.jump(header);
        b.switch_to(exit);
        b.print(sum);
        b.ret(Some(sum));
        module(vec![b.finish()])
    }

    /// `main` calls `name` (a void function of no arguments, built by
    /// `body` into its single block), then prints 1 and returns it.
    fn call_module(name: &str, globals: u32, body: impl FnOnce(&mut FunctionBuilder)) -> Module {
        let mut m = Module::new();
        for g in 0..globals {
            m.add_global(format!("g{g}"), 8, vec![]);
        }
        let mut cb = FunctionBuilder::new(name, None);
        let e = cb.block();
        cb.switch_to(e);
        body(&mut cb);
        cb.ret(None);
        m.funcs.push(cb.finish());
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        b.call(FuncId::new(0), vec![], None);
        let one = b.li(1);
        b.print(one);
        b.ret(Some(one));
        m.funcs.push(b.finish());
        m.assign_addresses();
        m
    }

    /// `main` returning `op(l, r)`, with `r` a register or, where the
    /// operator has one, an immediate.
    fn eval_bin(op: BinOp, l: i32, r: i32, imm: bool) -> Result<i32, InterpError> {
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let x = b.li(l);
        let d = if imm {
            b.bin_imm(op, x, r)
        } else {
            let y = b.li(r);
            b.bin(op, x, y)
        };
        b.ret(Some(d));
        Interp::new(&module(vec![b.finish()]))
            .run()
            .map(|(out, _)| out.exit_code)
    }

    #[test]
    fn loop_sums_and_profiles() {
        let m = loop_module();
        let (out, prof) = run(&m);
        assert_eq!(out.exit_code, 45);
        assert_eq!(out.output, "45\n");
        let f = m.func_id("main").unwrap();
        assert_eq!(prof.count(f, BlockId::new(0)), 1);
        assert_eq!(prof.count(f, BlockId::new(1)), 11); // header: 10 iters + exit test
        assert_eq!(prof.count(f, BlockId::new(2)), 10);
        assert_eq!(prof.count(f, BlockId::new(3)), 1);
        assert!(prof.covered(f));
    }

    #[test]
    fn memory_round_trip() {
        let mut m = Module::new();
        let g = m.add_global("cell", 8, vec![]);
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let base = b.la(g);
        let x = b.li(-7);
        b.store(x, base, 0, MemWidth::Word);
        let y = b.load(base, 0, MemWidth::Word);
        b.print(y);
        b.ret(Some(y));
        m.funcs.push(b.finish());
        m.assign_addresses();
        let (out, _) = run(&m);
        assert_eq!(out.exit_code, -7);
        assert_eq!(out.output, "-7\n");
        // The word is visible in the final memory image.
        let addr = (m.globals[0].addr - Module::DATA_BASE) as usize;
        assert_eq!(
            i32::from_le_bytes(out.memory[addr..addr + 4].try_into().unwrap()),
            -7
        );
    }

    #[test]
    fn byte_accesses_sign_and_zero_extend() {
        let mut m = Module::new();
        let g = m.add_global("b", 1, vec![0xFF]);
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let base = b.la(g);
        let s = b.load(base, 0, MemWidth::Byte);
        let u = b.load(base, 0, MemWidth::ByteU);
        b.print(s);
        b.print(u);
        let r = b.li(0);
        b.ret(Some(r));
        m.funcs.push(b.finish());
        m.assign_addresses();
        let (out, _) = run(&m);
        assert_eq!(out.output, "-1\n255\n");
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("double_it", Some(Ty::Int));
        let p = cb.param(Ty::Int);
        let e = cb.block();
        cb.switch_to(e);
        let two = cb.li(2);
        let r = cb.bin(BinOp::Mul, p, two);
        cb.ret(Some(r));
        m.funcs.push(cb.finish());

        let callee = m.func_id("double_it").unwrap();
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let x = b.li(21);
        let y = b.call(callee, vec![x], Some(Ty::Int)).unwrap();
        b.print(y);
        b.ret(Some(y));
        m.funcs.push(b.finish());
        m.assign_addresses();
        let (out, prof) = run(&m);
        assert_eq!(out.exit_code, 42);
        assert!(prof.covered(callee));
    }

    #[test]
    fn void_main_exits_zero_with_a_callees_store() {
        let mut m = Module::new();
        let g = m.add_global("cell", 8, vec![]);
        let mut cb = FunctionBuilder::new("fill", None);
        let e = cb.block();
        cb.switch_to(e);
        let base = cb.la(g);
        let v = cb.li(0x0102_0304);
        cb.store(v, base, 4, MemWidth::Word);
        cb.ret(None);
        m.funcs.push(cb.finish());
        let mut b = FunctionBuilder::new("main", None);
        let e = b.block();
        b.switch_to(e);
        b.call(FuncId::new(0), vec![], None);
        b.ret(None);
        m.funcs.push(b.finish());
        m.assign_addresses();
        let (out, _) = run(&m);
        assert_eq!(out.exit_code, 0);
        let at = (m.globals[0].addr - Module::DATA_BASE) as usize + 4;
        assert_eq!(out.memory[at..at + 4], 0x0102_0304i32.to_le_bytes());
    }

    #[test]
    fn division_by_zero_reported() {
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let x = b.li(1);
        let z = b.li(0);
        let d = b.bin(BinOp::Div, x, z);
        b.ret(Some(d));
        let err = Interp::new(&module(vec![b.finish()])).run().unwrap_err();
        assert!(matches!(err, InterpError::DivByZero { .. }));

        // Inside a callee the fault names the callee, and it wins over a
        // budget that covers the faulting instruction: main's entry,
        // the call, the callee's entry and its three instructions before
        // the division take 6 steps, the division the 7th.
        let m = call_module("divide", 0, |b| {
            let x = b.li(1);
            let z = b.li(0);
            b.print(x);
            b.bin(BinOp::Rem, x, z);
        });
        let in_callee = InterpError::DivByZero {
            func: "divide".into(),
        };
        assert_eq!(Interp::new(&m).run().unwrap_err(), in_callee);
        assert_eq!(Interp::new(&m).with_fuel(7).run().unwrap_err(), in_callee);
        assert_eq!(
            Interp::new(&m).with_fuel(6).run().unwrap_err(),
            InterpError::OutOfFuel
        );
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        // A jump-only self-loop executes zero instructions per iteration;
        // block transitions are charged, so it still exhausts the budget.
        let mut b = FunctionBuilder::new("main", None);
        let e = b.block();
        b.switch_to(e);
        b.jump(e);
        let err = Interp::new(&module(vec![b.finish()]))
            .with_fuel(1000)
            .run()
            .unwrap_err();
        assert_eq!(err, InterpError::OutOfFuel);
    }

    #[test]
    fn fuel_limits_branch_loops() {
        let mut b = FunctionBuilder::new("main", None);
        let e = b.block();
        b.switch_to(e);
        let one = b.li(1);
        b.br(one, e, e);
        let err = Interp::new(&module(vec![b.finish()]))
            .with_fuel(1000)
            .run()
            .unwrap_err();
        assert_eq!(err, InterpError::OutOfFuel);

        // 23 block entries, 62 instructions, 11 branches and a return.
        assert_eq!(exact_fuel(&loop_module()), 89);
    }

    #[test]
    fn fuel_limits_reach_into_callees() {
        // Most of the run is the callee's loop, so most short budgets
        // run out inside it; main's return is the last step.
        let mut m = loop_module();
        m.funcs[0].name = "sum".into();
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let s = b.call(FuncId::new(0), vec![], Some(Ty::Int)).unwrap();
        let t = b.bin_imm(BinOp::Add, s, 1);
        b.ret(Some(t));
        m.funcs.push(b.finish());
        // main: entry, call, add, return; sum: 89 as in the loop above.
        assert_eq!(exact_fuel(&m), 4 + 89);
        assert_eq!(run(&m).0.exit_code, 46);
    }

    #[test]
    fn recursion_depth_limit() {
        // down(n) = n == 0 ? 0 : down(n - 1): main plus n + 1 frames.
        let mut f = FunctionBuilder::new("down", Some(Ty::Int));
        let n = f.param(Ty::Int);
        let entry = f.block();
        let base = f.block();
        let step = f.block();
        f.switch_to(entry);
        f.br(n, step, base);
        f.switch_to(base);
        f.ret(Some(n));
        f.switch_to(step);
        let m1 = f.bin_imm(BinOp::Add, n, -1);
        let r = f.call(FuncId::new(0), vec![m1], Some(Ty::Int)).unwrap();
        f.ret(Some(r));
        let down = f.finish();
        let deep = |n: i32| {
            let mut b = FunctionBuilder::new("main", Some(Ty::Int));
            let e = b.block();
            b.switch_to(e);
            let x = b.li(n);
            let r = b.call(FuncId::new(0), vec![x], Some(Ty::Int)).unwrap();
            b.ret(Some(r));
            Interp::new(&module(vec![down.clone(), b.finish()])).run()
        };
        let limit = DEPTH_LIMIT as i32;
        assert_eq!(deep(limit - 2).unwrap().0.exit_code, 0);
        assert_eq!(deep(limit - 1).unwrap_err(), InterpError::StackOverflow);
    }

    #[test]
    fn bad_address_reported() {
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let bad = b.li(4); // below DATA_BASE
        let v = b.load(bad, 0, MemWidth::Word);
        b.ret(Some(v));
        let err = Interp::new(&module(vec![b.finish()])).run().unwrap_err();
        assert!(matches!(err, InterpError::BadAddress { addr: 4, .. }));

        // A store one byte past the data segment, inside a callee.
        let m = call_module("poke", 1, |b| {
            let base = b.la(0);
            let v = b.li(1);
            b.store(v, base, 5, MemWidth::Word);
        });
        let end = m.globals[0].addr + 8;
        assert_eq!(
            Interp::new(&m).run().unwrap_err(),
            InterpError::BadAddress {
                addr: end - 3,
                func: "poke".into()
            }
        );
    }

    #[test]
    fn missing_main_reported() {
        let m = Module::new();
        assert_eq!(Interp::new(&m).run().unwrap_err(), InterpError::MissingMain);
    }

    #[test]
    fn double_arithmetic_and_print() {
        let mut b = FunctionBuilder::new("main", Some(Ty::Int));
        let e = b.block();
        b.switch_to(e);
        let a = b.lid(1.5);
        let c = b.lid(2.25);
        let s = b.bin(BinOp::FAdd, a, c);
        b.print_double(s);
        let lt = b.bin(BinOp::FClt, a, c);
        b.print(lt);
        let r = b.li(0);
        b.ret(Some(r));
        let (out, _) = run(&module(vec![b.finish()]));
        assert_eq!(out.output, "3.750000\n1\n");
    }

    #[test]
    fn eval_bin_corner_cases() {
        use BinOp::*;
        let cases = [
            (Add, i32::MAX, 1, i32::MIN),
            (Sll, 1, 33, 2),
            (Srl, -1, 28, 0xF),
            (Sra, -8, 2, -2),
            (Sltu, -1, 1, 0),
            (Div, i32::MIN, -1, i32::MIN),
            (Rem, i32::MIN, -1, 0),
            (Nor, 0, 0, -1),
        ];
        for (op, l, r, want) in cases {
            assert_eq!(eval_bin(op, l, r, false), Ok(want), "{op} {l} {r}");
            if op.has_imm_form() {
                assert_eq!(eval_bin(op, l, r, true), Ok(want), "{op} {l} imm {r}");
            }
        }
        assert!(matches!(
            eval_bin(Div, 5, 0, false),
            Err(InterpError::DivByZero { .. })
        ));
    }
}
