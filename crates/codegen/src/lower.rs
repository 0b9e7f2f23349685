//! Lowering of partitioned IR to machine code.
//!
//! The partition assignment drives instruction selection: FPa-side integer
//! ALU operations become `*A` opcodes on floating-point registers,
//! FPa-side branch conditions become `beqz,a`/`bnez,a`, and loads/stores
//! pick `lw`/`l.w` (`sw`/`s.w`) according to the *home file* of the value
//! register. Whenever a definition or use crosses register files, codegen
//! inserts the mandatory `cp_to_fpa`/`cp_to_int` — the same copies a
//! conventional compiler needs at integer/floating-point boundaries.
//!
//! Calling convention (simplified o32): first four `int` arguments in
//! `$4..=$7`, first four `double` arguments in `$f12..=$f15`, the rest in
//! 8-byte stack slots at the bottom of the caller's frame; `int` results
//! in `$2`, `double` results in `$f0`; **callee saves every allocatable
//! register it uses** plus `$31`. Uniform callee-saving keeps conventional
//! and partitioned builds directly comparable.

use crate::regalloc::{allocate, Allocation, Location};
use fpa_ir::{
    BinOp, BlockId, CvtKind, FuncId, Function, Inst, MemWidth, Module, Terminator, Ty, VReg,
};
use fpa_isa::{FpReg, Inst as MInst, IntReg, Op, Program, Reg, Subsystem, Symbol, SymbolKind};
use fpa_partition::Assignment;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Program points for live-interval construction: parameters live at point
/// 0; each instruction and each terminator occupies one point, blocks laid
/// out in index order.
#[derive(Debug, Clone)]
pub struct LinePoints {
    ranges: Vec<(u32, u32)>,
}

impl LinePoints {
    /// `(first, last)` points of block `b` (terminator included).
    #[must_use]
    pub fn block_range(&self, b: BlockId) -> (u32, u32) {
        self.ranges[b.index()]
    }
}

/// Computes the program-point numbering used by the register allocator.
#[must_use]
pub fn line_points(func: &Function) -> LinePoints {
    let mut cur = 1u32;
    let mut ranges = Vec::with_capacity(func.blocks.len());
    for b in func.block_ids() {
        let start = cur;
        cur += func.block(b).insts.len() as u32;
        let term = cur;
        cur += 1;
        ranges.push((start, term));
    }
    LinePoints { ranges }
}

/// Wall-clock cost of the two backend stages of one `compile_module` run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodegenTimings {
    /// Time spent in register allocation (live intervals + linear scan).
    pub regalloc: Duration,
    /// Everything else: selection, emission, fixups, peephole, validation.
    pub emit: Duration,
}

/// Compiles a whole module against a partition assignment.
///
/// The entry stub at pc 0 calls `main` and halts with its return value.
///
/// # Panics
///
/// Panics if the module has no `main` function or the assignment does not
/// match the module shape.
#[must_use]
pub fn compile_module(module: &Module, assignment: &Assignment) -> Program {
    compile_module_timed(module, assignment).0
}

/// [`compile_module`] plus per-stage wall-clock timings.
///
/// # Panics
///
/// Panics under the same conditions as [`compile_module`].
#[must_use]
pub fn compile_module_timed(module: &Module, assignment: &Assignment) -> (Program, CodegenTimings) {
    assert_eq!(
        module.funcs.len(),
        assignment.funcs.len(),
        "assignment/module mismatch"
    );
    let main = module.func_id("main").expect("module must define `main`");
    let backend_start = Instant::now();
    let mut regalloc_time = Duration::ZERO;

    let mut prog = Program::new();
    let mut pool = ConstPool::new(module);

    // Entry stub.
    prog.code.push(MInst::call(0)); // patched to main's entry below
    prog.code.push(MInst {
        op: Op::Halt,
        rd: None,
        rs: Some(IntReg::V0.into()),
        rt: None,
        imm: 0,
        target: 0,
    });

    let mut func_entry = vec![0u32; module.funcs.len()];
    let mut call_fixups: Vec<(usize, FuncId)> = Vec::new();
    for (fi, func) in module.funcs.iter().enumerate() {
        let base = prog.code.len() as u32;
        func_entry[fi] = base;
        prog.symbols.push(Symbol {
            pc: base,
            name: func.name.clone(),
            kind: SymbolKind::Function,
        });
        let fa = &assignment.funcs[fi];
        let global_addrs: Vec<u32> = module.globals.iter().map(|g| g.addr).collect();
        // `FuncEmitter::new` runs the register allocator; everything after
        // it is emission.
        let ra_start = Instant::now();
        let mut em = FuncEmitter::new(func, fa, &mut pool, &global_addrs);
        regalloc_time += ra_start.elapsed();
        em.emit();
        prog.code.extend(em.code.iter().cloned());
        // Relocate block labels and branches to global pcs.
        for (local_pc, target_block) in &em.branch_fixups {
            let t = em.block_pc[target_block.index()] + base;
            prog.code[base as usize + local_pc].target = t;
        }
        for (local_pc, callee) in &em.call_fixups {
            call_fixups.push((base as usize + local_pc, *callee));
        }
        for (b, pc) in em.block_pc.iter().enumerate() {
            prog.symbols.push(Symbol {
                pc: base + pc,
                name: format!("{}.bb{b}", func.name),
                kind: SymbolKind::Block,
            });
        }
    }
    for (pc, callee) in call_fixups {
        prog.code[pc].target = func_entry[callee.index()];
    }
    prog.code[0].target = func_entry[main.index()];
    prog.entry = 0;

    // Data segment: module globals plus the double-constant pool.
    for g in &module.globals {
        prog.data.push(fpa_isa::DataItem {
            addr: g.addr,
            bytes: {
                let mut b = g.init.clone();
                b.resize(g.size as usize, 0);
                b
            },
            name: g.name.clone(),
        });
    }
    prog.data.extend(pool.items());
    crate::peephole::peephole(&mut prog);
    prog.validate().expect("generated program must validate");
    let emit = backend_start.elapsed().saturating_sub(regalloc_time);
    (
        prog,
        CodegenTimings {
            regalloc: regalloc_time,
            emit,
        },
    )
}

/// Pool of 64-bit floating-point constants materialized in the data
/// segment (`li` + `l.d` pairs load them).
struct ConstPool {
    next_addr: u32,
    by_bits: BTreeMap<u64, u32>,
}

impl ConstPool {
    fn new(module: &Module) -> ConstPool {
        let end = module
            .globals
            .iter()
            .map(|g| g.addr + g.size)
            .max()
            .unwrap_or(Module::DATA_BASE);
        ConstPool {
            next_addr: (end + 7) & !7,
            by_bits: BTreeMap::new(),
        }
    }

    fn addr_of(&mut self, value: f64) -> u32 {
        let bits = value.to_bits();
        if let Some(&a) = self.by_bits.get(&bits) {
            return a;
        }
        let a = self.next_addr;
        self.next_addr += 8;
        self.by_bits.insert(bits, a);
        a
    }

    fn items(&self) -> Vec<fpa_isa::DataItem> {
        self.by_bits
            .iter()
            .map(|(bits, addr)| fpa_isa::DataItem {
                addr: *addr,
                bytes: bits.to_le_bytes().to_vec(),
                name: format!("fconst_{addr:x}"),
            })
            .collect()
    }
}

/// Where an argument is passed.
enum ArgLoc {
    IntReg(IntReg),
    FpReg(FpReg),
    Stack(u32),
}

/// Computes argument locations for a list of argument types.
fn arg_locations(tys: &[Ty]) -> Vec<ArgLoc> {
    let mut next_int = 0usize;
    let mut next_fp = 0usize;
    let mut next_stack = 0u32;
    tys.iter()
        .map(|ty| match ty {
            Ty::Int if next_int < 4 => {
                let r = IntReg::args()[next_int];
                next_int += 1;
                ArgLoc::IntReg(r)
            }
            Ty::Double if next_fp < 4 => {
                let r = FpReg::args()[next_fp];
                next_fp += 1;
                ArgLoc::FpReg(r)
            }
            _ => {
                let s = next_stack;
                next_stack += 8;
                ArgLoc::Stack(s)
            }
        })
        .collect()
}

/// Bytes of outgoing-argument area a function needs.
fn outgoing_area(func: &Function) -> u32 {
    let mut max = 0u32;
    for (_, inst) in func.insts() {
        if let Inst::Call { args, .. } = inst {
            let tys: Vec<Ty> = args.iter().map(|a| func.vreg_ty(*a)).collect();
            let stack_bytes = arg_locations(&tys)
                .iter()
                .filter(|l| matches!(l, ArgLoc::Stack(_)))
                .count() as u32
                * 8;
            max = max.max(stack_bytes);
        }
    }
    max
}

struct FuncEmitter<'a> {
    func: &'a Function,
    fa: &'a fpa_partition::FuncAssignment,
    alloc: Allocation,
    pool: &'a mut ConstPool,
    global_addrs: &'a [u32],
    code: Vec<MInst>,
    block_pc: Vec<u32>,
    branch_fixups: Vec<(usize, BlockId)>,
    call_fixups: Vec<(usize, FuncId)>,
    out_area: u32,
    frame_size: u32,
    saves: Vec<Reg>,
}

impl<'a> FuncEmitter<'a> {
    fn new(
        func: &'a Function,
        fa: &'a fpa_partition::FuncAssignment,
        pool: &'a mut ConstPool,
        global_addrs: &'a [u32],
    ) -> FuncEmitter<'a> {
        let alloc = allocate(func, &fa.vreg_side);
        let out_area = outgoing_area(func);
        let mut saves = alloc.used_callee_saved.clone();
        if alloc.makes_calls {
            saves.push(Reg::Int(IntReg::RA));
        }
        let spill_bytes = alloc.num_slots * 8;
        let save_bytes = saves.len() as u32 * 8;
        let frame_size = (out_area + spill_bytes + save_bytes + 7) & !7;
        FuncEmitter {
            func,
            fa,
            alloc,
            pool,
            code: Vec::new(),
            block_pc: vec![0; func.blocks.len()],
            branch_fixups: Vec::new(),
            call_fixups: Vec::new(),
            out_area,
            frame_size,
            saves,
            global_addrs,
        }
    }

    fn slot_offset(&self, slot: u32) -> i32 {
        (self.out_area + slot * 8) as i32
    }

    fn save_offset(&self, k: usize) -> i32 {
        (self.out_area + self.alloc.num_slots * 8 + k as u32 * 8) as i32
    }

    fn push(&mut self, i: MInst) {
        self.code.push(i);
    }

    fn home(&self, v: VReg) -> Subsystem {
        self.fa.vreg_side[v.index()]
    }

    /// Materializes `v` in the given file, using scratch pair `idx`
    /// (0 or 1) when a load or cross-file copy is needed.
    fn read(&mut self, v: VReg, file: Subsystem, idx: usize) -> Reg {
        let int_scratch = [IntReg::AT, IntReg::AT2][idx];
        let fp_scratch = [FpReg::FV0, FpReg::AT][idx];
        let home = self.home(v);
        let is_double = self.func.vreg_ty(v) == Ty::Double;
        // First get the value into a home-file register.
        let home_reg: Reg = match self.alloc.loc(v) {
            Location::Reg(r) => r,
            Location::Slot(s) => {
                let off = self.slot_offset(s);
                match home {
                    Subsystem::Int => {
                        self.push(MInst::load(Op::Lw, int_scratch.into(), IntReg::SP, off));
                        int_scratch.into()
                    }
                    Subsystem::Fp => {
                        let op = if is_double { Op::Ld } else { Op::Lwf };
                        self.push(MInst::load(op, fp_scratch.into(), IntReg::SP, off));
                        fp_scratch.into()
                    }
                }
            }
        };
        if home == file {
            return home_reg;
        }
        // Cross-file copy into the requested file's scratch.
        match file {
            Subsystem::Int => {
                self.push(MInst::unary(Op::CpToInt, int_scratch.into(), home_reg));
                int_scratch.into()
            }
            Subsystem::Fp => {
                self.push(MInst::unary(Op::CpToFpa, fp_scratch.into(), home_reg));
                fp_scratch.into()
            }
        }
    }

    /// A destination register in `file` for `v`, plus the flush sequence
    /// to run after the defining instruction.
    fn write(&mut self, v: VReg, file: Subsystem) -> (Reg, Vec<MInst>) {
        let home = self.home(v);
        let is_double = self.func.vreg_ty(v) == Ty::Double;
        let produce_scratch: Reg = match file {
            Subsystem::Int => IntReg::AT.into(),
            Subsystem::Fp => FpReg::FV0.into(),
        };
        match (self.alloc.loc(v), home == file) {
            (Location::Reg(r), true) => (r, vec![]),
            (Location::Reg(r), false) => {
                // Produce in `file`'s scratch, then copy across.
                let op = if file == Subsystem::Int {
                    Op::CpToFpa
                } else {
                    Op::CpToInt
                };
                (produce_scratch, vec![MInst::unary(op, r, produce_scratch)])
            }
            (Location::Slot(s), _) => {
                let off = self.slot_offset(s);
                let mut post = Vec::new();
                let stored_reg: Reg = if home == file {
                    produce_scratch
                } else {
                    // Cross to the home file first.
                    let (op, home_scratch): (Op, Reg) = match home {
                        Subsystem::Int => (Op::CpToInt, IntReg::AT.into()),
                        Subsystem::Fp => (Op::CpToFpa, FpReg::FV0.into()),
                    };
                    post.push(MInst::unary(op, home_scratch, produce_scratch));
                    home_scratch
                };
                let store = match home {
                    Subsystem::Int => MInst::store(Op::Sw, stored_reg, IntReg::SP, off),
                    Subsystem::Fp => {
                        let op = if is_double { Op::Sd } else { Op::Swf };
                        MInst::store(op, stored_reg, IntReg::SP, off)
                    }
                };
                post.push(store);
                (produce_scratch, post)
            }
        }
    }

    fn emit(&mut self) {
        self.prologue();
        let nblocks = self.func.blocks.len();
        for b in self.func.block_ids() {
            self.block_pc[b.index()] = self.code.len() as u32;
            for i in 0..self.func.block(b).insts.len() {
                let inst = self.func.block(b).insts[i].clone();
                self.lower_inst(&inst);
            }
            let term = self.func.block(b).term;
            let next = if b.index() + 1 < nblocks {
                Some(BlockId::new(b.index() as u32 + 1))
            } else {
                None
            };
            self.lower_term(&term, next);
        }
    }

    fn prologue(&mut self) {
        if self.frame_size > 0 {
            self.push(MInst::alu_imm(
                Op::Addi,
                IntReg::SP.into(),
                IntReg::SP.into(),
                -(self.frame_size as i32),
            ));
        }
        for (k, r) in self.saves.clone().into_iter().enumerate() {
            let off = self.save_offset(k);
            let store = match r {
                Reg::Int(_) => MInst::store(Op::Sw, r, IntReg::SP, off),
                Reg::Fp(_) => MInst::store(Op::Sd, r, IntReg::SP, off),
            };
            self.push(store);
        }
        // Bind parameters.
        let tys: Vec<Ty> = self
            .func
            .params
            .iter()
            .map(|p| self.func.vreg_ty(*p))
            .collect();
        let locs = arg_locations(&tys);
        for (p, loc) in self.func.params.clone().into_iter().zip(locs) {
            let src: Reg = match loc {
                ArgLoc::IntReg(r) => r.into(),
                ArgLoc::FpReg(r) => r.into(),
                ArgLoc::Stack(off) => {
                    // Incoming stack args sit just above our frame.
                    let off = (self.frame_size + off) as i32;
                    match self.func.vreg_ty(p) {
                        Ty::Int => {
                            self.push(MInst::load(Op::Lw, IntReg::AT.into(), IntReg::SP, off));
                            IntReg::AT.into()
                        }
                        Ty::Double => {
                            self.push(MInst::load(Op::Ld, FpReg::FV0.into(), IntReg::SP, off));
                            FpReg::FV0.into()
                        }
                    }
                }
            };
            self.store_reg_to_vreg(src, p);
        }
    }

    /// Moves an architectural register's value into a vreg's location.
    fn store_reg_to_vreg(&mut self, src: Reg, v: VReg) {
        let home = self.home(v);
        let file = if src.is_int() {
            Subsystem::Int
        } else {
            Subsystem::Fp
        };
        let (dst, post) = self.write(v, file);
        let mv = match (file, dst) {
            (Subsystem::Int, d) => MInst::unary(Op::Move, d, src),
            (Subsystem::Fp, d) => MInst::unary(Op::FmovD, d, src),
        };
        if !(dst == src && post.is_empty()) {
            self.push(mv);
        }
        for p in post {
            self.push(p);
        }
        let _ = home;
    }

    fn epilogue(&mut self, value: Option<VReg>) {
        if let Some(v) = value {
            match self.func.vreg_ty(v) {
                Ty::Int => {
                    let r = self.read(v, Subsystem::Int, 0);
                    self.push(MInst::unary(Op::Move, IntReg::V0.into(), r));
                }
                Ty::Double => {
                    let r = self.read(v, Subsystem::Fp, 1);
                    self.push(MInst::unary(Op::FmovD, FpReg::FV0.into(), r));
                }
            }
        }
        for (k, r) in self.saves.clone().into_iter().enumerate() {
            let off = self.save_offset(k);
            let load = match r {
                Reg::Int(_) => MInst::load(Op::Lw, r, IntReg::SP, off),
                Reg::Fp(_) => MInst::load(Op::Ld, r, IntReg::SP, off),
            };
            self.push(load);
        }
        if self.frame_size > 0 {
            self.push(MInst::alu_imm(
                Op::Addi,
                IntReg::SP.into(),
                IntReg::SP.into(),
                self.frame_size as i32,
            ));
        }
        self.push(MInst::jr(IntReg::RA));
    }

    fn side(&self, inst: &Inst) -> Subsystem {
        self.fa.side(inst.id())
    }

    fn lower_inst(&mut self, inst: &Inst) {
        match inst {
            Inst::Bin {
                dst, op, lhs, rhs, ..
            } => self.lower_bin(*dst, *op, *lhs, *rhs, inst),
            Inst::BinImm {
                dst, op, lhs, imm, ..
            } => {
                let fp_side = self.side(inst) == Subsystem::Fp;
                let mop = imm_op(*op, fp_side);
                let file = if fp_side {
                    Subsystem::Fp
                } else {
                    Subsystem::Int
                };
                let l = self.read(*lhs, file, 0);
                let (d, post) = self.write(*dst, file);
                self.push(MInst::alu_imm(mop, d, l, *imm));
                self.code.extend(post);
            }
            Inst::Li { dst, imm, .. } => {
                let file = self.home(*dst);
                let op = if file == Subsystem::Fp {
                    Op::LiA
                } else {
                    Op::Li
                };
                let (d, post) = self.write(*dst, file);
                self.push(MInst::li(op, d, *imm));
                self.code.extend(post);
            }
            Inst::LiD { dst, val, .. } => {
                let addr = self.pool.addr_of(*val);
                self.push(MInst::li(Op::Li, IntReg::AT.into(), addr as i32));
                let (d, post) = self.write(*dst, Subsystem::Fp);
                self.push(MInst::load(Op::Ld, d, IntReg::AT, 0));
                self.code.extend(post);
            }
            Inst::La { dst, global, .. } => {
                let addr = self.pool_global_addr(*global);
                let file = self.home(*dst);
                let op = if file == Subsystem::Fp {
                    Op::LiA
                } else {
                    Op::Li
                };
                let (d, post) = self.write(*dst, file);
                self.push(MInst::li(op, d, addr as i32));
                self.code.extend(post);
            }
            Inst::Move { dst, src, .. } | Inst::Copy { dst, src, .. } => {
                let dst_home = self.home(*dst);
                let s = self.read(*src, self.home(*src), 0);
                let (d, post) = self.write(*dst, dst_home);
                let mv = match (s.is_int(), dst_home) {
                    (true, Subsystem::Int) => MInst::unary(Op::Move, d, s),
                    (false, Subsystem::Fp) => MInst::unary(Op::FmovD, d, s),
                    (true, Subsystem::Fp) => MInst::unary(Op::CpToFpa, d, s),
                    (false, Subsystem::Int) => MInst::unary(Op::CpToInt, d, s),
                };
                self.push(mv);
                self.code.extend(post);
            }
            Inst::Cvt { dst, src, kind, .. } => match kind {
                CvtKind::IntToDouble => {
                    let s = self.read(*src, Subsystem::Fp, 0);
                    let (d, post) = self.write(*dst, Subsystem::Fp);
                    self.push(MInst::unary(Op::CvtDW, d, s));
                    self.code.extend(post);
                }
                CvtKind::DoubleToInt => {
                    let s = self.read(*src, Subsystem::Fp, 0);
                    let (d, post) = self.write(*dst, Subsystem::Fp);
                    self.push(MInst::unary(Op::CvtWD, d, s));
                    self.code.extend(post);
                }
            },
            Inst::Load {
                dst,
                base,
                offset,
                width,
                ..
            } => {
                let b = self.read(*base, Subsystem::Int, 0);
                let b = b.as_int().expect("base is integer");
                let (op, file) = match width {
                    MemWidth::Byte => (Op::Lb, Subsystem::Int),
                    MemWidth::ByteU => (Op::Lbu, Subsystem::Int),
                    MemWidth::Dword => (Op::Ld, Subsystem::Fp),
                    MemWidth::Word => {
                        if self.home(*dst) == Subsystem::Fp {
                            (Op::Lwf, Subsystem::Fp)
                        } else {
                            (Op::Lw, Subsystem::Int)
                        }
                    }
                };
                let (d, post) = self.write(*dst, file);
                self.push(MInst::load(op, d, b, *offset));
                self.code.extend(post);
            }
            Inst::Store {
                value,
                base,
                offset,
                width,
                ..
            } => {
                let b = self.read(*base, Subsystem::Int, 0);
                let b = b.as_int().expect("base is integer");
                let (op, file) = match width {
                    MemWidth::Byte | MemWidth::ByteU => (Op::Sb, Subsystem::Int),
                    MemWidth::Dword => (Op::Sd, Subsystem::Fp),
                    MemWidth::Word => {
                        if self.home(*value) == Subsystem::Fp {
                            (Op::Swf, Subsystem::Fp)
                        } else {
                            (Op::Sw, Subsystem::Int)
                        }
                    }
                };
                let v = self.read(*value, file, 1);
                self.push(MInst::store(op, v, b, *offset));
            }
            Inst::Call {
                callee, args, dst, ..
            } => self.lower_call(*callee, args, *dst),
            Inst::Print { src, .. } => {
                let r = self.read(*src, Subsystem::Int, 0);
                self.push(MInst {
                    op: Op::Print,
                    rd: None,
                    rs: Some(r),
                    rt: None,
                    imm: 0,
                    target: 0,
                });
            }
            Inst::PrintChar { src, .. } => {
                let r = self.read(*src, Subsystem::Int, 0);
                self.push(MInst {
                    op: Op::PrintChar,
                    rd: None,
                    rs: Some(r),
                    rt: None,
                    imm: 0,
                    target: 0,
                });
            }
            Inst::PrintDouble { src, .. } => {
                let r = self.read(*src, Subsystem::Fp, 0);
                self.push(MInst {
                    op: Op::PrintFp,
                    rd: None,
                    rs: Some(r),
                    rt: None,
                    imm: 0,
                    target: 0,
                });
            }
        }
    }

    fn lower_bin(&mut self, dst: VReg, op: BinOp, lhs: VReg, rhs: VReg, inst: &Inst) {
        if op.operand_ty() == Ty::Double {
            let mop = match op {
                BinOp::FAdd => Op::FaddD,
                BinOp::FSub => Op::FsubD,
                BinOp::FMul => Op::FmulD,
                BinOp::FDiv => Op::FdivD,
                BinOp::FCeq => Op::CeqD,
                BinOp::FClt => Op::CltD,
                BinOp::FCle => Op::CleD,
                _ => unreachable!(),
            };
            let l = self.read(lhs, Subsystem::Fp, 0);
            let r = self.read(rhs, Subsystem::Fp, 1);
            // All double ops produce in the FP file (compares produce an
            // integer 0/1 there; `write` copies across if dst is homed INT).
            let (d, post) = self.write(dst, Subsystem::Fp);
            self.push(MInst::alu(mop, d, l, r));
            self.code.extend(post);
            return;
        }
        let fp_side = self.side(inst) == Subsystem::Fp;
        debug_assert!(
            !(fp_side && matches!(op, BinOp::Mul | BinOp::Div | BinOp::Rem)),
            "mul/div must not be assigned to FPa"
        );
        let mop = reg_op(op, fp_side);
        let file = if fp_side {
            Subsystem::Fp
        } else {
            Subsystem::Int
        };
        let l = self.read(lhs, file, 0);
        let r = self.read(rhs, file, 1);
        let (d, post) = self.write(dst, file);
        self.push(MInst::alu(mop, d, l, r));
        self.code.extend(post);
    }

    fn lower_call(&mut self, callee: FuncId, args: &[VReg], dst: Option<VReg>) {
        let tys: Vec<Ty> = args.iter().map(|a| self.func.vreg_ty(*a)).collect();
        let locs = arg_locations(&tys);
        for (a, loc) in args.iter().zip(&locs) {
            match loc {
                ArgLoc::IntReg(r) => {
                    let s = self.read(*a, Subsystem::Int, 0);
                    self.push(MInst::unary(Op::Move, (*r).into(), s));
                }
                ArgLoc::FpReg(r) => {
                    let s = self.read(*a, Subsystem::Fp, 0);
                    self.push(MInst::unary(Op::FmovD, (*r).into(), s));
                }
                ArgLoc::Stack(off) => match self.func.vreg_ty(*a) {
                    Ty::Int => {
                        let s = self.read(*a, Subsystem::Int, 0);
                        self.push(MInst::store(Op::Sw, s, IntReg::SP, *off as i32));
                    }
                    Ty::Double => {
                        let s = self.read(*a, Subsystem::Fp, 0);
                        self.push(MInst::store(Op::Sd, s, IntReg::SP, *off as i32));
                    }
                },
            }
        }
        self.call_fixups.push((self.code.len(), callee));
        self.push(MInst::call(0));
        if let Some(d) = dst {
            match self.func.vreg_ty(d) {
                Ty::Int => self.store_reg_to_vreg(IntReg::V0.into(), d),
                Ty::Double => self.store_reg_to_vreg(FpReg::FV0.into(), d),
            }
        }
    }

    fn lower_term(&mut self, term: &Terminator, next: Option<BlockId>) {
        match term {
            Terminator::Jump { target } => {
                if Some(*target) != next {
                    self.branch_fixups.push((self.code.len(), *target));
                    self.push(MInst::jump(0));
                }
            }
            Terminator::Br {
                id,
                cond,
                nonzero,
                zero,
            } => {
                let fp_side = self.fa.side(*id) == Subsystem::Fp;
                let file = if fp_side {
                    Subsystem::Fp
                } else {
                    Subsystem::Int
                };
                let c = self.read(*cond, file, 0);
                let (bnez, beqz) = if fp_side {
                    (Op::BnezA, Op::BeqzA)
                } else {
                    (Op::Bnez, Op::Beqz)
                };
                if Some(*zero) == next {
                    self.branch_fixups.push((self.code.len(), *nonzero));
                    self.push(MInst::branch(bnez, c, 0));
                } else if Some(*nonzero) == next {
                    self.branch_fixups.push((self.code.len(), *zero));
                    self.push(MInst::branch(beqz, c, 0));
                } else {
                    self.branch_fixups.push((self.code.len(), *nonzero));
                    self.push(MInst::branch(bnez, c, 0));
                    self.branch_fixups.push((self.code.len(), *zero));
                    self.push(MInst::jump(0));
                }
            }
            Terminator::Ret { value, .. } => self.epilogue(*value),
        }
    }

    fn pool_global_addr(&self, global: u32) -> u32 {
        self.global_addrs[global as usize]
    }
}

/// Maps an integer BinOp to its register-form machine opcode.
fn reg_op(op: BinOp, fp_side: bool) -> Op {
    use BinOp::*;
    if fp_side {
        match op {
            Add => Op::AddA,
            Sub => Op::SubA,
            And => Op::AndA,
            Or => Op::OrA,
            Xor => Op::XorA,
            Sll => Op::SllA,
            Srl => Op::SrlA,
            Sra => Op::SraA,
            Slt => Op::SltA,
            Sltu => Op::SltuA,
            _ => unreachable!("{op} has no FPa register form"),
        }
    } else {
        match op {
            Add => Op::Add,
            Sub => Op::Sub,
            And => Op::And,
            Or => Op::Or,
            Xor => Op::Xor,
            Nor => Op::Nor,
            Sll => Op::Sll,
            Srl => Op::Srl,
            Sra => Op::Sra,
            Slt => Op::Slt,
            Sltu => Op::Sltu,
            Mul => Op::Mul,
            Div => Op::Div,
            Rem => Op::Rem,
            _ => unreachable!("double operator in integer lowering"),
        }
    }
}

/// Maps an integer BinOp to its immediate-form machine opcode.
fn imm_op(op: BinOp, fp_side: bool) -> Op {
    use BinOp::*;
    if fp_side {
        match op {
            Add => Op::AddiA,
            And => Op::AndiA,
            Or => Op::OriA,
            Xor => Op::XoriA,
            Slt => Op::SltiA,
            Sltu => Op::SltiuA,
            Sll => Op::SlliA,
            Srl => Op::SrliA,
            Sra => Op::SraiA,
            _ => unreachable!("{op} has no FPa immediate form"),
        }
    } else {
        match op {
            Add => Op::Addi,
            And => Op::Andi,
            Or => Op::Ori,
            Xor => Op::Xori,
            Slt => Op::Slti,
            Sltu => Op::Sltiu,
            Sll => Op::Slli,
            Srl => Op::Srli,
            Sra => Op::Srai,
            _ => unreachable!("{op} has no immediate form"),
        }
    }
}
