//! Semantic analysis and lowering from `zinc` AST to `fpa-ir`.
//!
//! Lowering choices that matter downstream:
//!
//! * Scalar locals and parameters become virtual registers with multiple
//!   (non-SSA) definitions — exactly the shape the paper's RDG construction
//!   expects (e.g. the `regno` induction variable of Figure 3 has a def
//!   outside the loop and one inside).
//! * Array indexing lowers to explicit shift + add address arithmetic, so
//!   the *LdSt slice* is visible to the partitioner.
//! * Local arrays get function-static storage (a uniquely named module
//!   global). This mirrors `static` C arrays; recursive functions must not
//!   rely on per-activation arrays.
//! * Comparisons in branch context fuse into compare+branch pairs
//!   (`slt` + `bnez`/`beqz`-polarity terminators); in value context they
//!   materialize 0/1 via `slt`/`sltu #1` idioms, as a MIPS compiler would.

use crate::ast::*;
use crate::parser::{parse, ParseError};
use crate::token::Pos;
use fpa_ir::{BinOp, BlockId, CvtKind, FuncId, FunctionBuilder, MemWidth, Module, Ty, VReg};
use std::collections::HashMap;
use std::fmt;

/// A semantic (lowering) error.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Where the error occurred.
    pub pos: Pos,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LowerError {}

/// Any front-end failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical or syntactic failure.
    Parse(ParseError),
    /// Semantic failure.
    Lower(LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => e.fmt(f),
            CompileError::Lower(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> CompileError {
        CompileError::Parse(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> CompileError {
        CompileError::Lower(e)
    }
}

/// Compiles `zinc` source text into an IR module (addresses assigned,
/// module verified).
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first problem found.
///
/// ```
/// let m = fpa_frontend::compile("int main() { print(2 + 3); return 0; }").unwrap();
/// let (out, _) = fpa_ir::Interp::new(&m).run().unwrap();
/// assert_eq!(out.output, "5\n");
/// ```
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let ast = parse(src)?;
    let mut module = lower(&ast)?;
    module.assign_addresses();
    fpa_ir::verify::verify_module(&module).map_err(|e| {
        CompileError::Lower(LowerError {
            pos: Pos { line: 0, col: 0 },
            message: format!("internal: generated invalid IR: {e}"),
        })
    })?;
    Ok(module)
}

fn err<T>(pos: Pos, message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        pos,
        message: message.into(),
    })
}

/// Lowers a parsed program to IR (addresses not yet assigned).
///
/// # Errors
///
/// Returns a [`LowerError`] on semantic problems (unknown names, type
/// mismatches, bad arity, …).
pub fn lower(prog: &Program) -> Result<Module, LowerError> {
    let mut module = Module::new();
    let mut globals: HashMap<String, (u32, DeclKind)> = HashMap::new();

    for g in &prog.globals {
        if globals.contains_key(&g.name) {
            return err(g.pos, format!("duplicate global `{}`", g.name));
        }
        let (size, init) = encode_global(g)?;
        let idx = add_global(&mut module, g.name.clone(), size, init, g.pos)?;
        globals.insert(g.name.clone(), (idx, g.kind.clone()));
    }

    // Declare all functions first so calls can be resolved in any order.
    let mut sigs: HashMap<String, (FuncId, Vec<ParamTy>, Option<ScalarTy>)> = HashMap::new();
    for (i, f) in prog.funcs.iter().enumerate() {
        if sigs.contains_key(&f.name) {
            return err(f.pos, format!("duplicate function `{}`", f.name));
        }
        if globals.contains_key(&f.name) {
            return err(f.pos, format!("`{}` is already a global", f.name));
        }
        let ptys = f.params.iter().map(|p| p.ty).collect();
        sigs.insert(f.name.clone(), (FuncId::new(i as u32), ptys, f.ret));
        // Reserve the slot; bodies are filled below in the same order.
        module.funcs.push(fpa_ir::Function::new(
            f.name.clone(),
            f.ret.map(scalar_to_ty),
        ));
    }

    for f in &prog.funcs {
        let lowered = FuncLower::new(&mut module, &globals, &sigs, f).lower()?;
        let id = sigs[&f.name].0;
        module.funcs[id.index()] = lowered;
    }
    Ok(module)
}

/// Adds a global of `size` bytes, rejecting any whose layout (8-byte
/// aligned after every earlier global, as [`Module::assign_addresses`]
/// places it) would end past [`Module::DATA_END`]. Sizes are `u64`, so
/// an array's element count times its element size cannot wrap.
fn add_global(
    module: &mut Module,
    name: String,
    size: u64,
    init: Vec<u8>,
    pos: Pos,
) -> Result<u32, LowerError> {
    let end = module
        .globals
        .iter()
        .map(|g| u64::from(g.size))
        .chain([size])
        .fold(u64::from(Module::DATA_BASE), |end, size| {
            end.next_multiple_of(8) + size
        });
    match u32::try_from(size) {
        Ok(size) if end <= u64::from(Module::DATA_END) => Ok(module.add_global(name, size, init)),
        _ => err(
            pos,
            format!(
                "`{name}` ends at {end:#x}, past the end of memory at {:#x}",
                Module::DATA_END
            ),
        ),
    }
}

fn scalar_to_ty(s: ScalarTy) -> Ty {
    match s {
        ScalarTy::Int => Ty::Int,
        ScalarTy::Double => Ty::Double,
    }
}

fn elem_width(e: ElemTy) -> MemWidth {
    match e {
        ElemTy::Byte => MemWidth::ByteU,
        ElemTy::Int => MemWidth::Word,
        ElemTy::Double => MemWidth::Dword,
    }
}

fn encode_global(g: &GlobalDecl) -> Result<(u64, Vec<u8>), LowerError> {
    let mut bytes = Vec::new();
    let push =
        |bytes: &mut Vec<u8>, elem: ElemTy, v: &InitVal, pos: Pos| -> Result<(), LowerError> {
            match (elem, v) {
                (ElemTy::Int, InitVal::Int(x)) => bytes.extend_from_slice(&x.to_le_bytes()),
                (ElemTy::Byte, InitVal::Int(x)) => bytes.push(*x as u8),
                (ElemTy::Double, InitVal::Double(x)) => {
                    bytes.extend_from_slice(&x.to_le_bytes());
                }
                (ElemTy::Double, InitVal::Int(x)) => {
                    bytes.extend_from_slice(&f64::from(*x).to_le_bytes());
                }
                _ => return err(pos, format!("initializer type mismatch for `{}`", g.name)),
            }
            Ok(())
        };
    match &g.kind {
        DeclKind::Scalar(s) => {
            let elem = match s {
                ScalarTy::Int => ElemTy::Int,
                ScalarTy::Double => ElemTy::Double,
            };
            if g.init.len() > 1 {
                return err(
                    g.pos,
                    format!("scalar `{}` has multiple initializers", g.name),
                );
            }
            for v in &g.init {
                push(&mut bytes, elem, v, g.pos)?;
            }
            Ok((u64::from(elem.size()), bytes))
        }
        DeclKind::Array(elem, len) => {
            if g.init.len() as u32 > *len {
                return err(g.pos, format!("too many initializers for `{}`", g.name));
            }
            for v in &g.init {
                push(&mut bytes, *elem, v, g.pos)?;
            }
            Ok((u64::from(elem.size()) * u64::from(*len), bytes))
        }
    }
}

/// How a name resolves inside a function.
#[derive(Debug, Clone, Copy)]
enum Sym {
    /// A scalar in a virtual register.
    Reg(VReg, ScalarTy),
    /// A scalar global (accessed through memory).
    GlobalScalar(u32, ScalarTy),
    /// A global array (including lowered local arrays).
    GlobalArray(u32, ElemTy),
    /// An array parameter: base address in a register.
    ParamArray(VReg, ElemTy),
}

/// The type of a lowered expression value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZTy {
    Int,
    Double,
    Array(ElemTy),
}

impl fmt::Display for ZTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZTy::Int => f.write_str("int"),
            ZTy::Double => f.write_str("double"),
            ZTy::Array(e) => write!(f, "{e:?}[]"),
        }
    }
}

struct FuncLower<'a> {
    module: &'a mut Module,
    globals: &'a HashMap<String, (u32, DeclKind)>,
    sigs: &'a HashMap<String, (FuncId, Vec<ParamTy>, Option<ScalarTy>)>,
    def: &'a FuncDef,
    b: FunctionBuilder,
    syms: HashMap<String, Sym>,
    /// (break target, continue target) stack.
    loop_stack: Vec<(BlockId, BlockId)>,
    /// Whether the insertion block is still open (no terminator yet).
    open: bool,
}

impl<'a> FuncLower<'a> {
    fn new(
        module: &'a mut Module,
        globals: &'a HashMap<String, (u32, DeclKind)>,
        sigs: &'a HashMap<String, (FuncId, Vec<ParamTy>, Option<ScalarTy>)>,
        def: &'a FuncDef,
    ) -> FuncLower<'a> {
        FuncLower {
            module,
            globals,
            sigs,
            def,
            b: FunctionBuilder::new(def.name.clone(), def.ret.map(scalar_to_ty)),
            syms: HashMap::new(),
            loop_stack: Vec::new(),
            open: false,
        }
    }

    fn lower(mut self) -> Result<fpa_ir::Function, LowerError> {
        for p in &self.def.params {
            let sym = match p.ty {
                ParamTy::Scalar(s) => Sym::Reg(self.b.param(scalar_to_ty(s)), s),
                ParamTy::Array(e) => Sym::ParamArray(self.b.param(Ty::Int), e),
            };
            if self.syms.insert(p.name.clone(), sym).is_some() {
                return err(self.def.pos, format!("duplicate parameter `{}`", p.name));
            }
        }
        let entry = self.b.block();
        self.b.switch_to(entry);
        self.open = true;

        for l in &self.def.locals {
            if self.syms.contains_key(&l.name) {
                return err(l.pos, format!("duplicate local `{}`", l.name));
            }
            match &l.kind {
                DeclKind::Scalar(s) => {
                    let v = self.b.vreg(scalar_to_ty(*s));
                    self.syms.insert(l.name.clone(), Sym::Reg(v, *s));
                    if let Some(init) = &l.init {
                        let (iv, ity) = self.expr(init)?;
                        let iv = self.coerce(iv, ity, *s, init.pos())?;
                        self.b.mov_to(v, iv);
                    }
                }
                DeclKind::Array(e, len) => {
                    if l.init.is_some() {
                        return err(l.pos, "array locals cannot have initializers");
                    }
                    let gname = format!("{}.{}", self.def.name, l.name);
                    let size = u64::from(e.size()) * u64::from(*len);
                    let idx = add_global(self.module, gname, size, Vec::new(), l.pos)?;
                    self.syms.insert(l.name.clone(), Sym::GlobalArray(idx, *e));
                }
            }
        }

        self.stmts(&self.def.body)?;

        if self.open {
            match self.def.ret {
                None => self.b.ret(None),
                Some(ScalarTy::Int) => {
                    let z = self.b.li(0);
                    self.b.ret(Some(z));
                }
                Some(ScalarTy::Double) => {
                    let z = self.b.lid(0.0);
                    self.b.ret(Some(z));
                }
            }
        }
        Ok(self.b.finish())
    }

    /// Opens a fresh (unreachable) block if the previous one was terminated,
    /// so statements after `return`/`break` still lower somewhere valid.
    fn ensure_open(&mut self) {
        if !self.open {
            let nb = self.b.block();
            self.b.switch_to(nb);
            self.open = true;
        }
    }

    fn jump(&mut self, target: BlockId) {
        self.b.jump(target);
        self.open = false;
    }

    fn branch(&mut self, cond: VReg, nonzero: BlockId, zero: BlockId) {
        self.b.br(cond, nonzero, zero);
        self.open = false;
    }

    fn open_block(&mut self, b: BlockId) {
        self.b.switch_to(b);
        self.open = true;
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), LowerError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        self.ensure_open();
        match s {
            Stmt::Assign(lv, e) => self.assign(lv, e),
            Stmt::Expr(e) => {
                let Expr::Call(name, args, pos) = e else {
                    return err(e.pos(), "expression statement must be a call");
                };
                self.call(name, args, *pos, false)?;
                Ok(())
            }
            Stmt::If(cond, then_, else_) => {
                let tb = self.b.block();
                let join = self.b.block();
                let eb = if else_.is_empty() {
                    join
                } else {
                    self.b.block()
                };
                self.cond(cond, tb, eb)?;
                self.open_block(tb);
                self.stmts(then_)?;
                if self.open {
                    self.jump(join);
                }
                if !else_.is_empty() {
                    self.open_block(eb);
                    self.stmts(else_)?;
                    if self.open {
                        self.jump(join);
                    }
                }
                self.open_block(join);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let header = self.b.block();
                let bb = self.b.block();
                let exit = self.b.block();
                self.jump(header);
                self.open_block(header);
                self.cond(cond, bb, exit)?;
                self.loop_stack.push((exit, header));
                self.open_block(bb);
                self.stmts(body)?;
                if self.open {
                    self.jump(header);
                }
                self.loop_stack.pop();
                self.open_block(exit);
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let header = self.b.block();
                let bb = self.b.block();
                let stepb = self.b.block();
                let exit = self.b.block();
                self.jump(header);
                self.open_block(header);
                self.cond(cond, bb, exit)?;
                self.loop_stack.push((exit, stepb));
                self.open_block(bb);
                self.stmts(body)?;
                if self.open {
                    self.jump(stepb);
                }
                self.loop_stack.pop();
                self.open_block(stepb);
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                if self.open {
                    self.jump(header);
                }
                self.open_block(exit);
                Ok(())
            }
            Stmt::Return(value, pos) => {
                match (value, self.def.ret) {
                    (None, None) => {
                        self.b.ret(None);
                        self.open = false;
                    }
                    (Some(e), Some(rt)) => {
                        let (v, ty) = self.expr(e)?;
                        let v = self.coerce(v, ty, rt, e.pos())?;
                        self.b.ret(Some(v));
                        self.open = false;
                    }
                    (None, Some(_)) => return err(*pos, "missing return value"),
                    (Some(_), None) => return err(*pos, "void function returns a value"),
                }
                Ok(())
            }
            Stmt::Break(pos) => {
                let Some(&(brk, _)) = self.loop_stack.last() else {
                    return err(*pos, "`break` outside loop");
                };
                self.jump(brk);
                Ok(())
            }
            Stmt::Continue(pos) => {
                let Some(&(_, cont)) = self.loop_stack.last() else {
                    return err(*pos, "`continue` outside loop");
                };
                self.jump(cont);
                Ok(())
            }
            Stmt::Print(e) => {
                let (v, ty) = self.expr(e)?;
                if ty != ZTy::Int {
                    return err(e.pos(), format!("print expects int, found {ty}"));
                }
                self.b.print(v);
                Ok(())
            }
            Stmt::PrintChar(e) => {
                let (v, ty) = self.expr(e)?;
                if ty != ZTy::Int {
                    return err(e.pos(), format!("printc expects int, found {ty}"));
                }
                self.b.print_char(v);
                Ok(())
            }
            Stmt::PrintDouble(e) => {
                let (v, ty) = self.expr(e)?;
                if ty != ZTy::Double {
                    return err(e.pos(), format!("printd expects double, found {ty}"));
                }
                self.b.print_double(v);
                Ok(())
            }
        }
    }

    fn assign(&mut self, lv: &LValue, e: &Expr) -> Result<(), LowerError> {
        match lv {
            LValue::Var(name, pos) => match self.lookup(name, *pos)? {
                Sym::Reg(v, s) => {
                    let (val, ty) = self.expr(e)?;
                    let val = self.coerce(val, ty, s, e.pos())?;
                    self.b.mov_to(v, val);
                    Ok(())
                }
                Sym::GlobalScalar(idx, s) => {
                    let (val, ty) = self.expr(e)?;
                    let val = self.coerce(val, ty, s, e.pos())?;
                    let base = self.b.la(idx);
                    let width = match s {
                        ScalarTy::Int => MemWidth::Word,
                        ScalarTy::Double => MemWidth::Dword,
                    };
                    self.b.store(val, base, 0, width);
                    Ok(())
                }
                Sym::GlobalArray(..) | Sym::ParamArray(..) => {
                    err(*pos, format!("cannot assign to array `{name}`"))
                }
            },
            LValue::Index(name, idx, pos) => {
                let (base, elem) = self.array_base(name, *pos)?;
                let addr = self.element_addr(base, idx, elem)?;
                let (val, ty) = self.expr(e)?;
                let val = self.coerce(val, ty, elem.scalar(), e.pos())?;
                self.b.store(val, addr, 0, elem_width(elem));
                Ok(())
            }
        }
    }

    fn lookup(&self, name: &str, pos: Pos) -> Result<Sym, LowerError> {
        if let Some(s) = self.syms.get(name) {
            return Ok(*s);
        }
        if let Some((idx, kind)) = self.globals.get(name) {
            return Ok(match kind {
                DeclKind::Scalar(s) => Sym::GlobalScalar(*idx, *s),
                DeclKind::Array(e, _) => Sym::GlobalArray(*idx, *e),
            });
        }
        err(pos, format!("unknown name `{name}`"))
    }

    /// Base address register and element type of an array-valued name.
    fn array_base(&mut self, name: &str, pos: Pos) -> Result<(VReg, ElemTy), LowerError> {
        match self.lookup(name, pos)? {
            Sym::GlobalArray(idx, e) => Ok((self.b.la(idx), e)),
            Sym::ParamArray(v, e) => Ok((v, e)),
            _ => err(pos, format!("`{name}` is not an array")),
        }
    }

    /// Emits address arithmetic for `base[idx]`.
    fn element_addr(&mut self, base: VReg, idx: &Expr, elem: ElemTy) -> Result<VReg, LowerError> {
        let (iv, ity) = self.expr(idx)?;
        if ity != ZTy::Int {
            return err(idx.pos(), format!("array index must be int, found {ity}"));
        }
        let scaled = match elem.size() {
            1 => iv,
            4 => self.b.bin_imm(BinOp::Sll, iv, 2),
            _ => self.b.bin_imm(BinOp::Sll, iv, 3),
        };
        Ok(self.b.bin(BinOp::Add, base, scaled))
    }

    fn coerce(&mut self, v: VReg, from: ZTy, to: ScalarTy, pos: Pos) -> Result<VReg, LowerError> {
        match (from, to) {
            (ZTy::Int, ScalarTy::Int) | (ZTy::Double, ScalarTy::Double) => Ok(v),
            (ZTy::Int, ScalarTy::Double) => Ok(self.b.cvt(v, CvtKind::IntToDouble)),
            (ZTy::Double, ScalarTy::Int) => err(
                pos,
                "implicit double->int narrowing; use an explicit `(int)` cast",
            ),
            (ZTy::Array(_), _) => err(pos, "array used where a scalar is required"),
        }
    }

    /// Lowers `e` as a branch condition: control transfers to `then_bb`
    /// when the condition is non-zero, `else_bb` otherwise.
    fn cond(&mut self, e: &Expr, then_bb: BlockId, else_bb: BlockId) -> Result<(), LowerError> {
        match e {
            Expr::Binary(k, l, r, pos)
                if matches!(
                    k,
                    BinKind::Lt
                        | BinKind::Le
                        | BinKind::Gt
                        | BinKind::Ge
                        | BinKind::Eq
                        | BinKind::Ne
                ) =>
            {
                let (lv, lt) = self.expr(l)?;
                let (rv, rt) = self.expr(r)?;
                if lt == ZTy::Double || rt == ZTy::Double {
                    let lv = self.coerce(lv, lt, ScalarTy::Double, *pos)?;
                    let rv = self.coerce(rv, rt, ScalarTy::Double, *pos)?;
                    // Double compares produce an int 0/1; branch on it.
                    let (op, a, b2, invert) = match k {
                        BinKind::Lt => (BinOp::FClt, lv, rv, false),
                        BinKind::Le => (BinOp::FCle, lv, rv, false),
                        BinKind::Gt => (BinOp::FClt, rv, lv, false),
                        BinKind::Ge => (BinOp::FCle, rv, lv, false),
                        BinKind::Eq => (BinOp::FCeq, lv, rv, false),
                        _ => (BinOp::FCeq, lv, rv, true),
                    };
                    let c = self.b.bin(op, a, b2);
                    if invert {
                        self.branch(c, else_bb, then_bb);
                    } else {
                        self.branch(c, then_bb, else_bb);
                    }
                    return Ok(());
                }
                if lt != ZTy::Int || rt != ZTy::Int {
                    return err(*pos, format!("cannot compare {lt} and {rt}"));
                }
                // Integer compare+branch, MIPS style: slt/xor feeding
                // bnez/beqz (branch polarity encodes <=, >=, ==).
                let (c, invert) = match k {
                    BinKind::Lt => (self.b.bin(BinOp::Slt, lv, rv), false),
                    BinKind::Ge => (self.b.bin(BinOp::Slt, lv, rv), true),
                    BinKind::Gt => (self.b.bin(BinOp::Slt, rv, lv), false),
                    BinKind::Le => (self.b.bin(BinOp::Slt, rv, lv), true),
                    BinKind::Ne => (self.b.bin(BinOp::Xor, lv, rv), false),
                    _ => (self.b.bin(BinOp::Xor, lv, rv), true),
                };
                if invert {
                    self.branch(c, else_bb, then_bb);
                } else {
                    self.branch(c, then_bb, else_bb);
                }
                Ok(())
            }
            Expr::Binary(BinKind::LogAnd, l, r, _) => {
                let mid = self.b.block();
                self.cond(l, mid, else_bb)?;
                self.open_block(mid);
                self.cond(r, then_bb, else_bb)
            }
            Expr::Binary(BinKind::LogOr, l, r, _) => {
                let mid = self.b.block();
                self.cond(l, then_bb, mid)?;
                self.open_block(mid);
                self.cond(r, then_bb, else_bb)
            }
            Expr::Unary(UnaryKind::Not, inner, _) => self.cond(inner, else_bb, then_bb),
            Expr::Int(v, _) => {
                // Constant condition: unconditional jump.
                self.jump(if *v != 0 { then_bb } else { else_bb });
                Ok(())
            }
            _ => {
                let (v, ty) = self.expr(e)?;
                if ty != ZTy::Int {
                    return err(e.pos(), format!("condition must be int, found {ty}"));
                }
                self.branch(v, then_bb, else_bb);
                Ok(())
            }
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: Pos,
        want_value: bool,
    ) -> Result<Option<(VReg, ZTy)>, LowerError> {
        let Some((fid, ptys, ret)) = self.sigs.get(name).cloned() else {
            return err(pos, format!("unknown function `{name}`"));
        };
        if ptys.len() != args.len() {
            return err(
                pos,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    ptys.len(),
                    args.len()
                ),
            );
        }
        let mut argv = Vec::with_capacity(args.len());
        for (a, pt) in args.iter().zip(&ptys) {
            let (v, ty) = self.expr(a)?;
            let v = match pt {
                ParamTy::Scalar(s) => self.coerce(v, ty, *s, a.pos())?,
                ParamTy::Array(e) => match ty {
                    ZTy::Array(ae) if ae == *e => v,
                    ZTy::Int => v, // raw address (e.g. &buf[k])
                    _ => {
                        return err(
                            a.pos(),
                            format!("expected {e:?} array argument, found {ty}"),
                        )
                    }
                },
            };
            argv.push(v);
        }
        if want_value && ret.is_none() {
            return err(pos, format!("void function `{name}` used as a value"));
        }
        let dst = self.b.call(
            fid,
            argv,
            if want_value {
                ret.map(scalar_to_ty)
            } else {
                None
            },
        );
        Ok(dst.map(|d| {
            (
                d,
                match ret.expect("checked") {
                    ScalarTy::Int => ZTy::Int,
                    ScalarTy::Double => ZTy::Double,
                },
            )
        }))
    }

    fn expr(&mut self, e: &Expr) -> Result<(VReg, ZTy), LowerError> {
        match e {
            Expr::Int(v, _) => Ok((self.b.li(*v), ZTy::Int)),
            Expr::Double(v, _) => Ok((self.b.lid(*v), ZTy::Double)),
            Expr::Var(name, pos) => match self.lookup(name, *pos)? {
                Sym::Reg(v, s) => Ok((v, scalar_zty(s))),
                Sym::GlobalScalar(idx, s) => {
                    let base = self.b.la(idx);
                    let width = match s {
                        ScalarTy::Int => MemWidth::Word,
                        ScalarTy::Double => MemWidth::Dword,
                    };
                    Ok((self.b.load(base, 0, width), scalar_zty(s)))
                }
                Sym::GlobalArray(idx, e) => Ok((self.b.la(idx), ZTy::Array(e))),
                Sym::ParamArray(v, e) => Ok((v, ZTy::Array(e))),
            },
            Expr::Index(name, idx, pos) => {
                let (base, elem) = self.array_base(name, *pos)?;
                let addr = self.element_addr(base, idx, elem)?;
                let v = self.b.load(addr, 0, elem_width(elem));
                Ok((v, scalar_zty(elem.scalar())))
            }
            Expr::AddrOf(name, idx, pos) => match self.lookup(name, *pos)? {
                Sym::GlobalScalar(g, _) => {
                    if idx.is_some() {
                        return err(*pos, format!("cannot index scalar `{name}`"));
                    }
                    Ok((self.b.la(g), ZTy::Int))
                }
                Sym::GlobalArray(..) | Sym::ParamArray(..) => {
                    let (base, elem) = self.array_base(name, *pos)?;
                    match idx {
                        None => Ok((base, ZTy::Int)),
                        Some(i) => Ok((self.element_addr(base, i, elem)?, ZTy::Int)),
                    }
                }
                Sym::Reg(..) => err(*pos, format!("cannot take the address of `{name}`")),
            },
            Expr::Unary(UnaryKind::Neg, inner, pos) => {
                let (v, ty) = self.expr(inner)?;
                match ty {
                    ZTy::Int => {
                        let z = self.b.li(0);
                        Ok((self.b.bin(BinOp::Sub, z, v), ZTy::Int))
                    }
                    ZTy::Double => {
                        let z = self.b.lid(0.0);
                        Ok((self.b.bin(BinOp::FSub, z, v), ZTy::Double))
                    }
                    ZTy::Array(_) => err(*pos, "cannot negate an array"),
                }
            }
            Expr::Unary(UnaryKind::Not, inner, pos) => {
                let (v, ty) = self.expr(inner)?;
                if ty != ZTy::Int {
                    return err(*pos, format!("`!` expects int, found {ty}"));
                }
                Ok((self.b.bin_imm(BinOp::Sltu, v, 1), ZTy::Int))
            }
            Expr::Binary(k, l, r, pos) => self.binary(*k, l, r, *pos),
            Expr::Call(name, args, pos) => {
                let r = self.call(name, args, *pos, true)?;
                Ok(r.expect("value-producing call"))
            }
            Expr::Cast(to, inner, pos) => {
                let (v, ty) = self.expr(inner)?;
                match (ty, to) {
                    (ZTy::Int, ScalarTy::Int) | (ZTy::Double, ScalarTy::Double) => {
                        Ok((v, scalar_zty(*to)))
                    }
                    (ZTy::Int, ScalarTy::Double) => {
                        Ok((self.b.cvt(v, CvtKind::IntToDouble), ZTy::Double))
                    }
                    (ZTy::Double, ScalarTy::Int) => {
                        Ok((self.b.cvt(v, CvtKind::DoubleToInt), ZTy::Int))
                    }
                    (ZTy::Array(_), _) => err(*pos, "cannot cast an array"),
                }
            }
        }
    }

    fn binary(
        &mut self,
        k: BinKind,
        l: &Expr,
        r: &Expr,
        pos: Pos,
    ) -> Result<(VReg, ZTy), LowerError> {
        use BinKind::*;
        match k {
            LogAnd | LogOr => {
                // Short-circuit in value context: materialize 0/1 through a
                // diamond built on `cond`.
                let result = self.b.vreg(Ty::Int);
                let set1 = self.b.block();
                let set0 = self.b.block();
                let join = self.b.block();
                let e = Expr::Binary(k, Box::new(l.clone()), Box::new(r.clone()), pos);
                self.cond(&e, set1, set0)?;
                self.open_block(set1);
                let one = self.b.li(1);
                self.b.mov_to(result, one);
                self.jump(join);
                self.open_block(set0);
                let zero = self.b.li(0);
                self.b.mov_to(result, zero);
                self.jump(join);
                self.open_block(join);
                Ok((result, ZTy::Int))
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                let (lv, lt) = self.expr(l)?;
                let (rv, rt) = self.expr(r)?;
                if lt == ZTy::Double || rt == ZTy::Double {
                    let lv = self.coerce(lv, lt, ScalarTy::Double, pos)?;
                    let rv = self.coerce(rv, rt, ScalarTy::Double, pos)?;
                    let v = match k {
                        Lt => self.b.bin(BinOp::FClt, lv, rv),
                        Le => self.b.bin(BinOp::FCle, lv, rv),
                        Gt => self.b.bin(BinOp::FClt, rv, lv),
                        Ge => self.b.bin(BinOp::FCle, rv, lv),
                        Eq => self.b.bin(BinOp::FCeq, lv, rv),
                        _ => {
                            let eq = self.b.bin(BinOp::FCeq, lv, rv);
                            self.b.bin_imm(BinOp::Xor, eq, 1)
                        }
                    };
                    return Ok((v, ZTy::Int));
                }
                if lt != ZTy::Int || rt != ZTy::Int {
                    return err(pos, format!("cannot compare {lt} and {rt}"));
                }
                let v = match k {
                    Lt => self.b.bin(BinOp::Slt, lv, rv),
                    Gt => self.b.bin(BinOp::Slt, rv, lv),
                    Le => {
                        let gt = self.b.bin(BinOp::Slt, rv, lv);
                        self.b.bin_imm(BinOp::Xor, gt, 1)
                    }
                    Ge => {
                        let lt_ = self.b.bin(BinOp::Slt, lv, rv);
                        self.b.bin_imm(BinOp::Xor, lt_, 1)
                    }
                    Eq => {
                        let x = self.b.bin(BinOp::Xor, lv, rv);
                        self.b.bin_imm(BinOp::Sltu, x, 1)
                    }
                    _ => {
                        let x = self.b.bin(BinOp::Xor, lv, rv);
                        let z = self.b.li(0);
                        self.b.bin(BinOp::Sltu, z, x)
                    }
                };
                Ok((v, ZTy::Int))
            }
            Add | Sub | Mul | Div => {
                let (lv, lt) = self.expr(l)?;
                let (rv, rt) = self.expr(r)?;
                if lt == ZTy::Double || rt == ZTy::Double {
                    let lv = self.coerce(lv, lt, ScalarTy::Double, pos)?;
                    let rv = self.coerce(rv, rt, ScalarTy::Double, pos)?;
                    let op = match k {
                        Add => BinOp::FAdd,
                        Sub => BinOp::FSub,
                        Mul => BinOp::FMul,
                        _ => BinOp::FDiv,
                    };
                    return Ok((self.b.bin(op, lv, rv), ZTy::Double));
                }
                self.int_pair(lt, rt, pos)?;
                let op = match k {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    _ => BinOp::Div,
                };
                Ok((self.b.bin(op, lv, rv), ZTy::Int))
            }
            Rem | Shl | Shr | BitAnd | BitXor | BitOr => {
                let (lv, lt) = self.expr(l)?;
                let (rv, rt) = self.expr(r)?;
                self.int_pair(lt, rt, pos)?;
                let op = match k {
                    Rem => BinOp::Rem,
                    Shl => BinOp::Sll,
                    Shr => BinOp::Sra,
                    BitAnd => BinOp::And,
                    BitXor => BinOp::Xor,
                    _ => BinOp::Or,
                };
                Ok((self.b.bin(op, lv, rv), ZTy::Int))
            }
        }
    }

    fn int_pair(&self, lt: ZTy, rt: ZTy, pos: Pos) -> Result<(), LowerError> {
        if lt != ZTy::Int || rt != ZTy::Int {
            return err(
                pos,
                format!("operator requires int operands, found {lt} and {rt}"),
            );
        }
        Ok(())
    }
}

fn scalar_zty(s: ScalarTy) -> ZTy {
    match s {
        ScalarTy::Int => ZTy::Int,
        ScalarTy::Double => ZTy::Double,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_ir::Interp;

    fn run(src: &str) -> (String, i32) {
        let m = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
        let (out, _) = Interp::new(&m)
            .run()
            .unwrap_or_else(|e| panic!("run failed: {e}"));
        (out.output, out.exit_code)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let (out, code) = run("int main() { print(2 + 3 * 4); return 1 + 2 * 3; }");
        assert_eq!(out, "14\n");
        assert_eq!(code, 7);
    }

    #[test]
    fn loops_and_arrays() {
        let (out, _) = run("
            int a[10];
            int main() {
                int i;
                int sum;
                sum = 0;
                for (i = 0; i < 10; i = i + 1) { a[i] = i * i; }
                for (i = 0; i < 10; i = i + 1) { sum = sum + a[i]; }
                print(sum);
                return 0;
            }
        ");
        assert_eq!(out, "285\n");
    }

    #[test]
    fn byte_arrays_zero_extend() {
        let (out, _) = run("
            byte b[4] = {255, 1};
            int main() { print(b[0]); print(b[1]); print(b[2]); return 0; }
        ");
        assert_eq!(out, "255\n1\n0\n");
    }

    #[test]
    fn while_break_continue() {
        let (out, _) = run("
            int main() {
                int i = 0;
                int acc = 0;
                while (1) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i % 2) { continue; }
                    acc = acc + i;
                }
                print(acc);
                return 0;
            }
        ");
        assert_eq!(out, "30\n"); // 2+4+6+8+10
    }

    #[test]
    fn short_circuit_evaluation() {
        // g() must not run when the left side already decides.
        let (out, _) = run("
            int calls;
            int g() { calls = calls + 1; return 1; }
            int main() {
                if (0 && g()) { print(999); }
                if (1 || g()) { print(1); }
                print(calls);
                return 0;
            }
        ");
        assert_eq!(out, "1\n0\n");
    }

    #[test]
    fn logical_ops_as_values() {
        let (out, _) = run("
            int main() {
                int a = 3;
                int b = 0;
                print(a && b);
                print(a || b);
                print(!a);
                print(!b);
                return 0;
            }
        ");
        assert_eq!(out, "0\n1\n0\n1\n");
    }

    #[test]
    fn comparisons_as_values() {
        let (out, _) = run("
            int main() {
                int a = 3;
                int b = 5;
                print(a < b); print(a > b); print(a <= 3); print(a >= 4);
                print(a == 3); print(a != 3);
                return 0;
            }
        ");
        assert_eq!(out, "1\n0\n1\n0\n1\n0\n");
    }

    #[test]
    fn functions_recursion() {
        let (out, _) = run("
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() { print(fib(12)); return 0; }
        ");
        assert_eq!(out, "144\n");
    }

    #[test]
    fn doubles_and_casts() {
        let (out, _) = run("
            double acc;
            int main() {
                int i;
                acc = 0.5;
                for (i = 0; i < 4; i = i + 1) { acc = acc + 1.25; }
                printd(acc);
                print((int) acc);
                printd((double) 3);
                return 0;
            }
        ");
        assert_eq!(out, "5.500000\n5\n3.000000\n");
    }

    #[test]
    fn array_params_and_addr_of() {
        let (out, _) = run("
            int data[6] = {5, 4, 3, 2, 1, 0};
            int sum(int a[], int n) {
                int i;
                int s = 0;
                for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
                return s;
            }
            int main() {
                print(sum(data, 6));
                print(sum(&data[2], 3));
                return 0;
            }
        ");
        assert_eq!(out, "15\n6\n");
    }

    #[test]
    fn local_arrays_are_static() {
        let (out, _) = run("
            void bump() {
                int tmp[2];
                tmp[0] = tmp[0] + 1;
                print(tmp[0]);
            }
            int main() { bump(); bump(); return 0; }
        ");
        assert_eq!(out, "1\n2\n"); // function-static storage
    }

    #[test]
    fn global_scalars_with_init() {
        let (out, _) = run("
            int counter = 40;
            int main() { counter = counter + 2; print(counter); return 0; }
        ");
        assert_eq!(out, "42\n");
    }

    #[test]
    fn unary_neg_and_bitops() {
        let (out, _) = run("
            int main() {
                print(-5);
                print(5 & 3); print(5 | 3); print(5 ^ 3);
                print(1 << 4); print(-16 >> 2);
                print(7 % 3);
                return 0;
            }
        ");
        assert_eq!(out, "-5\n1\n7\n6\n16\n-4\n1\n");
    }

    #[test]
    fn paper_figure3_kernel_compiles_and_runs() {
        // The gcc invalidate_for_call fragment from Figure 3.
        let (out, _) = run("
            int regs_invalidated_by_call = 0x5;
            int reg_tick[66];
            int deleted;
            void delete_equiv_reg(int regno) { deleted = deleted + 1; }
            void invalidate_for_call() {
                int regno;
                for (regno = 0; regno < 66; regno = regno + 1) {
                    if (regs_invalidated_by_call >> regno & 1) {
                        delete_equiv_reg(regno);
                        if (reg_tick[regno] >= 0) {
                            reg_tick[regno] = reg_tick[regno] + 1;
                        }
                    }
                }
            }
            int main() {
                invalidate_for_call();
                print(deleted);
                print(reg_tick[0]);
                print(reg_tick[1]);
                print(reg_tick[2]);
                return 0;
            }
        ");
        // Shift amounts mask to 5 bits (MIPS `srav` semantics), so regno
        // 32/34/64 alias 0/2/0 — 5 deletions, ticks at 0 and 2.
        assert_eq!(out, "5\n1\n0\n1\n");
    }

    #[test]
    fn error_unknown_name() {
        let e = compile("int main() { return nope; }").unwrap_err();
        assert!(e.to_string().contains("unknown name"));
    }

    #[test]
    fn error_type_mismatch() {
        let e = compile("double d; int main() { return d; }").unwrap_err();
        assert!(e.to_string().contains("cast"));
    }

    #[test]
    fn error_break_outside_loop() {
        let e = compile("int main() { break; return 0; }").unwrap_err();
        assert!(e.to_string().contains("outside loop"));
    }

    #[test]
    fn error_call_arity() {
        let e = compile("int f(int x) { return x; } int main() { return f(); }").unwrap_err();
        assert!(e.to_string().contains("expects 1 arguments"));
    }

    #[test]
    fn error_void_as_value() {
        let e = compile("void g() { } int main() { return g(); }").unwrap_err();
        assert!(e.to_string().contains("used as a value"));
    }

    #[test]
    fn code_after_return_is_tolerated() {
        let (out, code) = run("int main() { return 3; print(9); }");
        assert_eq!(out, "");
        assert_eq!(code, 3);
    }

    #[test]
    fn nested_loops() {
        let (out, _) = run("
            int main() {
                int i;
                int j;
                int c = 0;
                for (i = 0; i < 5; i = i + 1) {
                    for (j = 0; j < i; j = j + 1) { c = c + 1; }
                }
                print(c);
                return 0;
            }
        ");
        assert_eq!(out, "10\n");
    }
}
