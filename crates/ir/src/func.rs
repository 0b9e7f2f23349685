//! Functions, basic blocks, and modules.

use crate::inst::{Inst, Terminator};
use crate::types::Ty;
use std::fmt;

/// A virtual register, unique within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(u32);

impl VReg {
    /// Creates a virtual register id. Normally minted by
    /// [`Function::new_vreg`].
    #[must_use]
    pub fn new(index: u32) -> VReg {
        VReg(index)
    }

    /// The register's index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic-block id, unique within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// The function entry block.
    pub const ENTRY: BlockId = BlockId(0);

    /// Creates a block id. Normally minted by [`Function::new_block`].
    #[must_use]
    pub fn new(index: u32) -> BlockId {
        BlockId(index)
    }

    /// The block's index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A static-instruction id, unique within its function and stable across
/// transformation passes. The register dependence graph and the partition
/// assignment are keyed on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(u32);

impl InstId {
    /// Creates an instruction id. Normally minted by
    /// [`Function::new_inst_id`].
    #[must_use]
    pub fn new(index: u32) -> InstId {
        InstId(index)
    }

    /// The id's index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A function id: index into [`Module::funcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(u32);

impl FuncId {
    /// Creates a function id.
    #[must_use]
    pub fn new(index: u32) -> FuncId {
        FuncId(index)
    }

    /// The id's index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block body.
    pub insts: Vec<Inst>,
    /// The closing control transfer.
    pub term: Terminator,
}

impl Block {
    /// Creates a block with the given terminator and no body.
    #[must_use]
    pub fn new(term: Terminator) -> Block {
        Block {
            insts: Vec::new(),
            term,
        }
    }
}

/// A function: parameters, typed virtual registers, and a CFG of blocks.
/// The entry block is [`BlockId::ENTRY`].
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Formal parameters, in declaration order. Parameter registers are
    /// defined on entry (the partitioner models them as *dummy nodes*
    /// pinned to INT, per paper §6.4).
    pub params: Vec<VReg>,
    /// Return type, or `None` for `void`.
    pub ret_ty: Option<Ty>,
    /// The blocks; index with [`BlockId::index`].
    pub blocks: Vec<Block>,
    vreg_ty: Vec<Ty>,
    next_inst: u32,
}

impl Function {
    /// Creates an empty function (no blocks yet).
    #[must_use]
    pub fn new(name: impl Into<String>, ret_ty: Option<Ty>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            ret_ty,
            blocks: Vec::new(),
            vreg_ty: Vec::new(),
            next_inst: 0,
        }
    }

    /// Mints a fresh virtual register of type `ty`.
    pub fn new_vreg(&mut self, ty: Ty) -> VReg {
        let v = VReg(self.vreg_ty.len() as u32);
        self.vreg_ty.push(ty);
        v
    }

    /// The type of a virtual register.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this function.
    #[must_use]
    pub fn vreg_ty(&self, v: VReg) -> Ty {
        self.vreg_ty[v.index()]
    }

    /// Number of virtual registers minted so far.
    #[must_use]
    pub fn num_vregs(&self) -> usize {
        self.vreg_ty.len()
    }

    /// Mints a fresh instruction id.
    pub fn new_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst);
        self.next_inst += 1;
        id
    }

    /// Upper bound (exclusive) on instruction-id indices, for dense maps.
    #[must_use]
    pub fn inst_id_bound(&self) -> usize {
        self.next_inst as usize
    }

    /// Appends a new block and returns its id.
    pub fn new_block(&mut self, term: Terminator) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(term));
        id
    }

    /// The block with the given id.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to the block with the given id.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterates `(block, instruction)` over the whole function body
    /// (terminators not included).
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, &Inst)> + '_ {
        self.block_ids()
            .flat_map(move |b| self.block(b).insts.iter().map(move |i| (b, i)))
    }

    /// Total static instruction count, counting branch/return terminators
    /// as one instruction each (unconditional jumps are free at the IR
    /// level; codegen may or may not need one).
    #[must_use]
    pub fn static_size(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.insts.len() + usize::from(b.term.id().is_some()))
            .sum()
    }
}

/// An initialized or zero-initialized global datum.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Initial contents; shorter than `size` means the tail is zero.
    pub init: Vec<u8>,
    /// Assigned byte address; 0 until [`Module::assign_addresses`] runs.
    pub addr: u32,
}

/// A whole program at the IR level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// All functions. `main` must be present for execution.
    pub funcs: Vec<Function>,
    /// All global data.
    pub globals: Vec<Global>,
}

impl Module {
    /// Lowest data address; matches the machine loader, so interpreter and
    /// simulator agree on every address.
    pub const DATA_BASE: u32 = 0x1000;

    /// End of the machine's memory: the stack starts here and grows
    /// down, so the data segment must end at or below it.
    pub const DATA_END: u32 = fpa_isa::Program::DEFAULT_STACK_TOP;

    /// Creates an empty module.
    #[must_use]
    pub fn new() -> Module {
        Module::default()
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The function with the given id.
    #[must_use]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Lays out the data segment: assigns every global an 8-byte-aligned
    /// address starting at [`Module::DATA_BASE`]. Returns the first free
    /// address after the segment.
    pub fn assign_addresses(&mut self) -> u32 {
        let mut addr = Self::DATA_BASE;
        for g in &mut self.globals {
            addr = (addr + 7) & !7;
            g.addr = addr;
            addr += g.size;
        }
        addr
    }

    /// Adds a global and returns its index.
    pub fn add_global(&mut self, name: impl Into<String>, size: u32, init: Vec<u8>) -> u32 {
        assert!(
            init.len() as u32 <= size,
            "global initializer longer than size"
        );
        let idx = self.globals.len() as u32;
        self.globals.push(Global {
            name: name.into(),
            size,
            init,
            addr: 0,
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Terminator};

    #[test]
    fn vreg_and_ids() {
        let mut f = Function::new("f", Some(Ty::Int));
        let a = f.new_vreg(Ty::Int);
        let b = f.new_vreg(Ty::Double);
        assert_ne!(a, b);
        assert_eq!(f.vreg_ty(a), Ty::Int);
        assert_eq!(f.vreg_ty(b), Ty::Double);
        assert_eq!(f.num_vregs(), 2);
        let i0 = f.new_inst_id();
        let i1 = f.new_inst_id();
        assert_ne!(i0, i1);
        assert_eq!(f.inst_id_bound(), 2);
    }

    #[test]
    fn block_construction_and_iteration() {
        let mut f = Function::new("f", None);
        let v0 = f.new_vreg(Ty::Int);
        let id = f.new_inst_id();
        let rid = f.new_inst_id();
        let b0 = f.new_block(Terminator::Ret {
            id: rid,
            value: None,
        });
        assert_eq!(b0, BlockId::ENTRY);
        f.block_mut(b0).insts.push(Inst::Li {
            id,
            dst: v0,
            imm: 3,
        });
        assert_eq!(f.insts().count(), 1);
        assert_eq!(f.static_size(), 2); // li + ret
    }

    #[test]
    fn module_layout_aligns_globals() {
        let mut m = Module::new();
        m.add_global("a", 3, vec![1, 2, 3]);
        m.add_global("b", 8, vec![]);
        let end = m.assign_addresses();
        assert_eq!(m.globals[0].addr, Module::DATA_BASE);
        assert_eq!(m.globals[1].addr % 8, 0);
        assert!(m.globals[1].addr >= m.globals[0].addr + 3);
        assert_eq!(end, m.globals[1].addr + 8);
    }

    #[test]
    fn module_function_lookup() {
        let mut m = Module::new();
        m.funcs.push(Function::new("main", Some(Ty::Int)));
        m.funcs.push(Function::new("helper", None));
        assert_eq!(m.func_id("main"), Some(FuncId::new(0)));
        assert_eq!(m.func_id("helper"), Some(FuncId::new(1)));
        assert_eq!(m.func_id("nope"), None);
        assert_eq!(m.func(FuncId::new(1)).name, "helper");
    }

    #[test]
    #[should_panic(expected = "longer than size")]
    fn global_initializer_validated() {
        let mut m = Module::new();
        m.add_global("g", 2, vec![0; 4]);
    }

    #[test]
    fn static_size_counts_branches() {
        let mut f = Function::new("f", None);
        let c = f.new_vreg(Ty::Int);
        let li = f.new_inst_id();
        let br = f.new_inst_id();
        let rid = f.new_inst_id();
        let b0 = f.new_block(Terminator::Jump {
            target: BlockId::new(1),
        });
        let b1 = f.new_block(Terminator::Ret {
            id: rid,
            value: None,
        });
        f.block_mut(b0).insts.push(Inst::Li {
            id: li,
            dst: c,
            imm: 0,
        });
        f.block_mut(b0).term = Terminator::Br {
            id: br,
            cond: c,
            nonzero: b1,
            zero: b1,
        };
        // li + br + ret; the b1 jump-to-ret... b1's term is the ret.
        assert_eq!(f.static_size(), 3);
        let _ = BinOp::Add; // silence unused import in some cfgs
    }
}
