//! A walkthrough of the paper's running example (Figures 3–6): the
//! `invalidate_for_call` fragment from gcc.
//!
//! Prints the optimized IR, the register dependence graph with its slice
//! decomposition (Figure 3), the basic-scheme partition (Figure 4), and
//! the advanced-scheme result with its copies/duplicates (Figures 5/6),
//! finishing with the partitioned disassembly.
//!
//! ```text
//! cargo run --example paper_figure3
//! ```

use fpa::ir::Terminator;
use fpa::isa::Subsystem;
use fpa::partition::FuncGraph;
use fpa::rdg::{NodeClass, Slices};
use fpa::{Compiler, Scheme};

const SRC: &str = "
    int regs_invalidated_by_call = 0x55555;
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
        return 0;
    }
";

fn main() {
    // --- The optimized IR of the kernel --------------------------------
    let mut m = fpa::frontend::compile(SRC).expect("compile");
    fpa::ir::opt::optimize(&mut m);
    for f in &mut m.funcs {
        fpa::ir::opt::split_webs(f);
    }
    let fid = m.func_id("invalidate_for_call").expect("kernel present");
    let func = m.func(fid);
    println!("=== optimized IR (the paper's Figure 3 assembly analogue) ===");
    println!("{}", fpa::ir::display::func_to_string(func, Some(&m)));

    // --- The RDG and its slices (Figure 3) ------------------------------
    // One graph per function: the RDG and its node classes, which every
    // partitioning scheme reads.
    let graph = FuncGraph::build(func);
    let (rdg, classes) = (graph.rdg(), graph.classes());
    let branch_ids: Vec<_> = func
        .block_ids()
        .filter_map(|b| match func.block(b).term {
            Terminator::Br { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    let ret_ids: Vec<_> = func
        .block_ids()
        .filter_map(|b| match func.block(b).term {
            Terminator::Ret { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    let slices = Slices::compute(
        rdg,
        |n| rdg.kind(n).inst().is_some_and(|i| branch_ids.contains(&i)),
        |n| rdg.kind(n).inst().is_some_and(|i| ret_ids.contains(&i)),
    );
    println!("=== register dependence graph ===");
    println!("nodes: {}", rdg.len());
    println!(
        "LdSt slice: {} nodes ({:.0}% of the graph)",
        slices.ldst.len(),
        slices.ldst_fraction(rdg.len()) * 100.0
    );
    println!("branch slices: {}", slices.branches.len());
    println!("store-value slices: {}", slices.store_values.len());
    let pinned = rdg
        .node_ids()
        .filter(|n| matches!(classes[n.index()], NodeClass::PinnedInt(_)))
        .count();
    let free = rdg
        .node_ids()
        .filter(|n| classes[n.index()] == NodeClass::Free)
        .count();
    println!("pinned-INT nodes: {pinned}, free nodes: {free}");
    for n in rdg.node_ids().take(12) {
        println!("  {n}: {:?} -> {:?}", rdg.kind(n), classes[n.index()]);
    }
    println!();

    // --- Basic partition (Figure 4) --------------------------------------
    let basic = fpa::partition::basic::partition_basic_func(func, &graph);
    let basic_fp = func
        .insts()
        .filter(|(_, i)| basic.side(i.id()) == Subsystem::Fp)
        .count();
    println!("=== basic scheme (Figure 4) ===");
    println!(
        "instructions assigned to FPa: {basic_fp} of {}",
        func.static_size()
    );

    // --- Full binaries: offload percentages and copies -------------------
    println!();
    println!("=== whole-program builds ===");
    for scheme in [Scheme::Conventional, Scheme::Basic, Scheme::Advanced] {
        let prog = Compiler::new(SRC)
            .scheme(scheme)
            .build()
            .expect("pipeline")
            .program;
        let r = fpa::sim::run_functional(&prog, 10_000_000).expect("run");
        println!(
            "{scheme:?}: {:.1}% of {} dynamic instructions in the FP subsystem ({} copies)",
            r.fp_fraction() * 100.0,
            r.total,
            r.copies
        );
    }

    // --- The advanced scheme's machine code (Figures 5/6) ---------------
    let prog = Compiler::new(SRC)
        .scheme(Scheme::Advanced)
        .build()
        .expect("pipeline")
        .program;
    println!();
    println!("=== advanced-scheme disassembly of the kernel ===");
    let entry = prog.function_entry("invalidate_for_call").unwrap() as usize;
    let end = prog
        .symbols
        .iter()
        .filter(|s| s.kind == fpa::isa::SymbolKind::Function)
        .map(|s| s.pc as usize)
        .filter(|&pc| pc > entry)
        .min()
        .unwrap_or(prog.code.len());
    for (pc, inst) in prog.code[entry..end].iter().enumerate() {
        let marker = if inst.op.is_augmented() {
            "  <- FPa"
        } else if matches!(inst.op, fpa::isa::Op::CpToFpa | fpa::isa::Op::CpToInt) {
            "  <- copy"
        } else {
            ""
        };
        println!("  {:4}: {}{}", entry + pc, inst, marker);
    }
}
