//! The paper's structural invariants, checked over the whole workload
//! suite (see DESIGN.md §6).

use fpa::ir::Terminator;
use fpa::isa::{Op, Subsystem};
use fpa::rdg::{NodeClass, NodeId, NodeKind, Rdg, Slices};
use fpa::sim::run_functional;
use fpa::{Compiler, Scheme};

fn program(src: &str, scheme: Scheme) -> fpa::isa::Program {
    Compiler::new(src).scheme(scheme).build().unwrap().program
}

const FUEL: u64 = 500_000_000;

fn optimized_module(src: &str) -> fpa::ir::Module {
    let mut m = fpa::frontend::compile(src).unwrap();
    fpa::ir::opt::optimize(&mut m);
    for f in &mut m.funcs {
        fpa::ir::opt::split_webs(f);
    }
    m
}

/// §5.1 conditions: under the basic scheme, no FPa node may reach or be
/// reached by an INT node through register dependences.
#[test]
fn basic_scheme_partitioning_conditions() {
    for w in fpa::workloads::integer() {
        let m = optimized_module(&w.source);
        let assignment = fpa::partition::partition_basic(&m);
        for (fi, func) in m.funcs.iter().enumerate() {
            let fa = &assignment.funcs[fi];
            let rdg = Rdg::build(func);
            let side_of = |n| {
                let inst = rdg.kind(n).inst();
                match rdg.kind(n) {
                    NodeKind::Param(_) => Subsystem::Int,
                    NodeKind::LoadAddr(_) | NodeKind::StoreAddr(_) => Subsystem::Int,
                    _ => fa.side(inst.expect("instruction node")),
                }
            };
            for n in rdg.node_ids() {
                if !rdg.is_free(n) || side_of(n) != Subsystem::Fp {
                    continue;
                }
                for m_ in rdg
                    .backward_slice(n)
                    .into_iter()
                    .chain(rdg.forward_slice(n))
                {
                    if rdg.is_native(m_) {
                        continue;
                    }
                    assert_eq!(
                        side_of(m_),
                        Subsystem::Fp,
                        "{}:{}: FPa node {n} connected to INT node {m_}",
                        w.name,
                        func.name
                    );
                }
            }
        }
    }
}

/// Under the basic scheme, integer workloads execute **zero** inter-file
/// copies — all communication goes through existing loads and stores.
#[test]
fn basic_scheme_needs_no_copies_on_integer_code() {
    for w in fpa::workloads::integer() {
        let prog = program(&w.source, Scheme::Basic);
        let r = run_functional(&prog, FUEL).unwrap();
        assert_eq!(
            r.copies, 0,
            "{}: basic scheme executed {} copies",
            w.name, r.copies
        );
    }
}

/// Loads and stores always execute in the INT subsystem: no program may
/// contain an augmented opcode that touches memory, and every memory
/// opcode in every build must be an INT-subsystem opcode.
#[test]
fn memory_operations_stay_on_the_int_subsystem() {
    for w in fpa::workloads::all() {
        for scheme in [Scheme::Conventional, Scheme::Basic, Scheme::Advanced] {
            let prog = program(&w.source, scheme);
            for inst in &prog.code {
                if inst.op.is_load() || inst.op.is_store() {
                    assert_eq!(
                        inst.op.subsystem(),
                        Subsystem::Int,
                        "{}/{scheme:?}: memory op {} off the INT subsystem",
                        w.name,
                        inst.op
                    );
                }
                assert!(
                    !(inst.op.is_augmented() && inst.op.mem_bytes().is_some()),
                    "{}/{scheme:?}: augmented memory opcode {}",
                    w.name,
                    inst.op
                );
            }
        }
    }
}

/// Integer multiply/divide never execute in the FP subsystem (the paper
/// excludes them from the augmented hardware).
#[test]
fn no_muldiv_in_fp_subsystem() {
    for w in fpa::workloads::all() {
        for scheme in [Scheme::Basic, Scheme::Advanced] {
            let prog = program(&w.source, scheme);
            for inst in &prog.code {
                if matches!(inst.op, Op::Mul | Op::Div | Op::Rem) {
                    assert_eq!(inst.op.subsystem(), Subsystem::Int);
                }
            }
        }
    }
}

/// The static opcode budget: only the 22 documented augmented opcodes
/// ever appear, and each appears with FP-register operands only.
#[test]
fn augmented_opcode_discipline() {
    let mut seen = std::collections::HashSet::new();
    for w in fpa::workloads::all() {
        let prog = program(&w.source, Scheme::Advanced);
        for inst in &prog.code {
            if inst.op.is_augmented() {
                seen.insert(inst.op);
                for r in inst.defs().into_iter().chain(inst.uses()) {
                    assert!(
                        r.is_fp(),
                        "{}: augmented op {} uses integer register {r}",
                        w.name,
                        inst.op
                    );
                }
            }
        }
    }
    assert!(
        seen.len() <= 22,
        "more distinct augmented opcodes than the paper's budget: {seen:?}"
    );
    assert!(
        seen.len() >= 8,
        "suspiciously few augmented opcodes used: {seen:?}"
    );
}

/// Advanced-scheme copy overhead stays small (§7.2 reports <= 4% total
/// increase, with copies at most 3.4%).
#[test]
fn advanced_copy_overhead_is_bounded() {
    for w in fpa::workloads::integer() {
        let prog = program(&w.source, Scheme::Advanced);
        let r = run_functional(&prog, FUEL).unwrap();
        let pct = r.copies as f64 / r.total as f64 * 100.0;
        assert!(
            pct < 5.0,
            "{}: copies are {pct:.2}% of dynamic instructions",
            w.name
        );
    }
}

/// Every workload and every `fuzz/corpus` pin (the distilled coverage
/// pins included), by name and source.
fn real_programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fpa::workloads::all()
        .into_iter()
        .map(|w| (w.name, w.source))
        .collect();
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    for dir in [corpus.clone(), corpus.join("coverage")] {
        let mut pins: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("list {}: {e}", dir.display()))
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "zc"))
            .collect();
        pins.sort();
        for pin in pins {
            let src = std::fs::read_to_string(&pin).expect("read pin");
            out.push((pin.display().to_string(), src));
        }
    }
    out
}

/// The one-pass graph on real programs: every node classifies, address
/// nodes are pinned, the recorded LdSt slice is the union of each address
/// node's own backward slice, consumers are listed in program order, and
/// the branch and return slices are seeded exactly at the function's `br`
/// and `ret` terminators.
#[test]
fn classification_total_and_addresses_pinned() {
    let programs = real_programs();
    assert!(programs.len() > 150, "{} programs", programs.len());
    for (name, src) in &programs {
        let m = optimized_module(src);
        for func in &m.funcs {
            let rdg = Rdg::build(func);
            let mut in_ldst = vec![false; rdg.len()];
            for n in rdg.node_ids() {
                if matches!(rdg.kind(n), NodeKind::LoadAddr(_) | NodeKind::StoreAddr(_)) {
                    assert!(
                        matches!(rdg.class(n), NodeClass::PinnedInt(_)),
                        "{name}: address node not pinned"
                    );
                    for s in rdg.backward_slice(n) {
                        in_ldst[s.index()] = true;
                    }
                }
            }
            let mask: Vec<bool> = rdg.node_ids().map(|n| rdg.in_ldst(n)).collect();
            assert_eq!(mask, in_ldst, "{name}:{}: LdSt slice", func.name);
            // Edges are added in program order, so every node lists its
            // consumers by ascending node id, the same in every process.
            for n in rdg.node_ids() {
                assert!(
                    rdg.succs(n).windows(2).all(|w| w[0] < w[1]),
                    "{name}:{}: consumers of {n} out of program order",
                    func.name
                );
            }

            let (mut brs, mut rets) = (Vec::new(), Vec::new());
            for b in func.block_ids() {
                match func.block(b).term {
                    Terminator::Br { id, .. } => brs.push(rdg.node(NodeKind::Plain(id)).unwrap()),
                    Terminator::Ret { id, .. } => rets.push(rdg.node(NodeKind::Plain(id)).unwrap()),
                    Terminator::Jump { .. } => {}
                }
            }
            let slices = Slices::compute(&rdg);
            let seeds = |s: &[(NodeId, Vec<NodeId>)]| s.iter().map(|(n, _)| *n).collect::<Vec<_>>();
            assert_eq!(
                seeds(&slices.branches),
                brs,
                "{name}:{}: branch slices",
                func.name
            );
            assert_eq!(
                seeds(&slices.returns),
                rets,
                "{name}:{}: return slices",
                func.name
            );
        }
    }
}
