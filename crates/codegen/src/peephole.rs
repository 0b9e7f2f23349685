//! Machine-level peephole cleanup.
//!
//! Three rewrites over a linked [`Program`], followed by compaction with
//! full relocation of branch targets and symbols:
//!
//! 1. **jump threading** — a control transfer whose target is an
//!    unconditional `j` retargets to the chain's end;
//! 2. **jump-to-next removal** — `j` to the immediately following pc;
//! 3. **self-move removal** — `move r, r` / `mov.d f, f`.

use fpa_isa::{Inst, Op, Program};

/// Runs the peephole pipeline in place, iterating to a fixpoint (each
/// compaction can expose new jump-to-next instructions). Returns the
/// total number of instructions removed.
pub fn peephole(prog: &mut Program) -> usize {
    let mut total = 0;
    loop {
        thread_jump_chains(prog);
        let keep = removable_mask(prog);
        let removed = compact(prog, &keep);
        if removed == 0 {
            return total;
        }
        total += removed;
    }
}

/// Follows chains of unconditional jumps from each branch/jump target.
fn thread_jump_chains(prog: &mut Program) {
    let n = prog.code.len();
    let resolve = |mut t: u32, code: &[Inst]| -> u32 {
        let mut hops = 0;
        while hops < n {
            match code.get(t as usize) {
                Some(i) if i.op == Op::J && i.target != t => {
                    t = i.target;
                    hops += 1;
                }
                _ => break,
            }
        }
        t
    };
    for pc in 0..n {
        let inst = prog.code[pc];
        if inst.op.is_cond_branch() || matches!(inst.op, Op::J | Op::Jal) {
            let t = resolve(inst.target, &prog.code);
            if t != inst.target {
                prog.code[pc].target = t;
            }
        }
    }
    if !prog.code.is_empty() {
        prog.entry = resolve(prog.entry, &prog.code);
    }
}

/// Marks instructions to keep: drops `j <next>` and self-moves.
fn removable_mask(prog: &Program) -> Vec<bool> {
    prog.code
        .iter()
        .enumerate()
        .map(|(pc, i)| match i.op {
            Op::J => i.target != pc as u32 + 1,
            Op::Move | Op::FmovD => i.rd != i.rs,
            _ => true,
        })
        .collect()
}

/// Removes non-kept instructions, remapping every pc reference.
fn compact(prog: &mut Program, keep: &[bool]) -> usize {
    let removed = keep.iter().filter(|&&k| !k).count();
    if removed == 0 {
        return 0;
    }
    // remap[pc] = new pc of the first kept instruction at or after pc.
    let n = prog.code.len();
    let mut remap = vec![0u32; n + 1];
    let mut next = 0u32;
    for pc in 0..n {
        remap[pc] = next;
        if keep[pc] {
            next += 1;
        }
    }
    remap[n] = next;

    let old = std::mem::take(&mut prog.code);
    prog.code = old
        .into_iter()
        .enumerate()
        .filter_map(|(pc, mut inst)| {
            if !keep[pc] {
                return None;
            }
            if inst.op.is_cond_branch() || matches!(inst.op, Op::J | Op::Jal) {
                inst.target = remap[inst.target as usize];
            }
            Some(inst)
        })
        .collect();
    prog.entry = remap[prog.entry as usize];
    for s in &mut prog.symbols {
        s.pc = remap[s.pc as usize];
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_isa::{IntReg, Reg, Symbol, SymbolKind};

    fn r(i: u8) -> Reg {
        IntReg::new(i).into()
    }

    #[test]
    fn removes_jump_to_next_and_self_moves() {
        let mut p = Program::new();
        p.code = vec![
            Inst::li(Op::Li, r(8), 1),         // 0
            Inst::jump(2),                     // 1: j next -> removed
            Inst::unary(Op::Move, r(8), r(8)), // 2: self move -> removed
            Inst::li(Op::Li, r(9), 2),         // 3
            Inst::bare(Op::Halt),              // 4
        ];
        p.symbols.push(Symbol {
            pc: 3,
            name: "main.bb1".into(),
            kind: SymbolKind::Block,
        });
        let removed = peephole(&mut p);
        assert_eq!(removed, 2);
        assert_eq!(p.code.len(), 3);
        assert!(matches!(p.code[0].op, Op::Li));
        assert!(matches!(p.code[1].op, Op::Li));
        assert_eq!(p.symbols[0].pc, 1, "block symbol follows its instruction");
        p.validate().unwrap();
    }

    #[test]
    fn threads_jump_chains() {
        let mut p = Program::new();
        p.code = vec![
            Inst::branch(Op::Bnez, r(8), 3), // 0: -> 3 (a jump) -> threads to 5
            Inst::li(Op::Li, r(9), 1),       // 1
            Inst::bare(Op::Halt),            // 2
            Inst::jump(4),                   // 3 -> 4
            Inst::jump(5),                   // 4 -> 5
            Inst::bare(Op::Halt),            // 5
        ];
        peephole(&mut p);
        assert_eq!(
            p.code[0].target, 3,
            "bnez retargeted past the chain, then compacted"
        );
        assert!(matches!(p.code[3].op, Op::Halt));
        p.validate().unwrap();
    }

    #[test]
    fn functional_behaviour_unchanged() {
        // A small loop with a removable jump: behaviour must not change.
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![
            Inst::li(Op::Li, r(8), 0),               // 0
            Inst::li(Op::Li, r(9), 0),               // 1
            Inst::alu_imm(Op::Addi, r(9), r(9), 2),  // 2: loop
            Inst::alu_imm(Op::Addi, r(8), r(8), 1),  // 3
            Inst::unary(Op::Move, r(9), r(9)),       // 4: self move
            Inst::alu_imm(Op::Slti, r(10), r(8), 5), // 5
            Inst::branch(Op::Bnez, r(10), 7),        // 6: -> 7 (jump chain)
            Inst::jump(9),                           // 7
            Inst::jump(11),                          // 8 (dead)
            Inst::jump(2),                           // 9
            Inst::bare(Op::Halt),                    // 10 (dead)
            Inst {
                op: Op::Print,
                rd: None,
                rs: Some(r(9)),
                rt: None,
                imm: 0,
                target: 0,
            }, // 11
            Inst {
                op: Op::Halt,
                rd: None,
                rs: Some(r(9)),
                rt: None,
                imm: 0,
                target: 0,
            }, // 12
        ];
        // taken path loops again via 9 -> 2; fallthrough exits via 7 -> 11.
        p.code[6] = Inst::branch(Op::Bnez, r(10), 9);
        p.code[7] = Inst::jump(11);
        let before = fpa_sim::run_functional(&p, 100_000).unwrap();
        let removed = peephole(&mut p);
        assert!(removed > 0);
        let after = fpa_sim::run_functional(&p, 100_000).unwrap();
        assert_eq!(before.output, after.output);
        assert_eq!(before.exit_code, after.exit_code);
        assert!(after.total < before.total);
    }

    #[test]
    fn entry_point_remapped() {
        let mut p = Program::new();
        p.code = vec![
            Inst::jump(1),        // 0: j next -> removed
            Inst::bare(Op::Halt), // 1
        ];
        p.entry = 0;
        peephole(&mut p);
        assert_eq!(p.entry, 0);
        assert!(matches!(p.code[0].op, Op::Halt));
    }
}
