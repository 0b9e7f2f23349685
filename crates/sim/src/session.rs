//! Batched simulation sessions.
//!
//! A [`SimSession`] owns every piece of reusable simulator state — the
//! architectural machine (register files, memory image, output buffer),
//! a second machine the lockstep checker of [`SimSession::cosimulate`]
//! borrows, cache tag arrays, branch-predictor counters, the in-flight
//! entry slab with its waiter vectors, the completion heap, the store
//! index, and a content-addressed cache of prepared programs (see
//! `crate::dispatch`). Running many cells through one session costs
//! zero steady-state allocation and decodes each distinct program once,
//! no matter how many schemes, machine widths, or sweep points run it.
//!
//! Both machines keep their memory across runs and zero only the 4 KiB
//! pages the previous run wrote (see [`crate::Machine::reset`]), so a
//! run's fixed cost does not grow with the simulated address space. The
//! final memory of the last run stays in the session, readable through
//! [`SimSession::memory`].
//!
//! Results are bit-identical to fresh-state runs: the buffers carry
//! *allocations* across runs, never state (everything is reset at the
//! top of each run), which the session-hygiene property test in
//! `fpa-fuzz` verifies for every corpus reproducer, comparing timing,
//! functional and co-simulated results and final memory.
//!
//! The free functions [`crate::simulate`], [`crate::simulate_observed`],
//! [`crate::run_functional`], and [`crate::cosimulate`] all route through
//! a thread-local session (see [`with_session`]), so existing callers —
//! including each worker thread of a fuzz campaign — get cross-cell
//! reuse without holding a session explicitly.

use crate::config::MachineConfig;
use crate::cosim::{CosimObserver, CosimReport};
use crate::dispatch::{self, PreProgram};
use crate::exec::{ExecError, Machine};
use crate::func_sim::FuncSimResult;
use crate::observe::{NullObserver, SimObserver};
use crate::ooo::{self, FaultInjection, SessionBufs, TimingResult};
use fpa_isa::Program;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Prepared-program cache bound: past this many distinct programs the
/// cache is emptied wholesale. Far above any experiment sweep (eight
/// workloads × four schemes), it only triggers on fuzz campaigns, where
/// every case is a fresh program and caching is moot anyway.
const MAX_CACHED_PROGRAMS: usize = 192;

/// A reusable simulation context: arena-style simulator state plus a
/// shared pre-decoded program cache. See the [module docs](self).
///
/// Not `Sync`/`Send`-shareable — one session per thread; the harness's
/// batch runner gives each worker its own.
pub struct SimSession {
    bufs: SessionBufs,
    /// The lockstep checker's machine, lent to each co-simulated run.
    checker: Machine,
    programs: HashMap<u128, Rc<PreProgram>>,
}

impl SimSession {
    /// Creates an empty session.
    #[must_use]
    pub fn new() -> SimSession {
        SimSession {
            bufs: SessionBufs::new(),
            checker: Machine::empty(),
            programs: HashMap::new(),
        }
    }

    /// The final memory image of this session's last run (timing,
    /// functional or co-simulated; for a failed run, memory as the fault
    /// left it). Empty before the first run.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        self.bufs.machine.memory()
    }

    /// Returns the prepared form of `program`, decoding it on first
    /// sight and serving the cached table afterwards (content-addressed,
    /// so the same program object or an equal clone both hit).
    fn prepared(&mut self, program: &Program) -> Rc<PreProgram> {
        let key = dispatch::hash_program(program);
        if let Some(pre) = self.programs.get(&key) {
            return Rc::clone(pre);
        }
        if self.programs.len() >= MAX_CACHED_PROGRAMS {
            self.programs.clear();
        }
        let pre = Rc::new(dispatch::prepare(program));
        self.programs.insert(key, Rc::clone(&pre));
        pre
    }

    /// Session-backed [`crate::simulate`]: identical results, reused
    /// simulator state.
    ///
    /// # Errors
    ///
    /// Same as [`crate::simulate`].
    pub fn simulate(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        max_cycles: u64,
    ) -> Result<TimingResult, ExecError> {
        self.simulate_observed(program, config, max_cycles, &mut NullObserver)
    }

    /// Session-backed [`crate::simulate_observed`].
    ///
    /// # Errors
    ///
    /// Same as [`crate::simulate`].
    pub fn simulate_observed<O: SimObserver>(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        max_cycles: u64,
        obs: &mut O,
    ) -> Result<TimingResult, ExecError> {
        let pre = self.prepared(program);
        ooo::simulate_core(
            program,
            &pre,
            config,
            max_cycles,
            obs,
            FaultInjection::default(),
            &mut self.bufs,
        )
    }

    /// Session-backed [`crate::ooo::simulate_with_faults`].
    #[doc(hidden)]
    pub fn simulate_with_faults<O: SimObserver>(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        max_cycles: u64,
        obs: &mut O,
        faults: FaultInjection,
    ) -> Result<TimingResult, ExecError> {
        let pre = self.prepared(program);
        ooo::simulate_core(
            program,
            &pre,
            config,
            max_cycles,
            obs,
            faults,
            &mut self.bufs,
        )
    }

    /// Session-backed [`crate::run_functional`]: the direct-threaded
    /// fast path over the prepared program, with the instruction-mix
    /// counters derived from a flat visit-count array after the run
    /// instead of per-instruction bookkeeping.
    ///
    /// # Errors
    ///
    /// Same as [`crate::run_functional`].
    pub fn run_functional(
        &mut self,
        program: &Program,
        fuel: u64,
    ) -> Result<FuncSimResult, ExecError> {
        let pre = self.prepared(program);
        self.bufs.machine.reset(program);
        let (exit_code, total) = dispatch::run_functional_pre(
            &pre,
            program.entry,
            fuel,
            &mut self.bufs.machine,
            &mut self.bufs.pc_counts,
        )?;
        let counts = &self.bufs.pc_counts;
        let mut fp_subsystem = 0u64;
        let mut augmented = 0u64;
        let mut copies = 0u64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        for (pc, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let d = &pre.pre[pc].d;
            if d.subsystem == fpa_isa::Subsystem::Fp {
                fp_subsystem += count;
            }
            if d.is_augmented {
                augmented += count;
            }
            if d.is_copy {
                copies += count;
            }
            if d.is_load {
                loads += count;
            }
            if d.is_store {
                stores += count;
            }
        }
        Ok(FuncSimResult {
            exit_code,
            output: std::mem::take(&mut self.bufs.machine.output),
            total,
            fp_subsystem,
            augmented,
            copies,
            loads,
            stores,
        })
    }

    /// Session-backed [`crate::cosimulate`]: full lockstep co-simulation
    /// and invariant checking through the shared arena.
    ///
    /// # Errors
    ///
    /// Same as [`crate::simulate`].
    pub fn cosimulate(
        &mut self,
        program: &Program,
        config: &MachineConfig,
        max_cycles: u64,
    ) -> Result<CosimReport, ExecError> {
        let machine = std::mem::replace(&mut self.checker, Machine::empty());
        let mut obs = CosimObserver::with_machine(program, config, machine);
        let report = self
            .simulate_observed(program, config, max_cycles, &mut obs)
            .map(|result| {
                let violations = obs.finish(&result);
                CosimReport {
                    result,
                    violations,
                    total_violations: obs.total_violations(),
                    events: obs.events,
                }
            });
        // `finish` reads the checker machine's output, so the machine
        // comes back only after it ran.
        self.checker = obs.lockstep.machine;
        report
    }
}

impl Default for SimSession {
    fn default() -> Self {
        SimSession::new()
    }
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("cached_programs", &self.programs.len())
            .finish_non_exhaustive()
    }
}

thread_local! {
    static SESSION: RefCell<SimSession> = RefCell::new(SimSession::new());
}

/// Runs `f` with the calling thread's shared [`SimSession`]. This is how
/// the module-level `simulate`/`run_functional`/`cosimulate` entry points
/// get arena reuse transparently; call it directly to batch custom work.
///
/// Re-entrant calls (an observer that itself simulates) fall back to a
/// fresh transient session rather than aliasing the borrowed one.
pub fn with_session<R>(f: impl FnOnce(&mut SimSession) -> R) -> R {
    SESSION.with(|cell| match cell.try_borrow_mut() {
        Ok(mut session) => f(&mut session),
        Err(_) => f(&mut SimSession::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_isa::{DataItem, FpReg, Inst, IntReg, Op, Reg};

    fn counting_program(n: i32) -> Program {
        let r8: Reg = IntReg::new(8).into();
        let r9: Reg = IntReg::new(9).into();
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![
            Inst::li(Op::Li, r8, n),
            Inst::alu_imm(Op::Addi, r8, r8, -1),
            Inst::branch(Op::Bnez, r8, 1),
            Inst::li(Op::Li, r9, 7),
            Inst {
                op: Op::Halt,
                rd: None,
                rs: Some(r9),
                rt: None,
                imm: 0,
                target: 0,
            },
        ];
        p
    }

    /// The dirtier's global stores: two pages per store opcode, one
    /// opcode per page, so a store path that does not mark its page
    /// leaves that page stale for the next run.
    const GLOBAL_STORES: [(Op, i32); 8] = [
        (Op::Sw, 0x3004),
        (Op::Sw, 0x4ff0),
        (Op::Swf, 0x5010),
        (Op::Swf, 0x6ffc),
        (Op::Sb, 0x7003),
        (Op::Sb, 0x8802),
        (Op::Sd, 0x9008),
        (Op::Sd, 0xaff0),
    ];
    /// The dirtier's stack stores, as offsets from `stack_top`: one page
    /// per store opcode.
    const STACK_STORES: [(Op, i32); 4] = [
        (Op::Sw, -4),
        (Op::Swf, -0x1008),
        (Op::Sb, -0x2001),
        (Op::Sd, -0x3010),
    ];
    /// An unaligned word store whose last two bytes open page 11.
    const CROSSING: i32 = 0xaffe;

    fn with_rs(op: Op, rs: Reg) -> Inst {
        Inst {
            rs: Some(rs),
            ..Inst::bare(op)
        }
    }

    /// Writes every store opcode over many global and stack pages, after
    /// loading a data segment that spans pages 1 and 2.
    fn dirtier(stack_top: u32) -> Program {
        let r9: Reg = IntReg::new(9).into();
        let f2: Reg = FpReg::new(2).into();
        let mut p = Program::new();
        p.stack_top = stack_top;
        p.data.push(DataItem {
            addr: 0x1ff0,
            bytes: vec![0x11; 32],
            name: "spill".into(),
        });
        p.code = vec![
            Inst::li(Op::Li, r9, 0x1234_5678),
            Inst::li(Op::LiA, f2, -0x1357_9bdf),
        ];
        let value = |op| {
            if matches!(op, Op::Sw | Op::Sb) {
                r9
            } else {
                f2
            }
        };
        for (op, addr) in GLOBAL_STORES {
            p.code.push(Inst::store(op, value(op), IntReg::ZERO, addr));
        }
        for (op, off) in STACK_STORES {
            p.code.push(Inst::store(op, value(op), IntReg::SP, off));
        }
        p.code.push(Inst::store(Op::Sw, r9, IntReg::ZERO, CROSSING));
        p.code.push(with_rs(Op::Halt, r9));
        p
    }

    /// Loads the words its own data segment leaves at their initial
    /// values or zero — including every word the dirtier wrote and its
    /// data segment covered — folds them into one number, prints it and
    /// exits with it. Stale memory from an earlier run changes the fold.
    fn reader(stack_top: u32) -> Program {
        let (r10, r11, r12): (Reg, Reg, Reg) = (
            IntReg::new(10).into(),
            IntReg::new(11).into(),
            IntReg::new(12).into(),
        );
        let mut p = Program::new();
        p.stack_top = stack_top;
        p.data.push(DataItem {
            addr: 0x1000,
            bytes: vec![1, 2, 3, 4, 5, 6, 7, 8],
            name: "init".into(),
        });
        p.code = vec![Inst::li(Op::Li, r11, 0), Inst::li(Op::Li, r12, 31)];
        let words = [0x1000, 0x1004, 0x1008, 0x1ff0, 0x1ffc, 0x2000, 0x200c]
            .into_iter()
            .chain(GLOBAL_STORES.map(|(_, addr)| addr))
            .map(|addr| (IntReg::ZERO, addr))
            .chain(STACK_STORES.map(|(_, off)| (IntReg::SP, off)))
            .chain([(IntReg::ZERO, CROSSING), (IntReg::ZERO, CROSSING + 2)]);
        for (base, off) in words {
            p.code.extend([
                Inst::load(Op::Lw, r10, base, off & !3),
                Inst::alu(Op::Mul, r11, r11, r12),
                Inst::alu(Op::Add, r11, r11, r10),
            ]);
        }
        p.code.push(with_rs(Op::Print, r11));
        p.code.push(with_rs(Op::Halt, r11));
        p
    }

    #[test]
    fn session_reuse_is_invisible_in_results() {
        const FUEL: u64 = 1 << 20;
        let cfg = MachineConfig::four_way(true);
        let mut shared = SimSession::new();
        // Interleave the programs through one session, flipping the
        // address space between 64 KiB and 8 MiB; every result and final
        // memory must equal a fresh session's.
        for top in [0x1_0000, Program::DEFAULT_STACK_TOP].repeat(2) {
            let programs = [
                counting_program(500),
                dirtier(top),
                reader(top),
                counting_program(3),
            ];
            for p in &programs {
                let mut fresh = SimSession::new();
                let t = shared.simulate(p, &cfg, FUEL).unwrap();
                assert_eq!(t, fresh.simulate(p, &cfg, FUEL).unwrap());
                assert_eq!(t, crate::simulate_reference(p, &cfg, FUEL).unwrap());
                assert!(shared.memory() == fresh.memory(), "final memory differs");

                let mut fresh = SimSession::new();
                let f = shared.run_functional(p, FUEL).unwrap();
                assert_eq!(f, fresh.run_functional(p, FUEL).unwrap());
                assert!(shared.memory() == fresh.memory(), "final memory differs");

                let mut fresh = SimSession::new();
                let c = shared.cosimulate(p, &cfg, FUEL).unwrap();
                assert!(c.clean(), "{:?}", c.violations);
                assert_eq!(c, fresh.cosimulate(p, &cfg, FUEL).unwrap());
                assert!(shared.memory() == fresh.memory(), "final memory differs");
            }
            // The dirtier really wrote every page it targets.
            shared.run_functional(&programs[1], FUEL).unwrap();
            let mem = shared.memory();
            let word = |addr: usize| mem[addr & !3..(addr & !3) + 4] != [0; 4];
            assert!(GLOBAL_STORES.iter().all(|&(_, a)| word(a as usize)));
            assert!(STACK_STORES
                .iter()
                .all(|&(_, off)| word((top as i32 + off) as usize)));
            assert!(word(CROSSING as usize + 2));
        }
        // Four distinct programs decoded (the stack size is not part of
        // a program's code), each exactly once.
        assert_eq!(shared.programs.len(), 4);
    }

    #[test]
    fn functional_fast_path_matches_interpreter_shape() {
        let p = counting_program(10);
        let r = SimSession::new().run_functional(&p, 10_000).unwrap();
        assert_eq!(r.exit_code, 7);
        // 1 li + 10 × (addi, bnez) + li + halt.
        assert_eq!(r.total, 23);
    }

    #[test]
    fn program_cache_is_bounded() {
        let mut s = SimSession::new();
        for i in 0..(MAX_CACHED_PROGRAMS as i32 + 10) {
            // Distinct programs (different immediate) fill the cache.
            let p = counting_program(i + 1);
            s.run_functional(&p, 1 << 20).unwrap();
        }
        assert!(s.programs.len() <= MAX_CACHED_PROGRAMS);
    }
}
