//! Retire-time co-simulation and structural invariant checking.
//!
//! The timing simulator is oracle-driven: the architectural machine
//! executes at fetch, so a scoreboard or sequencing bug cannot corrupt
//! *values* — it corrupts *which* instructions flow through the pipeline
//! and *when*. This module closes that verification gap with two passive
//! [`SimObserver`]s (the sim-outorder functional/timing split):
//!
//! * [`LockstepChecker`] — owns an independent functional [`Machine`] and
//!   advances it one instruction per retirement, diffing program order
//!   (retired pc must equal the functional pc), every register write,
//!   every memory store, every conditional-branch direction, and the
//!   final exit code / output / retirement count.
//! * [`InvariantChecker`] — checks structural pipeline invariants over
//!   the raw event stream: instructions move fetch → dispatch → issue →
//!   writeback → retire, retirement is in order, nothing issues before
//!   its operands wrote back, per-cycle dispatch/issue/retire widths and
//!   per-subsystem functional-unit and load/store-port limits hold,
//!   issue-window occupancy never exceeds capacity, augmented (`*A`)
//!   opcodes issue only to FP units, and the final event totals
//!   (retired, augmented, copies, per-subsystem issues) reconcile with
//!   the [`TimingResult`] counters.
//!
//! [`cosimulate`] bundles both checkers plus [`EventCounters`] telemetry
//! into one observed run. Both checkers stop checking after their first
//! violation (`dead`), because a sequencing divergence makes every later
//! event suspect; the first diagnostic is the actionable one.

use crate::config::MachineConfig;
use crate::exec::{ExecError, Machine, Step};
use crate::observe::{
    DispatchEvent, EventCounters, FetchEvent, IssueEvent, RetireEvent, SimObserver, WritebackEvent,
};
use crate::ooo::TimingResult;
use fpa_isa::{Op, Program, Subsystem};
use std::collections::VecDeque;
use std::fmt;

/// Stored-violation cap per checker (the total is still counted).
const MAX_STORED: usize = 32;

/// One co-simulation or invariant violation: cycle-stamped and
/// instruction-identified.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Cycle the violation was detected.
    pub cycle: u64,
    /// Sequence number of the offending instruction (program order).
    pub seq: u64,
    /// Its address, when the event carries one.
    pub pc: Option<u32>,
    /// Its opcode, when the event carries one.
    pub op: Option<Op>,
    /// Short stable name of the violated check, e.g. `lockstep-pc`.
    pub check: &'static str,
    /// Human-readable expected-vs-got detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}, inst #{}", self.cycle, self.seq)?;
        if let Some(pc) = self.pc {
            write!(f, " (pc {pc}")?;
            if let Some(op) = self.op {
                write!(f, ": {op}")?;
            }
            write!(f, ")")?;
        }
        write!(f, ": {}: {}", self.check, self.detail)
    }
}

fn truncate(s: &str, limit: usize) -> String {
    if s.len() <= limit {
        return s.to_string();
    }
    let mut end = limit;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… ({} bytes total)", &s[..end], s.len())
}

/// Lockstep architectural co-simulation (see the module docs).
#[derive(Debug)]
pub struct LockstepChecker {
    program: Program,
    /// The functional machine; a session takes it back after the run.
    pub(crate) machine: Machine,
    pc: u32,
    steps: u64,
    halted: bool,
    exit_code: i32,
    dead: bool,
    violations: Vec<Violation>,
    total_violations: u64,
}

impl LockstepChecker {
    /// Creates a checker with its own functional machine for `program`.
    #[must_use]
    pub fn new(program: &Program) -> LockstepChecker {
        LockstepChecker::with_machine(program, Machine::empty())
    }

    /// [`Self::new`] on a lent machine, which is reset for `program`, so
    /// a session reuses one checker machine across runs.
    pub(crate) fn with_machine(program: &Program, mut machine: Machine) -> LockstepChecker {
        machine.reset(program);
        LockstepChecker {
            machine,
            pc: program.entry,
            program: program.clone(),
            steps: 0,
            halted: false,
            exit_code: 0,
            dead: false,
            violations: Vec::new(),
            total_violations: 0,
        }
    }

    /// Violations recorded so far (capped; see [`Self::total_violations`]).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations, including ones beyond the storage cap.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    fn record(
        &mut self,
        cycle: u64,
        seq: u64,
        pc: Option<u32>,
        op: Option<Op>,
        check: &'static str,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(Violation {
                cycle,
                seq,
                pc,
                op,
                check,
                detail,
            });
        }
    }

    /// End-of-run checks against the timing totals. Call once, after the
    /// simulation returned.
    pub fn finish(&mut self, result: &TimingResult) {
        if self.dead {
            return;
        }
        let c = result.cycles;
        if !self.halted {
            self.record(
                c,
                self.steps,
                None,
                None,
                "lockstep-final",
                "timing simulation finished but the functional machine never halted".into(),
            );
            return;
        }
        if self.exit_code != result.exit_code {
            self.record(
                c,
                self.steps,
                None,
                None,
                "lockstep-final",
                format!(
                    "exit code {} functionally, {} in the timing result",
                    self.exit_code, result.exit_code
                ),
            );
        }
        if self.machine.output != result.output {
            self.record(
                c,
                self.steps,
                None,
                None,
                "lockstep-final",
                format!(
                    "output {:?} functionally, {:?} in the timing result",
                    truncate(&self.machine.output, 120),
                    truncate(&result.output, 120)
                ),
            );
        }
        if self.steps != result.retired {
            self.record(
                c,
                self.steps,
                None,
                None,
                "lockstep-final",
                format!(
                    "{} instructions executed functionally, {} retired",
                    self.steps, result.retired
                ),
            );
        }
    }
}

impl SimObserver for LockstepChecker {
    fn on_retire(&mut self, e: &RetireEvent<'_>) {
        if self.dead {
            return;
        }
        if self.halted {
            self.record(
                e.cycle,
                e.seq,
                Some(e.pc),
                Some(e.op),
                "lockstep-halt",
                "instruction retired after the functional machine halted".into(),
            );
            self.dead = true;
            return;
        }
        if e.pc != self.pc {
            self.record(
                e.cycle,
                e.seq,
                Some(e.pc),
                Some(e.op),
                "lockstep-pc",
                format!(
                    "timing retired pc {} but program order expects pc {}",
                    e.pc, self.pc
                ),
            );
            self.dead = true;
            return;
        }
        let Some(inst) = self.program.code.get(self.pc as usize).copied() else {
            self.record(
                e.cycle,
                e.seq,
                Some(e.pc),
                Some(e.op),
                "lockstep-pc",
                format!("pc {} is outside the code segment", self.pc),
            );
            self.dead = true;
            return;
        };
        if inst.op != e.op {
            self.record(
                e.cycle,
                e.seq,
                Some(e.pc),
                Some(e.op),
                "lockstep-op",
                format!("timing retired {} but pc {} holds {}", e.op, e.pc, inst.op),
            );
            self.dead = true;
            return;
        }
        let step = match self.machine.exec(&inst, self.pc) {
            Ok(s) => s,
            Err(err) => {
                self.record(
                    e.cycle,
                    e.seq,
                    Some(e.pc),
                    Some(e.op),
                    "lockstep-exec",
                    format!("functional execution faulted: {err}"),
                );
                self.dead = true;
                return;
            }
        };
        self.steps += 1;

        if let Some((r, v)) = e.effect.dest {
            let got = self.machine.reg_raw(r);
            if got != v {
                self.record(
                    e.cycle,
                    e.seq,
                    Some(e.pc),
                    Some(e.op),
                    "lockstep-reg",
                    format!("{r} = {got:#x} functionally, {v:#x} in the timing oracle"),
                );
            }
        }
        if let Some(s) = e.effect.store {
            let lo = s.addr as usize;
            let n = s.bytes as usize;
            let mut buf = [0u8; 8];
            if lo + n <= self.machine.mem.len() {
                buf[..n].copy_from_slice(&self.machine.mem[lo..lo + n]);
            }
            let got = u64::from_le_bytes(buf);
            if got != s.data {
                self.record(
                    e.cycle,
                    e.seq,
                    Some(e.pc),
                    Some(e.op),
                    "lockstep-mem",
                    format!(
                        "[{:#x};{}] = {got:#x} functionally, {:#x} in the timing oracle",
                        s.addr, s.bytes, s.data
                    ),
                );
            }
        }
        if let Some(taken) = e.effect.taken {
            let func_taken = matches!(step, Step::Jump(_));
            if func_taken != taken {
                self.record(
                    e.cycle,
                    e.seq,
                    Some(e.pc),
                    Some(e.op),
                    "lockstep-branch",
                    format!("taken={func_taken} functionally, taken={taken} in the timing oracle"),
                );
            }
        }
        match (e.halt, step) {
            (Some(code), Step::Halt(fcode)) => {
                if code != fcode {
                    self.record(
                        e.cycle,
                        e.seq,
                        Some(e.pc),
                        Some(e.op),
                        "lockstep-exit",
                        format!("exit code {fcode} functionally, {code} in the timing oracle"),
                    );
                }
            }
            (Some(_), _) => self.record(
                e.cycle,
                e.seq,
                Some(e.pc),
                Some(e.op),
                "lockstep-exit",
                "timing retired a halt but functional execution continues".into(),
            ),
            (None, Step::Halt(_)) => self.record(
                e.cycle,
                e.seq,
                Some(e.pc),
                Some(e.op),
                "lockstep-exit",
                "functional execution halted but the timing retirement is not a halt".into(),
            ),
            (None, _) => {}
        }
        match step {
            Step::Next => self.pc += 1,
            Step::Jump(t) => self.pc = t,
            Step::Halt(code) => {
                self.halted = true;
                self.exit_code = code;
            }
        }
    }
}

/// Per-instruction pipeline state tracked by the invariant checker.
#[derive(Debug, Clone)]
struct Slot {
    op: Op,
    window: Option<Subsystem>,
    dispatched: bool,
    issued: bool,
    wb_at: Option<u64>,
    expected_done: u64,
    mem_port: bool,
    subsystem: Subsystem,
}

/// Per-cycle event counts, reset whenever the cycle advances.
#[derive(Debug, Clone, Copy, Default)]
struct CycleCounts {
    cycle: u64,
    dispatched: u32,
    retired: u32,
    issued_int: u32,
    issued_fp: u32,
    issued_mem: u32,
    issued_total: u32,
}

/// Structural microarchitectural invariant checking (see module docs).
///
/// State is a sliding window over the instructions currently in flight
/// (sequence numbers are dense, retirement pops the front), so memory
/// stays bounded by the machine's in-flight capacity even on
/// multi-million-instruction runs.
#[derive(Debug)]
pub struct InvariantChecker {
    cfg: MachineConfig,
    slots: VecDeque<Slot>,
    base_seq: u64,
    next_fetch_seq: u64,
    counts: CycleCounts,
    int_window_used: u32,
    fp_window_used: u32,
    retired: u64,
    augmented_retired: u64,
    copies_retired: u64,
    issued_int_like: u64,
    issued_fp: u64,
    fetched: u64,
    dead: bool,
    violations: Vec<Violation>,
    total_violations: u64,
}

impl InvariantChecker {
    /// Creates a checker for a machine with `config`'s widths and limits.
    #[must_use]
    pub fn new(config: &MachineConfig) -> InvariantChecker {
        InvariantChecker {
            cfg: config.clone(),
            slots: VecDeque::new(),
            base_seq: 0,
            next_fetch_seq: 0,
            counts: CycleCounts::default(),
            int_window_used: 0,
            fp_window_used: 0,
            retired: 0,
            augmented_retired: 0,
            copies_retired: 0,
            issued_int_like: 0,
            issued_fp: 0,
            fetched: 0,
            dead: false,
            violations: Vec::new(),
            total_violations: 0,
        }
    }

    /// Violations recorded so far (capped; see [`Self::total_violations`]).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations, including ones beyond the storage cap.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    fn record(
        &mut self,
        cycle: u64,
        seq: u64,
        op: Option<Op>,
        check: &'static str,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(Violation {
                cycle,
                seq,
                pc: None,
                op,
                check,
                detail,
            });
        }
    }

    fn roll(&mut self, cycle: u64) {
        if self.counts.cycle != cycle {
            self.counts = CycleCounts {
                cycle,
                ..CycleCounts::default()
            };
        }
    }

    /// Looks up the in-flight slot for `seq`; `None` kills the checker.
    fn slot_index(&mut self, cycle: u64, seq: u64, stage: &'static str) -> Option<usize> {
        if seq >= self.base_seq {
            let idx = (seq - self.base_seq) as usize;
            if idx < self.slots.len() {
                return Some(idx);
            }
        }
        self.record(
            cycle,
            seq,
            None,
            "pipeline-order",
            format!("{stage} event for an instruction that is not in flight"),
        );
        self.dead = true;
        None
    }

    /// End-of-run reconciliation against the timing counters. Call once,
    /// after the simulation returned.
    pub fn finish(&mut self, result: &TimingResult) {
        if self.dead {
            return;
        }
        let c = result.cycles;
        let pairs = [
            ("retired", self.retired, result.retired),
            (
                "augmented",
                self.augmented_retired,
                result.augmented_retired,
            ),
            ("copies", self.copies_retired, result.copies_retired),
            ("int issues", self.issued_int_like, result.int_issued),
            ("fp issues", self.issued_fp, result.fp_issued),
            ("fetched-vs-retired", self.fetched, result.retired),
        ];
        for (name, got, want) in pairs {
            if got != want {
                self.record(
                    c,
                    self.retired,
                    None,
                    "counter-reconcile",
                    format!("{name}: {got} from events, {want} in TimingResult"),
                );
            }
        }
        if !self.slots.is_empty() {
            self.record(
                c,
                self.base_seq,
                None,
                "pipeline-drain",
                format!("{} instructions still in flight at halt", self.slots.len()),
            );
        }
    }
}

impl SimObserver for InvariantChecker {
    fn on_fetch(&mut self, e: &FetchEvent) {
        if self.dead {
            return;
        }
        if e.seq != self.next_fetch_seq {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "fetch-order",
                format!("fetched seq {} but {} is next", e.seq, self.next_fetch_seq),
            );
            self.dead = true;
            return;
        }
        self.next_fetch_seq += 1;
        self.fetched += 1;
        self.slots.push_back(Slot {
            op: e.op,
            window: None,
            dispatched: false,
            issued: false,
            wb_at: None,
            expected_done: 0,
            mem_port: false,
            subsystem: Subsystem::Int,
        });
    }

    fn on_dispatch(&mut self, e: &DispatchEvent) {
        if self.dead {
            return;
        }
        self.roll(e.cycle);
        self.counts.dispatched += 1;
        if self.counts.dispatched > self.cfg.decode_width {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "dispatch-width",
                format!(
                    "{} dispatches in one cycle (limit {})",
                    self.counts.dispatched, self.cfg.decode_width
                ),
            );
        }
        if e.op.mem_bytes().is_some() && e.window == Subsystem::Fp {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "window-class",
                "memory operation dispatched to the FP window".into(),
            );
        }
        let Some(idx) = self.slot_index(e.cycle, e.seq, "dispatch") else {
            return;
        };
        let slot = &mut self.slots[idx];
        if slot.dispatched {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "pipeline-order",
                "instruction dispatched twice".into(),
            );
            self.dead = true;
            return;
        }
        slot.dispatched = true;
        slot.window = Some(e.window);
        let (used, cap) = match e.window {
            Subsystem::Int => (&mut self.int_window_used, self.cfg.int_window),
            Subsystem::Fp => (&mut self.fp_window_used, self.cfg.fp_window),
        };
        *used += 1;
        if *used > cap {
            let over = *used;
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "window-overflow",
                format!("{} window holds {over} entries (capacity {cap})", e.window),
            );
        }
    }

    fn on_issue(&mut self, e: &IssueEvent<'_>) {
        if self.dead {
            return;
        }
        self.roll(e.cycle);
        self.counts.issued_total += 1;
        if self.counts.issued_total > self.cfg.decode_width {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "issue-width",
                format!(
                    "{} issues in one cycle (limit {})",
                    self.counts.issued_total, self.cfg.decode_width
                ),
            );
        }
        if e.mem_port {
            self.counts.issued_mem += 1;
            if self.counts.issued_mem > self.cfg.ls_ports {
                self.record(
                    e.cycle,
                    e.seq,
                    Some(e.op),
                    "ls-port-limit",
                    format!(
                        "{} memory issues in one cycle ({} ports)",
                        self.counts.issued_mem, self.cfg.ls_ports
                    ),
                );
            }
        } else {
            let (count, cap, name) = match e.subsystem {
                Subsystem::Int => (&mut self.counts.issued_int, self.cfg.int_units, "INT"),
                Subsystem::Fp => (&mut self.counts.issued_fp, self.cfg.fp_units, "FP"),
            };
            *count += 1;
            if *count > cap {
                let over = *count;
                self.record(
                    e.cycle,
                    e.seq,
                    Some(e.op),
                    "fu-limit",
                    format!("{over} {name} issues in one cycle ({cap} units)"),
                );
            }
        }
        if e.op.is_augmented() && (e.subsystem != Subsystem::Fp || e.mem_port) {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "fpa-placement",
                "augmented opcode issued outside the FP subsystem".into(),
            );
        }
        if e.op.subsystem() != e.subsystem {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "subsystem-mismatch",
                format!(
                    "{} opcode issued on the {} side",
                    e.op.subsystem(),
                    e.subsystem
                ),
            );
        }
        if e.mem_port || e.subsystem == Subsystem::Int {
            self.issued_int_like += 1;
        } else {
            self.issued_fp += 1;
        }
        // Operand readiness: every renamed source must have written back
        // by now (writebacks precede issues within a cycle). Sources
        // below the window base retired long ago.
        for &s in e.srcs {
            if s < self.base_seq {
                continue;
            }
            let idx = (s - self.base_seq) as usize;
            let ready = self
                .slots
                .get(idx)
                .is_some_and(|p| p.wb_at.is_some_and(|w| w <= e.cycle));
            if !ready {
                self.record(
                    e.cycle,
                    e.seq,
                    Some(e.op),
                    "issue-before-ready",
                    format!("source inst #{s} has not written back"),
                );
            }
        }
        let Some(idx) = self.slot_index(e.cycle, e.seq, "issue") else {
            return;
        };
        let slot = &mut self.slots[idx];
        if !slot.dispatched || slot.issued {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "pipeline-order",
                "issue without a prior dispatch (or issued twice)".into(),
            );
            self.dead = true;
            return;
        }
        slot.issued = true;
        slot.expected_done = e.done_at;
        slot.mem_port = e.mem_port;
        slot.subsystem = e.subsystem;
        match slot.window {
            Some(Subsystem::Int) => self.int_window_used -= 1,
            Some(Subsystem::Fp) => self.fp_window_used -= 1,
            None => {}
        }
    }

    fn on_writeback(&mut self, e: &WritebackEvent) {
        if self.dead {
            return;
        }
        let Some(idx) = self.slot_index(e.cycle, e.seq, "writeback") else {
            return;
        };
        let slot = &mut self.slots[idx];
        if !slot.issued || slot.wb_at.is_some() {
            let op = slot.op;
            self.record(
                e.cycle,
                e.seq,
                Some(op),
                "pipeline-order",
                "writeback without a prior issue (or written back twice)".into(),
            );
            self.dead = true;
            return;
        }
        slot.wb_at = Some(e.cycle);
        if e.cycle != slot.expected_done {
            let (op, want) = (slot.op, slot.expected_done);
            self.record(
                e.cycle,
                e.seq,
                Some(op),
                "writeback-time",
                format!("wrote back at cycle {} but issue promised {want}", e.cycle),
            );
        }
    }

    fn on_retire(&mut self, e: &RetireEvent<'_>) {
        if self.dead {
            return;
        }
        self.roll(e.cycle);
        self.counts.retired += 1;
        if self.counts.retired > self.cfg.retire_width {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "retire-width",
                format!(
                    "{} retirements in one cycle (limit {})",
                    self.counts.retired, self.cfg.retire_width
                ),
            );
        }
        if e.seq != self.base_seq {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "retire-order",
                format!(
                    "retired inst #{} while #{} is the oldest in flight",
                    e.seq, self.base_seq
                ),
            );
            self.dead = true;
            return;
        }
        let Some(slot) = self.slots.pop_front() else {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "pipeline-order",
                "retirement with nothing in flight".into(),
            );
            self.dead = true;
            return;
        };
        self.base_seq += 1;
        if slot.wb_at.is_none() {
            self.record(
                e.cycle,
                e.seq,
                Some(e.op),
                "retire-before-complete",
                "instruction retired before writing back".into(),
            );
        }
        self.retired += 1;
        if e.op.is_augmented() {
            self.augmented_retired += 1;
        }
        if matches!(e.op, Op::CpToFpa | Op::CpToInt) {
            self.copies_retired += 1;
        }
    }
}

/// The composite observer [`cosimulate`] uses: lockstep co-simulation,
/// structural invariants, and event telemetry in one pass.
#[derive(Debug)]
pub struct CosimObserver {
    /// Architectural lockstep checker.
    pub lockstep: LockstepChecker,
    /// Structural invariant checker.
    pub invariants: InvariantChecker,
    /// Event telemetry counters.
    pub events: EventCounters,
}

impl CosimObserver {
    /// Creates the composite observer for one `(program, config)` run.
    #[must_use]
    pub fn new(program: &Program, config: &MachineConfig) -> CosimObserver {
        CosimObserver::with_machine(program, config, Machine::empty())
    }

    /// [`Self::new`] with the lockstep checker on a lent machine (see
    /// [`LockstepChecker::with_machine`]).
    pub(crate) fn with_machine(
        program: &Program,
        config: &MachineConfig,
        machine: Machine,
    ) -> CosimObserver {
        CosimObserver {
            lockstep: LockstepChecker::with_machine(program, machine),
            invariants: InvariantChecker::new(config),
            events: EventCounters::default(),
        }
    }

    /// Runs both checkers' end-of-run reconciliation and returns every
    /// violation, ordered by detection cycle.
    pub fn finish(&mut self, result: &TimingResult) -> Vec<Violation> {
        self.lockstep.finish(result);
        self.invariants.finish(result);
        let mut all: Vec<Violation> = self
            .lockstep
            .violations()
            .iter()
            .chain(self.invariants.violations())
            .cloned()
            .collect();
        all.sort_by_key(|v| (v.cycle, v.seq));
        all
    }

    /// Total violations across both checkers (including beyond the
    /// storage cap).
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.lockstep.total_violations() + self.invariants.total_violations()
    }
}

impl SimObserver for CosimObserver {
    fn on_fetch(&mut self, e: &FetchEvent) {
        self.lockstep.on_fetch(e);
        self.invariants.on_fetch(e);
        self.events.on_fetch(e);
    }

    fn on_dispatch(&mut self, e: &DispatchEvent) {
        self.lockstep.on_dispatch(e);
        self.invariants.on_dispatch(e);
        self.events.on_dispatch(e);
    }

    fn on_issue(&mut self, e: &IssueEvent<'_>) {
        self.lockstep.on_issue(e);
        self.invariants.on_issue(e);
        self.events.on_issue(e);
    }

    fn on_writeback(&mut self, e: &WritebackEvent) {
        self.lockstep.on_writeback(e);
        self.invariants.on_writeback(e);
        self.events.on_writeback(e);
    }

    fn on_retire(&mut self, e: &RetireEvent<'_>) {
        self.lockstep.on_retire(e);
        self.invariants.on_retire(e);
        self.events.on_retire(e);
    }
}

/// Outcome of one co-simulated timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimReport {
    /// The timing result (identical to an unobserved [`crate::simulate`]).
    pub result: TimingResult,
    /// Violations from both checkers, ordered by cycle (capped per
    /// checker; `total_violations` counts all).
    pub violations: Vec<Violation>,
    /// Total violations detected, including beyond the storage cap.
    pub total_violations: u64,
    /// Pipeline-event telemetry.
    pub events: EventCounters,
}

impl CosimReport {
    /// True when the run passed every lockstep and invariant check.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.total_violations == 0
    }
}

/// Runs `program` through the timing simulator under full lockstep
/// co-simulation and invariant checking.
///
/// Uses the calling thread's shared [`crate::session::SimSession`]; see
/// [`crate::SimSession::cosimulate`] for explicit batched use.
///
/// # Errors
///
/// Same as [`crate::simulate`].
pub fn cosimulate(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
) -> Result<CosimReport, ExecError> {
    crate::session::with_session(|s| s.cosimulate(program, config, max_cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpa_isa::{FpReg, Inst, IntReg, Reg};

    fn cfg() -> MachineConfig {
        MachineConfig::four_way(true)
    }

    fn mixed_loop() -> Program {
        // INT loop with FPa work and a store/load pair each iteration.
        let r8: Reg = IntReg::new(8).into();
        let r9: Reg = IntReg::new(9).into();
        let f2: Reg = FpReg::new(2).into();
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![
            Inst::li(Op::Li, r8, 0),                     // 0
            Inst::li(Op::LiA, f2, 0),                    // 1
            Inst::li(Op::Li, r9, 0x2000),                // 2
            Inst::alu_imm(Op::AddiA, f2, f2, 3),         // 3: loop
            Inst::store(Op::Swf, f2, IntReg::new(9), 0), // 4
            Inst::load(Op::Lw, r8, IntReg::new(9), 0),   // 5
            Inst::alu_imm(Op::Slti, r8, r8, 600),        // 6
            Inst::branch(Op::Bnez, r8, 3),               // 7
            Inst::unary(Op::CpToInt, r8, f2),            // 8
            Inst {
                op: Op::Print,
                rd: None,
                rs: Some(r8),
                rt: None,
                imm: 0,
                target: 0,
            }, // 9
            Inst {
                op: Op::Halt,
                rd: None,
                rs: Some(r8),
                rt: None,
                imm: 0,
                target: 0,
            }, // 10
        ];
        p
    }

    #[test]
    fn clean_run_has_zero_violations() {
        let p = mixed_loop();
        let r = cosimulate(&p, &cfg(), 1_000_000).expect("cosimulate");
        assert!(
            r.clean(),
            "violations: {:?}",
            r.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
        assert_eq!(r.result.output, "600\n");
        assert_eq!(r.events.retired, r.result.retired);
        assert_eq!(r.events.fetched, r.result.retired);
        assert_eq!(
            r.events.issued_int + r.events.issued_mem,
            r.result.int_issued
        );
        assert_eq!(r.events.issued_fp, r.result.fp_issued);
        assert_eq!(r.events.writebacks, r.result.retired);
    }

    #[test]
    fn observation_does_not_change_timing() {
        let p = mixed_loop();
        let plain = crate::ooo::simulate(&p, &cfg(), 1_000_000).expect("simulate");
        let co = cosimulate(&p, &cfg(), 1_000_000).expect("cosimulate");
        assert_eq!(plain.cycles, co.result.cycles);
        assert_eq!(plain.retired, co.result.retired);
        assert_eq!(plain.int_issued, co.result.int_issued);
        assert_eq!(plain.fp_issued, co.result.fp_issued);
    }

    #[test]
    fn violation_display_is_cycle_stamped_and_instruction_identified() {
        let v = Violation {
            cycle: 42,
            seq: 7,
            pc: Some(3),
            op: Some(Op::Addi),
            check: "lockstep-pc",
            detail: "timing retired pc 3 but program order expects pc 2".into(),
        };
        let s = v.to_string();
        assert!(s.contains("cycle 42"), "{s}");
        assert!(s.contains("inst #7"), "{s}");
        assert!(s.contains("pc 3"), "{s}");
        assert!(s.contains("lockstep-pc"), "{s}");
    }
}
