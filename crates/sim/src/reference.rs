//! The reference out-of-order timing engine: the original per-cycle
//! loop that rescans the full instruction window every cycle.
//!
//! [`crate::ooo::simulate`] replaced this loop with a wakeup-driven fast
//! path (pre-decoded program, ready queues, indexed store forwarding,
//! cycle skipping). The naive loop is kept, frozen, for two jobs:
//!
//! * **Equivalence testing** — the fast path must reproduce this
//!   engine's [`TimingResult`] field-for-field and its `SimObserver`
//!   event stream bit-for-bit (`tests/equivalence` in `fpa-harness`,
//!   plus the unit tests in `crate::ooo`).
//! * **Fault injection** — the co-simulation layer's mutation tests
//!   inject scoreboard/sequencing defects to prove the checkers catch
//!   them; those defects are expressed against this loop's explicit
//!   full-window scan, so [`crate::ooo::simulate_with_faults`] routes
//!   here whenever a fault is armed.
//!
//! Because this file is the semantic spec for the fast path, it must not
//! be "improved": any behavioural change here silently redefines what
//! the optimized engine is checked against.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::exec::{ExecError, Machine, Step};
use crate::observe::{
    DispatchEvent, FetchEvent, InstEffect, IssueEvent, NullObserver, RetireEvent, SimObserver,
    StoreEffect, WritebackEvent,
};
use crate::ooo::{FaultInjection, TimingResult};
use crate::predictor::Gshare;
use fpa_isa::{Op, Program, Reg, Subsystem};
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    pc: u32,
    op: Op,
    subsystem: Subsystem,
    srcs: Vec<u64>,
    dest: Option<Reg>,
    issued: bool,
    done_at: u64,
    wb_emitted: bool,
    addr: Option<u32>,
    latency_hint: u32,
    halt: Option<i32>,
    resolves_fetch: bool,
    effect: InstEffect,
}

const NOT_DONE: u64 = u64::MAX;

/// Runs `program` on the reference (naive full-scan) engine. Same
/// contract as [`crate::ooo::simulate`]; kept as the baseline the fast
/// path is proven against.
///
/// # Errors
///
/// Returns an [`ExecError`] from the architectural oracle or
/// [`ExecError::OutOfFuel`] when the cycle budget is exhausted.
pub fn simulate_reference(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
) -> Result<TimingResult, ExecError> {
    simulate_naive(
        program,
        config,
        max_cycles,
        &mut NullObserver,
        FaultInjection::default(),
        &mut Machine::empty(),
    )
}

/// The reference engine over a lent architectural machine, which it
/// resets for `program` and leaves holding the run's final state.
#[allow(clippy::too_many_lines)]
pub(crate) fn simulate_naive<O: SimObserver>(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
    obs: &mut O,
    faults: FaultInjection,
    oracle: &mut Machine,
) -> Result<TimingResult, ExecError> {
    oracle.reset(program);
    let mut icache = Cache::new(config.icache);
    let mut dcache = Cache::new(config.dcache);
    let mut gshare = Gshare::new(config.gshare_bits);

    let mut rob: VecDeque<Entry> = VecDeque::new();
    let mut fetch_queue: VecDeque<Entry> = VecDeque::new();
    let fetch_queue_cap = config.fetch_width as usize;

    let mut rename: HashMap<Reg, u64> = HashMap::new();
    let mut next_seq = 0u64;
    let mut fetch_pc = program.entry;
    let mut fetch_stall_until = 0u64;
    let mut fetch_halted = false;
    let mut exit_code = 0i32;

    let mut int_window_used = 0u32;
    let mut fp_window_used = 0u32;
    let mut int_phys_free = config.int_phys - 32;
    let mut fp_phys_free = config.fp_phys - 32;

    // In-flight stores: (seq, addr, bytes, issued).
    let mut store_queue: VecDeque<(u64, u32, u32, bool)> = VecDeque::new();

    let mut retired = 0u64;
    let mut int_issued = 0u64;
    let mut fp_issued = 0u64;
    let mut augmented_retired = 0u64;
    let mut int_idle_fp_busy = 0u64;
    let mut fetch_stall_cycles = 0u64;
    let mut int_window_occupancy_sum = 0u64;
    let mut fp_window_occupancy_sum = 0u64;
    let mut copies_retired = 0u64;

    let issue_width = config.decode_width; // Table 1: "up to 4 ops/cycle"
    let mut fault_retire_fired = false;

    let mut cycle = 0u64;
    loop {
        if cycle >= max_cycles {
            return Err(ExecError::OutOfFuel);
        }

        // ---- Writeback ---------------------------------------------------
        // Results become visible at `done_at`; announce each exactly once,
        // before this cycle's retirements and issue-readiness checks.
        for e in &mut rob {
            if e.issued && !e.wb_emitted && e.done_at <= cycle {
                e.wb_emitted = true;
                obs.on_writeback(&WritebackEvent { cycle, seq: e.seq });
            }
        }

        // ---- Retire ------------------------------------------------------
        let mut retired_this_cycle = 0;
        while retired_this_cycle < config.retire_width {
            let Some(front) = rob.front() else { break };
            let head_done = front.issued && front.done_at <= cycle;
            let e = if head_done {
                rob.pop_front().expect("checked")
            } else if faults.retire_out_of_order
                && !fault_retire_fired
                && rob.get(1).is_some_and(|n| n.issued && n.done_at <= cycle)
            {
                fault_retire_fired = true;
                rob.remove(1).expect("checked")
            } else {
                break;
            };
            retired += 1;
            retired_this_cycle += 1;
            if e.op.is_augmented() {
                augmented_retired += 1;
            }
            if matches!(e.op, Op::CpToFpa | Op::CpToInt) {
                copies_retired += 1;
            }
            match e.dest {
                Some(Reg::Int(_)) => int_phys_free += 1,
                Some(Reg::Fp(_)) => fp_phys_free += 1,
                None => {}
            }
            while store_queue.front().is_some_and(|s| s.0 <= e.seq) {
                store_queue.pop_front();
            }
            obs.on_retire(&RetireEvent {
                cycle,
                seq: e.seq,
                pc: e.pc,
                op: e.op,
                effect: &e.effect,
                halt: e.halt,
            });
            if let Some(code) = e.halt {
                return Ok(TimingResult {
                    cycles: cycle + 1,
                    retired,
                    exit_code: code,
                    output: std::mem::take(&mut oracle.output),
                    int_issued,
                    fp_issued,
                    augmented_retired,
                    int_idle_fp_busy,
                    branch_predictions: gshare.predictions,
                    branch_mispredictions: gshare.mispredictions,
                    icache: (icache.accesses, icache.misses),
                    dcache: (dcache.accesses, dcache.misses),
                    fetch_stall_cycles,
                    int_window_occupancy_sum,
                    fp_window_occupancy_sum,
                    copies_retired,
                });
            }
        }
        let _ = exit_code;

        // ---- Issue -------------------------------------------------------
        let mut int_fu = config.int_units;
        let mut fp_fu = config.fp_units;
        let mut ls = config.ls_ports;
        let mut issued_total = 0u32;
        let mut int_issued_now = 0u64;
        let mut fp_issued_now = 0u64;
        let head_seq = rob.front().map_or(next_seq, |e| e.seq);
        // Collect issue decisions first to keep borrows simple.
        let mut unissued_store_seen = false;
        let mut decisions: Vec<(usize, u64)> = Vec::new(); // (rob idx, done_at)
        for idx in 0..rob.len() {
            if issued_total >= issue_width {
                break;
            }
            let e = &rob[idx];
            if e.issued {
                if e.op.is_store() && e.done_at > cycle {
                    // still counts as issued; address known
                }
                continue;
            }
            let is_store = e.op.is_store();
            let is_load = e.op.is_load();
            // Source readiness.
            let ready = faults.issue_ignores_readiness
                || e.srcs.iter().all(|&s| {
                    if s < head_seq {
                        true
                    } else {
                        let p = &rob[(s - head_seq) as usize];
                        p.issued && p.done_at <= cycle
                    }
                });
            if !ready {
                if is_store {
                    unissued_store_seen = true;
                }
                continue;
            }
            // Structural hazards.
            if is_load || is_store {
                if ls == 0 {
                    if is_store {
                        unissued_store_seen = true;
                    }
                    continue;
                }
                if is_load && unissued_store_seen {
                    continue; // prior store address unknown
                }
            } else {
                match e.subsystem {
                    Subsystem::Int => {
                        if int_fu == 0 {
                            continue;
                        }
                    }
                    Subsystem::Fp => {
                        if fp_fu == 0 {
                            continue;
                        }
                    }
                }
            }
            // Latency.
            let lat = if is_load {
                let addr = e.addr.expect("load has address");
                let bytes = e.op.mem_bytes().unwrap_or(4);
                let forwarded = store_queue
                    .iter()
                    .rev()
                    .find(|(s, a, b, _)| *s < e.seq && ranges_overlap(*a, *b, addr, bytes))
                    .is_some_and(|(_, _, _, issued)| *issued);
                if forwarded {
                    2 // address generation + forward
                } else {
                    1 + dcache.access(addr, false)
                }
            } else if is_store {
                let addr = e.addr.expect("store has address");
                1 + dcache.access(addr, true)
            } else {
                e.latency_hint
            };
            // Commit the decision.
            if is_load || is_store {
                ls -= 1;
                int_issued_now += 1;
            } else {
                match e.subsystem {
                    Subsystem::Int => {
                        int_fu -= 1;
                        int_issued_now += 1;
                    }
                    Subsystem::Fp => {
                        fp_fu -= 1;
                        fp_issued_now += 1;
                    }
                }
            }
            issued_total += 1;
            decisions.push((idx, cycle + u64::from(lat)));
        }
        for (idx, done_at) in decisions {
            let subsystem = rob[idx].subsystem;
            let is_mem = rob[idx].op.mem_bytes().is_some();
            {
                let e = &rob[idx];
                obs.on_issue(&IssueEvent {
                    cycle,
                    seq: e.seq,
                    pc: e.pc,
                    op: e.op,
                    subsystem,
                    mem_port: is_mem,
                    srcs: &e.srcs,
                    done_at,
                });
            }
            rob[idx].issued = true;
            rob[idx].done_at = done_at;
            if rob[idx].op.is_store() {
                let seq = rob[idx].seq;
                for s in &mut store_queue {
                    if s.0 == seq {
                        s.3 = true;
                    }
                }
            }
            if rob[idx].resolves_fetch {
                // The mispredicted branch resolved: fetch restarts (the
                // sentinel set at fetch time is replaced, not maxed).
                fetch_stall_until = done_at;
            }
            // Window slot frees at issue. Memory ops live in the INT window.
            if is_mem || subsystem == Subsystem::Int {
                int_window_used -= 1;
            } else {
                fp_window_used -= 1;
            }
        }
        int_issued += int_issued_now;
        fp_issued += fp_issued_now;
        if int_issued_now == 0 && fp_issued_now > 0 {
            int_idle_fp_busy += 1;
        }

        // ---- Dispatch ----------------------------------------------------
        let mut dispatched = 0;
        while dispatched < config.decode_width {
            let Some(e) = fetch_queue.front() else { break };
            if rob.len() >= config.max_inflight as usize {
                break;
            }
            let is_mem = e.op.mem_bytes().is_some();
            let wants_int_window = is_mem || e.subsystem == Subsystem::Int;
            if wants_int_window && int_window_used >= config.int_window {
                break;
            }
            if !wants_int_window && fp_window_used >= config.fp_window {
                break;
            }
            match e.dest {
                Some(Reg::Int(_)) if int_phys_free == 0 => break,
                Some(Reg::Fp(_)) if fp_phys_free == 0 => break,
                _ => {}
            }
            let e = fetch_queue.pop_front().expect("checked");
            match e.dest {
                Some(Reg::Int(_)) => int_phys_free -= 1,
                Some(Reg::Fp(_)) => fp_phys_free -= 1,
                None => {}
            }
            if wants_int_window {
                int_window_used += 1;
            } else {
                fp_window_used += 1;
            }
            if e.op.is_store() {
                store_queue.push_back((
                    e.seq,
                    e.addr.expect("store addr"),
                    e.op.mem_bytes().unwrap(),
                    false,
                ));
            }
            obs.on_dispatch(&DispatchEvent {
                cycle,
                seq: e.seq,
                pc: e.pc,
                op: e.op,
                window: if wants_int_window {
                    Subsystem::Int
                } else {
                    Subsystem::Fp
                },
            });
            rob.push_back(e);
            dispatched += 1;
        }

        // ---- Fetch -------------------------------------------------------
        if !fetch_halted && cycle < fetch_stall_until {
            fetch_stall_cycles += 1;
        }
        if !fetch_halted && cycle >= fetch_stall_until {
            // One I-cache access per fetch group.
            let line = config.icache.line;
            let iaddr = fetch_pc * 4;
            let ilat = icache.access(iaddr, false);
            if ilat > config.icache.hit_time {
                fetch_stall_until = cycle + u64::from(ilat);
            } else {
                let mut fetched = 0;
                while fetched < config.fetch_width && fetch_queue.len() < fetch_queue_cap {
                    if fetch_pc * 4 / line != iaddr / line {
                        break; // crossed into the next cache line
                    }
                    let Some(inst) = program.code.get(fetch_pc as usize) else {
                        return Err(ExecError::BadPc { pc: fetch_pc });
                    };
                    // Rename sources and destination.
                    let srcs: Vec<u64> = inst
                        .uses()
                        .iter()
                        .filter_map(|r| rename.get(r).copied())
                        .collect();
                    let dest = inst.defs().first().copied();
                    let addr = oracle.effective_addr(inst);
                    // Oracle-execute.
                    let step = oracle.exec(inst, fetch_pc)?;
                    // Record the architectural effects for retire-time
                    // co-simulation (the store read-back is safe: exec
                    // just validated the address).
                    let effect = InstEffect {
                        dest: dest.map(|d| (d, oracle.reg_raw(d))),
                        store: if inst.op.is_store() {
                            addr.map(|a| {
                                let bytes = inst.op.mem_bytes().expect("store width");
                                let lo = a as usize;
                                let mut buf = [0u8; 8];
                                buf[..bytes as usize]
                                    .copy_from_slice(&oracle.mem[lo..lo + bytes as usize]);
                                StoreEffect {
                                    addr: a,
                                    bytes,
                                    data: u64::from_le_bytes(buf),
                                }
                            })
                        } else {
                            None
                        },
                        taken: if inst.op.is_cond_branch() {
                            Some(matches!(step, Step::Jump(_)))
                        } else {
                            None
                        },
                    };
                    let seq = next_seq;
                    next_seq += 1;
                    if let Some(d) = dest {
                        rename.insert(d, seq);
                    }
                    obs.on_fetch(&FetchEvent {
                        cycle,
                        seq,
                        pc: fetch_pc,
                        op: inst.op,
                    });
                    let mut entry = Entry {
                        seq,
                        pc: fetch_pc,
                        op: inst.op,
                        subsystem: inst.op.subsystem(),
                        srcs,
                        dest,
                        issued: false,
                        done_at: NOT_DONE,
                        wb_emitted: false,
                        addr,
                        latency_hint: inst.op.fu_class().latency(),
                        halt: None,
                        resolves_fetch: false,
                        effect,
                    };
                    let taken_target = match step {
                        Step::Jump(t) => Some(t),
                        Step::Next => None,
                        Step::Halt(code) => {
                            entry.halt = Some(code);
                            exit_code = code;
                            fetch_halted = true;
                            fetch_queue.push_back(entry);
                            break;
                        }
                    };
                    if inst.op.is_cond_branch() {
                        let taken = taken_target.is_some();
                        let predicted = gshare.predict(fetch_pc);
                        gshare.update(fetch_pc, taken);
                        let next = taken_target.unwrap_or(fetch_pc + 1);
                        if predicted != taken {
                            // Mispredict: fetch stalls until this branch
                            // resolves, then restarts on the correct path.
                            entry.resolves_fetch = true;
                            fetch_stall_until = u64::MAX; // replaced at issue
                            fetch_pc = next;
                            fetch_queue.push_back(entry);
                            break;
                        }
                        fetch_pc = next;
                        fetch_queue.push_back(entry);
                        fetched += 1;
                        if taken {
                            break; // taken transfers end the fetch group
                        }
                        continue;
                    }
                    match taken_target {
                        Some(t) => {
                            // Unconditional: predicted perfectly (Table 1).
                            fetch_pc = t;
                            fetch_queue.push_back(entry);
                            break;
                        }
                        None => {
                            fetch_pc += 1;
                            fetch_queue.push_back(entry);
                            fetched += 1;
                        }
                    }
                }
            }
        }

        int_window_occupancy_sum += u64::from(int_window_used);
        fp_window_occupancy_sum += u64::from(fp_window_used);
        cycle += 1;
    }
}

fn ranges_overlap(a: u32, alen: u32, b: u32, blen: u32) -> bool {
    a < b + blen && b < a + alen
}
