//! Cycle-based out-of-order timing simulation.
//!
//! Pipeline model (SimpleScalar `sim-outorder`-class, per the paper §7.1):
//!
//! * **Fetch** — up to `fetch_width` instructions per cycle through the
//!   I-cache, stopping at taken control transfers and cache-line ends.
//!   Conditional branches are predicted with gshare; unconditional
//!   transfers are perfect (Table 1). Fetch is *oracle-driven*: the
//!   architectural machine executes at fetch, so only correct-path
//!   instructions enter the window, and a misprediction is modelled as a
//!   fetch stall until the branch resolves (plus redirect). This is the
//!   standard timing-directed simplification; window/issue/FU dynamics —
//!   the effects the paper studies — are modelled in full.
//! * **Dispatch** — up to `decode_width` per cycle into the reorder buffer
//!   and the INT or FP issue window, bounded by window capacity and
//!   physical registers. Loads, stores, and inter-file copies dispatch to
//!   the INT window (only INT addresses memory); `*A` opcodes and FP
//!   arithmetic dispatch to the FP window.
//! * **Issue** — oldest-first, out of order, up to the per-subsystem
//!   functional units, the load/store ports, and the total issue width.
//!   A load issues only when all prior store addresses are known (i.e.
//!   every older store has issued), with store-to-load forwarding.
//! * **Retire** — in order, up to `retire_width` per cycle.
//!
//! # The fast path
//!
//! This module implements the model with *wakeup-driven* scheduling
//! rather than the textbook full-window rescan (which survives, frozen,
//! in [`crate::reference`] as the behavioural spec):
//!
//! * the static program is **pre-decoded** at the start of each run into
//!   a `DecodedInst` table, so per-fetch work is table lookups instead of
//!   `Vec`-returning operand queries;
//! * every window entry carries an **outstanding-source counter**;
//!   completions are bucketed by `done_at` and, when a bucket drains,
//!   wake their dependents into a **ready bitmask** over ROB-relative
//!   positions — the issue stage walks its set bits oldest first, and
//!   the store-barrier rule is one mask-and against an **unissued-store
//!   bitmask**; both are `u64`s, so a reorder buffer wider than 64
//!   entries runs on the reference engine instead;
//! * store-to-load forwarding scans the seq-ordered in-flight store
//!   queue (`StoreIndex`) backwards — never longer than the in-flight
//!   window, so a contiguous scan beats any indexed structure;
//! * when a cycle can provably do nothing — no completion due, head not
//!   retirable, ready set and fetch queue empty, fetch stalled or
//!   halted — the simulator **skips** straight to the next event cycle,
//!   accumulating occupancy sums and stall counters arithmetically.
//!
//! The fast path is observationally identical to the reference engine:
//! same [`TimingResult`] field-for-field, same `SimObserver` event
//! stream, proven by the unit tests here, the 48-cell equivalence sweep
//! in `fpa-harness`, and lockstep co-simulation.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::dispatch::{self, DecodedInst, PreInst};
use crate::exec::{ExecError, Machine, Step};
use crate::observe::{
    DispatchEvent, FetchEvent, InstEffect, IssueEvent, RetireEvent, SimObserver, StoreEffect,
    WritebackEvent,
};
use crate::predictor::Gshare;
use fpa_isa::{Op, Program, Reg, Subsystem};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The outcome of a timing simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingResult {
    /// Total cycles until the halt instruction retired.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// `main`'s exit code.
    pub exit_code: i32,
    /// Observable output (must equal the functional run).
    pub output: String,
    /// Instructions issued to the INT subsystem.
    pub int_issued: u64,
    /// Instructions issued to the FP subsystem.
    pub fp_issued: u64,
    /// Retired instructions using the 22 augmented opcodes.
    pub augmented_retired: u64,
    /// Cycles where the INT subsystem issued nothing while FP issued
    /// (the paper's §7.3 load-imbalance indicator).
    pub int_idle_fp_busy: u64,
    /// Conditional-branch predictions.
    pub branch_predictions: u64,
    /// Conditional-branch mispredictions.
    pub branch_mispredictions: u64,
    /// I-cache accesses/misses.
    pub icache: (u64, u64),
    /// D-cache accesses/misses.
    pub dcache: (u64, u64),
    /// Cycles the fetch stage sat stalled (mispredict recovery or an
    /// outstanding I-cache miss) before the halt was fetched.
    pub fetch_stall_cycles: u64,
    /// Sum over all cycles of occupied INT issue-window slots (divide by
    /// `cycles` for mean occupancy).
    pub int_window_occupancy_sum: u64,
    /// Sum over all cycles of occupied FP issue-window slots.
    pub fp_window_occupancy_sum: u64,
    /// Retired cross-subsystem copies (`cp_to_fpa`/`cp_to_int`).
    pub copies_retired: u64,
}

impl TimingResult {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy.
    #[must_use]
    pub fn branch_accuracy(&self) -> f64 {
        if self.branch_predictions == 0 {
            1.0
        } else {
            1.0 - self.branch_mispredictions as f64 / self.branch_predictions as f64
        }
    }

    /// Mean occupied INT issue-window slots per cycle.
    #[must_use]
    pub fn int_window_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.int_window_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Mean occupied FP issue-window slots per cycle.
    #[must_use]
    pub fn fp_window_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.fp_window_occupancy_sum as f64 / self.cycles as f64
        }
    }
}

impl std::fmt::Display for TimingResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles               {:>12}", self.cycles)?;
        writeln!(f, "retired instructions {:>12}", self.retired)?;
        writeln!(f, "IPC                  {:>12.3}", self.ipc())?;
        writeln!(
            f,
            "issued (int / fp)    {:>12} / {} ({:.1}% fp)",
            self.int_issued,
            self.fp_issued,
            if self.retired == 0 {
                0.0
            } else {
                self.fp_issued as f64 / self.retired as f64 * 100.0
            }
        )?;
        writeln!(f, "augmented retired    {:>12}", self.augmented_retired)?;
        writeln!(
            f,
            "branch accuracy      {:>11.2}% ({} / {})",
            self.branch_accuracy() * 100.0,
            self.branch_mispredictions,
            self.branch_predictions
        )?;
        writeln!(
            f,
            "icache (acc/miss)    {:>12} / {}",
            self.icache.0, self.icache.1
        )?;
        writeln!(
            f,
            "dcache (acc/miss)    {:>12} / {}",
            self.dcache.0, self.dcache.1
        )?;
        write!(
            f,
            "int idle, fp busy    {:>12} cycles",
            self.int_idle_fp_busy
        )
    }
}

/// A reorder-buffer / fetch-queue entry of the fast path. Sources are a
/// fixed two-slot array (the ISA reads at most `rs` and `rt`);
/// `pending` counts sources whose producers have not completed, and
/// `waiters` lists in-flight consumers to wake when this entry's result
/// becomes visible. `done_at` stays [`NOT_DONE`] until the instruction
/// issues, so one comparison against the current cycle answers both "has
/// it issued?" and "has it completed?".
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    pc: u32,
    op: Op,
    srcs: [u64; 2],
    n_srcs: u8,
    pending: u8,
    dest: Option<Reg>,
    done_at: u64,
    addr: Option<u32>,
    halt: Option<i32>,
    resolves_fetch: bool,
    d: DecodedInst,
    effect: InstEffect,
    waiters: Vec<u64>,
}

impl Entry {
    fn srcs(&self) -> &[u64] {
        &self.srcs[..self.n_srcs as usize]
    }
}

const NOT_DONE: u64 = u64::MAX;
/// Rename-table sentinel: the architectural value is not produced by any
/// in-flight instruction.
const NO_PRODUCER: u64 = u64::MAX;

/// The slab's initial entry value: never read before being overwritten at
/// fetch, but the slab must be filled with *something* Cloneable.
fn vacant_entry() -> Entry {
    Entry {
        seq: NOT_DONE,
        pc: 0,
        op: Op::Add,
        srcs: [0; 2],
        n_srcs: 0,
        pending: 0,
        dest: None,
        done_at: NOT_DONE,
        addr: None,
        halt: None,
        resolves_fetch: false,
        d: DecodedInst {
            subsystem: Subsystem::Int,
            latency_hint: 1,
            mem_bytes: 0,
            is_load: false,
            is_store: false,
            is_mem: false,
            is_cond_branch: false,
            is_augmented: false,
            is_copy: false,
            wants_int_window: true,
            uses: [None, None],
            def: None,
        },
        effect: InstEffect::default(),
        waiters: Vec::new(),
    }
}

/// The in-flight store queue: (seq, addr, bytes, issued) in program
/// order, mirroring the reference engine's store queue exactly.
///
/// Forwarding lookups walk it backwards. The queue can never outgrow the
/// in-flight window (stores enter at dispatch, leave at retirement), and
/// both Table 1 machines cap that window at 64, so a contiguous reverse
/// scan of a few dozen 16-byte entries beats any indexed structure — an
/// earlier word-bucketed hash index here cost more in hashing and bucket
/// chasing than the scan it avoided, and dominated issue-stage profiles.
#[derive(Debug, Default)]
struct StoreIndex {
    queue: VecDeque<(u64, u32, u32, bool)>,
}

impl StoreIndex {
    /// Registers a store at dispatch (address known: the oracle computed
    /// it at fetch).
    #[inline]
    fn insert(&mut self, seq: u64, addr: u32, bytes: u32) {
        self.queue.push_back((seq, addr, bytes, false));
    }

    /// Marks a store issued (its address is now "known" to younger loads
    /// from the *next* lookup on — within the deciding cycle the flag is
    /// still false, matching the reference engine's scan/apply split).
    #[inline]
    fn mark_issued(&mut self, seq: u64) {
        let i = self.queue.partition_point(|s| s.0 < seq);
        debug_assert!(self.queue.get(i).is_some_and(|s| s.0 == seq));
        self.queue[i].3 = true;
    }

    /// Drops every store at or before `seq` (stores leave at retirement,
    /// oldest first, so each departs from the front).
    #[inline]
    fn retire_through(&mut self, seq: u64) {
        while self.queue.front().is_some_and(|s| s.0 <= seq) {
            self.queue.pop_front();
        }
    }

    /// Empties the queue for a new run, keeping its allocation.
    fn reset(&mut self) {
        self.queue.clear();
    }

    /// Whether a load at `seq` covering `[addr, addr+bytes)` is forwarded:
    /// finds the youngest older store whose byte range overlaps and
    /// reports that store's issued flag — false means the load pays a
    /// D-cache access instead, exactly like the reference scan.
    #[inline]
    fn forwarded(&self, seq: u64, addr: u32, bytes: u32) -> bool {
        for &(s, a, b, issued) in self.queue.iter().rev() {
            if s >= seq {
                continue;
            }
            if ranges_overlap(a, b, addr, bytes) {
                return issued;
            }
        }
        false
    }
}

/// Completion-time bucket ring: the issue stage schedules a writeback at
/// `done_at = cycle + latency`, and every latency on the machine is a
/// few dozen cycles at most, so pending completions always lie in a
/// short window above the current cycle. A ring of `RING_LEN` buckets
/// indexed by `done_at % RING_LEN` makes scheduling O(1) and the
/// per-cycle "anything due?" probe a single emptiness test, replacing a
/// binary heap whose push/pop sift showed up on every instruction. A
/// latency beyond the ring (possible only with pathological cache
/// configurations) spills to an overflow heap, keeping the structure
/// correct for any config.
///
/// Drains sort the bucket by seq, preserving the heap's (done_at, seq)
/// writeback order exactly.
#[derive(Debug)]
struct CompletionRing {
    /// `buckets[d % RING_LEN]` holds the seqs completing at cycle `d`.
    /// The invariant that at most one absolute cycle occupies a bucket
    /// holds because pushes target `(cycle, cycle + RING_LEN)` and every
    /// cycle's bucket is drained before the ring wraps back to it (the
    /// cycle skip never jumps past a pending completion).
    buckets: Vec<Vec<u64>>,
    /// Total seqs across buckets and overflow.
    len: usize,
    /// Completions scheduled ≥ `RING_LEN` cycles out.
    overflow: BinaryHeap<Reverse<(u64, u64)>>,
    /// Drain scratch, reused across cycles.
    scratch: Vec<u64>,
}

const RING_LEN: u64 = 64;

impl CompletionRing {
    fn new() -> CompletionRing {
        CompletionRing {
            buckets: vec![Vec::new(); RING_LEN as usize],
            len: 0,
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.overflow.clear();
        self.scratch.clear();
    }

    #[inline]
    fn push(&mut self, cycle: u64, done_at: u64, seq: u64) {
        debug_assert!(done_at > cycle);
        if done_at - cycle < RING_LEN {
            self.buckets[(done_at % RING_LEN) as usize].push(seq);
        } else {
            self.overflow.push(Reverse((done_at, seq)));
        }
        self.len += 1;
    }

    /// Whether any completion is due at (or overdue before) `cycle`.
    #[inline]
    fn any_due(&self, cycle: u64) -> bool {
        !self.buckets[(cycle % RING_LEN) as usize].is_empty()
            || self
                .overflow
                .peek()
                .is_some_and(|&Reverse((k, _))| k <= cycle)
    }

    /// The earliest cycle strictly after `cycle` with a completion due,
    /// if any completion is pending at all. Only called from the
    /// cycle-skip path, where the machine is otherwise idle.
    fn next_after(&self, cycle: u64) -> Option<u64> {
        let mut next = None;
        if self.len > self.overflow.len() {
            for d in (cycle + 1)..(cycle + RING_LEN) {
                if !self.buckets[(d % RING_LEN) as usize].is_empty() {
                    next = Some(d);
                    break;
                }
            }
        }
        if let Some(&Reverse((k, _))) = self.overflow.peek() {
            next = Some(next.map_or(k, |n| n.min(k)));
        }
        next
    }

    /// Removes and returns (seq-sorted, in `self.scratch`) everything due
    /// at `cycle`.
    #[inline]
    fn drain_due(&mut self, cycle: u64) -> &[u64] {
        self.scratch.clear();
        self.scratch
            .append(&mut self.buckets[(cycle % RING_LEN) as usize]);
        while let Some(&Reverse((k, seq))) = self.overflow.peek() {
            if k > cycle {
                break;
            }
            self.overflow.pop();
            self.scratch.push(seq);
        }
        self.len -= self.scratch.len();
        self.scratch.sort_unstable();
        &self.scratch
    }
}

/// Deliberate microarchitectural defects, injectable only through
/// [`simulate_with_faults`]. They exist so the co-simulation layer's
/// mutation tests can prove the checkers detect real scoreboard and
/// sequencing bugs; production entry points never enable a fault.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultInjection {
    /// Once, retire the second ROB entry while the head is still
    /// executing — breaks in-order retirement.
    pub retire_out_of_order: bool,
    /// Ignore source-operand readiness at issue — a scoreboard/bypass
    /// bug that lets consumers issue before their producers complete.
    pub issue_ignores_readiness: bool,
}

impl FaultInjection {
    fn any(self) -> bool {
        self.retire_out_of_order || self.issue_ignores_readiness
    }
}

/// Arena-reused simulator state, owned by a [`crate::session::SimSession`]
/// and threaded through every run: the architectural machine (register
/// files + memory image), the decoded program, both cache tag arrays, the
/// branch predictor, the in-flight entry slab with its waiter vectors, the
/// completion heap, the store index, and the scratch buffers. Every piece
/// is reset — not reallocated — at the top of [`simulate_core`], so
/// steady-state simulation across cells allocates nothing. The machine's
/// reset zeroes only the memory pages the previous run wrote (see
/// [`Machine::reset`]), so a short run costs microseconds whatever its
/// address space.
#[derive(Debug)]
pub(crate) struct SessionBufs {
    pub(crate) machine: Machine,
    /// The running program, decoded by [`dispatch::decode_into`].
    pub(crate) decoded: Vec<PreInst>,
    icache: Option<Cache>,
    dcache: Option<Cache>,
    gshare: Option<Gshare>,
    slab: Vec<Entry>,
    completions: CompletionRing,
    stores: StoreIndex,
    decisions: Vec<(u64, u64)>,
    pub(crate) pc_counts: Vec<u64>,
}

impl SessionBufs {
    pub(crate) fn new() -> SessionBufs {
        SessionBufs {
            machine: Machine::empty(),
            decoded: Vec::new(),
            icache: None,
            dcache: None,
            gshare: None,
            slab: Vec::new(),
            completions: CompletionRing::new(),
            stores: StoreIndex::default(),
            decisions: Vec::new(),
            pc_counts: Vec::new(),
        }
    }
}

/// Runs `program` on the configured machine for at most `max_cycles`.
///
/// Uses the calling thread's shared [`crate::session::SimSession`], so
/// repeated calls reuse simulator state; see [`crate::SimSession`] for
/// explicit batched use.
///
/// # Errors
///
/// Returns an [`ExecError`] from the architectural oracle (bad memory
/// access, division by zero) or [`ExecError::OutOfFuel`] when the cycle
/// budget is exhausted.
pub fn simulate(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
) -> Result<TimingResult, ExecError> {
    crate::session::with_session(|s| s.simulate(program, config, max_cycles))
}

/// Like [`simulate`], but emits every pipeline event to `obs` (see
/// [`crate::observe::SimObserver`]). Observation is passive: the returned
/// [`TimingResult`] is identical to an unobserved run.
///
/// The observer is a generic parameter (not a trait object) so the
/// unobserved entry point monomorphizes against
/// [`NullObserver`](crate::observe::NullObserver) and the
/// compiler deletes every event construction from the hot loop.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_observed<O: SimObserver>(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
    obs: &mut O,
) -> Result<TimingResult, ExecError> {
    crate::session::with_session(|s| s.simulate_observed(program, config, max_cycles, obs))
}

/// Test-only entry point: [`simulate_observed`] with injected defects.
///
/// # Errors
///
/// Same as [`simulate`]; an injected defect can additionally wedge the
/// pipeline into [`ExecError::OutOfFuel`].
#[doc(hidden)]
pub fn simulate_with_faults<O: SimObserver>(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
    obs: &mut O,
    faults: FaultInjection,
) -> Result<TimingResult, ExecError> {
    if faults.any() {
        // Injected defects are expressed against the reference engine's
        // explicit full-window scan (and break the fast path's dense-seq
        // and wakeup bookkeeping by design).
        crate::reference::simulate_naive(
            program,
            config,
            max_cycles,
            obs,
            faults,
            &mut Machine::empty(),
        )
    } else {
        simulate_observed(program, config, max_cycles, obs)
    }
}

pub(crate) fn simulate_core<O: SimObserver>(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
    obs: &mut O,
    bufs: &mut SessionBufs,
) -> Result<TimingResult, ExecError> {
    if config.max_inflight > 64 {
        // The ready and store-barrier sets are `u64` bitmasks over the ROB
        // window, which both of the paper's machines (32- and 64-entry
        // ROBs) fit; a wider configuration runs on the reference engine,
        // which has no window bound. It runs on the session's machine, so
        // `SimSession::memory` shows this run too.
        return crate::reference::simulate_naive(
            program,
            config,
            max_cycles,
            obs,
            FaultInjection::default(),
            &mut bufs.machine,
        );
    }
    dispatch::decode_into(program, &mut bufs.decoded);
    simulate_masked(program, config, max_cycles, obs, bufs)
}

#[allow(clippy::too_many_lines)]
fn simulate_masked<O: SimObserver>(
    program: &Program,
    config: &MachineConfig,
    max_cycles: u64,
    obs: &mut O,
    bufs: &mut SessionBufs,
) -> Result<TimingResult, ExecError> {
    // ---- Arena reset -----------------------------------------------------
    // Every run starts from the architectural reset state; the session
    // buffers only save the allocations, never state, which the session
    // hygiene property test checks end to end.
    bufs.machine.reset(program);
    match bufs.icache.as_mut() {
        Some(c) => c.reset(config.icache),
        None => bufs.icache = Some(Cache::new(config.icache)),
    }
    match bufs.dcache.as_mut() {
        Some(c) => c.reset(config.dcache),
        None => bufs.dcache = Some(Cache::new(config.dcache)),
    }
    match bufs.gshare.as_mut() {
        Some(g) => g.reset(config.gshare_bits),
        None => bufs.gshare = Some(Gshare::new(config.gshare_bits)),
    }
    bufs.completions.clear();
    bufs.stores.reset();
    let decoded = &bufs.decoded;
    let oracle = &mut bufs.machine;
    let icache = bufs.icache.as_mut().expect("initialized above");
    let dcache = bufs.dcache.as_mut().expect("initialized above");
    let gshare = bufs.gshare.as_mut().expect("initialized above");
    let completions = &mut bufs.completions;
    let stores = &mut bufs.stores;
    let decisions = &mut bufs.decisions;

    // In-flight entries live in a power-of-two slab addressed by
    // `seq % capacity`; an entry is written once at fetch and never moves.
    // Sequence numbers are dense, so the ROB is the range
    // `[retired, retired + rob_len)` and the fetch queue the range
    // `[retired + rob_len, retired + rob_len + fq_len)` — stage membership
    // is two counters, not two queues of bulky structs. The slab grows
    // monotonically to the largest configuration seen by the session; an
    // oversized slab is harmless (live sequence numbers still map to
    // distinct slots) and stale entries are fully rewritten at fetch.
    let fetch_queue_cap = config.fetch_width as usize;
    let needed = (config.max_inflight as usize + fetch_queue_cap).next_power_of_two();
    if bufs.slab.len() < needed {
        bufs.slab.resize(needed, vacant_entry());
    }
    let slab = &mut bufs.slab;
    let slot_mask = slab.len() as u64 - 1;
    let slot = |s: u64| (s & slot_mask) as usize;
    let mut rob_len = 0usize;
    let mut fq_len = 0usize;

    // Rename tables as dense per-file arrays: architectural register ->
    // producing seq, or NO_PRODUCER.
    let mut rename_int = [NO_PRODUCER; 32];
    let mut rename_fp = [NO_PRODUCER; 32];
    let mut next_seq = 0u64;
    let mut fetch_pc = program.entry;
    let mut fetch_stall_until = 0u64;
    let mut fetch_halted = false;

    let mut int_window_used = 0u32;
    let mut fp_window_used = 0u32;
    let mut int_phys_free = config.int_phys - 32;
    let mut fp_phys_free = config.fp_phys - 32;

    // Dispatched stores that have not received an issue decision, as a
    // bitmask over ROB-relative positions: the load barrier ("all prior
    // store addresses known") is one mask-and against the bits below the
    // load instead of a flag threaded through a full-window scan.
    let mut unissued_st = 0u64;
    // Unissued ROB entries whose sources are all complete, same relative
    // encoding: the issue stage's candidate set, replacing the full-ROB
    // scan with a trailing_zeros walk (ascending = oldest first). Both
    // masks shift right by one per retirement as the window slides.
    let mut ready = 0u64;

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

    let mut cycle = 0u64;
    loop {
        if cycle >= max_cycles {
            return Err(ExecError::OutOfFuel);
        }

        // ---- Cycle skip --------------------------------------------------
        // A cycle with no completion due, no retirable head, no ready
        // candidate, and nothing to dispatch or fetch changes no state
        // except the per-cycle counters; jump those counters arithmetically
        // to the next cycle on which anything can happen (the earliest
        // completion, or fetch resuming). Fetch activity always blocks the
        // skip: a non-stalled fetch stage touches the I-cache every cycle,
        // even when the fetch queue is full.
        if ready == 0
            && fq_len == 0
            && !completions.any_due(cycle)
            && (fetch_halted || cycle < fetch_stall_until)
            && !(rob_len > 0 && {
                let h = &slab[slot(retired)];
                h.done_at <= cycle
            })
        {
            let mut target = max_cycles;
            if let Some(k) = completions.next_after(cycle) {
                target = target.min(k);
            }
            if !fetch_halted {
                target = target.min(fetch_stall_until);
            }
            if target > cycle {
                let n = target - cycle;
                int_window_occupancy_sum += u64::from(int_window_used) * n;
                fp_window_occupancy_sum += u64::from(fp_window_used) * n;
                if !fetch_halted {
                    // Every skipped cycle is < fetch_stall_until by
                    // construction, so each would have counted as a stall.
                    fetch_stall_cycles += n;
                }
                cycle = target;
                if cycle >= max_cycles {
                    return Err(ExecError::OutOfFuel);
                }
            }
        }

        // ---- Writeback ---------------------------------------------------
        // Results become visible at `done_at`; announce each exactly once,
        // in program order, before this cycle's retirements and
        // issue-readiness checks — then wake the waiters.
        for &seq in completions.drain_due(cycle) {
            obs.on_writeback(&WritebackEvent { cycle, seq });
            let s_idx = slot(seq);
            let mut waiters = std::mem::take(&mut slab[s_idx].waiters);
            let rob_end = retired + rob_len as u64;
            for &w in &waiters {
                let e = &mut slab[slot(w)];
                e.pending -= 1;
                if e.pending == 0 && w < rob_end {
                    ready |= 1 << (w - retired);
                }
            }
            // Hand the (cleared) vector straight back to its slot: the
            // next instruction to occupy the slot inherits the capacity,
            // so steady state never allocates a waiter list.
            waiters.clear();
            slab[s_idx].waiters = waiters;
        }

        // ---- Retire ------------------------------------------------------
        let mut retired_this_cycle = 0;
        while retired_this_cycle < config.retire_width && rob_len > 0 {
            let e = &slab[slot(retired)];
            if e.done_at > cycle {
                break;
            }
            retired += 1;
            retired_this_cycle += 1;
            rob_len -= 1;
            // The head is issued, so its ready and store-barrier bits are
            // already clear: the masks just slide down with the window.
            debug_assert!(ready & 1 == 0 && unissued_st & 1 == 0);
            ready >>= 1;
            unissued_st >>= 1;
            if e.d.is_augmented {
                augmented_retired += 1;
            }
            if e.d.is_copy {
                copies_retired += 1;
            }
            match e.dest {
                Some(Reg::Int(_)) => int_phys_free += 1,
                Some(Reg::Fp(_)) => fp_phys_free += 1,
                None => {}
            }
            if e.d.is_store {
                // Older stores are already gone (in-order retirement), so
                // the retiring store is exactly the queue head.
                stores.retire_through(e.seq);
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

        // ---- Issue -------------------------------------------------------
        // Walk only the ready candidates, oldest first. Readiness (all
        // sources complete) was established by the wakeup pass; this stage
        // arbitrates structural resources exactly like the reference scan:
        // FU and port budgets, total issue width, and the load barrier —
        // a load may not issue while any older store lacks an issue
        // decision (decisions made earlier in this same walk count, but a
        // store issuing *this* cycle still reads as unissued to the
        // forwarding lookup, which is resolved in the apply pass below).
        let mut int_fu = config.int_units;
        let mut fp_fu = config.fp_units;
        let mut ls = config.ls_ports;
        let mut issued_total = 0u32;
        let mut int_issued_now = 0u64;
        let mut fp_issued_now = 0u64;
        decisions.clear();
        if ready != 0 {
            // Snapshot the candidate mask; decisions this cycle do not add
            // candidates (but an issuing store does lift the barrier for
            // loads later in the same walk, exactly like the reference).
            let mut cand = ready;
            while cand != 0 && issued_total < issue_width {
                let rel = cand.trailing_zeros();
                cand &= cand - 1;
                let seq = retired + u64::from(rel);
                let e = &slab[slot(seq)];
                let d = &e.d;
                // Structural hazards.
                if d.is_mem {
                    if ls == 0 {
                        continue; // an unissued store here still bars loads
                    }
                    if d.is_load && unissued_st & ((1 << rel) - 1) != 0 {
                        continue; // prior store address unknown
                    }
                } else {
                    match d.subsystem {
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
                let lat = if d.is_load {
                    let addr = e.addr.expect("load has address");
                    if stores.forwarded(seq, addr, d.mem_bytes) {
                        2 // address generation + forward
                    } else {
                        1 + dcache.access(addr, false)
                    }
                } else if d.is_store {
                    let addr = e.addr.expect("store has address");
                    1 + dcache.access(addr, true)
                } else {
                    d.latency_hint
                };
                // Commit the decision.
                if d.is_mem {
                    ls -= 1;
                    int_issued_now += 1;
                } else {
                    match d.subsystem {
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
                if d.is_store {
                    unissued_st &= !(1 << rel);
                }
                issued_total += 1;
                decisions.push((seq, cycle + u64::from(lat)));
            }
            for &(seq, done_at) in decisions.iter() {
                let s = slot(seq);
                {
                    let e = &slab[s];
                    obs.on_issue(&IssueEvent {
                        cycle,
                        seq,
                        pc: e.pc,
                        op: e.op,
                        subsystem: e.d.subsystem,
                        mem_port: e.d.is_mem,
                        srcs: e.srcs(),
                        done_at,
                    });
                }
                let e = &mut slab[s];
                e.done_at = done_at;
                let wants_int_window = e.d.wants_int_window;
                completions.push(cycle, done_at, seq);
                if e.d.is_store {
                    stores.mark_issued(seq);
                }
                if e.resolves_fetch {
                    // The mispredicted branch resolved: fetch restarts (the
                    // sentinel set at fetch time is replaced, not maxed).
                    fetch_stall_until = done_at;
                }
                // Window slot frees at issue.
                if wants_int_window {
                    int_window_used -= 1;
                } else {
                    fp_window_used -= 1;
                }
                ready &= !(1 << (seq - retired));
            }
        }
        int_issued += int_issued_now;
        fp_issued += fp_issued_now;
        if int_issued_now == 0 && fp_issued_now > 0 {
            int_idle_fp_busy += 1;
        }

        // ---- Dispatch ----------------------------------------------------
        let mut dispatched = 0;
        while dispatched < config.decode_width && fq_len > 0 {
            if rob_len >= config.max_inflight as usize {
                break;
            }
            // Dispatch is a pure stage transition: the entry stays in its
            // slab slot and the ROB/fetch-queue boundary moves past it.
            let e = &slab[slot(retired + rob_len as u64)];
            if e.d.wants_int_window && int_window_used >= config.int_window {
                break;
            }
            if !e.d.wants_int_window && fp_window_used >= config.fp_window {
                break;
            }
            match e.dest {
                Some(Reg::Int(_)) if int_phys_free == 0 => break,
                Some(Reg::Fp(_)) if fp_phys_free == 0 => break,
                _ => {}
            }
            match e.dest {
                Some(Reg::Int(_)) => int_phys_free -= 1,
                Some(Reg::Fp(_)) => fp_phys_free -= 1,
                None => {}
            }
            if e.d.wants_int_window {
                int_window_used += 1;
            } else {
                fp_window_used += 1;
            }
            if e.d.is_store {
                stores.insert(e.seq, e.addr.expect("store addr"), e.d.mem_bytes);
                unissued_st |= 1 << rob_len;
            }
            obs.on_dispatch(&DispatchEvent {
                cycle,
                seq: e.seq,
                pc: e.pc,
                op: e.op,
                window: if e.d.wants_int_window {
                    Subsystem::Int
                } else {
                    Subsystem::Fp
                },
            });
            // The entry becomes an issue candidate the moment it sits in
            // the ROB with no outstanding sources.
            if e.pending == 0 {
                ready |= 1 << rob_len;
            }
            rob_len += 1;
            fq_len -= 1;
            dispatched += 1;
        }

        // ---- Fetch -------------------------------------------------------
        if !fetch_halted && cycle < fetch_stall_until {
            fetch_stall_cycles += 1;
        }
        if !fetch_halted && cycle >= fetch_stall_until {
            // One I-cache access per fetch group.
            let line_shift = config.icache.line.trailing_zeros();
            let iaddr = fetch_pc * 4;
            let ilat = icache.access(iaddr, false);
            if ilat > config.icache.hit_time {
                fetch_stall_until = cycle + u64::from(ilat);
            } else {
                let iline = iaddr >> line_shift;
                let mut fetched = 0;
                while fetched < config.fetch_width && fq_len < fetch_queue_cap {
                    if (fetch_pc * 4) >> line_shift != iline {
                        break; // crossed into the next cache line
                    }
                    let pc = fetch_pc;
                    let Some(pi) = decoded.get(pc as usize) else {
                        return Err(ExecError::BadPc { pc });
                    };
                    let d = &pi.d;
                    let x = &pi.x;
                    // Rename sources (in `rs`, `rt` order) and destination.
                    let mut srcs = [0u64; 2];
                    let mut n_srcs = 0u8;
                    for r in d.uses.iter().flatten() {
                        let p = match r {
                            Reg::Int(i) => rename_int[i.index()],
                            Reg::Fp(f) => rename_fp[f.index()],
                        };
                        if p != NO_PRODUCER {
                            srcs[n_srcs as usize] = p;
                            n_srcs += 1;
                        }
                    }
                    let addr = if d.is_mem {
                        Some(oracle.geti(x.a).wrapping_add(x.imm) as u32)
                    } else {
                        None
                    };
                    // Oracle-execute through the dispatch table.
                    let step = dispatch::exec_pre(oracle, x, pi.op, pc)?;
                    // Record the architectural effects for retire-time
                    // co-simulation (the store read-back is safe: exec
                    // just validated the address) — skipped entirely for
                    // observers that never look at them.
                    let effect = if O::WANTS_EFFECTS {
                        InstEffect {
                            dest: d.def.map(|dr| (dr, oracle.reg_raw(dr))),
                            store: if d.is_store {
                                addr.map(|a| {
                                    let bytes = d.mem_bytes;
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
                            taken: if d.is_cond_branch {
                                Some(matches!(step, Step::Jump(_)))
                            } else {
                                None
                            },
                        }
                    } else {
                        InstEffect::default()
                    };
                    let seq = next_seq;
                    next_seq += 1;
                    if let Some(dr) = d.def {
                        match dr {
                            Reg::Int(i) => rename_int[i.index()] = seq,
                            Reg::Fp(f) => rename_fp[f.index()] = seq,
                        }
                    }
                    // Count outstanding sources and subscribe to their
                    // producers' completions. A producer below `retired`
                    // has left the pipeline; one with `done_at <= cycle`
                    // completed in an already-drained bucket.
                    let mut pending = 0u8;
                    for &s in &srcs[..n_srcs as usize] {
                        if s < retired {
                            continue;
                        }
                        let p = &mut slab[slot(s)];
                        if p.done_at > cycle {
                            pending += 1;
                            p.waiters.push(seq);
                        }
                    }
                    obs.on_fetch(&FetchEvent {
                        cycle,
                        seq,
                        pc,
                        op: pi.op,
                    });
                    // Control flow: decide the next fetch pc, whether this
                    // instruction ends the fetch group, and whether it
                    // counts against the fetch width (taken transfers,
                    // mispredicts, and the halt do not).
                    let mut halt = None;
                    let mut resolves_fetch = false;
                    let mut end_group = true;
                    let mut counts_fetched = false;
                    match step {
                        Step::Halt(code) => {
                            halt = Some(code);
                            fetch_halted = true;
                        }
                        _ => {
                            let taken_target = match step {
                                Step::Jump(t) => Some(t),
                                _ => None,
                            };
                            if d.is_cond_branch {
                                let taken = taken_target.is_some();
                                fetch_pc = taken_target.unwrap_or(pc + 1);
                                if gshare.update(pc, taken) {
                                    counts_fetched = true;
                                    // Taken transfers end the fetch group.
                                    end_group = taken;
                                } else {
                                    // Mispredict: fetch stalls until this
                                    // branch resolves, then restarts on
                                    // the correct path.
                                    resolves_fetch = true;
                                    fetch_stall_until = u64::MAX; // replaced at issue
                                }
                            } else if let Some(t) = taken_target {
                                // Unconditional: predicted perfectly (Table 1).
                                fetch_pc = t;
                            } else {
                                fetch_pc = pc + 1;
                                counts_fetched = true;
                                end_group = false;
                            }
                        }
                    }
                    // One in-place write into the slab slot; the recycled
                    // waiter vector keeps its capacity (cleared when its
                    // previous occupant wrote back).
                    let e = &mut slab[slot(seq)];
                    e.seq = seq;
                    e.pc = pc;
                    e.op = pi.op;
                    e.srcs = srcs;
                    e.n_srcs = n_srcs;
                    e.pending = pending;
                    e.dest = d.def;
                    e.done_at = NOT_DONE;
                    e.addr = addr;
                    e.halt = halt;
                    e.resolves_fetch = resolves_fetch;
                    e.d = *d;
                    // A stale effect is never read by an observer that
                    // declared `WANTS_EFFECTS = false`, so skip the write.
                    if O::WANTS_EFFECTS {
                        e.effect = effect;
                    }
                    e.waiters.clear();
                    fq_len += 1;
                    if counts_fetched {
                        fetched += 1;
                    }
                    if end_group {
                        break;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::simulate_reference;
    use fpa_isa::{FpReg, Inst, IntReg};

    fn cfg() -> MachineConfig {
        MachineConfig::four_way(true)
    }

    fn run(prog: &Program) -> TimingResult {
        simulate(prog, &cfg(), 10_000_000).expect("simulate")
    }

    fn int_loop_program(fpa: bool) -> Program {
        // i = 0; sum = 0; while (i < 1000) { sum += i ^ 3; i++ } print sum.
        let (r_i, r_s, r_c, r_t): (Reg, Reg, Reg, Reg) = if fpa {
            (
                FpReg::new(2).into(),
                FpReg::new(3).into(),
                FpReg::new(4).into(),
                FpReg::new(5).into(),
            )
        } else {
            (
                IntReg::new(8).into(),
                IntReg::new(9).into(),
                IntReg::new(10).into(),
                IntReg::new(11).into(),
            )
        };
        let (li, addi, slti, xori, add, bnez) = if fpa {
            (
                Op::LiA,
                Op::AddiA,
                Op::SltiA,
                Op::XoriA,
                Op::AddA,
                Op::BnezA,
            )
        } else {
            (Op::Li, Op::Addi, Op::Slti, Op::Xori, Op::Add, Op::Bnez)
        };
        let out: Reg = IntReg::new(12).into();
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![
            Inst::li(li, r_i, 0),                // 0
            Inst::li(li, r_s, 0),                // 1
            Inst::alu_imm(xori, r_t, r_i, 3),    // 2: loop
            Inst::alu(add, r_s, r_s, r_t),       // 3
            Inst::alu_imm(addi, r_i, r_i, 1),    // 4
            Inst::alu_imm(slti, r_c, r_i, 1000), // 5
            Inst::branch(bnez, r_c, 2),          // 6
            if fpa {
                Inst::unary(Op::CpToInt, out, r_s)
            } else {
                Inst::unary(Op::Move, out, r_s)
            }, // 7
            Inst {
                op: Op::Print,
                rd: None,
                rs: Some(out),
                rt: None,
                imm: 0,
                target: 0,
            }, // 8
            Inst {
                op: Op::Halt,
                rd: None,
                rs: Some(out),
                rt: None,
                imm: 0,
                target: 0,
            }, // 9
        ];
        p
    }

    #[test]
    fn timing_matches_functional_output() {
        let p = int_loop_program(false);
        let t = run(&p);
        let f = crate::func_sim::run_functional(&p, 1_000_000).unwrap();
        assert_eq!(t.output, f.output);
        assert_eq!(t.exit_code, f.exit_code);
        assert_eq!(t.retired, f.total);
    }

    #[test]
    fn ipc_is_plausible() {
        let p = int_loop_program(false);
        let t = run(&p);
        let ipc = t.ipc();
        assert!(ipc > 0.5 && ipc <= 4.0, "ipc = {ipc}");
    }

    #[test]
    fn fpa_loop_uses_fp_subsystem() {
        let p = int_loop_program(true);
        let t = run(&p);
        assert!(
            t.fp_issued > t.int_issued,
            "fp={} int={}",
            t.fp_issued,
            t.int_issued
        );
        assert!(t.augmented_retired > 4000);
    }

    #[test]
    fn branch_predictor_learns_loop() {
        let p = int_loop_program(false);
        let t = run(&p);
        assert!(
            t.branch_accuracy() > 0.97,
            "accuracy = {}",
            t.branch_accuracy()
        );
    }

    #[test]
    fn dependent_chain_bounds_ipc() {
        // A long serial dependency chain cannot exceed IPC ~1.
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        let r8: Reg = IntReg::new(8).into();
        let mut code = vec![Inst::li(Op::Li, r8, 0)];
        for _ in 0..2000 {
            code.push(Inst::alu_imm(Op::Addi, r8, r8, 1));
        }
        code.push(Inst {
            op: Op::Halt,
            rd: None,
            rs: Some(r8),
            rt: None,
            imm: 0,
            target: 0,
        });
        p.code = code;
        let t = run(&p);
        assert!(t.ipc() < 1.2, "serial chain ipc = {}", t.ipc());
    }

    #[test]
    fn independent_ops_exploit_width() {
        // Independent ops on both subsystems exceed a single subsystem's
        // 2-unit throughput.
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        let mut code = vec![];
        for k in 0..8 {
            code.push(Inst::li(Op::Li, IntReg::new(8 + k).into(), k as i32));
            code.push(Inst::li(Op::LiA, FpReg::new(2 + k).into(), k as i32));
        }
        for _ in 0..500 {
            for k in 0..2 {
                code.push(Inst::alu_imm(
                    Op::Addi,
                    IntReg::new(8 + k).into(),
                    IntReg::new(8 + k).into(),
                    1,
                ));
                code.push(Inst::alu_imm(
                    Op::AddiA,
                    FpReg::new(2 + k).into(),
                    FpReg::new(2 + k).into(),
                    1,
                ));
            }
        }
        code.push(Inst::bare(Op::Halt));
        p.code = code;
        let mut q = p.clone();
        // Same work, all on INT.
        q.code = q
            .code
            .iter()
            .map(|i| match i.op {
                Op::LiA => Inst::li(Op::Li, remap(i.rd.unwrap()), i.imm),
                Op::AddiA => {
                    Inst::alu_imm(Op::Addi, remap(i.rd.unwrap()), remap(i.rs.unwrap()), i.imm)
                }
                _ => *i,
            })
            .collect();
        let both = run(&p);
        let int_only = run(&q);
        assert!(
            both.cycles < int_only.cycles,
            "spread across subsystems ({}) should beat INT-only ({})",
            both.cycles,
            int_only.cycles
        );
    }

    fn remap(r: Reg) -> Reg {
        match r {
            Reg::Fp(f) => IntReg::new(f.index() as u8 + 14).into(),
            r => r,
        }
    }

    #[test]
    fn load_store_dependencies_respected() {
        // store then load same address: forwarding; output correct.
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        let r8: Reg = IntReg::new(8).into();
        let r9: Reg = IntReg::new(9).into();
        p.code = vec![
            Inst::li(Op::Li, r8, 0x2000),
            Inst::li(Op::Li, r9, 77),
            Inst::store(Op::Sw, r9, IntReg::new(8), 0),
            Inst::load(Op::Lw, r9, IntReg::new(8), 0),
            Inst {
                op: Op::Print,
                rd: None,
                rs: Some(r9),
                rt: None,
                imm: 0,
                target: 0,
            },
            Inst {
                op: Op::Halt,
                rd: None,
                rs: Some(r9),
                rt: None,
                imm: 0,
                target: 0,
            },
        ];
        let t = run(&p);
        assert_eq!(t.output, "77\n");
    }

    #[test]
    fn cycle_budget_enforced() {
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![Inst::jump(0)];
        assert_eq!(
            simulate(&p, &cfg(), 1000).unwrap_err(),
            ExecError::OutOfFuel
        );
    }

    // ---- Fast-path vs reference equivalence ------------------------------

    fn assert_equivalent(p: &Program) {
        for config in [
            MachineConfig::four_way(true),
            MachineConfig::eight_way(true),
        ] {
            let fast = simulate(p, &config, 10_000_000).expect("fast");
            let reference = simulate_reference(p, &config, 10_000_000).expect("reference");
            assert_eq!(fast, reference, "fast path diverged from reference");
        }
    }

    #[test]
    fn fast_path_matches_reference_on_loops() {
        assert_equivalent(&int_loop_program(false));
        assert_equivalent(&int_loop_program(true));
    }

    #[test]
    fn fast_path_matches_reference_on_serial_chain() {
        // Long-latency serial dependencies exercise the cycle skipper.
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        let r8: Reg = IntReg::new(8).into();
        let r9: Reg = IntReg::new(9).into();
        let mut code = vec![Inst::li(Op::Li, r8, 1), Inst::li(Op::Li, r9, 7)];
        for _ in 0..300 {
            code.push(Inst::alu_imm(Op::Addi, r8, r8, 3));
            code.push(Inst::alu(Op::Mul, r8, r8, r8)); // 6-cycle FU
            code.push(Inst::alu(Op::Div, r8, r8, r9)); // 12-cycle FU
        }
        code.push(Inst {
            op: Op::Halt,
            rd: None,
            rs: Some(r8),
            rt: None,
            imm: 0,
            target: 0,
        });
        p.code = code;
        assert_equivalent(&p);
    }

    #[test]
    fn fast_path_matches_reference_on_byte_overlap_stores() {
        // Sub-word stores around word boundaries exercise the store
        // queue's byte-range forwarding against the reference's scan:
        // same-word-no-overlap, cross-word, and exact-overlap cases.
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        let base: Reg = IntReg::new(8).into();
        let v: Reg = IntReg::new(9).into();
        let x: Reg = IntReg::new(10).into();
        let mut code = vec![
            Inst::li(Op::Li, base, 0x2000),
            Inst::li(Op::Li, v, 0x41),
            Inst::store(Op::Sw, v, IntReg::new(8), 0),
        ];
        for k in 0..40 {
            // A byte store next to — but not overlapping — the loaded byte,
            // then an overlapping one; offsets straddle word boundaries.
            code.push(Inst::store(Op::Sb, v, IntReg::new(8), 1 + (k % 7)));
            code.push(Inst::load(Op::Lb, x, IntReg::new(8), k % 9));
            code.push(Inst::store(Op::Sw, v, IntReg::new(8), 4 * (k % 3)));
            code.push(Inst::load(Op::Lw, x, IntReg::new(8), 4));
        }
        code.push(Inst {
            op: Op::Halt,
            rd: None,
            rs: Some(x),
            rt: None,
            imm: 0,
            target: 0,
        });
        p.code = code;
        assert_equivalent(&p);
    }

    #[test]
    fn fast_path_out_of_fuel_matches_reference() {
        let mut p = Program::new();
        p.stack_top = 0x1_0000;
        p.code = vec![Inst::jump(0)];
        assert_eq!(
            simulate(&p, &cfg(), 1000).unwrap_err(),
            simulate_reference(&p, &cfg(), 1000).unwrap_err(),
        );
    }

    #[test]
    fn observation_is_timing_neutral() {
        let p = int_loop_program(true);
        let plain = run(&p);
        let mut counters = crate::observe::EventCounters::default();
        let observed = simulate_observed(&p, &cfg(), 10_000_000, &mut counters).expect("observed");
        assert_eq!(plain, observed);
        assert_eq!(counters.retired, plain.retired);
        assert_eq!(counters.writebacks, counters.dispatched);
    }
}
