//! The parallel experiment engine.
//!
//! [`ExperimentContext`] compiles each workload **once** into a shared
//! immutable artifact store ([`CompiledWorkload`] per workload: all four
//! programs, profile, golden output, partition stats, stage timings),
//! then fans the individual (figure, workload) cells of the full
//! experiment matrix across a `std::thread::scope` worker pool. The cycle
//! simulator itself stays single-threaded per run; parallelism is across
//! independent runs only, so results are bit-identical for any `--jobs`
//! value (see `tests/build_once.rs`).
//!
//! [`MatrixReport`] is the machine-readable result: every figure's rows
//! plus per-workload telemetry (per-stage compile timings and simulator
//! event counters), serialized to JSON by [`MatrixReport::to_json`] with
//! the hand-rolled `crate::json` writer. Nothing reads a report back;
//! the golden test pins its bytes.

use crate::artifact::StoreOutcome;
use crate::cell::{run_cells, CellError, CellId, CellMode, CellSpec, WidthPreset};
use crate::compiler::{frontend_runs, Error, Scheme, StageTimings};
use crate::experiments::{
    fig8_row_from, overhead_row_from, speedup_row_from, Fig8Row, OverheadRow, SpeedupRow,
    FUNC_FUEL, TIMING_FUEL,
};
use crate::json::Json;
use crate::pipeline::{build_traced, CompiledWorkload};
use fpa_partition::CostParams;
use fpa_sim::EventCounters;
use fpa_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Maps `f` over `items` on `jobs` worker threads, preserving input
/// order in the output regardless of completion order.
///
/// Workers pull the next unclaimed index from a shared counter, so the
/// schedule is dynamic but the result vector is deterministic. With
/// `jobs <= 1` the map runs inline on the caller's thread.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled slot")
        })
        .collect()
}

/// The default worker count: the host's available parallelism.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Per-workload observability record: compile-stage timings plus event
/// counters from the 4-way timing runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    /// Workload name.
    pub name: String,
    /// Per-stage compile timings (one frontend pass, all four builds).
    pub timings: StageTimings,
    /// Wall-clock seconds this workload's 4-way simulations took.
    pub sim_seconds: f64,
    /// Cycles on the 4-way machine: conventional, basic, advanced.
    pub cycles_4way: (u64, u64, u64),
    /// Fetch-stall cycles in the advanced 4-way run.
    pub fetch_stall_cycles: u64,
    /// Mean occupied INT issue-window slots per cycle (advanced, 4-way).
    pub int_window_occupancy: f64,
    /// Mean occupied FP issue-window slots per cycle (advanced, 4-way).
    pub fp_window_occupancy: f64,
    /// Retired cross-file copies in the advanced 4-way run.
    pub copies_retired: u64,
    /// Static copies the advanced partition placed (IR-level).
    pub static_copies: usize,
    /// How the artifact store satisfied this workload's build
    /// ([`StoreOutcome::Disabled`] when no store was configured).
    pub store: StoreOutcome,
    /// Pipeline event counters from the advanced 4-way run (fetches,
    /// dispatches, per-class issues, writebacks, retirements), recorded
    /// by the co-simulation observer hooks.
    pub events: EventCounters,
}

/// The full figure/table matrix plus telemetry, from one context.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// Worker threads used.
    pub jobs: usize,
    /// Frontend executions the builds consumed (one per uncached
    /// workload; zero when every build hit the artifact store).
    pub frontend_runs: u64,
    /// Builds served from the artifact store (either tier).
    pub store_hits: u64,
    /// Builds that ran the compiler (store misses, or store disabled).
    pub store_misses: u64,
    /// Builds that shared a concurrent request's in-flight compile.
    pub store_coalesced: u64,
    /// Wall-clock seconds spent building the artifact store.
    pub build_seconds: f64,
    /// Wall-clock seconds spent on the simulation matrix.
    pub matrix_seconds: f64,
    /// Figure 8 rows.
    pub fig8: Vec<Fig8Row>,
    /// Figure 9 rows (4-way speedups).
    pub fig9: Vec<SpeedupRow>,
    /// Figure 10 rows (8-way speedups).
    pub fig10: Vec<SpeedupRow>,
    /// §7.2 overhead rows.
    pub overheads: Vec<OverheadRow>,
    /// Per-workload telemetry.
    pub telemetry: Vec<RunTelemetry>,
}

/// A build-once artifact cache plus the worker pool that consumes it.
///
/// Construction compiles every workload exactly once (asserted by
/// `tests/build_once.rs` against [`frontend_runs`]); everything
/// afterwards — figures, tables, telemetry — reads the shared immutable
/// store.
#[derive(Debug)]
pub struct ExperimentContext {
    compiled: Vec<CompiledWorkload>,
    outcomes: Vec<StoreOutcome>,
    jobs: usize,
    build_seconds: f64,
    frontend_runs: u64,
}

impl ExperimentContext {
    /// Builds every workload in `set` once, in parallel.
    ///
    /// # Errors
    ///
    /// Returns the first pipeline failure (by workload order), wrapped
    /// with the failing workload's name so one bad program is reported
    /// precisely instead of aborting the matrix anonymously.
    pub fn new(
        set: &[Workload],
        params: &CostParams,
        jobs: usize,
    ) -> Result<ExperimentContext, Error> {
        let runs_before = frontend_runs();
        let t = Instant::now();
        let built = parallel_map(set, jobs, |w| build_traced(w, params));
        let build_seconds = t.elapsed().as_secs_f64();
        let mut compiled = Vec::with_capacity(built.len());
        let mut outcomes = Vec::with_capacity(built.len());
        for (w, r) in set.iter().zip(built) {
            let (c, outcome) = r.map_err(|e| e.in_workload(&w.name))?;
            compiled.push(c);
            outcomes.push(outcome);
        }
        Ok(ExperimentContext {
            compiled,
            outcomes,
            jobs,
            build_seconds,
            frontend_runs: frontend_runs() - runs_before,
        })
    }

    /// The shared artifact store, in workload order.
    #[must_use]
    pub fn compiled(&self) -> &[CompiledWorkload] {
        &self.compiled
    }

    /// Worker threads this context uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Wall-clock seconds the build phase took.
    #[must_use]
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// The ten simulation cells behind one workload's row in every
    /// figure, heaviest first so the pool drains evenly. Fixed indices
    /// (documented here, relied on by [`ExperimentContext::matrix`]):
    ///
    /// | idx | cell                                               | feeds        |
    /// |-----|----------------------------------------------------|--------------|
    /// | 0–2 | 8-way timing, conventional/basic/advanced          | fig10        |
    /// | 3–5 | 4-way timing, conventional/basic/advanced+observer | fig9, telem. |
    /// | 6   | 4-way timing, conventional binary on the           | overheads    |
    /// |     | *augmented* machine (§7.2's i-cache comparison)    |              |
    /// | 7–9 | functional, basic/advanced/conventional            | fig8, ovh.   |
    ///
    /// The advanced 4-way run (index 5) is shared between fig9,
    /// telemetry and the overhead row's i-cache column — one simulation,
    /// three consumers.
    fn workload_specs(name: &str) -> [CellSpec; 10] {
        let id = |scheme, width| CellId::new(name.to_string(), scheme, width);
        let t = |scheme, width| CellSpec::new(id(scheme, width), CellMode::Timing, TIMING_FUEL);
        let f = |scheme| {
            CellSpec::new(
                id(scheme, WidthPreset::FourWay),
                CellMode::Functional,
                FUNC_FUEL,
            )
        };
        [
            t(Scheme::Conventional, WidthPreset::EightWay),
            t(Scheme::Basic, WidthPreset::EightWay),
            t(Scheme::Advanced, WidthPreset::EightWay),
            t(Scheme::Conventional, WidthPreset::FourWay),
            t(Scheme::Basic, WidthPreset::FourWay),
            CellSpec::new(
                id(Scheme::Advanced, WidthPreset::FourWay),
                CellMode::TimingObserved,
                TIMING_FUEL,
            ),
            CellSpec {
                id: id(Scheme::Conventional, WidthPreset::FourWay),
                mode: CellMode::Timing,
                augmented: Some(true),
                fuel: TIMING_FUEL,
            },
            f(Scheme::Basic),
            f(Scheme::Advanced),
            f(Scheme::Conventional),
        ]
    }

    /// Computes the full figure/table matrix, fanning one task per
    /// simulation cell across the worker pool via
    /// [`crate::cell::run_cells`].
    ///
    /// # Errors
    ///
    /// Returns the first simulation failure (by cell order).
    pub fn matrix(&self) -> Result<MatrixReport, fpa_sim::ExecError> {
        let t = Instant::now();
        let n = self.compiled.len();
        let specs: Vec<CellSpec> = self
            .compiled
            .iter()
            .flat_map(|c| Self::workload_specs(&c.name))
            .collect();
        let results =
            run_cells(self.compiled.as_slice(), &specs, self.jobs).map_err(CellError::into_exec)?;

        let mut fig8 = Vec::with_capacity(n);
        let mut fig9 = Vec::with_capacity(n);
        let mut fig10 = Vec::with_capacity(n);
        let mut overheads = Vec::with_capacity(n);
        let mut telemetry = Vec::with_capacity(n);
        for ((c, outcome), r) in self
            .compiled
            .iter()
            .zip(&self.outcomes)
            .zip(results.chunks_exact(10))
        {
            let tm = |i: usize| r[i].payload.timing().expect("timing cell");
            let fr = |i: usize| r[i].payload.functional().expect("functional cell");
            fig10.push(speedup_row_from(&c.name, tm(0), tm(1), tm(2)));
            let adv = tm(5);
            fig9.push(speedup_row_from(&c.name, tm(3), tm(4), adv));
            telemetry.push(RunTelemetry {
                name: c.name.clone(),
                timings: c.suite.timings,
                sim_seconds: r[3].seconds + r[4].seconds + r[5].seconds,
                cycles_4way: (tm(3).cycles, tm(4).cycles, adv.cycles),
                fetch_stall_cycles: adv.fetch_stall_cycles,
                int_window_occupancy: adv.int_window_occupancy(),
                fp_window_occupancy: adv.fp_window_occupancy(),
                copies_retired: adv.copies_retired,
                static_copies: c.suite.advanced_stats.static_copies,
                store: *outcome,
                events: *r[5].payload.events().expect("observed cell"),
            });
            overheads.push(overhead_row_from(c, fr(9), fr(8), tm(6), adv));
            fig8.push(fig8_row_from(&c.name, fr(7), fr(8)));
        }
        let count =
            |f: fn(StoreOutcome) -> bool| self.outcomes.iter().filter(|o| f(**o)).count() as u64;
        Ok(MatrixReport {
            jobs: self.jobs,
            frontend_runs: self.frontend_runs,
            store_hits: count(|o| matches!(o, StoreOutcome::MemHit | StoreOutcome::DiskHit)),
            store_misses: count(|o| matches!(o, StoreOutcome::Miss | StoreOutcome::Disabled)),
            store_coalesced: count(|o| matches!(o, StoreOutcome::Coalesced)),
            build_seconds: self.build_seconds,
            matrix_seconds: t.elapsed().as_secs_f64(),
            fig8,
            fig9,
            fig10,
            overheads,
            telemetry,
        })
    }
}

// ---- JSON serialization ------------------------------------------------

/// Stage timings as an exact-integer nanosecond object (`f64` holds
/// integers exactly up to 2^53 ns ≈ 104 days).
fn timings_to_json(t: &StageTimings) -> Json {
    let mut o = Json::obj();
    o.set("parse_ns", t.parse.as_nanos() as u64)
        .set("optimize_ns", t.optimize.as_nanos() as u64)
        .set("profile_ns", t.profile.as_nanos() as u64)
        .set("partition_ns", t.partition.as_nanos() as u64)
        .set("regalloc_ns", t.regalloc.as_nanos() as u64)
        .set("emit_ns", t.emit.as_nanos() as u64);
    o
}

fn events_to_json(e: &EventCounters) -> Json {
    let mut o = Json::obj();
    o.set("fetched", e.fetched)
        .set("dispatched", e.dispatched)
        .set("issued_int", e.issued_int)
        .set("issued_fp", e.issued_fp)
        .set("issued_mem", e.issued_mem)
        .set("writebacks", e.writebacks)
        .set("retired", e.retired);
    o
}

impl RunTelemetry {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("name", self.name.as_str())
            .set("stages", timings_to_json(&self.timings))
            .set("sim_seconds", self.sim_seconds)
            .set("conventional_cycles_4way", self.cycles_4way.0)
            .set("basic_cycles_4way", self.cycles_4way.1)
            .set("advanced_cycles_4way", self.cycles_4way.2)
            .set("fetch_stall_cycles", self.fetch_stall_cycles)
            .set("int_window_occupancy", self.int_window_occupancy)
            .set("fp_window_occupancy", self.fp_window_occupancy)
            .set("copies_retired", self.copies_retired)
            .set("static_copies", self.static_copies)
            .set("store", self.store.label())
            .set("events", events_to_json(&self.events));
        o
    }
}

fn fig8_to_json(r: &Fig8Row) -> Json {
    let mut o = Json::obj();
    o.set("name", r.name.as_str())
        .set("basic_pct", r.basic_pct)
        .set("advanced_pct", r.advanced_pct);
    o
}

fn speedup_to_json(r: &SpeedupRow) -> Json {
    let mut o = Json::obj();
    o.set("name", r.name.as_str())
        .set("basic_pct", r.basic_pct)
        .set("advanced_pct", r.advanced_pct)
        .set("conventional_cycles", r.conventional_cycles)
        .set("int_idle_fp_busy_frac", r.int_idle_fp_busy_frac);
    o
}

fn overhead_to_json(r: &OverheadRow) -> Json {
    let mut o = Json::obj();
    o.set("name", r.name.as_str())
        .set("dynamic_increase_pct", r.dynamic_increase_pct)
        .set("copy_pct", r.copy_pct)
        .set("static_increase_pct", r.static_increase_pct)
        .set("load_change_pct", r.load_change_pct)
        .set("icache_miss_rate_conventional", r.icache_miss_rates.0)
        .set("icache_miss_rate_advanced", r.icache_miss_rates.1);
    o
}

impl MatrixReport {
    /// Schema identifier written into every report.
    pub const SCHEMA: &'static str = "fpa-matrix-report";
    /// Schema version. v2 added artifact-store observability
    /// (`store_hits`/`store_misses`/`store_coalesced`, per-workload
    /// `store` labels in telemetry).
    pub const VERSION: u64 = 2;

    /// Serializes to the `fpa-matrix-report` JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let arr = |v: Vec<Json>| Json::Arr(v);
        let mut o = Json::obj();
        o.set("schema", Self::SCHEMA)
            .set("version", Self::VERSION)
            .set("jobs", self.jobs)
            .set("frontend_runs", self.frontend_runs)
            .set("store_hits", self.store_hits)
            .set("store_misses", self.store_misses)
            .set("store_coalesced", self.store_coalesced)
            .set("build_seconds", self.build_seconds)
            .set("matrix_seconds", self.matrix_seconds)
            .set("fig8", arr(self.fig8.iter().map(fig8_to_json).collect()))
            .set("fig9", arr(self.fig9.iter().map(speedup_to_json).collect()))
            .set(
                "fig10",
                arr(self.fig10.iter().map(speedup_to_json).collect()),
            )
            .set(
                "overheads",
                arr(self.overheads.iter().map(overhead_to_json).collect()),
            )
            .set(
                "telemetry",
                arr(self.telemetry.iter().map(RunTelemetry::to_json).collect()),
            );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let out = parallel_map(&items, jobs, |&x| x * x);
            assert_eq!(
                out,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(parallel_map(&[] as &[u8], 4, |_| 0u8).is_empty());
    }

    #[test]
    fn parallel_map_is_actually_concurrent_when_jobs_gt_one() {
        use std::sync::atomic::AtomicUsize;
        // Two tasks that each wait for the other to start: only completes
        // if both run at once.
        let started = AtomicUsize::new(0);
        let items = [0u8, 1u8];
        let out = parallel_map(&items, 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < 2 {
                assert!(Instant::now() < deadline, "tasks did not overlap");
                std::thread::yield_now();
            }
            true
        });
        assert_eq!(out, vec![true, true]);
    }
}
