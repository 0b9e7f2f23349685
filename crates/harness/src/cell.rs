//! The batched simulation API: [`CellSpec`] → [`run_cells`] → [`CellResult`].
//!
//! Every consumer of the simulator — the experiment matrix, the
//! `--check` co-simulation sweep, and the fuzz oracle —
//! names its work the same way: a [`CellId`] (workload × scheme ×
//! machine width) plus a [`CellMode`] saying which engine to run. A
//! batch of such [`CellSpec`]s goes through [`run_cells`], which fans
//! the cells across a worker pool; each worker thread runs its cells
//! through one persistent [`fpa_sim::SimSession`] (the `fpa_sim` entry
//! points are session-routed), so the decode buffer and simulator arenas
//! are reused across every cell a worker executes and steady state
//! allocates nothing per cell.
//!
//! Results are deterministic and independent of `jobs`: the simulators
//! are single-threaded and sessions only cache *allocations*, never
//! state. A session's machines keep their memory between cells and zero
//! only the pages the previous run wrote;
//! `crates/fuzz/tests/session_hygiene.rs` proves timing, functional and
//! co-simulated results and final memory are identical under arbitrary
//! interleaving.

use crate::compiler::Scheme;
use crate::engine::parallel_map;
use crate::json::Json;
use crate::pipeline::CompiledWorkload;
use fpa_sim::{CosimReport, EventCounters, ExecError, FuncSimResult, MachineConfig, TimingResult};
use std::fmt;
use std::time::Instant;

/// A Table 1 machine preset, by issue width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WidthPreset {
    /// The 4-way machine (2 int + 2 fp units, 32 in flight).
    FourWay,
    /// The 8-way machine (4 int + 4 fp units, 64 in flight).
    EightWay,
}

impl WidthPreset {
    /// Both presets, in presentation order (4-way first).
    pub const ALL: [WidthPreset; 2] = [WidthPreset::FourWay, WidthPreset::EightWay];

    /// Stable label (used in reports and JSON): `"4-way"` / `"8-way"`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WidthPreset::FourWay => "4-way",
            WidthPreset::EightWay => "8-way",
        }
    }

    /// The preset's [`MachineConfig`], named augmented or conventional
    /// by `augmented`.
    #[must_use]
    pub fn config(self, augmented: bool) -> MachineConfig {
        match self {
            WidthPreset::FourWay => MachineConfig::four_way(augmented),
            WidthPreset::EightWay => MachineConfig::eight_way(augmented),
        }
    }
}

impl fmt::Display for WidthPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for WidthPreset {
    type Err = String;

    fn from_str(s: &str) -> Result<WidthPreset, String> {
        WidthPreset::ALL
            .into_iter()
            .find(|w| w.label() == s)
            .ok_or_else(|| format!("unknown machine width `{s}` (4-way|8-way)"))
    }
}

/// One cell of the experiment space: which workload, compiled under
/// which scheme, on which machine. The shared coordinate type across
/// report, check, bench, and fuzz JSON.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Workload name (or a campaign-assigned label for generated
    /// programs, e.g. `case0042`).
    pub workload: String,
    /// Which binary runs.
    pub scheme: Scheme,
    /// Machine preset. Functional cells carry a width too (by
    /// convention, [`WidthPreset::FourWay`]) so every cell addresses
    /// uniformly; the functional engine ignores it.
    pub width: WidthPreset,
}

impl CellId {
    /// Builds an id from parts.
    #[must_use]
    pub fn new(workload: impl Into<String>, scheme: Scheme, width: WidthPreset) -> CellId {
        CellId {
            workload: workload.into(),
            scheme,
            width,
        }
    }

    /// JSON form: `{"workload": ..., "scheme": ..., "width": ...}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("workload", self.workload.as_str())
            .set("scheme", self.scheme.label())
            .set("width", self.width.label());
        o
    }

    /// Reconstructs an id from [`CellId::to_json`] output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<CellId> {
        Some(CellId {
            workload: v.get("workload")?.as_str()?.to_string(),
            scheme: v.get("scheme")?.as_str()?.parse().ok()?,
            width: v.get("width")?.as_str()?.parse().ok()?,
        })
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.workload, self.scheme, self.width)
    }
}

/// Which engine a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// Architectural execution only ([`fpa_sim::run_functional`]).
    Functional,
    /// Cycle-level timing ([`fpa_sim::simulate`]).
    Timing,
    /// Timing with pipeline event counters
    /// ([`fpa_sim::simulate_observed`] + [`EventCounters`]).
    TimingObserved,
    /// Timing under the full lockstep + invariant checker
    /// ([`fpa_sim::cosimulate`]).
    Cosim,
}

/// One unit of simulation work for [`run_cells`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Which (workload, scheme, width) cell.
    pub id: CellId,
    /// Which engine.
    pub mode: CellMode,
    /// Override for the machine's augmented bit. `None` derives it from
    /// the scheme (conventional ⇒ plain, basic/advanced ⇒ augmented);
    /// `Some` forces it. The bit only names the machine (see
    /// [`MachineConfig::name`]).
    pub augmented: Option<bool>,
    /// Simulation fuel (cycles for timing modes, instructions for
    /// functional).
    pub fuel: u64,
}

impl CellSpec {
    /// A spec with the scheme-derived augmented flag.
    #[must_use]
    pub fn new(id: CellId, mode: CellMode, fuel: u64) -> CellSpec {
        CellSpec {
            id,
            mode,
            augmented: None,
            fuel,
        }
    }

    /// The augmented flag this cell's machine runs with.
    #[must_use]
    pub fn effective_augmented(&self) -> bool {
        self.augmented
            .unwrap_or(self.id.scheme != Scheme::Conventional)
    }

    /// The cell's machine configuration.
    #[must_use]
    pub fn config(&self) -> MachineConfig {
        self.id.width.config(self.effective_augmented())
    }
}

/// What a cell's engine produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CellPayload {
    /// From [`CellMode::Functional`].
    Functional(Box<FuncSimResult>),
    /// From [`CellMode::Timing`].
    Timing(Box<TimingResult>),
    /// From [`CellMode::TimingObserved`].
    TimingObserved(Box<(TimingResult, EventCounters)>),
    /// From [`CellMode::Cosim`].
    Cosim(Box<CosimReport>),
}

impl CellPayload {
    /// The functional result, if this was a functional cell.
    #[must_use]
    pub fn functional(&self) -> Option<&FuncSimResult> {
        match self {
            CellPayload::Functional(r) => Some(r),
            _ => None,
        }
    }

    /// The timing result, for any of the three timing-engine modes.
    #[must_use]
    pub fn timing(&self) -> Option<&TimingResult> {
        match self {
            CellPayload::Timing(r) => Some(r),
            CellPayload::TimingObserved(b) => Some(&b.0),
            CellPayload::Cosim(r) => Some(&r.result),
            CellPayload::Functional(_) => None,
        }
    }

    /// The event counters, if this was an observed timing cell.
    #[must_use]
    pub fn events(&self) -> Option<&EventCounters> {
        match self {
            CellPayload::TimingObserved(b) => Some(&b.1),
            _ => None,
        }
    }

    /// The co-simulation report, if this was a cosim cell.
    #[must_use]
    pub fn cosim(&self) -> Option<&CosimReport> {
        match self {
            CellPayload::Cosim(r) => Some(r),
            _ => None,
        }
    }
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Which cell ran.
    pub id: CellId,
    /// What it produced.
    pub payload: CellPayload,
    /// Wall-clock seconds the simulation took (excluding program
    /// resolution, including session-cached decode).
    pub seconds: f64,
}

/// A batch failure: either a spec that names nothing, or a simulator
/// fault inside one cell.
#[derive(Debug)]
pub enum CellError {
    /// No workload of this name among the batch's compiled workloads.
    UnknownCell(CellId),
    /// The simulation itself failed.
    Exec {
        /// The failing cell.
        id: CellId,
        /// The simulator's error.
        source: ExecError,
    },
}

impl CellError {
    /// The underlying [`ExecError`], for callers whose error type
    /// predates the batch API. Unknown-cell errors (a harness-side
    /// construction bug, not a simulation outcome) panic.
    #[must_use]
    pub fn into_exec(self) -> ExecError {
        match self {
            CellError::Exec { source, .. } => source,
            CellError::UnknownCell(id) => panic!("cell {id} names no program in this batch"),
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::UnknownCell(id) => write!(f, "cell {id}: no such workload/scheme"),
            CellError::Exec { id, source } => write!(f, "cell {id}: {source}"),
        }
    }
}

impl std::error::Error for CellError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CellError::Exec { source, .. } => Some(source),
            CellError::UnknownCell(_) => None,
        }
    }
}

fn run_cell(compiled: &[CompiledWorkload], spec: &CellSpec) -> Result<CellResult, CellError> {
    let program = compiled
        .iter()
        .find(|c| c.name == spec.id.workload)
        .map(|c| c.suite.program(spec.id.scheme))
        .ok_or_else(|| CellError::UnknownCell(spec.id.clone()))?;
    let t = Instant::now();
    let run = match spec.mode {
        CellMode::Functional => fpa_sim::run_functional(program, spec.fuel)
            .map(|r| CellPayload::Functional(Box::new(r))),
        CellMode::Timing => fpa_sim::simulate(program, &spec.config(), spec.fuel)
            .map(|r| CellPayload::Timing(Box::new(r))),
        CellMode::TimingObserved => {
            let mut events = EventCounters::default();
            fpa_sim::simulate_observed(program, &spec.config(), spec.fuel, &mut events)
                .map(|r| CellPayload::TimingObserved(Box::new((r, events))))
        }
        CellMode::Cosim => fpa_sim::cosimulate(program, &spec.config(), spec.fuel)
            .map(|r| CellPayload::Cosim(Box::new(r))),
    };
    let payload = run.map_err(|source| CellError::Exec {
        id: spec.id.clone(),
        source,
    })?;
    Ok(CellResult {
        id: spec.id.clone(),
        payload,
        seconds: t.elapsed().as_secs_f64(),
    })
}

/// Runs a batch of cells on the `compiled` workloads their ids name,
/// fanning them across `jobs` worker threads (inline on the caller's
/// thread for `jobs <= 1`). Results come back in spec order, and their
/// *values* are identical for any `jobs` — each simulation is
/// single-threaded and deterministic, and the per-thread
/// [`fpa_sim::SimSession`] reuses only allocations, never state.
///
/// # Errors
///
/// Returns the first [`CellError`] in spec order. Cells after a failing
/// one may or may not have run; their results are discarded.
pub fn run_cells(
    compiled: &[CompiledWorkload],
    specs: &[CellSpec],
    jobs: usize,
) -> Result<Vec<CellResult>, CellError> {
    parallel_map(specs, jobs, |spec| run_cell(compiled, spec))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build;
    use fpa_partition::CostParams;

    fn compiled_li() -> Vec<CompiledWorkload> {
        let w = fpa_workloads::by_name("li").unwrap();
        vec![build(&w, &CostParams::default()).unwrap()]
    }

    #[test]
    fn cell_id_round_trips_through_json_and_displays() {
        let id = CellId::new("compress", Scheme::Advanced, WidthPreset::FourWay);
        assert_eq!(id.to_string(), "compress/advanced/4-way");
        let back = CellId::from_json(&id.to_json()).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn augmented_override_changes_the_machine_not_the_scheme() {
        let id = CellId::new("x", Scheme::Conventional, WidthPreset::FourWay);
        let mut spec = CellSpec::new(id, CellMode::Timing, 1000);
        assert!(!spec.effective_augmented());
        spec.augmented = Some(true);
        assert!(spec.effective_augmented());
        assert_eq!(spec.config(), MachineConfig::four_way(true));
    }

    #[test]
    fn batch_runs_all_modes_and_matches_single_runs() {
        let compiled = compiled_li();
        let fuel = 50_000_000;
        let specs = vec![
            CellSpec::new(
                CellId::new("li", Scheme::Conventional, WidthPreset::FourWay),
                CellMode::Timing,
                fuel,
            ),
            CellSpec::new(
                CellId::new("li", Scheme::Advanced, WidthPreset::FourWay),
                CellMode::TimingObserved,
                fuel,
            ),
            CellSpec::new(
                CellId::new("li", Scheme::Advanced, WidthPreset::FourWay),
                CellMode::Functional,
                fuel,
            ),
            CellSpec::new(
                CellId::new("li", Scheme::Basic, WidthPreset::EightWay),
                CellMode::Cosim,
                fuel,
            ),
        ];
        let results = run_cells(compiled.as_slice(), &specs, 1).unwrap();
        assert_eq!(results.len(), 4);
        let c = &compiled[0];
        let direct =
            fpa_sim::simulate(&c.suite.conventional, &MachineConfig::four_way(false), fuel)
                .unwrap();
        assert_eq!(results[0].payload.timing(), Some(&direct));
        assert!(results[1].payload.events().unwrap().retired > 0);
        assert!(results[2].payload.functional().unwrap().total > 0);
        let cosim = results[3].payload.cosim().unwrap();
        assert!(cosim.clean(), "cosim cell dirty: {:?}", cosim.violations);
        // The same batch at jobs 2 produces the same values.
        let par = run_cells(compiled.as_slice(), &specs, 2).unwrap();
        for (a, b) in results.iter().zip(&par) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.payload, b.payload);
        }
    }

    #[test]
    fn unknown_cells_are_reported_by_id() {
        let compiled = compiled_li();
        let specs = vec![CellSpec::new(
            CellId::new("nope", Scheme::Basic, WidthPreset::FourWay),
            CellMode::Timing,
            1000,
        )];
        let err = run_cells(compiled.as_slice(), &specs, 1).unwrap_err();
        assert!(matches!(err, CellError::UnknownCell(ref id) if id.workload == "nope"));
        assert!(err.to_string().contains("nope/basic/4-way"));
    }
}
