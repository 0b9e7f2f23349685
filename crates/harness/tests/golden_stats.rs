//! Golden statistics regression test: pins the *numbers* of the paper's
//! figure matrix, not just their shape.
//!
//! The full integer workload set runs through the experiment engine and
//! the deterministic portion of the resulting [`MatrixReport`] — every
//! fig8/fig9/fig10 row, the overhead matrix, and the per-workload
//! simulator telemetry — is rendered to canonical JSON and compared byte
//! for byte against the checked-in
//! `tests/golden/matrix_stats.json`. The floating-point programs of §7.5
//! run through the same engine into `tests/golden/fp_matrix_stats.json`.
//! Any change to the compiler, partitioner, or timing simulator that
//! moves a statistic shows up as a reviewable diff of these files. After
//! an *intentional* change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p fpa-harness --test golden_stats`.
//!
//! Wall-clock fields (worker count, build/matrix seconds, per-stage
//! timings) are zeroed before rendering so the file is identical on any
//! host and for any `--jobs` value.

use fpa_harness::compiler::StageTimings;
use fpa_harness::engine::{ExperimentContext, MatrixReport};
use fpa_partition::CostParams;
use fpa_workloads::Workload;

/// Strips every nondeterministic field: wall-clock times, plus the
/// artifact-store counters (`frontend_runs` and the cache outcomes vary
/// with the configured store / prior store contents, never with the
/// statistics under test).
fn normalized(mut m: MatrixReport) -> MatrixReport {
    m.jobs = 0;
    m.build_seconds = 0.0;
    m.matrix_seconds = 0.0;
    m.frontend_runs = 0;
    m.store_hits = 0;
    m.store_misses = 0;
    m.store_coalesced = 0;
    for t in &mut m.telemetry {
        t.timings = StageTimings::default();
        t.sim_seconds = 0.0;
        t.store = fpa_harness::StoreOutcome::Disabled;
    }
    m
}

/// Renders `set`'s normalized matrix and compares it byte for byte with
/// `tests/golden/<file>` (rewriting the file first under `UPDATE_GOLDEN`).
fn assert_matches_golden(set: &[Workload], file: &str) {
    let ctx = ExperimentContext::new(set, &CostParams::default(), 1).expect("pipeline");
    let rendered = normalized(ctx.matrix().expect("matrix")).to_json().render();
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden stats file present (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        rendered, golden,
        "experiment statistics drifted from tests/golden/{file}; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn figure_matrix_matches_golden_statistics() {
    assert_matches_golden(&fpa_workloads::integer(), "matrix_stats.json");
    assert_matches_golden(&fpa_workloads::floating(), "fp_matrix_stats.json");
}
