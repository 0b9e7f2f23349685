//! The experiment engine's core guarantees, asserted end to end:
//!
//! 1. **Build-once**: constructing an [`ExperimentContext`] advances the
//!    global frontend counter by exactly one per workload, and computing
//!    the full figure matrix advances it by zero.
//! 2. **Determinism**: the matrix rows are identical whatever the worker
//!    count (the simulator is single-threaded per run; parallelism is
//!    across runs only).
//! 3. **Lossless JSON**: a real `MatrixReport`'s JSON value survives
//!    `render` → `parse` unchanged.
//! 4. **Sweeps re-partition one profile**: the cost-model ablation
//!    advances the frontend counter by one per workload, not one per
//!    sweep point.
//!
//! This file deliberately contains a single `#[test]`: integration-test
//! binaries run their tests on concurrent threads, and any other test
//! compiling sources in this process would skew the frontend counter.

use fpa_harness::compiler::frontend_runs;
use fpa_harness::engine::ExperimentContext;
use fpa_harness::json::Json;
use fpa_partition::CostParams;

#[test]
fn frontend_runs_once_per_workload_and_matrix_is_deterministic() {
    let set: Vec<_> = ["m88ksim", "li", "compress"]
        .iter()
        .map(|n| fpa_workloads::by_name(n).unwrap())
        .collect();
    let params = CostParams::default();

    // 1. Build-once: one frontend execution per workload, none afterwards.
    let before = frontend_runs();
    let parallel = ExperimentContext::new(&set, &params, 4).unwrap();
    assert_eq!(
        frontend_runs() - before,
        set.len() as u64,
        "ExperimentContext must compile each workload exactly once"
    );
    let report_par = parallel.matrix().unwrap();
    assert_eq!(
        frontend_runs() - before,
        set.len() as u64,
        "computing the matrix must not re-run the frontend"
    );
    assert_eq!(report_par.frontend_runs, set.len() as u64);

    // 2. Determinism: a serial context produces identical figure rows.
    let serial = ExperimentContext::new(&set, &params, 1).unwrap();
    let report_ser = serial.matrix().unwrap();
    assert_eq!(report_par.fig8, report_ser.fig8);
    assert_eq!(report_par.fig9, report_ser.fig9);
    assert_eq!(report_par.fig10, report_ser.fig10);
    assert_eq!(report_par.overheads, report_ser.overheads);
    // Telemetry matches too, except wall-clock fields.
    for (a, b) in report_par.telemetry.iter().zip(&report_ser.telemetry) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.cycles_4way, b.cycles_4way);
        assert_eq!(a.fetch_stall_cycles, b.fetch_stall_cycles);
        assert_eq!(a.copies_retired, b.copies_retired);
        assert_eq!(a.static_copies, b.static_copies);
        assert_eq!(
            a.int_window_occupancy.to_bits(),
            b.int_window_occupancy.to_bits()
        );
        assert_eq!(
            a.fp_window_occupancy.to_bits(),
            b.fp_window_occupancy.to_bits()
        );
    }

    // 3. Lossless JSON round-trip on the real report.
    let json = report_par.to_json();
    let text = json.render();
    let parsed = Json::parse(&text).expect("rendered JSON must parse");
    assert_eq!(parsed, json, "parse(render(j)) must equal j");

    // Sanity on content: every workload present, sensible counters.
    assert_eq!(report_par.fig9.len(), set.len());
    for t in &report_par.telemetry {
        assert!(t.cycles_4way.2 > 0, "{t:?}");
        assert!(t.timings.total().as_nanos() > 0, "{t:?}");
    }
    let m88 = report_par
        .telemetry
        .iter()
        .find(|t| t.name == "m88ksim")
        .unwrap();
    assert!(
        m88.copies_retired > 0,
        "advanced m88ksim should execute copies"
    );

    // 4. The cost-model ablation re-partitions one profile: one front
    //    half per workload, however many sweep points it runs.
    let before = frontend_runs();
    let rows = fpa_harness::ablate_cost_params(&["li"]).unwrap();
    assert_eq!(rows.len(), 8);
    assert_eq!(
        frontend_runs() - before,
        1,
        "every ablation point must be a back half on the workload's one profile"
    );
}
