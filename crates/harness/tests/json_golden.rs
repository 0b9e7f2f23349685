//! Golden file for the machine-readable report format.
//!
//! The checked-in `tests/golden/matrix_report.json` pins the exact
//! on-disk schema: rendering a known [`MatrixReport`] must reproduce the
//! file byte for byte, and parsing the file must give back the rendered
//! JSON value. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p fpa-harness --test json_golden`.

use fpa_harness::compiler::StageTimings;
use fpa_harness::engine::{MatrixReport, RunTelemetry};
use fpa_harness::experiments::{Fig8Row, OverheadRow, SpeedupRow};
use fpa_harness::json::Json;
use fpa_sim::EventCounters;
use std::time::Duration;

/// A small fixed report exercising awkward values: sub-nanosecond-free
/// durations, negative percentages, zero counters, non-round floats.
fn fixture() -> MatrixReport {
    MatrixReport {
        jobs: 4,
        frontend_runs: 2,
        store_hits: 3,
        store_misses: 4,
        store_coalesced: 1,
        build_seconds: 0.125,
        matrix_seconds: 1.75,
        fig8: vec![
            Fig8Row {
                name: "compress".into(),
                basic_pct: 12.5,
                advanced_pct: 25.1,
            },
            Fig8Row {
                name: "li".into(),
                basic_pct: 0.0,
                advanced_pct: 3.0000000000000004,
            },
        ],
        fig9: vec![SpeedupRow {
            name: "compress".into(),
            basic_pct: -0.5,
            advanced_pct: 10.100000000000001,
            conventional_cycles: 1_234_567,
            int_idle_fp_busy_frac: 0.07216494845360824,
        }],
        fig10: vec![SpeedupRow {
            name: "compress".into(),
            basic_pct: 0.1,
            advanced_pct: 2.9,
            conventional_cycles: 987_654,
            int_idle_fp_busy_frac: 0.3333333333333333,
        }],
        overheads: vec![OverheadRow {
            name: "compress".into(),
            dynamic_increase_pct: 1.25,
            copy_pct: 0.75,
            static_increase_pct: 0.0,
            load_change_pct: -2.5,
            icache_miss_rates: (0.001953125, 0.002197265625),
        }],
        telemetry: vec![RunTelemetry {
            name: "compress".into(),
            timings: StageTimings {
                parse: Duration::from_nanos(1_500_000),
                optimize: Duration::from_nanos(22_000_333),
                profile: Duration::from_nanos(100_000_001),
                partition: Duration::from_nanos(7),
                regalloc: Duration::from_nanos(41_000_000),
                emit: Duration::from_nanos(9_999_999),
            },
            sim_seconds: 2.25,
            cycles_4way: (1_234_567, 1_200_000, 1_120_000),
            fetch_stall_cycles: 45_000,
            int_window_occupancy: 7.25,
            fp_window_occupancy: 1.0625,
            copies_retired: 0,
            static_copies: 12,
            store: fpa_harness::StoreOutcome::DiskHit,
            events: EventCounters {
                fetched: 1_300_000,
                dispatched: 1_250_000,
                issued_int: 700_000,
                issued_fp: 200_000,
                issued_mem: 300_000,
                writebacks: 1_200_000,
                retired: 1_200_000,
            },
        }],
    }
}

#[test]
fn matrix_report_matches_golden_file_bytes_and_fields() {
    let json = fixture().to_json();
    let rendered = json.render();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/matrix_report.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(rendered, golden, "rendering drifted from the golden file");

    let parsed = Json::parse(&golden).expect("golden parses");
    assert_eq!(parsed, json, "parse(render(j)) must equal j");
}
