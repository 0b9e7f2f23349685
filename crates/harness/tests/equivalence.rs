//! Fast-path / reference-engine equivalence sweep.
//!
//! The wakeup-driven timing simulator (`fpa_sim::ooo::simulate`) must be
//! *bit-identical* to the frozen full-window-rescan engine
//! (`fpa_sim::reference::simulate_reference`): every workload × scheme ×
//! machine-width cell is run through both and the complete
//! [`fpa_sim::TimingResult`] — cycles, issue counts, cache and predictor
//! counters, occupancy sums, stall cycles, copies — is compared
//! field-for-field. Together with the byte-pinned golden statistics
//! matrix (`tests/golden_stats.rs`, which runs the same cells through
//! the fast path) this proves the scheduler rewrite changed the
//! simulator's speed and nothing else.
//!
//! The fast path only serves reorder buffers of at most 64 entries; a
//! wider window must fall back to the reference engine, which the
//! second test checks on windows no Table 1 machine uses.

use fpa_harness::compiler::Scheme;
use fpa_harness::engine::{parallel_map, ExperimentContext};
use fpa_harness::experiments::TIMING_FUEL;
use fpa_harness::Compiler;
use fpa_partition::CostParams;
use fpa_sim::{simulate, simulate_reference, MachineConfig};

#[test]
fn fast_path_matches_reference_on_all_64_cells() {
    let set = fpa_workloads::integer();
    let jobs = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let ctx = ExperimentContext::new(&set, &CostParams::default(), jobs).expect("pipeline");

    type Machine = (&'static str, fn(bool) -> MachineConfig);
    const MACHINES: [Machine; 2] = [
        ("4-way", MachineConfig::four_way),
        ("8-way", MachineConfig::eight_way),
    ];
    let mut cells = Vec::new();
    for c in ctx.compiled() {
        for &(machine, make) in &MACHINES {
            for scheme in Scheme::ALL {
                cells.push((c, scheme, machine, make));
            }
        }
    }
    assert_eq!(cells.len(), 64, "expected the full 64-cell matrix");

    let mismatches: Vec<String> = parallel_map(&cells, jobs, |&(c, scheme, machine, make)| {
        let program = c.suite.program(scheme);
        let cfg = make(scheme != Scheme::Conventional);
        let fast = simulate(program, &cfg, TIMING_FUEL).expect("fast path");
        let reference = simulate_reference(program, &cfg, TIMING_FUEL).expect("reference");
        if fast == reference {
            None
        } else {
            Some(format!(
                "{}/{scheme:?}/{machine}: fast {fast:#?} != reference {reference:#?}",
                c.name
            ))
        }
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        mismatches.is_empty(),
        "fast path diverged from the reference engine on {} cell(s):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn windows_wider_than_64_fall_back_to_the_reference_engine() {
    // The fast path's ready and store-barrier sets are `u64` masks over
    // the ROB window, so `simulate` must hand a wider window to the
    // reference engine: 96 entries (between 64 and 128) and 200 must
    // both finish and equal the reference result.
    let w = fpa_workloads::by_name("gcc").expect("gcc workload");
    let suite = Compiler::new(&w.source).build_suite().expect("gcc builds");
    for window in [96u32, 200] {
        let cfg = MachineConfig {
            max_inflight: window,
            int_window: window / 2,
            fp_window: window / 2,
            int_phys: 32 + window,
            fp_phys: 32 + window,
            ..MachineConfig::eight_way(true)
        };
        let fast = simulate(&suite.advanced, &cfg, TIMING_FUEL).expect("fast path");
        let reference = simulate_reference(&suite.advanced, &cfg, TIMING_FUEL).expect("reference");
        assert_eq!(fast, reference, "{window}-entry window");
    }
}
