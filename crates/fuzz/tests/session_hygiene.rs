//! Session hygiene: a long-lived [`SimSession`] must be purely an
//! allocation cache. Running the whole corpus through one session — in
//! an order that interleaves workloads, schemes, and machine widths, so
//! arenas repeatedly resize, memory pages written by one program must be
//! zeroed before the next, and the decode buffer is refilled with a
//! longer or shorter program each run — must
//! produce timing results, functional results with their final memory,
//! and co-simulation reports identical to giving every run a fresh
//! session, and identical to the session-routed free functions the batch
//! API and the fuzz oracle use.

use fpa_fuzz::corpus;
use fpa_harness::Compiler;
use fpa_isa::Program;
use fpa_sim::{MachineConfig, SimSession};
use std::path::PathBuf;

const FUEL: u64 = 50_000_000;

/// Every corpus reproducer that still compiles, × 4 schemes, with the
/// scheme-appropriate augmented flag.
fn corpus_programs() -> Vec<(Program, bool)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let files = corpus::list(&dir).expect("list corpus");
    assert!(
        files.len() >= 10,
        "corpus unexpectedly small: {}",
        files.len()
    );
    let mut programs = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read corpus file");
        // Corpus files reproduce *historical* failures; skip any the
        // current frontend rejects outright.
        let Ok(suite) = Compiler::new(&src).build_suite() else {
            continue;
        };
        programs.push((suite.conventional, false));
        programs.push((suite.basic, true));
        programs.push((suite.advanced, true));
        programs.push((suite.optimal, true));
    }
    assert!(
        programs.len() >= 2 * files.len(),
        "most corpus reproducers should still build ({} programs from {} files)",
        programs.len(),
        files.len()
    );
    programs
}

#[test]
fn interleaved_session_runs_match_fresh_state_runs() {
    let programs = corpus_programs();

    // The cell list: every program on both machine widths.
    let cells: Vec<(usize, MachineConfig)> = (0..programs.len())
        .flat_map(|i| {
            let augmented = programs[i].1;
            [
                (i, MachineConfig::four_way(augmented)),
                (i, MachineConfig::eight_way(augmented)),
            ]
        })
        .collect();

    // Baseline: every cell on a brand-new session (fresh arenas, empty
    // decode buffer).
    let baseline: Vec<_> = cells
        .iter()
        .map(|(i, cfg)| SimSession::new().simulate(&programs[*i].0, cfg, FUEL))
        .collect();

    // One persistent session, visiting cells outside-in (first, last,
    // second, second-to-last, ...) so consecutive runs flip between
    // programs and widths — the worst case for stale arena and memory
    // state. Each pass sweeps that order three times — timing runs,
    // functional runs (with final memory), co-simulated runs — so every
    // run of a kind follows a different program. Two full passes: the
    // second replays everything through arenas already grown to their
    // largest size.
    let mut session = SimSession::new();
    let mut order = Vec::with_capacity(cells.len());
    let (mut lo, mut hi) = (0, cells.len());
    while lo < hi {
        order.push(lo);
        lo += 1;
        if lo < hi {
            hi -= 1;
            order.push(hi);
        }
    }
    for pass in 0..2 {
        for &k in &order {
            let (i, cfg) = &cells[k];
            let got = session.simulate(&programs[*i].0, cfg, FUEL);
            assert_eq!(
                got, baseline[k],
                "cell {k} (program {i}) diverged on persistent-session pass {pass}"
            );
        }
        for &k in &order {
            let program = &programs[cells[k].0].0;
            let mut fresh = SimSession::new();
            assert_eq!(
                session.run_functional(program, FUEL),
                fresh.run_functional(program, FUEL),
                "cell {k} functional run diverged on pass {pass}"
            );
            assert!(
                session.memory() == fresh.memory(),
                "cell {k} final memory diverged on pass {pass}"
            );
        }
        for &k in &order {
            let (i, cfg) = &cells[k];
            let got = session.cosimulate(&programs[*i].0, cfg, FUEL);
            assert_eq!(
                got,
                SimSession::new().cosimulate(&programs[*i].0, cfg, FUEL),
                "cell {k} co-simulation diverged on pass {pass}"
            );
        }
    }

    // The free functions route through the calling thread's shared
    // session (how `run_cells` workers and the fuzz oracle execute);
    // they must agree too.
    for (k, (i, cfg)) in cells.iter().enumerate() {
        let program = &programs[*i].0;
        let got = fpa_sim::simulate(program, cfg, FUEL);
        assert_eq!(
            got, baseline[k],
            "cell {k} diverged via thread-local session"
        );
        assert_eq!(
            fpa_sim::run_functional(program, FUEL),
            SimSession::new().run_functional(program, FUEL),
            "cell {k} functional run diverged via thread-local session"
        );
        assert_eq!(
            fpa_sim::cosimulate(program, cfg, FUEL),
            SimSession::new().cosimulate(program, cfg, FUEL),
            "cell {k} co-simulation diverged via thread-local session"
        );
    }
}
