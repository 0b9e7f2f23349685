//! Differential test of the profiling interpreter (`fpa_ir::Interp`)
//! against the tree-walker it replaced, frozen in `tree_walker/mod.rs`.
//!
//! Every program is compiled to the module the compiler profiles (the
//! optimized, web-split, verified IR) and run by both interpreters, which
//! must return equal `(ExecOutcome, Profile)` field by field, or the
//! identical `InterpError`: once with the default budget, then with the
//! exact budget the run needs, one step less, and a window of budgets
//! from the middle of the run, scanned until it has run out at a block
//! boundary, mid-block and inside a call (where the program has one).
//! The programs: the workloads, every fuzz corpus pin, and `GENERATED`
//! programs from the fuzz generator at fixed seeds.

mod tree_walker;

use fpa_fuzz::{case_seed, corpus, generate, GenConfig};
use fpa_harness::Compiler;
use fpa_ir::{Interp, Module};
use fpa_testutil::Rng;
use std::path::PathBuf;
use tree_walker::Point;

const GENERATED: u32 = 500;
const SEED: u64 = 0x0_7ee5;
/// Budgets scanned from the middle of each run.
const WINDOW: u64 = 48;

/// Where the scanned budgets ran out, over a set of programs.
#[derive(Debug, Default)]
struct Stops {
    block_entry: u32,
    mid_block: u32,
    in_call: u32,
}

fn compile(name: &str, src: &str) -> Module {
    Compiler::new(src)
        .optimized_ir()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Compares both interpreters on `m`, at the default budget and at the
/// budgets described in the file comment.
fn check(name: &str, m: &Module, stops: &mut Stops) {
    let (want, _) = tree_walker::Interp::new(m).run();
    assert_eq!(Interp::new(m).run(), want, "{name}: default budget");
    let (out, profile) = want.unwrap_or_else(|e| panic!("{name}: {e}"));
    let steps = out.dynamic_insts + profile.raw_counts().iter().flatten().sum::<u64>();

    let same = |fuel: u64| {
        let (want, stop) = tree_walker::Interp::new(m).with_fuel(fuel).run();
        let got = Interp::new(m).with_fuel(fuel).run();
        assert_eq!(got, want, "{name}: budget {fuel} of {steps} steps");
        stop
    };
    assert!(same(steps).is_none(), "{name}: the exact budget suffices");
    assert!(same(steps - 1).is_some(), "{name}: one step short runs out");
    let (mut entry, mut mid, mut call) = (false, false, false);
    for fuel in (steps / 2..steps - 1).take(WINDOW as usize) {
        let stop = same(fuel).expect("a short budget runs out");
        entry |= stop.at == Point::BlockEntry;
        mid |= stop.at == Point::Inst;
        call |= stop.depth > 0;
        if entry && mid && call {
            break;
        }
    }
    stops.block_entry += u32::from(entry);
    stops.mid_block += u32::from(mid);
    stops.in_call += u32::from(call);
}

fn check_all(programs: &[(String, String)]) -> Stops {
    let mut stops = Stops::default();
    for (name, src) in programs {
        check(name, &compile(name, src), &mut stops);
    }
    stops
}

#[test]
fn workloads_match_the_tree_walker() {
    let programs: Vec<(String, String)> = fpa_workloads::all()
        .into_iter()
        .map(|w| (w.name, w.source))
        .collect();
    assert_eq!(programs.len(), 10);
    let stops = check_all(&programs);
    assert!(
        stops.block_entry > 0 && stops.mid_block > 0 && stops.in_call > 0,
        "{stops:?}"
    );
}

#[test]
fn corpus_pins_match_the_tree_walker() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let mut programs = Vec::new();
    for dir in [root.clone(), root.join("coverage")] {
        for path in corpus::list(&dir).expect("list corpus") {
            let pin = corpus::load(&path).expect("load pin");
            programs.push((path.display().to_string(), pin.text));
        }
    }
    assert!(programs.len() >= 157, "{} pins", programs.len());
    let stops = check_all(&programs);
    assert!(
        stops.block_entry > 0 && stops.mid_block > 0 && stops.in_call > 0,
        "{stops:?}"
    );
}

#[test]
fn generated_programs_match_the_tree_walker() {
    let programs: Vec<(String, String)> = (0..GENERATED)
        .map(|case| {
            let p = generate(&mut Rng::new(case_seed(SEED, case)), &GenConfig::default());
            (format!("generated case {case}"), p.render())
        })
        .collect();
    let stops = check_all(&programs);
    assert!(
        stops.block_entry > 0 && stops.mid_block > 0 && stops.in_call > 0,
        "{stops:?}"
    );
}
