//! The oracle's build-once guarantee: checking one case runs the
//! compiler's front half (parse, optimize, profile) exactly once, for the
//! suite build, and checks every cost-sweep point as a back half on that
//! suite's profiled module.
//!
//! This file deliberately contains a single `#[test]`: integration-test
//! binaries run their tests on concurrent threads, and any other test
//! compiling sources in this process would skew the frontend counter.

use fpa_fuzz::corpus;
use fpa_fuzz::oracle::{check_case, COST_SWEEP};
use fpa_harness::frontend_runs;
use std::path::PathBuf;

#[test]
fn one_case_runs_the_front_half_once() {
    // With an artifact store the suite could be a cache hit and run no
    // front half at all; the guarantee is about the compiles themselves.
    fpa_harness::set_ambient(None);
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus/pin_copy_chain.zc");
    let pin = corpus::load(&path).expect("load pin");

    let before = frontend_runs();
    let case = check_case(&pin.text).expect("corpus pins pass the oracle");
    assert_eq!(
        frontend_runs() - before,
        1,
        "one case must run the front half once, sweep points included"
    );
    assert_eq!(
        case.stats.advanced_builds,
        1 + COST_SWEEP.len() as u32,
        "the default build plus one back half per sweep point"
    );
}
