//! Single-flight dedup: K identical concurrent requests compile once.
//!
//! The proof is the compiler's own process-global frontend counter —
//! the delta across the concurrent burst must equal the delta of one
//! solo build — plus the store's outcome accounting: exactly one
//! `Miss`, everything else answered from the flight or the cache.

use fpa_harness::{build_suite_cached, frontend_runs, set_ambient, ArtifactStore, StoreOutcome};
use fpa_partition::CostParams;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;

const SOLO_SRC: &str = "int main() { print(11); return 0; }";
const BURST_SRC: &str = "int main() { int i; int s; s = 1; \
                         for (i = 0; i < 6; i = i + 1) { s = s * 2 + i; } \
                         print(s); return 0; }";

#[test]
fn k_identical_concurrent_requests_compile_exactly_once() {
    let dir: PathBuf = std::env::temp_dir().join("fpa-single-flight-test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));
    set_ambient(Some(store.clone()));

    // How many frontend runs one suite build costs.
    let base = frontend_runs();
    build_suite_cached(SOLO_SRC, &CostParams::default()).expect("solo build");
    let per_suite = frontend_runs() - base;
    assert!(per_suite > 0, "a cold build must run the frontend");

    const K: usize = 8;
    let barrier = Arc::new(Barrier::new(K));
    let before = frontend_runs();
    let handles: Vec<_> = (0..K)
        .map(|_| {
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                build_suite_cached(BURST_SRC, &CostParams::default()).expect("burst build")
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("thread"))
        .collect();

    assert_eq!(
        frontend_runs() - before,
        per_suite,
        "{K} identical concurrent requests must run the compiler once"
    );

    // Exactly one request was the compile; the rest joined its flight
    // or hit the cache the flight populated.
    let misses = results
        .iter()
        .filter(|(_, o)| *o == StoreOutcome::Miss)
        .count();
    assert_eq!(
        misses,
        1,
        "outcomes: {:?}",
        results.iter().map(|(_, o)| *o).collect::<Vec<_>>()
    );
    for (suite, outcome) in &results {
        assert!(
            matches!(
                outcome,
                StoreOutcome::Miss | StoreOutcome::Coalesced | StoreOutcome::MemHit
            ),
            "unexpected outcome {outcome:?}"
        );
        // Every thread got the same artifacts.
        assert_eq!(suite.golden_output, results[0].0.golden_output);
        assert_eq!(suite.conventional, results[0].0.conventional);
        assert_eq!(suite.advanced, results[0].0.advanced);
    }

    let stats = store.stats();
    assert_eq!(stats.misses, 2, "solo + burst: {stats:?}");
    assert_eq!(
        stats.coalesced + stats.hits_mem + stats.hits_disk,
        (K - 1) as u64,
        "every non-leader must be accounted a hit or coalesced: {stats:?}"
    );

    set_ambient(None);
    let _ = std::fs::remove_dir_all(&dir);
}
