//! Store integrity: every workload's cached artifact bundle round-trips
//! exactly, and damaged on-disk entries are detected, evicted, and
//! transparently recompiled — a corrupt payload is never served.

use fpa_harness::{ArtifactStore, Compiler, StoreOutcome, SuiteArtifacts};
use fpa_partition::CostParams;
use std::path::PathBuf;

/// Timings are wall-clock measurements: a decoded bundle carries none, a
/// fresh compile its own. Equality up to timings is the artifact-level
/// contract.
fn normalized(suite: SuiteArtifacts, reference: &SuiteArtifacts) -> SuiteArtifacts {
    SuiteArtifacts {
        timings: reference.timings,
        ..suite
    }
}

#[test]
fn every_workload_round_trips_and_survives_corruption() {
    let dir: PathBuf = std::env::temp_dir().join("fpa-store-integrity-test");
    let _ = std::fs::remove_dir_all(&dir);
    let params = CostParams::default();

    // Round trip: compile each workload through a cold store, then read
    // it back through a fresh store handle (empty memory tier → disk
    // read, hash verified) and compare against a direct compile.
    let store = ArtifactStore::open(&dir).expect("open store");
    let workloads = fpa_workloads::all();
    assert!(workloads.len() >= 10);
    for w in &workloads {
        let direct = Compiler::new(&w.source).build_suite().expect(&w.name);
        let (cold, outcome) = store.suite(&w.source, &params).expect(&w.name);
        assert_eq!(outcome, StoreOutcome::Miss, "{}", w.name);
        assert_eq!(normalized(cold, &direct), direct, "{}: cold", w.name);

        let reread = ArtifactStore::open(&dir).expect("reopen store");
        let (warm, outcome) = reread.suite(&w.source, &params).expect(&w.name);
        assert_eq!(outcome, StoreOutcome::DiskHit, "{}", w.name);
        // The whole bundle — all four scheme binaries, golden behaviour,
        // partition stats — must match the direct compile exactly.
        assert_eq!(normalized(warm, &direct), direct, "{}: disk", w.name);
    }

    // Damage every other entry: flip a byte mid-file in even slots,
    // truncate odd slots to half. Both must be caught by the content
    // hash on read, evicted, and recompiled.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), workloads.len());
    for (i, path) in entries.iter().enumerate() {
        let mut bytes = std::fs::read(path).expect("read entry");
        assert!(bytes.len() > 64);
        if i % 2 == 0 {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
        } else {
            bytes.truncate(bytes.len() / 2);
        }
        std::fs::write(path, &bytes).expect("damage entry");
    }

    let damaged = ArtifactStore::open(&dir).expect("reopen damaged");
    for w in &workloads {
        let direct = Compiler::new(&w.source).build_suite().expect(&w.name);
        let (suite, outcome) = damaged.suite(&w.source, &params).expect(&w.name);
        assert_eq!(
            outcome,
            StoreOutcome::Miss,
            "{}: a damaged entry must recompile, not serve",
            w.name
        );
        assert_eq!(normalized(suite, &direct), direct, "{}: recompiled", w.name);
    }
    let stats = damaged.stats();
    assert_eq!(
        stats.corrupt_evicted,
        workloads.len() as u64,
        "every damaged entry must be detected and evicted: {stats:?}"
    );

    // The evictions healed the store: a final fresh handle hits disk
    // again for every workload.
    let healed = ArtifactStore::open(&dir).expect("reopen healed");
    for w in &workloads {
        let (_, outcome) = healed.suite(&w.source, &params).expect(&w.name);
        assert_eq!(outcome, StoreOutcome::DiskHit, "{}: healed", w.name);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
