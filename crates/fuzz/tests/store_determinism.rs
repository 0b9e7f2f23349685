//! Fuzz reports must be byte-identical with the artifact store enabled,
//! for any shard split and any job count — the store is a pure compile
//! cache, never an observable input to a campaign.
//!
//! One process, one ambient store (set once; every test body lives in a
//! single `#[test]` so the process-global ambient store is never
//! contended). The campaign runs cold, re-runs warm, and runs under
//! different shard splits and worker counts; every merged report must
//! render to the same bytes, and the warm re-runs must actually hit the
//! store (otherwise this test would pass vacuously with the cache
//! disconnected).

use fpa_fuzz::{merge_shards, run_campaign, CampaignConfig, ShardReport};
use fpa_harness::json::Json;
use fpa_harness::{set_ambient, ArtifactStore};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 0x5704e;

fn campaign_json(cases: u32, lineages: u32, shards: u32, jobs: usize) -> String {
    let reports: Vec<ShardReport> = (0..shards)
        .map(|shard_id| {
            run_campaign(&CampaignConfig {
                cases,
                base_seed: SEED,
                jobs,
                shards,
                shard_id,
                lineages,
                ..CampaignConfig::default()
            })
        })
        .collect();
    merge_shards(&reports).expect("merge").to_json().render()
}

#[test]
fn reports_are_byte_identical_for_any_split_with_a_warm_or_cold_store() {
    let dir: PathBuf = std::env::temp_dir().join("fpa-fuzz-store-determinism-test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));
    set_ambient(Some(store.clone()));

    let (cases, lineages) = (12u32, 4u32);

    // Cold store: every distinct source is a compile miss.
    let cold = campaign_json(cases, lineages, 1, 1);
    let cold_stats = store.stats();
    assert!(
        cold_stats.misses > 0,
        "a cold campaign must compile through the store (got {cold_stats:?})"
    );
    // The deterministic counters account for every case.
    let report = Json::parse(&cold).expect("report parses");
    let counter = |key: &str| report.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(counter("store_requests"), u64::from(cases));
    assert!(counter("store_repeats") <= counter("store_requests"));

    // Warm store, different shard splits and job counts: byte-identical
    // reports, and the compiles are now answered from the cache.
    for (shards, jobs) in [(1u32, 4usize), (2, 1), (3, 2)] {
        let warm = campaign_json(cases, lineages, shards, jobs);
        assert_eq!(
            warm, cold,
            "merged report drifted at shards={shards} jobs={jobs}"
        );
    }
    let warm_stats = store.stats();
    assert!(
        warm_stats.hits_mem + warm_stats.hits_disk > cold_stats.hits_mem + cold_stats.hits_disk,
        "warm re-runs should hit the store (cold {cold_stats:?}, warm {warm_stats:?})"
    );

    // And with the store torn down entirely, the report is still the
    // same bytes: the counters derive from the cases, not the cache.
    set_ambient(None);
    assert_eq!(campaign_json(cases, lineages, 2, 2), cold);

    let _ = std::fs::remove_dir_all(&dir);
}
