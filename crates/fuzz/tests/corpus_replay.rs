//! Replays every program in the repository's `fuzz/corpus/` through the
//! four-scheme differential oracle. The corpus holds minimized
//! regression pins (and any reproducers written by past `fpa-fuzz`
//! runs whose fixes have landed), so every file must check clean. The
//! distilled coverage pins under `fuzz/corpus/coverage/` must replay
//! too: they are the minimal case set preserving a reference campaign's
//! full structural coverage.
//!
//! Each replay also pins the case's coverage signature: its feature
//! count and an FNV-1a digest of its sorted feature ids must match
//! `tests/golden/pin_signatures.json`, so a change to the RDG, its
//! slices or the partitioners that moves any feature shows here. After
//! an intentional change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p fpa-fuzz --test corpus_replay`.

use fpa_fuzz::corpus;
use fpa_fuzz::oracle::check_case;
use fpa_harness::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pin_signatures.json"
);

/// Serializes the two replays' reads and rewrites of the one golden file.
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a over the little-endian bytes of the sorted feature ids.
fn fnv1a(features: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in features.iter().flat_map(|f| f.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Replays one pin through the oracle and returns its golden entry.
fn replay(path: &Path, text: &str) -> Json {
    let case = check_case(text).unwrap_or_else(|f| panic!("{}: {f}", path.display()));
    let features = &case.signature.features;
    let mut entry = Json::obj();
    entry
        .set("features", features.len())
        .set("fnv1a", format!("{:016x}", fnv1a(features)));
    entry
}

/// Whether golden key `key` names a pin directly under `prefix`.
fn in_subset(key: &str, prefix: &str) -> bool {
    key.strip_prefix(prefix)
        .is_some_and(|rest| !rest.contains('/'))
}

/// Compares the signatures of the pins directly under `prefix` (`""`
/// for the corpus root, `"coverage/"` for the distilled pins) with their
/// golden entries, rewriting those entries first under `UPDATE_GOLDEN`.
fn assert_signatures_match(prefix: &str, got: &BTreeMap<String, Json>) {
    let _guard = GOLDEN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let read = || -> BTreeMap<String, Json> {
        let text = std::fs::read_to_string(GOLDEN)
            .expect("golden signatures present (regenerate with UPDATE_GOLDEN=1)");
        match Json::parse(&text).expect("golden signatures parse") {
            Json::Obj(pairs) => pairs.into_iter().collect(),
            other => panic!("golden signatures are not an object: {other:?}"),
        }
    };
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut all = if Path::new(GOLDEN).exists() {
            read()
        } else {
            BTreeMap::new()
        };
        all.retain(|k, _| !in_subset(k, prefix));
        all.extend(got.iter().map(|(k, v)| (k.clone(), v.clone())));
        std::fs::write(GOLDEN, Json::Obj(all.into_iter().collect()).render())
            .expect("write golden");
    }
    let want: BTreeMap<String, Json> = read()
        .into_iter()
        .filter(|(k, _)| in_subset(k, prefix))
        .collect();
    for (pin, sig) in got {
        assert_eq!(
            want.get(pin),
            Some(sig),
            "coverage signature of {pin} drifted from {GOLDEN}; \
             if the change is intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
    let stale: Vec<&String> = want.keys().filter(|k| !got.contains_key(*k)).collect();
    assert!(
        stale.is_empty(),
        "golden names pins not in the corpus: {stale:?}"
    );
}

#[test]
fn corpus_is_seeded() {
    let files = corpus::list(&corpus_dir()).expect("list corpus");
    assert!(
        files.len() >= 10,
        "fuzz/corpus holds only {} programs; the regression seed set is 10+",
        files.len()
    );
}

#[test]
fn every_corpus_program_passes_the_four_scheme_oracle() {
    let files = corpus::list(&corpus_dir()).expect("list corpus");
    let mut got = BTreeMap::new();
    for path in files {
        let pin = corpus::load(&path).unwrap_or_else(|e| panic!("corpus pin failed to load: {e}"));
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        got.insert(name, replay(&path, &pin.text));
    }
    assert!(
        got.len() >= 10,
        "only {} corpus programs replayed",
        got.len()
    );
    assert_signatures_match("", &got);
}

#[test]
fn every_distilled_coverage_pin_passes_the_oracle() {
    let dir = corpus_dir().join("coverage");
    let files = corpus::list(&dir).expect("list coverage pins");
    assert!(
        !files.is_empty(),
        "fuzz/corpus/coverage is empty; regenerate with `fpa-fuzz distill`"
    );
    let mut got = BTreeMap::new();
    for path in files {
        let pin =
            corpus::load(&path).unwrap_or_else(|e| panic!("coverage pin failed to load: {e}"));
        assert!(
            pin.case_seed.is_some(),
            "coverage pin {} lost its case-seed header",
            path.display()
        );
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        got.insert(format!("coverage/{name}"), replay(&path, &pin.text));
    }
    assert_signatures_match("coverage/", &got);
}
