//! Structural coverage signatures for coverage-guided fuzzing.
//!
//! Branch coverage is the classic fuzzing feedback, but this compiler's
//! interesting state space is *structural*: which RDG slice shapes the
//! partitioner saw, which decisions it made per scheme, which linter
//! rule paths examined sites, and how the oracle's dynamic stages came
//! out. All of those are already computed by a passing oracle check —
//! this module hashes them into a compact feature set.
//!
//! Every feature is a `u64`: a `mix`-hashed tuple of a family tag and
//! a handful of *bucketed* operands. Bucketing (log2 size classes,
//! octile fractions) is what makes the map saturate: raw counts would
//! make nearly every case "novel" and feedback would degenerate to
//! random search. A [`CoverageSignature`] is one case's sorted, deduped
//! feature list; a [`CoverageMap`] is the union over a corpus or
//! campaign, with deterministic JSON round-tripping so sharded runs can
//! merge byte-identically.

use crate::oracle::OracleStats;
use fpa_analysis::ErrorCode;
use fpa_harness::json::Json;
use fpa_harness::{Scheme, SuiteArtifacts};
use fpa_ir::{Function, Terminator};
use fpa_isa::Subsystem;
use fpa_partition::Assignment;
use fpa_rdg::{classify, NodeClass, PinReason, Rdg, SliceKind, Slices};
use std::collections::BTreeSet;

/// SplitMix64 finalizer: a cheap, well-mixed u64 permutation.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a feature-family tag and its operands into one feature id.
fn feature(tag: u64, operands: &[u64]) -> u64 {
    let mut h = mix(tag);
    for &op in operands {
        h = mix(h ^ op);
    }
    h
}

/// Log2 size bucket: 0 for 0, otherwise `1 + floor(log2(n))`. Collapses
/// raw counts into ~64 classes so the coverage map saturates.
fn bucket(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        64 - u64::from(n.leading_zeros())
    }
}

/// Octile of a fraction in `[0, 1]` (8 buckets).
fn octile(f: f64) -> u64 {
    ((f.clamp(0.0, 1.0) * 8.0) as u64).min(7)
}

// Feature-family tags. Stable values: they are hashed into persisted
// coverage maps, so renumbering invalidates distilled corpora.
const TAG_RDG_SHAPE: u64 = 1;
const TAG_SLICE: u64 = 2;
const TAG_CLASS_HIST: u64 = 3;
const TAG_PARTITION: u64 = 4;
const TAG_LINT: u64 = 5;
const TAG_OUTCOME: u64 = 6;
const TAG_TIMING: u64 = 7;
const TAG_FAILURE: u64 = 8;
const TAG_OPTIMAL: u64 = 9;

fn slice_kind_code(k: SliceKind) -> u64 {
    match k {
        SliceKind::LdSt => 0,
        SliceKind::Branch => 1,
        SliceKind::StoreValue => 2,
        SliceKind::Return => 3,
    }
}

fn class_code(c: NodeClass) -> u64 {
    match c {
        NodeClass::PinnedInt(PinReason::Address) => 0,
        NodeClass::PinnedInt(PinReason::Call) => 1,
        NodeClass::PinnedInt(PinReason::Return) => 2,
        NodeClass::PinnedInt(PinReason::MulDiv) => 3,
        NodeClass::PinnedInt(PinReason::Io) => 4,
        NodeClass::PinnedInt(PinReason::Param) => 5,
        NodeClass::PinnedInt(PinReason::ByteValue) => 6,
        NodeClass::NativeFp => 7,
        NodeClass::Free => 8,
    }
}

/// One case's coverage: a sorted, deduplicated feature set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSignature {
    /// The feature ids, ascending and unique.
    pub features: Vec<u64>,
}

impl CoverageSignature {
    fn from_set(set: BTreeSet<u64>) -> CoverageSignature {
        CoverageSignature {
            features: set.into_iter().collect(),
        }
    }

    /// Features describing an oracle *failure* — failing cases still
    /// contribute coverage (the failure kind and stage are themselves
    /// novel structure worth keeping in a corpus).
    #[must_use]
    pub fn from_failure(kind_label: &str, config: &str) -> CoverageSignature {
        let kind_h = fnv(kind_label);
        let mut set = BTreeSet::new();
        set.insert(feature(TAG_FAILURE, &[kind_h]));
        set.insert(feature(TAG_FAILURE, &[kind_h, fnv(config)]));
        CoverageSignature::from_set(set)
    }

    /// Number of features.
    #[must_use]
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when no features were extracted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The union of many signatures: global campaign (or corpus) coverage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    set: BTreeSet<u64>,
}

impl CoverageMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Adds a signature; returns how many of its features were new.
    pub fn add(&mut self, sig: &CoverageSignature) -> usize {
        let mut new = 0;
        for &f in &sig.features {
            if self.set.insert(f) {
                new += 1;
            }
        }
        new
    }

    /// How many of `sig`'s features this map does not yet contain.
    #[must_use]
    pub fn novelty(&self, sig: &CoverageSignature) -> usize {
        sig.features
            .iter()
            .filter(|f| !self.set.contains(f))
            .count()
    }

    /// Unions another map into this one.
    pub fn merge(&mut self, other: &CoverageMap) {
        self.set.extend(other.set.iter().copied());
    }

    /// Distinct features covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, f: u64) -> bool {
        self.set.contains(&f)
    }

    /// Iterates features in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.set.iter().copied()
    }

    /// JSON form: an ascending array of 16-hex-digit feature ids.
    /// Ascending order makes the rendering canonical — two equal maps
    /// always serialize byte-identically.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::from(
            self.set
                .iter()
                .map(|f| Json::from(format!("{f:016x}")))
                .collect::<Vec<Json>>(),
        )
    }

    /// Parses [`CoverageMap::to_json`] output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<CoverageMap> {
        let mut set = BTreeSet::new();
        for j in v.as_arr()? {
            set.insert(u64::from_str_radix(j.as_str()?, 16).ok()?);
        }
        Some(CoverageMap { set })
    }
}

/// Extracts the full structural signature of one *passing* oracle check
/// from the suite artifacts and dynamic stats. Purely a function of the
/// compiled artifacts — no randomness, no global state — so the same
/// source yields the same signature under any `--jobs`, shard
/// assignment, or session reuse.
#[must_use]
pub fn extract(suite: &SuiteArtifacts, stats: &OracleStats) -> CoverageSignature {
    let mut set = BTreeSet::new();

    // -- whole-program shape -------------------------------------------
    // Raw (bounded) counts, not buckets: function and global counts are
    // small and each distinct value is a meaningfully different program
    // shape for the partitioner.
    set.insert(feature(
        TAG_RDG_SHAPE,
        &[1 << 16, suite.module.funcs.len() as u64],
    ));
    set.insert(feature(
        TAG_RDG_SHAPE,
        &[2 << 16, suite.module.globals.len() as u64],
    ));

    // -- RDG slice shapes, per function of the shared optimized module --
    for func in &suite.module.funcs {
        rdg_features(func, &mut set);
    }

    // -- partition decisions, per scheme ------------------------------
    for (scheme, _prog, module, assignment) in suite.scheme_views() {
        partition_features(scheme, module, assignment, suite, &mut set);
    }

    // -- linter rule-path touches --------------------------------------
    for code in ErrorCode::ALL {
        set.insert(feature(
            TAG_LINT,
            &[
                code.index() as u64,
                bucket(stats.lint_touches[code.index()]),
            ],
        ));
    }

    // -- exact-vs-heuristic partition deltas ---------------------------
    optimal_delta_features(suite, stats, &mut set);

    // -- oracle-stage outcomes -----------------------------------------
    outcome_features(suite, stats, &mut set);

    CoverageSignature::from_set(set)
}

/// Features describing how far the advanced heuristic lands from the
/// exact min-cut partition on this program. Programs where the two
/// disagree are precisely the ones exercising the heuristic's blind
/// spots, so the campaign engine keeps them around as seeds.
fn optimal_delta_features(suite: &SuiteArtifacts, stats: &OracleStats, set: &mut BTreeSet<u64>) {
    // Per-function count of instructions the exact partition places on a
    // different subsystem than the advanced heuristic. Both assignments
    // cover the same shared-module instruction ids (duplicated clones
    // live only in the transformed modules), so the symmetric difference
    // is well-defined.
    for (fi, (oa, aa)) in suite
        .optimal_assignment
        .funcs
        .iter()
        .zip(&suite.advanced_assignment.funcs)
        .enumerate()
    {
        let differing = oa
            .inst_side
            .iter()
            .filter(|(id, &side)| aa.inst_side.get(id).is_some_and(|&s| s != side))
            .count();
        set.insert(feature(TAG_OPTIMAL, &[fi as u64, bucket(differing as u64)]));
    }

    // Offload-fraction octile pair (advanced, optimal): the coarse shape
    // of the disagreement.
    set.insert(feature(
        TAG_OPTIMAL,
        &[
            1 << 32,
            octile(suite.advanced_stats.fp_fraction()),
            octile(suite.optimal_stats.fp_fraction()),
        ],
    ));

    // Dynamic-work deltas: did the exact partition offload or copy a
    // different order of magnitude of work than the heuristic?
    set.insert(feature(
        TAG_OPTIMAL,
        &[
            2 << 32,
            bucket(stats.advanced_augmented.abs_diff(stats.optimal_augmented)),
        ],
    ));
    set.insert(feature(
        TAG_OPTIMAL,
        &[
            3 << 32,
            bucket(stats.advanced_copies.abs_diff(stats.optimal_copies)),
        ],
    ));
}

fn rdg_features(func: &Function, set: &mut BTreeSet<u64>) {
    let rdg = Rdg::build(func);
    let mut branch_ids = Vec::new();
    let mut ret_ids = Vec::new();
    for blk in func.block_ids() {
        match &func.block(blk).term {
            Terminator::Br { id, .. } => branch_ids.push(*id),
            Terminator::Ret { id, .. } => ret_ids.push(*id),
            Terminator::Jump { .. } => {}
        }
    }
    let slices = Slices::compute(
        &rdg,
        |n| rdg.kind(n).inst().is_some_and(|i| branch_ids.contains(&i)),
        |n| rdg.kind(n).inst().is_some_and(|i| ret_ids.contains(&i)),
    );

    // Whole-graph shape: node-count bucket × LdSt-slice-fraction octile.
    set.insert(feature(
        TAG_RDG_SHAPE,
        &[
            bucket(rdg.len() as u64),
            octile(slices.ldst_fraction(rdg.len())),
        ],
    ));

    // Per-slice shape: (kind, size bucket, fraction pinned to the LdSt
    // slice). The pinned fraction is the paper's central quantity — how
    // much of a branch/store/return slice is already owed to address
    // generation decides what the basic scheme can offload.
    let named = [
        (
            SliceKind::LdSt,
            vec![(0u32, slices.ldst.iter().copied().collect::<Vec<_>>())],
        ),
        (
            SliceKind::Branch,
            slices
                .branches
                .iter()
                .enumerate()
                .map(|(i, (_, s))| (i as u32, s.clone()))
                .collect(),
        ),
        (
            SliceKind::StoreValue,
            slices
                .store_values
                .iter()
                .enumerate()
                .map(|(i, (_, s))| (i as u32, s.clone()))
                .collect(),
        ),
        (
            SliceKind::Return,
            slices
                .returns
                .iter()
                .enumerate()
                .map(|(i, (_, s))| (i as u32, s.clone()))
                .collect(),
        ),
    ];
    let classes = classify(func, &rdg);
    for (kind, per_slice) in named {
        for (_, nodes) in &per_slice {
            let pinned = nodes.iter().filter(|n| slices.ldst.contains(n)).count();
            let frac = if nodes.is_empty() {
                0.0
            } else {
                pinned as f64 / nodes.len() as f64
            };
            set.insert(feature(
                TAG_SLICE,
                &[
                    slice_kind_code(kind),
                    bucket(nodes.len() as u64),
                    octile(frac),
                ],
            ));
            // Slice composition: the node-class mix inside the slice.
            // Directly sensitive to grammar-weight shifts (more div/rem
            // → MulDiv pins in slices, byte arrays → ByteValue pins,
            // call-heavy code → Call pins), which is exactly the axis
            // feedback mutates.
            let mut in_slice = [0u64; 9];
            for n in nodes {
                in_slice[class_code(classes[n.index()]) as usize] += 1;
            }
            for (ci, &count) in in_slice.iter().enumerate() {
                set.insert(feature(
                    TAG_SLICE,
                    &[slice_kind_code(kind) + 32, ci as u64, bucket(count)],
                ));
            }
        }
        // Slice-count bucket per kind (how branchy / memory-heavy).
        set.insert(feature(
            TAG_SLICE,
            &[slice_kind_code(kind) + 16, bucket(per_slice.len() as u64)],
        ));
    }

    // Node-class histogram: bucketed count per class.
    let mut hist = [0u64; 9];
    for &c in &classes {
        hist[class_code(c) as usize] += 1;
    }
    for (i, &n) in hist.iter().enumerate() {
        set.insert(feature(TAG_CLASS_HIST, &[i as u64, bucket(n)]));
    }
}

fn partition_features(
    scheme: Scheme,
    module: &fpa_ir::Module,
    assignment: &Assignment,
    suite: &SuiteArtifacts,
    set: &mut BTreeSet<u64>,
) {
    let sc = scheme as u64;

    // Moved instructions: assigned to FPa where the conventional (all-INT)
    // assignment would keep them on INT. Counted per function, bucketed.
    let conv = Assignment::conventional(module);
    for (fi, (fa, ca)) in assignment.funcs.iter().zip(&conv.funcs).enumerate() {
        let moved = fa
            .inst_side
            .iter()
            .filter(|(id, &side)| {
                side == Subsystem::Fp && ca.inst_side.get(id) != Some(&Subsystem::Fp)
            })
            .count();
        // Function index participates so helper-vs-main placement differs.
        set.insert(feature(
            TAG_PARTITION,
            &[sc, fi as u64, bucket(moved as u64)],
        ));
    }

    // Duplication: instructions the advanced transform cloned onto the FP
    // side — the advanced module's growth over the shared module, net of
    // inserted copies.
    if scheme == Scheme::Advanced {
        let base: usize = suite.module.funcs.iter().map(|f| f.insts().count()).sum();
        let adv: usize = suite
            .advanced_module
            .funcs
            .iter()
            .map(|f| f.insts().count())
            .sum();
        let copies = suite.advanced_stats.static_copies;
        let duplicated = adv.saturating_sub(base).saturating_sub(copies);
        set.insert(feature(
            TAG_PARTITION,
            &[sc, 1 << 32, bucket(duplicated as u64)],
        ));
    }

    // Copy-edge count and offloaded-weight octile from the stats.
    if let Some(stats) = suite.partition_stats(scheme) {
        set.insert(feature(
            TAG_PARTITION,
            &[sc, 2 << 32, bucket(stats.static_copies as u64)],
        ));
        set.insert(feature(
            TAG_PARTITION,
            &[sc, 3 << 32, octile(stats.fp_fraction())],
        ));
    }
}

fn outcome_features(suite: &SuiteArtifacts, stats: &OracleStats, set: &mut BTreeSet<u64>) {
    // Did the advanced build actually offload integer work?
    set.insert(feature(
        TAG_OUTCOME,
        &[0, u64::from(stats.advanced_augmented > 0)],
    ));
    set.insert(feature(TAG_OUTCOME, &[1, bucket(stats.advanced_augmented)]));
    set.insert(feature(TAG_OUTCOME, &[2, bucket(stats.advanced_copies)]));
    set.insert(feature(TAG_OUTCOME, &[3, bucket(stats.basic_augmented)]));
    set.insert(feature(TAG_OUTCOME, &[4, bucket(stats.conventional_total)]));
    set.insert(feature(
        TAG_OUTCOME,
        &[5, u64::from(suite.golden_exit as u32)],
    ));
    set.insert(feature(
        TAG_OUTCOME,
        &[6, bucket(suite.golden_output.len() as u64)],
    ));

    // Timing-stage cycle buckets per scheme (the co-simulated runs).
    for (i, &cycles) in stats.timing_cycles.iter().enumerate() {
        set.insert(feature(TAG_TIMING, &[i as u64, bucket(cycles)]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_classes() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1023), 10);
        assert_eq!(bucket(1024), 11);
    }

    #[test]
    fn octile_clamps_and_partitions() {
        assert_eq!(octile(0.0), 0);
        assert_eq!(octile(0.124), 0);
        assert_eq!(octile(0.51), 4);
        assert_eq!(octile(1.0), 7);
        assert_eq!(octile(7.3), 7);
        assert_eq!(octile(-2.0), 0);
    }

    #[test]
    fn map_roundtrips_through_json() {
        let mut map = CoverageMap::new();
        map.add(&CoverageSignature {
            features: vec![1, 42, u64::MAX],
        });
        let j = map.to_json();
        let back = CoverageMap::from_json(&j).expect("parse");
        assert_eq!(map, back);
        assert_eq!(j.render(), back.to_json().render());
    }

    #[test]
    fn novelty_counts_unseen_features() {
        let mut map = CoverageMap::new();
        let a = CoverageSignature {
            features: vec![1, 2, 3],
        };
        assert_eq!(map.novelty(&a), 3);
        assert_eq!(map.add(&a), 3);
        assert_eq!(map.novelty(&a), 0);
        let b = CoverageSignature {
            features: vec![3, 4],
        };
        assert_eq!(map.novelty(&b), 1);
        assert_eq!(map.add(&b), 1);
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn failure_signatures_distinguish_kind_and_config() {
        let a = CoverageSignature::from_failure("output", "basic");
        let b = CoverageSignature::from_failure("output", "advanced");
        let c = CoverageSignature::from_failure("cosim", "basic");
        assert_eq!(a.len(), 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same kind shares the kind-level feature.
        assert!(a.features.iter().any(|f| b.features.contains(f)));
    }
}
