//! Timing-simulation shape tests: the qualitative claims of §7.3/§7.4
//! must hold on a representative subset of workloads (the full matrix is
//! printed by `fpa-report` and pinned by `golden_stats.rs`).

use fpa::partition::CostParams;
use fpa::sim::{simulate, MachineConfig};
use fpa::{Compiler, ExperimentContext, MatrixReport, Scheme};
use std::sync::OnceLock;

/// The figure matrix over m88ksim, go and li, built and simulated once
/// and shared by every test that reads its rows.
fn subset_matrix() -> &'static MatrixReport {
    static MATRIX: OnceLock<MatrixReport> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let set: Vec<_> = ["m88ksim", "go", "li"]
            .iter()
            .map(|n| fpa::workloads::by_name(n).unwrap())
            .collect();
        ExperimentContext::new(&set, &CostParams::default(), 2)
            .unwrap()
            .matrix()
            .unwrap()
    })
}

#[test]
fn four_way_speedups_have_the_papers_shape() {
    let rows = &subset_matrix().fig9;

    let m88 = rows.iter().find(|r| r.name == "m88ksim").unwrap();
    let go = rows.iter().find(|r| r.name == "go").unwrap();
    let li = rows.iter().find(|r| r.name == "li").unwrap();

    // The big winners win big; li (call-intensive, tiny partitions)
    // gains the least — exactly the paper's account.
    assert!(m88.advanced_pct > 8.0, "m88ksim: {m88:?}");
    assert!(go.advanced_pct > 8.0, "go: {go:?}");
    assert!(
        li.advanced_pct < go.advanced_pct,
        "li should gain least: {li:?}"
    );
    assert!(li.advanced_pct > -3.0, "li must not collapse: {li:?}");

    // The advanced scheme beats basic where its partitions are much
    // larger (go doubles its partition).
    assert!(go.advanced_pct > go.basic_pct, "go: {go:?}");
}

#[test]
fn eight_way_speedups_are_smaller() {
    // §7.4: "the improvements are much smaller" at 8-way because INT
    // issue width alone approaches the available parallelism.
    let m = subset_matrix();
    let mut sum4 = 0.0;
    let mut sum8 = 0.0;
    for (a, b) in m.fig9.iter().zip(&m.fig10) {
        assert_eq!(a.name, b.name);
        sum4 += a.advanced_pct;
        sum8 += b.advanced_pct;
    }
    assert!(
        sum8 < sum4,
        "aggregate 8-way speedup ({sum8:.1}) should be below 4-way ({sum4:.1})"
    );
}

#[test]
fn partition_sizes_track_the_paper_ranges() {
    let rows = &subset_matrix().fig8;
    for r in rows {
        assert!(r.basic_pct >= 0.0 && r.basic_pct < 45.0, "{r:?}");
        assert!(r.advanced_pct >= r.basic_pct - 0.5, "{r:?}");
        assert!(
            r.advanced_pct < 55.0,
            "LdSt slice bounds the partition: {r:?}"
        );
    }
    let m88 = rows.iter().find(|r| r.name == "m88ksim").unwrap();
    assert!(m88.advanced_pct > 12.0, "m88ksim offloads heavily: {m88:?}");
}

#[test]
fn augmented_hardware_never_hurts_the_conventional_binary() {
    // Running the *conventional* binary on the augmented machine must be
    // identical in every statistic: the augmented opcodes are additive.
    // The figure matrix relies on it to read §7.2's i-cache column from
    // the plain 4-way cell.
    let w = fpa::workloads::by_name("go").unwrap();
    let prog = Compiler::new(&w.source)
        .scheme(Scheme::Conventional)
        .build()
        .unwrap()
        .program;
    let plain = simulate(&prog, &MachineConfig::four_way(false), 200_000_000).unwrap();
    let augmented = simulate(&prog, &MachineConfig::four_way(true), 200_000_000).unwrap();
    assert_eq!(plain, augmented);
}

#[test]
fn timing_statistics_are_consistent() {
    let w = fpa::workloads::by_name("m88ksim").unwrap();
    let prog = Compiler::new(&w.source)
        .scheme(Scheme::Advanced)
        .build()
        .unwrap()
        .program;
    let t = simulate(&prog, &MachineConfig::four_way(true), 200_000_000).unwrap();
    // Issue counts cover all retired instructions.
    assert_eq!(t.int_issued + t.fp_issued, t.retired);
    // Cache accounting: accesses >= misses.
    assert!(t.icache.0 >= t.icache.1);
    assert!(t.dcache.0 >= t.dcache.1);
    // Branch accounting.
    assert!(t.branch_predictions >= t.branch_mispredictions);
    assert!(t.branch_accuracy() > 0.5);
    // The FP subsystem actually did work.
    assert!(t.fp_issued > 0);
    assert!(t.augmented_retired > 0);
    assert!(t.int_idle_fp_busy < t.cycles);
}
