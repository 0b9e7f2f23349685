//! `fpa-fuzz` — differential fuzzing CLI.
//!
//! ```text
//! fpa-fuzz [--cases M] [--seed S] [--jobs N] [--lineages L]
//!          [--shards N --shard-id K] [--store DIR]
//!          [--corpus DIR | --no-corpus] [--json PATH]
//! fpa-fuzz merge SHARD.json... [--json PATH] [--corpus DIR]
//! fpa-fuzz distill [--cases M] [--seed S] [--jobs N] [--lineages L]
//!                  [--out DIR] [--json PATH]
//! ```
//!
//! `--store DIR` routes every suite build through the persistent
//! artifact store at `DIR` (same cache `fpa-report --store` and
//! `fpa-serve` use), so replaying a corpus or re-running a campaign
//! skips recompiling sources the store has seen. Reports stay
//! byte-identical with or without a store: the JSON carries the
//! *deterministic* `store_requests`/`store_repeats` counters, while the
//! live hit/miss tallies go to stderr.
//!
//! The default mode runs a **coverage-guided campaign**: the case budget
//! splits across independent feedback lineages whose grammar-weight
//! mutation and splicing chase structural coverage (RDG slice shapes,
//! partition decisions, linter rule paths, oracle outcomes).
//!
//! Sharding: `--shards N --shard-id K` runs lineage subset `l % N == K`
//! and emits a shard report (`--json`); `fpa-fuzz merge` folds shard
//! reports into the campaign report, which is **byte-identical for any
//! shard count and any `--jobs`**. Failures are minimized and written to
//! the corpus directory (default `fuzz/corpus`) by unsharded runs and by
//! `merge`. Exit code 0 means every case agreed.
//!
//! `--seed` accepts a decimal number, a `0x`-prefixed hex number, or —
//! for convenience in CI configs — any other token, which is hashed
//! (FNV-1a) to a seed, so e.g. `--seed 0xfpa2` is valid.

use fpa_fuzz::campaign::{
    merge_shards, parse_seed, run_campaign, CampaignConfig, MergedReport, ShardReport,
};
use fpa_fuzz::corpus::Reproducer;
use fpa_fuzz::distill::write_pins;
use fpa_fuzz::gen::GenConfig;
use fpa_harness::engine::default_jobs;
use fpa_harness::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: fpa-fuzz [--cases M] [--seed S] [--jobs N] [--lineages L]\n\
         \x20               [--shards N --shard-id K] [--store DIR]\n\
         \x20               [--corpus DIR | --no-corpus] [--json PATH]\n\
         \x20      fpa-fuzz merge SHARD.json... [--json PATH] [--corpus DIR]\n\
         \x20      fpa-fuzz distill [--cases M] [--seed S] [--jobs N] [--lineages L]\n\
         \x20               [--out DIR] [--json PATH]"
    );
    std::process::exit(2);
}

struct Options {
    cases: u32,
    seed: u64,
    jobs: usize,
    lineages: u32,
    shards: u32,
    shard_id: Option<u32>,
    store: Option<PathBuf>,
    corpus: Option<PathBuf>,
    json_path: Option<PathBuf>,
    out_dir: PathBuf,
    inputs: Vec<PathBuf>,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        cases: 200,
        seed: 1,
        jobs: default_jobs(),
        lineages: 16,
        shards: 1,
        shard_id: None,
        store: None,
        corpus: Some(PathBuf::from("fuzz/corpus")),
        json_path: None,
        out_dir: PathBuf::from("fuzz/corpus/coverage"),
        inputs: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--cases" => o.cases = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = parse_seed(&take(&mut i)),
            "--jobs" => {
                o.jobs = take(&mut i).parse().unwrap_or_else(|_| usage());
                if o.jobs == 0 {
                    usage();
                }
            }
            "--lineages" => {
                o.lineages = take(&mut i).parse().unwrap_or_else(|_| usage());
                if o.lineages == 0 {
                    usage();
                }
            }
            "--shards" => {
                o.shards = take(&mut i).parse().unwrap_or_else(|_| usage());
                if o.shards == 0 {
                    usage();
                }
            }
            "--shard-id" => o.shard_id = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            "--store" => o.store = Some(PathBuf::from(take(&mut i))),
            "--corpus" => o.corpus = Some(PathBuf::from(take(&mut i))),
            "--no-corpus" => o.corpus = None,
            "--json" => o.json_path = Some(PathBuf::from(take(&mut i))),
            "--out" => o.out_dir = PathBuf::from(take(&mut i)),
            "--help" | "-h" => usage(),
            s if !s.starts_with('-') => o.inputs.push(PathBuf::from(s)),
            _ => usage(),
        }
        i += 1;
    }
    o
}

/// Installs the ambient artifact store when `--store` was given; every
/// oracle suite build then goes through it.
fn init_store(o: &Options) -> Result<(), ExitCode> {
    let Some(dir) = &o.store else { return Ok(()) };
    match fpa_harness::ArtifactStore::open(dir) {
        Ok(store) => {
            fpa_harness::set_ambient(Some(std::sync::Arc::new(store)));
            Ok(())
        }
        Err(e) => {
            eprintln!(
                "fpa-fuzz: cannot open artifact store {}: {e}",
                dir.display()
            );
            Err(ExitCode::from(2))
        }
    }
}

/// Prints the live (nondeterministic) store tallies to stderr; the
/// deterministic counters live in the JSON report.
fn report_store_stats() {
    if let Some(store) = fpa_harness::artifact::ambient() {
        let s = store.stats();
        eprintln!(
            "fpa-fuzz: store: {} mem hit(s), {} disk hit(s), {} miss(es), {} coalesced, {} corrupt evicted",
            s.hits_mem, s.hits_disk, s.misses, s.coalesced, s.corrupt_evicted
        );
    }
}

fn write_json(path: &Path, j: &Json) -> Result<(), ExitCode> {
    std::fs::write(path, j.render()).map_err(|e| {
        eprintln!("fpa-fuzz: cannot write {}: {e}", path.display());
        ExitCode::from(2)
    })
}

/// Writes merged-report failures as corpus reproducers, in case order.
fn write_failure_pins(report: &MergedReport, dir: &Path) {
    for f in &report.failures {
        let rep = Reproducer {
            base_seed: report.base_seed,
            case: f.case,
            case_seed: f.genome.seed,
            kind: f.kind.clone(),
            failure: f.message.clone(),
            shrink_steps: f.shrink_steps,
            source: f.minimized_source.clone(),
        };
        match rep.write_to(dir) {
            Ok(path) => println!("  reproducer written: {}", path.display()),
            Err(e) => eprintln!("fpa-fuzz: failed to write reproducer: {e}"),
        }
    }
}

fn report_merged(report: &MergedReport, secs: f64, jobs: usize) -> ExitCode {
    println!(
        "fpa-fuzz: {} cases over {} lineages, seed {:#x}, {} jobs, {:.1}s",
        report.cases, report.lineages, report.base_seed, jobs, secs
    );
    println!("  coverage features     {:>8}", report.coverage.len());
    println!("  novel cases           {:>8}", report.novel.len());
    println!("  mean program size     {:>8.1} lines", report.mean_lines);
    println!(
        "  advanced builds       {:>8}   (default + {}-point cost sweep)",
        report.advanced_builds,
        fpa_fuzz::COST_SWEEP.len()
    );
    println!(
        "  offloaded cases       {:>8}   ({} augmented instructions retired)",
        report.offloaded_cases, report.total_augmented
    );
    println!("  retired (conv)        {:>8}", report.total_retired);
    println!(
        "  store requests        {:>8}   ({} repeated suite keys)",
        report.store_requests, report.store_repeats
    );
    if report.ok() {
        println!("  divergences           {:>8}", 0);
        ExitCode::SUCCESS
    } else {
        println!("  DIVERGENCES           {:>8}", report.failures.len());
        for f in &report.failures {
            println!(
                "  lineage {} step {} (case {}, seed {:#x}): [{}] {} — {} -> {} lines after {} shrink steps",
                f.lineage,
                f.step,
                f.case,
                f.genome.seed,
                f.kind,
                f.message,
                f.original_lines,
                f.minimized_lines,
                f.shrink_steps
            );
        }
        ExitCode::FAILURE
    }
}

fn cmd_merge(o: &Options) -> ExitCode {
    if o.inputs.is_empty() {
        usage();
    }
    let mut shards: Vec<ShardReport> = Vec::new();
    for path in &o.inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fpa-fuzz: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let parsed = Json::parse(&text)
            .ok()
            .and_then(|j| ShardReport::from_json(&j));
        match parsed {
            Some(s) => shards.push(s),
            None => {
                eprintln!(
                    "fpa-fuzz: {} is not a valid fpa-fuzz-shard report",
                    path.display()
                );
                return ExitCode::from(2);
            }
        }
    }
    let merged = match merge_shards(&shards) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fpa-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &o.json_path {
        if let Err(code) = write_json(path, &merged.to_json()) {
            return code;
        }
    }
    let code = report_merged(&merged, 0.0, 1);
    if let Some(dir) = &o.corpus {
        write_failure_pins(&merged, dir);
    }
    code
}

fn cmd_distill(o: &Options) -> ExitCode {
    if let Err(code) = init_store(o) {
        return code;
    }
    let cfg = CampaignConfig {
        cases: o.cases,
        base_seed: o.seed,
        jobs: o.jobs,
        shards: 1,
        shard_id: 0,
        lineages: o.lineages,
        gen: GenConfig::default(),
        corpus_dir: None,
    };
    let start = std::time::Instant::now();
    let shard = run_campaign(&cfg);
    let merged = merge_shards(std::slice::from_ref(&shard)).expect("single shard always merges");
    let secs = start.elapsed().as_secs_f64();
    report_store_stats();

    let distilled = fpa_fuzz::distill(&merged.novel);
    println!(
        "fpa-fuzz distill: {} cases -> {} novel -> {} distilled pins ({} features), {:.1}s",
        merged.cases,
        merged.novel.len(),
        distilled.len(),
        merged.coverage.len(),
        secs
    );
    match write_pins(&distilled, &o.out_dir) {
        Ok(written) => {
            for p in &written {
                println!("  pin written: {}", p.display());
            }
        }
        Err(e) => {
            eprintln!(
                "fpa-fuzz: cannot write pins to {}: {e}",
                o.out_dir.display()
            );
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &o.json_path {
        if let Err(code) = write_json(path, &merged.to_json()) {
            return code;
        }
    }
    if merged.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_campaign(o: &Options) -> ExitCode {
    if let Err(code) = init_store(o) {
        return code;
    }
    let shard_id = o.shard_id.unwrap_or(0);
    if o.shards > 1 && o.shard_id.is_none() {
        eprintln!("fpa-fuzz: --shards requires --shard-id");
        return ExitCode::from(2);
    }
    if shard_id >= o.shards {
        eprintln!(
            "fpa-fuzz: --shard-id {shard_id} out of range for {} shard(s)",
            o.shards
        );
        return ExitCode::from(2);
    }
    let cfg = CampaignConfig {
        cases: o.cases,
        base_seed: o.seed,
        jobs: o.jobs,
        shards: o.shards,
        shard_id,
        lineages: o.lineages,
        gen: GenConfig::default(),
        corpus_dir: o.corpus.clone(),
    };
    let start = std::time::Instant::now();
    let shard = run_campaign(&cfg);
    let secs = start.elapsed().as_secs_f64();
    report_store_stats();

    if o.shards > 1 {
        // Shard mode: emit the shard report; merging (and corpus
        // writing) happens in the `merge` step so results stay
        // byte-deterministic regardless of the split.
        let failures: usize = shard.results.iter().map(|r| r.failures.len()).sum();
        println!(
            "fpa-fuzz: shard {}/{} ran {} lineage(s), seed {:#x}, {} jobs, {:.1}s, {} divergence(s)",
            shard.shard_id,
            shard.shards,
            shard.results.len(),
            shard.base_seed,
            cfg.jobs,
            secs,
            failures
        );
        if let Some(path) = &o.json_path {
            if let Err(code) = write_json(path, &shard.to_json()) {
                return code;
            }
        }
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let merged = merge_shards(std::slice::from_ref(&shard)).expect("single shard always merges");
    if let Some(path) = &o.json_path {
        if let Err(code) = write_json(path, &merged.to_json()) {
            return code;
        }
    }
    let code = report_merged(&merged, secs, cfg.jobs);
    if !merged.ok() {
        if let Some(dir) = &o.corpus {
            write_failure_pins(&merged, dir);
        }
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("merge") => cmd_merge(&parse_options(&args[1..])),
        Some("distill") => cmd_distill(&parse_options(&args[1..])),
        _ => {
            let o = parse_options(&args);
            if !o.inputs.is_empty() {
                usage();
            }
            cmd_campaign(&o)
        }
    }
}
