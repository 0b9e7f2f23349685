//! Simulator throughput benchmark: wall-time, simulated cycles/sec, and
//! retired instructions/sec for every workload × scheme × machine-width
//! cell, on both timing engines — the wakeup-driven fast path
//! (`fpa_sim::simulate`, "after") and the frozen full-window-rescan
//! reference (`fpa_sim::simulate_reference`, "before").
//!
//! ```text
//! fpa-bench [--workloads A,B]   # default: the full integer suite
//!           [--json PATH]       # machine-readable report (default BENCH_pr6.json)
//!           [--floor PATH]      # CI guard: fail if fast-path MIPS < 50% of floor
//!           [--fuel N]          # cycle budget per run
//!           [--repeat N]        # fast-path passes per cell; min wall-time wins
//!           [--no-reference]    # skip the baseline engine (fast path only)
//! ```
//!
//! With `--compile`, it benchmarks the compiler through the persistent
//! artifact store instead: a cold pass compiles every workload's full
//! suite into an empty store, then a fresh store handle replays the
//! same compile matrix warm (disk hits, hash-verified) and again from
//! the memory tier. The report (default `BENCH_pr9.json`) carries
//! per-stage cold timings and the cold/warm speedups; any `load` array
//! already present in the report file (written by `fpa-load --merge`)
//! is preserved.
//!
//! ```text
//! fpa-bench --compile [--workloads A,B] [--json PATH]
//!           [--store DIR]            # reuse a store dir (default: fresh temp)
//!           [--min-warm-speedup X]   # gate: fail if warm disk replay < X times cold
//! ```
//!
//! The fast path runs through the batched [`fpa_harness::cell`] API —
//! one [`fpa_sim::SimSession`] per worker thread, decoded programs
//! cached across cells — which is exactly how the experiment matrix
//! consumes the simulator. Each cell is timed `--repeat` times (results
//! asserted identical) and the minimum wall time is reported, which is
//! the standard way to strip scheduler noise from a throughput number;
//! the repeat count is recorded in the JSON report.
//!
//! The JSON report uses the same lossless writer as `fpa-report --json`
//! (`fpa_harness::json::Json`): numbers render with full precision and
//! reparse to the identical value. The floor file is a loose regression
//! guard, not a microbenchmark gate: the build fails only when measured
//! fast-path throughput drops below *half* the checked-in floor.

use fpa_harness::cell::{run_cells, CellId, CellMode, CellResult, CellSpec, WidthPreset};
use fpa_harness::compiler::Scheme;
use fpa_harness::json::Json;
use fpa_sim::{simulate_reference, TimingResult};
use std::time::Instant;

/// Default cycle budget (matches the harness experiments).
const DEFAULT_FUEL: u64 = 200_000_000;

/// Default fast-path passes per cell.
const DEFAULT_REPEAT: u32 = 3;

fn usage() -> ! {
    eprintln!(
        "usage: fpa-bench [--workloads A,B] [--json PATH] [--floor PATH] [--fuel N] \
         [--repeat N] [--no-reference]\n\
         \x20      fpa-bench --compile [--workloads A,B] [--json PATH] [--store DIR] \
         [--min-warm-speedup X]"
    );
    std::process::exit(2)
}

struct Row {
    id: CellId,
    /// Best-of-`repeat` fast-path wall time.
    fast_seconds: f64,
    result: TimingResult,
    /// Single-pass reference engine measurement.
    reference: Option<(f64, TimingResult)>,
}

impl Row {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("cell", self.id.to_json())
            .set("cycles", self.result.cycles)
            .set("retired", self.result.retired)
            .set("fast_seconds", self.fast_seconds)
            .set(
                "fast_cycles_per_sec",
                rate(self.result.cycles, self.fast_seconds),
            )
            .set(
                "fast_insts_per_sec",
                rate(self.result.retired, self.fast_seconds),
            );
        if let Some((secs, r)) = &self.reference {
            o.set("reference_seconds", *secs)
                .set("reference_cycles_per_sec", rate(r.cycles, *secs))
                .set("reference_insts_per_sec", rate(r.retired, *secs))
                .set("speedup", secs / self.fast_seconds.max(f64::MIN_POSITIVE));
        }
        o
    }
}

fn rate(count: u64, seconds: f64) -> f64 {
    count as f64 / seconds.max(f64::MIN_POSITIVE)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads: Option<Vec<String>> = None;
    let mut json_path: Option<String> = None;
    let mut floor_path: Option<String> = None;
    let mut fuel = DEFAULT_FUEL;
    let mut repeat = DEFAULT_REPEAT;
    let mut with_reference = true;
    let mut compile_mode = false;
    let mut store_dir: Option<String> = None;
    let mut min_warm_speedup: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                workloads = Some(list.split(',').map(str::to_owned).collect());
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--floor" => {
                i += 1;
                floor_path = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--fuel" => {
                i += 1;
                fuel = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--repeat" => {
                i += 1;
                repeat = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--no-reference" => with_reference = false,
            "--compile" => compile_mode = true,
            "--store" => {
                i += 1;
                store_dir = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--min-warm-speedup" => {
                i += 1;
                min_warm_speedup = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            _ => usage(),
        }
        i += 1;
    }

    let set: Vec<_> = match &workloads {
        Some(names) => names
            .iter()
            .map(|n| {
                fpa_workloads::by_name(n).unwrap_or_else(|| {
                    eprintln!("unknown workload: {n}");
                    std::process::exit(2)
                })
            })
            .collect(),
        None => fpa_workloads::integer(),
    };
    if compile_mode {
        let json_path = json_path.unwrap_or_else(|| "BENCH_pr9.json".to_string());
        compile_bench(&set, &json_path, store_dir.as_deref(), min_warm_speedup);
        return;
    }
    let json_path = json_path.unwrap_or_else(|| "BENCH_pr6.json".to_string());
    eprintln!("building {} workload(s)...", set.len());
    let compiled: Vec<_> =
        set.iter()
            .map(|w| {
                fpa_harness::pipeline::build(w, &fpa_partition::CostParams::default())
                    .unwrap_or_else(|e| {
                        eprintln!("build {}: {e}", w.name);
                        std::process::exit(1)
                    })
            })
            .collect();

    // The full cell grid, in (workload, machine, scheme) order.
    let specs: Vec<CellSpec> = compiled
        .iter()
        .flat_map(|c| {
            WidthPreset::ALL.into_iter().flat_map(|width| {
                Scheme::ALL.map(|scheme| {
                    CellSpec::new(
                        CellId::new(c.name.clone(), scheme, width),
                        CellMode::Timing,
                        fuel,
                    )
                })
            })
        })
        .collect();

    // ---- Fast path: batched, best-of-`repeat` ----------------------------
    let batch = |pass: u32| -> Vec<CellResult> {
        run_cells(compiled.as_slice(), &specs, 1).unwrap_or_else(|e| {
            eprintln!("pass {pass}: {e}");
            std::process::exit(1)
        })
    };
    let mut results = batch(1);
    let mut best: Vec<f64> = results.iter().map(|r| r.seconds).collect();
    for pass in 2..=repeat {
        for (i, r) in batch(pass).into_iter().enumerate() {
            assert_eq!(
                results[i].payload, r.payload,
                "{}: pass {pass} diverged from pass 1",
                r.id
            );
            best[i] = best[i].min(r.seconds);
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    for (r, fast_seconds) in results.drain(..).zip(best) {
        let result = r.payload.timing().expect("timing cell").clone();
        // Reference pass: single serial run, and the equivalence gate —
        // both engines must agree on every architectural + timing field.
        let reference = with_reference.then(|| {
            let program = compiled
                .iter()
                .find(|c| c.name == r.id.workload)
                .map(|c| c.suite.program(r.id.scheme))
                .expect("cell came from this store");
            let cfg = r.id.width.config(r.id.scheme != Scheme::Conventional);
            let t = Instant::now();
            let res = simulate_reference(program, &cfg, fuel).unwrap_or_else(|e| {
                eprintln!("{} (reference): {e}", r.id);
                std::process::exit(1)
            });
            (t.elapsed().as_secs_f64(), res)
        });
        if let Some((_, res)) = &reference {
            assert_eq!(&result, res, "{}: engines disagree", r.id);
        }
        println!(
            "{:<10} {:<12} {:<6} {:>11} cyc  {:>9.1} Mcyc/s  {:>9.1} Minst/s{}",
            r.id.workload,
            r.id.scheme.label(),
            r.id.width.label(),
            result.cycles,
            rate(result.cycles, fast_seconds) / 1e6,
            rate(result.retired, fast_seconds) / 1e6,
            reference
                .as_ref()
                .map_or(String::new(), |(secs, _)| format!(
                    "  ({:.2}x vs reference)",
                    secs / fast_seconds.max(f64::MIN_POSITIVE)
                )),
        );
        rows.push(Row {
            id: r.id,
            fast_seconds,
            result,
            reference,
        });
    }

    // ---- Aggregate -------------------------------------------------------
    let retired: u64 = rows.iter().map(|r| r.result.retired).sum();
    let cycles: u64 = rows.iter().map(|r| r.result.cycles).sum();
    let fast_secs: f64 = rows.iter().map(|r| r.fast_seconds).sum();
    let fast_mips = rate(retired, fast_secs) / 1e6;
    let ref_secs: f64 = rows
        .iter()
        .filter_map(|r| r.reference.as_ref().map(|(secs, _)| *secs))
        .sum();
    println!(
        "\naggregate: {} insts, {} cycles in {:.2}s  ->  {:.1} Minst/s, {:.1} Mcyc/s",
        retired,
        cycles,
        fast_secs,
        fast_mips,
        rate(cycles, fast_secs) / 1e6
    );
    if with_reference {
        let speedup = ref_secs / fast_secs.max(f64::MIN_POSITIVE);
        println!(
            "reference: {:.2}s ({:.1} Minst/s)  ->  speedup {speedup:.2}x",
            ref_secs,
            rate(retired, ref_secs) / 1e6
        );
    }

    // ---- JSON report -----------------------------------------------------
    let mut report = Json::obj();
    report
        .set("schema", "fpa-bench-report")
        .set("version", 2u64)
        .set("fuel", fuel)
        .set("repeats", u64::from(repeat))
        .set("workloads", set.len())
        .set("rows", rows.iter().map(Row::to_json).collect::<Vec<Json>>());
    let mut agg = Json::obj();
    agg.set("retired", retired)
        .set("cycles", cycles)
        .set("fast_seconds", fast_secs)
        .set("fast_insts_per_sec", rate(retired, fast_secs))
        .set("fast_cycles_per_sec", rate(cycles, fast_secs));
    if with_reference {
        agg.set("reference_seconds", ref_secs)
            .set("reference_insts_per_sec", rate(retired, ref_secs))
            .set("speedup", ref_secs / fast_secs.max(f64::MIN_POSITIVE));
    }
    report.set("aggregate", agg);
    let rendered = report.render();
    std::fs::write(&json_path, rendered + "\n").unwrap_or_else(|e| {
        eprintln!("write {json_path}: {e}");
        std::process::exit(1)
    });
    eprintln!("wrote {json_path}");

    // ---- Floor guard -----------------------------------------------------
    if let Some(path) = floor_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("read {path}: {e}");
            std::process::exit(1)
        });
        let floor = Json::parse(&text)
            .ok()
            .and_then(|j| j.get("fast_mips_floor").and_then(Json::as_f64))
            .unwrap_or_else(|| {
                eprintln!("{path}: missing fast_mips_floor");
                std::process::exit(1)
            });
        let min = floor * 0.5; // loose guard: >50% regression fails
        if fast_mips < min {
            eprintln!(
                "FAIL: fast-path throughput {fast_mips:.1} Minst/s is below 50% of the \
                 checked-in floor ({floor:.1} Minst/s; limit {min:.1})"
            );
            std::process::exit(1);
        }
        println!("floor check ok: {fast_mips:.1} Minst/s >= {min:.1} (floor {floor:.1} x 0.5)");
    }
}

// ---- Compile benchmark (`--compile`) ------------------------------------

/// One timed pass of the whole workload set through `store`. Returns
/// (total seconds, per-workload seconds) and asserts every compile
/// reported the expected store outcome.
fn compile_pass(
    store: &fpa_harness::ArtifactStore,
    set: &[fpa_workloads::Workload],
    expect_hit: bool,
    label: &str,
) -> (f64, Vec<f64>) {
    let params = fpa_partition::CostParams::default();
    let mut per = Vec::with_capacity(set.len());
    let mut total = 0.0;
    for w in set {
        let t = Instant::now();
        let (_suite, outcome) = store.suite(&w.source, &params).unwrap_or_else(|e| {
            eprintln!("{label} compile {}: {e}", w.name);
            std::process::exit(1)
        });
        let secs = t.elapsed().as_secs_f64();
        if outcome.is_hit() != expect_hit {
            eprintln!(
                "{label} pass: {} reported {}, expected a {}",
                w.name,
                outcome.label(),
                if expect_hit { "hit" } else { "miss" }
            );
            std::process::exit(1);
        }
        per.push(secs);
        total += secs;
    }
    (total, per)
}

/// Benchmarks the compile matrix through the artifact store: one cold
/// pass into an empty store, one warm pass through a fresh handle (disk
/// tier), one more through the same handle (memory tier).
fn compile_bench(
    set: &[fpa_workloads::Workload],
    json_path: &str,
    store_dir: Option<&str>,
    min_warm_speedup: Option<f64>,
) {
    let dir: std::path::PathBuf = store_dir.map_or_else(
        || std::env::temp_dir().join("fpa-bench-compile-store"),
        std::path::PathBuf::from,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        fpa_harness::ArtifactStore::open(&dir).unwrap_or_else(|e| {
            eprintln!("open store {}: {e}", dir.display());
            std::process::exit(1)
        })
    };

    // Cold: every suite is a miss; stage timings come from the compiles
    // themselves (gathered again below from the stored artifacts).
    eprintln!(
        "cold pass: {} workload(s) into {}",
        set.len(),
        dir.display()
    );
    let cold_store = open();
    let (cold_total, cold_per) = compile_pass(&cold_store, set, false, "cold");

    // Stage breakdown of the cold compiles, summed across workloads.
    let params = fpa_partition::CostParams::default();
    let mut stage_totals = [0.0f64; 6];
    for w in set {
        let (suite, _) = cold_store.suite(&w.source, &params).unwrap_or_else(|e| {
            eprintln!("stage read {}: {e}", w.name);
            std::process::exit(1)
        });
        let t = &suite.timings;
        for (slot, d) in stage_totals.iter_mut().zip([
            t.parse,
            t.optimize,
            t.profile,
            t.partition,
            t.regalloc,
            t.emit,
        ]) {
            *slot += d.as_secs_f64();
        }
    }

    // Warm (disk): a fresh handle has an empty memory tier, so every
    // request is a hash-verified disk read + decode.
    let warm_store = open();
    let (disk_total, disk_per) = compile_pass(&warm_store, set, true, "warm-disk");
    // Warm (mem): the same handle again — now the LRU serves everything.
    let (mem_total, _) = compile_pass(&warm_store, set, true, "warm-mem");

    let schemes = fpa_harness::Scheme::ALL.len();
    let matrix_cells = set.len() * schemes * fpa_harness::WidthPreset::ALL.len();
    let disk_speedup = cold_total / disk_total.max(f64::MIN_POSITIVE);
    let mem_speedup = cold_total / mem_total.max(f64::MIN_POSITIVE);
    println!(
        "compile matrix: {} workload(s) x {} scheme(s) ({matrix_cells} matrix cells)",
        set.len(),
        schemes
    );
    println!("  cold:      {:>8.2} ms", cold_total * 1e3);
    println!(
        "  warm disk: {:>8.2} ms  ({disk_speedup:.1}x)",
        disk_total * 1e3
    );
    println!(
        "  warm mem:  {:>8.2} ms  ({mem_speedup:.1}x)",
        mem_total * 1e3
    );

    // Preserve a `load` array fpa-load --merge may already have written.
    let load = std::fs::read_to_string(json_path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| j.get("load").cloned())
        .unwrap_or(Json::Arr(Vec::new()));

    let mut compile = Json::obj();
    compile
        .set("workloads", set.len())
        .set("schemes", schemes)
        .set("matrix_cells", matrix_cells)
        .set("cold_seconds", cold_total)
        .set("warm_disk_seconds", disk_total)
        .set("warm_mem_seconds", mem_total)
        .set("warm_disk_speedup", disk_speedup)
        .set("warm_mem_speedup", mem_speedup);
    let mut stages = Json::obj();
    for (name, secs) in [
        "parse",
        "optimize",
        "profile",
        "partition",
        "regalloc",
        "emit",
    ]
    .iter()
    .zip(stage_totals)
    {
        stages.set(name, secs);
    }
    compile.set("cold_stage_seconds", stages);
    compile.set(
        "per_workload",
        set.iter()
            .zip(cold_per.iter().zip(&disk_per))
            .map(|(w, (cold, disk))| {
                let mut o = Json::obj();
                o.set("name", w.name.as_str())
                    .set("cold_seconds", *cold)
                    .set("warm_disk_seconds", *disk);
                o
            })
            .collect::<Vec<Json>>(),
    );
    let mut report = Json::obj();
    report
        .set("schema", "fpa-bench-pr9")
        .set("version", 1u64)
        .set("compile", compile)
        .set("load", load);
    std::fs::write(json_path, report.render()).unwrap_or_else(|e| {
        eprintln!("write {json_path}: {e}");
        std::process::exit(1)
    });
    eprintln!("wrote {json_path}");
    if store_dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    if let Some(min) = min_warm_speedup {
        if disk_speedup < min {
            eprintln!(
                "FAIL: warm disk replay is only {disk_speedup:.2}x cold (required {min:.2}x)"
            );
            std::process::exit(1);
        }
        println!("warm-speedup check ok: {disk_speedup:.1}x >= {min:.1}x");
    }
}
