//! `fpa-perfbench` — the repository's benchmark.
//!
//! ```text
//! fpa-perfbench --workload compile|figures|serve|fuzz --seed N --seconds S --trace 0|1
//! fpa-perfbench compare OLD NEW
//! ```
//!
//! A run executes one workload in this process through the crates'
//! public functions, checks every output, and prints as its last stdout
//! line one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`). `compare` prints per-layer deltas between two
//! saved traced outputs. Run from the repository root; see README.md
//! in this directory for the workloads and metrics.

mod common;
mod compare;
mod compile;
mod figures;
mod fuzz;
mod procfs;
mod replica;
mod serve;
mod simcost;
mod stats;
mod trace;

use common::{Ctx, Metric, Outcome};
use fpa_harness::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("speedup4_pct", "%"),
    ("speedup8_pct", "%"),
];

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("frontend.self_ms", "ms"),
    ("ir.opt.self_ms", "ms"),
    ("ir.opt.insts", "count"),
    ("ir.interp.self_ms", "ms"),
    ("ir.interp.insts", "count"),
    ("ir.interp.ns_per_inst", "ns"),
    ("ir.interp.share_workloads_pct", "%"),
    ("ir.interp.share_pins_pct", "%"),
    ("partition.basic.self_ms", "ms"),
    ("partition.advanced.self_ms", "ms"),
    ("partition.optimal.self_ms", "ms"),
    ("partition.copies", "count"),
    ("codegen.self_ms", "ms"),
    ("codegen.static_insts", "count"),
    ("sim.timing.self_ms", "ms"),
    ("sim.timing.cycles", "count"),
    ("sim.timing.ns_per_cycle", "ns"),
    ("sim.timing.fixed_us", "us"),
    ("sim.functional.self_ms", "ms"),
    ("sim.functional.insts", "count"),
    ("sim.functional.fixed_us", "us"),
    ("sim.functional.minflt", "count"),
    ("sim.cosim.self_ms", "ms"),
    ("sim.cosim.minflt", "count"),
    ("analysis.lint.self_ms", "ms"),
    ("store.lookups", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.misses", "count"),
    ("store.coalesced", "count"),
    ("store.self_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("artifact.encode_ms", "ms"),
    ("artifact.bytes", "B"),
    ("serve.respond_ms.run", "ms"),
    ("serve.respond_ms.compile", "ms"),
    ("serve.respond_ms.lint", "ms"),
    ("serve.wire_ms", "ms"),
    ("fuzz.gen.self_ms", "ms"),
    ("fuzz.oracle.self_ms", "ms"),
    ("fuzz.features", "count"),
    ("proc.sys_share", "ratio"),
    ("proc.minflt_per_op", "count"),
    ("proc.runq_wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 4] = ["compile", "figures", "serve", "fuzz"];

const USAGE: &str = "usage: fpa-perfbench --workload compile|figures|serve|fuzz \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     fpa-perfbench compare OLD NEW";

fn parse_args(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=3600).contains(&s))
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unexpected {flag} {value}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    ))
}

/// The files every workload reads; their absence means the benchmark
/// was not started from a repository checkout.
const ROOT_MARKERS: [&str; 2] = [
    "crates/harness/tests/golden/matrix_stats.json",
    "fuzz/corpus",
];

fn provenance(ctx: &Ctx, workload: &str) -> Json {
    // Only the checkout itself may answer: the ceiling stops git from
    // reporting an enclosing repository's revision.
    let ceiling = std::fs::canonicalize(&ctx.root)
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&ctx.root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut p = Json::obj();
    p.set("workload", workload)
        .set("seed", ctx.seed)
        .set("seconds", ctx.seconds)
        .set("trace", ctx.trace)
        .set("nproc", fpa_harness::engine::default_jobs())
        .set("rustc", env!("PERFBENCH_RUSTC"))
        .set("git_revision", git)
        .set(
            "compiler_fingerprint",
            fpa_harness::artifact::fingerprint().to_hex(),
        );
    p
}

/// The result line's `metrics` for this run. A traced run lists every
/// per-layer metric: a layer the workload does not drive reads 0, but a
/// `/proc` counter the host lacks stays absent.
fn reported(out: &Outcome, trace: bool) -> Vec<Metric> {
    if !trace {
        return out.end_to_end.clone();
    }
    PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| {
            out.per_layer
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .or_else(|| (!name.starts_with("proc.")).then(|| common::metric(name, 0.0, unit)))
        })
        .collect()
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "compile" => compile::run(ctx),
        "figures" => figures::run(ctx),
        "serve" => serve::run(ctx),
        _ => fuzz::run(ctx),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, old, new] => match compare::run(old.as_ref(), new.as_ref()) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("fpa-perfbench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fpa-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if let Some(missing) = ROOT_MARKERS.iter().find(|m| !root.join(m).exists()) {
        eprintln!("fpa-perfbench: {missing} not found; run from the repository root");
        return ExitCode::FAILURE;
    }
    #[allow(clippy::cast_precision_loss)]
    let ctx = Ctx {
        root,
        seed,
        seconds: seconds as f64,
        trace,
    };
    let out = match run(&workload, &ctx) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fpa-perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "provenance {}",
        provenance(&ctx, &workload).render_compact()
    );
    for note in &out.notes {
        println!("note {note}");
    }
    if let Some(t) = &out.tracer {
        let path = ctx
            .root
            .join(".bench_trace")
            .join(format!("{workload}-seed{seed}.tsv"));
        match t.write(&path) {
            Ok(()) => println!("spans {} ({} spans)", path.display(), t.spans().len()),
            Err(e) => eprintln!("fpa-perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let mut metrics = Json::obj();
    for m in reported(&out, trace) {
        let mut v = Json::obj();
        v.set("value", m.value).set("unit", m.unit);
        metrics.set(m.name, v);
    }
    let mut result = Json::obj();
    result
        .set("correct", out.failed == 0 && out.attempted > 0)
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set("metrics", metrics);
    println!("{}", result.render_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_manifest(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_metrics_the_benchmark_prints() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in_manifest("end_to_end"), own(&END_TO_END));
        assert_eq!(names_in_manifest("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args("--workload serve --seed 3 --seconds 5 --trace 1")),
            Ok(("serve".to_string(), 3, 5, true))
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload fuzz --trace 2")).is_err());
        assert!(parse_args(&args("--workload fuzz --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 3 --seconds 5")).is_err());
    }
}
