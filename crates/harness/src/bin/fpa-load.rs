//! `fpa-load` — concurrent load generator for `fpa-serve`.
//!
//! Replays fuzz-corpus programs against a running daemon: a
//! deterministic request stream (seeded LCG over the sorted `.zc`
//! corpus, with a configurable duplication ratio re-issuing earlier
//! requests) is pulled by `--clients` closed-loop connections, each
//! measuring per-request latency. The run reports requests/sec and
//! p50/p95/p99 latency.
//!
//! ```text
//! fpa-load [--addr HOST:PORT] [--corpus DIR] [--requests N] [--clients C]
//!          [--dup RATIO] [--seed N] [--verify] [--json PATH]
//! ```
//!
//! `--verify` additionally computes every response locally through
//! [`fpa_harness::respond`] and byte-compares the wire lines against
//! it — the CI smoke job runs with this on.

use fpa_harness::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: fpa-load [--addr HOST:PORT] [--corpus DIR] [--requests N] [--clients C]\n\
         \x20               [--dup RATIO] [--seed N] [--verify] [--json PATH]"
    );
    std::process::exit(2)
}

struct Options {
    addr: String,
    corpus: PathBuf,
    requests: usize,
    clients: usize,
    dup: f64,
    seed: u64,
    verify: bool,
    json: Option<String>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Options {
        addr: "127.0.0.1:7421".to_string(),
        corpus: PathBuf::from("fuzz/corpus"),
        requests: 200,
        clients: 4,
        dup: 0.5,
        seed: 1,
        verify: false,
        json: None,
    };
    fn value(args: &[String], i: &mut usize) -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => o.addr = value(&args, &mut i),
            "--corpus" => o.corpus = PathBuf::from(value(&args, &mut i)),
            "--requests" => o.requests = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--clients" => {
                o.clients = value(&args, &mut i)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--dup" => {
                o.dup = value(&args, &mut i)
                    .parse()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| usage());
            }
            "--seed" => o.seed = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--verify" => o.verify = true,
            "--json" => o.json = Some(value(&args, &mut i)),
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn corpus_sources(dir: &PathBuf) -> Vec<String> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "zc"))
            .collect(),
        Err(e) => {
            eprintln!("fpa-load: cannot read corpus {}: {e}", dir.display());
            std::process::exit(1)
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("fpa-load: no .zc programs under {}", dir.display());
        std::process::exit(1);
    }
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("corpus file"))
        .collect()
}

/// The deterministic request stream: request `k` draws its source and
/// op from a seeded LCG; with probability `dup` it re-issues an earlier
/// request's source (duplicates are what exercise the store and the
/// single-flight path). Ids are the stream positions.
fn build_requests(sources: &[String], n: usize, dup: f64, seed: u64) -> Vec<Json> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    let mut reqs = Vec::with_capacity(n);
    for k in 0..n {
        #[allow(clippy::cast_precision_loss)]
        let duplicate = !picked.is_empty() && (next() % 1_000_000) as f64 / 1e6 < dup;
        let src_idx = if duplicate {
            picked[next() as usize % picked.len()]
        } else {
            next() as usize % sources.len()
        };
        picked.push(src_idx);
        let mut r = Json::obj();
        r.set("id", k).set("source", sources[src_idx].as_str());
        // 3:1 compile-heavy mix; runs keep the simulator busy.
        if next() % 4 == 3 {
            r.set("op", "run").set("scheme", "advanced");
        } else {
            r.set("op", "compile");
        }
        reqs.push(r);
    }
    reqs
}

/// One closed-loop client: claims stream positions, sends each request,
/// waits for its response, records latency. Returns (id, line,
/// latency-seconds) per request.
fn client(addr: &str, reqs: &[Json], next: &AtomicUsize) -> Vec<(u64, String, f64)> {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("fpa-load: connect {addr}: {e}");
        std::process::exit(1)
    });
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut got = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= reqs.len() {
            break;
        }
        let mut line = reqs[i].render_compact();
        line.push('\n');
        let t = Instant::now();
        writer.write_all(line.as_bytes()).expect("send request");
        let mut resp = String::new();
        assert!(
            reader.read_line(&mut resp).expect("read response") > 0,
            "server hung up"
        );
        let secs = t.elapsed().as_secs_f64();
        let id = Json::parse(resp.trim_end())
            .expect("response json")
            .get("id")
            .and_then(Json::as_u64)
            .expect("echoed id");
        got.push((id, resp.trim_end().to_string(), secs));
    }
    got
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let o = parse_args();
    let sources = corpus_sources(&o.corpus);
    let reqs = Arc::new(build_requests(&sources, o.requests, o.dup, o.seed));
    eprintln!(
        "fpa-load: {} request(s) over {} program(s), {} client(s), dup {:.2}",
        reqs.len(),
        sources.len(),
        o.clients,
        o.dup
    );

    let next = Arc::new(AtomicUsize::new(0));
    let wall = Instant::now();
    let handles: Vec<_> = (0..o.clients)
        .map(|_| {
            let reqs = reqs.clone();
            let next = next.clone();
            let addr = o.addr.clone();
            std::thread::spawn(move || client(&addr, &reqs, &next))
        })
        .collect();
    let mut responses: Vec<(u64, String, f64)> = Vec::with_capacity(reqs.len());
    for h in handles {
        responses.extend(h.join().expect("client thread"));
    }
    let elapsed = wall.elapsed().as_secs_f64();
    assert_eq!(
        responses.len(),
        reqs.len(),
        "every request must be answered"
    );

    if o.verify {
        let mut checked = 0usize;
        for (id, line, _) in &responses {
            #[allow(clippy::cast_possible_truncation)]
            let req = &reqs[*id as usize];
            let expected = fpa_harness::respond(req).render_compact();
            assert_eq!(
                line, &expected,
                "response for id {id} differs from the direct pipeline"
            );
            checked += 1;
        }
        eprintln!("fpa-load: verified {checked} response(s) byte-identical to direct calls");
    }

    let mut latencies: Vec<f64> = responses.iter().map(|(_, _, s)| *s).collect();
    latencies.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let rps = reqs.len() as f64 / elapsed.max(f64::MIN_POSITIVE);
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    println!(
        "{} requests in {elapsed:.3}s: {rps:.1} req/s  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms",
        reqs.len(),
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3
    );

    let mut result = Json::obj();
    result
        .set("clients", o.clients)
        .set("requests", reqs.len())
        .set("dup", o.dup)
        .set("seed", o.seed)
        .set("programs", sources.len())
        .set("elapsed_seconds", elapsed)
        .set("requests_per_second", rps)
        .set("p50_ms", p50 * 1e3)
        .set("p95_ms", p95 * 1e3)
        .set("p99_ms", p99 * 1e3)
        .set("verified", o.verify);
    if let Some(path) = &o.json {
        std::fs::write(path, result.render()).unwrap_or_else(|e| {
            eprintln!("fpa-load: write {path}: {e}");
            std::process::exit(1)
        });
        eprintln!("fpa-load: wrote {path}");
    }
}
