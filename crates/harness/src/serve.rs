//! The `fpa-serve` batching compile-and-simulate service.
//!
//! A line-delimited JSON protocol over TCP (`std::net` only): each
//! request is one JSON object on one line, each response is one
//! compact-rendered JSON object on one line ([`Json::render_compact`]),
//! matched to its request by the echoed `id` field — responses may
//! return out of order across a connection.
//!
//! ```text
//! {"id": 1, "op": "ping"}
//! {"id": 2, "op": "compile", "source": "int main() { return 0; }"}
//! {"id": 3, "op": "run", "source": "...", "scheme": "advanced", "width": "4-way"}
//! {"id": 4, "op": "lint", "source": "..."}
//! {"id": 5, "op": "stats"}
//! ```
//!
//! **Byte-identity by construction.** Every response is produced by the
//! pure [`respond_batch`] function over the request values alone; the
//! server's sockets, worker pool, and batching never feed into response
//! bytes. A client therefore sees exactly the bytes a direct in-process
//! call would produce, at any concurrency — the property
//! `tests/serve_identity.rs` pins.
//!
//! **Batching.** Reader threads (one per connection) parse lines into a
//! bounded queue; a fixed worker pool drains up to [`MAX_BATCH`]
//! requests at a time and runs every `run` cell of the batch through
//! one [`run_cells`] call — the same batched simulation path the
//! experiment matrix and the fuzz oracle use, with one persistent
//! simulator session per worker. Compiles go through the ambient
//! artifact store ([`crate::artifact`]), so concurrent duplicate
//! requests coalesce into a single compile (single-flight) and repeat
//! sources are answered from cache.
//!
//! **Failure modes.** A malformed line gets an `"ok": false` response
//! with a `null` id (the id, if any, could not be trusted); a request
//! naming an unknown op, a source that fails to compile, or a
//! simulation fault gets an `"ok": false` response with the error
//! message; a faulting cell never poisons its batchmates (the batch
//! falls back to per-cell runs). The daemon itself only exits on a
//! listener error.

use crate::artifact::{ambient, build_suite_cached};
use crate::cell::{run_cells, CellId, CellMode, CellResult, CellSource, CellSpec, WidthPreset};
use crate::compiler::{Scheme, SuiteArtifacts};
use crate::json::Json;
use crate::pipeline::CompiledWorkload;
use fpa_isa::Program;
use fpa_partition::{CostParams, PartitionStats};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Default simulation fuel for `run` requests (the fuzz oracle's
/// budget: generated and corpus programs finish far below it).
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Most requests one worker folds into a single [`run_cells`] batch.
pub const MAX_BATCH: usize = 8;

/// Queued requests before connection readers block (backpressure).
const QUEUE_CAP: usize = 1024;

/// One parsed request.
enum Op {
    Ping,
    Stats,
    Compile {
        source: String,
        params: CostParams,
    },
    Run {
        source: String,
        scheme: Scheme,
        width: WidthPreset,
        functional: bool,
        fuel: u64,
    },
    Lint {
        source: String,
    },
}

fn parse_req(req: &Json) -> Result<Op, String> {
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\"")?;
    let source = || -> Result<String, String> {
        Ok(req
            .get("source")
            .and_then(Json::as_str)
            .ok_or("missing \"source\"")?
            .to_string())
    };
    match op {
        "ping" => Ok(Op::Ping),
        "stats" => Ok(Op::Stats),
        "compile" => {
            let d = CostParams::default();
            let f = |key: &str, dflt: f64| req.get(key).and_then(Json::as_f64).unwrap_or(dflt);
            Ok(Op::Compile {
                source: source()?,
                params: CostParams {
                    o_copy: f("o_copy", d.o_copy),
                    o_dupl: f("o_dupl", d.o_dupl),
                    balance_cap: req
                        .get("balance_cap")
                        .and_then(Json::as_f64)
                        .or(d.balance_cap),
                },
            })
        }
        "run" => {
            let scheme: Scheme = req
                .get("scheme")
                .and_then(Json::as_str)
                .unwrap_or("conventional")
                .parse()?;
            let width: WidthPreset = req
                .get("width")
                .and_then(Json::as_str)
                .unwrap_or("4-way")
                .parse()?;
            let functional = match req.get("mode").and_then(Json::as_str) {
                None | Some("timing") => false,
                Some("functional") => true,
                Some(m) => return Err(format!("unknown mode \"{m}\" (timing|functional)")),
            };
            Ok(Op::Run {
                source: source()?,
                scheme,
                width,
                functional,
                fuel: req
                    .get("fuel")
                    .and_then(Json::as_u64)
                    .unwrap_or(DEFAULT_FUEL),
            })
        }
        "lint" => Ok(Op::Lint { source: source()? }),
        other => Err(format!("unknown op \"{other}\"")),
    }
}

/// Response skeleton: the echoed request id plus the op label.
fn base(req: &Json, op: &str) -> Json {
    let mut o = Json::obj();
    o.set("id", req.get("id").cloned().unwrap_or(Json::Null));
    o.set("op", op);
    o
}

/// An `"ok": false` response carrying the error message.
fn error_response(req: &Json, message: &str) -> Json {
    let mut o = Json::obj();
    o.set("id", req.get("id").cloned().unwrap_or(Json::Null));
    o.set("ok", false);
    o.set("error", message);
    o
}

fn stats_json(s: &PartitionStats) -> Json {
    let mut o = Json::obj();
    o.set("fp_weight", s.fp_weight)
        .set("int_weight", s.int_weight)
        .set("copy_weight", s.copy_weight)
        .set("static_insts", s.static_insts)
        .set("static_copies", s.static_copies)
        .set("fp_fraction", s.fp_fraction());
    o
}

/// The `compile` response: golden behaviour, per-scheme static sizes,
/// and partition statistics. Deliberately excludes wall-clock stage
/// timings and the store outcome, so the bytes depend on the request
/// alone — never on cache state or the machine.
fn compile_response(req: &Json, suite: &SuiteArtifacts) -> Json {
    let mut o = base(req, "compile");
    o.set("ok", true)
        .set("golden_exit", suite.golden_exit)
        .set("golden_output", suite.golden_output.as_str());
    let mut sizes = Json::obj();
    let mut parts = Json::obj();
    for scheme in Scheme::ALL {
        sizes.set(scheme.label(), suite.program(scheme).static_size());
        if let Some(stats) = suite.partition_stats(scheme) {
            parts.set(scheme.label(), stats_json(stats));
        }
    }
    o.set("static_sizes", sizes);
    o.set("partitions", parts);
    o
}

fn run_response(req: &Json, scheme: Scheme, width: WidthPreset, r: &CellResult) -> Json {
    let mut o = base(req, "run");
    o.set("ok", true)
        .set("scheme", scheme.label())
        .set("width", width.label());
    if let Some(f) = r.payload.functional() {
        o.set("output", f.output.as_str())
            .set("exit_code", f.exit_code)
            .set("retired", f.total)
            .set("augmented", f.augmented)
            .set("copies", f.copies);
    } else if let Some(t) = r.payload.timing() {
        o.set("cycles", t.cycles).set("retired", t.retired);
    }
    o
}

fn lint_response(req: &Json, c: &CompiledWorkload) -> Json {
    let rows = crate::lint::lint_workload(c);
    let total: usize = rows.iter().map(|r| r.findings.len()).sum();
    let mut o = base(req, "lint");
    o.set("ok", true)
        .set("clean", total == 0)
        .set("findings", total);
    let rows: Vec<Json> = rows
        .iter()
        .map(|row| {
            let mut r = Json::obj();
            r.set("scheme", row.scheme.label()).set("insts", row.insts);
            r.set(
                "findings",
                row.findings
                    .iter()
                    .map(|f| Json::from(f.to_string()))
                    .collect::<Vec<Json>>(),
            );
            r
        })
        .collect();
    o.set("rows", rows);
    o
}

fn stats_response(req: &Json) -> Json {
    let mut o = base(req, "stats");
    o.set("ok", true);
    match ambient() {
        Some(store) => {
            let s = store.stats();
            o.set("store", true)
                .set("hits_mem", s.hits_mem)
                .set("hits_disk", s.hits_disk)
                .set("misses", s.misses)
                .set("coalesced", s.coalesced)
                .set("corrupt_evicted", s.corrupt_evicted);
        }
        None => {
            o.set("store", false);
        }
    }
    o
}

/// Resolves the batch's internal `r<index>` cell labels. The labels
/// never appear in a response — they exist only to address cells inside
/// one [`run_cells`] call.
struct BatchSource(Vec<Option<SuiteArtifacts>>);

impl CellSource for BatchSource {
    fn resolve(&self, id: &CellId) -> Option<&Program> {
        let i: usize = id.workload.strip_prefix('r')?.parse().ok()?;
        Some(self.0.get(i)?.as_ref()?.program(id.scheme))
    }
}

/// Answers one request. Exactly [`respond_batch`] over a single-element
/// batch — the definition that makes server responses byte-identical to
/// direct in-process calls.
#[must_use]
pub fn respond(req: &Json) -> Json {
    respond_batch(std::slice::from_ref(req))
        .pop()
        .expect("one response per request")
}

/// Answers a batch of requests, in request order. All `run` cells of
/// the batch go through one [`run_cells`] call; every compile goes
/// through the ambient artifact store. Pure in the request values:
/// batch composition and order never change any individual response
/// (cell results are deterministic and label-independent), so any
/// split of a request stream into batches yields the same bytes.
#[must_use]
pub fn respond_batch(reqs: &[Json]) -> Vec<Json> {
    let parsed: Vec<Result<Op, String>> = reqs.iter().map(parse_req).collect();

    // Compile every run request (through the store) and gather its cell.
    let mut compiled: Vec<Option<SuiteArtifacts>> = Vec::with_capacity(reqs.len());
    let mut build_errors: Vec<Option<String>> = vec![None; reqs.len()];
    let mut specs: Vec<CellSpec> = Vec::new();
    for (i, p) in parsed.iter().enumerate() {
        let mut slot = None;
        if let Ok(Op::Run {
            source,
            scheme,
            width,
            functional,
            fuel,
        }) = p
        {
            match build_suite_cached(source, &CostParams::default()) {
                Ok((suite, _)) => {
                    slot = Some(suite);
                    specs.push(CellSpec::new(
                        CellId::new(format!("r{i}"), *scheme, *width),
                        if *functional {
                            CellMode::Functional
                        } else {
                            CellMode::Timing
                        },
                        *fuel,
                    ));
                }
                Err(e) => build_errors[i] = Some(e.to_string()),
            }
        }
        compiled.push(slot);
    }

    // One batched simulation pass. If any cell faults, fall back to
    // per-cell runs so the fault stays confined to its own request.
    let source = BatchSource(compiled);
    let mut cell_results: Vec<Result<CellResult, String>> = Vec::new();
    match run_cells(&source, &specs, 1) {
        Ok(results) => cell_results.extend(results.into_iter().map(Ok)),
        Err(_) => {
            for spec in &specs {
                cell_results.push(
                    run_cells(&source, std::slice::from_ref(spec), 1)
                        .map(|mut v| v.pop().expect("one cell"))
                        .map_err(|e| e.to_string()),
                );
            }
        }
    }
    let mut cells = cell_results.into_iter();

    parsed
        .iter()
        .zip(reqs)
        .enumerate()
        .map(|(i, (p, req))| match p {
            Err(msg) => error_response(req, msg),
            Ok(Op::Ping) => {
                let mut o = base(req, "ping");
                o.set("ok", true);
                o
            }
            Ok(Op::Stats) => stats_response(req),
            Ok(Op::Compile { source, params }) => match build_suite_cached(source, params) {
                Ok((suite, _)) => compile_response(req, &suite),
                Err(e) => error_response(req, &e.to_string()),
            },
            Ok(Op::Run { scheme, width, .. }) => {
                if let Some(msg) = &build_errors[i] {
                    return error_response(req, msg);
                }
                match cells.next().expect("one cell per compiled run request") {
                    Ok(r) => run_response(req, *scheme, *width, &r),
                    Err(msg) => error_response(req, &msg),
                }
            }
            Ok(Op::Lint { source }) => match build_suite_cached(source, &CostParams::default()) {
                Ok((suite, _)) => {
                    lint_response(req, &CompiledWorkload::from_suite("request", suite))
                }
                Err(e) => error_response(req, &e.to_string()),
            },
        })
        .collect()
}

// ---- Server runtime ----------------------------------------------------

/// One queued request: where to write the response, and the request
/// value itself.
struct Job {
    conn: Arc<Mutex<TcpStream>>,
    req: Json,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signaled when the queue gains work (workers wait on it).
    ready: Condvar,
    /// Signaled when the queue drains below capacity (readers wait).
    space: Condvar,
}

impl Shared {
    fn push(&self, job: Job) {
        let mut q = self.queue.lock().expect("queue poisoned");
        while q.len() >= QUEUE_CAP {
            q = self.space.wait(q).expect("queue poisoned");
        }
        q.push_back(job);
        self.ready.notify_one();
    }

    /// Blocks until work arrives, then drains up to `max_batch` jobs.
    fn pop_batch(&self, max_batch: usize) -> Vec<Job> {
        let mut q = self.queue.lock().expect("queue poisoned");
        while q.is_empty() {
            q = self.ready.wait(q).expect("queue poisoned");
        }
        let n = q.len().min(max_batch.max(1));
        let batch: Vec<Job> = q.drain(..n).collect();
        self.space.notify_all();
        batch
    }
}

fn write_line(conn: &Mutex<TcpStream>, resp: &Json) {
    let mut line = resp.render_compact();
    line.push('\n');
    let mut stream = conn.lock().expect("connection poisoned");
    // A write error means the client hung up; the reader thread will
    // see EOF and wind the connection down.
    let _ = stream.write_all(line.as_bytes());
}

fn spawn_reader(stream: TcpStream, shared: Arc<Shared>) {
    thread::spawn(move || {
        let writer = match stream.try_clone() {
            Ok(w) => Arc::new(Mutex::new(w)),
            Err(e) => {
                eprintln!("fpa-serve: cannot clone connection: {e}");
                return;
            }
        };
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match Json::parse(&line) {
                Ok(req) => shared.push(Job {
                    conn: writer.clone(),
                    req,
                }),
                Err(e) => {
                    // The id cannot be trusted on a malformed line.
                    write_line(
                        &writer,
                        &error_response(&Json::Null, &format!("bad request: {e}")),
                    );
                }
            }
        }
    });
}

/// Runs the service on an already-bound listener: `workers` batch
/// processors over a bounded queue, one reader thread per connection.
/// Returns only if the accept loop fails.
///
/// # Errors
///
/// Returns the listener's [`std::io::Error`] when accepting fails
/// unrecoverably.
pub fn serve(listener: &TcpListener, workers: usize, max_batch: usize) -> std::io::Result<()> {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        space: Condvar::new(),
    });
    for _ in 0..workers.max(1) {
        let shared = shared.clone();
        thread::spawn(move || loop {
            let batch = shared.pop_batch(max_batch);
            let reqs: Vec<Json> = batch.iter().map(|j| j.req.clone()).collect();
            let resps = respond_batch(&reqs);
            for (job, resp) in batch.iter().zip(&resps) {
                write_line(&job.conn, resp);
            }
        });
    }
    for stream in listener.incoming() {
        spawn_reader(stream?, shared.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(text: &str) -> Json {
        Json::parse(text).expect("request literal")
    }

    const SRC: &str = "int main() { int i; int s; s = 0; \
                       for (i = 0; i < 8; i = i + 1) { s = s + i * 3; } \
                       print(s); return s; }";

    #[test]
    fn ping_compile_run_lint_and_stats_answer() {
        let mut c = Json::obj();
        c.set("id", 2u64).set("op", "compile").set("source", SRC);
        let mut r = Json::obj();
        r.set("id", 3u64)
            .set("op", "run")
            .set("source", SRC)
            .set("scheme", "advanced");
        let mut f = Json::obj();
        f.set("id", 4u64)
            .set("op", "run")
            .set("source", SRC)
            .set("mode", "functional");
        let mut l = Json::obj();
        l.set("id", 5u64).set("op", "lint").set("source", SRC);
        let resps = respond_batch(&[
            req(r#"{"id": 1, "op": "ping"}"#),
            c,
            r,
            f,
            l,
            req(r#"{"id": 6, "op": "stats"}"#),
        ]);
        for (i, resp) in resps.iter().enumerate() {
            assert_eq!(
                resp.get("ok"),
                Some(&Json::Bool(true)),
                "request {i}: {resp:?}"
            );
            assert_eq!(resp.get("id").and_then(Json::as_u64), Some(i as u64 + 1));
        }
        assert!(resps[1].get("golden_output").is_some());
        assert!(resps[2].get("cycles").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(resps[3].get("exit_code").and_then(Json::as_u64), Some(84));
        assert_eq!(resps[4].get("clean"), Some(&Json::Bool(true)));
    }

    #[test]
    fn batch_composition_never_changes_a_response() {
        let mut run = Json::obj();
        run.set("id", "x")
            .set("op", "run")
            .set("source", SRC)
            .set("scheme", "basic")
            .set("width", "8-way");
        let alone = respond(&run);
        let mut other = Json::obj();
        other
            .set("id", "y")
            .set("op", "run")
            .set("source", SRC)
            .set("scheme", "optimal");
        let batched = respond_batch(&[other.clone(), run.clone(), req(r#"{"op": "ping"}"#)]);
        assert_eq!(batched[1].render_compact(), alone.render_compact());
    }

    #[test]
    fn errors_are_reported_per_request_without_poisoning_the_batch() {
        let mut bad = Json::obj();
        bad.set("id", 1u64)
            .set("op", "run")
            .set("source", "int main() { return undeclared; }");
        let mut good = Json::obj();
        good.set("id", 2u64).set("op", "run").set("source", SRC);
        let resps = respond_batch(&[
            bad,
            good,
            req(r#"{"id": 3, "op": "explode"}"#),
            req(r#"{"id": 4}"#),
        ]);
        assert_eq!(resps[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resps[1].get("ok"), Some(&Json::Bool(true)));
        assert!(resps[2]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown op"));
        assert!(resps[3]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("missing \"op\""));
    }
}
