//! The `fpa-serve` compile-and-simulate service.
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
//! pure [`respond`] function over the request value alone; the server's
//! sockets and worker pool never feed into response bytes. A client
//! therefore sees exactly the bytes a direct in-process call would
//! produce, at any concurrency — the property `tests/serve_identity.rs`
//! pins.
//!
//! **One request at a time.** Reader threads (one per connection) parse
//! lines into a bounded queue; each worker of a fixed pool takes one
//! request, answers it with [`respond`] and writes the response line
//! before it takes the next. A `run` simulates its one cell through
//! [`run_cells`] on the worker's thread, so each worker keeps one
//! persistent simulator session. Compiles go through the ambient
//! artifact store ([`crate::artifact`]), so concurrent duplicate
//! requests coalesce into a single compile (single-flight) and repeat
//! sources are answered from cache.
//!
//! **Failure modes.** A malformed line gets an `"ok": false` response
//! with a `null` id (the id, if any, could not be trusted); a request
//! naming an unknown op, a source that fails to compile, or a
//! simulation fault gets an `"ok": false` response with the error
//! message. The daemon itself only exits on a listener error.

use crate::artifact::{ambient, build_suite_cached};
use crate::cell::{run_cells, CellId, CellMode, CellResult, CellSpec, WidthPreset};
use crate::compiler::{Scheme, SuiteArtifacts};
use crate::json::Json;
use crate::pipeline::CompiledWorkload;
use fpa_partition::{CostParams, PartitionStats};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Default simulation fuel for `run` requests (the fuzz oracle's
/// budget: generated and corpus programs finish far below it).
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Requests a worker answers at a time. [`serve`] ignores its third
/// parameter, which callers still pass this for.
pub const MAX_BATCH: usize = 1;

/// Queued requests before connection readers block (backpressure).
const QUEUE_CAP: usize = 1024;

/// One parsed request, borrowing its source text from the request.
enum Op<'a> {
    Ping,
    Stats,
    Compile {
        source: &'a str,
        params: CostParams,
    },
    Run {
        source: &'a str,
        scheme: Scheme,
        width: WidthPreset,
        mode: CellMode,
        fuel: u64,
    },
    Lint {
        source: &'a str,
    },
}

fn parse_req(req: &Json) -> Result<Op<'_>, String> {
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\"")?;
    let source = || {
        req.get("source")
            .and_then(Json::as_str)
            .ok_or("missing \"source\"")
    };
    match op {
        "ping" => Ok(Op::Ping),
        "stats" => Ok(Op::Stats),
        "compile" => {
            let d = CostParams::default();
            let f = |key: &str, dflt: f64| req.get(key).and_then(Json::as_f64).unwrap_or(dflt);
            let params = CostParams {
                o_copy: f("o_copy", d.o_copy),
                o_dupl: f("o_dupl", d.o_dupl),
                balance_cap: req
                    .get("balance_cap")
                    .and_then(Json::as_f64)
                    .or(d.balance_cap),
            };
            params.check()?;
            Ok(Op::Compile {
                source: source()?,
                params,
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
            let mode = match req.get("mode").and_then(Json::as_str) {
                None | Some("timing") => CellMode::Timing,
                Some("functional") => CellMode::Functional,
                Some(m) => return Err(format!("unknown mode \"{m}\" (timing|functional)")),
            };
            Ok(Op::Run {
                source: source()?,
                scheme,
                width,
                mode,
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

/// Answers one request. Pure in the request value: the response
/// depends on nothing else — not on cache state, not on which worker
/// answers — which is what makes server responses byte-identical to
/// direct in-process calls. Every compile goes through the ambient
/// artifact store; a `run` simulates its one cell through [`run_cells`]
/// on the caller's thread.
#[must_use]
pub fn respond(req: &Json) -> Json {
    answer(req).unwrap_or_else(|msg| error_response(req, &msg))
}

/// [`respond`]'s successful responses; `Err` carries the message of an
/// `"ok": false` one.
fn answer(req: &Json) -> Result<Json, String> {
    let compile = |source: &str, params: &CostParams| {
        build_suite_cached(source, params)
            .map(|(suite, _)| suite)
            .map_err(|e| e.to_string())
    };
    Ok(match parse_req(req)? {
        Op::Ping => {
            let mut o = base(req, "ping");
            o.set("ok", true);
            o
        }
        Op::Stats => stats_response(req),
        Op::Compile { source, params } => compile_response(req, &compile(source, &params)?),
        Op::Run {
            source,
            scheme,
            width,
            mode,
            fuel,
        } => {
            let suite = compile(source, &CostParams::default())?;
            let compiled = [CompiledWorkload::from_suite("request", suite)];
            let spec = CellSpec::new(CellId::new("request", scheme, width), mode, fuel);
            let cells =
                run_cells(&compiled, std::slice::from_ref(&spec), 1).map_err(|e| e.to_string())?;
            run_response(req, scheme, width, &cells[0])
        }
        Op::Lint { source } => {
            let suite = compile(source, &CostParams::default())?;
            lint_response(req, &CompiledWorkload::from_suite("request", suite))
        }
    })
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

    /// Blocks until work arrives, then takes the oldest job.
    fn pop(&self) -> Job {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            if let Some(job) = q.pop_front() {
                self.space.notify_one();
                return job;
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
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

/// Runs the service on an already-bound listener: `workers` threads
/// over a bounded queue, each answering one request at a time, and one
/// reader thread per connection. `_max_batch` is ignored; callers still
/// pass [`MAX_BATCH`] for it. Returns only if the accept loop fails.
///
/// # Errors
///
/// Returns the listener's [`std::io::Error`] when accepting fails
/// unrecoverably.
pub fn serve(listener: &TcpListener, workers: usize, _max_batch: usize) -> std::io::Result<()> {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        space: Condvar::new(),
    });
    for _ in 0..workers.max(1) {
        let shared = shared.clone();
        thread::spawn(move || loop {
            let job = shared.pop();
            write_line(&job.conn, &respond(&job.req));
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
        let resps: Vec<Json> = [
            req(r#"{"id": 1, "op": "ping"}"#),
            c,
            r,
            f,
            l,
            req(r#"{"id": 6, "op": "stats"}"#),
        ]
        .iter()
        .map(respond)
        .collect();
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

    fn error(resp: &Json) -> &str {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
        resp.get("error")
            .and_then(Json::as_str)
            .expect("error text")
    }

    #[test]
    fn errors_are_reported_per_request() {
        let mut bad = Json::obj();
        bad.set("id", 1u64)
            .set("op", "run")
            .set("source", "int main() { return undeclared; }");
        assert!(error(&respond(&bad)).contains("undeclared"));
        let mut good = Json::obj();
        good.set("id", 2u64).set("op", "run").set("source", SRC);
        assert_eq!(respond(&good).get("ok"), Some(&Json::Bool(true)));
        good.set("scheme", "advanced").set("fuel", 10u64);
        assert_eq!(
            error(&respond(&good)),
            "cell request/advanced/4-way: instruction budget exhausted"
        );
        assert!(error(&respond(&req(r#"{"id": 3, "op": "explode"}"#))).contains("unknown op"));
        assert!(error(&respond(&req(r#"{"id": 4}"#))).contains("missing \"op\""));
        let mut inverted = req(r#"{"id": 5, "op": "compile", "o_copy": 1, "o_dupl": 5}"#);
        inverted.set("source", SRC);
        assert_eq!(
            error(&respond(&inverted)),
            "cost model requires o_dupl < o_copy (got 5 >= 1)"
        );
    }

    #[test]
    fn programs_too_large_for_memory_are_refused() {
        let huge = [
            // Globals past the 8 MiB stack top, sized without overflow.
            "int a[4000000]; int main() { a[3999999] = 1; return a[3999999]; }",
            // Globals that end exactly at the stack top, plus a double
            // constant the code generator pools above them.
            "int a[2096128]; int main() { a[0] = 1; print(2.5); return a[0]; }",
            // 4 * 2^30 bytes: wraps to zero in 32-bit arithmetic.
            "int a[1073741824]; int main() { a[1] = 1; return a[1]; }",
            // A 4 GB data segment.
            "int a[1000000000]; int main() { a[1] = 1; return a[1]; }",
        ];
        for source in huge {
            for op in ["compile", "run", "lint"] {
                let mut r = Json::obj();
                r.set("op", op).set("source", source);
                error(&respond(&r));
            }
        }
    }
}
