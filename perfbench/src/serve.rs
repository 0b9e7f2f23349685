//! `serve`: `fpa_harness::serve` in-process on a loopback listener the
//! benchmark binds, one worker, an in-memory artifact store filled in
//! set-up with the fuzz pins and warmed through the sockets; the timed
//! phase runs a seeded stream over the pins (two thirds `run`, one sixth
//! `compile`, one sixth `lint`) through a worker's per-request path on
//! one thread; op = one request. The traced run adds a socket phase.

use crate::common::{
    latency_metrics, load_pins, metric, ms_per_op, overhead_pct, peak_rss, proc_metrics, Ctx,
    Metric, Outcome, Program, Rng, SETUP_REPS,
};
use crate::procfs::{Counters, Delta};
use crate::trace::Tracer;
use fpa_harness::artifact::{decode_suite, encode_suite, suite_key, ArtifactStore};
use fpa_harness::json::Json;
use fpa_harness::serve::{DEFAULT_FUEL, MAX_BATCH};
use fpa_harness::{CellId, CellMode, CellSpec, CompiledWorkload, Scheme, WidthPreset};
use fpa_partition::CostParams;
use fpa_store::{hash_bytes, Key};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Server workers. One worker with two connections keeps the queue and
/// the batch fold busy without oversubscribing a 2-CPU host.
const WORKERS: usize = 1;
/// Closed-loop connections, capped at the host's CPUs.
const CONNECTIONS: usize = 2;
/// Requests sent over the sockets in each set-up, before timing.
const WARMUP: u64 = 300;
/// Stream seed of the warm-up requests.
const WARMUP_SEED: u64 = 0x7761_726d;
/// Length of the traced run's socket phase, in seconds.
const SOCKET_SECONDS: f64 = 5.0;
/// Requests of the timed stream the traced run replays in-process.
const REPLAY: u64 = 1500;

/// The three request kinds, in stream-draw order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Run,
    Compile,
    Lint,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Run, Kind::Compile, Kind::Lint];

    fn label(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Compile => "compile",
            Kind::Lint => "lint",
        }
    }
}

/// Request `k` of the stream for `seed`: a pure function, so every
/// connection (and the traced replay) agrees on the stream whatever the
/// interleaving. Four in six requests are `run`s, so the median falls
/// inside one request type.
fn draw(seed: u64, k: u64, pins: usize) -> (Kind, usize) {
    let mut rng = Rng::new(seed, k.wrapping_add(0x5e));
    let kind = match rng.below(6) {
        0..=3 => Kind::Run,
        4 => Kind::Compile,
        _ => Kind::Lint,
    };
    (kind, rng.below(pins))
}

/// The request body for `(kind, pin)` with id 0 — the id is always the
/// first field, so [`with_id`] can rewrite it.
fn request(kind: Kind, source: &str) -> Json {
    let mut r = Json::obj();
    r.set("id", 0u64)
        .set("op", kind.label())
        .set("source", source);
    if kind == Kind::Run {
        r.set("scheme", "advanced").set("width", "4-way");
    }
    r
}

/// `v` (an object whose first field is `id`) with its id set to `k`.
fn with_id(v: &Json, k: u64) -> Json {
    let mut v = v.clone();
    if let Json::Obj(pairs) = &mut v {
        if let Some((key, id)) = pairs.first_mut() {
            if key == "id" {
                *id = Json::from(k);
            }
        }
    }
    v
}

/// Every request body, indexed `[kind][pin]`, with its rendered line
/// minus the leading `{"id":0,`: a client splices the id in, so sending
/// a request costs the client a copy, not a render.
struct Requests {
    bodies: Vec<Vec<(Json, String)>>,
}

impl Requests {
    const ID_PREFIX: &'static str = "{\"id\":0,";

    fn new(pins: &[Program]) -> Requests {
        let entry = |kind, p: &Program| {
            let body = request(kind, &p.source);
            let line = body.render_compact();
            let rest = line
                .strip_prefix(Requests::ID_PREFIX)
                .expect("request bodies render their id first")
                .to_string();
            (body, rest)
        };
        Requests {
            bodies: Kind::ALL
                .iter()
                .map(|&k| pins.iter().map(|p| entry(k, p)).collect())
                .collect(),
        }
    }

    fn body(&self, kind: Kind, pin: usize) -> &Json {
        &self.bodies[kind as usize][pin].0
    }

    /// Request `k`'s line: exactly `with_id(body, k).render_compact()`
    /// plus the newline.
    fn line(&self, seed: u64, k: u64) -> String {
        let (kind, pin) = draw(seed, k, self.bodies[0].len());
        format!("{{\"id\":{k},{}\n", self.bodies[kind as usize][pin].1)
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up",
            ));
        }
        resp.pop();
        Ok(resp)
    }
}

/// What clients saw, per request: its index, the time in ms, a hash of
/// the response line (kept instead of the line, so memory does not grow
/// with throughput), and when the response arrived.
type Seen = Vec<(u64, f64, Key, Instant)>;

/// Closed-loop connections to `addr` send requests `0, 1, 2, ...` of the
/// stream for `seed` (each connection takes the next index when its
/// previous response arrives) for as long as `more` allows.
fn drive(
    addr: SocketAddr,
    reqs: &Requests,
    seed: u64,
    more: impl Fn(u64) -> bool + Sync,
) -> Result<Seen, String> {
    let next = AtomicU64::new(0);
    let seen = thread::scope(|s| {
        let handles: Vec<_> = (0..connections())
            .map(|_| {
                s.spawn(|| -> io::Result<Seen> {
                    let mut c = Conn::open(addr)?;
                    let mut seen = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if !more(k) {
                            return Ok(seen);
                        }
                        let line = reqs.line(seed, k);
                        let t = Instant::now();
                        let resp = c.call(&line)?;
                        let done = Instant::now();
                        let ms = (done - t).as_secs_f64() * 1e3;
                        seen.push((k, ms, hash_bytes(resp.as_bytes()), done));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect::<io::Result<Vec<Seen>>>()
    });
    seen.map(|v| v.concat()).map_err(|e| format!("client: {e}"))
}

/// `respond`'s answer to each (kind, pin), computed on first use. The id
/// is a response's only per-request field, so one call covers every
/// request of that kind and pin.
struct Expected<'a> {
    reqs: &'a Requests,
    cache: Vec<Vec<Option<Json>>>,
}

impl Expected<'_> {
    fn new(reqs: &Requests) -> Expected<'_> {
        Expected {
            reqs,
            cache: vec![vec![None; reqs.bodies[0].len()]; Kind::ALL.len()],
        }
    }

    /// Whether the response line hashed to `got` for request `k` of the
    /// stream for `seed` is `ok` and byte-identical to in-process
    /// `respond` (`fpa-load --verify`'s check).
    fn matches(&mut self, seed: u64, k: u64, got: Key) -> bool {
        let (kind, pin) = draw(seed, k, self.cache[0].len());
        let reqs = self.reqs;
        let e = self.cache[kind as usize][pin]
            .get_or_insert_with(|| fpa_harness::respond(reqs.body(kind, pin)));
        e.get("ok") == Some(&Json::Bool(true))
            && hash_bytes(with_id(e, k).render_compact().as_bytes()) == got
    }

    /// How many of `seen` (requests of the stream for `seed`) fail
    /// [`Expected::matches`].
    fn failures(&mut self, seed: u64, seen: &Seen) -> u64 {
        seen.iter()
            .map(|&(k, _, got, _)| u64::from(!self.matches(seed, k, got)))
            .sum()
    }
}

/// A running in-process server and its store.
struct Server {
    addr: SocketAddr,
    control: TcpListener,
    thread: JoinHandle<io::Result<()>>,
    store: Arc<ArtifactStore>,
}

impl Server {
    /// Set-up: bind, start serving, fill a fresh store with every pin,
    /// and send warm-up requests over the sockets (returned for
    /// checking). The listener is bound before `serve` runs, so
    /// connecting needs no readiness polling.
    fn start(pins: &[Program], reqs: &Requests) -> Result<(Server, Seen), String> {
        let store = Arc::new(ArtifactStore::in_memory());
        fpa_harness::set_ambient(Some(store.clone()));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let control = listener.try_clone().map_err(|e| e.to_string())?;
        let thread = thread::spawn(move || fpa_harness::serve(&listener, WORKERS, MAX_BATCH));
        let server = Server {
            addr,
            control,
            thread,
            store,
        };
        for p in pins {
            server
                .store
                .suite(&p.source, &CostParams::default())
                .map_err(|e| format!("{}: {e}", p.name))?;
        }
        let warm = drive(addr, reqs, WARMUP_SEED, |k| k < WARMUP)?;
        Ok((server, warm))
    }

    /// Stops the accept loop: with the listener non-blocking, one wake-up
    /// connection lets `serve` return on its next accept. The idle worker
    /// thread stays parked on its queue until the process exits.
    fn stop(self) -> Result<(), String> {
        self.control
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        drop(TcpStream::connect(self.addr).map_err(|e| e.to_string())?);
        match self.thread.join().expect("accept loop panicked") {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            other => Err(format!("server ended unexpectedly: {other:?}")),
        }
    }
}

fn connections() -> usize {
    CONNECTIONS.min(fpa_harness::engine::default_jobs())
}

/// Windows the timed phase is cut into for `ops_per_s` and `op_p99_ms`.
const WINDOWS: usize = 10;

/// Median per-window throughput and median per-window p99 (over the
/// windows whose p99 has 10 samples beyond it) of responses arriving at
/// `offset` seconds into a `wall`-second phase. A stall in one window
/// moves one of ten samples instead of the whole run's figure.
fn windowed(samples: &[(f64, f64)], wall: f64) -> (f64, Option<f64>) {
    let width = wall / WINDOWS as f64;
    let mut buckets = vec![Vec::new(); WINDOWS];
    for &(offset, ms) in samples {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let w = ((offset / width) as usize).min(WINDOWS - 1);
        buckets[w].push(ms);
    }
    #[allow(clippy::cast_precision_loss)]
    let rates: Vec<f64> = buckets.iter().map(|b| b.len() as f64 / width).collect();
    let tails: Vec<f64> = buckets
        .iter_mut()
        .filter_map(|b| {
            b.sort_by(|x, y| x.partial_cmp(y).expect("NaN latency"));
            crate::stats::tail_percentile(b, 0.99)
        })
        .collect();
    let p99 = (!tails.is_empty()).then(|| crate::stats::median(&tails));
    (crate::stats::median(&rates), p99)
}

/// One request as a daemon worker handles it, minus the socket and the
/// queue: parse the line, `respond`, render the response line.
fn handle(line: &str) -> String {
    let req = Json::parse(line.trim_end()).expect("generated request lines parse");
    fpa_harness::respond(&req).render_compact()
}

/// Runs the workload.
///
/// # Errors
///
/// The corpus could not be loaded, a pin failed to compile, or a socket
/// failed.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let pins = load_pins(&ctx.root)?;
    let reqs = Requests::new(&pins);
    // Set up several times (median reported); each earlier server is
    // stopped, outside the timing, before the next one starts.
    let mut setup_secs = Vec::new();
    let mut warmups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::stop(s)?;
        }
        let t = Instant::now();
        let (s, warm) = Server::start(&pins, &reqs)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        server = Some(s);
        warmups.push(warm);
    }
    let setup_s = crate::stats::median(&setup_secs);
    let server = server.expect("set-up ran");
    let fill = server.store.stats();

    // The timed phase runs each request exactly as a worker does, on one
    // thread: through sockets, the reader/worker/client hand-offs turned
    // host steal into latency (p99 spread 13-83% over four ten-run sets), so
    // the socket path is measured in the traced run instead.
    let stats_before = server.store.stats();
    let before = Counters::read();
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut seen: Seen = Vec::new();
    for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let line = reqs.line(ctx.seed, k);
        let t = Instant::now();
        let resp = handle(&line);
        let done = Instant::now();
        seen.push((
            k,
            (done - t).as_secs_f64() * 1e3,
            hash_bytes(resp.as_bytes()),
            done,
        ));
    }
    let wall = t0.elapsed().as_secs_f64();
    let delta = Delta::between(before, Counters::read());
    let stats_after = server.store.stats();

    let mut expected = Expected::new(&reqs);
    let mut failed = expected.failures(ctx.seed, &seen);
    for warm in &warmups {
        failed += expected.failures(WARMUP_SEED, warm);
    }

    let attempted = seen.len() as u64;
    let mut latencies: Vec<f64> = seen.iter().map(|&(_, ms, _, _)| ms).collect();
    let arrivals: Vec<(f64, f64)> = seen
        .iter()
        .map(|&(_, ms, _, done)| (done.saturating_duration_since(t0).as_secs_f64(), ms))
        .collect();
    let (rate, window_p99) = windowed(&arrivals, wall);
    let mut out = Outcome {
        attempted,
        failed,
        notes: vec![format!(
            "serve: {} pins, {attempted} requests in {wall:.3} s, {} warm-up requests over \
             {} connection(s) to {WORKERS} worker checked",
            pins.len(),
            warmups.iter().map(Vec::len).sum::<usize>(),
            connections()
        )],
        ..Outcome::default()
    };
    out.end_to_end.extend([
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", rate, "1/s"),
    ]);
    for m in latency_metrics(&mut latencies) {
        match (m.name, window_p99) {
            ("op_p99_ms", Some(p99)) => out.end_to_end.push(metric("op_p99_ms", p99, "ms")),
            _ => out.end_to_end.push(m),
        }
    }
    let suites = pins
        .iter()
        .map(|p| {
            server
                .store
                .suite(&p.source, &CostParams::default())
                .map(|(s, _)| s)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    out.end_to_end.extend(crate::simcost::speedups(&suites)?);
    out.end_to_end.extend(peak_rss());

    if ctx.trace {
        let hits = (stats_after.hits_mem + stats_after.hits_disk)
            - (stats_before.hits_mem + stats_before.hits_disk);
        let lookups = stats_after.requests() - stats_before.requests();
        #[allow(clippy::cast_precision_loss)]
        out.per_layer.extend([
            metric("store.lookups", lookups as f64, "count"),
            metric(
                "store.hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            metric("store.misses", fill.misses as f64, "count"),
            metric(
                "store.coalesced",
                (stats_after.coalesced - stats_before.coalesced) as f64,
                "count",
            ),
        ]);
        // The socket path: the same stream through the daemon.
        let socket_deadline = Instant::now() + std::time::Duration::from_secs_f64(SOCKET_SECONDS);
        let wire = drive(server.addr, &reqs, ctx.seed, |_| {
            Instant::now() < socket_deadline
        })?;
        out.failed += expected.failures(ctx.seed, &wire);
        #[allow(clippy::cast_precision_loss)]
        let round_trip =
            wire.iter().map(|&(_, ms, _, _)| ms).sum::<f64>() / wire.len().max(1) as f64;
        out.notes.push(format!(
            "serve socket phase: {} requests in {SOCKET_SECONDS} s, mean round trip {round_trip:.3} ms",
            wire.len()
        ));
        let (t, layers) = replay(ctx.seed, &pins, &reqs, &server.store, &mut out.failed)?;
        out.per_layer.extend(layers);
        let respond_ms = ms_per_op(
            Kind::ALL.iter().map(|k| t.root_ns(respond_span(*k))).sum(),
            REPLAY,
        );
        out.per_layer
            .push(metric("serve.wire_ms", round_trip - respond_ms, "ms"));
        out.per_layer.push(overhead_pct(
            ms_per_op(t.root_ns("replica"), REPLAY),
            respond_ms,
        ));
        out.per_layer.extend(proc_metrics(delta, attempted));
        out.tracer = Some(t);
    }
    server.stop()?;
    Ok(out)
}

fn respond_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Run => "serve.respond.run",
        Kind::Compile => "serve.respond.compile",
        Kind::Lint => "serve.respond.lint",
    }
}

/// The traced replay: the store fill's encodes (op id = pin index), then
/// the first [`REPLAY`] requests of the timed stream (op id = request
/// index), each answered once through `respond` and once decomposed into
/// the store, codec, simulator and linter calls `respond` makes.
/// Divergences count as failed ops.
fn replay(
    seed: u64,
    pins: &[Program],
    reqs: &Requests,
    store: &ArtifactStore,
    failed: &mut u64,
) -> Result<(Tracer, Vec<Metric>), String> {
    let params = CostParams::default();
    let mut t = Tracer::new();
    let mut stored = Vec::with_capacity(pins.len());
    let mut bytes_total = 0u64;
    for (i, p) in pins.iter().enumerate() {
        let (bytes, _) = store
            .raw()
            .get_or_compute(suite_key(&p.source, &params), || {
                Err("pin missing from the store")
            })?;
        let suite = decode_suite(&bytes).map_err(|e| format!("{}: {e}", p.name))?;
        t.set_op(i as u64);
        let encoded = t.span("artifact.encode", |_| encode_suite(&suite));
        // The codec must round-trip the stored bytes exactly.
        *failed += u64::from(encoded != *bytes);
        bytes_total += encoded.len() as u64;
        stored.push(suite);
    }
    let encode_ms = ms_per_op(t.root_ns("artifact.encode"), pins.len() as u64);

    let mut cycles = 0u64;
    let mut per_kind = [0u64; 3];
    let cfg = CellSpec::new(
        CellId::new("request", Scheme::Advanced, WidthPreset::FourWay),
        CellMode::Timing,
        DEFAULT_FUEL,
    )
    .config();
    for k in 0..REPLAY {
        let (kind, pin) = draw(seed, k, pins.len());
        per_kind[kind as usize] += 1;
        let req = with_id(reqs.body(kind, pin), k);
        t.set_op(k);
        let resp = t.span(respond_span(kind), |_| fpa_harness::respond(&req));
        let source = &pins[pin].source;
        let ok = t.span("replica", |t| -> Result<bool, String> {
            let bytes = t.span("store", |_| {
                store
                    .raw()
                    .get_or_compute(suite_key(source, &params), || {
                        Err("store miss in the timed stream")
                    })
                    .map(|(b, _)| b)
            })?;
            let suite = t
                .span("artifact.decode", |_| decode_suite(&bytes))
                .map_err(|e| e.to_string())?;
            let same = suite == stored[pin];
            Ok(same
                && match kind {
                    Kind::Run => {
                        let r = t
                            .span("sim.timing", |_| {
                                fpa_sim::simulate(&suite.advanced, &cfg, DEFAULT_FUEL)
                            })
                            .map_err(|e| e.to_string())?;
                        cycles += r.cycles;
                        resp.get("cycles").and_then(Json::as_u64) == Some(r.cycles)
                    }
                    Kind::Lint => {
                        let c = CompiledWorkload::from_suite("request", suite);
                        let rows = t.span("analysis.lint", |_| fpa_harness::lint_workload(&c));
                        let findings: usize = rows.iter().map(|r| r.findings.len()).sum();
                        resp.get("findings").and_then(Json::as_u64) == Some(findings as u64)
                    }
                    Kind::Compile => {
                        resp.get("golden_exit").and_then(Json::as_f64)
                            == Some(f64::from(suite.golden_exit))
                    }
                })
        })?;
        *failed += u64::from(!ok);
    }
    t.count("sim.timing.cycles", cycles);

    let by_name = t.self_ns_by_name();
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0);
    let mut layers = crate::simcost::layer_metrics(&t, REPLAY, 0);
    #[allow(clippy::cast_precision_loss)]
    layers.extend([
        metric(
            "analysis.lint.self_ms",
            ms_per_op(ns("analysis.lint"), REPLAY),
            "ms",
        ),
        metric("store.self_ms", ms_per_op(ns("store"), REPLAY), "ms"),
        metric(
            "artifact.decode_ms",
            ms_per_op(ns("artifact.decode"), REPLAY),
            "ms",
        ),
        metric("artifact.encode_ms", encode_ms, "ms"),
        metric("artifact.bytes", bytes_total as f64, "B"),
    ]);
    for kind in Kind::ALL {
        let name = match kind {
            Kind::Run => "serve.respond_ms.run",
            Kind::Compile => "serve.respond_ms.compile",
            Kind::Lint => "serve.respond_ms.lint",
        };
        layers.push(metric(
            name,
            ms_per_op(ns(respond_span(kind)), per_kind[kind as usize]),
            "ms",
        ));
    }
    Ok((t, layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spliced_lines_equal_rendered_requests() {
        let pins = [Program {
            name: "p".into(),
            source: "int main() { print(\"a\\n\"); return 0; }".into(),
            is_workload: false,
        }];
        let reqs = Requests::new(&pins);
        for k in [0, 7, 123_456_789] {
            let (kind, pin) = draw(3, k, pins.len());
            let expect = with_id(reqs.body(kind, pin), k).render_compact() + "\n";
            assert_eq!(reqs.line(3, k), expect);
        }
    }

    #[test]
    fn windows_take_the_median_rate_and_tail() {
        // 10 windows over 10 s; window 3 is slow and sparse.
        let mut samples = Vec::new();
        for w in 0..10u32 {
            let n = if w == 3 { 100 } else { 2000 };
            for i in 0..n {
                let ms = if w == 3 {
                    50.0
                } else {
                    f64::from(i % 100) / 10.0
                };
                samples.push((f64::from(w) + f64::from(i) / f64::from(n), ms));
            }
        }
        let (rate, p99) = windowed(&samples, 10.0);
        assert_eq!(rate, 2000.0);
        assert_eq!(p99, Some(9.8));
    }
}
