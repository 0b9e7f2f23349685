//! The `fpa-serve` identity property: a response read off the wire is
//! byte-for-byte what a direct in-process [`respond`] call produces,
//! for every corpus request, at any concurrency, duplicates included.
//!
//! The server runs in-process on an OS-assigned port; client threads
//! pipeline requests (several in flight per connection) and match
//! responses back by id, so the comparison survives out-of-order
//! completion across the worker pool.

use fpa_harness::json::Json;
use fpa_harness::serve::MAX_BATCH;
use fpa_harness::{respond, serve, set_ambient, ArtifactStore};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// A program whose globals do not fit in the machine's 8 MiB memory:
/// every request for it must get an `"ok": false` answer.
const OVERSIZED: &str = "int a[4000000]; int main() { a[3999999] = 1; return a[3999999]; }";

/// The corpus programs, plus [`OVERSIZED`].
fn corpus_sources() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "zc"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("corpus file"))
        .chain([OVERSIZED.to_string()])
        .collect()
}

/// Every request the test sends: per program, a compile, a timing run,
/// a functional run, a timing run that runs out of fuel, and a lint —
/// then the whole stream again (duplicate sources must coalesce, not
/// drift).
fn requests(sources: &[String]) -> Vec<Json> {
    fn mk(id: usize, op: &str, src: &str) -> Json {
        let mut r = Json::obj();
        r.set("id", id).set("op", op).set("source", src);
        r
    }
    let mut reqs: Vec<Json> = Vec::new();
    for _round in 0..2 {
        for src in sources {
            reqs.push(mk(reqs.len(), "compile", src));
            let mut run = mk(reqs.len(), "run", src);
            run.set("scheme", "advanced").set("width", "8-way");
            reqs.push(run);
            let mut func = mk(reqs.len(), "run", src);
            func.set("mode", "functional");
            reqs.push(func);
            let mut starved = mk(reqs.len(), "run", src);
            starved.set("scheme", "advanced").set("fuel", 10u64);
            reqs.push(starved);
            reqs.push(mk(reqs.len(), "lint", src));
        }
    }
    reqs
}

/// Sends every request whose index it claims, pipelining up to
/// `window` before reading responses; returns (id, response line).
fn client(
    addr: std::net::SocketAddr,
    reqs: Arc<Vec<Json>>,
    next: Arc<AtomicUsize>,
) -> Vec<(u64, String)> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut got = Vec::new();
    let window = 4;
    let mut in_flight = 0usize;
    let read_one = |reader: &mut BufReader<TcpStream>, got: &mut Vec<(u64, String)>| {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "server hung up"
        );
        let resp = Json::parse(line.trim_end()).expect("response json");
        let id = resp.get("id").and_then(Json::as_u64).expect("echoed id");
        got.push((id, line.trim_end().to_string()));
    };
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= reqs.len() {
            break;
        }
        let mut line = reqs[i].render_compact();
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("write");
        in_flight += 1;
        if in_flight == window {
            read_one(&mut reader, &mut got);
            in_flight -= 1;
        }
    }
    for _ in 0..in_flight {
        read_one(&mut reader, &mut got);
    }
    got
}

#[test]
fn served_responses_are_byte_identical_to_direct_calls() {
    let store = Arc::new(ArtifactStore::in_memory());
    set_ambient(Some(store));

    let sources = corpus_sources();
    assert!(sources.len() >= 10, "corpus unexpectedly small");
    let reqs = Arc::new(requests(&sources));

    // Unique ids (requests() numbers them by position) → expected bytes.
    let expected: HashMap<u64, String> = reqs
        .iter()
        .map(|r| {
            (
                r.get("id").and_then(Json::as_u64).expect("id"),
                respond(r).render_compact(),
            )
        })
        .collect();
    assert_eq!(expected.len(), reqs.len(), "request ids must be unique");
    for r in reqs.iter() {
        if r.get("source").and_then(Json::as_str) == Some(OVERSIZED) {
            let id = r.get("id").and_then(Json::as_u64).expect("id");
            assert!(expected[&id].contains(r#""ok":false"#), "{}", expected[&id]);
        }
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || serve(&listener, 4, MAX_BATCH));

    for clients in [1usize, 6] {
        let next = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let reqs = reqs.clone();
                let next = next.clone();
                thread::spawn(move || client(addr, reqs, next))
            })
            .collect();
        let mut seen = 0usize;
        for h in handles {
            for (id, line) in h.join().expect("client thread") {
                assert_eq!(
                    expected.get(&id),
                    Some(&line),
                    "response for id {id} drifted at {clients} client(s)"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, reqs.len(), "every request must be answered");
    }

    set_ambient(None);
}
