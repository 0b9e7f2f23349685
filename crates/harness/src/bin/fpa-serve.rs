//! `fpa-serve` — the compile-and-simulate daemon.
//!
//! Speaks the line-delimited JSON protocol of
//! [`fpa_harness::serve`](mod@fpa_harness::serve)
//! over TCP. Each worker thread answers one request at a time. With
//! `--store`, compiles go through the persistent content-addressed
//! artifact store, so repeat sources across requests and connections are
//! answered from cache and concurrent duplicates coalesce into a single
//! compile.
//!
//! ```text
//! fpa-serve [--addr HOST:PORT] [--workers N] [--store DIR]
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: fpa-serve [--addr HOST:PORT] [--workers N] [--store DIR]\n\
         \n\
         \x20 --addr HOST:PORT  listen address (default 127.0.0.1:7421)\n\
         \x20 --workers N       worker threads, each answering one request at a time\n\
         \x20                   (default: available parallelism)\n\
         \x20 --store DIR       persistent artifact store for compile caching"
    );
    std::process::exit(2);
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7421".to_string();
    let mut workers = default_workers();
    let mut store_dir: Option<String> = None;
    fn value(args: &[String], i: &mut usize) -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = value(&args, &mut i),
            "--workers" => workers = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--store" => store_dir = Some(value(&args, &mut i)),
            _ => usage(),
        }
        i += 1;
    }

    if let Some(dir) = &store_dir {
        match fpa_harness::ArtifactStore::open(dir) {
            Ok(store) => fpa_harness::set_ambient(Some(Arc::new(store))),
            Err(e) => {
                eprintln!("fpa-serve: cannot open artifact store {dir}: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fpa-serve: cannot bind {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    // The bound address, not the requested one: `--addr 127.0.0.1:0`
    // lets the OS pick a free port, and scripts read it from this line.
    match listener.local_addr() {
        Ok(bound) => eprintln!("fpa-serve: listening on {bound}"),
        Err(_) => eprintln!("fpa-serve: listening on {addr}"),
    }

    if let Err(e) = fpa_harness::serve::serve(&listener, workers, fpa_harness::serve::MAX_BATCH) {
        eprintln!("fpa-serve: accept failed: {e}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
