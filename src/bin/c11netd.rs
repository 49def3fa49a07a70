//! `c11netd` — the checking service over TCP: the same `c11check/v1`
//! request/response documents `c11serve` speaks over stdio, carried in
//! length-prefixed frames (4-byte big-endian payload length + one JSON
//! document; see `c11_api::net`). One long-lived [`Session`] backs every
//! connection, so the fingerprint-keyed result cache, LRU bounds,
//! per-job deadlines and `Overloaded` backpressure all apply per frame
//! — and with `--cache-path`, warm results survive restarts.
//!
//! ```sh
//! c11netd [--listen ADDR] [--port-file FILE] [--max-conns N]
//!         [--read-timeout-ms MS] [--write-timeout-ms MS]
//!         [--cache-path FILE] [--workers N] [--no-cache]
//!         [--auto-parallel T] [--job-timeout-ms MS]
//!         [--cache-capacity N] [--max-queue N]
//! ```
//!
//! Connections are served thread-per-connection up to `--max-conns`;
//! a connection past the cap is answered with one `"overloaded"` frame
//! and closed. Within a connection, frames are answered in order: a
//! request frame gets a report / `"error"` / `"overloaded"` frame, and
//! a `{"stats": true}` frame gets the live session counters (with
//! per-reduction exploration counts). Request documents carry the full
//! `c11serve` schema, including the `engine` × `reduction` pair (plus
//! the deprecated `backend` spelling) and the `store`
//! (`"flat"`/`"sym"`/`"shared"`) and `symmetry` storage knobs. A frame
//! that violates the protocol (oversized length, mid-frame truncation
//! or stall) is answered once (best effort) and the connection closed —
//! the stream cannot be resynchronised. Every accepted socket gets
//! `TCP_NODELAY` before its first write, and every frame leaves as one
//! write, so no response waits on the client's delayed ACK.
//!
//! On SIGTERM or SIGINT the server stops accepting, finishes every
//! frame already in flight, snapshots the cache to `--cache-path` (if
//! set), prints a final `batch-summary` line on stdout and exits 0.
//! Per-frame client errors do not fail the exit code — a network
//! service outlives its worst client; startup failures exit 2.

use c11_operational::api::json::Json;
use c11_operational::api::net::{
    self, error_line, overloaded_line, report_line, shutdown, stats_line, FrameIn,
};
use c11_operational::api::{CheckError, Session, SessionConfig};
use c11_operational::prelude::*;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const USAGE: &str = "usage: c11netd [--listen ADDR] [--port-file FILE] [--max-conns N] \
     [--read-timeout-ms MS] [--write-timeout-ms MS] [--cache-path FILE] \
     [--workers N] [--no-cache] [--auto-parallel T] [--job-timeout-ms MS] \
     [--cache-capacity N] [--max-queue N]\n\
     serves c11check/v1 requests over length-prefixed TCP frames\n\
     --listen ADDR: bind address (default 127.0.0.1:7411; port 0 picks one)\n\
     --port-file FILE: write the bound port to FILE once listening\n\
     --max-conns N: concurrent connection cap (default 64)\n\
     --read-timeout-ms MS: per-connection socket read timeout (default 1000)\n\
     --write-timeout-ms MS: per-connection socket write timeout (default 5000)\n\
     --cache-path FILE: load the result cache from FILE on start and \
     snapshot it back on drain\n\
     --workers / --no-cache / --auto-parallel / --job-timeout-ms / \
     --cache-capacity / --max-queue: as for c11serve";

struct Opts {
    listen: String,
    port_file: Option<String>,
    max_conns: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    cache_path: Option<String>,
    workers: usize,
    cache: bool,
    auto_parallel: usize,
    job_timeout_ms: Option<usize>,
    cache_capacity: Option<usize>,
    max_queue: Option<usize>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        listen: "127.0.0.1:7411".to_string(),
        port_file: None,
        max_conns: 64,
        read_timeout: Duration::from_millis(1000),
        write_timeout: Duration::from_millis(5000),
        cache_path: None,
        workers: 2,
        cache: true,
        auto_parallel: 4,
        job_timeout_ms: None,
        cache_capacity: None,
        max_queue: None,
    };
    let mut args = std::env::args().skip(1);
    let text = |args: &mut std::iter::Skip<std::env::Args>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    let num = |args: &mut std::iter::Skip<std::env::Args>, flag: &str| {
        text(args, flag)?
            .parse::<usize>()
            .map_err(|e| format!("bad {flag}: {e}"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => opts.listen = text(&mut args, "--listen")?,
            "--port-file" => opts.port_file = Some(text(&mut args, "--port-file")?),
            "--max-conns" => opts.max_conns = num(&mut args, "--max-conns")?.max(1),
            "--read-timeout-ms" => {
                opts.read_timeout =
                    Duration::from_millis(num(&mut args, "--read-timeout-ms")?.max(1) as u64);
            }
            "--write-timeout-ms" => {
                opts.write_timeout =
                    Duration::from_millis(num(&mut args, "--write-timeout-ms")?.max(1) as u64);
            }
            "--cache-path" => opts.cache_path = Some(text(&mut args, "--cache-path")?),
            "--workers" => opts.workers = num(&mut args, "--workers")?,
            "--no-cache" => opts.cache = false,
            "--auto-parallel" => opts.auto_parallel = num(&mut args, "--auto-parallel")?,
            "--job-timeout-ms" => opts.job_timeout_ms = Some(num(&mut args, "--job-timeout-ms")?),
            "--cache-capacity" => opts.cache_capacity = Some(num(&mut args, "--cache-capacity")?),
            "--max-queue" => opts.max_queue = Some(num(&mut args, "--max-queue")?),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The per-frame aggregates every connection folds into, summarised on
/// drain exactly like `c11serve`'s batch line.
#[derive(Default)]
struct Tally {
    stats: BatchStats,
}

/// Serves one connection: frames in, responses out, until EOF, a
/// protocol error, or drain. Returns when the connection is done.
fn serve_conn(
    mut conn: TcpStream,
    conn_no: usize,
    session: &Session,
    tally: &Mutex<Tally>,
    opts: &Opts,
) {
    let _ = conn.set_read_timeout(Some(opts.read_timeout));
    let _ = conn.set_write_timeout(Some(opts.write_timeout));
    let mut frame_no = 0usize;
    loop {
        if shutdown::requested() {
            return;
        }
        match net::read_frame(&mut conn) {
            Ok(FrameIn::Eof) => return,
            // Idle at a frame boundary: poll the drain flag, keep going.
            Ok(FrameIn::Idle) => continue,
            Err(e) => {
                // Protocol violation or I/O failure: one best-effort
                // error frame, then close (the stream can't resync).
                {
                    let mut t = tally.lock().unwrap();
                    t.stats.jobs += 1;
                    t.stats.errors += 1;
                }
                let line = error_line(&format!("conn-{conn_no}-{}", frame_no + 1), &e);
                let _ = net::write_frame(&mut conn, line.as_bytes());
                return;
            }
            Ok(FrameIn::Frame(payload)) => {
                frame_no += 1;
                let response = respond(&payload, conn_no, frame_no, session, tally);
                if net::write_frame(&mut conn, response.as_bytes()).is_err() {
                    return; // peer gone or stalled past the write timeout
                }
            }
        }
    }
}

/// Answers one frame payload with one response document.
fn respond(
    payload: &[u8],
    conn_no: usize,
    frame_no: usize,
    session: &Session,
    tally: &Mutex<Tally>,
) -> String {
    let fallback_id = || format!("conn-{conn_no}-{frame_no}");
    let parsed = std::str::from_utf8(payload)
        .map_err(|e| format!("frame is not valid UTF-8: {e}"))
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()));
    let v = match parsed {
        Ok(v) => v,
        Err(msg) => {
            let mut t = tally.lock().unwrap();
            t.stats.jobs += 1;
            t.stats.errors += 1;
            return error_line(&fallback_id(), &msg);
        }
    };
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(fallback_id);
    // Stats frames are observations, not jobs: no tally.
    match net::stats_request(&v) {
        Some(Ok(())) => return stats_line(&id, &session.stats()),
        Some(Err(msg)) => {
            let mut t = tally.lock().unwrap();
            t.stats.jobs += 1;
            t.stats.errors += 1;
            return error_line(&id, &msg);
        }
        None => {}
    }
    let submitted = net::request_from_json(&v).and_then(|req| {
        session.submit(req).map_err(|e| match e {
            CheckError::Overloaded => String::new(), // sentinel, handled below
            other => other.to_string(),
        })
    });
    let mut t = tally.lock().unwrap();
    t.stats.jobs += 1;
    match submitted {
        Err(msg) if msg.is_empty() => {
            t.stats.overloaded += 1;
            overloaded_line(&id)
        }
        Err(msg) => {
            t.stats.errors += 1;
            error_line(&id, &msg)
        }
        Ok(job) => {
            // Block this connection's thread on the result while other
            // connections keep submitting — the pool under the session
            // is the concurrency limit, not this wait.
            drop(t);
            let waited = session.wait(job);
            let mut t = tally.lock().unwrap();
            match waited {
                Ok(report) => {
                    t.stats.ok += 1;
                    t.stats.cache_hits += usize::from(report.cache_hit());
                    t.stats.interrupted += usize::from(report.interrupt().is_some());
                    t.stats.explore = t.stats.explore.merged(&report.stats());
                    if let CheckReport::Litmus(l) = &report {
                        if !l.pass && report.interrupt().is_none() {
                            t.stats.litmus_failed += 1;
                        }
                    }
                    report_line(&id, &report)
                }
                Err(CheckError::Cancelled) => {
                    t.stats.interrupted += 1;
                    error_line(&id, "cancelled")
                }
                Err(e) => {
                    t.stats.errors += 1;
                    error_line(&id, &e.to_string())
                }
            }
        }
    }
}

/// Blocks until a connection is pending on `listener` or `timeout`
/// passes, whichever is first, so the accept loop can poll the drain
/// flag without adding the poll interval to every new connection's
/// first frame. Linux waits in `poll(2)` (which a drain signal also
/// interrupts); elsewhere it sleeps the interval out.
#[cfg(target_os = "linux")]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // The result does not matter: the caller retries accept either way.
    unsafe { poll(&mut fd, 1, timeout.as_millis() as i32) };
}

#[cfg(not(target_os = "linux"))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    shutdown::install();
    let mut cfg = SessionConfig::default()
        .workers(opts.workers)
        .cache(opts.cache)
        .parallel_threshold(opts.auto_parallel);
    if let Some(ms) = opts.job_timeout_ms {
        cfg = cfg.job_timeout(Duration::from_millis(ms as u64));
    }
    if let Some(n) = opts.cache_capacity {
        cfg = cfg.cache_capacity(n);
    }
    if let Some(n) = opts.max_queue {
        cfg = cfg.max_queue_depth(n);
    }
    if let Some(path) = &opts.cache_path {
        cfg = cfg.cache_path(path);
    }
    let session = Arc::new(Session::new(cfg));
    {
        let s = session.stats();
        if s.persist_loaded > 0 || s.persist_skipped > 0 {
            eprintln!(
                "cache snapshot: {} entries loaded, {} lines skipped",
                s.persist_loaded, s.persist_skipped
            );
        }
    }

    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot listen on {}: {e}", opts.listen);
            return ExitCode::from(2);
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    // Non-blocking accept so the loop can poll the drain flag.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("cannot make the listener non-blocking: {e}");
        return ExitCode::from(2);
    }
    if let Some(port_file) = &opts.port_file {
        // Temp-file + rename so a poller never reads a half-written port.
        let tmp = format!("{port_file}.tmp");
        let write = std::fs::write(&tmp, format!("{}\n", local.port()))
            .and_then(|()| std::fs::rename(&tmp, port_file));
        if let Err(e) = write {
            eprintln!("cannot write {port_file}: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!("c11netd listening on {local}");

    let opts = Arc::new(opts);
    let tally = Arc::new(Mutex::new(Tally::default()));
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn_no = 0usize;
    let t0 = std::time::Instant::now();

    while !shutdown::requested() {
        // Reap finished connection threads so `handles` stays bounded by
        // the connection cap, not the connection count.
        handles.retain(|h| !h.is_finished());
        match listener.accept() {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_for_connection(&listener, Duration::from_millis(25));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("accept failed: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
            Ok((mut conn, _peer)) => {
                conn_no += 1;
                // Every response leaves as soon as it is written, never
                // held back waiting on the client's delayed ACK.
                let _ = conn.set_nodelay(true);
                if active.load(Ordering::Acquire) >= opts.max_conns {
                    // Answer with backpressure instead of silently
                    // dropping: the client learns to retry later.
                    let _ = conn.set_write_timeout(Some(opts.write_timeout));
                    let line = overloaded_line(&format!("conn-{conn_no}"));
                    let _ = net::write_frame(&mut conn, line.as_bytes());
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                let session = session.clone();
                let tally = tally.clone();
                let opts = opts.clone();
                let active = active.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("c11netd-conn-{conn_no}"))
                    .spawn(move || {
                        serve_conn(conn, conn_no, &session, &tally, &opts);
                        active.fetch_sub(1, Ordering::AcqRel);
                    })
                    .expect("spawn connection thread");
                handles.push(handle);
            }
        }
    }

    // Drain: stop accepting, let every connection finish its in-flight
    // frame (their loops observe the flag at the next frame boundary).
    drop(listener);
    for handle in handles {
        let _ = handle.join();
    }
    match session.flush_cache() {
        Ok(n) if n > 0 => eprintln!("cache snapshot: {n} entries written"),
        Ok(_) => {}
        Err(e) => eprintln!("cache snapshot failed: {e}"),
    }

    let mut stats = std::mem::take(&mut tally.lock().unwrap().stats);
    stats.wall_micros = t0.elapsed().as_micros();
    let batch = BatchReport {
        reports: Vec::new(),
        stats,
    };
    let Json::Obj(mut pairs) = batch.summary_json() else {
        unreachable!("summaries are objects");
    };
    pairs.push((
        "explorations".to_string(),
        Json::from(session.stats().explorations),
    ));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "{}", Json::Obj(pairs).render());
    let _ = out.flush();
    // A clean drain is success: per-frame client errors were already
    // answered to the clients that caused them.
    ExitCode::SUCCESS
}
