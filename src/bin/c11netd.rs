//! `c11netd` — the checking service over TCP: `c11check/v1` requests
//! and responses carried in length-prefixed frames (4-byte big-endian
//! payload length + one JSON document; see `c11_api::net`).
//!
//! ```sh
//! c11netd [--listen ADDR] [--port-file FILE] [--max-conns N]
//!         [--read-timeout-ms MS] [--write-timeout-ms MS]
//!         [--cache-path FILE] [--workers N] [--no-cache]
//!         [--auto-parallel T] [--job-timeout-ms MS]
//!         [--cache-capacity N] [--max-queue N]
//! ```
//!
//! This binary is an I/O loop around `c11_api::net::Handler`, the
//! request handler `c11serve` drives over stdio, so a frame gets exactly
//! the answer the same `c11serve` line would (the schema table is in
//! the `c11_api::net` docs, on its request parser); a frame without an
//! `id` is answered as `conn-C-F`. One handler, and so one long-lived
//! session, backs every connection: the result cache, LRU bounds,
//! per-job deadlines and `"overloaded"` backpressure apply across
//! connections, and with `--cache-path` warm results survive restarts.
//!
//! Connections are served thread-per-connection up to `--max-conns`;
//! a connection past the cap is answered with one `"overloaded"` frame
//! and closed. Within a connection, frames are answered in order. A
//! frame that violates the protocol (oversized length, mid-frame
//! truncation or stall) is answered once (best effort) and the
//! connection closed — the stream cannot be resynchronised. Every
//! accepted socket gets `TCP_NODELAY` before its first write, and every
//! frame leaves as one write, so no response waits on the client's
//! delayed ACK.
//!
//! On SIGTERM or SIGINT the server stops accepting, finishes every
//! frame already in flight, snapshots the cache to `--cache-path` (if
//! set), prints a final `batch-summary` line on stdout and exits 0.
//! Per-frame client errors do not fail the exit code — a network
//! service outlives its worst client; startup failures exit 2.

use c11_operational::api::net::{self, overloaded_line, shutdown, FrameIn, Handler};
use c11_operational::api::SessionConfig;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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
    session: SessionConfig,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        listen: "127.0.0.1:7411".to_string(),
        port_file: None,
        max_conns: 64,
        read_timeout: Duration::from_millis(1000),
        write_timeout: Duration::from_millis(5000),
        session: SessionConfig::default().parallel_threshold(4),
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
        if opts.session.apply_flag(&a, &mut args)? {
            continue;
        }
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
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Serves one connection: frames in, responses out, until EOF, a
/// protocol error, or drain. Returns when the connection is done.
fn serve_conn(mut conn: TcpStream, conn_no: usize, handler: &Handler, opts: &Opts) {
    let _ = conn.set_read_timeout(Some(opts.read_timeout));
    let _ = conn.set_write_timeout(Some(opts.write_timeout));
    let mut frame_no = 0usize;
    while !shutdown::requested() {
        let pending = match net::read_frame(&mut conn) {
            Ok(FrameIn::Eof) => return,
            // Idle at a frame boundary: poll the drain flag, keep going.
            Ok(FrameIn::Idle) => continue,
            Ok(FrameIn::Frame(payload)) => {
                frame_no += 1;
                handler.accept(&payload, || format!("conn-{conn_no}-{frame_no}"))
            }
            Err(e) => {
                // Protocol violation or I/O failure: one best-effort
                // error frame, then close (the stream can't resync).
                let pending = handler.reject(format!("conn-{conn_no}-{}", frame_no + 1), e);
                let _ = net::write_frame(&mut conn, handler.answer(pending).as_bytes());
                return;
            }
        };
        // Block this connection's thread on the result while other
        // connections keep submitting — the pool under the session is
        // the concurrency limit, not this wait.
        if net::write_frame(&mut conn, handler.answer(pending).as_bytes()).is_err() {
            return; // peer gone or stalled past the write timeout
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
    let handler = Arc::new(Handler::new(opts.session.clone()));

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
                let handler = handler.clone();
                let opts = opts.clone();
                let active = active.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("c11netd-conn-{conn_no}"))
                    .spawn(move || {
                        serve_conn(conn, conn_no, &handler, &opts);
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
    let (summary, _) = handler.finish(t0.elapsed());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "{summary}");
    let _ = out.flush();
    // A clean drain is success: per-frame client errors were already
    // answered to the clients that caused them.
    ExitCode::SUCCESS
}
