//! `c11serve` — the checking service over stdio: one `c11check/v1`
//! request object per stdin line, one response line per request on
//! stdout in request order, then a final `batch-summary` line.
//!
//! ```sh
//! c11serve [--workers N] [--no-cache] [--auto-parallel T]
//!          [--job-timeout-ms MS] [--cache-capacity N] [--max-queue N]
//!          [--cache-path FILE]
//!
//! # One request per line. Exactly one of program / litmus_path /
//! # litmus_source selects the input; everything else is optional:
//! echo '{"id":"sb","program":"vars x y; thread t1 { x := 1; r0 <- y; } \
//!        thread t2 { y := 1; r0 <- x; }","mode":"outcomes"}' | c11serve
//!
//! # Pipe a litmus corpus through the service:
//! for f in litmus/*.litmus; do
//!   printf '{"id":"%s","litmus_path":"%s"}\n' "$(basename "$f")" "$f"
//! done | c11serve --workers 4
//! ```
//!
//! This binary is an I/O loop around `c11_api::net::Handler`, the
//! request handler `c11netd` drives over TCP: the request schema table
//! is in the `c11_api::net` docs, on its request parser, and every
//! response line is the handler's. The reader thread accepts each line as it arrives,
//! so requests run concurrently on the session's worker pool, and the
//! writer thread answers them in order. A line without an `id` is
//! answered as `line-N`. Blank lines are skipped; a line over 1 MiB is
//! answered with a positioned error and the stream continues.
//!
//! On EOF — or SIGTERM / SIGINT on Unix — the service stops reading,
//! answers every line already read, flushes the `--cache-path` snapshot
//! (if any), prints the summary and exits. The exit code is 0 iff every
//! line was ok and every litmus verdict passed; overload rejections and
//! deadline hits are service conditions, not errors, and do not fail it.

use c11_operational::api::net::{shutdown, Handler, MAX_FRAME_BYTES};
use c11_operational::api::SessionConfig;
use std::io::{BufRead, Read as _, Write as _};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};

const USAGE: &str = "usage: c11serve [--workers N] [--no-cache] [--auto-parallel T] \
     [--job-timeout-ms MS] [--cache-capacity N] [--max-queue N] [--cache-path FILE]\n\
     reads c11check/v1 request JSON lines on stdin, writes one report \
     JSON line per request and a final batch-summary line on stdout\n\
     --workers N: session pool size (default 2)\n\
     --no-cache: disable the fingerprint-keyed result cache\n\
     --auto-parallel T: run reduction-free sequential requests whose \
     program has ≥ T threads on the parallel engine (default 4; 0 \
     disables; reduced requests are never upgraded)\n\
     --job-timeout-ms MS: default per-job deadline (a request's own \
     timeout_ms wins when tighter)\n\
     --cache-capacity N: bound the result cache to N reports (LRU)\n\
     --max-queue N: reject submissions beyond N queued jobs with \
     status \"overloaded\"\n\
     --cache-path FILE: load the result cache from FILE on start and \
     snapshot it back on drain";

/// Every flag is a session flag; the defaults are two workers, the
/// cache on, and the parallel upgrade at 4 threads.
fn parse_args() -> Result<SessionConfig, String> {
    let mut cfg = SessionConfig::default().parallel_threshold(4);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if cfg.apply_flag(&a, &mut args)? {
            continue;
        }
        return Err(match a.as_str() {
            "-h" | "--help" => USAGE.to_string(),
            other => format!("unknown argument {other:?}"),
        });
    }
    Ok(cfg)
}

/// One raw request line, read with a hard byte cap.
enum Line {
    Eof,
    Bytes(Vec<u8>),
    /// Line exceeded [`MAX_FRAME_BYTES`]; payload is the dropped length
    /// seen before giving up (the line was consumed through its newline).
    TooLong(usize),
    Io(String),
}

/// Reads one newline-terminated line as bytes, enforcing the length cap
/// without buffering the excess. An oversized line is consumed to its
/// newline so the *next* line still parses — one hostile line must not
/// poison the rest of the stream.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> Line {
    // At most cap + 1 bytes per read: a read that fills them without
    // reaching a newline has found a line over the cap.
    let mut read = |buf: &mut Vec<u8>| reader.take(cap as u64 + 1).read_until(b'\n', buf);
    let mut buf = Vec::new();
    match read(&mut buf) {
        Ok(0) => return Line::Eof,
        Ok(_) => {}
        Err(e) => return Line::Io(e.to_string()),
    }
    let mut newline = buf.last() == Some(&b'\n');
    if !newline && buf.len() > cap {
        let mut len = buf.len();
        while !newline {
            buf.clear();
            match read(&mut buf) {
                Ok(0) => break, // EOF ends the line too
                Ok(n) => len += n,
                Err(e) => return Line::Io(e.to_string()),
            }
            newline = buf.last() == Some(&b'\n');
        }
        return Line::TooLong(len - usize::from(newline));
    }
    if newline {
        buf.pop();
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Line::Bytes(buf)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // SIGTERM and SIGINT both request the same graceful drain: stop
    // reading, finish in-flight jobs, snapshot the cache, summarise.
    shutdown::install();
    let handler = Arc::new(Handler::new(cfg));
    let (tx, rx) = mpsc::channel();
    let t0 = std::time::Instant::now();

    // Writer thread: answers requests in the order they were read and
    // streams one line each, so submission stays pipelined ahead of it.
    let writer = {
        let handler = handler.clone();
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            for pending in rx {
                let line = handler.answer(pending);
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush(); // stream per request — this is a service
            }
        })
    };

    // Reader (main thread): accept lines as they arrive. Stops at EOF,
    // on an unrecoverable read error, or when SIGTERM / SIGINT asks for
    // a graceful drain.
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let mut n = 0usize;
    while !shutdown::requested() {
        n += 1;
        let pending = match read_line_capped(&mut reader, MAX_FRAME_BYTES) {
            Line::Eof => break,
            Line::Io(e) => {
                let _ =
                    tx.send(handler.reject(format!("line-{n}"), format!("stdin read error: {e}")));
                break;
            }
            Line::TooLong(len) => handler.reject(
                format!("line-{n}"),
                format!("line {n} exceeds the {MAX_FRAME_BYTES}-byte cap ({len} bytes); dropped"),
            ),
            // A line holding nothing but whitespace is not a request.
            Line::Bytes(b) if std::str::from_utf8(&b).is_ok_and(|t| t.trim().is_empty()) => {
                continue
            }
            Line::Bytes(bytes) => handler.accept(&bytes, || format!("line-{n}")),
        };
        let _ = tx.send(pending);
    }
    drop(tx); // EOF/SIGTERM/SIGINT: let the writer drain in-flight jobs
    writer.join().expect("writer thread");
    let (summary, all_ok) = handler.finish(t0.elapsed());
    println!("{summary}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
