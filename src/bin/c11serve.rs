//! `c11serve` — the long-lived checking service: `c11check/v1` request
//! JSON lines in on stdin, one report JSON line out per request, plus a
//! final `batch-summary` line. Built on the [`Session`] API: requests
//! are scheduled concurrently over a worker pool and answered from the
//! fingerprint-keyed result cache when possible, while responses stream
//! out in request order.
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
//! Request-line schema (`c11check/v1`; unknown keys are rejected):
//!
//! | key            | value                                              |
//! |----------------|----------------------------------------------------|
//! | `id`           | string echoed into the report line (default: line number) |
//! | `program`      | DSL source text                                    |
//! | `litmus_path`  | path to a `.litmus` file                           |
//! | `litmus_source`| inline `.litmus` file text                         |
//! | `model`        | `"ra"` (default) / `"sc"` / `"pre-execution"`      |
//! | `mode`         | `"outcomes"` (default) / `"count"` / `"litmus"` (litmus inputs' default) |
//! | `engine`       | `"sequential"` (default) / `"parallel"`, or `{"kind":"parallel","workers":N}` |
//! | `reduction`    | `"none"` (default) / `"sleep-set"` / `"source-set"`, or `{"kind":…,"contract":…}` |
//! | `bounds`       | `{"max_events":N,"max_states":N,"max_depth":N}` (each optional) |
//! | `store`        | `"flat"` (default) / `"sym"` / `"shared"` — visited-state store |
//! | `symmetry`     | bool — quotient visited states by thread-permutation symmetry |
//! | `traces`       | bool — witness schedules per outcome               |
//! | `dot`          | integer — render up to N final executions as DOT   |
//! | `timeout_ms`   | integer — per-request deadline, measured from when compute starts |
//!
//! Each response line is the `c11check/v1` report object with `id`
//! prepended after `schema`; its `status` is `"ok"`, `"timed_out"` or
//! `"cancelled"` (a deadline-hit report is still a report — partial
//! stats, not an error). A `{"stats": true}` control line (optionally
//! with an `id`) is answered in stream order with the live
//! `SessionStats` counters as a `"mode":"session-stats"` line instead
//! of a report (including per-reduction exploration counts:
//! `explorations_none` / `explorations_sleep_set` /
//! `explorations_source_set`), and is not counted as a job. Malformed lines produce
//! `{"schema":"c11check/v1","id":…,"status":"error","error":"…"}`;
//! submissions bounced by a full queue (`--max-queue`) produce
//! `"status":"overloaded"` lines. Input lines are capped at 1 MiB:
//! longer lines (and lines that are not valid UTF-8) are answered with
//! a positioned error and the stream continues. On EOF — or SIGTERM /
//! SIGINT on Unix — the service stops reading, drains every in-flight
//! job, flushes the `--cache-path` snapshot (if any), prints the
//! summary and exits. The exit code is 0 iff every line was ok and
//! every litmus verdict passed; overload rejections and deadline hits
//! are service conditions, not genuine errors, and do not fail it.

use c11_operational::api::json::Json;
use c11_operational::api::net::{self, error_line, shutdown, stats_line};
use c11_operational::api::{CheckError, JobId, Session, SessionConfig};
use c11_operational::prelude::*;
use std::io::{BufRead, Write as _};
use std::process::ExitCode;
use std::sync::mpsc;

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

/// Longest accepted request line; longer lines are dropped with a
/// positioned error instead of buffering unboundedly.
const MAX_LINE_BYTES: usize = 1 << 20;

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

/// One unit flowing from the reader to the writer: a submission (or its
/// rejection), a line-level error, or a stats-control answer, with the
/// id to echo. The request parsing, response rendering and tally
/// themselves live in `c11_api`, shared with `c11netd`.
enum Item {
    Job(String, Result<JobId, CheckError>),
    LineError(String, String),
    /// A `{"stats": true}` control line: answered in stream order with
    /// the then-current counters, not counted as a job.
    Stats(String),
}

/// One raw request line, read with a hard byte cap.
enum Line {
    Eof,
    Text(String),
    /// Line exceeded [`MAX_LINE_BYTES`]; payload is the dropped length
    /// seen before giving up (the line was consumed through its newline).
    TooLong(usize),
    /// Line bytes were not valid UTF-8; payload is the offset of the
    /// first bad byte.
    BadUtf8(usize),
    Io(String),
}

/// Reads one newline-terminated line as bytes, enforcing the length cap
/// without buffering the excess. An oversized line is consumed to its
/// newline so the *next* line still parses — one hostile line must not
/// poison the rest of the stream.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> Line {
    let mut buf: Vec<u8> = Vec::new();
    let mut saw_input = false;
    let mut dropped = false;
    let mut dropped_len = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Line::Io(e.to_string()),
        };
        if chunk.is_empty() {
            break; // EOF (a final unterminated line still counts)
        }
        saw_input = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if dropped {
            dropped_len += take;
        } else if buf.len() + take > cap {
            dropped = true;
            dropped_len = buf.len() + take;
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        let consumed = take + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            break;
        }
    }
    if dropped {
        return Line::TooLong(dropped_len);
    }
    if !saw_input {
        return Line::Eof;
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(text) => Line::Text(text),
        Err(e) => Line::BadUtf8(e.utf8_error().valid_up_to()),
    }
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
    let session = std::sync::Arc::new(Session::new(cfg));
    let (tx, rx) = mpsc::channel::<Item>();

    let t0 = std::time::Instant::now();

    // Writer thread: redeems jobs in request order and streams one line
    // per request; accumulates the batch aggregates (the reports
    // themselves are not kept — this is a stream, not a buffer).
    let writer = {
        let session = session.clone();
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            let mut stats = BatchStats::default();
            for item in rx {
                // Stats-control answers ride the same ordered stream but
                // are observations, not jobs — the batch counters skip
                // them entirely.
                if let Item::Stats(id) = &item {
                    let line = stats_line(id, &session.stats());
                    let mut out = stdout.lock();
                    let _ = writeln!(out, "{line}");
                    let _ = out.flush();
                    continue;
                }
                let line = match item {
                    Item::Stats(_) => unreachable!("handled above"),
                    Item::LineError(id, msg) => {
                        stats.record_error();
                        error_line(&id, &msg)
                    }
                    Item::Job(id, submitted) => {
                        let result = submitted.and_then(|job| session.wait(job));
                        stats.record(&result);
                        net::result_line(&id, &result)
                    }
                };
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush(); // stream per request — this is a service
            }
            stats
        })
    };

    // Reader (main thread): parse lines, submit jobs as they arrive.
    // Stops at EOF, on an unrecoverable read error, or when SIGTERM /
    // SIGINT asks for a graceful drain.
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let mut n = 0usize;
    loop {
        if shutdown::requested() {
            break;
        }
        n += 1;
        let item = match read_line_capped(&mut reader, MAX_LINE_BYTES) {
            Line::Eof => break,
            Line::Io(e) => {
                let _ = tx.send(Item::LineError(
                    format!("line-{n}"),
                    format!("stdin read error: {e}"),
                ));
                break;
            }
            Line::TooLong(len) => Item::LineError(
                format!("line-{n}"),
                format!("line {n} exceeds the {MAX_LINE_BYTES}-byte cap ({len} bytes); dropped"),
            ),
            Line::BadUtf8(at) => Item::LineError(
                format!("line-{n}"),
                format!("line {n} is not valid UTF-8 (first invalid byte at offset {at})"),
            ),
            Line::Text(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match Json::parse(&line) {
                    Err(e) => Item::LineError(format!("line-{n}"), e.to_string()),
                    Ok(v) => {
                        let id = v
                            .get("id")
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .unwrap_or_else(|| format!("line-{n}"));
                        match net::stats_request(&v) {
                            Some(Ok(())) => Item::Stats(id),
                            Some(Err(msg)) => Item::LineError(id, msg),
                            None => match net::request_from_json(&v) {
                                Ok(req) => Item::Job(id, session.submit(req)),
                                Err(msg) => Item::LineError(id, msg),
                            },
                        }
                    }
                }
            }
        };
        let _ = tx.send(item);
    }
    drop(tx); // EOF/SIGTERM/SIGINT: let the writer drain in-flight jobs
    let mut stats = writer.join().expect("writer thread");
    stats.wall_micros = t0.elapsed().as_micros();
    // Snapshot the warm cache now that the pool is quiet (the session's
    // drop would too, but failing loudly beats failing silently).
    if let Err(e) = session.flush_cache() {
        eprintln!("cache snapshot failed: {e}");
    }

    println!("{}", stats.summary_line(session.stats().explorations));
    if stats.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
