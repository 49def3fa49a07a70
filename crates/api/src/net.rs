//! The `c11check/v1` protocol: everything the two service front-ends
//! (`c11serve` over stdio lines, `c11netd` over TCP frames) share, so
//! that they are I/O loops around one [`Handler`].
//!
//! ## Frame layout
//!
//! One frame = a 4-byte big-endian payload length followed by exactly
//! that many payload bytes. The payload is one `c11check/v1` JSON
//! document — a request line going in, a report line coming out — with
//! no trailing newline. Frames are capped at [`MAX_FRAME_BYTES`]
//! (the cap `c11serve` applies to lines): a longer length prefix is a
//! protocol error, and since the stream cannot be resynchronised after
//! one, the connection must be closed after answering.
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 (BE)  | payload: len bytes (JSON) |
//! +----------------+---------------------------+
//! ```
//!
//! [`write_frame`] hands the header and the payload to the socket as
//! one buffer, and `c11netd` sets `TCP_NODELAY` on every accepted
//! socket, so a response never waits on the peer's delayed ACK. Clients
//! should do the same — send each frame as one buffer, or set
//! `TCP_NODELAY` — or their requests stall the same way on their side.
//!
//! [`read_frame`] distinguishes an *idle* timeout (no bytes of the next
//! frame arrived before the socket's read timeout — the server polls its
//! shutdown flag and keeps waiting) from a *mid-frame* timeout (the peer
//! stalled halfway through a frame it started — a slow-client error that
//! closes the connection).
//!
//! ## Requests
//!
//! [`Handler`] is the request handler both transports drive: raw bytes
//! in, one response line out. Under it, [`request_from_json`] is the
//! one parser (and the one schema table) for request objects,
//! [`stats_request`] recognises the `{"stats": true}` control object
//! answered with [`stats_line`], and the response builders
//! ([`report_line`], [`error_line`], [`overloaded_line`]) render every
//! line either transport emits, so the two answer byte-identically
//! (apart from the positional fallback id).

use crate::json::Json;
use crate::persist::SCHEMA_VERSION;
use crate::session::{JobId, Session, SessionConfig, SessionStats};
use crate::{
    BatchStats, Bounds, CheckError, CheckReport, CheckRequest, Engine, Mode, ModelChoice,
    Reduction, StoreKind,
};
use c11_litmus::{load_litmus_file, parse_litmus};
use std::io::{ErrorKind, Read, Write};
use std::sync::Mutex;
use std::time::Duration;

/// Longest accepted request (1 MiB): a `c11netd` frame payload or a
/// `c11serve` line. A longer length prefix is a protocol error; a
/// longer line is dropped with an error answer.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The outcome of one [`read_frame`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameIn {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The socket's read timeout expired with no bytes of the next frame
    /// read — the connection is merely idle. Callers poll their shutdown
    /// flag and call again.
    Idle,
}

fn is_timeout(e: &std::io::Error) -> bool {
    // Unix reports an expired SO_RCVTIMEO as WouldBlock, Windows as
    // TimedOut; treat both as the timeout they are.
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one length-prefixed frame. Errors are protocol violations
/// (oversized length, mid-frame EOF/timeout) or genuine I/O failures;
/// after any of them the stream cannot be resynchronised, so the caller
/// should answer once (best effort) and close.
pub fn read_frame(r: &mut impl Read) -> Result<FrameIn, String> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(FrameIn::Eof)
                } else {
                    Err(format!(
                        "connection closed mid-header ({got} of 4 length bytes)"
                    ))
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return if got == 0 {
                    Ok(FrameIn::Idle)
                } else {
                    Err(format!(
                        "read timed out mid-header ({got} of 4 length bytes)"
                    ))
                };
            }
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(format!(
                    "connection closed mid-frame ({got} of {len} payload bytes)"
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(format!(
                    "read timed out mid-frame ({got} of {len} payload bytes)"
                ));
            }
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    Ok(FrameIn::Frame(payload))
}

/// Writes one length-prefixed frame as a single `write_all` and
/// flushes. Payloads past [`MAX_FRAME_BYTES`] are refused before
/// anything is written — the peer would reject them anyway.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    // Header and payload leave in one write: written separately, Nagle
    // holds the payload back until the peer ACKs the header, and the
    // peer's delayed ACK stalls every response by tens of milliseconds.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Builds a [`CheckRequest`] from a parsed request object — the one
/// definition of the `c11check/v1` request schema that `c11serve` lines
/// and `c11netd` frames both carry. Unknown keys are rejected, and an
/// unknown value names the valid set. Errors are strings destined for
/// the error response.
///
/// | key            | value                                              |
/// |----------------|----------------------------------------------------|
/// | `id`           | string echoed into the response (default: the transport's position, `line-N` or `conn-C-F`) |
/// | `program`      | DSL source text                                    |
/// | `litmus_path`  | path to a regular `.litmus` file of at most 1 MiB  |
/// | `litmus_source`| inline `.litmus` file text                         |
/// | `model`        | `"ra"` (default) / `"sc"` / `"pre-execution"`      |
/// | `mode`         | `"outcomes"` (default) / `"count"` / `"litmus"` (litmus inputs' default) |
/// | `engine`       | `"sequential"` (default) / `"parallel"` (2 workers), or `{"kind":"parallel","workers":N}` |
/// | `reduction`    | `"none"` (default) / `"sleep-set"` / `"source-set"`, or `{"kind":…,"contract":…}` |
/// | `bounds`       | `{"max_events":N,"max_states":N,"max_depth":N}` (each optional; litmus inputs take only `max_events`) |
/// | `store`        | `"flat"` (default) / `"sym"` / `"shared"` — visited-state store |
/// | `symmetry`     | bool — quotient visited states by thread-permutation symmetry |
/// | `traces`       | bool — witness schedules per outcome               |
/// | `dot`          | integer — render up to N final executions as DOT   |
/// | `timeout_ms`   | integer — per-request deadline, measured from when compute starts |
///
/// Exactly one of `program`, `litmus_path` and `litmus_source` selects
/// the input. The `engine` and `reduction` objects are the report's own
/// `"backend"` and `"reduction"` blocks, so a report's selection can be
/// sent back as a request. A `{"stats": true}` object (optionally with
/// an `id`) is the control request [`stats_request`] recognises instead.
pub fn request_from_json(v: &Json) -> Result<CheckRequest, String> {
    let obj = v.as_obj().ok_or("request must be a JSON object")?;
    const KNOWN: [&str; 14] = [
        "id",
        "program",
        "litmus_path",
        "litmus_source",
        "model",
        "mode",
        "engine",
        "reduction",
        "bounds",
        "store",
        "symmetry",
        "traces",
        "dot",
        "timeout_ms",
    ];
    if let Some(key) = unknown_key(obj, &KNOWN) {
        return Err(format!("unknown key {key:?}"));
    }
    let program = v.get("program");
    let litmus_path = v.get("litmus_path");
    let litmus_source = v.get("litmus_source");
    let inputs = [program, litmus_path, litmus_source]
        .iter()
        .filter(|i| i.is_some())
        .count();
    if inputs != 1 {
        return Err(
            "exactly one of \"program\", \"litmus_path\", \"litmus_source\" is required"
                .to_string(),
        );
    }
    let is_litmus = program.is_none();
    let mut req = if let Some(src) = program {
        let src = src.as_str().ok_or("\"program\" must be a string")?;
        CheckRequest::program(src)
    } else if let Some(path) = litmus_path {
        let path = path.as_str().ok_or("\"litmus_path\" must be a string")?;
        let test = load_litmus_file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        CheckRequest::litmus(test)
    } else {
        let src = litmus_source
            .unwrap()
            .as_str()
            .ok_or("\"litmus_source\" must be a string")?;
        let test = parse_litmus(src).map_err(|e| e.to_string())?;
        CheckRequest::litmus(test)
    };
    if let Some(model) = v.get("model") {
        let names = ModelChoice::ALL.map(|m| m.name());
        req = req.model(word(model, "\"model\"", ModelChoice::parse, &names)?);
    }
    if let Some(mode) = v.get("mode") {
        let names = Mode::ALL.map(|m| m.name());
        req = req.mode(match word(mode, "\"mode\"", Mode::parse, &names)? {
            Mode::LitmusVerdict if !is_litmus => {
                return Err("\"litmus\" mode needs a litmus_path/litmus_source input".to_string());
            }
            mode => mode,
        });
    }
    if let Some(engine) = v.get("engine") {
        req = req.engine(engine_from_json(engine)?);
    }
    if let Some(reduction) = v.get("reduction") {
        req = req.reduction(reduction_from_json(reduction)?);
    }
    if let Some(bounds) = v.get("bounds") {
        // Strictly validated like the top level: a typo'd or mis-typed
        // bound must error, not silently run with defaults.
        let fields = bounds.as_obj().ok_or("\"bounds\" must be an object")?;
        let allowed: &[&str] = if is_litmus {
            // Litmus requests seed max_events from the test itself; the
            // other bounds govern both models at once and are not
            // overridable per request line.
            &["max_events"]
        } else {
            &["max_events", "max_states", "max_depth"]
        };
        let mut b = Bounds::default();
        for (key, value) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(if is_litmus {
                    format!("litmus \"bounds\" may only set \"max_events\", got {key:?}")
                } else {
                    format!("unknown \"bounds\" key {key:?}")
                });
            }
            let n = value
                .as_usize()
                .ok_or_else(|| format!("\"bounds\".{key:?} must be an integer"))?;
            b = match key.as_str() {
                "max_events" => b.max_events(n),
                "max_states" => b.max_states(n),
                _ => b.max_depth(n),
            };
        }
        if !fields.is_empty() {
            req = req.bounds(b);
        }
    }
    if let Some(store) = v.get("store") {
        let names = StoreKind::ALL.map(|k| k.name());
        req = req.store(word(store, "\"store\"", StoreKind::parse, &names)?);
    }
    if let Some(sym) = v.get("symmetry") {
        req = req.symmetry(sym.as_bool().ok_or("\"symmetry\" must be a boolean")?);
    }
    if let Some(traces) = v.get("traces") {
        req = req.traces(traces.as_bool().ok_or("\"traces\" must be a boolean")?);
    }
    if let Some(dot) = v.get("dot") {
        req = req.dot(dot.as_usize().ok_or("\"dot\" must be an integer")?);
    }
    if let Some(t) = v.get("timeout_ms") {
        let ms = t.as_usize().ok_or("\"timeout_ms\" must be an integer")?;
        req = req.timeout(std::time::Duration::from_millis(ms as u64));
    }
    Ok(req)
}

/// The first key of an object's `fields` that `allowed` does not list:
/// requests are strict, so a typo'd key is an error, not a default.
fn unknown_key<'a>(fields: &'a [(String, Json)], allowed: &[&str]) -> Option<&'a String> {
    fields
        .iter()
        .map(|(k, _)| k)
        .find(|k| !allowed.contains(&k.as_str()))
}

/// Reads a JSON string through a spelling table's `parse`; the error
/// names the `what` key and lists the table's valid `names`.
fn word<T>(
    v: &Json,
    what: &str,
    parse: fn(&str) -> Option<T>,
    names: &[&str],
) -> Result<T, String> {
    v.as_str()
        .and_then(parse)
        .ok_or_else(|| format!("{what} must be {}", one_of(names)))
}

/// `"a", "b" or "c"`: a spelling table's names (two or more), as
/// errors list them.
fn one_of(names: &[&str]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
    let (last, rest) = quoted.split_last().expect("a table has names");
    format!("{} or {last}", rest.join(", "))
}

/// The engine selection of a request's `"engine"` key or a report's
/// `"backend"` block: a bare kind name (`"parallel"` gets 2 workers) or
/// `{"kind", "workers"}`, where a parallel kind needs its workers.
pub(crate) fn engine_from_json(v: &Json) -> Result<Engine, String> {
    let names = Engine::ALL.map(|e| e.name());
    if v.as_str().is_some() {
        return word(v, "\"engine\"", Engine::parse, &names);
    }
    let fields = v.as_obj().ok_or("\"engine\" must be an object")?;
    if let Some(key) = unknown_key(fields, &["kind", "workers"]) {
        return Err(format!("unknown \"engine\" key {key:?}"));
    }
    let kind = v.get("kind").unwrap_or(&Json::Null);
    match word(kind, "\"engine\".\"kind\"", Engine::parse, &names)? {
        Engine::Parallel { .. } => Ok(Engine::Parallel {
            workers: v
                .get("workers")
                .and_then(Json::as_usize)
                .ok_or("parallel engine needs integer \"workers\"")?,
        }),
        engine => Ok(engine),
    }
}

/// The reduction of a request's `"reduction"` key or a report's
/// `"reduction"` block: a bare kind name or `{"kind", "contract"}`. The
/// contract is derived from the kind; a stated one must agree.
pub(crate) fn reduction_from_json(v: &Json) -> Result<Reduction, String> {
    let kind = if let Some(kind) = v.as_str() {
        kind
    } else {
        let fields = v.as_obj().ok_or("\"reduction\" must be an object")?;
        if let Some(key) = unknown_key(fields, &["kind", "contract"]) {
            return Err(format!("unknown \"reduction\" key {key:?}"));
        }
        v.get("kind")
            .and_then(Json::as_str)
            .ok_or("\"reduction\" needs a string \"kind\"")?
    };
    let names = Reduction::ALL.map(|r| r.name());
    let reduction = Reduction::parse(kind)
        .ok_or_else(|| format!("\"reduction\" must be {}", one_of(&names)))?;
    if let Some(stated) = v.get("contract") {
        if stated.as_str() != Some(reduction.contract_str()) {
            return Err(format!(
                "\"reduction\" contract disagrees with kind {kind:?} (its contract is {:?})",
                reduction.contract_str()
            ));
        }
    }
    Ok(reduction)
}

/// Recognises the `{"stats": true}` control object (optionally carrying
/// an `id`). `None` when the object is not a stats request at all;
/// `Some(Err)` when it carries a `stats` key but is malformed — a
/// request must never be half-interpreted as a control message.
pub fn stats_request(v: &Json) -> Option<Result<(), String>> {
    let stats = v.get("stats")?;
    let unknown = v.as_obj().and_then(|f| unknown_key(f, &["stats", "id"]));
    Some(match (unknown, stats.as_bool()) {
        (Some(key), _) => Err(format!("unknown key {key:?} in stats request")),
        (None, Some(true)) => Ok(()),
        (None, _) => Err("\"stats\" must be the boolean true".to_string()),
    })
}

/// The error response both front-ends emit for a request that never
/// produced a report.
pub fn error_line(id: &str, msg: &str) -> String {
    failure_line(id, "error", msg)
}

/// The backpressure response for a submission bounced by a full queue.
pub fn overloaded_line(id: &str) -> String {
    failure_line(id, "overloaded", "submission queue is full, retry later")
}

fn failure_line(id: &str, status: &str, msg: &str) -> String {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA_VERSION)),
        ("id", Json::str(id)),
        ("status", Json::str(status)),
        ("error", Json::str(msg)),
    ])
    .render()
}

/// The report response: the `c11check/v1` report object with `id`
/// inserted right after `schema` for scannability.
pub fn report_line(id: &str, report: &CheckReport) -> String {
    let Json::Obj(mut pairs) = report.json_value() else {
        unreachable!("reports are objects");
    };
    pairs.insert(1, ("id".to_string(), Json::str(id)));
    Json::Obj(pairs).render()
}

/// The `{"stats": true}` control response: the session's counters as a
/// `"mode":"session-stats"` object.
pub fn stats_line(id: &str, stats: &SessionStats) -> String {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA_VERSION)),
        ("id", Json::str(id)),
        ("status", Json::str("ok")),
        ("mode", Json::str("session-stats")),
        ("submitted", Json::from(stats.submitted)),
        ("completed", Json::from(stats.completed)),
        ("cache_hits", Json::from(stats.cache_hits)),
        ("explorations", Json::from(stats.explorations)),
        ("explorations_none", Json::from(stats.explorations_none)),
        (
            "explorations_sleep_set",
            Json::from(stats.explorations_sleep_set),
        ),
        (
            "explorations_source_set",
            Json::from(stats.explorations_source_set),
        ),
        ("errors", Json::from(stats.errors)),
        ("evictions", Json::from(stats.evictions)),
        ("overloaded", Json::from(stats.overloaded)),
        ("persist_loaded", Json::from(stats.persist_loaded)),
        ("persist_skipped", Json::from(stats.persist_skipped)),
        ("persist_locked", Json::from(stats.persist_locked)),
    ])
    .render()
}

/// The one `c11check/v1` request handler both transports drive:
/// `c11serve` feeds it stdin lines, `c11netd` frame payloads, and each
/// writes back the lines it renders. It owns the [`Session`] and the
/// batch tally behind the final `batch-summary` line.
///
/// A request is handled in two halves so a transport can pipeline:
/// [`Handler::accept`] parses and submits it, [`Handler::answer`] waits
/// for the report and renders the response. `c11serve` accepts on its
/// reader thread and answers on its writer thread, in request order;
/// `c11netd` answers each frame as soon as it is accepted.
pub struct Handler {
    session: Session,
    tally: Mutex<BatchStats>,
}

/// A request [`Handler::accept`] (or [`Handler::reject`]) took in and
/// [`Handler::answer`] has yet to render, with the id to answer under.
pub struct Pending(String, Work);

enum Work {
    Job(Result<JobId, CheckError>),
    /// A `{"stats": true}` control request: rendered with the counters
    /// current when it is answered, and not counted as a job.
    Stats,
    Error(String),
}

impl Handler {
    /// A handler over a fresh session, which loads the cache snapshot
    /// if one is configured (and says so on stderr).
    pub fn new(cfg: SessionConfig) -> Handler {
        let session = Session::new(cfg);
        let s = session.stats();
        if s.persist_loaded > 0 || s.persist_skipped > 0 {
            eprintln!(
                "cache snapshot: {} entries loaded, {} lines skipped",
                s.persist_loaded, s.persist_skipped
            );
        }
        Handler {
            session,
            tally: Mutex::new(BatchStats::default()),
        }
    }

    /// Takes in one request's raw bytes: checks they are UTF-8 and one
    /// JSON document, picks the id (the request's own, else
    /// `fallback_id`), and submits it to the session — or recognises a
    /// stats probe, or notes the error to answer.
    pub fn accept(&self, bytes: &[u8], fallback_id: impl FnOnce() -> String) -> Pending {
        let parsed = std::str::from_utf8(bytes)
            .map_err(|e| {
                format!(
                    "request is not valid UTF-8 (first invalid byte at offset {})",
                    e.valid_up_to()
                )
            })
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()));
        let v = match parsed {
            Ok(v) => v,
            Err(msg) => return self.reject(fallback_id(), msg),
        };
        let id = match v.get("id").and_then(Json::as_str) {
            Some(id) => id.to_string(),
            None => fallback_id(),
        };
        let work = match stats_request(&v) {
            Some(Ok(())) => Work::Stats,
            Some(Err(msg)) => Work::Error(msg),
            None => match request_from_json(&v) {
                Ok(req) => Work::Job(self.session.submit(req)),
                Err(msg) => Work::Error(msg),
            },
        };
        Pending(id, work)
    }

    /// A request the transport could not deliver whole (an oversized
    /// line, a read error, a broken frame): answered as an error under
    /// `id`.
    pub fn reject(&self, id: String, msg: String) -> Pending {
        Pending(id, Work::Error(msg))
    }

    /// Waits for a pending request's outcome, tallies it and renders its
    /// response: a [`report_line`] (status `"ok"`, or `"timed_out"` /
    /// `"cancelled"` with partial stats when a deadline or cancel cut it
    /// short), an [`overloaded_line`] when the queue bounced it, an
    /// [`error_line`], or a [`stats_line`] with the counters as of now.
    /// Blocking here holds up only the caller: the session's pool keeps
    /// computing other requests.
    pub fn answer(&self, pending: Pending) -> String {
        let Pending(id, work) = pending;
        let result = match work {
            Work::Stats => return stats_line(&id, &self.session.stats()),
            Work::Error(msg) => {
                self.tally.lock().unwrap().record_error();
                return error_line(&id, &msg);
            }
            Work::Job(submitted) => submitted.and_then(|job| self.session.wait(job)),
        };
        self.tally.lock().unwrap().record(&result);
        match &result {
            Ok(report) => report_line(&id, report),
            Err(CheckError::Overloaded) => overloaded_line(&id),
            Err(e) => error_line(&id, &e.to_string()),
        }
    }

    /// Ends the service: snapshots the cache (if a path is configured,
    /// saying so on stderr), then renders the `batch-summary` line with `wall` as its wall
    /// time. Returns the line and whether every request was answered
    /// without error and every litmus verdict passed.
    pub fn finish(&self, wall: Duration) -> (String, bool) {
        match self.session.flush_cache() {
            Ok(n) if n > 0 => eprintln!("cache snapshot: {n} entries written"),
            Ok(_) => {}
            Err(e) => eprintln!("cache snapshot failed: {e}"),
        }
        let mut stats = *self.tally.lock().unwrap();
        stats.wall_micros = wall.as_micros();
        let line = stats.summary_line(self.session.stats().explorations);
        (line, stats.all_ok())
    }
}

/// SIGTERM/SIGINT → graceful drain, shared by `c11serve` and `c11netd`:
/// the front-end stops accepting input, finishes every job already
/// submitted, flushes the cache snapshot and prints its summary. Raw
/// `signal(2)` via the C library keeps this crate-free.
#[cfg(unix)]
pub mod shutdown {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the drain handler for SIGTERM and SIGINT (Ctrl-C gets
    /// the same graceful treatment an orchestrator's TERM does).
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    /// `true` once either signal has been received.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
pub mod shutdown {
    /// No-op on non-Unix targets (drain still happens on EOF).
    pub fn install() {}
    /// Always `false` on non-Unix targets.
    pub fn requested() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"stats\":true}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "τ→π".as_bytes()).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            FrameIn::Frame(b"{\"stats\":true}".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), FrameIn::Frame(Vec::new()));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            FrameIn::Frame("τ→π".as_bytes().to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), FrameIn::Eof);
    }

    #[test]
    fn oversized_frames_are_refused_on_both_sides() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &vec![0u8; MAX_FRAME_BYTES + 1]).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        // A hostile length prefix is rejected before allocating.
        let mut r = Cursor::new(((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec());
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    /// A writer that records the size of every `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_exactly_one_write() {
        for payload in [&b"{\"stats\":true}"[..], b"", &[7u8; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, vec![4 + payload.len()]);
            assert_eq!(w.bytes[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(&w.bytes[4..], payload);
        }
        // An oversized payload is refused before anything is written.
        let mut w = CountingWriter::default();
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
        assert!(w.writes.is_empty());
    }

    #[test]
    fn truncation_mid_header_and_mid_frame_errors() {
        // Two of four header bytes, then EOF.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).unwrap_err().contains("mid-header"));
        // A full header promising 8 bytes, only 3 delivered.
        let mut bytes = 8u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut r = Cursor::new(bytes);
        assert!(read_frame(&mut r).unwrap_err().contains("mid-frame"));
    }

    /// A reader that times out after yielding a prefix, like a socket
    /// with SO_RCVTIMEO.
    struct TimeoutAfter {
        data: Vec<u8>,
        at: usize,
    }

    impl Read for TimeoutAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.data.len() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "timed out"));
            }
            let n = buf.len().min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_at_a_frame_boundary_is_idle_but_mid_frame_is_an_error() {
        let mut idle = TimeoutAfter {
            data: Vec::new(),
            at: 0,
        };
        assert_eq!(read_frame(&mut idle).unwrap(), FrameIn::Idle);
        // Timing out with half a header read is a slow client, not idle.
        let mut stalled = TimeoutAfter {
            data: vec![0, 0],
            at: 0,
        };
        assert!(read_frame(&mut stalled)
            .unwrap_err()
            .contains("timed out mid-header"));
        let mut bytes = 64u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"partial payload");
        let mut mid = TimeoutAfter { data: bytes, at: 0 };
        assert!(read_frame(&mut mid)
            .unwrap_err()
            .contains("timed out mid-frame"));
    }

    #[test]
    fn request_parsing_accepts_programs_and_rejects_unknown_keys() {
        let ok = Json::parse(r#"{"id":"a","program":"vars x; thread t { x := 1; }"}"#).unwrap();
        assert!(request_from_json(&ok).is_ok());
        let bad = Json::parse(r#"{"program":"vars x; thread t { x := 1; }","frob":1}"#).unwrap();
        assert!(request_from_json(&bad).unwrap_err().contains("unknown key"));
        let none = Json::parse(r#"{"id":"a"}"#).unwrap();
        assert!(request_from_json(&none)
            .unwrap_err()
            .contains("exactly one of"));
    }

    #[test]
    fn engine_and_reduction_keys_parse_as_string_or_object() {
        let prog = r#""program":"vars x; thread t { x := 1; }""#;
        for ok in [
            format!(r#"{{{prog},"engine":"parallel"}}"#),
            format!(r#"{{{prog},"engine":{{"kind":"parallel","workers":4}}}}"#),
            format!(r#"{{{prog},"reduction":"source-set"}}"#),
            format!(r#"{{{prog},"reduction":{{"kind":"source-set"}}}}"#),
            format!(r#"{{{prog},"reduction":{{"kind":"sleep-set","contract":"exhaustive"}}}}"#),
            format!(r#"{{{prog},"engine":"sequential","reduction":"sleep-set"}}"#),
        ] {
            let v = Json::parse(&ok).unwrap();
            assert!(request_from_json(&v).is_ok(), "{ok}");
        }
        for (bad, msg) in [
            (
                format!(r#"{{{prog},"engine":"dpor"}}"#),
                "\"sequential\" or \"parallel\"",
            ),
            (
                format!(r#"{{{prog},"reduction":"dpor"}}"#),
                "\"none\", \"sleep-set\" or \"source-set\"",
            ),
            (
                format!(
                    r#"{{{prog},"reduction":{{"kind":"source-set","contract":"exhaustive"}}}}"#
                ),
                "disagrees",
            ),
            // The single-axis `backend` spelling is not a request key.
            (
                format!(r#"{{{prog},"backend":"dpor"}}"#),
                "unknown key \"backend\"",
            ),
        ] {
            let v = Json::parse(&bad).unwrap();
            let err = request_from_json(&v).unwrap_err();
            assert!(err.contains(msg), "{bad}: {err}");
        }
    }

    #[test]
    fn stats_control_objects_are_recognised_strictly() {
        let ok = Json::parse(r#"{"stats":true,"id":"s"}"#).unwrap();
        assert_eq!(stats_request(&ok), Some(Ok(())));
        // Not a stats request at all: fall through to request parsing.
        let other = Json::parse(r#"{"id":"a","program":"x"}"#).unwrap();
        assert_eq!(stats_request(&other), None);
        // Carrying the key but malformed: an error, never a request.
        for bad in [
            r#"{"stats":false}"#,
            r#"{"stats":1}"#,
            r#"{"stats":true,"program":"x"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(matches!(stats_request(&v), Some(Err(_))), "{bad}");
        }
    }

    #[test]
    fn stats_line_carries_every_counter() {
        let line = stats_line("st", &SessionStats::default());
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("session-stats"));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("st"));
        for key in [
            "submitted",
            "completed",
            "cache_hits",
            "explorations",
            "explorations_none",
            "explorations_sleep_set",
            "explorations_source_set",
            "errors",
            "evictions",
            "overloaded",
            "persist_loaded",
            "persist_skipped",
            "persist_locked",
        ] {
            assert_eq!(v.get(key).and_then(Json::as_usize), Some(0), "{key}");
        }
    }
}
