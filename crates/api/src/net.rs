//! The `c11netd` wire protocol and the request/response vocabulary the
//! service front-ends (`c11serve` over stdio, `c11netd` over TCP) share.
//!
//! ## Frame layout
//!
//! One frame = a 4-byte big-endian payload length followed by exactly
//! that many payload bytes. The payload is one `c11check/v1` JSON
//! document — a request line going in, a report line coming out — with
//! no trailing newline. Frames are capped at [`MAX_FRAME_BYTES`]
//! (mirroring `c11serve`'s line cap): a longer length prefix is a
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
//! [`request_from_json`] is the one parser behind both front-ends: it
//! turns a request object (the schema documented in the README and on
//! `c11serve`) into a [`CheckRequest`]. [`stats_request`] recognises the
//! `{"stats": true}` control object, answered with [`stats_line`]
//! instead of a report. The response builders ([`report_line`],
//! [`error_line`], [`overloaded_line`]) render the exact line `c11serve`
//! has always emitted, so the two transports stay byte-compatible.

use crate::json::Json;
use crate::session::SessionStats;
use crate::{
    Bounds, CheckError, CheckReport, CheckRequest, Engine, Mode, ModelChoice, Reduction, StoreKind,
};
use c11_litmus::{load_litmus_file, parse_litmus};
use std::io::{ErrorKind, Read, Write};

/// Longest accepted frame payload (1 MiB, matching `c11serve`'s line
/// cap); a length prefix past this is a protocol error.
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

/// Builds a [`CheckRequest`] from a parsed request object (the
/// `c11check/v1` request schema both `c11serve` lines and `c11netd`
/// frames carry). Errors are strings destined for the error response.
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
    for (key, _) in obj {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown key {key:?}"));
        }
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
        req = req.model(match model.as_str() {
            Some("ra") => ModelChoice::Ra,
            Some("sc") => ModelChoice::Sc,
            Some("pre-execution") => ModelChoice::PreExecution,
            _ => return Err("\"model\" must be \"ra\", \"sc\" or \"pre-execution\"".to_string()),
        });
    }
    if let Some(mode) = v.get("mode") {
        req = req.mode(match mode.as_str() {
            Some("outcomes") => Mode::Outcomes,
            Some("count") => Mode::CountOnly,
            Some("litmus") if is_litmus => Mode::LitmusVerdict,
            Some("litmus") => {
                return Err("\"litmus\" mode needs a litmus_path/litmus_source input".to_string());
            }
            _ => return Err("\"mode\" must be \"outcomes\", \"count\" or \"litmus\"".to_string()),
        });
    }
    if let Some(engine) = v.get("engine") {
        // Same two spellings as the report's "backend" block: a bare
        // kind string or {"kind", "workers"}.
        req = if let Some(kind) = engine.as_str() {
            match kind {
                "sequential" => req.engine(Engine::Sequential),
                "parallel" => req.engine(Engine::Parallel { workers: 2 }),
                _ => return Err("\"engine\" must be \"sequential\" or \"parallel\"".into()),
            }
        } else {
            let fields = engine.as_obj().ok_or("\"engine\" must be an object")?;
            for (key, _) in fields {
                if key != "kind" && key != "workers" {
                    return Err(format!("unknown \"engine\" key {key:?}"));
                }
            }
            match engine.get("kind").and_then(Json::as_str) {
                Some("sequential") => req.engine(Engine::Sequential),
                Some("parallel") => req.engine(Engine::Parallel {
                    workers: engine
                        .get("workers")
                        .and_then(Json::as_usize)
                        .ok_or("parallel engine needs integer \"workers\"")?,
                }),
                _ => {
                    return Err("\"engine\".\"kind\" must be \"sequential\" or \"parallel\"".into());
                }
            }
        };
    }
    if let Some(reduction) = v.get("reduction") {
        // A bare kind string or the report-schema {"kind", "contract"}
        // object (the contract is derived; a stated one must agree).
        let kind = if let Some(kind) = reduction.as_str() {
            kind
        } else {
            let fields = reduction
                .as_obj()
                .ok_or("\"reduction\" must be an object")?;
            for (key, _) in fields {
                if key != "kind" && key != "contract" {
                    return Err(format!("unknown \"reduction\" key {key:?}"));
                }
            }
            reduction
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("\"reduction\" needs a string \"kind\"")?
        };
        let parsed = match kind {
            "none" => Reduction::None,
            "sleep-set" => Reduction::SleepSet,
            "source-set" => Reduction::SourceSet,
            _ => {
                return Err(
                    "\"reduction\" must be \"none\", \"sleep-set\" or \"source-set\"".into(),
                );
            }
        };
        if let Some(stated) = reduction.get("contract") {
            if stated.as_str() != Some(parsed.contract_str()) {
                return Err(format!(
                    "\"reduction\" contract disagrees with kind {kind:?} (its contract is {:?})",
                    parsed.contract_str()
                ));
            }
        }
        req = req.reduction(parsed);
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
        req = req.store(
            store
                .as_str()
                .and_then(StoreKind::parse)
                .ok_or("\"store\" must be \"flat\", \"sym\" or \"shared\"")?,
        );
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

/// Recognises the `{"stats": true}` control object (optionally carrying
/// an `id`). `None` when the object is not a stats request at all;
/// `Some(Err)` when it carries a `stats` key but is malformed — a
/// request must never be half-interpreted as a control message.
pub fn stats_request(v: &Json) -> Option<Result<(), String>> {
    v.get("stats")?;
    let check = || {
        if let Some(obj) = v.as_obj() {
            for (key, _) in obj {
                if key != "stats" && key != "id" {
                    return Err(format!("unknown key {key:?} in stats request"));
                }
            }
        }
        match v.get("stats").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err("\"stats\" must be the boolean true".to_string()),
        }
    };
    Some(check())
}

/// The error response both front-ends emit for a request that never
/// produced a report.
pub fn error_line(id: &str, msg: &str) -> String {
    Json::obj(vec![
        ("schema", Json::str("c11check/v1")),
        ("id", Json::str(id)),
        ("status", Json::str("error")),
        ("error", Json::str(msg)),
    ])
    .render()
}

/// The backpressure response for a submission bounced by a full queue.
pub fn overloaded_line(id: &str) -> String {
    Json::obj(vec![
        ("schema", Json::str("c11check/v1")),
        ("id", Json::str(id)),
        ("status", Json::str("overloaded")),
        ("error", Json::str("submission queue is full, retry later")),
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

/// The answer to one request's outcome: its report line, an
/// `"overloaded"` line when the queue bounced it, or an error line.
pub fn result_line(id: &str, result: &Result<CheckReport, CheckError>) -> String {
    match result {
        Ok(report) => report_line(id, report),
        Err(CheckError::Overloaded) => overloaded_line(id),
        Err(e) => error_line(id, &e.to_string()),
    }
}

/// The `{"stats": true}` control response: the session's counters as a
/// `"mode":"session-stats"` object.
pub fn stats_line(id: &str, stats: &SessionStats) -> String {
    Json::obj(vec![
        ("schema", Json::str("c11check/v1")),
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
