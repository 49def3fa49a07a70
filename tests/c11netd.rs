//! `c11netd` end to end over real sockets: length-prefixed frames in
//! and out, per-connection error isolation, the connection cap, the
//! `{"stats": true}` control frame, and the headline restart contract —
//! populate the cache over TCP, SIGTERM-drain (snapshot written, batch
//! summary on stdout, exit 0), restart on the same `--cache-path`, and
//! the same request answers `"cache_hit": true` byte-identically
//! (modulo the id echo and the cache flag itself).
//!
//! Requests go out through `c11_api::net::write_frame`, the one frame
//! writer every in-repo client shares (a hand-rolled two-write sender
//! would stall on the client's own Nagle). Responses are decoded by hand
//! (4-byte big-endian length + one JSON document), so the reading side
//! stays an independent check of the protocol the README documents.

use c11_operational::api::json::Json;
use c11_operational::api::net::write_frame;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SB: &str = "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }";

struct Server {
    child: Option<Child>,
    port: u16,
}

impl Server {
    /// Starts `c11netd` on an OS-assigned port and waits for the
    /// `--port-file` handshake.
    fn start(name: &str, extra: &[&str]) -> Server {
        let dir = std::env::temp_dir().join(format!("c11netd-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_c11netd"))
            .args(["--listen", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(extra)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn c11netd");
        let deadline = Instant::now() + Duration::from_secs(30);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    break port;
                }
            }
            assert!(Instant::now() < deadline, "c11netd never published a port");
            std::thread::sleep(Duration::from_millis(25));
        };
        Server {
            child: Some(child),
            port,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    }

    /// SIGTERM + wait: returns (exit-ok, stdout).
    fn terminate(mut self) -> (bool, String) {
        let child = self.child.take().unwrap();
        Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        let out = child.wait_with_output().expect("wait c11netd");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn send_frame(stream: &mut TcpStream, payload: &str) {
    write_frame(stream, payload.as_bytes()).expect("send frame");
}

fn recv_frame(stream: &mut TcpStream) -> Json {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).expect("response header");
    let len = u32::from_be_bytes(header) as usize;
    assert!(len <= 1 << 20, "response within the frame cap");
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("response payload");
    let text = std::str::from_utf8(&payload).expect("UTF-8 response");
    Json::parse(text).unwrap_or_else(|e| panic!("bad response JSON ({e}): {text}"))
}

fn s<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

#[test]
fn frames_round_trip_with_cache_hits_and_stats() {
    let server = Server::start("roundtrip", &["--workers", "2"]);
    let mut conn = server.connect();
    send_frame(
        &mut conn,
        &format!("{{\"id\":\"cold\",\"program\":\"{SB}\",\"traces\":true}}"),
    );
    let cold = recv_frame(&mut conn);
    assert_eq!(s(&cold, "id"), Some("cold"));
    assert_eq!(s(&cold, "status"), Some("ok"));
    assert_eq!(s(&cold, "schema"), Some("c11check/v1"));
    assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));

    send_frame(
        &mut conn,
        &format!("{{\"id\":\"warm\",\"program\":\"{SB}\",\"traces\":true}}"),
    );
    let warm = recv_frame(&mut conn);
    assert_eq!(s(&warm, "id"), Some("warm"));
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("outcomes"), cold.get("outcomes"));

    // The stats control frame reports session counters as JSON.
    send_frame(&mut conn, "{\"id\":\"st\",\"stats\":true}");
    let stats = recv_frame(&mut conn);
    assert_eq!(s(&stats, "id"), Some("st"));
    assert_eq!(s(&stats, "mode"), Some("session-stats"));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_usize), Some(1));
    assert_eq!(stats.get("explorations").and_then(Json::as_usize), Some(1));
    assert_eq!(
        stats.get("persist_loaded").and_then(Json::as_usize),
        Some(0)
    );
}

#[test]
fn sigterm_drains_snapshots_and_a_restart_serves_warm_byte_identically() {
    let dir = std::env::temp_dir().join(format!("c11netd-test-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache.jsonl");
    let _ = std::fs::remove_file(&cache);
    let with_cache = |name: &str| {
        Server::start(
            name,
            &["--workers", "2", "--cache-path", cache.to_str().unwrap()],
        )
    };

    let server = with_cache("restart-cold");
    let mut conn = server.connect();
    let request = format!("{{\"id\":\"r1\",\"program\":\"{SB}\",\"traces\":true}}");
    send_frame(&mut conn, &request);
    let cold = recv_frame(&mut conn);
    assert_eq!(s(&cold, "status"), Some("ok"));
    assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
    send_frame(
        &mut conn,
        "{\"id\":\"l1\",\"litmus_path\":\"litmus/mp_ra.litmus\"}",
    );
    assert_eq!(s(&recv_frame(&mut conn), "status"), Some("ok"));
    drop(conn);

    let (ok, stdout) = server.terminate();
    assert!(ok, "a clean drain exits 0");
    let summary = Json::parse(stdout.trim()).expect("batch summary on stdout");
    assert_eq!(s(&summary, "mode"), Some("batch-summary"));
    assert_eq!(summary.get("jobs").and_then(Json::as_usize), Some(2));
    assert_eq!(summary.get("ok").and_then(Json::as_usize), Some(2));
    let text = std::fs::read_to_string(&cache).expect("snapshot written on drain");
    assert_eq!(text.lines().count(), 2, "both results persisted");

    // Restart on the same cache path: the same request is a warm hit and
    // the payload is byte-identical modulo the id echo and cache flag.
    let server = with_cache("restart-warm");
    let mut conn = server.connect();
    let warm_request = request.replace("\"id\":\"r1\"", "\"id\":\"r2\"");
    send_frame(&mut conn, &warm_request);
    let warm = recv_frame(&mut conn);
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    let normalize = |v: &Json, id: &str| {
        v.render()
            .replace(&format!("\"id\":\"{id}\""), "\"id\":\"X\"")
            .replace("\"cache_hit\":true", "\"cache_hit\":false")
    };
    assert_eq!(
        normalize(&warm, "r2"),
        normalize(&cold, "r1"),
        "the disk round-trip must not change a byte of the answer"
    );
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn the_connection_cap_answers_overloaded_and_closes() {
    let server = Server::start("cap", &["--max-conns", "1", "--workers", "1"]);
    let mut first = server.connect();
    // Occupy the only slot and prove it works.
    send_frame(&mut first, "{\"id\":\"a\",\"stats\":true}");
    assert_eq!(s(&recv_frame(&mut first), "mode"), Some("session-stats"));

    let mut second = server.connect();
    let bounced = recv_frame(&mut second);
    assert_eq!(s(&bounced, "status"), Some("overloaded"));
    let mut rest = Vec::new();
    second
        .read_to_end(&mut rest)
        .expect("server closes after bouncing");
    assert!(rest.is_empty(), "one frame, then EOF");

    // The occupied connection is unaffected.
    send_frame(&mut first, "{\"id\":\"b\",\"stats\":true}");
    assert_eq!(s(&recv_frame(&mut first), "id"), Some("b"));
}

/// Programs nested far past the parser's cap, about 100 KB each:
/// parentheses, `if`s inside `if`s and a `!` chain.
fn nested_programs() -> [String; 3] {
    let prog = |body: String| format!("vars x; thread t {{ {body} }}");
    let (n, m) = (50_000, 10_000);
    [
        prog(format!("r0 <- {}1{};", "(".repeat(n), ")".repeat(n))),
        prog(format!("{}skip;{}", "if (1) { ".repeat(m), " }".repeat(m))),
        prog(format!("r0 <- {}1;", "!".repeat(2 * n))),
    ]
}

/// A deeply nested program is answered with an error frame instead of
/// overflowing a worker's stack, and the connection keeps serving.
#[test]
fn deeply_nested_programs_get_error_frames_and_the_connection_continues() {
    let server = Server::start("nested", &[]);
    let mut conn = server.connect();
    for prog in nested_programs() {
        send_frame(&mut conn, &format!("{{\"program\":\"{prog}\"}}"));
        let err = recv_frame(&mut conn);
        assert_eq!(s(&err, "status"), Some("error"), "{err:?}");
        assert!(s(&err, "error").unwrap().contains("nesting deeper than"));
        send_frame(
            &mut conn,
            "{\"id\":\"next\",\"program\":\"vars x; thread t { x := 1; }\"}",
        );
        assert_eq!(s(&recv_frame(&mut conn), "status"), Some("ok"));
    }
}

#[test]
fn malformed_payloads_get_error_frames_and_framing_errors_close_the_connection() {
    let server = Server::start("malformed", &["--workers", "1"]);
    let mut conn = server.connect();
    // A well-framed but non-JSON payload: an error frame, and the
    // connection survives.
    send_frame(&mut conn, "this is not json");
    let err = recv_frame(&mut conn);
    assert_eq!(s(&err, "status"), Some("error"));
    assert!(s(&err, "id").unwrap().starts_with("conn-"));
    send_frame(&mut conn, "{\"id\":\"still-alive\",\"stats\":true}");
    assert_eq!(s(&recv_frame(&mut conn), "id"), Some("still-alive"));

    // A validation error (unknown key) is also per-frame.
    send_frame(
        &mut conn,
        "{\"id\":\"bad\",\"program\":\"vars x; thread t { x := 1; }\",\"frobnicate\":1}",
    );
    let bad = recv_frame(&mut conn);
    assert_eq!(s(&bad, "id"), Some("bad"));
    assert_eq!(s(&bad, "status"), Some("error"));
    assert!(s(&bad, "error").unwrap().contains("unknown key"));

    // An oversized frame length is a protocol violation: one error
    // frame, then the connection closes (no resync is possible).
    let mut oversized = server.connect();
    oversized
        .write_all(&(((1u32 << 20) + 1).to_be_bytes()))
        .unwrap();
    oversized.flush().unwrap();
    let fatal = recv_frame(&mut oversized);
    assert_eq!(s(&fatal, "status"), Some("error"));
    assert!(s(&fatal, "error").unwrap().contains("cap"));
    let mut rest = Vec::new();
    oversized.read_to_end(&mut rest).expect("connection closed");
    assert!(rest.is_empty());
}

#[test]
fn warm_round_trips_never_wait_on_delayed_acks() {
    // A frame written as header + payload in two writes waits out Nagle
    // plus the peer's delayed ACK (~40 ms per round trip once delayed
    // ACKs kick in, so >= 2 s for this loop). One-write frames on a
    // TCP_NODELAY server socket answer warm hits in well under 10 ms.
    let server = Server::start("nodelay", &["--workers", "2"]);
    let mut conn = server.connect();
    assert!(!conn.nodelay().unwrap(), "the client keeps Nagle on");
    let request = format!("{{\"id\":\"w\",\"program\":\"{SB}\"}}");
    send_frame(&mut conn, &request);
    assert_eq!(s(&recv_frame(&mut conn), "status"), Some("ok"));
    let t0 = Instant::now();
    for _ in 0..100 {
        send_frame(&mut conn, &request);
        let warm = recv_frame(&mut conn);
        assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 warm round trips took {elapsed:?}"
    );
}

#[test]
fn fresh_connections_are_accepted_without_waiting_out_the_drain_poll() {
    // The accept loop polls the drain flag every 25 ms. Sleeping that
    // interval out instead of waiting on the listener would delay each
    // new connection's first answer by ~12 ms on average (~500 ms over
    // this loop); waiting on the listener answers at once.
    let server = Server::start("accept", &["--workers", "1"]);
    let t0 = Instant::now();
    for i in 0..40 {
        let mut conn = server.connect();
        send_frame(&mut conn, &format!("{{\"id\":\"c{i}\",\"stats\":true}}"));
        assert_eq!(s(&recv_frame(&mut conn), "mode"), Some("session-stats"));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "40 fresh connections took {elapsed:?} to answer"
    );
}
