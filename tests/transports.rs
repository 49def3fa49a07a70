//! `c11serve` (stdio lines) and `c11netd` (TCP frames) are two I/O loops
//! around one request handler, so the same deck must get the same
//! answers from both — apart from the positional fallback `id` and the
//! wall times. And no `litmus_path` may hang or exhaust either service:
//! a device, a FIFO or an oversized file is an `"error"` answer, and the
//! next request is still answered.

use c11_operational::api::json::Json;
use c11_operational::api::net::{read_frame, write_frame, FrameIn};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SB: &str = "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }";

/// A per-test scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c11-transports-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Waits for `child` to exit within `limit`, killing it (and failing
/// the test) if it does not.
fn wait_or_kill(mut child: Child, limit: Duration, what: &str) -> std::process::Output {
    let deadline = Instant::now() + limit;
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not finish within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// Runs `c11serve` over `lines` (one request per line); returns its
/// stdout lines, the last being the batch summary.
fn serve(lines: &[Vec<u8>]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c11serve"))
        .args(["--workers", "2"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c11serve");
    let mut stdin = child.stdin.take().unwrap();
    for line in lines {
        stdin.write_all(line).unwrap();
        stdin.write_all(b"\n").unwrap();
    }
    drop(stdin);
    let out = wait_or_kill(child, Duration::from_secs(60), "c11serve");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// A running `c11netd` on an OS-assigned port.
struct Netd {
    child: Option<Child>,
    port: u16,
}

impl Netd {
    fn start(dir: &Path) -> Netd {
        let port_file = dir.join("port");
        let child = Command::new(env!("CARGO_BIN_EXE_c11netd"))
            .args(["--listen", "127.0.0.1:0", "--workers", "2", "--port-file"])
            .arg(&port_file)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn c11netd");
        let deadline = Instant::now() + Duration::from_secs(30);
        let port = loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|t| t.trim().parse().ok())
            {
                break port;
            }
            assert!(Instant::now() < deadline, "c11netd never published a port");
            std::thread::sleep(Duration::from_millis(20));
        };
        Netd {
            child: Some(child),
            port,
        }
    }

    /// Sends every payload as one frame on one connection and returns
    /// the responses, in order.
    fn exchange(&self, payloads: &[Vec<u8>]) -> Vec<String> {
        let mut conn = TcpStream::connect(("127.0.0.1", self.port)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        payloads
            .iter()
            .map(|p| {
                write_frame(&mut conn, p).unwrap();
                match read_frame(&mut conn) {
                    Ok(FrameIn::Frame(bytes)) => String::from_utf8(bytes).unwrap(),
                    other => panic!("no response frame: {other:?}"),
                }
            })
            .collect()
    }

    /// SIGTERM-drains the server and returns its stdout (the summary).
    fn finish(mut self) -> String {
        let child = self.child.take().unwrap();
        Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .unwrap();
        let out = wait_or_kill(child, Duration::from_secs(30), "c11netd drain");
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A response document without its `id` and with every `wall_micros`
/// zeroed: what must agree between the transports.
fn comparable(line: &str) -> Json {
    fn strip(v: &Json, top: bool) -> Json {
        match v {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| !(top && k == "id"))
                    .map(|(k, v)| {
                        let v = if k == "wall_micros" {
                            Json::UInt(0)
                        } else {
                            strip(v, false)
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(|v| strip(v, false)).collect()),
            other => other.clone(),
        }
    }
    let v = Json::parse(line).unwrap_or_else(|e| panic!("bad response ({e}): {line}"));
    strip(&v, true)
}

/// A request line from `(key, value)` pairs.
fn request(pairs: Vec<(&str, Json)>) -> Vec<u8> {
    Json::obj(pairs).render().into_bytes()
}

/// The parity deck: every input kind, every value of every enum key,
/// and the malformed shapes, each on its own program so that no two
/// requests share a cache key (a pipelined `c11serve` could otherwise
/// coalesce what `c11netd` answers as a hit). A stats probe comes last:
/// only then have both transports answered everything before it.
fn deck() -> Vec<Vec<u8>> {
    let prog = |n: usize| {
        format!("vars x y; thread t1 {{ x := {n}; r0 <- y; }} thread t2 {{ y := 1; r0 <- x; }}")
    };
    let mp =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus/mp_ra.litmus"))
            .unwrap();
    let mut n = 0;
    let mut next = || {
        n += 1;
        Json::str(prog(n))
    };
    let mut deck = vec![
        request(vec![("id", Json::str("plain")), ("program", next())]),
        request(vec![("litmus_source", Json::str(&mp))]),
        request(vec![
            ("litmus_source", Json::str(&mp)),
            ("mode", Json::str("count")),
        ]),
    ];
    for model in ["ra", "sc", "pre-execution"] {
        deck.push(request(vec![
            ("program", next()),
            ("model", Json::str(model)),
        ]));
    }
    for mode in ["outcomes", "count"] {
        deck.push(request(vec![
            ("program", next()),
            ("mode", Json::str(mode)),
        ]));
    }
    for engine in ["sequential", "parallel"] {
        deck.push(request(vec![
            ("program", next()),
            ("engine", Json::str(engine)),
        ]));
    }
    deck.push(request(vec![
        ("program", next()),
        (
            "engine",
            Json::obj(vec![
                ("kind", Json::str("parallel")),
                ("workers", Json::from(3usize)),
            ]),
        ),
    ]));
    for reduction in ["none", "sleep-set", "source-set"] {
        deck.push(request(vec![
            ("program", next()),
            ("reduction", Json::str(reduction)),
        ]));
    }
    deck.push(request(vec![
        ("program", next()),
        (
            "reduction",
            Json::obj(vec![
                ("kind", Json::str("source-set")),
                ("contract", Json::str("finals-only")),
            ]),
        ),
    ]));
    for store in ["flat", "sym", "shared"] {
        deck.push(request(vec![
            ("program", next()),
            ("store", Json::str(store)),
        ]));
    }
    deck.push(request(vec![
        ("program", next()),
        ("symmetry", Json::Bool(true)),
        ("traces", Json::Bool(true)),
    ]));
    deck.push(request(vec![
        ("program", next()),
        ("dot", Json::from(1usize)),
        ("timeout_ms", Json::from(600_000usize)),
    ]));
    // The failures: malformed JSON, an unknown key, invalid UTF-8, bad
    // enum values, a parse error, an unsupported combination.
    deck.push(b"{\"program\": ".to_vec());
    deck.push(request(vec![
        ("program", next()),
        ("frob", Json::from(1usize)),
    ]));
    deck.push(b"{\"program\":\"vars x; \xff\xfe\"}".to_vec());
    deck.push(request(vec![
        ("program", next()),
        ("model", Json::str("tso")),
    ]));
    deck.push(request(vec![
        ("program", next()),
        ("engine", Json::str("dpor")),
    ]));
    deck.push(request(vec![
        ("program", next()),
        ("reduction", Json::str("dpor")),
    ]));
    deck.push(request(vec![
        ("program", next()),
        ("store", Json::str("disk")),
    ]));
    deck.push(request(vec![(
        "program",
        Json::str("vars x; thread t { y := 1; }"),
    )]));
    deck.push(request(vec![
        ("program", next()),
        ("engine", Json::str("parallel")),
        ("reduction", Json::str("sleep-set")),
    ]));
    deck.push(request(vec![
        ("id", Json::str("probe")),
        ("stats", Json::Bool(true)),
    ]));
    deck
}

#[test]
fn both_transports_answer_the_same_deck_identically() {
    let deck = deck();
    let served = serve(&deck);
    assert_eq!(
        served.len(),
        deck.len() + 1,
        "one answer per line plus the summary"
    );

    let dir = scratch("parity");
    let netd = Netd::start(&dir);
    let framed = netd.exchange(&deck);
    let netd_summary = netd.finish();

    for (i, (line, frame)) in served.iter().zip(&framed).enumerate() {
        assert_eq!(
            comparable(line),
            comparable(frame),
            "request {i}:\n  stdio: {line}\n  tcp:   {frame}"
        );
    }
    // Ids: the request's own, else the transport's position.
    let id = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(id(&served[0]).as_deref(), Some("plain"));
    assert_eq!(id(&framed[0]).as_deref(), Some("plain"));
    assert_eq!(id(&served[1]).as_deref(), Some("line-2"));
    assert_eq!(id(&framed[1]).as_deref(), Some("conn-1-2"));

    // The deck exercises what it claims to: reports, errors, the probe.
    let status = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("status")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let errors = served
        .iter()
        .filter(|l| status(l).as_deref() == Some("error"))
        .count();
    assert_eq!(errors, 9, "{served:#?}");
    let utf8 = served
        .iter()
        .find(|l| l.contains("UTF-8"))
        .expect("a UTF-8 error");
    assert!(utf8.contains("offset 20"), "{utf8}");
    let probe = Json::parse(&framed[deck.len() - 1]).unwrap();
    assert_eq!(
        probe.get("mode").and_then(Json::as_str),
        Some("session-stats")
    );

    // The batch summaries agree too.
    let summary = served.last().unwrap();
    assert_eq!(
        comparable(summary),
        comparable(netd_summary.trim()),
        "summaries"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hostile `litmus_path` requests, each followed by a valid one.
fn hostile_paths(dir: &Path) -> Vec<Vec<u8>> {
    let fifo = dir.join("fifo.litmus");
    let made = Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("run mkfifo");
    assert!(made.success());
    let big = dir.join("big.litmus");
    std::fs::write(&big, vec![b'/'; 2 << 20]).unwrap();
    let mut lines = Vec::new();
    for (name, path) in [
        ("zero", Path::new("/dev/zero")),
        ("fifo", fifo.as_path()),
        ("big", big.as_path()),
    ] {
        let path = path.to_str().unwrap();
        lines.push(request(vec![
            ("id", Json::str(name)),
            ("litmus_path", Json::str(path)),
        ]));
        lines.push(request(vec![
            ("id", Json::str(format!("after-{name}"))),
            ("program", Json::str(SB)),
        ]));
    }
    lines
}

fn assert_refused_and_recovered(answers: &[String]) {
    let doc = |i: usize| Json::parse(&answers[i]).unwrap();
    for (i, (name, why)) in [
        ("zero", "not a regular file"),
        ("fifo", "not a regular file"),
        ("big", "byte cap"),
    ]
    .into_iter()
    .enumerate()
    {
        let refused = doc(2 * i);
        assert_eq!(refused.get("id").and_then(Json::as_str), Some(name));
        assert_eq!(refused.get("status").and_then(Json::as_str), Some("error"));
        let err = refused.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains(why), "{name}: {err}");
        let next = doc(2 * i + 1);
        assert_eq!(
            next.get("status").and_then(Json::as_str),
            Some("ok"),
            "after {name}"
        );
    }
}

#[test]
fn c11serve_refuses_devices_fifos_and_oversized_litmus_files() {
    let dir = scratch("serve-paths");
    let lines = hostile_paths(&dir);
    let answers = serve(&lines);
    assert_eq!(answers.len(), lines.len() + 1);
    assert_refused_and_recovered(&answers);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn c11netd_refuses_devices_fifos_and_oversized_litmus_files() {
    let dir = scratch("netd-paths");
    let lines = hostile_paths(&dir);
    let netd = Netd::start(&dir);
    let answers = netd.exchange(&lines);
    assert_refused_and_recovered(&answers);
    netd.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
