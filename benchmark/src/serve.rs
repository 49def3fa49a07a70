//! The `serve-mixed` workload: a seeded Poisson open loop against the
//! release `c11netd` on loopback, at [`RATE`] requests per second over
//! two connections, one client thread each.
//!
//! Each latency is timed from the request's scheduled send time, so a
//! stall also charges the wait it imposes on the requests queued behind
//! it. Nine in ten requests repeat a warm-set entry (answered once
//! during set-up, so they hit the session cache); one in ten is a fresh
//! family-(b) program that misses it.

use crate::gen::{self, Arrival, ServePlan, WarmEntry};
use crate::util::{self, Metric, Outcome};
use c11_api::json::Json;
use c11_api::CheckRequest;
use c11_litmus::Verdict;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load (requests per second, both connections together).
pub const RATE: f64 = 200.0;
/// A response later than this after its scheduled send counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// How long responses may trail the last scheduled send.
const DRAIN: Duration = Duration::from_secs(10);
/// A run that ends its timed phase with more requests in flight than
/// this has a growing backlog: it is reported as unsteady, not measured.
const MAX_BACKLOG: usize = 50;
/// Where the run keeps its scratch files (inside the checkout).
pub const RUN_DIR: &str = ".bench_run";

/// What an answer to a request must say.
pub enum Expected {
    /// A litmus verdict: the file's hand-written `(ra, sc)` expectations.
    Litmus(bool, bool),
    /// The `outcomes` array of the in-process reference report.
    Outcomes(Json),
}

/// The expected answer to `src`, computed in-process.
pub fn expected_outcomes(src: &str) -> Result<Expected, String> {
    let report = CheckRequest::program(src)
        .run()
        .map_err(|e| e.to_string())?;
    let outcomes = report.json_value().get("outcomes").cloned();
    outcomes
        .map(Expected::Outcomes)
        .ok_or_else(|| "report has no outcomes".to_string())
}

pub fn expected_warm(entry: &WarmEntry) -> Result<Expected, String> {
    match entry {
        WarmEntry::Litmus { source, name } => {
            let t = c11_litmus::parse_litmus(source).map_err(|e| format!("{name}: {e}"))?;
            Ok(Expected::Litmus(
                t.expect_ra == Verdict::Allowed,
                t.expect_sc == Verdict::Allowed,
            ))
        }
        WarmEntry::Program(p) => expected_outcomes(&p.src),
    }
}

/// The litmus corpus as `(name, file text)` pairs, sorted by file name.
pub fn corpus_sources() -> Result<Vec<(String, String)>, String> {
    gen::litmus_texts()?
        .into_iter()
        .map(|text| {
            let t = c11_litmus::parse_litmus(&text).map_err(|e| e.to_string())?;
            Ok((t.name, text))
        })
        .collect()
}

/// One frame on the wire: a 4-byte big-endian length, then the payload,
/// sent as one buffer so the client adds no delay of its own.
pub fn send_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf)
}

/// Reassembles frames from the bytes a client has read so far.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn take(&mut self) -> Option<Vec<u8>> {
        let header: [u8; 4] = self.buf.get(..4)?.try_into().expect("4 bytes");
        let len = u32::from_be_bytes(header) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(frame)
    }
}

pub fn connect(port: u16) -> Result<TcpStream, String> {
    let s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    Ok(s)
}

/// Sends `payloads` back to back on one connection, then reads one
/// response per payload (blocking).
pub fn pipeline(stream: &mut TcpStream, payloads: &[String]) -> Result<Vec<Vec<u8>>, String> {
    for p in payloads {
        send_frame(stream, p.as_bytes()).map_err(|e| format!("send: {e}"))?;
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut frames = FrameBuf::default();
    let mut out = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    while out.len() < payloads.len() {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(n) => {
                frames.extend(&chunk[..n]);
                while let Some(f) = frames.take() {
                    out.push(f);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(out)
}

/// One request as the client saw it.
pub struct Sent {
    /// Index into the plan's arrivals.
    pub idx: usize,
    pub sent: Instant,
    /// When the whole response had arrived, and its payload.
    pub recv: Option<(Instant, Vec<u8>)>,
}

/// Drives one connection through its share of the schedule: sends each
/// request when it is due (whether or not earlier ones were answered)
/// and, between sends, reads responses, which arrive in request order.
pub fn drive(
    stream: &mut TcpStream,
    plan: &[(usize, &Arrival)],
    t0: Instant,
) -> Result<Vec<Sent>, String> {
    let last_due = plan.last().map_or(Duration::ZERO, |(_, a)| a.due);
    let drain_until = t0 + last_due + DRAIN;
    let mut out: Vec<Sent> = Vec::with_capacity(plan.len());
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut frames = FrameBuf::default();
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    loop {
        let now = Instant::now();
        if next < plan.len() && now >= t0 + plan[next].1.due {
            let (idx, a) = plan[next];
            send_frame(stream, a.payload.as_bytes()).map_err(|e| format!("send: {e}"))?;
            out.push(Sent {
                idx,
                sent: now,
                recv: None,
            });
            pending.push_back(out.len() - 1);
            next += 1;
            continue;
        }
        if next == plan.len() && pending.is_empty() {
            break;
        }
        let wake = if next < plan.len() {
            t0 + plan[next].1.due
        } else {
            drain_until
        };
        if now >= wake {
            if next == plan.len() {
                break; // drain timed out: the rest count as failed
            }
            continue;
        }
        stream
            .set_read_timeout(Some(wake - now))
            .map_err(|e| e.to_string())?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = Instant::now();
                frames.extend(&chunk[..n]);
                while let Some(f) = frames.take() {
                    let i = pending.pop_front().ok_or("response to no request")?;
                    out[i].recv = Some((at, f));
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(out)
}

/// What an open-loop phase recorded.
pub struct Run {
    /// Every request's record, sorted by arrival index.
    pub sent: Vec<Sent>,
    /// The start of the timed phase.
    pub t0: Instant,
}

/// Runs the open loop over both connections, one client thread each.
pub fn open_loop(plan: &ServePlan, conns: &mut [TcpStream; 2]) -> Result<Run, String> {
    let split: [Vec<(usize, &Arrival)>; 2] = [0, 1].map(|c| {
        plan.arrivals
            .iter()
            .enumerate()
            .filter(|(_, a)| a.conn == c)
            .collect()
    });
    let t0 = Instant::now() + Duration::from_millis(20);
    let [c0, c1] = conns;
    let (r0, r1) = std::thread::scope(|s| {
        let h0 = s.spawn(|| drive(c0, &split[0], t0));
        let h1 = s.spawn(|| drive(c1, &split[1], t0));
        (
            h0.join().expect("client thread panicked"),
            h1.join().expect("client thread panicked"),
        )
    });
    let mut sent = r0?;
    sent.extend(r1?);
    sent.sort_by_key(|s| s.idx);
    Ok(Run { sent, t0 })
}

/// What a run's responses add up to.
#[derive(Default)]
pub struct Eval {
    pub all: Vec<f64>,
    pub hit: Vec<f64>,
    pub miss: Vec<f64>,
    /// Generator lateness: actual send minus scheduled send (ms).
    pub lag: Vec<f64>,
    pub ok: usize,
    pub failed: usize,
    /// Responses received, right or wrong.
    pub answered: usize,
    pub miss_unique: usize,
    pub miss_generated: usize,
    /// Requests in flight when the timed phase ended.
    pub backlog_end: usize,
    /// `cache_hit` of each answered arrival (by arrival index).
    pub was_hit: HashMap<usize, bool>,
    /// From the start of the timed phase to the last response.
    pub span: Duration,
}

fn stat_of(v: &Json, key: &str) -> usize {
    v.get(key).and_then(Json::as_usize).unwrap_or(0)
}

/// Why a response is wrong, if it is.
fn check_response(v: &Json, id: &str, want: &Expected, hit_expected: bool) -> Result<(), String> {
    if v.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!("response id {:?}, want {id}", v.get("id")));
    }
    let status = v.get("status").and_then(Json::as_str);
    if status != Some("ok") {
        return Err(format!("status {status:?}: {:?}", v.get("error")));
    }
    if v.get("cache_hit").and_then(Json::as_bool) != Some(hit_expected) {
        return Err(format!("cache_hit should be {hit_expected}"));
    }
    match want {
        Expected::Litmus(ra, sc) => {
            let got = (
                v.get("observed_ra").and_then(Json::as_bool),
                v.get("observed_sc").and_then(Json::as_bool),
                v.get("pass").and_then(Json::as_bool),
            );
            if got != (Some(*ra), Some(*sc), Some(true)) {
                return Err(format!("litmus verdict {got:?}"));
            }
        }
        Expected::Outcomes(rows) => {
            if v.get("invalid_finals").and_then(Json::as_usize) != Some(0) {
                return Err("finals fail the RA axioms".to_string());
            }
            if v.get("stats")
                .and_then(|s| s.get("truncated"))
                .and_then(Json::as_bool)
                != Some(false)
            {
                return Err("search truncated".to_string());
            }
            if v.get("outcomes") != Some(rows) {
                return Err("outcomes differ from the in-process reference".to_string());
            }
        }
    }
    Ok(())
}

/// Checks and times every response. Misses' references are computed
/// here, after the timed phase.
pub fn evaluate(
    plan: &ServePlan,
    warm: &[Expected],
    run: &Run,
    seconds: f64,
) -> Result<Eval, String> {
    let (sent, t0) = (&run.sent, run.t0);
    let mut e = Eval::default();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut miss_no = 0;
    let mut sent_by_idx: HashMap<usize, &Sent> = HashMap::new();
    for s in sent {
        sent_by_idx.insert(s.idx, s);
    }
    for (idx, a) in plan.arrivals.iter().enumerate() {
        let due = t0 + a.due;
        let miss_src = a.warm.is_none().then(|| {
            miss_no += 1;
            &plan.misses[miss_no - 1].src
        });
        let Some(s) = sent_by_idx.get(&idx) else {
            e.failed += 1;
            continue;
        };
        e.lag.push(util::ms(s.sent.saturating_duration_since(due)));
        if s.sent <= end && s.recv.as_ref().is_none_or(|(at, _)| *at > end) {
            e.backlog_end += 1;
        }
        let Some((at, payload)) = &s.recv else {
            e.failed += 1;
            continue;
        };
        e.span = e.span.max(at.saturating_duration_since(t0));
        e.answered += 1;
        let latency = at.saturating_duration_since(due);
        let v = std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(t).map_err(|e| e.to_string()));
        let verdict = v.and_then(|v| {
            let fresh;
            let want = match (a.warm, miss_src) {
                (Some(w), _) => &warm[w],
                (None, Some(src)) => {
                    fresh = expected_outcomes(src)?;
                    &fresh
                }
                (None, None) => unreachable!("a miss has a source"),
            };
            check_response(&v, &format!("r{idx}"), want, a.warm.is_some())?;
            Ok(v)
        });
        let v = match verdict {
            Ok(v) => v,
            Err(why) => {
                e.failed += 1;
                if e.failed <= 5 {
                    eprintln!("wrong answer to r{idx}: {why}");
                }
                continue;
            }
        };
        if latency > DEADLINE {
            e.failed += 1;
            continue;
        }
        e.ok += 1;
        let l = util::ms(latency);
        e.all.push(l);
        let hit = a.warm.is_some();
        e.was_hit.insert(idx, hit);
        if hit {
            e.hit.push(l);
        } else {
            e.miss.push(l);
            let stats = v.get("stats").ok_or("report without stats")?;
            e.miss_unique += stat_of(stats, "unique");
            e.miss_generated += stat_of(stats, "generated");
        }
    }
    if e.backlog_end > MAX_BACKLOG {
        return Err(format!(
            "unsteady: {} requests in flight when the timed phase ended (limit {MAX_BACKLOG}); \
             the backlog grows at {RATE} req/s",
            e.backlog_end
        ));
    }
    Ok(e)
}

impl Eval {
    /// The end-to-end metrics. The per-second rates are what the
    /// service delivered at the offered load; its speed shows in the
    /// latencies. Nothing is adjusted for host speed: every latency here
    /// waits on the network and on `c11netd`.
    pub fn metrics(
        &self,
        setup_s: f64,
        rss_mb: f64,
        attempted: usize,
    ) -> Result<Vec<Metric>, String> {
        let seconds = self.span.as_secs_f64();
        util::EndToEnd {
            setup_s,
            verdicts: &self.all,
            verdicts_per_s: self.answered as f64 / seconds,
            states_per_s: self.miss_unique as f64 / seconds,
            states_generated: self.miss_generated,
            hits: &self.hit,
            misses: &self.miss,
            goodput_rps: self.ok as f64 / seconds,
            peak_rss_mb: rss_mb,
            ok_share: self.ok as f64 / attempted as f64,
        }
        .metrics()
    }

    /// The open-loop hygiene line every `serve-mixed` run prints.
    pub fn report_hygiene(&self) {
        eprintln!(
            "open loop: gen.lag p99 {:.3} ms, {} in flight at the end of the timed phase, {} ok, {} failed",
            util::quantile(&self.lag, 0.99).unwrap_or(0.0),
            self.backlog_end,
            self.ok,
            self.failed
        );
    }
}

/// A running `c11netd`, killed and reaped when dropped.
pub struct Netd {
    child: Child,
    pub port: u16,
}

impl Netd {
    pub fn spawn(netd: &Path) -> Result<Netd, String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
        let port_file = Path::new(RUN_DIR).join("netd.port");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(netd)
            .args(["--listen", "127.0.0.1:0", "--workers", "2", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", netd.display()))?;
        // The launcher kills a server left behind by an aborted run.
        let _ = std::fs::write(Path::new(RUN_DIR).join("netd.pid"), child.id().to_string());
        let mut netd = Netd { child, port: 0 };
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse() {
                    netd.port = port;
                    return Ok(netd);
                }
            }
            if let Ok(Some(status)) = netd.child.try_wait() {
                return Err(format!("c11netd exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("c11netd wrote no port file within 30 s".to_string())
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        util::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // A newer server may have taken the pid file over already.
        let pid_file = Path::new(RUN_DIR).join("netd.pid");
        if std::fs::read_to_string(&pid_file).is_ok_and(|p| p == self.child.id().to_string()) {
            let _ = std::fs::remove_file(pid_file);
        }
    }
}

/// Answers the warm set once on `stream`, checking every answer.
pub fn warm_up(
    stream: &mut TcpStream,
    warm: &[WarmEntry],
    expected: &[Expected],
) -> Result<(), String> {
    let payloads: Vec<String> = (0..warm.len())
        .map(|i| warm[i].request(&format!("w{i}")))
        .collect();
    for (i, frame) in pipeline(stream, &payloads)?.iter().enumerate() {
        let v = std::str::from_utf8(frame)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(t).map_err(|e| e.to_string()))?;
        check_response(&v, &format!("w{i}"), &expected[i], false)
            .map_err(|e| format!("warm-up answer {i}: {e}"))?;
    }
    Ok(())
}

/// `serve-mixed` against the release `c11netd`.
pub fn run_serve(netd_bin: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let corpus = corpus_sources()?;
    let plan = gen::serve_plan(seed, &corpus, RATE, seconds);
    let warm: Vec<Expected> = plan
        .warm
        .iter()
        .map(expected_warm)
        .collect::<Result<_, _>>()?;
    // Set-up: start the server, connect and warm its cache.
    let setup = || -> Result<(Netd, [TcpStream; 2]), String> {
        let netd = Netd::spawn(netd_bin)?;
        let mut conns = [connect(netd.port)?, connect(netd.port)?];
        warm_up(&mut conns[0], &plan.warm, &warm)?;
        Ok((netd, conns))
    };
    // Not adjusted for host speed: start-up waits on a process and the
    // network.
    let ((netd, mut conns), setup_s) = util::repeated_setup(|| 1.0, setup)?;
    let run = open_loop(&plan, &mut conns)?;
    let rss = netd.peak_rss_mb()?;
    drop(conns);
    drop(netd);
    let eval = evaluate(&plan, &warm, &run, seconds)?;
    eval.report_hygiene();
    let attempted = plan.arrivals.len();
    let metrics = eval.metrics(setup_s, rss, attempted)?;
    Ok(Outcome::new(attempted, eval.failed, metrics))
}
