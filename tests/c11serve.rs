//! `c11serve` end to end: request JSON lines in on stdin, one report
//! line per request (in request order) plus a `batch-summary` line out,
//! malformed lines answered with error reports, and the exit code
//! reflecting errors and litmus failures.

use c11_operational::api::json::Json;
use std::process::{Command, Stdio};

fn run_c11serve(args: &[&str], stdin: &str) -> (bool, Vec<Json>) {
    run_c11serve_bytes(args, stdin.as_bytes())
}

fn run_c11serve_bytes(args: &[&str], stdin: &[u8]) -> (bool, Vec<Json>) {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "--quiet", "--bin", "c11serve", "--"])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn cargo run c11serve");
    {
        use std::io::Write as _;
        child.stdin.take().unwrap().write_all(stdin).unwrap();
    }
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line ({e}): {l}")))
        .collect();
    (out.status.success(), lines)
}

fn s<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

const SB: &str = "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }";

#[test]
fn clean_stream_round_trips_in_order_with_cache_hits() {
    let input = format!(
        concat!(
            "{{\"id\":\"sb\",\"program\":\"{sb}\",\"traces\":true}}\n",
            "\n", // blank lines are skipped, not errors
            "{{\"id\":\"sb-again\",\"program\":\"{sb}\",\"traces\":true}}\n",
            "{{\"id\":\"mp\",\"litmus_path\":\"litmus/mp_ra.litmus\"}}\n",
            "{{\"id\":\"count\",\"program\":\"vars x; thread t {{ x := 1; }}\",",
            "\"mode\":\"count\",\"engine\":{{\"kind\":\"parallel\",\"workers\":2}}}}\n",
        ),
        sb = SB
    );
    let (ok, lines) = run_c11serve(&["--workers", "3"], &input);
    assert!(ok, "clean stream must exit 0: {lines:?}");
    assert_eq!(lines.len(), 5, "4 reports + summary: {lines:?}");

    // Responses come back in request order with ids echoed.
    assert_eq!(s(&lines[0], "id"), Some("sb"));
    assert_eq!(s(&lines[0], "status"), Some("ok"));
    assert_eq!(s(&lines[0], "schema"), Some("c11check/v1"));
    assert_eq!(s(&lines[0], "mode"), Some("outcomes"));

    // The duplicate coalesces: exactly one of the two identical jobs
    // explored (which one computed first is a pool race), the other is
    // a cache hit with the byte-identical payload.
    assert_eq!(s(&lines[1], "id"), Some("sb-again"));
    let hits = [&lines[0], &lines[1]]
        .iter()
        .filter(|l| l.get("cache_hit").and_then(Json::as_bool) == Some(true))
        .count();
    assert_eq!(hits, 1, "one cold + one warm: {lines:?}");
    assert_eq!(lines[1].get("outcomes"), lines[0].get("outcomes"));

    assert_eq!(s(&lines[2], "id"), Some("mp"));
    assert_eq!(s(&lines[2], "mode"), Some("litmus"));
    assert_eq!(lines[2].get("pass").and_then(Json::as_bool), Some(true));

    assert_eq!(s(&lines[3], "id"), Some("count"));
    assert_eq!(s(&lines[3], "mode"), Some("count"));
    assert_eq!(
        lines[3]
            .get("backend")
            .and_then(|b| b.get("workers"))
            .and_then(Json::as_usize),
        Some(2)
    );

    // Summary: counters add up and one exploration was saved.
    let summary = &lines[4];
    assert_eq!(s(summary, "mode"), Some("batch-summary"));
    assert_eq!(summary.get("jobs").and_then(Json::as_usize), Some(4));
    assert_eq!(summary.get("ok").and_then(Json::as_usize), Some(4));
    assert_eq!(summary.get("errors").and_then(Json::as_usize), Some(0));
    assert_eq!(summary.get("cache_hits").and_then(Json::as_usize), Some(1));
    assert_eq!(
        summary.get("explorations").and_then(Json::as_usize),
        Some(3)
    );
}

#[test]
fn malformed_lines_get_error_reports_and_fail_the_exit_code() {
    let input = concat!(
        "this is not json\n",
        "{\"id\":\"no-input\",\"model\":\"ra\"}\n",
        "{\"id\":\"bad-model\",\"program\":\"vars x; thread t { x := 1; }\",\"model\":\"tso\"}\n",
        "{\"id\":\"bad-prog\",\"program\":\"vars x; thread t { y := 1; }\"}\n",
        "{\"id\":\"unknown-key\",\"program\":\"vars x; thread t { x := 1; }\",\"frobnicate\":1}\n",
        "{\"id\":\"fine\",\"program\":\"vars x; thread t { x := 1; }\"}\n",
    );
    let (ok, lines) = run_c11serve(&[], input);
    assert!(!ok, "a stream with errors must exit non-zero");
    assert_eq!(lines.len(), 7, "6 lines + summary: {lines:?}");

    // Malformed JSON: no parsable id, so the line number stands in.
    assert_eq!(s(&lines[0], "id"), Some("line-1"));
    assert_eq!(s(&lines[0], "status"), Some("error"));
    assert!(s(&lines[0], "error").unwrap().contains("json error"));

    for (idx, needle) in [
        (1, "exactly one of"),
        (2, "\"model\" must be"),
        (3, "parse error"),
        (4, "unknown key"),
    ] {
        assert_eq!(s(&lines[idx], "status"), Some("error"), "{lines:?}");
        assert!(
            s(&lines[idx], "error").unwrap().contains(needle),
            "line {idx}: {:?}",
            lines[idx]
        );
    }

    // The good line still got its report — errors are per-line.
    assert_eq!(s(&lines[5], "id"), Some("fine"));
    assert_eq!(s(&lines[5], "status"), Some("ok"));

    let summary = &lines[6];
    assert_eq!(summary.get("jobs").and_then(Json::as_usize), Some(6));
    assert_eq!(summary.get("ok").and_then(Json::as_usize), Some(1));
    assert_eq!(summary.get("errors").and_then(Json::as_usize), Some(5));
}

#[test]
fn litmus_corpus_streams_through_the_service() {
    // The CI smoke job in shell form: one litmus_path request per corpus
    // file, every line must come back ok with a passing verdict.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    assert!(files.len() >= 12, "12-file corpus expected");
    let input: String = files
        .iter()
        .map(|p| {
            format!(
                "{{\"id\":\"{}\",\"litmus_path\":\"{}\"}}\n",
                p.file_stem().unwrap().to_str().unwrap(),
                p.display()
            )
        })
        .collect();
    let (ok, lines) = run_c11serve(&["--workers", "4"], &input);
    assert!(ok, "corpus must stream clean: {lines:?}");
    let (summary, reports) = lines.split_last().unwrap();
    assert_eq!(reports.len(), files.len());
    for (line, file) in reports.iter().zip(&files) {
        assert_eq!(s(line, "status"), Some("ok"), "{}", file.display());
        assert_eq!(
            line.get("pass").and_then(Json::as_bool),
            Some(true),
            "{}",
            file.display()
        );
    }
    assert_eq!(
        summary.get("litmus_failed").and_then(Json::as_usize),
        Some(0)
    );
    assert_eq!(
        summary.get("ok").and_then(Json::as_usize),
        Some(files.len())
    );
}

/// The sleep-set reduction over the request-line surface, as a string
/// and as an object: first submission computes, resubmission in the
/// same stream is a cache hit (an exhaustive-contract reduction does
/// not split the cache key), and unknown names are rejected — as is the
/// removed single-axis `"backend"` key.
#[test]
fn dpor_backend_requests_compute_cold_and_hit_warm() {
    let input = concat!(
        "{\"id\":\"cold\",\"litmus_path\":\"litmus/mp_ra.litmus\",\"reduction\":\"sleep-set\"}\n",
        "{\"id\":\"warm\",\"litmus_path\":\"litmus/mp_ra.litmus\",",
        "\"reduction\":{\"kind\":\"sleep-set\",\"contract\":\"exhaustive\"}}\n",
        "{\"id\":\"obj\",\"program\":\"vars x; thread t { x := 1; }\",",
        "\"reduction\":{\"kind\":\"sleep-set\"}}\n",
        "{\"id\":\"bad\",\"program\":\"vars x; thread t { x := 1; }\",",
        "\"reduction\":\"warp-drive\"}\n",
        "{\"id\":\"gone\",\"program\":\"vars x; thread t { x := 1; }\",",
        "\"backend\":\"dpor\"}\n",
    );
    let (ok, lines) = run_c11serve(&[], input);
    assert!(!ok, "the bad reduction line must fail the exit code");
    assert_eq!(lines.len(), 6, "5 reports + summary: {lines:?}");

    let hit = |v: &Json| v.get("cache_hit").and_then(Json::as_bool);
    assert_eq!(s(&lines[0], "id"), Some("cold"));
    assert_eq!(hit(&lines[0]), Some(false), "first sleep-set pass computes");
    assert_eq!(s(&lines[1], "id"), Some("warm"));
    assert_eq!(
        hit(&lines[1]),
        Some(true),
        "object-spelled resubmission hits the same cache entry"
    );
    for line in &lines[..2] {
        assert_eq!(s(line, "status"), Some("ok"));
        assert_eq!(
            line.get("backend").and_then(|b| s(b, "kind")),
            Some("sequential"),
            "reports carry the computing engine"
        );
        assert_eq!(
            line.get("reduction").and_then(|r| s(r, "kind")),
            Some("sleep-set"),
            "reports carry the computing reduction"
        );
        assert_eq!(
            line.get("reduction").and_then(|r| s(r, "contract")),
            Some("exhaustive")
        );
        assert_eq!(line.get("pass").and_then(Json::as_bool), Some(true));
    }
    assert_eq!(s(&lines[2], "status"), Some("ok"), "object spelling works");
    assert_eq!(
        lines[2].get("reduction").and_then(|r| s(r, "kind")),
        Some("sleep-set")
    );
    assert_eq!(s(&lines[3], "status"), Some("error"));
    assert!(
        s(&lines[3], "error").unwrap().contains("sleep-set"),
        "the error names the valid reductions: {:?}",
        lines[3]
    );
    assert_eq!(s(&lines[4], "status"), Some("error"));
    assert!(
        s(&lines[4], "error")
            .unwrap()
            .contains("unknown key \"backend\""),
        "the single-axis spelling is gone: {:?}",
        lines[4]
    );
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

/// A deeply nested program is answered with a positioned error instead
/// of overflowing a worker's stack, and the request after it is still
/// answered.
#[test]
fn deeply_nested_programs_get_an_error_and_the_stream_continues() {
    let mut input = String::new();
    for prog in nested_programs() {
        input += &format!("{{\"id\":\"deep\",\"program\":\"{prog}\"}}\n");
        input += "{\"id\":\"next\",\"program\":\"vars x; thread t { x := 1; }\"}\n";
    }
    let (ok, lines) = run_c11serve(&[], &input);
    assert!(!ok, "nesting errors fail the exit code");
    assert_eq!(lines.len(), 7, "6 answers + summary: {lines:?}");
    for pair in lines[..6].chunks(2) {
        assert_eq!(s(&pair[0], "status"), Some("error"), "{:?}", pair[0]);
        assert!(s(&pair[0], "error")
            .unwrap()
            .contains("nesting deeper than"));
        assert_eq!(s(&pair[1], "status"), Some("ok"), "{:?}", pair[1]);
    }
}

/// An oversized request line is answered with a positioned error — and
/// only that line: the stream keeps going and later requests still get
/// their reports.
#[test]
fn oversized_lines_get_a_positioned_error_and_the_stream_continues() {
    let mut input = Vec::new();
    input.extend_from_slice(&vec![b'a'; (1 << 20) + 64]);
    input.push(b'\n');
    input.extend_from_slice(b"{\"id\":\"after\",\"program\":\"vars x; thread t { x := 1; }\"}\n");
    let (ok, lines) = run_c11serve_bytes(&[], &input);
    assert!(!ok, "an oversized line is a genuine error");
    assert_eq!(lines.len(), 3, "error + report + summary: {lines:?}");
    assert_eq!(s(&lines[0], "id"), Some("line-1"));
    assert_eq!(s(&lines[0], "status"), Some("error"));
    let err = s(&lines[0], "error").unwrap();
    assert!(
        err.contains("line 1") && err.contains("byte cap"),
        "positioned oversize error: {err}"
    );
    assert_eq!(s(&lines[1], "id"), Some("after"));
    assert_eq!(s(&lines[1], "status"), Some("ok"));
}

/// Bytes that are not valid UTF-8 no longer kill the stream: the line
/// is rejected with the offset of the first bad byte and reading
/// continues at the next line.
#[test]
fn malformed_utf8_lines_are_rejected_in_place() {
    let mut input = Vec::new();
    input.extend_from_slice(b"{\"id\":\"first\",\"program\":\"vars x; thread t { x := 1; }\"}\n");
    input.extend_from_slice(b"{\"id\":\"bad\xff\xfe\"}\n");
    input.extend_from_slice(b"{\"id\":\"last\",\"program\":\"vars x; thread t { x := 2; }\"}\n");
    let (ok, lines) = run_c11serve_bytes(&[], &input);
    assert!(!ok, "the invalid line must fail the exit code");
    assert_eq!(lines.len(), 4, "2 reports + error + summary: {lines:?}");
    assert_eq!(s(&lines[0], "status"), Some("ok"));
    assert_eq!(s(&lines[1], "id"), Some("line-2"));
    assert_eq!(s(&lines[1], "status"), Some("error"));
    let err = s(&lines[1], "error").unwrap();
    assert!(
        err.contains("UTF-8") && err.contains("offset 10"),
        "positioned UTF-8 error: {err}"
    );
    assert_eq!(s(&lines[2], "id"), Some("last"));
    assert_eq!(s(&lines[2], "status"), Some("ok"));
}

/// A request whose deadline already passed comes back as a well-formed
/// `"timed_out"` report — not an error, not a hang — under all three
/// backends, and timeouts do not fail the exit code.
#[test]
fn tiny_timeouts_yield_timed_out_reports_not_errors() {
    let contended = "vars x; \
         thread t1 { x := 1; x := 2; x := 3; x := 4; } \
         thread t2 { x := 5; x := 6; x := 7; x := 8; } \
         thread t3 { x := 9; x := 10; x := 11; x := 12; } \
         thread t4 { x := 13; x := 14; x := 15; x := 16; }";
    let input = format!(
        concat!(
            "{{\"id\":\"seq\",\"program\":\"{p}\",\"timeout_ms\":0}}\n",
            "{{\"id\":\"par\",\"program\":\"{p}\",\"timeout_ms\":0,\"engine\":{{\"kind\":\"parallel\",\"workers\":4}}}}\n",
            "{{\"id\":\"dpor\",\"program\":\"{p}\",\"timeout_ms\":0,\"reduction\":\"sleep-set\"}}\n",
        ),
        p = contended
    );
    let (ok, lines) = run_c11serve(&["--auto-parallel", "0"], &input);
    assert!(ok, "timeouts are not genuine errors: {lines:?}");
    assert_eq!(lines.len(), 4, "3 reports + summary: {lines:?}");
    for (line, id) in lines[..3].iter().zip(["seq", "par", "dpor"]) {
        assert_eq!(s(line, "id"), Some(id));
        assert_eq!(s(line, "status"), Some("timed_out"), "{line:?}");
        assert_eq!(
            line.get("stats")
                .and_then(|st| st.get("interrupt"))
                .and_then(Json::as_str),
            Some("timed_out")
        );
    }
    let summary = &lines[3];
    assert_eq!(summary.get("interrupted").and_then(Json::as_usize), Some(3));
    assert_eq!(summary.get("errors").and_then(Json::as_usize), Some(0));
}

/// The `{"stats": true}` control line answers with the session counters
/// as a `session-stats` document; extra keys are rejected strictly.
#[test]
fn stats_control_lines_report_session_counters() {
    let input = format!(
        concat!(
            "{{\"id\":\"warmup\",\"program\":\"{sb}\"}}\n",
            "{{\"id\":\"again\",\"program\":\"{sb}\"}}\n",
            "{{\"id\":\"reduced\",\"program\":\"{sb}\",\"reduction\":\"source-set\"}}\n",
            "{{\"id\":\"st\",\"stats\":true}}\n",
            "{{\"id\":\"bad\",\"stats\":true,\"program\":\"vars x; thread t {{ x := 1; }}\"}}\n",
            "{{\"id\":\"off\",\"stats\":false}}\n",
        ),
        sb = SB
    );
    let (ok, lines) = run_c11serve(&[], &input);
    assert!(!ok, "the malformed stats lines must fail the exit code");
    assert_eq!(lines.len(), 7, "6 responses + summary: {lines:?}");
    let stats = &lines[3];
    assert_eq!(s(stats, "id"), Some("st"));
    assert_eq!(s(stats, "status"), Some("ok"));
    assert_eq!(s(stats, "mode"), Some("session-stats"));
    // Two explorations: the exhaustive warmup and the finals-only
    // source-set pass, which may not share a cache entry (the contract
    // is part of the key) and is tallied under its own counter.
    assert_eq!(stats.get("explorations").and_then(Json::as_usize), Some(2));
    assert_eq!(
        stats.get("explorations_none").and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(
        stats.get("explorations_sleep_set").and_then(Json::as_usize),
        Some(0)
    );
    assert_eq!(
        stats
            .get("explorations_source_set")
            .and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(stats.get("cache_hits").and_then(Json::as_usize), Some(1));
    assert_eq!(stats.get("completed").and_then(Json::as_usize), Some(3));
    assert_eq!(
        stats.get("persist_loaded").and_then(Json::as_usize),
        Some(0)
    );
    // A stats key mixed into a check request is ambiguous: rejected.
    assert_eq!(s(&lines[4], "status"), Some("error"));
    // So is any value other than `true`.
    assert_eq!(s(&lines[5], "status"), Some("error"));
    // Stats probes are not jobs: the summary counts only the real ones.
    assert_eq!(lines[6].get("jobs").and_then(Json::as_usize), Some(5))
}

/// SIGINT requests the same graceful drain as SIGTERM: the service stops
/// reading *while stdin is still open*, answers everything in flight,
/// prints the batch summary, and exits 0.
#[test]
fn sigint_drains_gracefully_with_stdin_still_open() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut child = Command::new(env!("CARGO_BIN_EXE_c11serve"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c11serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    writeln!(stdin, "{{\"id\":\"one\",\"program\":\"{SB}\"}}").unwrap();
    stdin.flush().unwrap();
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let report = Json::parse(line.trim()).unwrap();
    assert_eq!(s(&report, "id"), Some("one"));
    assert_eq!(s(&report, "status"), Some("ok"));

    Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    // A blank line wakes the (blocking) reader so it can see the flag;
    // stdin stays open throughout — only the signal ends the stream.
    writeln!(stdin).unwrap();
    stdin.flush().unwrap();
    line.clear();
    stdout.read_line(&mut line).unwrap();
    let summary = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad summary ({e}): {line}"));
    assert_eq!(s(&summary, "mode"), Some("batch-summary"));
    assert_eq!(summary.get("jobs").and_then(Json::as_usize), Some(1));
    assert_eq!(summary.get("ok").and_then(Json::as_usize), Some(1));
    let status = child.wait().unwrap();
    assert!(status.success(), "a signal-driven drain exits 0");
    drop(stdin);
}

/// A burst past `--max-queue` gets structured `"overloaded"` lines
/// instead of unbounded queueing; accepted requests still complete and
/// overload alone does not fail the exit code.
#[test]
fn bursts_beyond_max_queue_answer_overloaded() {
    let input: String = (0..24)
        .map(|n| {
            format!(
                "{{\"id\":\"burst-{n}\",\"program\":\"vars x y z; \
                 thread t1 {{ x := {n}; y := {n}; z := {n}; }} \
                 thread t2 {{ y := 1; z := 2; x := 3; }} \
                 thread t3 {{ r0 <- z; r1 <- x; r2 <- y; }}\"}}\n"
            )
        })
        .collect();
    let (ok, lines) = run_c11serve(&["--workers", "1", "--max-queue", "1"], &input);
    assert!(ok, "overload is not a genuine error: {lines:?}");
    assert_eq!(lines.len(), 25, "24 responses + summary: {lines:?}");
    let mut served = 0;
    let mut bounced = 0;
    for line in &lines[..24] {
        match s(line, "status") {
            Some("ok") => served += 1,
            Some("overloaded") => bounced += 1,
            other => panic!("unexpected status {other:?}: {line:?}"),
        }
    }
    assert!(served >= 1, "the first request is always accepted");
    assert!(bounced >= 1, "queue depth 1 must bounce part of a 24-burst");
    let summary = &lines[24];
    assert_eq!(
        summary.get("overloaded").and_then(Json::as_usize),
        Some(bounced)
    );
    assert_eq!(summary.get("ok").and_then(Json::as_usize), Some(served));
}
