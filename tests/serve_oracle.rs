//! Session-oracle conformance suite for `auto-model serve` (tier-1).
//!
//! Drives a real spawned server over the real TCP JSONL protocol and
//! checks the serving contracts end to end:
//!
//! * **Session isolation / determinism** — N concurrent sessions each
//!   produce a trial history byte-identical to the same session run
//!   alone, at 1, 2 and 8 executor threads, including when one of the
//!   concurrent sessions runs with injected trial faults.
//! * **Cache-sharing correctness** — a warm session (same request
//!   replayed through the shared trial cache) is bit-exact with the
//!   cold one.
//! * **Fault containment** — a session with a hostile fault plan
//!   answers on its own response line and leaves every other session's
//!   bytes untouched.
//! * **Budget enforcement** — sessions never exceed their evaluation
//!   budget, and over-ceiling requests are rejected typed.
//! * **Robustness** — malformed request lines get typed errors and the
//!   server keeps answering on the same connection.
//! * **Cross-commit answers** — four fixed `auto` sessions, each on a
//!   fresh in-process [`Server`], answer byte-for-byte what the
//!   checked-in golden recorded (regenerate deliberately with
//!   `AUTOMODEL_REGOLDEN=1`).

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::thread;

use auto_model::ml::Registry;
use auto_model::serve::{Server, ServerConfig};
use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_auto-model");

/// Env vars the oracle controls per server; anything inherited from the
/// surrounding shell must not leak in.
const CONTROLLED_ENV: &[&str] = &[
    "AUTOMODEL_CACHE",
    "AUTOMODEL_FAULTS",
    "AUTOMODEL_TRACE",
    "AUTOMODEL_THREADS",
    "AUTOMODEL_REGOLDEN",
    "AUTOMODEL_CRASH_AFTER",
];

/// A spawned `serve --listen 127.0.0.1:0` child, killed on drop.
struct ServerHandle {
    child: Child,
    addr: String,
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Build one persisted DMD artifact for the whole suite: every server
/// spawn loads it instead of retraining a demo model, which both speeds
/// the suite up and exercises the artifact-loading startup path.
fn artifact() -> &'static PathBuf {
    static ARTIFACT: OnceLock<PathBuf> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("automodel-serve-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let path = dir.join("dmd.store");
        let mut cmd = Command::new(BIN);
        cmd.args(["dmd", "build", "--out"])
            .arg(&path)
            .current_dir(&dir);
        for var in CONTROLLED_ENV {
            cmd.env_remove(var);
        }
        let out = cmd.output().expect("spawn dmd build");
        assert!(
            out.status.success(),
            "dmd build failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    })
}

fn spawn_server(threads: &str, extra: &[&str]) -> ServerHandle {
    let mut cmd = Command::new(BIN);
    cmd.args(["serve", "--listen", "127.0.0.1:0", "--artifact"])
        .arg(artifact())
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for var in CONTROLLED_ENV {
        cmd.env_remove(var);
    }
    cmd.env("AUTOMODEL_THREADS", threads);
    let mut child = cmd.spawn().expect("spawn auto-model serve");
    let stdout = child.stdout.take().expect("server stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    ServerHandle { child, addr }
}

/// One request over its own connection; returns the raw response line.
fn roundtrip(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("send request");
    stream.flush().expect("flush request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "server closed without answering");
    line.trim_end().to_string()
}

fn request(id: &str, seed: u64, budget: usize, extra: &str) -> String {
    format!(
        concat!(
            "{{\"id\":\"{}\",\"seed\":{},\"budget\":{},\"folds\":3,",
            "\"algorithm\":\"IBk\",{}\"dataset\":{{\"synth\":{{\"rows\":80,",
            "\"numeric\":3,\"categorical\":1,\"classes\":2,",
            "\"family\":\"hyperplane\",\"seed\":11}}}}}}"
        ),
        id, seed, budget, extra
    )
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response JSON {line:?}: {e}"))
}

fn expect_ok(line: &str) -> Value {
    let value = parse(line);
    assert!(
        matches!(value.get("ok"), Some(Value::Bool(true))),
        "session failed: {line}"
    );
    value
}

/// The byte string the determinism contract is stated over: the
/// provenance-filtered history plus the canonical score bits.
fn identity(value: &Value) -> (Vec<String>, String) {
    let history = match value.get("history") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| v.as_str().expect("history lines are strings").to_string())
            .collect(),
        other => panic!("missing history: {other:?}"),
    };
    let bits = value
        .get("score_bits")
        .and_then(|v| v.as_str())
        .expect("score_bits")
        .to_string();
    (history, bits)
}

/// The crown-jewel gate: four concurrent sessions — one of them under
/// injected trial faults — each byte-identical to the same session run
/// alone, at the given executor width.
fn isolation_drill(threads: &str) {
    let server = spawn_server(threads, &[]);
    let sessions: Vec<(u64, &str)> = vec![
        (201, ""),
        (202, ""),
        (203, "\"faults\":\"seed=9,nan=0.4\","),
        (204, ""),
    ];

    // Alone: each session on an otherwise idle server.
    let solo: Vec<_> = sessions
        .iter()
        .map(|(seed, extra)| {
            let line = roundtrip(&server.addr, &request("solo", *seed, 8, extra));
            identity(&expect_ok(&line))
        })
        .collect();

    // Concurrent: the same four sessions at once, each on its own
    // connection, admission-scheduled by the round-robin gate.
    let workers: Vec<_> = sessions
        .iter()
        .map(|(seed, extra)| {
            let addr = server.addr.clone();
            let req = request("conc", *seed, 8, extra);
            thread::spawn(move || {
                let line = roundtrip(&addr, &req);
                identity(&expect_ok(&line))
            })
        })
        .collect();
    for (expected, worker) in solo.iter().zip(workers) {
        let got = worker.join().expect("session thread");
        assert_eq!(
            expected, &got,
            "concurrency changed a session's bytes at {threads} thread(s)"
        );
    }
}

#[test]
fn concurrent_sessions_are_byte_identical_to_solo_one_thread() {
    isolation_drill("1");
}

#[test]
fn concurrent_sessions_are_byte_identical_to_solo_two_threads() {
    isolation_drill("2");
}

#[test]
fn concurrent_sessions_are_byte_identical_to_solo_eight_threads() {
    isolation_drill("8");
}

#[test]
fn warm_session_replays_cold_bit_exactly() {
    let server = spawn_server("2", &[]);
    let cold = expect_ok(&roundtrip(&server.addr, &request("cold", 55, 8, "")));
    let warm = expect_ok(&roundtrip(&server.addr, &request("warm", 55, 8, "")));
    assert_eq!(identity(&cold), identity(&warm));
    // The warm run must actually have used the shared cache, not just
    // recomputed: its hit counter moves.
    let hits = warm
        .get("cache_hits")
        .and_then(|v| v.as_f64())
        .expect("cache_hits");
    assert!(hits > 0.0, "warm session never touched the shared cache");
}

#[test]
fn faulty_session_answers_typed_and_contained() {
    let server = spawn_server("2", &[]);
    let clean_before = identity(&expect_ok(&roundtrip(
        &server.addr,
        &request("fc-clean", 77, 8, ""),
    )));
    // NaN on every first attempt: faults are transient (the policy's
    // retry re-runs clean), so the session still answers — but every
    // trial must show the retry in its durable attempt count, proving
    // the per-session fault plan really fired in this process.
    let hostile = roundtrip(
        &server.addr,
        &request("fc-hostile", 77, 8, "\"faults\":\"seed=3,nan=1.0\","),
    );
    let value = parse(&hostile);
    match value.get("ok") {
        Some(Value::Bool(true)) => {
            let (history, _) = identity(&value);
            let retried = history
                .iter()
                .filter(|line| {
                    line.contains("\"ev\":\"trial_end\"") && line.contains("\"attempts\":2")
                })
                .count();
            assert!(retried > 0, "fault plan never fired: {hostile}");
        }
        Some(Value::Bool(false)) => {
            let kind = value
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str())
                .expect("typed error kind");
            assert_eq!(kind, "session", "unexpected error kind in {hostile}");
        }
        other => panic!("unparseable outcome {other:?} in {hostile}"),
    }
    // The shared substrate is untouched: the clean session still
    // replays byte-identically after the hostile one.
    let clean_after = identity(&expect_ok(&roundtrip(
        &server.addr,
        &request("fc-clean2", 77, 8, ""),
    )));
    assert_eq!(clean_before, clean_after);
}

#[test]
fn budgets_are_enforced_and_over_ceiling_rejected() {
    let server = spawn_server("2", &["--max-budget", "16"]);
    let ok = expect_ok(&roundtrip(&server.addr, &request("bd", 5, 6, "")));
    let trials = ok.get("trials").and_then(|v| v.as_f64()).expect("trials");
    assert!(trials <= 6.0, "budget 6 but ran {trials} trials");

    let rejected = parse(&roundtrip(&server.addr, &request("bd-big", 5, 32, "")));
    assert!(matches!(rejected.get("ok"), Some(Value::Bool(false))));
    let kind = rejected
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .expect("error kind");
    assert_eq!(kind, "invalid-value");
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let server = spawn_server("1", &[]);
    let stream = TcpStream::connect(&server.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let malformed = [
        ("{not json", "invalid-json"),
        ("[]", "not-object"),
        ("{\"id\":\"x\"}", "missing-field"),
        ("{\"id\":\"x\",\"seed\":1,\"boom\":2}", "unknown-field"),
        (
            "{\"id\":\"../etc\",\"dataset\":{\"csv\":\"a\"}}",
            "invalid-value",
        ),
    ];
    for (line, expected_kind) in malformed {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .expect("send malformed line");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let value = parse(response.trim_end());
        assert!(
            matches!(value.get("ok"), Some(Value::Bool(false))),
            "malformed line accepted: {line}"
        );
        let kind = value
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str())
            .expect("error kind");
        assert_eq!(kind, expected_kind, "line: {line}");
    }
    // Same connection, now a valid request: the server must still serve.
    writer
        .write_all(format!("{}\n", request("recover", 3, 4, "")).as_bytes())
        .and_then(|()| writer.flush())
        .expect("send valid line");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    expect_ok(response.trim_end());
}

/// The four sessions the served-history golden pins: a named IBk and a
/// named RandomForest `auto` session, a DMD-selected one, and an `auto`
/// session under a per-session fault plan.
const GOLDEN_REQUESTS: &[&str] = &[
    concat!(
        "{\"id\":\"g-ibk\",\"seed\":7,\"budget\":10,\"folds\":3,",
        "\"algorithm\":\"IBk\",\"dataset\":{\"synth\":{\"rows\":90,",
        "\"numeric\":3,\"categorical\":1,\"classes\":2,",
        "\"family\":\"hyperplane\",\"seed\":21}}}"
    ),
    concat!(
        "{\"id\":\"g-rf\",\"seed\":8,\"budget\":6,\"folds\":3,",
        "\"algorithm\":\"RandomForest\",\"dataset\":{\"synth\":{\"rows\":80,",
        "\"numeric\":4,\"categorical\":0,\"classes\":3,",
        "\"family\":\"blobs\",\"seed\":22}}}"
    ),
    concat!(
        "{\"id\":\"g-dmd\",\"seed\":9,\"budget\":8,\"folds\":3,",
        "\"dataset\":{\"synth\":{\"rows\":100,",
        "\"numeric\":5,\"categorical\":1,\"classes\":2,",
        "\"family\":\"hyperplane\",\"seed\":23}}}"
    ),
    concat!(
        "{\"id\":\"g-faults\",\"seed\":10,\"budget\":8,\"folds\":3,",
        "\"algorithm\":\"IBk\",\"faults\":\"seed=4,nan=0.5\",",
        "\"dataset\":{\"synth\":{\"rows\":80,",
        "\"numeric\":3,\"categorical\":1,\"classes\":2,",
        "\"family\":\"hyperplane\",\"seed\":24}}}"
    ),
];

/// Served answers across commits: perfbench only compares answers from
/// one binary (warm == cold, concurrent == solo), so this pins the
/// answer lines themselves. Each request runs on a fresh server — no
/// shared pool can warm it — loaded from the suite's artifact.
#[test]
fn auto_session_answers_match_the_golden() {
    let mut answers = String::new();
    for line in GOLDEN_REQUESTS {
        let server = Server::from_artifact(artifact(), Registry::full(), ServerConfig::default())
            .expect("load the suite artifact");
        let answer = server.handle_line(line).to_line();
        expect_ok(&answer);
        answers.push_str(&answer);
        answers.push('\n');
    }
    common::assert_matches_golden("serve_auto_histories.jsonl", &answers);
    assert!(
        !common::regolden(),
        "golden files regenerated; unset AUTOMODEL_REGOLDEN and re-run"
    );
}
