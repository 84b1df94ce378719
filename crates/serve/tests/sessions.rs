//! In-process session semantics: determinism under sharing, fault
//! containment, budget enforcement. The workspace-root
//! `tests/serve_oracle.rs` drives the same contracts over the real
//! spawned-binary protocol; this file checks them at the library seam
//! where failures are cheap to localize.

use std::sync::{Arc, OnceLock};

use automodel_core::{Dmd, DmdConfig, DmdInput};
use automodel_knowledge::CorpusSpec;
use automodel_parallel::TrialCache;
use automodel_serve::{Server, ServerConfig};

static DMD: OnceLock<Dmd> = OnceLock::new();
static SERVER: OnceLock<Arc<Server>> = OnceLock::new();

/// A server with no sessions run yet, around the file's one demo DMD.
fn fresh_server() -> Server {
    let dmd = DMD.get_or_init(|| {
        let corpus = CorpusSpec::small().build();
        let input = DmdInput::synthetic_from_corpus(&corpus, 60, 5);
        DmdConfig::fast().run(&input).expect("demo DMD")
    });
    let snapshot = TrialCache::new(1).snapshot();
    Server::new(dmd.clone(), &snapshot, ServerConfig::default())
}

/// One shared server for the whole file: sessions sharing one cache is
/// the production shape, and the determinism assertions below must hold
/// through that sharing.
fn server() -> Arc<Server> {
    SERVER.get_or_init(|| Arc::new(fresh_server())).clone()
}

fn request(id: &str, seed: u64, extra: &str) -> String {
    format!(
        concat!(
            "{{\"id\":\"{}\",\"seed\":{},\"budget\":8,\"folds\":3,",
            "\"algorithm\":\"IBk\",{}\"dataset\":{{\"synth\":{{\"rows\":80,",
            "\"numeric\":3,\"categorical\":1,\"classes\":2,",
            "\"family\":\"hyperplane\",\"seed\":11}}}}}}"
        ),
        id, seed, extra
    )
}

#[test]
fn identical_requests_replay_byte_identically() {
    let server = server();
    let cold = server.handle_line(&request("replay-a", 5, ""));
    let warm = server.handle_line(&request("replay-b", 5, ""));
    let cold = cold.outcome.expect("cold session solves");
    let warm = warm.outcome.expect("warm session solves");
    assert!(!cold.history.is_empty());
    // The warm run replays the cold run through the shared cache; the
    // filtered history and the score bits must not move.
    assert_eq!(cold.history, warm.history);
    assert_eq!(cold.score.to_bits(), warm.score.to_bits());
    assert_eq!(cold.config, warm.config);
}

#[test]
fn concurrent_sessions_match_their_solo_histories() {
    let server = server();
    let seeds = [101u64, 102, 103, 104];
    let solo: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let result = server.handle_line(&request("solo", seed, ""));
            result.outcome.expect("solo session solves").history
        })
        .collect();
    let handles: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let result = server.handle_line(&request("conc", seed, ""));
                result.outcome.expect("concurrent session solves").history
            })
        })
        .collect();
    for (expected, handle) in solo.iter().zip(handles) {
        let got = handle.join().expect("session thread");
        assert_eq!(expected, &got, "concurrency changed a session history");
    }
}

#[test]
fn faulty_session_is_contained() {
    let server = server();
    let clean_before = server
        .handle_line(&request("contain-clean", 31, ""))
        .outcome
        .expect("clean session solves");
    // A hostile fault plan in one session: NaN scores at a high rate.
    let faulty = server.handle_line(&request(
        "contain-faulty",
        31,
        "\"faults\":\"seed=9,nan=0.8\",",
    ));
    // The faulty session answers on its own line — solved-with-
    // quarantines or a typed error, never a panic or a poisoned server.
    match faulty.outcome {
        Ok(solution) => assert!(solution.quarantined > 0 || solution.trials > 0),
        Err(error) => assert_eq!(error.kind.wire(), "session"),
    }
    // And the shared substrate is untouched: a clean rerun still
    // byte-matches the pre-fault history.
    let clean_after = server
        .handle_line(&request("contain-clean2", 31, ""))
        .outcome
        .expect("clean session still solves");
    assert_eq!(clean_before.history, clean_after.history);
}

#[test]
fn budget_ceiling_is_enforced_per_session() {
    let server = server();
    let solved = server
        .handle_line(&request("budget", 7, ""))
        .outcome
        .expect("session solves");
    assert!(
        solved.trials <= 8,
        "budget 8 but ran {} trials",
        solved.trials
    );

    let oversized = server.handle_line(&request("budget-big", 7, "").replacen(
        "\"budget\":8",
        "\"budget\":100000",
        1,
    ));
    let error = oversized.outcome.expect_err("over-ceiling budget rejected");
    assert_eq!(error.kind.wire(), "invalid-value");
}

#[test]
fn malformed_lines_answer_with_typed_errors() {
    let server = server();
    for (line, kind) in [
        ("{", "invalid-json"),
        ("[1,2]", "not-object"),
        ("{\"seed\":1}", "missing-field"),
        (
            "{\"id\":\"x\",\"seed\":1,\"exploit\":true}",
            "unknown-field",
        ),
    ] {
        let result = server.handle_line(line);
        let error = result.outcome.expect_err("malformed line rejected");
        assert_eq!(error.kind.wire(), kind, "line: {line}");
    }
}

/// An inline-CSV IBk request; `csv` is raw CSV text.
fn csv_request(id: &str, csv: &str) -> String {
    format!(
        concat!(
            "{{\"id\":\"{}\",\"seed\":3,\"budget\":6,\"folds\":3,",
            "\"algorithm\":\"IBk\",\"dataset\":{{\"csv\":\"{}\"}}}}"
        ),
        id,
        csv.replace('\n', "\\n")
    )
}

#[test]
fn csv_sessions_share_a_pool_only_with_identical_text() {
    let mut csv = String::from("num:a,num:b,class:y\n");
    for i in 0..48u32 {
        let label = if (i * 7 + 3) % 10 < 5 { 'p' } else { 'q' };
        csv.push_str(&format!(
            "{}.{},{}.{},{label}\n",
            i % 10,
            i % 7,
            i % 9,
            i % 4
        ));
    }
    // Same length, different content: one label flipped.
    let flipped = csv.replacen(",p\n", ",q\n", 1);
    assert_eq!(csv.len(), flipped.len());
    assert_ne!(csv, flipped);

    let server = fresh_server();
    let solve = |id: &str, text: &str| {
        server
            .handle_line(&csv_request(id, text))
            .outcome
            .expect("csv session solves")
    };
    let first = solve("csv-a", &csv);
    assert_eq!((first.cache_hits, server.cache_contexts()), (0, 1));
    // Equal-length but different text: its own pool, so nothing the
    // first session cached can answer it.
    let other = solve("csv-b", &flipped);
    assert_eq!((other.cache_hits, server.cache_contexts()), (0, 2));
    // Identical text under another id: the first session's pool.
    let again = solve("csv-c", &csv);
    assert_eq!(server.cache_contexts(), 2);
    assert!(again.cache_hits > 0, "identical CSV missed its pool");
    assert_eq!(again.history, first.history);
}
