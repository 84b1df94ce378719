//! Session execution over a shared, warm-started substrate.
//!
//! A [`Server`] is built once — loading a persisted DMD artifact — and
//! then runs many sessions concurrently. Each session gets its own
//! seed, budget, tracer, fault policy and (optionally) checkpoint
//! stream; all sessions share the read-mostly DMD, the round-robin
//! batch gate, and — per evaluation context — a pooled [`TrialCache`]
//! through which identical requests warm-replay each other, beside the
//! context's dataset and algorithm selection, computed once (see
//! [`Server`] for why the pools are context-keyed).
//!
//! **Session determinism contract:** the same request (id aside) with
//! the same seed produces a byte-identical filtered trial history
//! regardless of which — or how many — other sessions run concurrently,
//! and regardless of executor width. Three design rules carry it:
//!
//! 1. The probe clock is pinned to a [`ManualClock`], so the `auto`
//!    GA-vs-BO routing cannot flip under load: the probe reads zero and
//!    every `auto` session routes to the GA. Since a clock nobody
//!    advances cannot time anything, UDR skips the probe's evaluation
//!    outright; the `udr.probe` stage events stay in the history.
//! 2. The batch gate is timing-only (see
//!    [`BatchGate`](automodel_hpo::BatchGate)): it reorders wall-clock
//!    interleavings, never trial content.
//! 3. The history is the session's trace stream with provenance-only
//!    events ([`PROVENANCE_KINDS`]) filtered out — a shared-cache hit
//!    replays the identical outcome it memoized, so whether a trial was
//!    computed or replayed is invisible in the filtered stream. A
//!    history sink on the session tracer keeps the non-provenance lines
//!    as they are encoded, so nothing is re-parsed. The dataset and the
//!    DMD selection a warm session reuses from its context pool are
//!    pure functions of the context key, so reusing them changes no
//!    byte of the history either.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use automodel_core::{CoreError, Dmd, DmdArtifact, UdrConfig};
use automodel_data::csv::read_csv;
use automodel_data::Dataset;
use automodel_hpo::{BatchGate, Budget, ManualClock};
use automodel_ml::Registry;
use automodel_parallel::{CacheSnapshot, TrialCache};
use automodel_store::{
    load_latest, Checkpointer, RecoveryError, StoreArtifact, StoreReader, DEFAULT_KEEP,
};
use automodel_trace::{parse_line, Sink, TraceError, TraceRecord, Tracer};
use parking_lot::Mutex;

use crate::gate::RoundRobinGate;
use crate::protocol::{
    DatasetSpec, ErrorKind, ProtocolError, SessionRequest, SessionResult, SessionSolution,
};

/// Trace event kinds that record *provenance* (where an outcome came
/// from) rather than *history* (what the outcome was). They are
/// filtered out of the session history because they legitimately vary
/// with cache temperature and checkpoint cadence while the trial
/// content stays bit-identical.
///
/// `fault` and `retry` are in the list for the same reason: they trace
/// the *live* evaluation path, and a shared-cache replay of the same
/// trial skips them while carrying their durable content — the
/// `attempts` count and final status — inside `trial_end`, which stays
/// in the history and is identity-checked.
pub const PROVENANCE_KINDS: &[&str] = &[
    "cache_hit",
    "cache_miss",
    "warm_hit",
    "artifact_load",
    "checkpoint",
    "recovery",
    "fault",
    "retry",
];

/// Server-side admission and placement knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission ceiling on a session's evaluation budget; requests
    /// beyond it are rejected with an `invalid-value` error.
    pub max_budget: usize,
    /// Per-session JSONL trace files land here as `<id>.jsonl`.
    pub trace_dir: Option<PathBuf>,
    /// Per-session checkpoint generations land here under `<id>`;
    /// `"checkpoint": true` requests are rejected when unset.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_budget: 512,
            trace_dir: None,
            checkpoint_dir: None,
        }
    }
}

/// Most contexts a server keeps live; the oldest one — its trial cache,
/// dataset and selection together — is evicted past this (FIFO),
/// trading warm replays for bounded memory.
const MAX_CACHE_CONTEXTS: usize = 64;

/// Everything a session derives from its context key alone, computed by
/// the context's first request and shared by every later one.
#[derive(Debug)]
struct Context {
    cache: Arc<TrialCache>,
    data: Dataset,
    /// The requested algorithm, or the DMD's selection on `data` — `Err`
    /// when nothing is applicable, answered as a `session` error each
    /// time, exactly as [`UdrConfig::solve`] would.
    algorithm: Result<String, CoreError>,
}

/// The long-running service: one loaded DMD, context-keyed pools (trial
/// cache, dataset, algorithm selection), one batch-gate rotation, many
/// concurrent sessions.
///
/// **Why the trial cache is keyed by evaluation context.** Cache keys
/// inside the optimizers are `config @ fidelity` fingerprints — they
/// deliberately omit the dataset, the seed, the fold count and the
/// fault plan, because a single tuning run holds all of those fixed.
/// A server does not: two sessions may tune the same algorithm on
/// different datasets or seeds, and a cached score is only a valid
/// replay *within the context that measured it*. So the server pools
/// caches by a context fingerprint (algorithm, optimizer, seed, folds,
/// fault plan, dataset); sessions with identical context share a pool
/// and warm-replay each other bit-exactly, while different contexts —
/// including a faulty session next to a clean one — are fully
/// isolated. The artifact's persisted snapshot is *not* poured into
/// session pools for the same reason: its entries were measured in the
/// DMD build context, not in any session's.
///
/// The same key fixes the materialized dataset and, for DMD-selected
/// requests, the selected algorithm, so a pool holds those too: a warm
/// session neither regenerates its dataset nor reruns the selection.
/// The [`MAX_CACHE_CONTEXTS`] bound covers all three.
#[derive(Debug)]
pub struct Server {
    dmd: Dmd,
    warm: CacheSnapshot,
    contexts: Mutex<Vec<(String, Arc<Context>)>>,
    gate: Arc<RoundRobinGate>,
    config: ServerConfig,
    tickets: AtomicU64,
}

impl Server {
    /// Build a server around an already-loaded DMD plus the artifact's
    /// persisted trial-cache snapshot (reported, kept for inspection,
    /// but never replayed into session pools — see the type docs).
    pub fn new(dmd: Dmd, snapshot: &CacheSnapshot, config: ServerConfig) -> Server {
        Server {
            dmd,
            warm: snapshot.clone(),
            contexts: Mutex::new(Vec::new()),
            gate: RoundRobinGate::new(),
            config,
            tickets: AtomicU64::new(0),
        }
    }

    /// Load a persisted `AMSTORE` artifact (as written by `dmd build`)
    /// and build a server from it: DMD weights plus the warm-start
    /// trial-cache snapshot. The artifact's checksums are verified
    /// before anything is trusted.
    pub fn from_artifact(
        path: &Path,
        registry: Registry,
        config: ServerConfig,
    ) -> Result<Server, String> {
        let reader =
            StoreReader::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        reader
            .verify_all()
            .map_err(|e| format!("verify {}: {e}", path.display()))?;
        let artifact = StoreArtifact::from_reader(&reader)
            .map_err(|e| format!("decode {}: {e}", path.display()))?;
        let (dmd_artifact, snapshot) = DmdArtifact::from_store(artifact);
        let dmd = dmd_artifact
            .into_dmd(registry)
            .map_err(|e| format!("restore DMD from {}: {e}", path.display()))?;
        Ok(Server::new(dmd, &snapshot, config))
    }

    /// Entries in the artifact's persisted trial-cache snapshot.
    pub fn warm_entries(&self) -> usize {
        self.warm.len()
    }

    /// Cache-pool contexts currently live (one per distinct session
    /// evaluation context seen, FIFO-bounded).
    pub fn cache_contexts(&self) -> usize {
        self.contexts.lock().len()
    }

    /// The shared pool for one request's evaluation context, created on
    /// first use. Sessions with byte-equal context fingerprints share a
    /// pool — that is what makes an identical later request warm. A
    /// dataset that fails to materialize creates no context.
    fn context(&self, request: &SessionRequest) -> Result<Arc<Context>, ProtocolError> {
        let key = context_key(request);
        let find = |contexts: &[(String, Arc<Context>)]| {
            contexts
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, context)| Arc::clone(context))
        };
        if let Some(context) = find(&self.contexts.lock()) {
            return Ok(context);
        }
        // Built outside the lock so a cold context never stalls the warm
        // sessions of others; a racing first request of the same context
        // keeps whichever pool landed first, so both share one cache.
        let data = self.materialize(&request.dataset)?;
        let algorithm = match &request.algorithm {
            Some(name) => Ok(name.clone()),
            None => self.dmd.select_algorithm(&data),
        };
        let built = Arc::new(Context {
            cache: Arc::new(TrialCache::default()),
            data,
            algorithm,
        });
        let mut contexts = self.contexts.lock();
        if let Some(context) = find(&contexts) {
            return Ok(context);
        }
        contexts.push((key, Arc::clone(&built)));
        if contexts.len() > MAX_CACHE_CONTEXTS {
            contexts.remove(0);
        }
        Ok(built)
    }

    pub fn max_budget(&self) -> usize {
        self.config.max_budget
    }

    /// Parse one request line and run it to completion. Malformed lines
    /// become typed error responses — the server never panics on input.
    pub fn handle_line(&self, line: &str) -> SessionResult {
        match crate::protocol::parse_request(line, self.config.max_budget) {
            Ok(request) => self.run_session(&request),
            Err(error) => SessionResult::failure("", error),
        }
    }

    /// Run one admitted session to completion. Faults inside the
    /// session (bad dataset, all-trials-failed, checkpoint I/O) are
    /// contained: they become a typed error response for *this* session
    /// and never touch the shared state other sessions read.
    pub fn run_session(&self, request: &SessionRequest) -> SessionResult {
        match self.try_session(request, Tracer::disabled()) {
            Ok(solution) => SessionResult {
                id: request.id.clone(),
                outcome: Ok(solution),
            },
            Err(error) => SessionResult::failure(request.id.clone(), error),
        }
    }

    /// Run one session on `tracer` plus the session's own sinks: the
    /// history sink and, with a `trace_dir`, the per-session JSONL file.
    /// The server passes a disabled tracer; the sink oracle test passes
    /// an in-memory one to see every event beside the history.
    fn try_session(
        &self,
        request: &SessionRequest,
        tracer: Tracer,
    ) -> Result<SessionSolution, ProtocolError> {
        let context = self.context(request)?;

        let (sink, history) = HistorySink::new();
        let tracer = tracer.with_sink(Box::new(sink));
        let tracer = match &self.config.trace_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.jsonl", request.id));
                tracer.with_jsonl(&path).ok_or_else(|| {
                    ProtocolError::new(
                        ErrorKind::Session,
                        format!("cannot open session trace file {}", path.display()),
                    )
                })?
            }
            None => tracer,
        };
        let tracer = Arc::new(tracer);

        let mut udr = UdrConfig::fast()
            .with_optimizer(request.optimizer)
            .with_tracer(Arc::clone(&tracer))
            .with_cache(Arc::clone(&context.cache))
            .with_policy(request.policy());
        udr.seed = request.seed;
        udr.cv_folds = request.folds;
        udr.tuning_budget = Budget::evals(request.budget);
        // Pin the probe clock: probe timing is wall-clock-dependent, and
        // a load-dependent GA-vs-BO flip would break session identity.
        // A clock pinned at time zero reads the probe as "fast", so `auto`
        // routes to the GA, and UDR skips the evaluation it cannot time.
        udr.probe_clock = Arc::new(ManualClock::new());

        if let Some(sink) = self.recovery(request, &context.cache)? {
            udr = udr.with_checkpoint(sink);
        }

        let ticket = Arc::new(self.gate.join(self.tickets.fetch_add(1, Ordering::Relaxed)));
        udr = udr.with_gate(Arc::clone(&ticket) as Arc<dyn BatchGate>);

        // What `UdrConfig::solve` does, with the selection memoized in
        // the context (selection emits no trace events, so the history
        // is unchanged).
        let solved = match &context.algorithm {
            Ok(algorithm) => udr.tune(&self.dmd.registry, algorithm, &context.data),
            Err(e) => Err(e.clone()),
        };
        // Leave the rotation *before* assembling the response: a
        // finished session must stop consuming admission turns the
        // moment its tuning returns.
        drop(udr);
        ticket.leave();

        let solution = solved.map_err(|e| ProtocolError::new(ErrorKind::Session, e.to_string()))?;
        let summary = tracer.summary();
        let (cache_hits, cache_misses, warm_hits) = summary
            .map(|s| (s.cache_hits, s.cache_misses, s.warm_hits))
            .unwrap_or((0, 0, 0));
        let history = std::mem::take(&mut *history.lock());

        Ok(SessionSolution {
            algorithm: solution.algorithm,
            config: solution.config.to_string(),
            score: solution.score,
            technique: solution.technique,
            trials: solution.trials,
            quarantined: solution.quarantined,
            cache_hits,
            cache_misses,
            warm_hits,
            history,
        })
    }

    fn materialize(&self, spec: &DatasetSpec) -> Result<Dataset, ProtocolError> {
        match spec {
            // The dataset name is fixed so two sessions posting the same
            // CSV bytes share cache keys (the name participates in trial
            // identity through the trace, not the cache, but a stable
            // name keeps the histories comparable too).
            DatasetSpec::Csv(text) => read_csv("session", text.as_bytes())
                .map_err(|e| ProtocolError::new(ErrorKind::Dataset, e.to_string())),
            DatasetSpec::Synth(spec) => Ok(spec.generate()),
        }
    }

    /// Set up the session's checkpoint sink and, on `resume`, replay
    /// the newest intact generation's cache snapshot so the re-run
    /// warm-replays the crashed run's trials. A missing or unreadable
    /// checkpoint degrades to a cold start (same answer, slower), which
    /// is the CLI's recovery posture too.
    fn recovery(
        &self,
        request: &SessionRequest,
        cache: &Arc<TrialCache>,
    ) -> Result<Option<Arc<Checkpointer>>, ProtocolError> {
        if !request.checkpoint {
            return Ok(None);
        }
        let Some(dir) = &self.config.checkpoint_dir else {
            return Err(ProtocolError::new(
                ErrorKind::InvalidValue,
                "`checkpoint` requires the server to run with a checkpoint directory",
            ));
        };
        let base = dir.join(&request.id);
        if request.resume {
            match load_latest(&base, DEFAULT_KEEP) {
                Ok(state) => {
                    cache.restore(&state.cache);
                }
                Err(RecoveryError::NoCheckpoint(_)) => {}
                // Torn or corrupt generations: cold-start. The trial
                // history is identical either way; only speed differs.
                Err(_) => {}
            }
        }
        Ok(Some(Arc::new(Checkpointer::new(base))))
    }
}

/// Fingerprint of everything that parameterizes a trial's measured
/// value besides the config itself: algorithm choice, optimizer, seed,
/// folds, fault plan and the dataset. Sessions agreeing on this string
/// may share cached trial outcomes; sessions differing in any part may
/// not (see [`Server`] docs). The session id is deliberately absent —
/// identical work under different ids is the warm-replay case.
fn context_key(request: &SessionRequest) -> String {
    let dataset = match &request.dataset {
        // The key is a *sharing* boundary, so inline CSV is keyed by its
        // full text, not a hash a client could collide. A request line is
        // capped at `MAX_LINE_BYTES` and the server keeps at most
        // `MAX_CACHE_CONTEXTS` keys, which bounds the memory this costs.
        DatasetSpec::Csv(text) => format!("csv:{text}"),
        DatasetSpec::Synth(spec) => format!("synth:{spec:?}"),
    };
    format!(
        "{}|{:?}|seed={}|folds={}|faults={:?}|{dataset}",
        request.algorithm.as_deref().unwrap_or("<dmd-select>"),
        request.optimizer,
        request.seed,
        request.folds,
        request.faults,
    )
}

/// The session tracer's history sink: keeps each encoded line whose
/// event kind is not in [`PROVENANCE_KINDS`], in emission order — the
/// same lines [`filter_history`] would keep from the full trace.
struct HistorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl HistorySink {
    /// The sink and the handle its kept lines are read back through.
    fn new() -> (HistorySink, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (
            HistorySink {
                lines: Arc::clone(&lines),
            },
            lines,
        )
    }
}

impl Sink for HistorySink {
    fn record(&mut self, record: &TraceRecord, line: &str) -> Result<(), TraceError> {
        if !PROVENANCE_KINDS.contains(&record.event.kind()) {
            self.lines.lock().push(line.to_string());
        }
        Ok(())
    }
}

/// Drop provenance-only events from a session trace, keeping the byte
/// string the determinism contract is stated over. Lines the codec
/// cannot parse are kept — an undecodable line is evidence, not noise.
/// A served session gets the same lines from its history sink without
/// this re-parse; this is the offline form over a recorded trace.
pub fn filter_history(raw: &str) -> Vec<String> {
    raw.lines()
        .filter(|line| match parse_line(line) {
            Ok(record) => !PROVENANCE_KINDS.contains(&record.event.kind()),
            Err(_) => true,
        })
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    use automodel_core::{DmdConfig, DmdInput};
    use automodel_knowledge::CorpusSpec;
    use automodel_trace::decode;

    use super::*;
    use crate::protocol::parse_request;

    fn server(checkpoint_dir: Option<PathBuf>) -> Server {
        static DMD: OnceLock<Dmd> = OnceLock::new();
        let dmd = DMD.get_or_init(|| {
            let corpus = CorpusSpec::small().build();
            let input = DmdInput::synthetic_from_corpus(&corpus, 60, 5);
            DmdConfig::fast().run(&input).expect("demo DMD")
        });
        let config = ServerConfig {
            checkpoint_dir,
            ..ServerConfig::default()
        };
        Server::new(dmd.clone(), &TrialCache::new(1).snapshot(), config)
    }

    fn request(id: &str, extra: &str) -> String {
        format!(
            concat!(
                "{{\"id\":\"{}\",\"seed\":4,\"budget\":8,\"folds\":3,{}",
                "\"dataset\":{{\"synth\":{{\"rows\":80,\"numeric\":3,",
                "\"categorical\":1,\"classes\":2,\"family\":\"hyperplane\",",
                "\"seed\":11}}}}}}"
            ),
            id, extra
        )
    }

    /// Run one session with an in-memory tracer beside the history sink,
    /// check the sink kept exactly what [`filter_history`] keeps from the
    /// full trace, and return the kinds the full trace carried.
    fn sink_matches_filter(server: &Server, line: &str) -> BTreeSet<String> {
        let request = parse_request(line, 512).expect("valid request");
        let (full, handle) = Tracer::in_memory();
        let solution = server.try_session(&request, full).expect("session solves");
        let trace = handle.contents();
        assert!(!solution.history.is_empty(), "empty history for {line}");
        assert_eq!(solution.history, filter_history(&trace), "{line}");
        decode(&trace)
            .expect("trace decodes")
            .iter()
            .map(|record| record.event.kind().to_string())
            .collect()
    }

    #[test]
    fn history_sink_keeps_what_the_filter_keeps() {
        let dir = std::env::temp_dir().join(format!("automodel-serve-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create checkpoint dir");

        let mut kinds = BTreeSet::new();
        let warm = server(Some(dir.clone()));
        for line in [
            request("named", "\"algorithm\":\"IBk\","),
            request("named-warm", "\"algorithm\":\"IBk\","),
            request("selected", ""),
            request("sha", "\"algorithm\":\"IBk\",\"optimizer\":\"sha\","),
            request(
                "faulty",
                "\"algorithm\":\"IBk\",\"faults\":\"seed=5,panic=0.3,nan=0.3\",",
            ),
            request("ckpt", "\"algorithm\":\"IBk\",\"checkpoint\":true,"),
        ] {
            kinds.extend(sink_matches_filter(&warm, &line));
        }
        // A fresh server resumes the checkpointed run: its pool starts
        // cold, so the restored entries replay as warm hits.
        let resumed = server(Some(dir.clone()));
        kinds.extend(sink_matches_filter(
            &resumed,
            &request(
                "ckpt",
                "\"algorithm\":\"IBk\",\"checkpoint\":true,\"resume\":true,",
            ),
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Every provenance kind a session can emit went through the sink
        // (`recovery` and `artifact_load` come only from the CLI).
        for kind in [
            "cache_hit",
            "cache_miss",
            "warm_hit",
            "checkpoint",
            "fault",
            "retry",
        ] {
            assert!(kinds.contains(kind), "no `{kind}` event in {kinds:?}");
        }
    }
}
