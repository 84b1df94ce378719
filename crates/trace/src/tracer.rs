//! The tracer: event intake, timestamping, summary counters, fan-out.
//!
//! A [`Tracer`] is either *disabled* — every call is a no-op costing one
//! branch, the default everywhere — or *enabled*, holding a clock, a
//! sink list, and a running [`TraceSummary`] behind one mutex. The mutex
//! is never touched on evaluation hot paths: workers build their events
//! as plain `Vec<TraceEvent>` values and the batch reducer emits them at
//! the batch boundary in trial-index order, so lock order equals trial
//! order and traces are byte-identical at any thread count.
//!
//! Timestamps come from the injected [`Clock`]; the default is a
//! [`ManualClock`] pinned at zero so traces are reproducible byte streams
//! unless a caller explicitly opts into wall-clock time.

use crate::clock::{Clock, ManualClock};
use crate::codec::{encode_line, TraceRecord};
use crate::env::EnvError;
use crate::event::TraceEvent;
use crate::sink::{memory_pair, JsonlSink, MemoryHandle, ProgressSink, Sink, TraceError};
use parking_lot::Mutex;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Running event counters, kept by every enabled tracer and rendered as
/// the end-of-run summary table.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    pub runs: u64,
    pub stages: u64,
    pub batches: u64,
    pub trials: u64,
    pub ok: u64,
    pub failed: u64,
    pub skipped: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Warm-start hits — also counted into `cache_hits`, since a warm hit
    /// is a cache hit whose entry came from a persisted artifact.
    pub warm_hits: u64,
    pub artifact_loads: u64,
    pub faults: u64,
    pub retries: u64,
    pub quarantined: u64,
    pub budget_trips: u64,
    pub checkpoints: u64,
    pub recoveries: u64,
}

impl TraceSummary {
    /// Count one event. Span counters tick on the *end* event so aborted
    /// spans are never over-counted.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::RunEnd { .. } => self.runs += 1,
            TraceEvent::StageEnd { .. } => self.stages += 1,
            TraceEvent::BatchEnd { .. } => self.batches += 1,
            TraceEvent::TrialEnd { status, .. } => {
                self.trials += 1;
                match status.as_str() {
                    "ok" => self.ok += 1,
                    "skipped" => self.skipped += 1,
                    _ => self.failed += 1,
                }
            }
            TraceEvent::CacheHit { .. } => self.cache_hits += 1,
            TraceEvent::CacheMiss { .. } => self.cache_misses += 1,
            TraceEvent::WarmHit { .. } => {
                self.cache_hits += 1;
                self.warm_hits += 1;
            }
            TraceEvent::ArtifactLoad { .. } => self.artifact_loads += 1,
            TraceEvent::Fault { .. } => self.faults += 1,
            TraceEvent::Retry { .. } => self.retries += 1,
            TraceEvent::Quarantine { .. } => self.quarantined += 1,
            TraceEvent::BudgetExhausted { .. } => self.budget_trips += 1,
            TraceEvent::Checkpoint { .. } => self.checkpoints += 1,
            TraceEvent::Recovery { .. } => self.recoveries += 1,
            _ => {}
        }
    }

    /// Two-line human rendering for end-of-run reporting.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "trace: {} trial(s) ({} ok, {} failed, {} skipped) | cache {} hit(s) ({} warm) / {} miss(es)",
            self.trials,
            self.ok,
            self.failed,
            self.skipped,
            self.cache_hits,
            self.warm_hits,
            self.cache_misses
        );
        let _ = write!(
            s,
            "\ntrace: {} fault(s), {} retry(ies), {} quarantined | {} run(s), {} stage(s), {} batch(es), {} budget stop(s)",
            self.faults,
            self.retries,
            self.quarantined,
            self.runs,
            self.stages,
            self.batches,
            self.budget_trips
        );
        s
    }
}

struct State {
    clock: Arc<dyn Clock>,
    sinks: Vec<Box<dyn Sink>>,
    summary: TraceSummary,
    /// First sink I/O failure observed, latched for end-of-run surfacing
    /// (see [`Tracer::io_error`]).
    error: Option<TraceError>,
}

/// Structured-event intake. Cheap to share (`Arc<Tracer>`), cheap when
/// disabled, deterministic when enabled. See the module docs.
pub struct Tracer {
    state: Option<Mutex<State>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The no-op tracer: every `emit` is one branch and no work.
    pub fn disabled() -> Tracer {
        Tracer { state: None }
    }

    fn enabled_with(sinks: Vec<Box<dyn Sink>>) -> Tracer {
        Tracer {
            state: Some(Mutex::new(State {
                clock: Arc::new(ManualClock::new()),
                sinks,
                summary: TraceSummary::default(),
                error: None,
            })),
        }
    }

    /// Honor `AUTOMODEL_TRACE=<path>`: enabled with an appending JSONL
    /// sink when the variable is set, disabled when unset or empty. A
    /// path that cannot be opened for appending is a hard [`EnvError`]
    /// naming the variable and the path — tracing must never be silently
    /// dropped when the user asked for it.
    pub fn from_env() -> Result<Tracer, EnvError> {
        match std::env::var(crate::TRACE_ENV) {
            Ok(path) if !path.is_empty() => match JsonlSink::open(Path::new(&path)) {
                Some(sink) => Ok(Tracer::enabled_with(vec![Box::new(sink)])),
                None => Err(EnvError::new(
                    crate::TRACE_ENV,
                    path,
                    "a JSONL file path openable for appending",
                )),
            },
            _ => Ok(Tracer::disabled()),
        }
    }

    /// An enabled tracer writing to an in-memory buffer — the conformance
    /// tests' oracle input.
    pub fn in_memory() -> (Tracer, MemoryHandle) {
        let (sink, handle) = memory_pair();
        (Tracer::enabled_with(vec![Box::new(sink)]), handle)
    }

    /// Add a sink, enabling the tracer if it was disabled.
    pub fn with_sink(self, sink: Box<dyn Sink>) -> Tracer {
        match &self.state {
            Some(state) => state.lock().sinks.push(sink),
            None => return Tracer::enabled_with(vec![sink]),
        }
        self
    }

    /// Add an appending JSONL sink at an explicit path — the server keys
    /// one trace file per session this way. Returns `None` when the path
    /// cannot be opened for appending (callers surface that, same as
    /// [`Tracer::from_env`]).
    pub fn with_jsonl(self, path: &Path) -> Option<Tracer> {
        Some(self.with_sink(Box::new(JsonlSink::open(path)?)))
    }

    /// Replace the timestamp source (no-op on a disabled tracer). The
    /// default [`ManualClock`] pins every timestamp to zero; inject a
    /// shared clock to correlate trace time with budget time.
    pub fn with_clock(self, clock: Arc<dyn Clock>) -> Tracer {
        if let Some(state) = &self.state {
            state.lock().clock = clock;
        }
        self
    }

    /// Add a human stderr progress sink — bench binaries call this so
    /// stage narration and the summary exist even without
    /// `AUTOMODEL_TRACE`.
    pub fn with_progress(self, prefix: &str) -> Tracer {
        self.with_sink(Box::new(ProgressSink::new(prefix)))
    }

    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Record one event: stamp, count, encode once, fan out.
    pub fn emit(&self, event: TraceEvent) {
        self.emit_all(std::iter::once(event));
    }

    /// Record a pre-built event sequence under one lock acquisition — the
    /// batch-boundary merge path. Sinks are flushed once at the end of
    /// the batch, so an abrupt process exit loses at most the batch in
    /// flight; the first sink failure is latched (see
    /// [`Tracer::io_error`]), never panicked on.
    pub fn emit_all<I>(&self, events: I)
    where
        I: IntoIterator<Item = TraceEvent>,
    {
        let Some(state) = &self.state else { return };
        let mut s = state.lock();
        let t_us = u64::try_from(s.clock.now().as_micros()).unwrap_or(u64::MAX);
        for event in events {
            s.summary.observe(&event);
            let record = TraceRecord { t_us, event };
            let line = encode_line(&record);
            let State { sinks, error, .. } = &mut *s;
            for sink in sinks {
                if let Err(e) = sink.record(&record, &line) {
                    error.get_or_insert(e);
                }
            }
        }
        let State { sinks, error, .. } = &mut *s;
        for sink in sinks {
            if let Err(e) = sink.flush() {
                error.get_or_insert(e);
            }
        }
    }

    /// Snapshot of the counters; `None` when disabled.
    pub fn summary(&self) -> Option<TraceSummary> {
        self.state.as_ref().map(|s| s.lock().summary.clone())
    }

    /// The first sink I/O failure observed, if any. Entry points check
    /// this at end of run so a trace the user asked for can never be
    /// silently incomplete.
    pub fn io_error(&self) -> Option<TraceError> {
        self.state.as_ref().and_then(|s| s.lock().error.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(TraceEvent::CacheHit { trial: 0 });
        assert_eq!(t.summary(), None);
    }

    #[test]
    fn memory_tracer_records_decode_and_count() {
        let (t, handle) = Tracer::in_memory();
        assert!(t.is_enabled());
        t.emit(TraceEvent::stage_start("probe"));
        t.emit_all([
            TraceEvent::TrialStart {
                trial: 0,
                config: "{}".into(),
            },
            TraceEvent::CacheMiss { trial: 0 },
            TraceEvent::TrialEnd {
                trial: 0,
                score: 1.0,
                attempts: 1,
                status: "ok".into(),
            },
            TraceEvent::stage_end("probe", "done"),
        ]);
        let records = decode(&handle.contents()).expect("trace decodes");
        assert_eq!(records.len(), 5);
        // Default clock pins every timestamp to zero.
        assert!(records.iter().all(|r| r.t_us == 0));
        let summary = t.summary().expect("enabled tracer has a summary");
        assert_eq!(summary.trials, 1);
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.cache_misses, 1);
        assert_eq!(summary.stages, 1);
        let rendered = summary.render();
        assert!(rendered.contains("1 trial(s)"), "render: {rendered}");
    }

    #[test]
    fn injected_manual_clock_stamps_events() {
        let clock = Arc::new(ManualClock::new());
        let (t, handle) = Tracer::in_memory();
        let t = t.with_clock(clock.clone());
        t.emit(TraceEvent::stage_start("a"));
        clock.advance(Duration::from_micros(250));
        t.emit(TraceEvent::stage_end("a", ""));
        let records = decode(&handle.contents()).expect("trace decodes");
        assert_eq!(records[0].t_us, 0);
        assert_eq!(records[1].t_us, 250);
    }

    #[test]
    fn with_sink_enables_and_fans_out_to_every_sink() {
        let (extra, extra_handle) = memory_pair();
        let t = Tracer::disabled().with_sink(Box::new(extra));
        assert!(t.is_enabled());
        let (inner, inner_handle) = memory_pair();
        let t = t.with_sink(Box::new(inner));
        t.emit(TraceEvent::CacheHit { trial: 3 });
        assert!(!extra_handle.contents().is_empty());
        assert_eq!(extra_handle.contents(), inner_handle.contents());
    }

    #[test]
    fn first_sink_error_is_latched_not_panicked() {
        struct FailingSink(u32);
        impl Sink for FailingSink {
            fn record(&mut self, _r: &TraceRecord, _l: &str) -> Result<(), TraceError> {
                self.0 += 1;
                Err(TraceError::new("test", format!("boom {}", self.0)))
            }
        }
        let t = Tracer {
            state: Some(Mutex::new(State {
                clock: Arc::new(ManualClock::new()),
                sinks: vec![Box::new(FailingSink(0))],
                summary: TraceSummary::default(),
                error: None,
            })),
        };
        assert_eq!(t.io_error(), None);
        t.emit(TraceEvent::CacheHit { trial: 0 });
        t.emit(TraceEvent::CacheHit { trial: 1 });
        // The first failure wins; later ones don't overwrite it.
        assert_eq!(t.io_error(), Some(TraceError::new("test", "boom 1")));
    }

    #[test]
    fn summary_counts_checkpoints_and_recoveries() {
        let mut s = TraceSummary::default();
        s.observe(&TraceEvent::Checkpoint {
            seq: 0,
            trials: 10,
            bytes: 100,
        });
        s.observe(&TraceEvent::Checkpoint {
            seq: 1,
            trials: 20,
            bytes: 200,
        });
        s.observe(&TraceEvent::Recovery {
            seq: 1,
            trials: 20,
            restored: 20,
        });
        assert_eq!((s.checkpoints, s.recoveries), (2, 1));
    }

    #[test]
    fn summary_counts_trial_statuses() {
        let mut s = TraceSummary::default();
        for status in ["ok", "ok", "failed", "skipped"] {
            s.observe(&TraceEvent::TrialEnd {
                trial: 0,
                score: 0.0,
                attempts: 1,
                status: status.into(),
            });
        }
        assert_eq!((s.trials, s.ok, s.failed, s.skipped), (4, 2, 1, 1));
    }
}
