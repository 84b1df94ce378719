//! The session protocol: line-delimited JSON requests and responses.
//!
//! One request is one line of JSON; one response is one line of JSON.
//! The codec is deliberately strict — the server is a long-running
//! process fed by untrusted pipes, so *every* malformed input must map
//! to a typed [`ProtocolError`] (never a panic, never a silent default):
//!
//! * lines longer than [`MAX_LINE_BYTES`] are rejected before parsing;
//! * duplicate keys anywhere in the document are rejected (the vendored
//!   JSON tree preserves them, so they are detectable — most parsers
//!   silently keep one, which is how request-smuggling bugs start);
//! * unknown fields are rejected by name;
//! * numbers are extracted *strictly*: a `u64` field rejects floats,
//!   negatives, and the hostile `1e999`-style literals that parse to
//!   `f64::INFINITY`, instead of truncating them.
//!
//! A well-formed request names a session id, a seed, an evaluation
//! budget, a dataset (inline typed CSV or a seeded synthetic spec), and
//! optionally an inner optimizer, a fault-injection plan (the
//! per-session equivalent of `AUTOMODEL_FAULTS`), and checkpointing
//! flags. The response carries the tuned solution plus the session's
//! filtered trial history — the byte string the conformance suite
//! compares across concurrent and solo runs.

use automodel_core::InnerOptimizer;
use automodel_data::{SynthFamily, SynthSpec};
use automodel_parallel::{FaultPlan, TrialPolicy};
use automodel_trace::f64_to_hex;
use serde_json::Value;
use std::fmt;

/// Hard ceiling on one request line (bytes, newline excluded). Inline
/// CSV datasets must fit inside it.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

/// Default evaluation budget when a request does not name one.
pub const DEFAULT_BUDGET: usize = 24;

/// Default CV folds when a request does not name them.
pub const DEFAULT_FOLDS: usize = 3;

/// The typed failure taxonomy. `wire` names are stable — clients and the
/// conformance suite match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line exceeds [`MAX_LINE_BYTES`].
    Oversized,
    /// The line is not valid JSON.
    InvalidJson,
    /// The document is valid JSON but not an object.
    NotObject,
    /// A key appears more than once somewhere in the document.
    DuplicateField,
    /// A field name the protocol does not define.
    UnknownField,
    /// A required field is absent.
    MissingField,
    /// A field holds the wrong JSON type.
    InvalidType,
    /// A field holds the right type but an out-of-range or hostile value.
    InvalidValue,
    /// The dataset payload failed to materialize (CSV parse error, …).
    Dataset,
    /// The session itself failed after admission (tuning error).
    Session,
}

impl ErrorKind {
    pub fn wire(self) -> &'static str {
        match self {
            ErrorKind::Oversized => "oversized",
            ErrorKind::InvalidJson => "invalid-json",
            ErrorKind::NotObject => "not-object",
            ErrorKind::DuplicateField => "duplicate-field",
            ErrorKind::UnknownField => "unknown-field",
            ErrorKind::MissingField => "missing-field",
            ErrorKind::InvalidType => "invalid-type",
            ErrorKind::InvalidValue => "invalid-value",
            ErrorKind::Dataset => "dataset",
            ErrorKind::Session => "session",
        }
    }
}

/// A typed rejection: the kind plus a human detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    pub kind: ErrorKind,
    pub detail: String,
}

impl ProtocolError {
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> ProtocolError {
        ProtocolError {
            kind,
            detail: detail.into(),
        }
    }

    /// The rejection of a `bytes`-long line over [`MAX_LINE_BYTES`].
    pub fn oversized(bytes: usize) -> ProtocolError {
        ProtocolError::new(
            ErrorKind::Oversized,
            format!("{bytes} bytes exceeds the {MAX_LINE_BYTES}-byte limit"),
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.wire(), self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// Where the session's dataset comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// Inline typed CSV (`num:`/`cat:`/`class:` header), as `solve --csv`
    /// reads from disk.
    Csv(String),
    /// A seeded synthetic dataset (deterministic generation).
    Synth(SynthSpec),
}

/// One admitted session request.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Session id: 1–64 chars of `[A-Za-z0-9._-]` (it keys trace files
    /// and checkpoint directories, so path separators are rejected).
    pub id: String,
    pub seed: u64,
    /// Evaluation budget, admission-clamped to the server's ceiling.
    pub budget: usize,
    pub folds: usize,
    pub optimizer: InnerOptimizer,
    /// Tune this algorithm directly instead of running DMD selection.
    pub algorithm: Option<String>,
    pub dataset: DatasetSpec,
    /// Per-session fault injection (the `AUTOMODEL_FAULTS` grammar).
    pub faults: Option<FaultPlan>,
    /// Checkpoint this session's batch boundaries durably.
    pub checkpoint: bool,
    /// Resume from this session's newest checkpoint before tuning.
    pub resume: bool,
}

impl SessionRequest {
    /// The effective trial policy: an explicit per-session fault plan
    /// when requested, the process environment otherwise (the server
    /// validates `AUTOMODEL_FAULTS` at startup, so the fallback is safe).
    pub fn policy(&self) -> TrialPolicy {
        match &self.faults {
            Some(plan) => TrialPolicy::default().with_faults(plan.clone()),
            None => TrialPolicy::from_env_or_default(),
        }
    }
}

/// The tuned answer plus per-session provenance counters and the
/// filtered trial history.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSolution {
    pub algorithm: String,
    pub config: String,
    pub score: f64,
    pub technique: String,
    pub trials: usize,
    pub quarantined: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub warm_hits: u64,
    /// The session's trace stream with provenance-only events (cache
    /// hits/misses, warm hits, artifact loads, checkpoints, recoveries)
    /// filtered out: the byte string the session determinism contract is
    /// stated over.
    pub history: Vec<String>,
}

/// One response line: the echoed session id and either a solution or a
/// typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    pub id: String,
    pub outcome: Result<SessionSolution, ProtocolError>,
}

impl SessionResult {
    pub fn failure(id: impl Into<String>, error: ProtocolError) -> SessionResult {
        SessionResult {
            id: id.into(),
            outcome: Err(error),
        }
    }

    /// Encode as one JSON line (no trailing newline). The score is
    /// carried twice: as a JSON number for humans and as canonical hex
    /// bits for bit-exact comparison (JSON float round-trips are not
    /// part of the identity contract; the hex form is).
    pub fn to_line(&self) -> String {
        let value = match &self.outcome {
            Ok(s) => Value::Object(vec![
                ("id".into(), Value::String(self.id.clone())),
                ("ok".into(), Value::Bool(true)),
                ("algorithm".into(), Value::String(s.algorithm.clone())),
                ("config".into(), Value::String(s.config.clone())),
                ("score".into(), Value::F64(s.score)),
                ("score_bits".into(), Value::String(f64_to_hex(s.score))),
                ("technique".into(), Value::String(s.technique.clone())),
                ("trials".into(), Value::U64(s.trials as u64)),
                ("quarantined".into(), Value::U64(s.quarantined as u64)),
                ("cache_hits".into(), Value::U64(s.cache_hits)),
                ("cache_misses".into(), Value::U64(s.cache_misses)),
                ("warm_hits".into(), Value::U64(s.warm_hits)),
                (
                    "history".into(),
                    Value::Array(s.history.iter().map(|l| Value::String(l.clone())).collect()),
                ),
            ]),
            Err(e) => Value::Object(vec![
                ("id".into(), Value::String(self.id.clone())),
                ("ok".into(), Value::Bool(false)),
                (
                    "error".into(),
                    Value::Object(vec![
                        ("kind".into(), Value::String(e.kind.wire().into())),
                        ("detail".into(), Value::String(e.detail.clone())),
                    ]),
                ),
            ]),
        };
        serde_json::to_string(&value).unwrap_or_else(|_| {
            // The value tree above contains no unserializable shapes; this
            // arm exists only to keep the crate panic-free by construction.
            "{\"id\":\"\",\"ok\":false,\"error\":{\"kind\":\"session\",\"detail\":\"encode failed\"}}"
                .to_string()
        })
    }
}

const KNOWN_FIELDS: &[&str] = &[
    "id",
    "seed",
    "budget",
    "folds",
    "optimizer",
    "algorithm",
    "dataset",
    "faults",
    "checkpoint",
    "resume",
];

const SYNTH_FIELDS: &[&str] = &[
    "rows",
    "numeric",
    "categorical",
    "classes",
    "family",
    "seed",
];

/// Parse and validate one request line against the server's budget
/// ceiling. Every failure is a typed [`ProtocolError`].
pub fn parse_request(line: &str, max_budget: usize) -> Result<SessionRequest, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::oversized(line.len()));
    }
    let value: Value = serde_json::from_str(line)
        .map_err(|e| ProtocolError::new(ErrorKind::InvalidJson, e.to_string()))?;
    reject_duplicates(&value, "request")?;
    let Value::Object(fields) = &value else {
        return Err(ProtocolError::new(
            ErrorKind::NotObject,
            "a request is a JSON object",
        ));
    };
    for (key, _) in fields {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(ProtocolError::new(
                ErrorKind::UnknownField,
                format!("unknown field `{key}`"),
            ));
        }
    }

    let id = require_str(&value, "id")?;
    if id.is_empty() || id.len() > 64 {
        return Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            "`id` must be 1-64 characters",
        ));
    }
    if !id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            "`id` may only contain [A-Za-z0-9._-]",
        ));
    }

    let seed = opt_u64(&value, "seed")?.unwrap_or(0);
    let budget = match opt_u64(&value, "budget")? {
        Some(b) => usize::try_from(b).unwrap_or(usize::MAX),
        None => DEFAULT_BUDGET,
    };
    if budget == 0 || budget > max_budget {
        return Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            format!("`budget` must be in 1..={max_budget}, got {budget}"),
        ));
    }
    let folds = match opt_u64(&value, "folds")? {
        Some(f) => usize::try_from(f).unwrap_or(usize::MAX),
        None => DEFAULT_FOLDS,
    };
    if !(2..=16).contains(&folds) {
        return Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            format!("`folds` must be in 2..=16, got {folds}"),
        ));
    }
    let optimizer = match opt_str(&value, "optimizer")? {
        Some(name) => InnerOptimizer::parse(name).ok_or_else(|| {
            ProtocolError::new(
                ErrorKind::InvalidValue,
                format!("`optimizer` must be auto, sha or hyperband, got `{name}`"),
            )
        })?,
        None => InnerOptimizer::Auto,
    };
    let algorithm = opt_str(&value, "algorithm")?.map(str::to_string);
    let dataset = parse_dataset(value.get("dataset").ok_or_else(|| {
        ProtocolError::new(ErrorKind::MissingField, "missing required field `dataset`")
    })?)?;
    let faults =
        match opt_str(&value, "faults")? {
            Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| {
                ProtocolError::new(ErrorKind::InvalidValue, format!("`faults`: {e}"))
            })?),
            None => None,
        };
    let checkpoint = opt_bool(&value, "checkpoint")?.unwrap_or(false);
    let resume = opt_bool(&value, "resume")?.unwrap_or(false);
    if resume && !checkpoint {
        return Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            "`resume` requires `checkpoint`",
        ));
    }

    Ok(SessionRequest {
        id: id.to_string(),
        seed,
        budget,
        folds,
        optimizer,
        algorithm,
        dataset,
        faults,
        checkpoint,
        resume,
    })
}

fn parse_dataset(value: &Value) -> Result<DatasetSpec, ProtocolError> {
    let Value::Object(fields) = value else {
        return Err(ProtocolError::new(
            ErrorKind::InvalidType,
            "`dataset` must be an object",
        ));
    };
    match fields.as_slice() {
        [(key, payload)] if key == "csv" => match payload {
            Value::String(csv) if !csv.trim().is_empty() => Ok(DatasetSpec::Csv(csv.clone())),
            Value::String(_) => Err(ProtocolError::new(
                ErrorKind::InvalidValue,
                "`dataset.csv` must not be empty",
            )),
            other => Err(ProtocolError::new(
                ErrorKind::InvalidType,
                format!("`dataset.csv` must be a string, got {}", type_name(other)),
            )),
        },
        [(key, payload)] if key == "synth" => parse_synth(payload),
        [(key, _)] => Err(ProtocolError::new(
            ErrorKind::UnknownField,
            format!("unknown dataset field `{key}` (expected `csv` or `synth`)"),
        )),
        _ => Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            "`dataset` must hold exactly one of `csv` or `synth`",
        )),
    }
}

fn parse_synth(value: &Value) -> Result<DatasetSpec, ProtocolError> {
    let Value::Object(fields) = value else {
        return Err(ProtocolError::new(
            ErrorKind::InvalidType,
            "`dataset.synth` must be an object",
        ));
    };
    for (key, _) in fields {
        if !SYNTH_FIELDS.contains(&key.as_str()) {
            return Err(ProtocolError::new(
                ErrorKind::UnknownField,
                format!("unknown synth field `{key}`"),
            ));
        }
    }
    let rows = bounded(value, "rows", 20, 10_000)?;
    let numeric = bounded(value, "numeric", 0, 64)?;
    let categorical = bounded(value, "categorical", 0, 64)?;
    if numeric + categorical == 0 {
        return Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            "a synth dataset needs at least one attribute",
        ));
    }
    let classes = bounded(value, "classes", 2, 32)?;
    let seed = opt_u64(value, "seed")?.unwrap_or(0);
    let family = match opt_str(value, "family")?.unwrap_or("hyperplane") {
        "hyperplane" => SynthFamily::Hyperplane,
        "ring" => SynthFamily::Ring,
        "mixed" => SynthFamily::Mixed,
        "blobs" => SynthFamily::GaussianBlobs { spread: 1.5 },
        "xor" => SynthFamily::Xor { dims: 2 },
        other => {
            return Err(ProtocolError::new(
                ErrorKind::InvalidValue,
                format!("unknown synth family `{other}`"),
            ))
        }
    };
    let name = format!("synth-{seed}");
    Ok(DatasetSpec::Synth(SynthSpec::new(
        name,
        rows,
        numeric,
        categorical,
        classes,
        family,
        seed,
    )))
}

fn bounded(value: &Value, key: &str, lo: usize, hi: usize) -> Result<usize, ProtocolError> {
    let n = opt_u64(value, key)?.ok_or_else(|| {
        ProtocolError::new(
            ErrorKind::MissingField,
            format!("missing synth field `{key}`"),
        )
    })?;
    let n = usize::try_from(n).unwrap_or(usize::MAX);
    if !(lo..=hi).contains(&n) {
        return Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            format!("`{key}` must be in {lo}..={hi}, got {n}"),
        ));
    }
    Ok(n)
}

/// Reject duplicate keys anywhere in the tree. The vendored JSON value
/// keeps objects as ordered pair lists, so duplicates survive parsing
/// and are detectable here.
fn reject_duplicates(value: &Value, path: &str) -> Result<(), ProtocolError> {
    match value {
        Value::Object(pairs) => {
            for (i, (key, inner)) in pairs.iter().enumerate() {
                if pairs[..i].iter().any(|(k, _)| k == key) {
                    return Err(ProtocolError::new(
                        ErrorKind::DuplicateField,
                        format!("duplicate field `{key}` in {path}"),
                    ));
                }
                reject_duplicates(inner, key)?;
            }
            Ok(())
        }
        Value::Array(items) => {
            for item in items {
                reject_duplicates(item, path)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Strict u64 extraction: absent ⇒ `None`; floats (including the hostile
/// `1e999` ⇒ ∞ literals), negatives, bools and strings are typed errors.
fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, ProtocolError> {
    match value.get(key) {
        None => Ok(None),
        Some(Value::U64(n)) => Ok(Some(*n)),
        Some(Value::I64(n)) => u64::try_from(*n).map(Some).map_err(|_| {
            ProtocolError::new(
                ErrorKind::InvalidValue,
                format!("`{key}` must be a non-negative integer, got {n}"),
            )
        }),
        Some(Value::F64(x)) => Err(ProtocolError::new(
            ErrorKind::InvalidValue,
            format!("`{key}` must be an integer, got the float {x}"),
        )),
        Some(other) => Err(ProtocolError::new(
            ErrorKind::InvalidType,
            format!(
                "`{key}` must be an unsigned integer, got {}",
                type_name(other)
            ),
        )),
    }
}

fn opt_str<'a>(value: &'a Value, key: &str) -> Result<Option<&'a str>, ProtocolError> {
    match value.get(key) {
        None => Ok(None),
        Some(Value::String(s)) => Ok(Some(s.as_str())),
        Some(other) => Err(ProtocolError::new(
            ErrorKind::InvalidType,
            format!("`{key}` must be a string, got {}", type_name(other)),
        )),
    }
}

fn require_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, ProtocolError> {
    opt_str(value, key)?.ok_or_else(|| {
        ProtocolError::new(
            ErrorKind::MissingField,
            format!("missing required field `{key}`"),
        )
    })
}

fn opt_bool(value: &Value, key: &str) -> Result<Option<bool>, ProtocolError> {
    match value.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(ProtocolError::new(
            ErrorKind::InvalidType,
            format!("`{key}` must be a boolean, got {}", type_name(other)),
        )),
    }
}

fn type_name(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::I64(_) | Value::U64(_) => "integer",
        Value::F64(_) => "float",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 512;

    fn ok_line() -> String {
        r#"{"id":"s1","seed":7,"budget":12,"folds":3,"optimizer":"sha","dataset":{"synth":{"rows":100,"numeric":3,"categorical":0,"classes":2,"family":"hyperplane","seed":9}}}"#
            .to_string()
    }

    #[test]
    fn well_formed_requests_parse() {
        let req = parse_request(&ok_line(), MAX).unwrap();
        assert_eq!(req.id, "s1");
        assert_eq!(req.seed, 7);
        assert_eq!(req.budget, 12);
        assert_eq!(req.optimizer, InnerOptimizer::Sha);
        assert!(matches!(req.dataset, DatasetSpec::Synth(_)));
        assert!(req.faults.is_none());
        assert!(!req.checkpoint && !req.resume);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let req = parse_request(
            r#"{"id":"d","dataset":{"synth":{"rows":50,"numeric":2,"categorical":0,"classes":2}}}"#,
            MAX,
        )
        .unwrap();
        assert_eq!(req.seed, 0);
        assert_eq!(req.budget, DEFAULT_BUDGET);
        assert_eq!(req.folds, DEFAULT_FOLDS);
        assert_eq!(req.optimizer, InnerOptimizer::Auto);
    }

    #[test]
    fn csv_datasets_parse() {
        let req = parse_request(
            r#"{"id":"c","dataset":{"csv":"num:x,class:y\n1,a\n2,b\n"}}"#,
            MAX,
        )
        .unwrap();
        assert!(matches!(req.dataset, DatasetSpec::Csv(_)));
    }

    #[test]
    fn each_malformation_maps_to_its_kind() {
        let cases: &[(&str, ErrorKind)] = &[
            ("{not json", ErrorKind::InvalidJson),
            ("[1,2]", ErrorKind::NotObject),
            (
                r#"{"id":"a","id":"b","dataset":{"csv":"x"}}"#,
                ErrorKind::DuplicateField,
            ),
            (
                r#"{"id":"a","surprise":1,"dataset":{"csv":"x"}}"#,
                ErrorKind::UnknownField,
            ),
            (r#"{"dataset":{"csv":"x"}}"#, ErrorKind::MissingField),
            (r#"{"id":42,"dataset":{"csv":"x"}}"#, ErrorKind::InvalidType),
            (
                r#"{"id":"../etc","dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
            (
                r#"{"id":"a","seed":1e999,"dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
            (
                r#"{"id":"a","seed":-3,"dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
            (
                r#"{"id":"a","budget":0,"dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
            (
                r#"{"id":"a","budget":99999,"dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
            (
                r#"{"id":"a","optimizer":"smac","dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
            (r#"{"id":"a","dataset":"inline"}"#, ErrorKind::InvalidType),
            (r#"{"id":"a","dataset":{}}"#, ErrorKind::InvalidValue),
            (
                r#"{"id":"a","dataset":{"synth":{"rows":50,"numeric":2,"categorical":0,"classes":2,"family":"cubist"}}}"#,
                ErrorKind::InvalidValue,
            ),
            (
                r#"{"id":"a","faults":"seed=1,warp=0.5","dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
            (
                r#"{"id":"a","resume":true,"dataset":{"csv":"x"}}"#,
                ErrorKind::InvalidValue,
            ),
        ];
        for (line, kind) in cases {
            let err = parse_request(line, MAX).expect_err(line);
            assert_eq!(err.kind, *kind, "line {line} -> {err}");
        }
    }

    #[test]
    fn oversized_lines_are_rejected_before_parsing() {
        let line = format!(
            r#"{{"id":"a","dataset":{{"csv":"{}"}}}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let err = parse_request(&line, MAX).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Oversized);
    }

    #[test]
    fn nested_duplicates_are_caught() {
        let line = r#"{"id":"a","dataset":{"synth":{"rows":50,"rows":60,"numeric":2,"categorical":0,"classes":2}}}"#;
        let err = parse_request(line, MAX).unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateField);
    }

    #[test]
    fn fault_plans_ride_the_env_grammar() {
        let line = r#"{"id":"f","faults":"seed=3,panic=0.2,nan=0.1","dataset":{"csv":"num:x,class:y\n1,a\n"}}"#;
        let req = parse_request(line, MAX).unwrap();
        let plan = req.faults.clone().unwrap();
        assert_eq!(plan.seed, 3);
        let policy = req.policy();
        assert_eq!(policy.faults.seed, 3);
    }

    #[test]
    fn result_lines_round_trip_through_json() {
        let result = SessionResult {
            id: "s1".into(),
            outcome: Ok(SessionSolution {
                algorithm: "IBk".into(),
                config: "{k=3}".into(),
                score: 0.875,
                technique: "successive-halving".into(),
                trials: 12,
                quarantined: 0,
                cache_hits: 3,
                cache_misses: 9,
                warm_hits: 1,
                history: vec!["{\"k\":\"run_start\"}".into()],
            }),
        };
        let line = result.to_line();
        let value: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(value["id"], "s1");
        assert_eq!(value["ok"], Value::Bool(true));
        assert_eq!(value["trials"], Value::U64(12));
        assert_eq!(value["score_bits"].as_str().unwrap(), f64_to_hex(0.875));

        let err =
            SessionResult::failure("bad", ProtocolError::new(ErrorKind::Oversized, "too big"));
        let value: Value = serde_json::from_str(&err.to_line()).unwrap();
        assert_eq!(value["ok"], Value::Bool(false));
        assert_eq!(value["error"]["kind"], "oversized");
    }
}
