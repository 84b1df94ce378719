//! `automodel-serve` — a concurrent multi-session UDR service.
//!
//! A long-running server loads a persisted `AMSTORE` DMD artifact once
//! at startup and then answers many concurrent tuning sessions over a
//! line-delimited JSONL protocol (TCP or stdin/stdout). Each session
//! carries its own seed, evaluation budget, fault policy, optimizer
//! choice and optional checkpoint stream; all sessions share the
//! loaded DMD, context-keyed read-mostly pools — a trial cache plus the
//! context's dataset and algorithm selection (identical requests
//! warm-replay each other; differing contexts are isolated) — and a
//! fair round-robin batch-admission gate. Plain std threads carry the
//! transports; trial evaluation stays on the deterministic executor in
//! `automodel-parallel` — there is no async runtime.
//!
//! # Protocol
//!
//! One JSON object per request line, one per response line.
//!
//! Request fields (unknown fields and duplicate keys are rejected):
//!
//! | field        | type   | default  | meaning                                          |
//! |--------------|--------|----------|--------------------------------------------------|
//! | `id`         | string | required | session id, `[A-Za-z0-9._-]{1,64}`               |
//! | `seed`       | u64    | `0`      | session seed                                     |
//! | `budget`     | u64    | `24`     | evaluations, `1..=` server ceiling               |
//! | `folds`      | u64    | `3`      | CV folds, `2..=16`                               |
//! | `optimizer`  | string | `auto`   | `auto` \| `sha` \| `hyperband`                   |
//! | `algorithm`  | string | absent   | tune this algorithm; absent ⇒ DMD selection      |
//! | `dataset`    | object | required | `{"csv": "..."}` or `{"synth": {...}}`           |
//! | `faults`     | string | absent   | per-session `AUTOMODEL_FAULTS` plan              |
//! | `checkpoint` | bool   | `false`  | checkpoint batch boundaries durably              |
//! | `resume`     | bool   | `false`  | warm-replay this id's newest checkpoint          |
//!
//! A response echoes the id and carries either the tuned solution
//! (algorithm, config, score as both JSON number and canonical hex
//! bits, trial counts, cache counters, and the filtered trial history)
//! or a typed error (`{"ok": false, "error": "<kind>", ...}`).
//!
//! # Contracts
//!
//! * **Session determinism:** same request + same seed ⇒ byte-identical
//!   filtered trial history, regardless of concurrent sessions and
//!   executor width (see [`session`] for the three rules carrying it).
//! * **Isolation:** a session's faults, malformed input, or checkpoint
//!   I/O errors produce a typed error on *its* response line and leave
//!   every other session untouched.
//! * **Robustness:** arbitrary input bytes yield a typed error, never a
//!   panic — this crate is on the workspace's panic-free list (L1).
//!
//! `tests/serve_oracle.rs` at the workspace root is the conformance
//! suite: it drives a spawned server over the real protocol and checks
//! each contract end to end.

pub mod gate;
pub mod protocol;
pub mod session;
pub mod transport;

pub use gate::{RoundRobinGate, SessionTicket};
pub use protocol::{
    parse_request, DatasetSpec, ErrorKind, ProtocolError, SessionRequest, SessionResult,
    SessionSolution, DEFAULT_BUDGET, DEFAULT_FOLDS, MAX_LINE_BYTES,
};
pub use session::{filter_history, Server, ServerConfig, PROVENANCE_KINDS};
pub use transport::{serve_stdio, serve_tcp};
