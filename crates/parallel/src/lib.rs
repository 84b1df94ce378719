//! Deterministic parallel evaluation for the Auto-Model pipeline.
//!
//! Every expensive score in the paper — GA fitness over a population
//! (Algorithms 2–3), k-fold CV accuracy `f(λ, A, D)`, the per-algorithm
//! performance sweeps behind PoRatio — is an embarrassingly parallel batch.
//! This crate provides the one worker pool all of them share, built so that
//! parallelism never changes results:
//!
//! * **Index-ordered work queue.** Tasks are claimed from an atomic counter,
//!   so the set of executed tasks is always a prefix `[0, k)` of the batch,
//!   independent of which worker ran what.
//! * **Ordered reduction.** Results are reassembled in task-index order
//!   before they are returned; float accumulation order (and therefore
//!   rounding) cannot depend on scheduling.
//! * **Per-task seed streams.** [`seed_stream`] derives an independent RNG
//!   seed for each task index from one base seed, so a task's randomness
//!   depends only on `(base_seed, index)` — never on the thread that ran it.
//! * **Per-evaluation budgets.** [`SharedBudget`] is checked before every
//!   task claim, not once per batch, so a wall-clock or target budget can
//!   stop a batch mid-flight. Evaluation-count limits are enforced exactly
//!   (the executable prefix is computed up front), which keeps eval-bounded
//!   runs byte-identical at any thread count.
//! * **Panic propagation.** A panicking worker aborts the batch and the
//!   panic is re-raised on the caller thread with its original payload.
//! * **Trial-level fault containment.** [`fault`] wraps individual trial
//!   evaluations in `catch_unwind` (the only legal site in the workspace),
//!   classifies every ending into a [`TrialOutcome`], retries failures on
//!   decorrelated seed streams, and can deterministically *inject* faults
//!   ([`FaultPlan`]) so the containment machinery is provably exercised.
//! * **Deterministic trial-result caching.** [`cache`] memoizes whole
//!   [`TrialOutcome`]s under canonical config fingerprints — failures
//!   exactly like successes — with snapshot reads during a batch and
//!   index-ordered inserts at the batch boundary, so dedup never perturbs
//!   results (`AUTOMODEL_CACHE` toggles and bounds it).
//!
//! The determinism contract, precisely: with an evaluation-count budget (or
//! no budget), `Executor::new(t).map*(…)` returns the same bytes for every
//! `t ≥ 1`. Wall-clock and target budgets stop at a point that depends on
//! real scheduling; such runs still never evaluate anything beyond the
//! index-ordered prefix, but the prefix length may vary.

mod budget;
pub mod cache;
pub mod env;
mod executor;
pub mod fault;
mod seed;

pub use budget::{BudgetSpec, SharedBudget};
pub use cache::{CacheSnapshot, CacheStats, CachedTrial, TrialCache};
pub use env::{threads_from_env, validate_env};
pub use executor::Executor;
pub use fault::{
    contain, run_trial, FailureKind, FaultPlan, TrialFailure, TrialOutcome, TrialPolicy,
    TrialReport,
};
pub use seed::seed_stream;

// The canonical clock types live in `automodel-trace`, so budgets and trace
// timestamps share one clock (a budget test's `ManualClock` is the same
// object stamping the trace).
pub use automodel_trace::{Clock, ManualClock, MonotonicClock};
