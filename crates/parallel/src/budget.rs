//! Thread-safe budget state shared by all workers of a batch.

use crate::Clock;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Declarative stopping criterion for a (possibly parallel) evaluation run.
/// A `None` component never trips. Mirrors `automodel_hpo::Budget`, which
/// cannot be used directly here — `parallel` sits below `hpo` in the crate
/// graph.
#[derive(Debug, Clone, Default)]
pub struct BudgetSpec {
    pub max_evals: Option<usize>,
    pub max_time: Option<Duration>,
    /// Stop as soon as a score ≥ `target` is observed (scores are maximized).
    pub target: Option<f64>,
}

impl BudgetSpec {
    /// Only an evaluation-count limit.
    pub fn evals(n: usize) -> BudgetSpec {
        BudgetSpec {
            max_evals: Some(n),
            ..BudgetSpec::default()
        }
    }

    /// Only a wall-clock limit.
    pub fn time(d: Duration) -> BudgetSpec {
        BudgetSpec {
            max_time: Some(d),
            ..BudgetSpec::default()
        }
    }

    /// Add a target score.
    pub fn with_target(mut self, t: f64) -> BudgetSpec {
        self.target = Some(t);
        self
    }
}

/// Live budget state, checkable and recordable from any worker thread.
///
/// Evaluation counting is exact: `record` is called once per completed
/// evaluation and [`Executor::map_budgeted`](crate::Executor::map_budgeted)
/// never starts more than [`remaining_evals`](SharedBudget::remaining_evals)
/// tasks. Wall-clock and target limits are consulted *per evaluation* (at
/// every task claim), so a batch stops mid-flight instead of overshooting
/// by a whole generation; in-flight tasks still run to completion, which
/// bounds the overshoot by the number of worker threads.
pub struct SharedBudget {
    spec: BudgetSpec,
    clock: Arc<dyn Clock>,
    start: Duration,
    evals: AtomicUsize,
    best: Mutex<f64>,
}

impl std::fmt::Debug for SharedBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBudget")
            .field("spec", &self.spec)
            .field("evals", &self.evals())
            .field("best", &self.best())
            .finish()
    }
}

impl SharedBudget {
    /// Start tracking `spec` against `clock` (epoch = now).
    pub fn new(spec: BudgetSpec, clock: Arc<dyn Clock>) -> SharedBudget {
        let start = clock.now();
        SharedBudget {
            spec,
            clock,
            start,
            evals: AtomicUsize::new(0),
            best: Mutex::new(f64::NEG_INFINITY),
        }
    }

    /// Record one completed evaluation with its score.
    pub fn record(&self, score: f64) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.seed_incumbent(score);
    }

    /// Raise the incumbent *without* counting an evaluation. Used when a
    /// shared view continues an existing run: the previous best must keep
    /// participating in the target check.
    pub fn seed_incumbent(&self, score: f64) {
        let mut best = self.best.lock();
        if score > *best {
            *best = score;
        }
    }

    /// Evaluations recorded so far.
    pub fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    /// Best score recorded so far (`-∞` before the first record).
    pub fn best(&self) -> f64 {
        *self.best.lock()
    }

    /// Elapsed time on the injected clock since construction.
    pub fn elapsed(&self) -> Duration {
        self.clock.now().saturating_sub(self.start)
    }

    /// Evaluations remaining before the count limit (∞ ⇒ `usize::MAX`).
    pub fn remaining_evals(&self) -> usize {
        self.spec
            .max_evals
            .map_or(usize::MAX, |n| n.saturating_sub(self.evals()))
    }

    /// True when any component of the budget has tripped.
    pub fn exhausted(&self) -> bool {
        if let Some(n) = self.spec.max_evals {
            if self.evals() >= n {
                return true;
            }
        }
        if let Some(t) = self.spec.max_time {
            if self.elapsed() >= t {
                return true;
            }
        }
        if let Some(target) = self.spec.target {
            if self.best() >= target {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    fn on_manual(spec: BudgetSpec) -> (Arc<ManualClock>, SharedBudget) {
        let clock = Arc::new(ManualClock::new());
        let budget = SharedBudget::new(spec, clock.clone());
        (clock, budget)
    }

    #[test]
    fn eval_limit_trips_exactly() {
        let (_c, b) = on_manual(BudgetSpec::evals(2));
        assert_eq!(b.remaining_evals(), 2);
        b.record(0.1);
        assert!(!b.exhausted());
        b.record(0.2);
        assert!(b.exhausted());
        assert_eq!(b.remaining_evals(), 0);
        assert_eq!(b.best(), 0.2);
    }

    #[test]
    fn time_limit_trips_on_the_injected_clock() {
        let (clock, b) = on_manual(BudgetSpec::time(Duration::from_secs(30)));
        assert!(!b.exhausted());
        clock.advance(Duration::from_secs(29));
        assert!(!b.exhausted());
        clock.advance(Duration::from_secs(1));
        assert!(b.exhausted());
    }

    #[test]
    fn target_trips_on_good_score() {
        let (_c, b) = on_manual(BudgetSpec::default().with_target(0.9));
        b.record(0.5);
        assert!(!b.exhausted());
        b.record(0.95);
        assert!(b.exhausted());
    }

    #[test]
    fn budget_epoch_is_construction_not_clock_zero() {
        let clock = Arc::new(ManualClock::new());
        clock.advance(Duration::from_secs(100));
        let b = SharedBudget::new(BudgetSpec::time(Duration::from_secs(5)), clock.clone());
        assert_eq!(b.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_secs(4));
        assert!(!b.exhausted());
    }
}
