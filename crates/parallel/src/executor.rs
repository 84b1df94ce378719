//! The scoped worker pool with an index-ordered work queue.

use crate::budget::SharedBudget;
use crate::env::threads_from_env;
use automodel_trace::EnvError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A fixed-width pool of scoped workers that evaluates index-addressed
/// batches with ordered reduction. Cheap to construct (the calling thread
/// is worker 0 and the other `threads - 1` are spawned per batch and
/// joined before `map*` returns — no idle pool to manage), cheap to
/// clone, and safe to share.
///
/// Determinism contract: for a task function `f` that is deterministic in
/// its index, `map` (and `map_budgeted` under an evaluation-count budget)
/// returns byte-identical output at every thread count.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Single-threaded executor — the CI determinism-replay configuration.
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// The executor a run entry point uses: `AUTOMODEL_THREADS` workers
    /// when set (parsed strictly by [`threads_from_env`]), otherwise the
    /// host's available parallelism.
    pub fn from_env() -> Result<Executor, EnvError> {
        let threads = match threads_from_env()? {
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Ok(Executor::new(threads))
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate `f(0), …, f(n-1)` and return the results in index order.
    /// If any task panics, the panic is re-raised on the caller thread.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, None, f)
    }

    /// Like [`map`](Executor::map), but stop claiming tasks once `budget`
    /// is exhausted. The executed tasks always form the prefix `[0, k)`;
    /// the returned vector holds exactly their results.
    ///
    /// `budget` is checked before every task claim. An evaluation-count
    /// limit additionally caps the prefix up front (`k ≤ remaining_evals`),
    /// which is what makes eval-bounded runs thread-count-invariant. `f` is
    /// responsible for calling [`SharedBudget::record`] once per task so
    /// the count and the incumbent advance.
    pub fn map_budgeted<T, F>(&self, n: usize, budget: &SharedBudget, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, Some(budget), f)
    }

    fn run<T, F>(&self, n: usize, budget: Option<&SharedBudget>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let allowed = budget.map_or(n, |b| n.min(b.remaining_evals()));
        let workers = self.threads.min(allowed);
        if workers <= 1 {
            // Serial path. Identical claim discipline (check budget, then
            // take the next index) and trivially in-order reduction, so the
            // threaded path below can never disagree with it under an
            // eval-count budget.
            let mut out = Vec::with_capacity(allowed);
            for idx in 0..allowed {
                if budget.is_some_and(|b| b.exhausted()) {
                    break;
                }
                out.push(f(idx));
            }
            return out;
        }

        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(allowed));
        let work = || {
            // A panic unwinding out of this worker stops the others at
            // their next claim.
            let _stop_on_panic = StopOnPanic(&stop);
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if budget.is_some_and(|b| b.exhausted()) {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= allowed {
                    break;
                }
                // A claimed index is always evaluated (budget checks
                // happen strictly before the claim), so the executed
                // set stays a contiguous prefix — no holes.
                let value = f(idx);
                slots.lock().push((idx, value));
            }
        };
        let result = crossbeam::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(|_| work())).collect();
            // The calling thread is worker 0: a batch on `t` threads
            // spawns only `t - 1`, and the caller's allocations stay in
            // its own malloc arena. A panic here unwinds out of the scope
            // after the spawned workers are joined, payload intact.
            work();
            // Join explicitly to recover the original panic payload (an
            // unjoined scoped thread would surface only as a generic
            // "a scoped thread panicked").
            let mut panicked = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panicked.get_or_insert(payload);
                }
            }
            panicked
        });
        match result {
            Ok(Some(payload)) | Err(payload) => std::panic::resume_unwind(payload),
            Ok(None) => {}
        }
        let mut pairs = slots.into_inner();
        pairs.sort_by_key(|(idx, _)| *idx);
        pairs.into_iter().map(|(_, value)| value).collect()
    }
}

/// Raises the batch's stop flag when dropped during a panic, so one
/// panicking worker ends the batch for all of them.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetSpec;
    use crate::seed::seed_stream;
    use crate::ManualClock;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn map_returns_results_in_index_order_despite_uneven_costs() {
        // Early indices sleep longest, so completion order inverts claim
        // order — the reduction must restore index order.
        let out = Executor::new(4).map(12, |i| {
            std::thread::sleep(Duration::from_millis((12 - i as u64) % 5));
            i * i
        });
        assert_eq!(out, (0..12).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_identical_across_thread_counts() {
        let run = |threads| {
            Executor::new(threads).map(64, |i| {
                let s = seed_stream(99, i as u64, 0);
                (i, s, (s as f64).sqrt())
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panic_propagates_to_the_caller() {
        Executor::new(4).map(8, |i| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }

    #[test]
    fn eval_budget_caps_the_prefix_exactly() {
        for threads in [1, 2, 8] {
            let budget = SharedBudget::new(BudgetSpec::evals(5), Arc::new(ManualClock::new()));
            let out = Executor::new(threads).map_budgeted(20, &budget, |i| {
                budget.record(0.0);
                i
            });
            assert_eq!(out, vec![0, 1, 2, 3, 4], "threads = {threads}");
            assert_eq!(budget.evals(), 5);
        }
    }

    #[test]
    fn target_budget_stops_mid_batch() {
        let budget = SharedBudget::new(
            BudgetSpec::default().with_target(0.5),
            Arc::new(ManualClock::new()),
        );
        let out = Executor::new(2).map_budgeted(100, &budget, |i| {
            budget.record(if i >= 3 { 1.0 } else { 0.0 });
            i
        });
        // The target trips after task 3; workers may already hold claims,
        // so a small overshoot (≤ thread count) is allowed — but the result
        // must stay an index-ordered prefix and far short of the batch.
        assert!(out.len() >= 4 && out.len() < 100, "len = {}", out.len());
        assert_eq!(out, (0..out.len()).collect::<Vec<_>>());
    }

    #[test]
    fn time_budget_stops_mid_batch_on_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let budget = SharedBudget::new(BudgetSpec::time(Duration::from_secs(10)), clock.clone());
        let out = Executor::new(3).map_budgeted(100, &budget, |i| {
            if i == 5 {
                clock.advance(Duration::from_secs(11));
            }
            budget.record(0.0);
            i
        });
        assert!(out.len() >= 6 && out.len() < 100, "len = {}", out.len());
        assert_eq!(out, (0..out.len()).collect::<Vec<_>>());
    }

    #[test]
    fn exhausted_budget_runs_nothing() {
        let budget = SharedBudget::new(BudgetSpec::evals(0), Arc::new(ManualClock::new()));
        let out = Executor::new(4).map_budgeted(10, &budget, |i| {
            budget.record(0.0);
            i
        });
        assert!(out.is_empty());
        assert_eq!(budget.evals(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
        assert_eq!(Executor::new(0).map(3, |i| i), vec![0, 1, 2]);
    }
}
