//! Injectable monotonic time source.
//!
//! Nothing in the workspace reads `Instant::now()` directly: budgets and
//! trace timestamps ask a [`Clock`]. Production code injects
//! [`MonotonicClock`]; tests (and the default tracer) use [`ManualClock`]
//! and advance it by hand, which makes wall-clock budget tests instant and
//! deterministic instead of `thread::sleep`-flaky — and makes traces
//! byte-reproducible.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// A monotonic time source. `now()` is elapsed time since the clock's own
/// epoch (construction for [`MonotonicClock`], zero for [`ManualClock`]).
pub trait Clock: Send + Sync {
    fn now(&self) -> Duration;

    /// Does time pass on this clock without anyone advancing it? A clock
    /// that does not reads exactly zero elapsed across any work that
    /// never advances it, so a caller may skip work it would only time.
    fn advances_on_its_own(&self) -> bool {
        true
    }
}

/// Real wall clock backed by [`Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// Hand-advanced clock for deterministic tests. Wrap it in an `Arc` and
/// keep a handle to [`advance`](ManualClock::advance) it mid-test.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Move the clock forward by `by`.
    pub fn advance(&self, by: Duration) {
        *self.now.lock() += by;
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock()
    }

    fn advances_on_its_own(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances_on_its_own() {
        let c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(c.advances_on_its_own());
    }

    #[test]
    fn manual_clock_only_moves_when_told() {
        let c = ManualClock::new();
        assert!(!c.advances_on_its_own());
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_secs(3));
        c.advance(Duration::from_millis(500));
        assert_eq!(c.now(), Duration::from_millis(3500));
    }
}
