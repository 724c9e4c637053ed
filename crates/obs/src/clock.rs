//! The workspace's single wall-clock source.
//!
//! Every timing in the workspace goes through [`Stopwatch`]; the
//! `flixcheck` `instant-now` lint flags any other `Instant::now()` call so
//! measurements cannot silently bypass the observability layer (and so
//! there is exactly one place to patch if time ever needs to be mocked).

use std::time::{Duration, Instant};

/// A started wall-clock measurement.
///
/// ```
/// let sw = flixobs::Stopwatch::start();
/// let _micros: u64 = sw.elapsed_micros();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Wall-clock time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed whole microseconds (saturating at `u64::MAX`).
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Elapsed whole nanoseconds (saturating at `u64::MAX`), for spans too
    /// short to survive truncation to microseconds.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A per-request time budget anchored at a [`Stopwatch`].
///
/// A `Deadline` is cheap to copy and cheap to check: callers poll
/// [`Deadline::expired`] at natural loop boundaries (one clock read per
/// poll) instead of arming timers. The evaluator threads a deadline
/// through its priority-queue loop so long-running queries stop at the
/// budget boundary and return the partial, distance-ordered prefix
/// produced so far.
///
/// ```
/// let d = flixobs::Deadline::within_micros(5_000_000);
/// assert!(!d.expired());
/// assert!(d.remaining_micros() <= 5_000_000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    clock: Stopwatch,
    budget_micros: u64,
}

impl Deadline {
    /// A deadline `budget_micros` from now.
    pub fn within_micros(budget_micros: u64) -> Self {
        Self {
            clock: Stopwatch::start(),
            budget_micros,
        }
    }

    /// The total budget this deadline was created with.
    pub fn budget_micros(&self) -> u64 {
        self.budget_micros
    }

    /// Whether the budget has been spent.
    pub fn expired(&self) -> bool {
        self.clock.elapsed_micros() >= self.budget_micros
    }

    /// Microseconds left before expiry (0 once expired).
    pub fn remaining_micros(&self) -> u64 {
        self.budget_micros
            .saturating_sub(self.clock.elapsed_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_micros();
        let b = sw.elapsed_micros();
        assert!(b >= a);
        assert!(sw.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn zero_budget_deadline_is_expired() {
        let d = Deadline::within_micros(0);
        assert!(d.expired());
        assert_eq!(d.remaining_micros(), 0);
        assert_eq!(d.budget_micros(), 0);
    }

    #[test]
    fn generous_deadline_is_not_expired() {
        let d = Deadline::within_micros(60_000_000);
        assert!(!d.expired());
        assert!(d.remaining_micros() > 0);
    }
}
