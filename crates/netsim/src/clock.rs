//! Virtual time.
//!
//! The entire simulation shares one [`VirtualClock`]. Nothing in the
//! workspace reads the OS clock; components that need "now" hold a clone of
//! the clock handle, and only the network fabric (and test harnesses)
//! advance it. This is what makes every experiment in EXPERIMENTS.md exactly
//! reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A span of virtual time with millisecond resolution.
///
/// Milliseconds are plenty for a crawling/honeypot simulation whose real
/// counterpart operated on second-scale politeness delays.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Total length in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Total length in (truncated) seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Saturating sum of two durations.
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating difference of two durations.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale the duration by an integer factor, saturating.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 60_000 {
            write!(
                f,
                "{}m{:02}.{:03}s",
                self.0 / 60_000,
                (self.0 % 60_000) / 1000,
                self.0 % 1000
            )
        } else if self.0 >= 1000 {
            write!(f, "{}.{:03}s", self.0 / 1000, self.0 % 1000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

/// A point in virtual time, measured from the start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The origin of simulated time.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Construct an instant at `ms` milliseconds after the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimInstant(ms)
    }

    /// Milliseconds since the simulation epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Virtual time elapsed since `earlier` (zero if `earlier` is later).
    pub const fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` after this one.
    pub const fn checked_add(self, d: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(d.0))
    }
}

impl std::ops::Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", SimDuration(self.0))
    }
}

/// Shared, monotonically advancing virtual clock.
///
/// Cloning is cheap and all clones observe the same time. The clock is
/// internally atomic so the concurrent bot runner can read it from worker
/// threads, but *advancing* it is the simulation driver's job.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now_ms: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A new clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.now_ms.load(Ordering::SeqCst))
    }

    /// Advance the clock by `d` and return the new time.
    pub fn advance(&self, d: SimDuration) -> SimInstant {
        let new = self.now_ms.fetch_add(d.as_millis(), Ordering::SeqCst) + d.as_millis();
        SimInstant(new)
    }

    /// Advance the clock to `t` if `t` is in the future; otherwise leave it.
    ///
    /// Used when replaying scheduled events: time never runs backwards.
    pub fn advance_to(&self, t: SimInstant) -> SimInstant {
        self.now_ms.fetch_max(t.as_millis(), Ordering::SeqCst);
        self.now()
    }

    /// Sleep for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> SimInstant {
        self.advance(d)
    }
}

/// The workspace's one clock abstraction, re-exported from `obs` so that
/// consumers reading time through netsim (the scheduler, the observability
/// layer, the honeypot driver) all name the same trait instead of growing
/// parallel clock interfaces.
pub use obs::Clock;

/// The virtual clock is the workspace's [`obs::Clock`]: span timestamps and
/// event log entries carry virtual milliseconds, so traces reproduce exactly.
impl obs::Clock for VirtualClock {
    fn now_millis(&self) -> u64 {
        self.now().as_millis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_convert_between_units() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert_eq!(SimDuration::from_millis(1500).as_secs(), 1);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let max = SimDuration::from_millis(u64::MAX);
        assert_eq!(max.saturating_add(SimDuration::from_millis(1)), max);
        assert_eq!(
            SimDuration::from_millis(5).saturating_sub(SimDuration::from_millis(9)),
            SimDuration::ZERO
        );
        assert_eq!(max.saturating_mul(2), max);
    }

    #[test]
    fn clock_advances_monotonically() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), SimInstant::EPOCH);
        clock.advance(SimDuration::from_millis(10));
        assert_eq!(clock.now().as_millis(), 10);
        // advance_to into the past is a no-op
        clock.advance_to(SimInstant::from_millis(5));
        assert_eq!(clock.now().as_millis(), 10);
        clock.advance_to(SimInstant::from_millis(50));
        assert_eq!(clock.now().as_millis(), 50);
    }

    #[test]
    fn clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_secs(1));
        assert_eq!(b.now().as_millis(), 1000);
    }

    #[test]
    fn instant_duration_since() {
        let early = SimInstant::from_millis(100);
        let late = SimInstant::from_millis(350);
        assert_eq!(late.duration_since(early).as_millis(), 250);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
    }

    #[test]
    fn virtual_clock_implements_obs_clock() {
        let clock = VirtualClock::new();
        clock.advance(SimDuration::from_millis(42));
        let as_obs: &dyn obs::Clock = &clock;
        assert_eq!(as_obs.now_millis(), 42);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_millis(45).to_string(), "45ms");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(61_001).to_string(), "1m01.001s");
        assert_eq!(SimInstant::from_millis(45).to_string(), "T+45ms");
    }
}
