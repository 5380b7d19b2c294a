//! Injectable time sources for the telemetry sink.
//!
//! Spans are stamped through a [`Clock`] owned by the sink, not through
//! `Instant::now()` directly, so the same producers serve two regimes:
//!
//! * live serving uses a [`MonotonicClock`] (wall milliseconds since the
//!   sink was created);
//! * the virtual-time load harness uses a [`VirtualClock`] it advances by
//!   hand, which makes every recorded timestamp a deterministic function of
//!   the replayed schedule — same seed, same snapshot, on any machine.
//!
//! A sink whose clock [`is_virtual`](Clock::is_virtual) additionally drops
//! wall-measured attribute values (see `SpanGuard::attr_wall`), so nothing
//! host-timing-dependent can leak into a deterministic snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A time source producing milliseconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds since the clock's epoch.
    fn now_ms(&self) -> f64;

    /// True for hand-advanced clocks whose readings are deterministic;
    /// sinks on a virtual clock refuse wall-measured values so their
    /// snapshots stay bit-reproducible.
    fn is_virtual(&self) -> bool {
        false
    }
}

/// Wall-clock milliseconds since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }
}

/// A hand-advanced clock for deterministic replays: reads return whatever
/// the owner last [`set_ms`](Self::set_ms). Shared as an `Arc` between the
/// advancing loop and the telemetry sink; stores f64 bits in an atomic so
/// readers never block the loop.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_bits: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at t = 0 ms.
    pub fn new() -> Self {
        VirtualClock {
            now_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Move the clock to `now_ms` (virtual milliseconds). Monotonicity is
    /// the owner's responsibility — the replay loop only moves forward.
    pub fn set_ms(&self, now_ms: f64) {
        self.now_bits.store(now_ms.to_bits(), Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> f64 {
        f64::from_bits(self.now_bits.load(Ordering::Relaxed))
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a && a >= 0.0);
        assert!(!c.is_virtual());
    }

    #[test]
    fn virtual_clock_reads_what_was_set() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0.0);
        c.set_ms(12.5);
        assert_eq!(c.now_ms(), 12.5);
        assert!(c.is_virtual());
    }
}
