//! The benchmark's one wall-clock read, and the waits built on it.

use std::time::{Duration, Instant};

/// The current instant.
pub fn now() -> Instant {
    // lint:allow(wall-clock): measuring elapsed time is this benchmark's
    // job; no reading feeds a study, a result document or a checksum.
    Instant::now()
}

/// How long before a due time a waiting thread stops sleeping and
/// polls the clock instead: a sleeping thread wakes up to a few hundred
/// microseconds late on a virtual machine, and that lateness would be
/// the generator's, not the server's. The poll neither yields (that
/// hands the core to the daemon's busy workers for a whole time slice)
/// nor issues spin-loop hints (a paused virtual CPU exits to its host).
const SPIN: Duration = Duration::from_micros(300);

/// Waits until `due`; returns at once when it has passed.
pub fn sleep_until(due: Instant) {
    let t = now();
    if due > t + SPIN {
        std::thread::sleep(due - t - SPIN);
    }
    while now() < due {}
}

/// Milliseconds from `earlier` to `later`, zero when `later` is earlier.
pub fn ms(earlier: Instant, later: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

/// The next tick of a fixed-period schedule after `tick`. Ticks that
/// have wholly passed are skipped, so a stalled loop resumes on the
/// schedule instead of bursting to catch up.
pub fn next_tick(tick: Instant, period: Duration) -> Instant {
    let next = tick + period;
    let t = now();
    if t > next + period {
        let behind = (t - next).as_nanos() / period.as_nanos();
        next + period * u32::try_from(behind).unwrap_or(u32::MAX)
    } else {
        next
    }
}
