//! Process-wide monotonic clock and thread ordinals.
//!
//! All timing in the workspace flows through this module (clippy's
//! `disallowed_types`/`disallowed_methods` ban `std::time::Instant`
//! elsewhere) so that span timestamps from different threads share one
//! epoch and can be reassembled into a tree, and so that benchmark timing
//! and trace timing agree with each other.

#![expect(
    clippy::disallowed_types,
    reason = "this clock defines the process epoch on top of Instant"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// The process epoch: the instant this clock was first consulted. All
/// [`now_us`] readings are relative to it.
#[expect(
    clippy::disallowed_methods,
    reason = "this clock defines the process epoch on top of Instant"
)]
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process epoch (monotonic, never wraps in
/// practice — u64 microseconds cover ~585 000 years).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// A small stable ordinal for the calling thread (0 for the first thread
/// that asks, 1 for the next, …). Used to tag span events so the profiler
/// can reconstruct per-thread span stacks; `std::thread::ThreadId` has no
/// stable numeric form on this toolchain.
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

/// A restartable stopwatch over the process clock. The unit of timing for
/// everything outside this module (raw `std::time::Instant` is a
/// disallowed type elsewhere).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_us: u64,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { start_us: now_us() }
    }

    /// Microseconds since start.
    pub fn elapsed_us(&self) -> u64 {
        now_us().saturating_sub(self.start_us)
    }

    /// Seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_us() as f64 / 1e6
    }

    /// Reset the stopwatch to now.
    pub fn restart(&mut self) {
        self.start_us = now_us();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_us() >= 1_000);
        assert!(sw.elapsed_secs() > 0.0);
        let mut sw = sw;
        sw.restart();
        assert!(sw.elapsed_us() < 1_000_000);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "per-OS-thread ordinals need real threads"
    )]
    fn thread_ordinals_are_distinct_and_stable() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal(), "ordinal is stable per thread");
        let theirs = std::thread::scope(|s| {
            let h1 = s.spawn(thread_ordinal);
            let h2 = s.spawn(thread_ordinal);
            [h1.join().expect("join"), h2.join().expect("join")]
        });
        assert_ne!(theirs[0], theirs[1]);
        assert_ne!(theirs[0], mine);
        assert_ne!(theirs[1], mine);
    }
}
