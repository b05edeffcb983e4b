//! Counting-allocator proof that IS replications reuse their buffers.
//!
//! [`svbr_is::IsEstimator::run`] keeps one path scratch for the whole run:
//! the background path, the lanes and the outcomes are cleared and
//! refilled, never reallocated, once their capacity has grown to the
//! horizon. So with tracing off a run performs the same number of
//! allocation events for `n` and for `4n` replications; an allocation per
//! replication or per slot would make the count grow with `n`. The same
//! holds for [`svbr_is::IsEstimator::transient_curve`], whose level lanes
//! and per-stop-time outcomes run on the same kernel and scratch.
//!
//! The allocator is process-global, so this file holds exactly one test —
//! a second test thread would race the counter.

// Implementing `GlobalAlloc` requires `unsafe`; the wrapper adds nothing
// but a counter bump in front of the system allocator.
#![expect(unsafe_code, reason = "a counting GlobalAlloc wrapper around System")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use svbr_is::{IsEstimator, IsEvent};
use svbr_lrd::acf::FgnAcf;
use svbr_marginal::transform::GaussianTransform;
use svbr_marginal::Lognormal;

/// System allocator with an allocation-event counter (`alloc`, `realloc`
/// and `alloc_zeroed` all count; `dealloc` is free and irrelevant here).
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each inherits `System`'s guarantees; the counter bump does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::SeqCst)
}

#[test]
fn run_and_transient_curve_allocate_the_same_for_n_and_4n_replications() {
    const N: usize = 40;
    assert!(!svbr_obsv::enabled(), "the count is taken with tracing off");

    // A twisted first-passage system in which some paths hit the buffer
    // early and others run to the horizon, so both exits are exercised.
    let marginal = Lognormal::from_moments(1.0, 0.25).unwrap_or_else(|e| panic!("{e}"));
    let estimator = IsEstimator::new(
        FgnAcf::new(0.8).unwrap_or_else(|e| panic!("{e}")),
        200,
        GaussianTransform::new(marginal),
        1.1,
        4.0,
        0.4,
        IsEvent::FirstPassage,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let mut rng = StdRng::seed_from_u64(11);

    // Warm-up: one-time registrations and lazily built statics.
    estimator.run(N, &mut rng);

    let count = |n: usize, rng: &mut StdRng| {
        let before = alloc_events();
        let est = estimator.run(n, rng);
        let events = alloc_events() - before;
        assert_eq!(est.n, n);
        assert!(est.p.is_finite() && est.hits > 0 && est.hits < n);
        events
    };
    let small = count(N, &mut rng);
    let large = count(4 * N, &mut rng);
    assert_eq!(
        small,
        large,
        "IsEstimator::run allocated {small} times for {N} replications and {large} times for {}",
        4 * N
    );

    // Transient curves: empty and full starts scored at five stop times.
    // One worker, so thread spawns do not enter the count.
    let stop_times = [40, 80, 120, 160, 200];
    let curves = |n: usize| {
        let before = alloc_events();
        let curves = estimator
            .transient_curve(&[0.0, 4.0], &stop_times, n, 5, 1)
            .unwrap_or_else(|e| panic!("{e}"));
        let events = alloc_events() - before;
        assert!(curves.iter().flatten().all(|e| e.n == n && e.p.is_finite()));
        assert!(curves[1].iter().any(|e| e.hits > 0));
        events
    };
    curves(N);
    let small = curves(N);
    let large = curves(4 * N);
    assert_eq!(
        small,
        large,
        "IsEstimator::transient_curve allocated {small} times for {N} replications and {large} times for {}",
        4 * N
    );
}
