//! Attenuation refinement must not fill the process-wide Davies–Harte
//! cache: every iteration's candidate `a` gives a new ACF, so a cached
//! sampler would never be hit again, and each job would leave its
//! refinement samplers resident. The cache counters are process-global, so
//! this check lives in a test binary of its own: no concurrent test can
//! touch the cache between the two snapshots.

use std::sync::Arc;
use svbr_core::pipeline::{RefineOptions, UnifiedFit, UnifiedOptions};
use svbr_video::reference_trace_intra_of_len;

#[test]
fn fit_and_seeded_refinement_leave_the_davies_harte_cache_alone() {
    svbr_obsv::install(Arc::new(svbr_obsv::MemorySink::new()));
    let miss = || {
        svbr_obsv::snapshot()
            .counter("cache.lookups{backend=\"davies_harte\",outcome=\"miss\"}")
            .unwrap_or(0)
    };
    let bytes = || {
        svbr_obsv::snapshot()
            .gauge("cache.davies_harte.bytes")
            .unwrap_or(0.0)
    };
    let (miss_before, bytes_before) = (miss(), bytes());

    let trace = reference_trace_intra_of_len(20_000);
    let mut fit = UnifiedFit::fit(&trace.as_f64(), &UnifiedOptions::default()).expect("fit");
    let opts = RefineOptions {
        max_iterations: 3,
        reps: 4,
        path_len: 1024,
        lag_window: (5, 60),
        tolerance: 1e-4,
    };
    let refinement = fit.refine_attenuation_seeded(&opts, 11, 2).expect("refine");
    assert!(!refinement.iterations.is_empty());

    assert_eq!(miss(), miss_before, "refinement inserted into the cache");
    assert_eq!(
        bytes().to_bits(),
        bytes_before.to_bits(),
        "cache footprint changed"
    );
    svbr_obsv::uninstall();
}
