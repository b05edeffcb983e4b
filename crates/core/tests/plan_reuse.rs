//! Generating a path and taking its sample ACF must not plan an FFT after
//! the first round. The sample ACF pads to `n + max_lag`, so its
//! half-length transform is shorter than the Davies–Harte generator's; both
//! plans are too large to stay pinned, and the ACF runs on the generator's
//! live plan instead of rebuilding its own on every call. The cache
//! counters are process-global, so this check lives in a test binary of
//! its own: no concurrent test can plan between the snapshots.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use svbr_core::pipeline::{BackgroundKind, UnifiedFit, UnifiedOptions};
use svbr_lrd::cache::FFT_PLAN_PINNED_BYTES_CAP;
use svbr_lrd::FftPlan;
use svbr_stats::sample_acf_fft;
use svbr_video::reference_trace_intra_of_len;

#[test]
fn generate_and_sample_acf_reuse_the_generators_plan() {
    const N: usize = 100_000;
    const LAGS: usize = 500;
    // The ACF's half-length plan (2^16) and the generator's (2^17) both
    // sit above the pinned cap, so only a live holder keeps either.
    assert!(FftPlan::new(1 << 16).footprint_bytes() > FFT_PLAN_PINNED_BYTES_CAP);

    svbr_obsv::install(Arc::new(svbr_obsv::MemorySink::new()));
    let miss = || {
        svbr_obsv::snapshot()
            .counter("cache.lookups{backend=\"fft_plan\",outcome=\"miss\"}")
            .unwrap_or(0)
    };
    let trace = reference_trace_intra_of_len(20_000);
    let fit = UnifiedFit::fit(&trace.as_f64(), &UnifiedOptions::default()).expect("fit");
    let generator = fit.generator(BackgroundKind::SrdLrd, N).expect("generator");
    let mut rng = StdRng::seed_from_u64(7);
    let mut after_first = 0;
    for round in 0..4 {
        let ys = generator.generate(N, true, &mut rng).expect("generate");
        let acf = sample_acf_fft(&ys, LAGS).expect("sample acf");
        assert_eq!(acf.len(), LAGS + 1);
        if round == 0 {
            after_first = miss();
        }
    }
    assert_eq!(miss(), after_first, "an FFT plan was rebuilt after round 1");
    svbr_obsv::uninstall();
}
