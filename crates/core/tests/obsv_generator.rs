//! Set-up counts of the fast (Davies–Harte) generators, read from the
//! `davies_harte.setup` spans: repeated draws at one length must share one
//! circulant set-up. One test, so no other test's spans reach the sink.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use svbr_core::composite::{CompositeVideoFit, CompositeVideoOptions};
use svbr_core::hurst::HurstOptions;
use svbr_core::pipeline::{BackgroundKind, UnifiedFit, UnifiedOptions};
use svbr_obsv::{Event, MemorySink};
use svbr_stats::{FitOptions, RsOptions, VtOptions};
use svbr_video::{reference_trace_intra_of_len, reference_trace_of_len};

fn hurst_opts(max_m: usize, max_n: usize) -> HurstOptions {
    HurstOptions {
        vt: VtOptions {
            min_m: 10,
            max_m,
            points: 10,
            min_blocks: 10,
        },
        rs: RsOptions {
            min_n: 32,
            max_n,
            sizes: 8,
            starts: 6,
        },
        gph_frequencies: Some(64),
        extended_estimators: false,
        round_to: 0.05,
    }
}

/// `davies_harte.setup` spans this thread emitted into `sink`.
fn setups(sink: &MemorySink) -> usize {
    let tid = svbr_obsv::thread_ordinal();
    sink.events_named("davies_harte.setup")
        .iter()
        .filter(|e| matches!(e, Event::Span { tid: t, .. } if *t == tid))
        .count()
}

#[test]
fn fast_generators_set_up_davies_harte_once_per_length() {
    let series = reference_trace_intra_of_len(60_000).as_f64();
    let opts = UnifiedOptions {
        hurst: hurst_opts(3000, 1 << 14),
        acf_lags: 400,
        fit: FitOptions {
            knee_min: 20,
            knee_max: 120,
            max_lag: 400,
            min_correlation: 0.05,
        },
        ..Default::default()
    };
    let fit = UnifiedFit::fit(&series, &opts).expect("fit");
    let generator = fit
        .generator(BackgroundKind::SrdLrd, 4_096)
        .expect("generator");

    let composite = CompositeVideoFit::fit(
        &reference_trace_of_len(120_000),
        &CompositeVideoOptions {
            unified: UnifiedOptions {
                hurst: hurst_opts(500, 4096),
                acf_lags: 120,
                fit: FitOptions {
                    knee_min: 3,
                    knee_max: 30,
                    max_lag: 120,
                    min_correlation: 0.05,
                },
                ..Default::default()
            },
            marginal_bins: 120,
        },
    )
    .expect("composite fit");

    let sink = Arc::new(MemorySink::new());
    svbr_obsv::install(sink.clone());
    let mut rng = StdRng::seed_from_u64(11);

    // The paper_fit pattern: eight full-length draws from one generator.
    for _ in 0..8 {
        generator.generate(4_096, true, &mut rng).expect("generate");
    }
    let unified = setups(&sink);
    // A new length sets up again; the exact path needs no circulant.
    generator.generate(1_000, true, &mut rng).expect("generate");
    generator.generate(512, false, &mut rng).expect("generate");
    let unified_after = setups(&sink);

    sink.clear();
    // A length no other test in this binary uses, so the process cache
    // starts cold for it.
    for _ in 0..4 {
        composite.generate(3_001, true, &mut rng).expect("generate");
    }
    let composite_setups = setups(&sink);
    svbr_obsv::uninstall();

    assert_eq!(unified, 1, "eight draws at one length");
    assert_eq!(unified_after, 2, "one more length, plus an exact draw");
    assert_eq!(composite_setups, 1, "four composite draws at one length");
}
