//! Integration tests for the composite I-B-P model (§3.3) and the
//! traditional-model baselines the paper argues against.

use rand::rngs::StdRng;
use rand::SeedableRng;
use svbr::lrd::arma::Ar1;
use svbr::model::{CompositeVideoFit, CompositeVideoOptions};
use svbr::stats::{sample_acf_fft, variance_time_hurst, VtOptions};
use svbr::video::{reference_trace_of_len, FrameType};

fn composite_opts() -> CompositeVideoOptions {
    let mut opts = CompositeVideoOptions::default();
    opts.unified.acf_lags = 120;
    opts.unified.fit.knee_min = 3;
    opts.unified.fit.knee_max = 30;
    opts.unified.fit.max_lag = 120;
    opts.unified.hurst.vt.min_m = 10;
    opts.unified.hurst.vt.max_m = 400;
    opts.unified.hurst.rs.min_n = 32;
    opts.unified.hurst.rs.max_n = 2048;
    opts.unified.hurst.gph_frequencies = Some(64);
    opts
}

#[test]
fn composite_model_full_cycle() {
    let trace = reference_trace_of_len(96_000);
    let fit = CompositeVideoFit::fit(&trace, &composite_opts()).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let synth = fit.generate(36_000, true, &mut rng).unwrap();

    // GOP structure: same pattern, same phase behaviour.
    assert_eq!(synth.pattern(), trace.pattern());
    assert_eq!(synth.frame_type(0), FrameType::I);
    assert_eq!(synth.frame_type(12), FrameType::I);

    // Aggregate GOP-level series of the synthetic trace is LRD.
    let gops: Vec<f64> = synth.gop_totals().iter().map(|&g| g as f64).collect();
    let est = variance_time_hurst(
        &gops,
        &VtOptions {
            min_m: 5,
            max_m: 200,
            points: 10,
            min_blocks: 10,
        },
    )
    .unwrap();
    assert!(est.hurst > 0.6, "GOP-level H = {}", est.hurst);

    // Foreground per-frame ACF oscillates with the GOP period like the
    // source (Figs. 9–11).
    let r_src = sample_acf_fft(&trace.as_f64(), 48).unwrap();
    let r_syn = sample_acf_fft(&synth.as_f64(), 48).unwrap();
    for base in [12usize, 24, 36, 48] {
        assert!(
            r_syn[base] > r_syn[base - 6],
            "synthetic GOP peak at {base}"
        );
        assert!(r_src[base] > r_src[base - 6], "source GOP peak at {base}");
    }
}

#[test]
fn composite_trace_type_counts_match_pattern() {
    // 96k frames: the I-frame subprocess needs a few thousand samples for a
    // stable two-piece ACF fit (shorter traces can violate eq. 12's
    // continuity check, which `CompositeAcf` rightly rejects).
    let trace = reference_trace_of_len(96_000);
    let fit = CompositeVideoFit::fit(&trace, &composite_opts()).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let synth = fit.generate(12_000, true, &mut rng).unwrap();
    let (i, p, b) = synth.pattern().counts();
    assert_eq!((i, p, b), (1, 3, 8));
    assert_eq!(synth.sizes_of_type(FrameType::I).len(), 1_000);
    assert_eq!(synth.sizes_of_type(FrameType::P).len(), 3_000);
    assert_eq!(synth.sizes_of_type(FrameType::B).len(), 8_000);
}

#[test]
fn traditional_models_are_srd_video_is_not() {
    // The paper's core quantitative claim about *why* new models are
    // needed: a traditional SRD source (AR(1), the paper's exponential
    // ACF) reads H ≈ ½ at scale, video does not. Seeds 1–10 read AR(1)
    // H_vt 0.453–0.548; this test runs seed 3.
    let mut rng = StdRng::seed_from_u64(3);
    let n = 200_000;
    let ar1 = Ar1::new(0.9).unwrap().generate(n, &mut rng);
    let video = reference_trace_of_len(n).as_f64();
    let opts = VtOptions {
        min_m: 100,
        max_m: 5_000,
        points: 12,
        min_blocks: 10,
    };
    let h_ar1 = variance_time_hurst(&ar1, &opts).unwrap().hurst;
    let h_video = variance_time_hurst(&video, &opts).unwrap().hurst;
    assert!(h_ar1 < 0.65, "AR(1) H = {h_ar1}");
    assert!(h_video > 0.75, "video H = {h_video}");
}

#[test]
fn i_frames_subsampled_series_keeps_lrd() {
    // §3.3's premise: the I-frame subprocess (one sample per GOP) carries
    // the same long-range structure as the whole stream.
    let trace = reference_trace_of_len(120_000);
    let i_series: Vec<f64> = trace
        .sizes_of_type(FrameType::I)
        .into_iter()
        .map(|s| s as f64)
        .collect();
    assert_eq!(i_series.len(), 10_000);
    let est = variance_time_hurst(
        &i_series,
        &VtOptions {
            min_m: 10,
            max_m: 500,
            points: 10,
            min_blocks: 10,
        },
    )
    .unwrap();
    assert!(est.hurst > 0.7, "I-frame H = {}", est.hurst);
}
