//! Importance sampling for rare buffer overflows: the paper's Appendix B
//! machinery end-to-end — twist search (the Fig. 14 "valley"), unbiased
//! estimation, and the variance-reduction payoff vs plain Monte Carlo.
//!
//! ```text
//! cargo run --release --example rare_event_is
//! ```

use svbr::is::{IsEstimator, IsEvent};
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::Marginal;
use svbr::model::{BackgroundKind, UnifiedFit, UnifiedOptions};
use svbr::queue::Mux;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // System: unified VBR video model feeding a multiplexer at a LOW
    // utilization, so overflow of a modest buffer is a genuinely rare event.
    let series = svbr::video::reference_trace_intra_of_len(60_000).as_f64();
    let fit = UnifiedFit::fit(&series, &UnifiedOptions::default())?;
    let mux = Mux::new(fit.marginal.mean(), 0.25)?;
    let horizon = 400;
    let buffer = mux.buffer(30.0); // 30 mean-frame units
    let background = fit.background_table(BackgroundKind::SrdLrd, horizon)?;
    let transform = GaussianTransform::new(fit.marginal.clone());

    // One estimator prepares the Durbin–Levinson schedule once; the valley
    // search and the final run share it.
    let estimator = IsEstimator::new(
        &background,
        horizon,
        transform,
        mux.service_rate(),
        buffer,
        0.0,
        IsEvent::FirstPassage,
    )?;

    // 1. The valley: scan twists, watch the normalized variance dip.
    let twists = [0.0, 1.0, 2.0, 3.0, 3.5, 4.0, 5.0];
    let (points, best) = estimator.valley(&twists, 2_000, 42, 4)?;
    println!("twist m*   P estimate     normalized variance   hits");
    for p in &points {
        println!(
            "{:>8.1}   {:>12.3e}   {:>19.3e}   {:>4}",
            p.twist,
            p.estimate.p,
            p.normalized_variance(),
            p.estimate.hits
        );
    }
    let m_star = points[best].twist;
    println!("\nvalley minimum at m* = {m_star}");

    // 2. Final estimate at the chosen twist.
    let est = estimator.with_twist(m_star).run_parallel(5_000, 4242, 4);
    let (lo, hi) = est.ci95();
    println!(
        "P(overflow within {horizon} slots) = {:.3e}  (95% CI [{:.2e}, {:.2e}])",
        est.p, lo, hi
    );
    println!(
        "variance reduction vs plain MC at equal replications: {:.0}x",
        est.variance_reduction()
    );
    println!(
        "mean slots simulated per replication: {:.0} of {horizon} (early termination)",
        est.mean_slots
    );
    assert!(est.p > 0.0, "IS must resolve the rare event");
    Ok(())
}
