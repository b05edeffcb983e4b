//! Lane-batched inner-product kernels for the Durbin–Levinson hot path.
//!
//! Every O(k)-per-step loop in Hosking's method is a dot product between a
//! coefficient vector and a (reversed) history window. These kernels unroll
//! those loops into [`LANES`] independent accumulators over
//! `chunks_exact` blocks — the shape LLVM auto-vectorizes to packed SIMD
//! without target-specific intrinsics — and are shared by every consumer
//! ([`crate::hosking::HoskingSampler`], [`crate::hosking::PreparedHosking`]
//! and the truncated-AR arm of `svbr_serve::generate_chunk`, which serve
//! sessions and `repro resilience` both generate through), so the
//! cross-path bit-identity tests (prepared vs incremental,
//! cached vs streaming, resumed vs continuous) keep holding by
//! construction.
//!
//! Bit-identity decision (documented per kernel, DESIGN.md §5):
//!
//! * [`dot_rev`] and [`sum`] split one sequential accumulator into 4
//!   lanes, which **reorders the floating-point sum** — they are *not*
//!   bit-identical to the pre-vectorization scalar loops. They are still
//!   fully deterministic: the lane layout is fixed, so the same inputs give
//!   the same bits on every run, thread count, and call site. The measured
//!   ACF-L2 and MAVAR-Hurst deltas against the scalar kernels sit at
//!   rounding level (see the §5 ablation table).
//! * [`reflect_update`] is elementwise (each output depends on exactly two
//!   inputs, no accumulator), so it **is** bit-identical to the scalar
//!   loop it replaces.

/// Number of independent accumulator lanes. Four f64 lanes fill one AVX2
/// register (two NEON registers); wider unrolls showed no further gain on
/// the reference host.
pub const LANES: usize = 4;

/// Reversed-window dot product: `Σ_i a[i] · b[b.len() − 1 − i]`.
///
/// This is the Durbin–Levinson regression shape: coefficients are indexed
/// forward by lag while the history window is consumed newest-first. Only
/// the most recent `a.len()` values of `b` are read; `b` must be at least
/// as long as `a`.
pub fn dot_rev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert!(
        b.len() >= a.len(),
        "history window shorter than coefficient vector"
    );
    let n = a.len().min(b.len());
    let a = &a[..n];
    let b = &b[b.len() - n..];
    let r = n % LANES;
    let mut acc = [0.0f64; LANES];
    // a advances from the front, b retreats from the back; within each
    // exact 4-block the constant indices pair a[4i+l] with b[n−1−4i−l].
    for (ca, cb) in a[..n - r]
        .chunks_exact(LANES)
        .zip(b[r..].rchunks_exact(LANES))
    {
        acc[0] += ca[0] * cb[3];
        acc[1] += ca[1] * cb[2];
        acc[2] += ca[2] * cb[1];
        acc[3] += ca[3] * cb[0];
    }
    let mut tail = 0.0;
    // r = n % LANES <= n, so n-r is a valid split point
    for (x, y) in a[n - r..].iter().zip(b[..r].iter().rev()) {
        tail += x * y;
    }
    // The final sum pairs lane 0 with 1 and 2 with 3, which LLVM's SLP
    // vectorizer may mirror by packing lanes (0, 2) and (1, 3): that
    // deinterleaves both streams every block (four shuffles instead of
    // two). Whether it did hung on unrelated code in this crate — the same
    // source ran ~30% slower after an edit to `fft.rs`. Passing the lanes
    // through `black_box` seeds the vectorizer with the contiguous pairs;
    // the per-lane arithmetic, and so every bit, is unchanged.
    let acc = std::hint::black_box(acc);
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Lane-batched sum `Σ_i a[i]` (the `Σ_j φ_{k,j}` the importance-sampling
/// likelihood ratio consumes). Same 4-lane reassociation as [`dot_rev`].
pub fn sum(a: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut it = a.chunks_exact(LANES);
    for c in it.by_ref() {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let mut tail = 0.0;
    for &x in it.remainder() {
        tail += x;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Durbin–Levinson reflection update
/// `phi[i] = phi_prev[i] − κ · phi_prev[len − 1 − i]`.
///
/// Elementwise — no accumulator — so the result is bit-identical to the
/// scalar loop while still presenting two contiguous streams LLVM can
/// vectorize. `phi` and `phi_prev` must have equal length.
pub fn reflect_update(phi: &mut [f64], phi_prev: &[f64], kappa: f64) {
    debug_assert_eq!(phi.len(), phi_prev.len(), "coefficient rows must match");
    for (dst, (&p, &q)) in phi
        .iter_mut()
        .zip(phi_prev.iter().zip(phi_prev.iter().rev()))
    {
        *dst = p - kappa * q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_dot_rev(a: &[f64], b: &[f64]) -> f64 {
        let mut s = 0.0;
        for (i, &x) in a.iter().enumerate() {
            s += x * b[b.len() - 1 - i];
        }
        s
    }

    #[test]
    fn dot_rev_matches_scalar_reference() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n + 3).map(|i| (i as f64 * 0.71).cos()).collect();
            let got = dot_rev(&a, &b);
            let want = scalar_dot_rev(&a, &b);
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "n={n}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn dot_rev_reads_only_the_most_recent_window() {
        // Values outside the trailing a.len() window of b must not matter.
        let a = [0.5, -1.25, 2.0];
        let b1 = [9.0, 9.0, 1.0, 2.0, 3.0];
        let b2 = [-7.0, 0.0, 1.0, 2.0, 3.0];
        assert_eq!(dot_rev(&a, &b1).to_bits(), dot_rev(&a, &b2).to_bits());
    }

    #[test]
    fn dot_rev_is_deterministic_across_calls() {
        let a: Vec<f64> = (0..123).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let b: Vec<f64> = (0..123).map(|i| (i as f64).sqrt()).collect();
        assert_eq!(dot_rev(&a, &b).to_bits(), dot_rev(&a, &b).to_bits());
    }

    #[test]
    fn sum_matches_scalar_reference() {
        for n in [0usize, 1, 3, 4, 5, 8, 13, 64, 101] {
            let a: Vec<f64> = (0..n)
                .map(|i| ((i * 7 % 13) as f64 - 6.0) * 0.125)
                .collect();
            let want: f64 = a.iter().sum();
            // Multiples of 0.125 sum exactly, so lanes and scalar agree to
            // the last bit — up to the sign of zero (`iter().sum()` returns
            // −0.0 on an empty slice, the lanes +0.0), hence value equality.
            assert!(sum(&a) == want, "n={n}: {} vs {want}", sum(&a));
        }
    }

    #[test]
    fn reflect_update_is_bitwise_scalar() {
        let prev: Vec<f64> = (0..37).map(|i| (i as f64 * 0.13).tan()).collect();
        let kappa = 0.377;
        let mut lanes = prev.clone();
        reflect_update(&mut lanes, &prev, kappa);
        let scalar: Vec<f64> = (0..prev.len())
            .map(|i| prev[i] - kappa * prev[prev.len() - 1 - i])
            .collect();
        for (i, (l, s)) in lanes.iter().zip(scalar.iter()).enumerate() {
            assert_eq!(l.to_bits(), s.to_bits(), "index {i}");
        }
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(dot_rev(&[], &[]), 0.0);
        assert_eq!(sum(&[]), 0.0);
        let mut phi: [f64; 0] = [];
        reflect_update(&mut phi, &[], 0.5);
    }
}
