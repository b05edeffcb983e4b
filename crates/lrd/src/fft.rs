//! A self-contained radix-2 complex FFT, and a real-input FFT on top of it.
//!
//! Used by the Davies–Harte circulant-embedding generator and the
//! FFT-accelerated autocorrelation estimator. Only power-of-two lengths are
//! supported; callers zero-pad. The implementation is the classic iterative
//! Cooley–Tukey with bit-reversal permutation — simple, allocation-free in
//! the transform itself, and fast enough for every workload in this repo
//! (the paper's longest traces are a few hundred thousand samples).

/// A complex number (re, im). Deliberately minimal — this crate needs only
/// what the FFT uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real complex number.
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Mul for Complex {
    type Output = Self;
    fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

/// Return true if `n` is a power of two (and nonzero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// The smallest power of two `>= n` (n must be >= 1).
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place forward FFT. `data.len()` must be a power of two.
///
/// Computes `X[j] = Σ_k x[k]·e^{−2πi jk/n}` (engineering sign convention).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT, including the `1/n` normalization, so
/// `ifft(fft(x)) == x` up to rounding.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    transform(data, true);
    let scale = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        z.re *= scale;
        z.im *= scale;
    }
}

/// One counter bump + histogram record per transform (not per element);
/// handles are resolved once so the per-call cost is two relaxed atomics.
fn observe_transform(n: usize) {
    use std::sync::OnceLock;
    static FFT_CALLS: OnceLock<svbr_obsv::Counter> = OnceLock::new();
    static FFT_LEN: OnceLock<svbr_obsv::Histogram> = OnceLock::new();
    FFT_CALLS
        .get_or_init(|| svbr_obsv::counter("lrd.fft.calls"))
        .inc();
    FFT_LEN
        .get_or_init(|| svbr_obsv::histogram("lrd.fft.len"))
        .record(n as u64);
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(is_power_of_two(n), "FFT length {n} is not a power of two");
    observe_transform(n);
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        // `len` divides `n` (both powers of two), so `chunks_exact_mut`
        // covers the whole buffer and every butterfly pairs `lo[k]` with
        // `hi[k]` without any arithmetic indexing.
        for chunk in data.chunks_exact_mut(len) {
            let mut w = Complex::real(1.0);
            let (lo, hi) = chunk.split_at_mut(len / 2);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let u = *x;
                let v = *y * w;
                *x = u + v;
                *y = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// A precomputed plan for repeated FFTs of one fixed power-of-two length:
/// the bit-reversal permutation (as swap pairs) and the per-stage twiddle
/// factors, tabulated once and reused on every transform.
///
/// The twiddle table is produced by running the *exact* recurrence the
/// unplanned [`fft`] butterflies run (`w ← w · w_len` starting from `1`),
/// so every planned butterfly multiplies by exactly the bits the unplanned
/// path would have computed on the fly — planned output is
/// **bitwise-identical** to the unplanned transform by construction (the
/// property tests in this module prove it across sizes 2⁴..2¹⁴, plus one
/// test at 2¹⁸). The inverse direction multiplies by the conjugates of the
/// same table: `cos` is even and `sin` odd, so the unplanned inverse's
/// `w_len` is the exact conjugate of the forward one, and sign flips are
/// exact in the recurrence's complex multiply, so conjugation commutes
/// with it bit for bit. The planned complex transform therefore matches the
/// unplanned one bit for bit; the Davies–Harte generator runs on
/// [`RealFft`], whose paths differ from the complex construction by
/// rounding only (DESIGN §5 has the measured bound).
///
/// A plan for length `n` holds `n − 1` twiddles, `n/2 + 1` split twiddles
/// for [`RealFft`] of length `2n`, and at most `n` swap pairs — about
/// 28 bytes per point — and is itself cached process-wide by
/// [`crate::cache::fft_plan`].
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal swaps `(i, j)` with `i < j`, so each pair swaps once.
    swaps: Vec<(u32, u32)>,
    /// Stage-major forward twiddles: stage `len = 2, 4, …, n` contributes
    /// `len/2` entries, `n − 1` total.
    tw: Vec<Complex>,
    /// `e^{−iπk/n}` for `k = 0..=n/2`, each computed directly: the split
    /// twiddles `e^{−2πik/2n}` of a real transform of length `2n`.
    split: Vec<Complex>,
}

impl FftPlan {
    /// Build a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two (same contract as [`fft`]).
    pub fn new(n: usize) -> Self {
        assert!(is_power_of_two(n), "FFT length {n} is not a power of two");
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let split = (0..=n / 2)
            .map(|k| {
                let ang = -std::f64::consts::PI * k as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        Self {
            n,
            swaps,
            tw: Self::twiddles(n),
            split,
        }
    }

    /// Tabulate per-stage forward twiddles with the same `w ← w · w_len`
    /// recurrence the unplanned transform runs, preserving its exact
    /// rounding.
    fn twiddles(n: usize) -> Vec<Complex> {
        let mut tw = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::new(ang.cos(), ang.sin());
            let mut w = Complex::real(1.0);
            for _ in 0..len / 2 {
                tw.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        tw
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (plans are built for length ≥ 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Resident bytes of the tabulated state (for cache accounting).
    pub fn footprint_bytes(&self) -> usize {
        self.swaps.len() * std::mem::size_of::<(u32, u32)>()
            + (self.tw.len() + self.split.len()) * std::mem::size_of::<Complex>()
    }

    /// In-place forward FFT using the precomputed tables. Bitwise-identical
    /// to [`fft`].
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the planned length.
    pub fn fft(&self, data: &mut [Complex]) {
        self.run::<false>(data);
    }

    /// In-place inverse FFT (including the `1/n` normalization) using the
    /// precomputed tables. Bitwise-identical to [`ifft`].
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the planned length.
    pub fn ifft(&self, data: &mut [Complex]) {
        self.run::<true>(data);
        let scale = 1.0 / data.len() as f64;
        for z in data.iter_mut() {
            z.re *= scale;
            z.im *= scale;
        }
    }

    /// The butterflies, without normalization; `INVERSE` conjugates every
    /// twiddle.
    fn run<const INVERSE: bool>(&self, data: &mut [Complex]) {
        let n = data.len();
        assert_eq!(
            n, self.n,
            "plan is for length {}, data has length {n}",
            self.n
        );
        observe_transform(n);
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let mut len = 2usize;
        let mut off = 0usize;
        while len <= n {
            // svbr-analyze: allow(panic-surface) stage-major layout: Σ len/2 over len = 2,4,..,n is exactly tw.len() = n-1, so off+len/2 <= tw.len()
            let stage = &self.tw[off..off + len / 2];
            for chunk in data.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(len / 2);
                for ((x, y), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                    let w = if INVERSE { w.conj() } else { w };
                    let u = *x;
                    let v = *y * w;
                    *x = u + v;
                    *y = u - v;
                }
            }
            off += len / 2;
            len <<= 1;
        }
    }
}

/// FFT of a real sequence of power-of-two length `n ≥ 2`, computed as one
/// complex FFT of length `n/2` on the process-cached half-length
/// [`FftPlan`]: the standard even/odd packing `z_k = x_{2k} + i·x_{2k+1}`,
/// then a split step with the plan's twiddles `e^{−2πik/n}`. It does half
/// the butterflies of a complex transform of the same data and needs half
/// its buffer, because only the spectrum's non-negative frequencies are
/// stored (`X_{n−k} = conj(X_k)` for real `x`).
///
/// Constructing one is a plan-cache lookup, so call sites build it per use;
/// the plan is built afresh only when nothing alive holds one.
///
/// ```
/// use svbr_lrd::fft::{Complex, RealFft};
///
/// let rfft = RealFft::new(8);
/// let mut spec = Vec::new();
/// rfft.r2c(&[1.0, 2.0, 3.0], &mut spec); // zero-padded to 8
/// assert_eq!(spec.len(), 5);
/// assert!((spec[0].re - 6.0).abs() < 1e-12);
/// let mut x = Vec::new();
/// rfft.c2r(&mut spec, &mut x, 3); // unnormalized: 8 × the input
/// assert!((x[2] - 24.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    half: std::sync::Arc<FftPlan>,
}

impl RealFft {
    /// A real transform of length `n`, on the cached plan of length `n/2`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two ≥ 2.
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_two(n) && n >= 2,
            "real FFT length {n} is not a power of two >= 2"
        );
        Self {
            half: crate::cache::fft_plan(n / 2),
        }
    }

    /// Forward transform of `x` zero-padded to length `n`: writes
    /// `X_k = Σ_t x_t e^{−2πikt/n}` for `k = 0..=n/2` into `spec`, which is
    /// resized to `n/2 + 1` (reusing its capacity).
    ///
    /// # Panics
    /// Panics if `x` is longer than `n`.
    pub fn r2c(&self, x: &[f64], spec: &mut Vec<Complex>) {
        let h = self.half.len();
        assert!(
            x.len() <= 2 * h,
            "input of length {} exceeds the real FFT length {}",
            x.len(),
            2 * h
        );
        spec.clear();
        spec.resize(h + 1, Complex::default());
        let mut pairs = x.chunks_exact(2);
        for (z, p) in spec.iter_mut().zip(&mut pairs) {
            *z = Complex::new(p[0], p[1]);
        }
        if let [last] = pairs.remainder() {
            spec[x.len() / 2] = Complex::real(*last);
        }
        self.half.run::<false>(&mut spec[..h]);
        // Split: with Z = FFT(z), E_k = (Z_k + conj Z_{h−k})/2 is the
        // spectrum of the even samples, O_k = (Z_k − conj Z_{h−k})/2i that
        // of the odd ones, and X_k = E_k + W^k O_k, X_{h−k} = conj(E_k −
        // W^k O_k) with W = e^{−2πi/n}.
        let z0 = spec[0];
        spec[0] = Complex::real(z0.re + z0.im);
        spec[h] = Complex::real(z0.re - z0.im);
        if h >= 2 {
            // X_{n/4} = conj(Z_{n/4}) exactly (W^{n/4} = −i).
            spec[h / 2] = spec[h / 2].conj();
        }
        // Pairs (k, h − k) for 0 < k < h/2; `hi` reversed walks h − k.
        let (lo, hi) = spec[1..h].split_at_mut((h / 2).saturating_sub(1));
        for ((xk, xj), &w) in lo
            .iter_mut()
            .zip(hi.iter_mut().rev())
            .zip(&self.half.split[1..])
        {
            let (a, b) = (*xk, *xj);
            let e = Complex::new(0.5 * (a.re + b.re), 0.5 * (a.im - b.im));
            let o = Complex::new(0.5 * (a.im + b.im), -0.5 * (a.re - b.re));
            let t = w * o;
            *xk = e + t;
            *xj = (e - t).conj();
        }
    }

    /// Unnormalized inverse of a Hermitian spectrum: given `X_k` for
    /// `k = 0..=n/2` in `spec` (length `n/2 + 1`; the imaginary parts of
    /// `X_0` and `X_{n/2}` are ignored), writes the first `len` of the real
    /// values `x_t = Σ_{k<n} X_k e^{+2πikt/n}` into `out`, with
    /// `X_{n−k} = conj(X_k)`. `spec` is used as scratch and overwritten;
    /// `out` is cleared and refilled, reusing its capacity.
    ///
    /// # Panics
    /// Panics if `spec.len() != n/2 + 1` or `len > n`.
    pub fn c2r(&self, spec: &mut [Complex], out: &mut Vec<f64>, len: usize) {
        let h = self.half.len();
        assert_eq!(
            spec.len(),
            h + 1,
            "half spectrum must have n/2 + 1 = {} bins",
            h + 1
        );
        assert!(len <= 2 * h, "{len} outputs exceed the real FFT length");
        // Inverse split: Z_k = (X_k + conj X_{h−k}) + i·(X_k − conj X_{h−k})
        // conj(W^k) packs the even-sample spectrum into the real part and
        // the odd-sample one into the imaginary part.
        let (x0, xh) = (spec[0].re, spec[h].re);
        spec[0] = Complex::new(x0 + xh, x0 - xh);
        if h >= 2 {
            spec[h / 2] = Complex::new(2.0 * spec[h / 2].re, -2.0 * spec[h / 2].im);
        }
        // Pairs (k, h − k) for 0 < k < h/2; `hi` reversed walks h − k.
        let (lo, hi) = spec[1..h].split_at_mut((h / 2).saturating_sub(1));
        for ((xk, xj), &w) in lo
            .iter_mut()
            .zip(hi.iter_mut().rev())
            .zip(&self.half.split[1..])
        {
            let (a, b) = (*xk, *xj);
            let e = Complex::new(a.re + b.re, a.im - b.im);
            let o = Complex::new(a.re - b.re, a.im + b.im) * w.conj();
            *xk = Complex::new(e.re - o.im, e.im + o.re);
            *xj = Complex::new(e.re + o.im, o.re - e.im);
        }
        self.half.run::<true>(&mut spec[..h]);
        out.clear();
        for z in &spec[..len / 2] {
            out.push(z.re);
            out.push(z.im);
        }
        if len % 2 == 1 {
            out.push(spec[len / 2].re);
        }
    }
}

/// Circular autocorrelation support: compute the (linear) autocovariance of
/// `x` at lags `0..=max_lag` via FFT in O(n log n), *without* mean removal
/// or normalization — callers handle centering.
///
/// This pads to at least `2n` so circular wrap-around never contaminates the
/// requested lags. The power spectrum of real data is real and even, so
/// both transforms run as [`RealFft`]s.
pub fn autocovariance_fft(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    assert!(max_lag < n, "max_lag must be < series length");
    let m = next_power_of_two(2 * n);
    let rfft = RealFft::new(m);
    let mut spec = Vec::new();
    rfft.r2c(x, &mut spec);
    for z in spec.iter_mut() {
        *z = Complex::real(z.norm_sqr());
    }
    let mut cov = Vec::with_capacity(max_lag + 1);
    rfft.c2r(&mut spec, &mut cov, max_lag + 1);
    // c2r is unnormalized (× m); the estimator divides by n.
    let scale = 1.0 / (m as f64 * n as f64);
    for c in cov.iter_mut() {
        *c *= scale;
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::default(); 8];
        x[0] = Complex::real(1.0);
        fft(&mut x);
        for z in &x {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut x = vec![Complex::real(1.0); 16];
        fft(&mut x);
        assert_close(x[0].re, 16.0, 1e-12);
        for z in &x[1..] {
            assert_close(z.re, 0.0, 1e-10);
            assert_close(z.im, 0.0, 1e-10);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let orig: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut x = orig.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert_close(a.re, b.re, 1e-10);
            assert_close(a.im, b.im, 1e-10);
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let n = x.len();
        let naive: Vec<Complex> = (0..n)
            .map(|j| {
                let mut acc = Complex::default();
                for (k, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    acc = acc + v * Complex::new(ang.cos(), ang.sin());
                }
                acc
            })
            .collect();
        let mut fast = x.clone();
        fft(&mut fast);
        for (a, b) in fast.iter().zip(naive.iter()) {
            assert_close(a.re, b.re, 1e-9);
            assert_close(a.im, b.im, 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut x = vec![Complex::default(); 12];
        fft(&mut x);
    }

    #[test]
    fn parseval_identity() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::real(((i * 31) % 17) as f64 / 17.0 - 0.5))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut f = x.clone();
        fft(&mut f);
        let freq_energy: f64 = f.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert_close(time_energy, freq_energy, 1e-9);
    }

    #[test]
    fn autocovariance_fft_matches_direct() {
        // Odd and even lengths, including ones just past a power of two
        // (the padded length jumps) and a single sample.
        for len in [1usize, 2, 3, 200, 201, 257, 1000, 1023] {
            let x: Vec<f64> = (0..len)
                .map(|i| ((i as f64 * 0.17).sin() + (i as f64 * 0.03).cos()) * 2.0 - 0.4)
                .collect();
            let max_lag = (len - 1).min(40);
            let fast = autocovariance_fft(&x, max_lag);
            assert_eq!(fast.len(), max_lag + 1);
            let n = len as f64;
            let direct: Vec<f64> = (0..=max_lag)
                .map(|k| {
                    x.iter()
                        .zip(x.iter().skip(k))
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
                        / n
                })
                .collect();
            // Rounding relative to the lag-0 value, i.e. on the ACF scale.
            for (k, (&f, &d)) in fast.iter().zip(&direct).enumerate() {
                assert!(
                    (f - d).abs() <= 1e-13 * direct[0],
                    "n={len} lag {k}: fft {f} vs direct {d}"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn planned_fft_is_bitwise_identical_at_2_pow_18() {
        // The paper-size half-length plan (Davies–Harte and the sample ACF
        // at 238,626 frames run real transforms of length 2^19).
        let n = 1usize << 18;
        let orig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let bits = |zs: &[Complex]| -> Vec<(u64, u64)> {
            zs.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let plan = FftPlan::new(n);
        let mut unplanned = orig.clone();
        fft(&mut unplanned);
        let mut planned = orig;
        plan.fft(&mut planned);
        assert!(
            bits(&planned) == bits(&unplanned),
            "forward transform differs"
        );
        ifft(&mut unplanned);
        plan.ifft(&mut planned);
        assert!(
            bits(&planned) == bits(&unplanned),
            "inverse transform differs"
        );
    }

    #[test]
    #[should_panic(expected = "not a power of two >= 2")]
    fn real_fft_rejects_length_one() {
        let _ = RealFft::new(1);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a * b;
        assert_close(p.re, 5.0, 0.0);
        assert_close(p.im, 5.0, 0.0);
        assert_eq!(a.conj().im, -2.0);
        assert_close(a.norm_sqr(), 5.0, 0.0);
        let s = a + b;
        assert_eq!((s.re, s.im), (4.0, 1.0));
        let d = a - b;
        assert_eq!((d.re, d.im), (-2.0, 3.0));
    }

    #[test]
    fn power_of_two_helpers() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(12));
        assert_eq!(next_power_of_two(5), 8);
        assert_eq!(next_power_of_two(8), 8);
    }

    #[test]
    fn planned_fft_is_bitwise_identical_to_unplanned() {
        for log_n in 0usize..=8 {
            let n = 1usize << log_n;
            let orig: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
                .collect();
            let plan = FftPlan::new(n);
            assert_eq!(plan.len(), n);
            assert!(!plan.is_empty());

            let mut unplanned = orig.clone();
            fft(&mut unplanned);
            let mut planned = orig.clone();
            plan.fft(&mut planned);
            for (i, (a, b)) in planned.iter().zip(unplanned.iter()).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "fft n={n} re[{i}]");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "fft n={n} im[{i}]");
            }

            let mut unplanned = orig.clone();
            ifft(&mut unplanned);
            let mut planned = orig.clone();
            plan.ifft(&mut planned);
            for (i, (a, b)) in planned.iter().zip(unplanned.iter()).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "ifft n={n} re[{i}]");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "ifft n={n} im[{i}]");
            }
        }
    }

    #[test]
    fn plan_footprint_is_linear_in_length() {
        let p = FftPlan::new(1024);
        // n − 1 twiddles and n/2 + 1 split twiddles (16 bytes each) plus at
        // most n swap pairs.
        assert!(p.footprint_bytes() >= (1023 + 513) * 16);
        assert!(p.footprint_bytes() <= (1023 + 513) * 16 + 1024 * 8);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn plan_rejects_mismatched_length() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex::default(); 16];
        plan.fft(&mut data);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fft_roundtrip_random(log_n in 1usize..10, seed in 0u64..1000) {
            let n = 1usize << log_n;
            // Cheap deterministic pseudo-data from the seed.
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let orig: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
            let mut x = orig.clone();
            fft(&mut x);
            ifft(&mut x);
            for (a, b) in x.iter().zip(orig.iter()) {
                prop_assert!((a.re - b.re).abs() < 1e-9);
                prop_assert!((a.im - b.im).abs() < 1e-9);
            }
        }

        #[test]
        fn fft_is_linear(log_n in 1usize..8, c in -3.0f64..3.0) {
            let n = 1usize << log_n;
            let a: Vec<Complex> = (0..n).map(|i| Complex::real((i as f64 * 0.7).sin())).collect();
            let b: Vec<Complex> = (0..n).map(|i| Complex::real((i as f64 * 0.3).cos())).collect();
            let mut fa = a.clone();
            fft(&mut fa);
            let mut fb = b.clone();
            fft(&mut fb);
            let mut combo: Vec<Complex> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| Complex::new(x.re + c * y.re, x.im + c * y.im))
                .collect();
            fft(&mut combo);
            for i in 0..n {
                prop_assert!((combo[i].re - (fa[i].re + c * fb[i].re)).abs() < 1e-8);
                prop_assert!((combo[i].im - (fa[i].im + c * fb[i].im)).abs() < 1e-8);
            }
        }

        #[test]
        fn planned_transform_is_bitwise_identical(log_n in 4usize..15, seed in 0u64..1000) {
            // Satellite coverage: across sizes 2^4..2^14 the planned path
            // must reproduce the unplanned transform to the last bit, both
            // directions, on arbitrary data.
            let n = 1usize << log_n;
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(0x2545f4914f6cdd1d);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let orig: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
            let plan = FftPlan::new(n);

            let mut unplanned = orig.clone();
            fft(&mut unplanned);
            let mut planned = orig.clone();
            plan.fft(&mut planned);
            for (a, b) in planned.iter().zip(unplanned.iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }

            ifft(&mut unplanned);
            plan.ifft(&mut planned);
            for (a, b) in planned.iter().zip(unplanned.iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }

        #[test]
        fn planned_roundtrip_error_is_bounded(log_n in 4usize..15, seed in 0u64..1000) {
            // forward→inverse through the plan must return the input within
            // an O(log n · ε) bound on the data scale (|x| ≤ 0.5 here).
            let n = 1usize << log_n;
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let orig: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
            let plan = FftPlan::new(n);
            let mut x = orig.clone();
            plan.fft(&mut x);
            plan.ifft(&mut x);
            let bound = 1e-13 * (log_n as f64 + 1.0);
            for (a, b) in x.iter().zip(orig.iter()) {
                prop_assert!((a.re - b.re).abs() < bound, "re err {}", (a.re - b.re).abs());
                prop_assert!((a.im - b.im).abs() < bound, "im err {}", (a.im - b.im).abs());
            }
        }

        #[test]
        fn real_fft_matches_complex_transform(log_n in 1usize..17, seed in 0u64..1000, pad in 0usize..3) {
            // r2c against the complex FFT of the zero-imaginary (and
            // zero-padded) input; c2r of that half spectrum against the
            // unnormalized complex inverse, which returns n·x.
            let n = 1usize << log_n;
            let len = n.saturating_sub(pad).max(1);
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(3);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let x: Vec<f64> = (0..len).map(|_| next()).collect();
            let mut full = vec![Complex::default(); n];
            for (z, &v) in full.iter_mut().zip(&x) {
                *z = Complex::real(v);
            }
            fft(&mut full);
            let rfft = RealFft::new(n);
            let mut spec = Vec::new();
            rfft.r2c(&x, &mut spec);
            prop_assert_eq!(spec.len(), n / 2 + 1);
            let bound = 1e-13 * (log_n as f64 + 1.0) * (n as f64).sqrt();
            for (a, b) in spec.iter().zip(&full) {
                prop_assert!((a.re - b.re).abs() < bound, "re {} vs {}", a.re, b.re);
                prop_assert!((a.im - b.im).abs() < bound, "im {} vs {}", a.im, b.im);
            }
            let mut back = Vec::new();
            rfft.c2r(&mut spec, &mut back, len);
            prop_assert_eq!(back.len(), len);
            let bound = 1e-13 * (log_n as f64 + 1.0) * n as f64;
            for (a, b) in back.iter().zip(&x) {
                prop_assert!((a - n as f64 * b).abs() < bound, "{} vs {}", a, n as f64 * b);
            }
        }

        #[test]
        fn autocovariance_fft_lag0_is_mean_square(len in 10usize..300) {
            let xs: Vec<f64> = (0..len).map(|i| ((i * 31 % 17) as f64) / 17.0 - 0.5).collect();
            let cov = autocovariance_fft(&xs, 0);
            let direct: f64 = xs.iter().map(|x| x * x).sum::<f64>() / len as f64;
            prop_assert!((cov[0] - direct).abs() < 1e-9);
        }
    }
}
