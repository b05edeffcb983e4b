//! A self-contained planned complex FFT, and a real-input FFT on top of it.
//!
//! Used by the Davies–Harte circulant-embedding generator, the
//! FFT-accelerated autocorrelation estimator, the periodogram and the
//! circulant PD projection. Only power-of-two lengths are supported;
//! callers zero-pad. Every transform runs on an [`FftPlan`]:
//! an iterative radix-4 Cooley–Tukey (one radix-2 stage when log₂ of the
//! length is odd) over a bit-reversal permutation, allocation-free in the
//! transform itself, with twiddles computed directly from `sin_cos` rather
//! than by a recurrence, so the rounding error does not grow with length.

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

/// The roots of unity `e^{−2πik/big}`, `0 ≤ k < big`, from `sin_cos` on one
/// octant and the circle's exact symmetries (sign flips and swaps of the
/// cosine and sine). Every root is within an ulp or so of its true value,
/// and depends on the angle `k/big` alone: the angle `2π·k/big` rounds
/// identically after both `k` and `big` are scaled by a power of two, so
/// tables built at different lengths agree bit for bit on shared angles.
struct UnitRoots {
    big: usize,
    /// log₂ of the octant length `big/8`.
    shift: u32,
    /// `(cos, sin)` of `2πj/big` for `j = 0..=big/8`.
    octant: Vec<(f64, f64)>,
}

impl UnitRoots {
    /// Roots for a circle of `n` points (a power of two; at least 8 are
    /// tabulated so the octant is never empty).
    fn new(n: usize) -> Self {
        let big = n.max(8);
        let octant = (0..=big / 8)
            .map(|j| {
                let (s, c) = (2.0 * std::f64::consts::PI * j as f64 / big as f64).sin_cos();
                (c, s)
            })
            .collect();
        Self {
            big,
            shift: (big / 8).trailing_zeros(),
            octant,
        }
    }

    /// `e^{−2πijk/n}` for `k < len`, where `n` divides the tabulated `big`
    /// and `j·len ≤ n`.
    fn column(&self, j: usize, n: usize, len: usize) -> impl Iterator<Item = Complex> + '_ {
        let step = j * (self.big / n);
        (0..len).map(move |k| self.root(k * step))
    }

    /// `e^{−2πik/big}` for `k < big`: octant `o` of the circle, offset `r`
    /// into it, mapped onto the first octant.
    fn root(&self, k: usize) -> Complex {
        let (o, r) = (k >> self.shift, k & ((1 << self.shift) - 1));
        let mirror = (1 << self.shift) - r;
        let (c, s) = match o & 3 {
            0 => self.octant[r],
            1 => {
                let (c, s) = self.octant[mirror];
                (s, c)
            }
            2 => {
                let (c, s) = self.octant[r];
                (-s, c)
            }
            _ => {
                let (c, s) = self.octant[mirror];
                (-c, s)
            }
        };
        if o < 4 {
            Complex::new(c, -s)
        } else {
            Complex::new(-c, s)
        }
    }
}

/// A precomputed plan for FFTs of power-of-two lengths up to `n`: the
/// twiddle factors of every stage, tabulated once and reused on every
/// transform.
///
/// The transform is an iterative decimation-in-time FFT on bit-reversed
/// input: radix-4 stages over blocks of 4, 16, 64, … (three complex
/// multiplies per 4-point butterfly, none in the first stage), and, when
/// log₂ of the length is odd, one radix-2 stage last. Stage `4L` holds
/// three contiguous columns `W^k`, `W^{2k}`, `W^{3k}` (`W = e^{−2πi/4L}`,
/// `k < L`); the closing radix-2 stage of a length `m` reads
/// `W_m^k = W_{2m}^{2k}`, the middle column of stage `2m`. So the tables of
/// a length-`n` plan are a prefix that runs every power-of-two length ≤ `n`
/// (and the split twiddles of [`RealFft`] at those lengths are stage
/// columns too), which is what lets the process cache serve a transform
/// from a larger plan that is already alive ([`crate::cache::fft_plan`]).
/// Every twiddle is computed directly from `sin_cos` ([`UnitRoots`]), so a
/// transform's bits do not depend on which plan runs it.
///
/// A plan for length `n` holds `n − 1` stage twiddles and `n/2` split
/// twiddles for [`RealFft`] of length `2n` — 24 bytes per point; the
/// bit-reversal permutation is computed per call.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Stage-major forward twiddles: the radix-4 stage of quarter length
    /// `L` occupies `L − 1 .. 4L − 1`; when log₂ n is odd the radix-2
    /// column `W_n^k`, `k < n/2`, follows at `n/2 − 1 .. n − 1`.
    tw: Vec<Complex>,
    /// `e^{−2πik/2n}` for `k < n/2`: the split twiddles of a real
    /// transform of length `2n`.
    split: Vec<Complex>,
}

impl FftPlan {
    /// Build a plan for transforms of length up to `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(is_power_of_two(n), "FFT length {n} is not a power of two");
        let roots = UnitRoots::new(2 * n);
        let mut tw = Vec::with_capacity(n - 1);
        let mut l = 1;
        while 4 * l <= n {
            for j in 1..=3 {
                tw.extend(roots.column(j, 4 * l, l));
            }
            l *= 4;
        }
        if n.trailing_zeros() % 2 == 1 {
            tw.extend(roots.column(1, n, n / 2));
        }
        let split = roots.column(1, 2 * n, n / 2).collect();
        Self { n, tw, split }
    }

    /// Longest transform this plan runs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (plans are built for length ≥ 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Resident bytes of the tabulated state (for cache accounting).
    pub fn footprint_bytes(&self) -> usize {
        Self::footprint_bytes_for(self.n)
    }

    /// [`Self::footprint_bytes`] of a plan for length `n`, without building
    /// it: `n − 1` stage and `n/2` split twiddles.
    pub(crate) fn footprint_bytes_for(n: usize) -> usize {
        (n - 1 + n / 2) * std::mem::size_of::<Complex>()
    }

    /// In-place forward FFT, `X[j] = Σ_k x[k]·e^{−2πi jk/m}` (engineering
    /// sign convention) for `m = data.len()`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a power of two no longer than the plan.
    pub fn fft(&self, data: &mut [Complex]) {
        self.run::<false>(data);
    }

    /// In-place inverse FFT, including the `1/m` normalization, so
    /// `ifft(fft(x)) == x` up to rounding.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a power of two no longer than the plan.
    pub fn ifft(&self, data: &mut [Complex]) {
        self.run::<true>(data);
        let scale = 1.0 / data.len() as f64;
        for z in data.iter_mut() {
            z.re *= scale;
            z.im *= scale;
        }
    }

    /// The radix-4 stage of quarter length `l` (`4l ≤ n`): columns `W^k`,
    /// `W^{2k}`, `W^{3k}` of `W = e^{−2πi/4l}`. The stages before it hold
    /// `3·(1 + 4 + … + l/4) = l − 1` twiddles, so it starts at `l − 1`.
    fn stage(&self, l: usize) -> (&[Complex], &[Complex], &[Complex]) {
        let stage = &self.tw[l - 1..4 * l - 1];
        let (w1, rest) = stage.split_at(l);
        let (w2, w3) = rest.split_at(l);
        (w1, w2, w3)
    }

    /// `W_m^k` for `k < m/2`, for `m ≤ n` with log₂ m odd: the plan's own
    /// radix-2 column at `m = n`, else the middle column of stage `2m`.
    fn radix2(&self, m: usize) -> &[Complex] {
        if m == self.n {
            &self.tw[m / 2 - 1..m - 1]
        } else {
            self.stage(m / 2).1
        }
    }

    /// `e^{−2πik/2m}` for `k < m/2`: the split twiddles of a real transform
    /// of length `2m` run on this plan (`m ≤ n`).
    fn split(&self, m: usize) -> &[Complex] {
        if m == self.n {
            &self.split
        } else if m.trailing_zeros() % 2 == 1 {
            // Stage 2m's first column is W_{2m}^k, k < m/2.
            self.stage(m / 2).0
        } else if 4 * m <= self.n {
            // Stage 4m's middle column is W_{4m}^{2k} = W_{2m}^k, k < m.
            &self.stage(m).1[..m / 2]
        } else {
            // 2m = n with log₂ n odd: the radix-2 column W_n^k, k < n/2.
            &self.radix2(2 * m)[..m / 2]
        }
    }

    /// The butterflies, without normalization; `INVERSE` conjugates every
    /// twiddle.
    fn run<const INVERSE: bool>(&self, data: &mut [Complex]) {
        let m = data.len();
        assert!(
            is_power_of_two(m) && m <= self.n,
            "plan is for length {}, data has length {m}",
            self.n
        );
        observe_transform(m);
        if m <= 1 {
            return;
        }
        bit_reverse(data);
        let twiddle = |w: Complex| if INVERSE { w.conj() } else { w };
        // Multiplying by −i (forward) or +i (inverse): the 4-point DFT's
        // odd-quarter rotation.
        let rot = |z: Complex| {
            if INVERSE {
                Complex::new(-z.im, z.re)
            } else {
                Complex::new(z.im, -z.re)
            }
        };
        // Radix-4 butterfly on one block: `a` holds the sub-DFT of the
        // residue-0 samples, `b` residue 2, `c` residue 1, `d` residue 3.
        let butterfly = |a: &mut Complex, b: &mut Complex, c: &mut Complex, d: &mut Complex| {
            let (t0, t1, t2, t3) = (*a, *c, *b, *d);
            let (s02, d02) = (t0 + t2, t0 - t2);
            let (s13, d13) = (t1 + t3, rot(t1 - t3));
            *a = s02 + s13;
            *b = d02 + d13;
            *c = s02 - s13;
            *d = d02 - d13;
        };
        if m >= 4 {
            // Stage 4: every twiddle is 1.
            for q in data.chunks_exact_mut(4) {
                if let [a, b, c, d] = q {
                    butterfly(a, b, c, d);
                }
            }
        }
        let mut l = 4;
        while 4 * l <= m {
            let (w1, w2, w3) = self.stage(l);
            for block in data.chunks_exact_mut(4 * l) {
                let (a, rest) = block.split_at_mut(l);
                let (b, rest) = rest.split_at_mut(l);
                let (c, d) = rest.split_at_mut(l);
                for ((((((a, b), c), d), &w1), &w2), &w3) in a
                    .iter_mut()
                    .zip(b.iter_mut())
                    .zip(c.iter_mut())
                    .zip(d.iter_mut())
                    .zip(w1)
                    .zip(w2)
                    .zip(w3)
                {
                    let (mut x1, mut x2, mut x3) =
                        (*b * twiddle(w2), *c * twiddle(w1), *d * twiddle(w3));
                    butterfly(a, &mut x1, &mut x2, &mut x3);
                    (*b, *c, *d) = (x1, x2, x3);
                }
            }
            l *= 4;
        }
        if m.trailing_zeros() % 2 == 1 {
            let (lo, hi) = data.split_at_mut(m / 2);
            for ((x, y), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(self.radix2(m)) {
                let u = *x;
                let v = *y * twiddle(w);
                *x = u + v;
                *y = u - v;
            }
        }
    }
}

/// Permute `data` (a power of two ≥ 2 long) into bit-reversed index order:
/// `j` runs the bit-reversed counter alongside `i` (amortized two steps per
/// increment), which measured faster than `usize::reverse_bits` and as fast
/// as a tabulated swap list, without a per-length table.
fn bit_reverse(data: &mut [Complex]) {
    let n = data.len();
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
}

/// FFT of a real sequence of power-of-two length `n ≥ 2`, computed as one
/// complex FFT of length `n/2` on a process-cached [`FftPlan`] of at least
/// that length: the standard even/odd packing `z_k = x_{2k} + i·x_{2k+1}`,
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
    plan: std::sync::Arc<FftPlan>,
    /// `n/2`, the complex transform length.
    half: usize,
}

impl RealFft {
    /// A real transform of length `n`, on a cached plan of length ≥ `n/2`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two ≥ 2.
    pub fn new(n: usize) -> Self {
        Self::on(n, crate::cache::fft_plan)
    }

    /// Like [`Self::new`], on a plan of its own that the process cache
    /// never sees: a one-off transform that leaves nothing resident once
    /// dropped (the PD projection builds one per table).
    pub(crate) fn unshared(n: usize) -> Self {
        Self::on(n, |half| std::sync::Arc::new(FftPlan::new(half)))
    }

    fn on(n: usize, plan: impl FnOnce(usize) -> std::sync::Arc<FftPlan>) -> Self {
        assert!(
            is_power_of_two(n) && n >= 2,
            "real FFT length {n} is not a power of two >= 2"
        );
        Self {
            plan: plan(n / 2),
            half: n / 2,
        }
    }

    /// Forward transform of `x` zero-padded to length `n`: writes
    /// `X_k = Σ_t x_t e^{−2πikt/n}` for `k = 0..=n/2` into `spec`, which is
    /// resized to `n/2 + 1` (reusing its capacity).
    ///
    /// # Panics
    /// Panics if `x` is longer than `n`.
    pub fn r2c(&self, x: &[f64], spec: &mut Vec<Complex>) {
        let h = self.half;
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
        self.plan.run::<false>(&mut spec[..h]);
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
            .zip(self.plan.split(h).iter().skip(1))
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
        let h = self.half;
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
            .zip(self.plan.split(h).iter().skip(1))
        {
            let (a, b) = (*xk, *xj);
            let e = Complex::new(a.re + b.re, a.im - b.im);
            let o = Complex::new(a.re - b.re, a.im + b.im) * w.conj();
            *xk = Complex::new(e.re - o.im, e.im + o.re);
            *xj = Complex::new(e.re + o.im, o.re - e.im);
        }
        self.plan.run::<true>(&mut spec[..h]);
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
/// This pads to the smallest power of two `m ≥ n + max_lag`. A term
/// `x_t·x_{(t+k) mod m}` of the circular sum wraps around only when
/// `t + k ≥ m`, so `t ≥ m − max_lag ≥ n` and `x_t` is padding: every
/// requested lag is exact. The power spectrum of real data is real and
/// even, so both transforms run as [`RealFft`]s.
pub fn autocovariance_fft(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    assert!(max_lag < n, "max_lag must be < series length");
    let m = next_power_of_two(n + max_lag).max(2);
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

    /// Deterministic xorshift data in [−0.5, 0.5)², seeded.
    pub(super) fn noise(n: usize, seed: u64, salt: u64) -> Vec<Complex> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    /// O(n²) DFT with directly computed twiddles and compensated
    /// (Neumaier) sums, so its own rounding sits far below the FFT's.
    fn direct_dft(x: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let w: Vec<Complex> = (0..n)
            .map(|r| {
                let (s, c) = (2.0 * std::f64::consts::PI * r as f64 / n as f64).sin_cos();
                Complex::new(c, sign * s)
            })
            .collect();
        let add = |(s, c): (f64, f64), v: f64| {
            let t = s + v;
            let lost = if s.abs() >= v.abs() {
                (s - t) + v
            } else {
                (v - t) + s
            };
            (t, c + lost)
        };
        let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
        (0..n)
            .map(|j| {
                let (mut re, mut im) = ((0.0, 0.0), (0.0, 0.0));
                for (k, &v) in x.iter().enumerate() {
                    let w = w[(j * k) % n];
                    re = add(add(re, v.re * w.re), -(v.im * w.im));
                    im = add(add(im, v.re * w.im), v.im * w.re);
                }
                Complex::new((re.0 + re.1) * scale, (im.0 + im.1) * scale)
            })
            .collect()
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()))
            .fold(0.0, f64::max)
    }

    fn bits(zs: &[Complex]) -> Vec<(u64, u64)> {
        zs.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::default(); 8];
        x[0] = Complex::real(1.0);
        FftPlan::new(8).fft(&mut x);
        for z in &x {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut x = vec![Complex::real(1.0); 16];
        FftPlan::new(16).fft(&mut x);
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
        let plan = FftPlan::new(64);
        let mut x = orig.clone();
        plan.fft(&mut x);
        plan.ifft(&mut x);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert_close(a.re, b.re, 1e-10);
            assert_close(a.im, b.im, 1e-10);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn fft_matches_direct_dft_forward_and_inverse() {
        // Accuracy gate against the O(n²) DFT at 2^0..2^12. With exact
        // twiddles the forward error stays near ε·√n on this data (measured
        // 2.2–4.4e−16·√n); the recurrence twiddles of the radix-2 plan this
        // replaced read up to 4.9e−14·√n at 2^12 and fail the bound from
        // 2^8 on.
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            let x = noise(n, log_n as u64, 1);
            let plan = FftPlan::new(n);
            let root_n = (n as f64).sqrt();
            let mut fwd = x.clone();
            plan.fft(&mut fwd);
            let err = max_err(&fwd, &direct_dft(&x, false));
            assert!(err <= 1e-15 * root_n, "forward n={n}: {err:e}");
            let mut inv = x.clone();
            plan.ifft(&mut inv);
            let err = max_err(&inv, &direct_dft(&x, true));
            assert!(err <= 1e-15 / root_n, "inverse n={n}: {err:e}");
        }
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn plan_rejects_non_power_of_two_data() {
        let mut x = vec![Complex::default(); 12];
        FftPlan::new(16).fft(&mut x);
    }

    #[test]
    fn parseval_identity() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::real(((i * 31) % 17) as f64 / 17.0 - 0.5))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut f = x.clone();
        FftPlan::new(128).fft(&mut f);
        let freq_energy: f64 = f.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert_close(time_energy, freq_energy, 1e-9);
    }

    #[test]
    fn autocovariance_fft_matches_direct() {
        // The padded length is the power of two ≥ n + max_lag, so cover:
        // odd and even lengths, ones just past a power of two, a single
        // sample, max_lag = n − 1 (the longest lag), n + max_lag exactly a
        // power of two, and one past it (the padding doubles).
        let cases = [
            (1usize, 0usize),
            (2, 1),
            (3, 2),
            (200, 40),
            (201, 40),
            (257, 40),
            (1000, 40),
            (1023, 40),
            (17, 16),
            (200, 199),
            (1023, 1022),
            (200, 56),
            (200, 57),
            (1000, 24),
            (1000, 25),
            (769, 255),
            (769, 256),
        ];
        for (len, max_lag) in cases {
            let x: Vec<f64> = (0..len)
                .map(|i| ((i as f64 * 0.17).sin() + (i as f64 * 0.03).cos()) * 2.0 - 0.4)
                .collect();
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
                    "n={len} max_lag={max_lag} lag {k}: fft {f} vs direct {d}"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn roundtrip_error_at_2_pow_18() {
        // The paper-size plan (Davies–Harte at 238,626 frames runs real
        // transforms of length 2^19 on it). The recurrence-twiddle plan
        // this replaced read 5.05e−12 here; exact twiddles read ~5.6e−16.
        let n = 1usize << 18;
        let orig = noise(n, 18, 1);
        let plan = FftPlan::new(n);
        let mut x = orig.clone();
        plan.fft(&mut x);
        plan.ifft(&mut x);
        let err = max_err(&x, &orig);
        assert!(err <= 1e-14, "round trip error {err:e}");
    }

    #[test]
    fn prefix_runs_match_exact_length_plans_bitwise() {
        // A plan's tables run every shorter power of two; the cache relies
        // on that giving the exact-length plan's bits (both parities of
        // log₂ n on both sides), including the real-transform split
        // twiddles.
        for big in [1usize << 10, 1 << 11] {
            let plan = FftPlan::new(big);
            for log_m in 0..=big.trailing_zeros() {
                let m = 1usize << log_m;
                let exact = FftPlan::new(m);
                assert!(bits(plan.split(m)) == bits(exact.split(m)), "split m={m}");
                let orig = noise(m, log_m as u64, 100);
                let (mut a, mut b) = (orig.clone(), orig);
                plan.fft(&mut a);
                exact.fft(&mut b);
                assert!(bits(&a) == bits(&b), "fft m={m} on {big}");
                plan.ifft(&mut a);
                exact.ifft(&mut b);
                assert!(bits(&a) == bits(&b), "ifft m={m} on {big}");
            }
        }
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
    fn plan_footprint_is_linear_in_length() {
        for n in [1usize, 2, 1024, 2048] {
            let p = FftPlan::new(n);
            assert_eq!(p.len(), n);
            assert!(!p.is_empty());
            // n − 1 stage twiddles and n/2 split twiddles, 16 bytes each.
            assert_eq!(p.tw.len() + p.split.len(), n - 1 + n / 2);
            assert_eq!(p.footprint_bytes(), (n - 1 + n / 2) * 16);
        }
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
    use super::tests::noise;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fft_roundtrip_random(log_n in 1usize..10, seed in 0u64..1000) {
            let n = 1usize << log_n;
            let orig = noise(n, seed, 1);
            let plan = FftPlan::new(n);
            let mut x = orig.clone();
            plan.fft(&mut x);
            plan.ifft(&mut x);
            for (a, b) in x.iter().zip(orig.iter()) {
                prop_assert!((a.re - b.re).abs() < 1e-9);
                prop_assert!((a.im - b.im).abs() < 1e-9);
            }
        }

        #[test]
        fn fft_is_linear(log_n in 1usize..8, c in -3.0f64..3.0) {
            let n = 1usize << log_n;
            let plan = FftPlan::new(n);
            let a: Vec<Complex> = (0..n).map(|i| Complex::real((i as f64 * 0.7).sin())).collect();
            let b: Vec<Complex> = (0..n).map(|i| Complex::real((i as f64 * 0.3).cos())).collect();
            let mut fa = a.clone();
            plan.fft(&mut fa);
            let mut fb = b.clone();
            plan.fft(&mut fb);
            let mut combo: Vec<Complex> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| Complex::new(x.re + c * y.re, x.im + c * y.im))
                .collect();
            plan.fft(&mut combo);
            for i in 0..n {
                prop_assert!((combo[i].re - (fa[i].re + c * fb[i].re)).abs() < 1e-8);
                prop_assert!((combo[i].im - (fa[i].im + c * fb[i].im)).abs() < 1e-8);
            }
        }

        #[test]
        fn prefix_run_is_bitwise_identical(log_n in 0usize..13, extra in 1usize..4, seed in 0u64..1000) {
            // A larger plan runs a length-2^log_n transform to the last bit
            // of the exact-length plan, both directions, on arbitrary data.
            let n = 1usize << log_n;
            let orig = noise(n, seed, 0x2545_f491_4f6c_dd1d);
            let (big, exact) = (FftPlan::new(n << extra), FftPlan::new(n));
            let (mut a, mut b) = (orig.clone(), orig);
            big.fft(&mut a);
            exact.fft(&mut b);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!((x.re.to_bits(), x.im.to_bits()), (y.re.to_bits(), y.im.to_bits()));
            }
            big.ifft(&mut a);
            exact.ifft(&mut b);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!((x.re.to_bits(), x.im.to_bits()), (y.re.to_bits(), y.im.to_bits()));
            }
        }

        #[test]
        fn planned_roundtrip_error_is_bounded(log_n in 4usize..15, seed in 0u64..1000) {
            // forward→inverse through the plan must return the input within
            // an O(log n · ε) bound on the data scale (|x| ≤ 0.5 here).
            let n = 1usize << log_n;
            let orig = noise(n, seed, 1);
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
            let x: Vec<f64> = noise(len, seed, 3).iter().map(|z| z.re).collect();
            let mut full = vec![Complex::default(); n];
            for (z, &v) in full.iter_mut().zip(&x) {
                *z = Complex::real(v);
            }
            FftPlan::new(n).fft(&mut full);
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
