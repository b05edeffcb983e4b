//! Empirical marginal distributions.
//!
//! The paper obtains `F_Y` "by inverting the empirical distribution
//! directly" (§3.1) — a histogram-based inversion in their implementation.
//! We provide both forms:
//!
//! * [`EmpiricalCdf`] — built from the raw sorted sample; quantiles
//!   interpolate between order statistics. Exact but needs the full sample.
//! * [`BinnedEmpirical`] — built from a histogram (bin edges + counts);
//!   the CDF is piecewise linear across bins. This is what a practical
//!   traffic modeler stores and what Figs. 1–2 of the paper depict. Its
//!   quantile, the inner loop of the inverse-CDF transform
//!   `Y = F_Y⁻¹(Φ(X))`, is an O(1) grid lookup plus a short monotone scan.

use crate::{Marginal, MarginalError};

/// Empirical distribution from a raw sample.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl EmpiricalCdf {
    /// Build from samples (at least 2; NaNs rejected).
    pub fn new(mut samples: Vec<f64>) -> Result<Self, MarginalError> {
        if samples.len() < 2 {
            return Err(MarginalError::TooFewSamples {
                needed: 2,
                got: samples.len(),
            });
        }
        if samples.iter().any(|x| x.is_nan()) {
            return Err(MarginalError::InvalidParameter {
                name: "samples",
                constraint: "no NaNs",
            });
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let variance = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Ok(Self {
            sorted: samples,
            mean,
            variance,
        })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (≥2 samples enforced).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted sample.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

impl Marginal for EmpiricalCdf {
    fn cdf(&self, x: f64) -> f64 {
        // Fraction of samples <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let h = p * (n - 1) as f64;
        let lo = h.floor() as usize;
        let frac = h - lo as f64;
        if lo + 1 >= n {
            self.sorted[n - 1]
        } else {
            self.sorted[lo] * (1.0 - frac) + self.sorted[lo + 1] * frac
        }
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

/// Empirical distribution from a histogram: bin edges `e_0 < … < e_B` and
/// per-bin counts. The CDF rises linearly across each bin (i.e. mass is
/// uniform within a bin), which makes the inverse continuous — the property
/// the paper's transform `h` needs to look like Fig. 2.
///
/// The quantile needs the first edge whose cumulative probability reaches
/// `p`. Rather than binary-search `cum` on every call, construction
/// precomputes a uniform grid over `p ∈ [0, 1]` whose cell `g` stores the
/// search's answer at the cell's lower bound (`partition_point(cum, g/G)`).
/// Because `cum` is nondecreasing, the answer for any `p` in the cell lies
/// at most a few entries to the right, so a lookup plus a short monotone
/// scan replaces the search. The scan stops at **exactly** the index the
/// binary search returns, so quantiles are bit-identical to it (tested).
#[derive(Debug, Clone)]
pub struct BinnedEmpirical {
    edges: Vec<f64>,
    /// Cumulative probability at each edge (cum[0] = 0, cum[B] = 1).
    cum: Vec<f64>,
    /// `grid[g] = cum.partition_point(|c| c < g / grid.len())`,
    /// nondecreasing.
    grid: Vec<u32>,
    mean: f64,
    variance: f64,
}

/// Quantile grid density: cells per histogram bin. At 4× the expected
/// monotone scan length is well under one step.
const QUANTILE_GRID_CELLS_PER_BIN: usize = 4;

/// Minimum quantile grid size, so coarse histograms still get O(1) lookups.
const QUANTILE_GRID_MIN_CELLS: usize = 64;

/// The quantile bracket grid of `cum` with `cells` cells (at least 1).
fn quantile_grid(cum: &[f64], cells: usize) -> Vec<u32> {
    let cells = cells.max(1);
    (0..cells)
        .map(|g| {
            let p0 = g as f64 / cells as f64;
            cum.partition_point(|&c| c < p0) as u32
        })
        .collect()
}

impl BinnedEmpirical {
    /// Build from bin edges (length B+1, strictly increasing) and counts
    /// (length B, not all zero).
    pub fn new(edges: Vec<f64>, counts: &[u64]) -> Result<Self, MarginalError> {
        if edges.len() < 2 || counts.len() + 1 != edges.len() {
            return Err(MarginalError::InvalidParameter {
                name: "edges/counts",
                constraint: "edges.len() == counts.len() + 1 >= 2",
            });
        }
        if edges
            .windows(2)
            .any(|w| w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater))
            || edges.iter().any(|e| !e.is_finite())
        {
            return Err(MarginalError::InvalidParameter {
                name: "edges",
                constraint: "finite and strictly increasing",
            });
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Err(MarginalError::TooFewSamples { needed: 1, got: 0 });
        }
        let mut cum = Vec::with_capacity(edges.len());
        cum.push(0.0);
        let mut acc = 0u64;
        for &c in counts {
            acc += c;
            cum.push(acc as f64 / total as f64);
        }
        // Moments assuming uniform mass within each bin.
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            let w = c as f64 / total as f64;
            let (a, b) = (edges[i], edges[i + 1]);
            let mid = 0.5 * (a + b);
            mean += w * mid;
            m2 += w * (a * a + a * b + b * b) / 3.0;
        }
        let cells = (counts.len() * QUANTILE_GRID_CELLS_PER_BIN).max(QUANTILE_GRID_MIN_CELLS);
        let grid = quantile_grid(&cum, cells);
        Ok(Self {
            edges,
            cum,
            grid,
            mean,
            variance: (m2 - mean * mean).max(0.0),
        })
    }

    /// Build directly from raw samples and a bin count (equal-width bins
    /// over the sample range — the path Fig. 1 takes).
    pub fn from_samples(samples: &[f64], bins: usize) -> Result<Self, MarginalError> {
        if samples.len() < 2 {
            return Err(MarginalError::TooFewSamples {
                needed: 2,
                got: samples.len(),
            });
        }
        if bins == 0 {
            return Err(MarginalError::InvalidParameter {
                name: "bins",
                constraint: "bins >= 1",
            });
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater) {
            return Err(MarginalError::InvalidParameter {
                name: "samples",
                constraint: "non-degenerate range",
            });
        }
        let width = (max - min) / bins as f64;
        let edges: Vec<f64> = (0..=bins).map(|i| min + i as f64 * width).collect();
        let mut counts = vec![0u64; bins];
        for &x in samples {
            let idx = (((x - min) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Self::new(edges, &counts)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.edges.len() - 1
    }

    /// The bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }
}

impl Marginal for BinnedEmpirical {
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.edges[0] {
            return 0.0;
        }
        #[expect(
            clippy::expect_used,
            reason = "constructor rejects histograms with no bins"
        )]
        if x >= *self.edges.last().expect("non-empty") {
            return 1.0;
        }
        let i = self.edges.partition_point(|&e| e <= x) - 1;
        let (a, b) = (self.edges[i], self.edges[i + 1]);
        let frac = (x - a) / (b - a);
        self.cum[i] + frac * (self.cum[i + 1] - self.cum[i])
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return self.edges[0];
        }
        if p >= 1.0 {
            #[expect(
                clippy::expect_used,
                reason = "constructor rejects histograms with no bins"
            )]
            return *self.edges.last().expect("non-empty");
        }
        // First edge index with cum >= p, found from the grid cell's
        // bracket by a monotone scan (the exact partition point; the
        // backward step covers the half-ulp case where `p * cells` rounded
        // up a cell); then invert linearly within that bin.
        let cells = self.grid.len();
        let cell = ((p * cells as f64) as usize).min(cells - 1);
        let cum = &self.cum;
        let mut i = self.grid[cell] as usize;
        while i > 0 && cum[i - 1] >= p {
            i -= 1;
        }
        while i < cum.len() && cum[i] < p {
            i += 1;
        }
        let i = i.clamp(1, self.edges.len() - 1);
        let (clo, chi) = (cum[i - 1], cum[i]);
        if chi <= clo {
            return self.edges[i];
        }
        let frac = (p - clo) / (chi - clo);
        self.edges[i - 1] + frac * (self.edges[i] - self.edges[i - 1])
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn empirical_cdf_basic() -> Result<(), Box<dyn std::error::Error>> {
        let d = EmpiricalCdf::new(vec![3.0, 1.0, 2.0, 4.0])?;
        close(d.cdf(0.5), 0.0, 0.0);
        close(d.cdf(1.0), 0.25, 0.0);
        close(d.cdf(2.5), 0.5, 0.0);
        close(d.cdf(4.0), 1.0, 0.0);
        close(d.cdf(10.0), 1.0, 0.0);
        Ok(())
    }

    #[test]
    fn empirical_quantile_interpolates() -> Result<(), Box<dyn std::error::Error>> {
        let d = EmpiricalCdf::new(vec![0.0, 1.0, 2.0, 3.0])?;
        close(d.quantile(0.0), 0.0, 0.0);
        close(d.quantile(1.0), 3.0, 0.0);
        close(d.quantile(0.5), 1.5, 1e-12);
        Ok(())
    }

    #[test]
    fn empirical_moments() -> Result<(), Box<dyn std::error::Error>> {
        let d = EmpiricalCdf::new(vec![1.0, 2.0, 3.0, 4.0])?;
        close(d.mean(), 2.5, 1e-15);
        close(d.variance(), 1.25, 1e-15);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.samples(), &[1.0, 2.0, 3.0, 4.0]);
        Ok(())
    }

    #[test]
    fn empirical_rejects_bad_input() {
        assert!(EmpiricalCdf::new(vec![1.0]).is_err());
        assert!(EmpiricalCdf::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn binned_cdf_piecewise_linear() -> Result<(), Box<dyn std::error::Error>> {
        // Two bins [0,1), [1,2) with counts 1 and 3.
        let d = BinnedEmpirical::new(vec![0.0, 1.0, 2.0], &[1, 3])?;
        close(d.cdf(0.0), 0.0, 0.0);
        close(d.cdf(0.5), 0.125, 1e-15);
        close(d.cdf(1.0), 0.25, 1e-15);
        close(d.cdf(1.5), 0.625, 1e-15);
        close(d.cdf(2.0), 1.0, 0.0);
        Ok(())
    }

    #[test]
    fn binned_quantile_inverts_cdf() -> Result<(), Box<dyn std::error::Error>> {
        let d = BinnedEmpirical::new(vec![0.0, 1.0, 2.0, 5.0], &[2, 5, 3])?;
        for p in [0.0, 0.1, 0.2, 0.5, 0.7, 0.95, 1.0] {
            close(d.cdf(d.quantile(p)), p, 1e-12);
        }
        Ok(())
    }

    #[test]
    fn binned_quantile_monotone() -> Result<(), Box<dyn std::error::Error>> {
        let d = BinnedEmpirical::new(vec![0.0, 1.0, 2.0, 5.0], &[2, 0, 3])?;
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = d.quantile(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
        Ok(())
    }

    #[test]
    fn binned_moments_uniform_bin() -> Result<(), Box<dyn std::error::Error>> {
        // Single bin [0, 2]: uniform → mean 1, var 1/3.
        let d = BinnedEmpirical::new(vec![0.0, 2.0], &[10])?;
        close(d.mean(), 1.0, 1e-15);
        close(d.variance(), 1.0 / 3.0, 1e-15);
        Ok(())
    }

    #[test]
    fn binned_from_samples_agrees_with_raw() -> Result<(), Box<dyn std::error::Error>> {
        let samples: Vec<f64> = (0..10_000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let raw = EmpiricalCdf::new(samples.clone())?;
        let binned = BinnedEmpirical::from_samples(&samples, 200)?;
        for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let (a, b) = (raw.quantile(p), binned.quantile(p));
            assert!((a - b).abs() < 15.0, "p={p}: raw {a} vs binned {b}");
        }
        close(raw.mean(), binned.mean(), 5.0);
        Ok(())
    }

    #[test]
    fn binned_rejects_bad_input() {
        assert!(BinnedEmpirical::new(vec![0.0], &[]).is_err());
        assert!(BinnedEmpirical::new(vec![0.0, 0.0], &[1]).is_err());
        assert!(BinnedEmpirical::new(vec![0.0, 1.0], &[0]).is_err());
        assert!(BinnedEmpirical::new(vec![0.0, 1.0, 2.0], &[1]).is_err());
        assert!(BinnedEmpirical::from_samples(&[1.0, 1.0], 4).is_err());
        assert!(BinnedEmpirical::from_samples(&[1.0, 2.0], 0).is_err());
    }

    /// The quantile by a full binary search over `cum` — what the grid
    /// lookup must reproduce bit for bit.
    fn quantile_by_search(d: &BinnedEmpirical, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let last = d.edges.len() - 1;
        if p <= 0.0 {
            return d.edges[0];
        }
        if p >= 1.0 {
            return d.edges[last];
        }
        let i = d.cum.partition_point(|&c| c < p).clamp(1, last);
        let (clo, chi) = (d.cum[i - 1], d.cum[i]);
        if chi <= clo {
            return d.edges[i];
        }
        let frac = (p - clo) / (chi - clo);
        d.edges[i - 1] + frac * (d.edges[i] - d.edges[i - 1])
    }

    #[test]
    fn grid_quantile_is_bit_identical_to_binary_search() -> Result<(), Box<dyn std::error::Error>> {
        // Adversarial histogram: empty bins (flat CDF runs), uneven masses.
        let base = BinnedEmpirical::new(
            vec![0.0, 0.5, 1.0, 2.0, 2.25, 7.0, 11.0],
            &[3, 0, 17, 1, 0, 4],
        )?;
        assert_eq!(base.grid.len(), QUANTILE_GRID_MIN_CELLS);
        for cells in [1, 2, 7, 64, 1024] {
            let mut d = base.clone();
            d.grid = quantile_grid(&d.cum, cells);
            // Dense sweep plus the exact cumulative boundaries and their
            // neighbouring representable values.
            let mut ps: Vec<f64> = (0..=100_000).map(|i| i as f64 / 100_000.0).collect();
            for &c in &base.cum {
                ps.extend([c, c.next_up(), c.next_down()]);
            }
            ps.extend([-0.5, 0.0, 1.0, 1.5, 0.1f64.next_down(), 0.1f64.next_up()]);
            for p in ps {
                assert_eq!(
                    d.quantile(p).to_bits(),
                    quantile_by_search(&d, p).to_bits(),
                    "cells={cells} p={p}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn grid_scales_with_bins() -> Result<(), Box<dyn std::error::Error>> {
        let wide = BinnedEmpirical::from_samples(
            &(0..2000).map(|i| (i % 997) as f64).collect::<Vec<_>>(),
            100,
        )?;
        assert_eq!(wide.grid.len(), 100 * QUANTILE_GRID_CELLS_PER_BIN);
        Ok(())
    }

    #[test]
    fn binned_empty_bins_handled() -> Result<(), Box<dyn std::error::Error>> {
        let d = BinnedEmpirical::new(vec![0.0, 1.0, 2.0, 3.0], &[5, 0, 5])?;
        // CDF flat across the empty middle bin.
        close(d.cdf(1.0), 0.5, 1e-15);
        close(d.cdf(1.7), 0.5, 1e-15);
        close(d.cdf(2.0), 0.5, 1e-15);
        // Quantile at exactly 0.5 lands at the edge of the flat region.
        let q = d.quantile(0.5);
        assert!((1.0..=2.0).contains(&q));
        Ok(())
    }
}
