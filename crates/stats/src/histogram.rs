//! Histograms for marginal-distribution estimation and comparison
//! (Figs. 1 and 12 of the paper).

use crate::StatsError;

/// An equal-width histogram over `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    total: u64,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Build a histogram of `xs` with `bins` equal-width bins spanning
    /// the data range. A degenerate range (all values equal) produces a
    /// single-bin histogram.
    pub fn of(xs: &[f64], bins: usize) -> Result<Self, StatsError> {
        if xs.is_empty() {
            return Err(StatsError::TooShort { needed: 1, got: 0 });
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut h = Self::with_range(min, max, bins)?;
        for &x in xs {
            h.add(x);
        }
        Ok(h)
    }

    /// Build an empty histogram over an explicit range (used to compare two
    /// samples over identical bins, as Fig. 12 does).
    pub fn with_range(min: f64, max: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                constraint: "bins >= 1",
            });
        }
        if !(min.is_finite() && max.is_finite() && min <= max) {
            return Err(StatsError::InvalidParameter {
                name: "min/max",
                constraint: "finite with min <= max",
            });
        }
        Ok(Self {
            min,
            max,
            counts: vec![0; bins],
            total: 0,
            below: 0,
            above: 0,
        })
    }

    /// Insert a sample. Values outside the range are tallied separately
    /// (see [`Self::outside`]) and do not contribute to bin frequencies.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.min {
            self.below += 1;
            return;
        }
        if x > self.max {
            self.above += 1;
            return;
        }
        let bins = self.counts.len();
        let idx = if self.max > self.min {
            (((x - self.min) / (self.max - self.min)) * bins as f64) as usize
        } else {
            0
        };
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Insert every sample of a slice.
    pub fn add_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples inserted (including out-of-range ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that fell outside `[min, max]` as `(below, above)`.
    pub fn outside(&self) -> (u64, u64) {
        (self.below, self.above)
    }

    /// The center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        let w = self.bin_width();
        self.min + (i as f64 + 0.5) * w
    }

    /// Bin width (0 for a degenerate range).
    pub fn bin_width(&self) -> f64 {
        (self.max - self.min) / self.counts.len() as f64
    }

    /// Lower edge of the range.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper edge of the range.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Relative frequency of each bin (sums to 1 minus the out-of-range
    /// fraction). Empty histogram yields zeros.
    pub fn frequencies(&self) -> Vec<f64> {
        let t = self.total.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }

    /// `(center, frequency)` pairs — the series the paper's marginal plots
    /// show.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.frequencies()
            .into_iter()
            .enumerate()
            .map(|(i, f)| (self.center(i), f))
            .collect()
    }

    /// Total-variation-style distance between the frequency vectors of two
    /// histograms with identical binning: `½ Σ |p_i − q_i|` ∈ [0, 1].
    pub fn l1_distance(&self, other: &Self) -> Result<f64, StatsError> {
        #[expect(
            clippy::float_cmp,
            reason = "identical binning means bit-equal edges; near-equal edges put samples in different bins"
        )]
        if self.bins() != other.bins() || self.min != other.min || self.max != other.max {
            return Err(StatsError::InvalidParameter {
                name: "other",
                constraint: "identical binning",
            });
        }
        let p = self.frequencies();
        let q = other.frequencies();
        Ok(p.iter()
            .zip(q.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_right_bins() -> Result<(), Box<dyn std::error::Error>> {
        let h = Histogram::of(&[0.0, 0.1, 0.9, 1.0, 0.5], 2)?;
        // 0.5 sits exactly on the boundary and belongs to the upper bin.
        assert_eq!(h.counts(), &[2, 3]);
        assert_eq!(h.total(), 5);
        Ok(())
    }

    #[test]
    fn max_value_goes_in_last_bin() -> Result<(), Box<dyn std::error::Error>> {
        let h = Histogram::of(&[0.0, 10.0], 10)?;
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[0], 1);
        Ok(())
    }

    #[test]
    fn degenerate_range() -> Result<(), Box<dyn std::error::Error>> {
        let h = Histogram::of(&[5.0, 5.0, 5.0], 4)?;
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
        assert_eq!(h.bin_width(), 0.0);
        Ok(())
    }

    #[test]
    fn out_of_range_tracked() -> Result<(), Box<dyn std::error::Error>> {
        let mut h = Histogram::with_range(0.0, 1.0, 2)?;
        h.add_all(&[-1.0, 0.5, 2.0, 0.9]);
        assert_eq!(h.outside(), (1, 1));
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts().iter().sum::<u64>(), 2);
        Ok(())
    }

    #[test]
    fn frequencies_sum_to_in_range_fraction() -> Result<(), Box<dyn std::error::Error>> {
        let mut h = Histogram::with_range(0.0, 1.0, 4)?;
        h.add_all(&[0.1, 0.2, 0.3, 5.0]);
        let s: f64 = h.frequencies().iter().sum();
        assert!((s - 0.75).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn centers_and_points() -> Result<(), Box<dyn std::error::Error>> {
        let h = Histogram::with_range(0.0, 10.0, 5)?;
        assert_eq!(h.center(0), 1.0);
        assert_eq!(h.center(4), 9.0);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.points().len(), 5);
        assert_eq!((h.min(), h.max()), (0.0, 10.0));
        Ok(())
    }

    #[test]
    fn l1_distance_properties() -> Result<(), Box<dyn std::error::Error>> {
        let mut a = Histogram::with_range(0.0, 1.0, 10)?;
        let mut b = Histogram::with_range(0.0, 1.0, 10)?;
        let xs: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 100.0).collect();
        a.add_all(&xs);
        b.add_all(&xs);
        assert!(a.l1_distance(&b)? < 1e-12, "identical samples");
        let mut c = Histogram::with_range(0.0, 1.0, 10)?;
        c.add_all(&vec![0.05; 1000]);
        let d = a.l1_distance(&c)?;
        assert!(d > 0.8, "disjoint-ish distributions: {d}");
        assert!(d <= 1.0);
        Ok(())
    }

    #[test]
    fn l1_distance_requires_same_binning() -> Result<(), Box<dyn std::error::Error>> {
        let a = Histogram::with_range(0.0, 1.0, 10)?;
        let b = Histogram::with_range(0.0, 1.0, 5)?;
        assert!(a.l1_distance(&b).is_err());
        let c = Histogram::with_range(0.0, 2.0, 10)?;
        assert!(a.l1_distance(&c).is_err());
        Ok(())
    }

    #[test]
    fn validation() {
        assert!(Histogram::of(&[], 5).is_err());
        assert!(Histogram::with_range(0.0, 1.0, 0).is_err());
        assert!(Histogram::with_range(2.0, 1.0, 5).is_err());
        assert!(Histogram::with_range(f64::NAN, 1.0, 5).is_err());
    }
}
