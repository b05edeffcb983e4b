//! The Lindley recursion and its workload dual.

use crate::QueueError;

/// A slotted single-server queue with deterministic per-slot service `μ`
/// (eq. 16 of the paper). Arrivals may be any nonnegative real number —
/// the paper: "without loss of generality, we assume Y_k can take any
/// non-negative real value".
///
/// ```
/// use svbr_queue::LindleyQueue;
///
/// let mut q = LindleyQueue::new(2.0).unwrap();
/// assert_eq!(q.step(5.0), 3.0); // ⟨0 + 5 − 2⟩⁺
/// assert_eq!(q.step(0.0), 1.0);
/// assert_eq!(q.step(0.0), 0.0); // never negative
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LindleyQueue {
    service: f64,
    q: f64,
}

impl LindleyQueue {
    /// Start empty with service rate `μ > 0`.
    pub fn new(service: f64) -> Result<Self, QueueError> {
        Self::with_initial(service, 0.0)
    }

    /// Start at queue level `q0 >= 0` (Fig. 15 uses a *full* buffer start).
    pub fn with_initial(service: f64, q0: f64) -> Result<Self, QueueError> {
        if !(service > 0.0 && service.is_finite()) {
            return Err(QueueError::InvalidParameter {
                name: "service",
                constraint: "service > 0 and finite",
            });
        }
        if !(q0 >= 0.0 && q0.is_finite()) {
            return Err(QueueError::InvalidParameter {
                name: "q0",
                constraint: "q0 >= 0 and finite",
            });
        }
        Ok(Self { service, q: q0 })
    }

    /// The service rate μ.
    pub fn service(&self) -> f64 {
        self.service
    }

    /// Current queue level.
    pub fn level(&self) -> f64 {
        self.q
    }

    /// Apply one slot: `Q ← ⟨Q + y − μ⟩⁺`; returns the new level.
    pub fn step(&mut self, arrival: f64) -> f64 {
        self.q = (self.q + arrival - self.service).max(0.0);
        self.q
    }

    /// Run a whole arrival path, returning the final level.
    pub fn run(&mut self, arrivals: &[f64]) -> f64 {
        for &y in arrivals {
            self.step(y);
        }
        self.q
    }
}

/// Running statistics of a queue-level path: maximum depth, busy-period
/// count and lengths. Feed it every level produced by
/// [`LindleyQueue::step`]; O(1) state, no allocation.
///
/// A *busy period* is a maximal run of slots with `Q > 0` (the standard
/// definition for a slotted queue observed at slot boundaries).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Slots observed.
    pub slots: u64,
    /// Maximum queue level seen.
    pub max_depth: f64,
    /// Number of completed-or-ongoing busy periods.
    pub busy_periods: u64,
    /// Total slots spent busy (`Q > 0`).
    pub busy_slots: u64,
    in_busy: bool,
}

impl QueueStats {
    /// Fresh (all-zero) statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one queue level.
    pub fn observe(&mut self, level: f64) {
        self.slots += 1;
        self.max_depth = self.max_depth.max(level);
        if level > 0.0 {
            self.busy_slots += 1;
            if !self.in_busy {
                self.in_busy = true;
                self.busy_periods += 1;
            }
        } else {
            self.in_busy = false;
        }
    }

    /// Mean busy-period length in slots (0 when the queue never filled).
    pub fn mean_busy_len(&self) -> f64 {
        if self.busy_periods == 0 {
            0.0
        } else {
            self.busy_slots as f64 / self.busy_periods as f64
        }
    }

    /// Fraction of observed slots spent busy.
    pub fn utilization(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.busy_slots as f64 / self.slots as f64
        }
    }
}

/// The queue-level path `Q_1 … Q_n` for an arrival path (allocates; for
/// large sweeps prefer streaming with [`LindleyQueue::step`]).
pub fn queue_path(arrivals: &[f64], service: f64, q0: f64) -> Result<Vec<f64>, QueueError> {
    let mut q = LindleyQueue::with_initial(service, q0)?;
    Ok(arrivals.iter().map(|&y| q.step(y)).collect())
}

/// Reject any NaN or infinite arrival before it reaches the Lindley
/// recursion. A single non-finite value silently poisons every subsequent
/// queue level (`max(q + NaN − μ, 0)` is NaN or saturates), so callers on
/// the estimation paths run this guard first and surface a typed error the
/// supervisor can retry on.
pub fn validate_arrivals(arrivals: &[f64]) -> Result<(), QueueError> {
    match arrivals.iter().position(|y| !y.is_finite()) {
        None => Ok(()),
        Some(slot) => Err(QueueError::NonFiniteArrival { slot }),
    }
}

/// The running supremum of the total workload `W_i = Σ_{j≤i}(Y_j − μ)`
/// over the whole path (eq. 17's right-hand side, with `sup ≥ W_0 = 0`).
pub fn sup_workload(arrivals: &[f64], service: f64) -> f64 {
    let mut w = 0.0f64;
    let mut sup = 0.0f64;
    for &y in arrivals {
        w += y - service;
        sup = sup.max(w);
    }
    sup
}

/// First slot `i` (1-based) at which the running workload exceeds `b`, if
/// any — the early-termination test of the paper's IS procedure (step 5).
///
/// By eq. 17, `Pr(first_passage_slot ≤ k) = Pr(Q_k > b)` for a queue
/// started empty, so estimating the first-passage probability estimates the
/// transient overflow probability.
pub fn first_passage_slot(arrivals: &[f64], service: f64, b: f64) -> Option<usize> {
    let mut w = 0.0f64;
    for (i, &y) in arrivals.iter().enumerate() {
        w += y - service;
        if w > b {
            return Some(i + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursion_by_hand() -> Result<(), Box<dyn std::error::Error>> {
        // μ = 2; arrivals 5, 0, 0, 10: Q = 3, 1, 0, 8.
        let mut q = LindleyQueue::new(2.0)?;
        assert_eq!(q.step(5.0), 3.0);
        assert_eq!(q.step(0.0), 1.0);
        assert_eq!(q.step(0.0), 0.0);
        assert_eq!(q.step(10.0), 8.0);
        assert_eq!(q.level(), 8.0);
        assert_eq!(q.service(), 2.0);
        Ok(())
    }

    #[test]
    fn initial_condition_respected() -> Result<(), Box<dyn std::error::Error>> {
        let mut q = LindleyQueue::with_initial(1.0, 10.0)?;
        assert_eq!(q.step(0.0), 9.0);
        let path = queue_path(&[0.0, 0.0, 5.0], 1.0, 2.0)?;
        assert_eq!(path, vec![1.0, 0.0, 4.0]);
        Ok(())
    }

    #[test]
    fn run_matches_steps() -> Result<(), Box<dyn std::error::Error>> {
        let arr = [3.0, 1.0, 0.0, 7.0, 2.0];
        let mut a = LindleyQueue::new(2.5)?;
        let fin = a.run(&arr);
        let path = queue_path(&arr, 2.5, 0.0)?;
        assert_eq!(fin, *path.last().ok_or("empty")?);
        Ok(())
    }

    #[test]
    fn queue_never_negative() -> Result<(), Box<dyn std::error::Error>> {
        let path = queue_path(&[0.0; 100], 5.0, 3.0)?;
        assert!(path.iter().all(|&q| q >= 0.0));
        assert_eq!(*path.last().ok_or("empty")?, 0.0);
        Ok(())
    }

    #[test]
    fn sup_workload_by_hand() {
        // μ = 1; arrivals 3, 0, 2: W = 2, 1, 2 → sup = 2.
        assert_eq!(sup_workload(&[3.0, 0.0, 2.0], 1.0), 2.0);
        // All departures: sup stays at 0 (W_0 = 0).
        assert_eq!(sup_workload(&[0.0, 0.0], 1.0), 0.0);
    }

    #[test]
    fn first_passage_by_hand() {
        // μ = 1, b = 2.5: W = 2, 1, 2, 4 → first exceeds at slot 4.
        assert_eq!(first_passage_slot(&[3.0, 0.0, 2.0, 3.0], 1.0, 2.5), Some(4));
        assert_eq!(first_passage_slot(&[1.0, 1.0], 1.0, 0.5), None);
        assert_eq!(first_passage_slot(&[5.0], 1.0, 2.0), Some(1));
    }

    #[test]
    fn lindley_duality_for_empty_start() -> Result<(), Box<dyn std::error::Error>> {
        // Deterministic check of Q_k = W_k − min_{j≤k} W_j ≥ … and that the
        // sup-workload event matches Q_k > b distributionally is checked in
        // the MC tests; here check the pathwise identity
        // Q_k = W_k − min(0, min_j W_j).
        let arr = [3.0, 0.0, 0.0, 4.0, 0.0, 6.0];
        let mu = 2.0;
        let path = queue_path(&arr, mu, 0.0)?;
        let mut w = 0.0f64;
        let mut min_w = 0.0f64;
        for (k, &y) in arr.iter().enumerate() {
            w += y - mu;
            min_w = min_w.min(w); // min over j = 0..=k includes W_k itself
            let q = w - min_w;
            assert!((path[k] - q).abs() < 1e-12, "slot {k}");
        }
        Ok(())
    }

    #[test]
    fn validation() {
        assert!(LindleyQueue::new(0.0).is_err());
        assert!(LindleyQueue::new(f64::NAN).is_err());
        assert!(LindleyQueue::with_initial(1.0, -1.0).is_err());
    }

    #[test]
    fn queue_stats_counts_busy_periods() -> Result<(), Box<dyn std::error::Error>> {
        // μ = 2; arrivals 5, 0, 0, 10, 0: Q = 3, 1, 0, 8, 6 — two busy
        // periods of lengths 2 and 2, max depth 8.
        let mut q = LindleyQueue::new(2.0)?;
        let mut stats = QueueStats::new();
        for y in [5.0, 0.0, 0.0, 10.0, 0.0] {
            stats.observe(q.step(y));
        }
        assert_eq!(stats.slots, 5);
        assert_eq!(stats.max_depth, 8.0);
        assert_eq!(stats.busy_periods, 2);
        assert_eq!(stats.busy_slots, 4);
        assert_eq!(stats.mean_busy_len(), 2.0);
        assert!((stats.utilization() - 0.8).abs() < 1e-12);

        // Empty path: all zeros and no division blowups.
        let empty = QueueStats::new();
        assert_eq!(empty.mean_busy_len(), 0.0);
        assert_eq!(empty.utilization(), 0.0);
        Ok(())
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn first_passage_consistent_with_sup(
            arrivals in proptest::collection::vec(0.0f64..20.0, 1..200),
            service in 0.1f64..10.0,
            b in 0.0f64..50.0,
        ) {
            let sup = sup_workload(&arrivals, service);
            let fp = first_passage_slot(&arrivals, service, b);
            prop_assert_eq!(fp.is_some(), sup > b, "sup {} vs b {}", sup, b);
            if let Some(i) = fp {
                prop_assert!(i >= 1 && i <= arrivals.len());
                // No earlier crossing: sup over the prefix before i stays <= b.
                if i > 1 {
                    prop_assert!(sup_workload(&arrivals[..i - 1], service) <= b + 1e-12);
                }
            }
        }

        #[test]
        fn queue_level_monotone_in_initial_condition(
            arrivals in proptest::collection::vec(0.0f64..10.0, 1..100),
            service in 0.5f64..5.0,
            q0 in 0.0f64..20.0,
        ) {
            let lo = queue_path(&arrivals, service, q0).unwrap();
            let hi = queue_path(&arrivals, service, q0 + 5.0).unwrap();
            for (a, b) in lo.iter().zip(hi.iter()) {
                prop_assert!(b + 1e-12 >= *a, "higher start can never queue less");
                prop_assert!(b - a <= 5.0 + 1e-12, "gap can only shrink");
            }
        }
    }
}
