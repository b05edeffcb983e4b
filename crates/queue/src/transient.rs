//! Transient overflow analysis (Fig. 15).
//!
//! The paper: "Fig. 15 shows the transient buffer overflow probability for
//! a given buffer size b, corresponding to two initial buffer occupancy
//! conditions, namely empty and full buffer. … the transient time in a
//! simulation may be reduced if the initial conditions are chosen
//! properly."

use crate::lindley::LindleyQueue;
use crate::QueueError;

/// Initial buffer occupancy for transient studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialCondition {
    /// `Q_0 = 0`.
    Empty,
    /// `Q_0 = b` (the buffer threshold under study).
    Full,
    /// An explicit level.
    Level(f64),
}

impl InitialCondition {
    /// Resolve to a concrete level given the buffer threshold.
    pub fn level(self, b: f64) -> f64 {
        match self {
            InitialCondition::Empty => 0.0,
            InitialCondition::Full => b,
            InitialCondition::Level(q0) => q0,
        }
    }
}

/// Estimate `Pr(Q_k > b)` at each stop time in `stop_times` by running `N`
/// replications of the Lindley recursion from the given initial condition.
///
/// `make_path(rep)` must yield at least `max(stop_times)` slots. Returns
/// one probability per stop time, ordered as given (stop times must be
/// nondecreasing).
pub fn transient_curve<F>(
    mut make_path: F,
    n_reps: usize,
    stop_times: &[usize],
    service: f64,
    b: f64,
    init: InitialCondition,
) -> Result<Vec<f64>, QueueError>
where
    F: FnMut(usize) -> Vec<f64>,
{
    if n_reps == 0 {
        return Err(QueueError::InvalidParameter {
            name: "n_reps",
            constraint: ">= 1",
        });
    }
    if stop_times.is_empty() || stop_times.windows(2).any(|w| w[1] < w[0]) {
        return Err(QueueError::InvalidParameter {
            name: "stop_times",
            constraint: "non-empty and nondecreasing",
        });
    }
    #[expect(
        clippy::expect_used,
        reason = "stop_times emptiness is rejected by the guard above"
    )]
    let horizon = *stop_times.last().expect("non-empty");
    let mut hits = vec![0usize; stop_times.len()];
    for rep in 0..n_reps {
        let path = make_path(rep);
        if path.len() < horizon {
            return Err(QueueError::PathTooShort {
                needed: horizon,
                got: path.len(),
            });
        }
        let mut q = LindleyQueue::with_initial(service, init.level(b))?;
        let mut next = 0usize;
        for (slot, &y) in path[..horizon].iter().enumerate() {
            let level = q.step(y);
            while next < stop_times.len() && stop_times[next] == slot + 1 {
                if level > b {
                    hits[next] += 1;
                }
                next += 1;
            }
        }
    }
    Ok(hits.into_iter().map(|h| h as f64 / n_reps as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn walk_paths(seed: u64, p: f64, len: usize) -> impl FnMut(usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        move |_| {
            (0..len)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < p {
                        2.0
                    } else {
                        0.0
                    }
                })
                .collect()
        }
    }

    #[test]
    fn initial_condition_levels() {
        assert_eq!(InitialCondition::Empty.level(5.0), 0.0);
        assert_eq!(InitialCondition::Full.level(5.0), 5.0);
        assert_eq!(InitialCondition::Level(2.5).level(5.0), 2.5);
    }

    #[test]
    fn empty_and_full_converge_to_same_steady_state() -> Result<(), Box<dyn std::error::Error>> {
        let b = 3.0;
        let stop = [5, 50, 400];
        let from_empty = transient_curve(
            walk_paths(1, 0.4, 400),
            8000,
            &stop,
            1.0,
            b,
            InitialCondition::Empty,
        )?;
        let from_full = transient_curve(
            walk_paths(2, 0.4, 400),
            8000,
            &stop,
            1.0,
            b,
            InitialCondition::Full,
        )?;
        // Early: full start overflows far more often.
        assert!(from_full[0] > from_empty[0] + 0.05);
        // Late: both near the steady state (2/3)^4 ≈ 0.198.
        let exact = (2.0f64 / 3.0).powi(4);
        assert!(
            (from_empty[2] - exact).abs() < 0.03,
            "empty {} vs {exact}",
            from_empty[2]
        );
        assert!(
            (from_full[2] - exact).abs() < 0.03,
            "full {} vs {exact}",
            from_full[2]
        );
        assert!((from_empty[2] - from_full[2]).abs() < 0.04);
        Ok(())
    }

    #[test]
    fn probability_monotone_from_empty() -> Result<(), Box<dyn std::error::Error>> {
        // From empty, the transient overflow probability grows with k.
        let curve = transient_curve(
            walk_paths(3, 0.45, 200),
            5000,
            &[1, 10, 50, 200],
            1.0,
            2.0,
            InitialCondition::Empty,
        )?;
        for w in curve.windows(2) {
            assert!(w[1] + 0.02 >= w[0], "{curve:?}");
        }
        Ok(())
    }

    #[test]
    fn validation() {
        let mk = |_: usize| vec![0.0; 10];
        assert!(transient_curve(mk, 0, &[5], 1.0, 1.0, InitialCondition::Empty).is_err());
        assert!(transient_curve(mk, 5, &[], 1.0, 1.0, InitialCondition::Empty).is_err());
        assert!(transient_curve(mk, 5, &[5, 3], 1.0, 1.0, InitialCondition::Empty).is_err());
        assert!(transient_curve(mk, 5, &[20], 1.0, 1.0, InitialCondition::Empty).is_err());
    }

    #[test]
    fn stop_time_alignment() -> Result<(), Box<dyn std::error::Error>> {
        // Deterministic path: arrival 2 each slot, service 1 → Q_k = k.
        // Pr(Q_k > 2) is 0 for k ≤ 2, 1 for k ≥ 3.
        let curve = transient_curve(
            |_| vec![2.0; 10],
            3,
            &[1, 2, 3, 4],
            1.0,
            2.0,
            InitialCondition::Empty,
        )?;
        assert_eq!(curve, vec![0.0, 0.0, 1.0, 1.0]);
        Ok(())
    }
}
