//! # svbr-queue — slotted single-server queue and overflow estimation
//!
//! §4 of the paper: a slotted-time single-server queue with deterministic
//! service rate `μ` fed by a stationary arrival process `Y`, with the
//! Lindley recursion (eq. 16)
//!
//! ```text
//! Q_k = ⟨Q_{k−1} + Y_k − μ⟩⁺
//! ```
//!
//! and the workload duality (eq. 17): with `Q_0 = 0` and stationary
//! increments, `Pr(Q_k > b) = Pr(sup_{0≤i≤k} W_i > b)` where
//! `W_k = Σ_{i≤k}(Y_i − μ)`. The duality is what lets the paper's
//! importance-sampling procedure terminate a replication the moment the
//! running workload crosses `b`.
//!
//! * [`lindley`] — the queue recursion, workload paths, first passage.
//! * [`mux`] — ATM-multiplexer conventions: utilization → service rate,
//!   normalized buffer sizes (buffer in units of mean arrival).
//! * [`mc`] — standard Monte-Carlo overflow estimation with replications
//!   and confidence intervals, plus single-long-path (empirical-trace)
//!   steady-state estimation.
//! * [`transient`] — `Pr(Q_k > b)` as a function of the stop time `k` for
//!   empty/full initial buffers (Fig. 15).
//! * [`superposition`] — multiplexing N sources and measuring the
//!   statistical-multiplexing gain (the paper's opening motivation).
//! * [`norros`] — Norros's analytic Weibullian overflow approximation for
//!   self-similar input (the paper's reference [23]), used as the
//!   theoretical companion of the simulated Figs. 16–17 curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lindley;
pub mod mc;
pub mod mux;
pub mod norros;
pub mod superposition;
pub mod transient;

pub use lindley::{
    first_passage_slot, queue_path, sup_workload, validate_arrivals, LindleyQueue, QueueStats,
};
pub use mc::{estimate_overflow, estimate_overflow_seeded, tail_curve_from_path, McEstimate};
pub use mux::Mux;
pub use norros::{norros_buffer_for_loss, norros_overflow, FbmTraffic};
pub use superposition::{multiplexing_gain, required_capacity, superpose, CapacityEstimate};
use svbr_domain::SvbrError;
pub use transient::{transient_curve, InitialCondition};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        constraint: &'static str,
    },
    /// The arrival path was shorter than the requested horizon.
    PathTooShort {
        /// Slots required.
        needed: usize,
        /// Slots supplied.
        got: usize,
    },
    /// An arrival value was NaN or infinite. Feeding such a value into the
    /// Lindley recursion would poison the workload for the rest of the run
    /// (`max(NaN, _)` propagates), so it is rejected up front.
    NonFiniteArrival {
        /// Slot index of the offending arrival.
        slot: usize,
    },
}

impl From<QueueError> for SvbrError {
    fn from(e: QueueError) -> Self {
        match e {
            QueueError::InvalidParameter { name, constraint } => {
                SvbrError::OutOfRange { name, constraint }
            }
            QueueError::PathTooShort { .. } => SvbrError::OutOfRange {
                name: "arrivals",
                constraint: "path at least as long as the horizon",
            },
            QueueError::NonFiniteArrival { .. } => SvbrError::NotFinite { name: "arrival" },
        }
    }
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: must satisfy {constraint}")
            }
            QueueError::PathTooShort { needed, got } => {
                write!(f, "arrival path too short: need {needed} slots, got {got}")
            }
            QueueError::NonFiniteArrival { slot } => {
                write!(f, "non-finite arrival at slot {slot}")
            }
        }
    }
}

impl std::error::Error for QueueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = QueueError::InvalidParameter {
            name: "service",
            constraint: "service > 0",
        };
        assert!(e.to_string().contains("service"));
        let e = QueueError::PathTooShort { needed: 5, got: 2 };
        assert!(e.to_string().contains('5'));
    }
}
