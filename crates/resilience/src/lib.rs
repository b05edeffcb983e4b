//! # svbr-resilience — supervised, checkpointable, fault-tolerant runs
//!
//! The paper's headline experiments are exactly the jobs where a mid-run
//! crash, a NaN frame size, or a non-positive-definite ACF lag throws away
//! hours of Hosking O(n²) work. This crate makes long runs survivable:
//!
//! * [`checkpoint`] — an atomic, text-based [`checkpoint::Checkpoint`]
//!   format carrying RNG state, Hosking φ/v recursion state, Lindley queue
//!   backlog and partial estimator moments, bit-exactly (f64s are stored
//!   as raw IEEE-754 bits), so `repro --resume <ckpt>` continues a killed
//!   run to byte-identical final output.
//! * [`supervisor`] — [`supervisor::Supervisor`] wraps each unit of work
//!   in `catch_unwind` with a retry budget and an optional wall-clock
//!   deadline, reporting every failure through the `svbr-obsv` sinks and
//!   the process-wide [`drain_events`] log (which the `repro` binary folds
//!   into the run manifest).
//! * [`degrade`] — the graceful-degradation ladder for the generator hot
//!   path: Hosking exact → truncated AR(M) → Davies–Harte, triggered by
//!   deadline pressure or non-PD violations, with the chosen tier and its
//!   measured ACF error stamped into the manifest (cf. Paxson's argument
//!   for approximate fGn synthesis with a recorded accuracy caveat).
//! * [`fault`] — a deterministic fault-injection harness
//!   ([`fault::FaultPlan`]): panics, NaN samples, non-PD ACFs, ESS
//!   collapse and deadline exhaustion are injected at exact (site,
//!   occurrence) points so every recovery path is exercised in tests.
//! * [`rng`] — [`rng::CkptRng`] / [`rng::CkptNormal`]: the xoshiro256++
//!   generator and Marsaglia polar sampler with *serializable* state,
//!   because resumability requires saving the spare Gaussian variate the
//!   polar method caches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod degrade;
pub mod fault;
pub mod rng;
pub mod supervisor;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use degrade::{DegradeEvent, GeneratorTier, Ladder, LadderExhausted};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use rng::{CkptNormal, CkptRng};
pub use supervisor::{Deadline, FailureKind, RecoveryRecord, RetryPolicy, Supervisor};

use std::sync::Mutex;

/// Process-wide recovery/annotation log. The supervisor, ladder and fault
/// harness append one line per notable event; the run driver drains the
/// log into the `RunManifest` notes at shutdown so no recovery is silent.
static EVENTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Append a line to the process-wide resilience event log.
pub fn record_event(event: impl Into<String>) {
    let mut log = EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    log.push(event.into());
}

/// Drain (take and clear) the process-wide resilience event log.
pub fn drain_events() -> Vec<String> {
    let mut log = EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::mem::take(&mut *log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_drains_in_order() {
        drain_events();
        record_event("first");
        record_event(String::from("second"));
        let events = drain_events();
        assert_eq!(events, vec!["first".to_string(), "second".to_string()]);
        assert!(drain_events().is_empty());
    }
}
