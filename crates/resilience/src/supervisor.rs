//! Supervised execution: retry budgets, wall-clock deadlines, and
//! panic containment with mandatory reporting.
//!
//! Every unit of work runs under `catch_unwind`; a failure (panic or typed
//! error) is recorded to the obsv sinks and the process-wide event log,
//! then retried up to the policy's budget. The work closure receives the
//! attempt index and must be restartable — the supervised runner passes
//! closures that clone the committed state on entry, so a half-mutated
//! attempt is simply discarded.

use crate::record_event;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use svbr_obsv::Stopwatch;

/// What a single failed attempt looked like.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// The work panicked; carries the panic message.
    Panic(String),
    /// The work returned a typed error; carries its rendering.
    Error(String),
    /// The wall-clock deadline expired.
    DeadlineExceeded,
}

impl FailureKind {
    /// A numeric code for metric points (text can't ride in a point).
    pub fn code(&self) -> f64 {
        match self {
            FailureKind::Panic(_) => 0.0,
            FailureKind::Error(_) => 1.0,
            FailureKind::DeadlineExceeded => 2.0,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panic(m) => write!(f, "panic: {m}"),
            FailureKind::Error(m) => write!(f, "error: {m}"),
            FailureKind::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// One failure observed under supervision (possibly later recovered).
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// The supervised site name.
    pub site: String,
    /// 0-based attempt index that failed.
    pub attempt: u32,
    /// What went wrong.
    pub failure: FailureKind,
}

impl std::fmt::Display for RecoveryRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failure: site `{}` attempt {}: {}",
            self.site, self.attempt, self.failure
        )
    }
}

/// A wall-clock budget, checked between attempts (and by cooperative
/// long-running work via [`Deadline::expired`]).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Stopwatch,
    budget: Duration,
}

impl Deadline {
    /// Start a deadline clock now with the given budget.
    pub fn new(budget: Duration) -> Self {
        Self {
            start: Stopwatch::start(),
            budget,
        }
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        u128::from(self.start.elapsed_us()) >= self.budget.as_micros()
    }

    /// Remaining budget (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget
            .saturating_sub(Duration::from_micros(self.start.elapsed_us()))
    }
}

/// How much failure a supervised site tolerates.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first failure (so `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Optional wall-clock deadline across all attempts of all sites
    /// supervised by the same [`Supervisor`].
    pub deadline: Option<Deadline>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            deadline: None,
        }
    }
}

/// Why a supervised site ultimately failed.
#[derive(Debug)]
pub enum SupervisorError {
    /// Every attempt failed; carries the last failure.
    RetriesExhausted {
        /// The supervised site.
        site: String,
        /// Attempts made.
        attempts: u32,
        /// The last failure observed.
        last: FailureKind,
    },
    /// The wall-clock deadline expired before an attempt could succeed.
    DeadlineExceeded {
        /// The supervised site.
        site: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::RetriesExhausted {
                site,
                attempts,
                last,
            } => write!(f, "site `{site}` failed after {attempts} attempts: {last}"),
            SupervisorError::DeadlineExceeded { site } => {
                write!(f, "site `{site}` hit the wall-clock deadline")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Wraps units of work in `catch_unwind` with retries and deadlines,
/// reporting every recovery.
#[derive(Debug, Default)]
pub struct Supervisor {
    policy: RetryPolicy,
    recoveries: Vec<RecoveryRecord>,
}

impl Supervisor {
    /// A supervisor with the given policy.
    pub fn new(policy: RetryPolicy) -> Self {
        Self {
            policy,
            recoveries: Vec::new(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Every failure-then-retry observed so far (across all sites).
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// Run `work` under supervision. `work` is invoked with the attempt
    /// index (0-based) and must be restartable; panics are caught and
    /// count as failures. Returns the first successful result, or a
    /// [`SupervisorError`] once the retry budget or deadline is exhausted.
    pub fn run<T, E: std::fmt::Display>(
        &mut self,
        site: &str,
        mut work: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, SupervisorError> {
        let attempts = self.policy.max_retries + 1;
        for attempt in 0..attempts {
            if self.policy.deadline.is_some_and(|d| d.expired()) {
                let record = RecoveryRecord {
                    site: site.to_string(),
                    attempt,
                    failure: FailureKind::DeadlineExceeded,
                };
                self.report(&record);
                return Err(SupervisorError::DeadlineExceeded {
                    site: site.to_string(),
                });
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "no caught panic is silent: Supervisor::report records each on the resilience.failures counter and the resilience.failure point"
            )]
            let outcome = catch_unwind(AssertUnwindSafe(|| work(attempt)));
            svbr_obsv::counter("resilience.supervised_attempts").add(1);
            let failure = match outcome {
                Ok(Ok(value)) => {
                    if attempt > 0 {
                        svbr_obsv::counter("resilience.recoveries").add(1);
                        record_event(format!(
                            "recovered: site `{site}` succeeded on attempt {attempt}"
                        ));
                    }
                    return Ok(value);
                }
                Ok(Err(e)) => FailureKind::Error(e.to_string()),
                Err(payload) => FailureKind::Panic(panic_message(payload.as_ref())),
            };
            let record = RecoveryRecord {
                site: site.to_string(),
                attempt,
                failure,
            };
            self.report(&record);
            if attempt + 1 == attempts {
                let RecoveryRecord { failure, .. } = record;
                return Err(SupervisorError::RetriesExhausted {
                    site: site.to_string(),
                    attempts,
                    last: failure,
                });
            }
            self.recoveries.push(record);
        }
        // The loop always returns; attempts >= 1.
        Err(SupervisorError::DeadlineExceeded {
            site: site.to_string(),
        })
    }

    fn report(&self, record: &RecoveryRecord) {
        svbr_obsv::counter("resilience.failures").add(1);
        svbr_obsv::point(
            "resilience.failure",
            &[
                ("attempt", record.attempt as f64),
                ("kind", record.failure.code()),
            ],
        );
        record_event(record.to_string());
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drain_events;

    #[test]
    fn first_attempt_success_records_nothing() {
        let mut sup = Supervisor::new(RetryPolicy::default());
        let out = sup.run("ok-site", |_| Ok::<_, String>(41));
        assert_eq!(out.ok(), Some(41));
        assert!(sup.recoveries().is_empty());
    }

    #[test]
    fn panic_is_caught_and_retried() {
        drain_events();
        let mut sup = Supervisor::new(RetryPolicy {
            max_retries: 2,
            deadline: None,
        });
        let out = sup.run("panicky", |attempt| {
            if attempt == 0 {
                panic!("injected panic");
            }
            Ok::<_, String>(attempt)
        });
        assert_eq!(out.ok(), Some(1));
        assert_eq!(sup.recoveries().len(), 1);
        assert!(matches!(
            sup.recoveries()[0].failure,
            FailureKind::Panic(ref m) if m.contains("injected")
        ));
        let events = drain_events();
        assert!(
            events.iter().any(|e| e.contains("recovered")),
            "recovery must be logged: {events:?}"
        );
    }

    #[test]
    fn typed_errors_exhaust_the_budget() {
        let mut sup = Supervisor::new(RetryPolicy {
            max_retries: 1,
            deadline: None,
        });
        let mut calls = 0u32;
        let out: Result<(), _> = sup.run("always-fails", |_| {
            calls += 1;
            Err::<(), _>("typed failure")
        });
        assert_eq!(calls, 2, "one retry after the first failure");
        match out {
            Err(SupervisorError::RetriesExhausted { attempts, last, .. }) => {
                assert_eq!(attempts, 2);
                assert!(matches!(last, FailureKind::Error(ref m) if m.contains("typed")));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_before_work_runs() {
        let mut sup = Supervisor::new(RetryPolicy {
            max_retries: 5,
            deadline: Some(Deadline::new(Duration::ZERO)),
        });
        let mut calls = 0u32;
        let out = sup.run("deadline-site", |_| {
            calls += 1;
            Ok::<_, String>(())
        });
        assert_eq!(calls, 0, "expired deadline must preempt the attempt");
        assert!(matches!(out, Err(SupervisorError::DeadlineExceeded { .. })));
    }

    #[test]
    fn deadline_remaining_counts_down() {
        let d = Deadline::new(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3500));
        let z = Deadline::new(Duration::ZERO);
        assert!(z.expired());
        assert_eq!(z.remaining(), Duration::ZERO);
    }
}
