//! End-to-end resilience guarantees:
//!
//! 1. A run interrupted after any committed chunk and resumed from its
//!    checkpoint produces final CSVs byte-identical to an uninterrupted
//!    run (the in-process version of the CI kill-and-resume job), on the
//!    exact tier and after degrading to truncated AR.
//! 2. Every injected fault kind ends in a successful supervised retry or
//!    a recorded degraded-mode result — never a silent wrong answer or an
//!    unhandled abort.
//!
//! Both tests touch process-global state (the `SVBR_RESULTS_DIR` env var,
//! the fault-injection arm slot, the resilience event log), so they
//! serialize on one mutex.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use svbr_bench::resilience_run::{resilience_run, ResilienceConfig};
use svbr_resilience::checkpoint::Checkpoint;
use svbr_resilience::degrade::GeneratorTier;
use svbr_resilience::fault;
use svbr_resilience::{drain_events, FaultPlan};

static GLOBAL: Mutex<()> = Mutex::new(());

fn base_cfg(seed: u64) -> ResilienceConfig {
    ResilienceConfig {
        seed,
        chunks: 4,
        chunk_len: 64,
        ckpt_every: 1,
        checkpoint: None,
        resume: None,
        deadline_ms: None,
        stop_after: None,
    }
}

fn run_into(dir: &Path, cfg: &ResilienceConfig) -> Result<String, Box<dyn Error>> {
    std::fs::create_dir_all(dir)?;
    std::env::set_var("SVBR_RESULTS_DIR", dir);
    let mut out = Vec::new();
    let result = resilience_run(cfg, &mut out);
    std::env::remove_var("SVBR_RESULTS_DIR");
    result?;
    Ok(String::from_utf8_lossy(&out).into_owned())
}

fn fresh_dir(name: &str) -> Result<PathBuf, Box<dyn Error>> {
    let dir = std::env::temp_dir().join("svbr-resilience-e2e").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[test]
fn interrupted_and_resumed_run_is_byte_identical() -> Result<(), Box<dyn Error>> {
    let _guard = GLOBAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let seed = 0xfeed_f00d;

    // Once on the exact tier, and once with injected deadline pressure
    // before chunk 1, so the crash lands on the truncated-AR tier and the
    // resume continues there (the checkpointed tier, not the fault plan,
    // decides the resumed tier).
    for (name, plan) in [("exact", None), ("trunc-ar", Some("deadline@chunk:2"))] {
        let arm = || -> Result<(), Box<dyn Error>> {
            match plan {
                Some(p) => fault::arm(FaultPlan::parse(p)?),
                None => fault::disarm(),
            }
            Ok(())
        };

        // Reference: one uninterrupted run.
        let ref_dir = fresh_dir(&format!("{name}-ref"))?;
        arm()?;
        run_into(&ref_dir, &base_cfg(seed))?;

        // Interrupted: stop right after the chunk-2 checkpoint (simulated
        // crash; no CSVs exist yet), then resume from the checkpoint.
        let int_dir = fresh_dir(&format!("{name}-int"))?;
        let ckpt = int_dir.join("ck.txt");
        let mut crashed = base_cfg(seed);
        crashed.checkpoint = Some(ckpt.clone());
        crashed.stop_after = Some(2);
        arm()?;
        let log = run_into(&int_dir, &crashed)?;
        fault::disarm();
        assert!(log.contains("simulated crash"), "should have stopped early");
        assert!(ckpt.exists(), "checkpoint must exist after the crash");
        assert!(
            !int_dir.join("resilience.csv").exists(),
            "no CSV may be written before the run completes"
        );
        if plan.is_some() {
            // The checkpoint holds the cursor and the first chunk on each
            // tier, not the background itself: resume replays it.
            let ck = Checkpoint::load(&ckpt)?;
            assert_eq!(
                ck.require_words("tier")?,
                &[GeneratorTier::TruncatedAr.index()]
            );
            assert_eq!(ck.require_words("tier_starts")?, &[0, 1, u64::MAX]);
            assert!(ck.vector("history").is_none() && ck.vector("phi").is_none());
        }

        let mut resumed = base_cfg(seed);
        resumed.checkpoint = Some(ckpt.clone());
        resumed.resume = Some(ckpt);
        let log = run_into(&int_dir, &resumed)?;
        assert!(log.contains("resumed from"), "resume path must be taken");

        for file in ["resilience.csv", "resilience_chunks.csv"] {
            let a = std::fs::read(ref_dir.join(file))?;
            let b = std::fs::read(int_dir.join(file))?;
            assert_eq!(
                a, b,
                "{name}: {file} differs between uninterrupted and resumed runs"
            );
        }

        // Resuming from a missing checkpoint must start fresh, not fail —
        // a kill can land before the first checkpoint is ever written.
        let fresh = fresh_dir(&format!("{name}-fresh"))?;
        let mut cfg = base_cfg(seed);
        cfg.resume = Some(fresh.join("never-written.txt"));
        arm()?;
        let log = run_into(&fresh, &cfg)?;
        fault::disarm();
        assert!(log.contains("starting fresh"));
        let a = std::fs::read(ref_dir.join("resilience.csv"))?;
        let b = std::fs::read(fresh.join("resilience.csv"))?;
        assert_eq!(a, b, "{name}: a fresh start differs from the reference");
    }
    drain_events();
    Ok(())
}

#[test]
fn every_injected_fault_is_recovered_or_recorded() -> Result<(), Box<dyn Error>> {
    let _guard = GLOBAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = fresh_dir("faults")?;
    // (plan, marker an event line must carry after the run)
    let cases = [
        ("panic@chunk:2", "recovered"),
        ("nan@arrivals:2", "recovered"),
        ("nonpd@acf:1", "regularized"),
        ("ess@is:1", "degraded"),
        ("deadline@chunk:1", "degraded"),
    ];
    for (plan, marker) in cases {
        drain_events();
        fault::arm(FaultPlan::parse(plan).map_err(|e| -> Box<dyn Error> { e.into() })?);
        let result = run_into(&dir, &base_cfg(0xdead_beef));
        fault::disarm();
        let events = drain_events();
        assert!(
            result.is_ok(),
            "plan `{plan}` must end in recovery, got {:?}",
            result.err()
        );
        assert!(
            events.iter().any(|e| e.contains("fault-injected")),
            "plan `{plan}`: injection must be logged: {events:?}"
        );
        assert!(
            events.iter().any(|e| e.contains(marker)),
            "plan `{plan}`: expected a `{marker}` event, got {events:?}"
        );
    }
    Ok(())
}
