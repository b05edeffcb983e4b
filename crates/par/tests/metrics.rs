//! `par.replications` is a process-global counter, so this check lives in
//! a test binary of its own: no concurrent test can bump it between the
//! two snapshots.

use svbr_par::run_replications;

#[test]
fn emits_par_metrics_when_enabled() {
    svbr_obsv::install(std::sync::Arc::new(svbr_obsv::MemorySink::new()));
    let before = svbr_obsv::snapshot()
        .counter("par.replications")
        .unwrap_or(0);
    let _ = run_replications(3, 10, 2, |i, _| i);
    let after = svbr_obsv::snapshot()
        .counter("par.replications")
        .unwrap_or(0);
    assert_eq!(after - before, 10);
    svbr_obsv::uninstall();
}
