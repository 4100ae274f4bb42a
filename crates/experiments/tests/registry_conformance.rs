//! Registry-wide conformance: every registered experiment (hidden
//! fixtures excluded) must complete its Quick sweep cleanly under the
//! audit, and infrastructure must be invisible in the results — the
//! per-cell outputs of a multi-threaded pool run must be byte-identical
//! to a plain serial loop over the same cells. This replaces the old
//! per-target copies of these checks,
//! which covered Figure 4/5 only; a new experiment gets the same
//! coverage just by being registered.
//!
//! Everything lives in one `#[test]` in its own integration-test
//! binary: it pins the process-global worker-pool width and audit
//! default, and splitting it into parallel tests
//! (or sharing a binary with others) would race on those globals.

use slowcc_experiments::scale::Scale;
use slowcc_experiments::{registry, runner};
use slowcc_netsim::audit::{set_default_audit, take_global_report, AuditMode};

#[test]
fn every_experiment_is_schedule_invariant_and_audit_clean_at_quick() {
    // Restore the defaults on every exit path so nothing leaks out of
    // this process even if an assertion below panics first.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_default_audit(None);
        }
    }
    let _restore = Restore;

    // Force a multi-threaded pool even on single-core machines (this is
    // the process's first pool use, so the first-init-wins contract
    // makes 8 stick).
    runner::set_jobs(8);
    // Collect rather than Strict: a violation fails `assert_clean`
    // below with the whole report instead of dying inside the first
    // bad cell. (Chaos cells additionally self-audit under Strict.)
    set_default_audit(Some(AuditMode::Collect));
    let _ = take_global_report();

    for exp in registry::visible() {
        // Serial reference: every cell run one at a time on this
        // thread.
        let n = exp.cell_meta(Scale::Quick).len();
        assert!(n > 0, "{}: no cells at Quick", exp.name());
        let serial: Vec<String> = (0..n)
            .map(|i| exp.run_cell_dyn(Scale::Quick, i).1)
            .collect();

        // The same cells fanned out over the worker pool: --jobs N must
        // reproduce --jobs 1 byte-for-byte.
        let pooled = exp.cell_jsons(Scale::Quick);
        assert_eq!(
            pooled,
            serial,
            "{}: pooled sweep must be byte-identical to the serial loop",
            exp.name()
        );
    }

    let report = take_global_report().expect("sweep must have audited sims");
    assert!(report.sims > 0, "no simulation was audited");
    assert!(report.packets_injected > 0, "sweep injected no packets");
    report.assert_clean();
    assert_eq!(
        report.packets_injected,
        report.packets_delivered + report.packets_dropped + report.packets_in_flight,
        "packet conservation must hold across the whole sweep"
    );
}
