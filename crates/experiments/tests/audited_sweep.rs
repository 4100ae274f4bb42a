//! The Figure 4/5 quick sweep must hold the simulator's conservation
//! invariants: every packet ends in exactly one terminal state, the
//! link ledgers balance, and no done flow keeps its timers ticking.
//!
//! Drives the in-process path (`fig45::run`: every cell serially on
//! this thread, then `assemble`) under an audited thread budget. Own
//! integration-test binary because it reads the process-global audit
//! report, which any other audited test in the same process would feed.

use slowcc_experiments::fig45;
use slowcc_experiments::scale::Scale;
use slowcc_netsim::audit::{take_global_report, AuditMode};
use slowcc_netsim::budget::{set_thread_budget, thread_budget, Budget};

#[test]
fn quick_fig45_sweep_holds_all_audit_invariants() {
    // Strict would also work, but Collect lets the assertion below show
    // the whole report instead of dying inside the first bad cell.
    let prev = thread_budget();
    set_thread_budget(Budget::none().with_audit(AuditMode::Collect));
    let _ = take_global_report();

    let _result = fig45::run(Scale::Quick);
    set_thread_budget(prev);

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
