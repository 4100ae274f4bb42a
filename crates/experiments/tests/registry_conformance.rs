//! Registry-wide conformance: every registered experiment (hidden
//! fixtures excluded) must complete its Quick sweep cleanly under the
//! audit, and infrastructure must be invisible in the results — the
//! per-cell outputs of an 8-worker sweep must be byte-identical to a
//! serial one over the same cells. This replaces the old per-target
//! copies of these checks, which covered Figure 4/5 only; a new
//! experiment gets the same coverage just by being registered.

use slowcc_experiments::scale::Scale;
use slowcc_experiments::{registry, runner};
use slowcc_netsim::audit::{AuditMode, AuditReport};
use slowcc_netsim::budget::Budget;

#[test]
fn every_experiment_is_schedule_invariant_and_audit_clean_at_quick() {
    // Collect, as `repro --audit` runs: a violating cell fails with its
    // first violation. (Chaos cells additionally self-audit under
    // Strict.) The reports the cells return merge into one.
    let audited = Budget::none().with_audit(AuditMode::Collect);
    let mut report = AuditReport::default();

    for exp in registry::visible() {
        let n = exp.cell_meta(Scale::Quick).len();
        assert!(n > 0, "{}: no cells at Quick", exp.name());
        // Every cell must succeed: a failing cell unwraps here rather
        // than comparing equal to the same failure in the other pass.
        let sweep = |jobs: usize| -> Vec<(String, Option<AuditReport>)> {
            runner::run_cells((0..n).collect(), jobs, |i| {
                runner::run_one_isolated(audited, || exp.run_cell_dyn(Scale::Quick, i).1)
                    .unwrap_or_else(|e| panic!("{} cell {i}: {}", exp.name(), e.message()))
            })
        };
        let serial = sweep(1);
        // --jobs 8 must reproduce --jobs 1 byte-for-byte, even on a
        // single-core machine, audit reports included.
        assert_eq!(
            sweep(8),
            serial,
            "{}: 8-worker sweep must be byte-identical to the serial one",
            exp.name()
        );
        for cell_report in serial.iter().filter_map(|(_, r)| r.as_ref()) {
            report.merge(cell_report);
        }
    }

    assert!(report.sims > 0, "no simulation was audited");
    assert!(report.packets_injected > 0, "sweep injected no packets");
    report.assert_clean();
    assert_eq!(
        report.packets_injected,
        report.packets_delivered + report.packets_dropped + report.packets_in_flight,
        "packet conservation must hold across the whole sweep"
    );
}
