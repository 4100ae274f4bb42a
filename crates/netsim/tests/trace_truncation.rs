//! A `VecTrace` that silently drops events is a lie under a strict
//! audit: the cap overflow must panic when the thread's budget carries
//! [`AuditMode::Strict`] (the per-cell context a supervisor installs),
//! and only then.

use slowcc_netsim::audit::AuditMode;
use slowcc_netsim::budget::{set_thread_budget, thread_budget, Budget};
use slowcc_netsim::ids::FlowId;
use slowcc_netsim::time::SimTime;
use slowcc_netsim::trace::{TraceEvent, TraceKind, TraceSink, VecTrace};

fn event(uid: u64) -> TraceEvent {
    TraceEvent {
        time: SimTime::from_millis(uid),
        kind: TraceKind::Send,
        flow: FlowId::from_index(0),
        seq: uid,
        uid,
        size: 1000,
        is_data: true,
    }
}

#[test]
fn cap_overflow_panics_under_strict_audit_only() {
    struct Restore(Budget);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_budget(self.0);
        }
    }
    let _restore = Restore(thread_budget());

    // Without strict audit: overflow is counted, not fatal.
    set_thread_budget(Budget::none());
    let mut t = VecTrace::new(1);
    t.record(&event(0));
    t.record(&event(1));
    assert_eq!(t.truncated(), 1);

    // Collect mode keeps running too — only strict is fatal.
    set_thread_budget(Budget::none().with_audit(AuditMode::Collect));
    let mut t = VecTrace::new(1);
    t.record(&event(0));
    t.record(&event(1));
    assert_eq!(t.truncated(), 1);

    set_thread_budget(Budget::none().with_audit(AuditMode::Strict));
    let mut t = VecTrace::new(1);
    t.record(&event(0));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        t.record(&event(1));
    }))
    .expect_err("overflow under strict audit must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("VecTrace cap 1 exceeded"), "got: {msg}");
}
