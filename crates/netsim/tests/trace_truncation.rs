//! A full `VecTrace` keeps counting: events past its cap are dropped
//! from storage but show in [`VecTrace::truncated`], never fatal.

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
fn cap_overflow_is_counted_not_fatal() {
    let mut t = VecTrace::new(1);
    t.record(&event(0));
    t.record(&event(1));
    assert_eq!(t.truncated(), 1);
    assert_eq!(t.events().len(), 1);
}
