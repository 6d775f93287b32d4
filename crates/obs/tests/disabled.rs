//! The disabled layer records nothing. `disable()` flips the
//! process-global enable flag, so this test gets its own binary
//! (process) rather than turning recording off under the in-crate unit
//! tests' feet — which is what made
//! `concurrent_recording_is_consistent` lose increments.

#[test]
fn disabled_spans_and_counters_record_nothing() {
    tc_obs::disable();
    {
        let guard = tc_obs::span("t_disabled.span");
        assert!(guard.path().is_none());
        tc_obs::counter("t_disabled.count").incr();
        tc_obs::histogram("t_disabled.hist").record(1.0);
    }
    let snap = tc_obs::snapshot();
    assert!(snap.span("t_disabled.span").is_none());
    assert_eq!(snap.counter("t_disabled.count"), 0);
}
