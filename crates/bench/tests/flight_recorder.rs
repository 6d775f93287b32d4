//! End-to-end flight-recorder check over a real engine run: an MCMM
//! corner sweep on a pinned 2-worker pool must leave a valid,
//! B/E-balanced Chrome trace with events from at least two threads.
//! (Worker count is pinned here — CI runs the test suite with
//! `TC_PAR_THREADS=1`, which must not flatten this trace.)

use tc_interconnect::beol::BeolCorner;
use tc_interconnect::BeolStack;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_par::Pool;
use tc_signoff::corners::run_corner_set_on;
use tc_sta::mcmm::Scenario;
use tc_sta::Constraints;

#[test]
fn corner_sweep_on_two_workers_records_a_two_thread_trace() {
    tc_obs::enable();
    tc_obs::clear_trace();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);

    let cfg = LibConfig::default();
    let lib = Library::generate(&cfg, &PvtCorner::typical());
    let nl = tc_bench::bench_netlist(&lib, "tiny", 7);
    let stack = BeolStack::n20();
    let scenarios: Vec<Scenario> = [
        ("typ", PvtCorner::typical(), BeolCorner::Typical),
        ("slow", PvtCorner::slow_cold(), BeolCorner::RcWorst),
        ("fast", PvtCorner::fast_cold(), BeolCorner::CBest),
        ("hot", PvtCorner::slow_hot(), BeolCorner::CWorst),
    ]
    .into_iter()
    .map(|(name, pvt, beol)| Scenario {
        name: name.to_string(),
        lib: Library::generate(&cfg, &pvt),
        beol,
        constraints: Constraints::single_clock(4_000.0),
    })
    .collect();

    run_corner_set_on(Pool::new(2), &nl, &stack, &scenarios).expect("corner sweep");

    let snap = tc_obs::trace_snapshot();
    tc_obs::disable_trace();
    assert_eq!(snap.dropped, 0);
    assert!(
        snap.thread_ids().len() >= 2,
        "a 2-worker sweep of 4 corners must emit from >=2 threads, got {:?}",
        snap.thread_ids()
    );
    assert!(
        snap.events
            .iter()
            .filter(|e| &*e.name == "par.task")
            .count()
            >= 4,
        "every claimed corner emits a par.task scope"
    );

    // The exported trace reads back through the workspace's one
    // Chrome-trace reader — which rejects malformed events and
    // per-thread timestamp regressions — balanced and two lanes wide.
    let profile = tc_prof::Profile::from_chrome_trace(&snap.to_chrome_trace())
        .expect("exported trace is well-formed");
    assert_eq!(
        (profile.unmatched_ends, profile.open_spans),
        (0, 0),
        "unbalanced B/E"
    );
    assert!(profile.lanes.len() >= 2, "exported trace spans >=2 tids");
}
