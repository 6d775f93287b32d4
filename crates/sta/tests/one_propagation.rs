//! One `Sta` answers its report, PBA and worst-path queries from a single
//! timing state: one propagation and one check per endpoint. Span counts
//! and counters live in tc-obs's process-global registry, so this is the
//! only test in its process.

use tc_interconnect::BeolStack;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};
use tc_sta::{pba_worst_endpoints, worst_paths, Constraints, Sta};

#[test]
fn report_pba_and_worst_paths_share_one_propagation() {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let nl = generate(&lib, BenchProfile::tiny(), 11).unwrap();
    let stack = BeolStack::n20();
    let mut cons = Constraints::single_clock(900.0);
    let waived = nl.flops(&lib).next().unwrap();
    cons.exceptions.false_path_to(waived);
    let sta = Sta::new(&nl, &lib, &stack, &cons);

    tc_obs::enable();
    tc_obs::reset();
    sta.run().unwrap();
    let pba = pba_worst_endpoints(&sta, 10).unwrap();
    let paths = worst_paths(&sta, 10).unwrap();
    let snap = tc_obs::snapshot();
    tc_obs::disable();

    let count = |span: &str| snap.span(span).map_or(0, |s| s.count);
    assert_eq!(count("sta.gba"), 1, "one propagation for all three");
    // One check per endpoint of the graph (every flop, every output),
    // and one row per checked endpoint: the false-pathed flop has none.
    let endpoints = nl.flops(&lib).count() + nl.primary_outputs().count();
    assert_eq!(snap.counter("sta.endpoint_checks"), endpoints as u64);
    assert_eq!(sta.propagate().unwrap().rows().len(), endpoints - 1);
    // Each overlay is attributed to its own span and counters.
    assert_eq!(count("sta.pba"), 1);
    assert_eq!(count("sta.worst_paths"), 1);
    assert_eq!(snap.counter("sta.pba.paths"), pba.len() as u64);
    assert_eq!(snap.counter("sta.paths.extracted"), paths.len() as u64);
}
