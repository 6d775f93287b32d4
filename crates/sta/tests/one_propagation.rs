//! One `Sta` answers its report, PBA and worst-path queries from a single
//! timing state: one propagation and one check per endpoint, with the
//! exact work counts of the §1.3 GBA-vs-PBA study (`tbl_gba_pba`), ETM
//! extraction adds one backward pass and no second propagation, a
//! full propagation's allocator calls do not grow with the design, and a
//! warmed parametric trial on a `Timer` makes none at all, on a small
//! cone and on one that crosses many wide levels. Span counts,
//! counters and the allocator's totals live in tc-obs's process-global
//! state, so this is the only test in its process.

use tc_core::ids::NetId;
use tc_interconnect::BeolStack;
use tc_liberty::{AocvTable, DerateModel, LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};
use tc_netlist::Netlist;
use tc_sta::{pba_worst_endpoints, worst_paths, Constraints, Etm, Sta, Timer};

/// Allocator calls of one full `Sta::run` (graph build included) on a
/// generated design.
fn allocs_of_full_run(lib: &Library, profile: BenchProfile) -> u64 {
    let nl = generate(lib, profile, 11).unwrap();
    let stack = BeolStack::n20();
    let cons = Constraints::single_clock(900.0);
    let sta = Sta::new(&nl, lib, &stack, &cons);
    let before = tc_obs::memory_stats().allocs;
    std::hint::black_box(sta.run().unwrap());
    tc_obs::memory_stats().allocs - before
}

/// Allocator calls of one trial on `timer`: `net` set to `um` µm, the
/// re-time, the undo.
fn trial_allocs(timer: &mut Timer<'_>, nl: &mut Netlist, net: NetId, um: f64) -> u64 {
    let before = tc_obs::memory_stats().allocs;
    let mut trial = timer.trial(nl).unwrap();
    trial.netlist().set_wire_length(net, um);
    trial.update().unwrap();
    drop(trial);
    tc_obs::memory_stats().allocs - before
}

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

    // The work of the GBA-vs-PBA study (`tbl_gba_pba`), exactly: c5315
    // (seed 2015) clocked 50 ps past its underated WNS under AOCV, one
    // propagation and one PBA overlay over the 50 worst endpoints.
    let nl = generate(&lib, BenchProfile::c5315(), 2015).unwrap();
    let probe = Constraints::single_clock(5_000.0).with_derate(DerateModel::None);
    let wns = Sta::new(&nl, &lib, &stack, &probe).run().unwrap().wns();
    let cons = Constraints::single_clock(5_000.0 - wns.value() + 50.0)
        .with_derate(DerateModel::Aocv(AocvTable::from_stage_sigma(0.06)));
    let sta = Sta::new(&nl, &lib, &stack, &cons);
    tc_obs::enable();
    tc_obs::reset();
    sta.run().unwrap();
    pba_worst_endpoints(&sta, 50).unwrap();
    let snap = tc_obs::snapshot();
    tc_obs::disable();
    let count = |span: &str| snap.span(span).map_or(0, |s| s.count);
    assert_eq!((count("sta.gba"), count("sta.pba")), (1, 1));
    let counters = [
        "sta.arcs_evaluated",
        "sta.nets_propagated",
        "sta.endpoint_checks",
        "sta.pba.paths",
        "sta.pba.stages",
    ];
    assert_eq!(
        counters.map(|c| snap.counter(c)),
        [4579, 2480, 303, 50, 1322],
        "{counters:?}"
    );

    // ETM extraction reads the block's one propagation and one backward
    // pass: no second propagation, no path extraction, and the arcs of
    // one GBA (the backward pass counts none).
    let cons = Constraints::single_clock(3_000.0);
    let sta = Sta::new(&nl, &lib, &stack, &cons);
    tc_obs::enable();
    tc_obs::reset();
    Etm::extract(&sta, "c5315").unwrap();
    let snap = tc_obs::snapshot();
    tc_obs::disable();
    let count = |span: &str| snap.span(span).map_or(0, |s| s.count);
    let spans = ["sta.gba", "sta.required", "sta.worst_paths"];
    assert_eq!(spans.map(count), [1, 1, 0], "{spans:?}");
    assert_eq!(snap.counter("sta.arcs_evaluated"), 4579);

    // The allocation canary: the full run's allocator calls are a few
    // buffers per propagation (plus their doubling growth), not a few
    // per cell or per arc: c5315 has ~19× tiny's gates.
    tc_obs::enable_memory();
    let small = allocs_of_full_run(&lib, BenchProfile::tiny());
    let large = allocs_of_full_run(&lib, BenchProfile::c5315());
    assert!(
        large <= small + 64,
        "full STA allocations scale with the design: {small} on tiny, {large} on c5315"
    );

    // A warmed parametric trial (one wire-length edit, its re-time, the
    // undo) reuses the timer's buffers, and with tc-obs off the metric
    // handles it fetches cost no allocation either.
    let mut nl = generate(&lib, BenchProfile::tiny(), 11).unwrap();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
    let net = NetId::new(nl.net_count() / 2);
    trial_allocs(&mut timer, &mut nl, net, 300.0);
    assert_eq!(
        trial_allocs(&mut timer, &mut nl, net, 300.0),
        0,
        "allocator calls of a warmed parametric trial"
    );

    // The same on a cone whose levels span several sweep chunks: a long
    // wire on input `pi1` of c5315 re-times about 1,600 cells, the
    // widest cone of any of its primary inputs.
    let mut nl = generate(&lib, BenchProfile::c5315(), 11).unwrap();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
    let pi = nl
        .primary_inputs()
        .iter()
        .copied()
        .find(|&n| nl.net(n).name == "pi1")
        .unwrap();
    tc_obs::enable();
    tc_obs::reset();
    trial_allocs(&mut timer, &mut nl, pi, 2_000.0);
    let snap = tc_obs::snapshot();
    tc_obs::disable();
    let cone = snap
        .histograms
        .iter()
        .find(|h| h.name == "sta.dirty_cone_size")
        .map_or(0.0, |h| h.max);
    assert!(cone >= 1_000.0, "the edit re-times {cone} cells");
    assert_eq!(
        trial_allocs(&mut timer, &mut nl, pi, 2_000.0),
        0,
        "allocator calls of a warmed trial whose cone spans wide levels"
    );
    tc_obs::disable_memory();
}
