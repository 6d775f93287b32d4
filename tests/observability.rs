//! Integration coverage for the tc-obs layer as threaded through the
//! engines: a closure run must leave behind per-iteration spans, STA
//! counters, and — via the transistor-level flip-flop characterizer —
//! solver Newton counters. Runs in its own test binary so the global
//! registry reset cannot race other tests.

use std::sync::Mutex;

use tc_core::ids::CellId;
use tc_core::units::Ps;
use timing_closure::closure::flow::{ClosureConfig, ClosureFlow};
use timing_closure::device::VtClass;
use timing_closure::interconnect::beol::BeolStack;
use timing_closure::liberty::{CellKind, LibConfig, Library, PvtCorner};
use timing_closure::netlist::gen::{generate, BenchProfile};
use timing_closure::netlist::Netlist;
use timing_closure::sta::{Constraints, Sta, Timer, TimingGraph};

/// The tests flip the process-global enabled flag and reset the shared
/// registry, so they must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn closure_run_produces_spans_and_engine_counters() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, BenchProfile::tiny(), 33).unwrap();

    // Constrain 40 ps beyond capability so at least one iteration runs.
    let probe = Constraints::single_clock(5_000.0);
    let wns = Sta::new(&nl, &lib, &stack, &probe)
        .run()
        .unwrap()
        .wns()
        .value();
    let cons = Constraints::single_clock(5_000.0 - wns - 40.0);

    tc_obs::enable();
    tc_obs::reset();
    let cfg = ClosureConfig {
        max_iterations: 2,
        ..Default::default()
    };
    let mut flow = ClosureFlow::new(&lib, &stack, cfg);
    let out = flow.run(&mut nl, cons).unwrap();
    let snap = tc_obs::snapshot();
    tc_obs::disable();

    assert!(!out.iterations.is_empty(), "must iterate at least once");

    // Per-iteration spans under the run span.
    let run = snap.span("closure.run").expect("closure.run span");
    assert_eq!(run.count, 1);
    let iter = snap
        .span("closure.run/closure.iteration")
        .expect("per-iteration span");
    assert!(iter.count >= out.iterations.len() as u64);
    assert!(
        iter.total_ns <= run.total_ns,
        "children cannot exceed the parent"
    );
    // STA ran nested inside the loop: the persistent timer's initial
    // full propagation under the run span, then incremental dirty-cone
    // updates under each iteration's speculative fix checks.
    let sta_full = snap
        .span("closure.run/closure.sta/sta.gba")
        .expect("initial full propagation span");
    assert!(sta_full.count >= 1);
    let sta_incr = snap
        .span("closure.run/closure.iteration/closure.sta/sta.incremental")
        .expect("nested incremental update span");
    assert!(sta_incr.count >= 1, "fix checks re-time incrementally");
    let cone = snap
        .histograms
        .iter()
        .find(|h| h.name == "sta.dirty_cone_size")
        .expect("dirty-cone histogram");
    assert!(cone.count >= sta_incr.count);
    // At least one fix pass span exists.
    assert!(
        snap.spans
            .iter()
            .any(|s| s.name().starts_with("closure.fix.")),
        "no fix-pass spans in {:?}",
        snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );

    // Engine counters are live and non-zero.
    assert!(snap.counter("sta.arcs_evaluated") > 0);
    assert!(snap.counter("sta.nets_propagated") > 0);
    assert!(snap.counter("sta.arcs_recomputed") > 0, "updates did work");
    assert!(snap.counter("sta.arcs_reused") > 0, "cones stayed local");
    assert!(snap.counter("closure.edits") > 0, "fixes commit edits");
    // The loop borrows the timer's rows; no report outlives an edit.
    assert_eq!(snap.counter("sta.rows_copied"), 0);

    // IterationRecord carries elapsed time and counter deltas, and the
    // deltas sum to no more than the totals.
    let mut arcs_delta = 0;
    for it in &out.iterations {
        assert!(it.elapsed_ms > 0.0);
        let engine_work = it.counter_delta("sta.arcs_recomputed")
            + it.counter_delta("sta.arcs_evaluated")
            + it.counter_delta("sta.paths.stages");
        assert!(engine_work > 0, "iteration must do engine work");
        arcs_delta += it.counter_delta("sta.arcs_recomputed");
    }
    assert!(arcs_delta <= snap.counter("sta.arcs_recomputed"));

    // The exporters accept the real snapshot.
    let text = snap.render_text();
    assert!(text.contains("closure.run"));
    assert!(text.contains("sta.arcs_evaluated"));
    let json = snap.to_json();
    assert!(json.contains("\"closure.run\""));
}

#[test]
fn structural_rounds_record_their_level_moves() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
    // Buffer every sink of a gate that drives gates: each sink whose
    // level the gate set moves down one level.
    let comb = |c: CellId| lib.cell(nl.cell(c).master).kind == CellKind::Comb;
    let gate = (0..nl.cell_count())
        .map(CellId::new)
        .find(|&c| comb(c) && nl.net(nl.cell(c).output).sinks.iter().any(|s| comb(s.cell)))
        .unwrap();
    let out = nl.cell(gate).output;
    let sinks = nl.net(out).sinks.to_vec();
    let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();

    tc_obs::enable();
    tc_obs::reset();
    nl.set_wire_length(out, 120.0);
    timer.update(&nl).unwrap();
    nl.insert_buffer(&lib, out, &sinks, buf).unwrap();
    timer.update(&nl).unwrap();
    let snap = tc_obs::snapshot();
    tc_obs::disable();

    // One structural round of the two, inside the existing round span.
    assert_eq!(snap.span("sta.incremental").map(|s| s.count), Some(2));
    assert_eq!(snap.counter("sta.structural_rounds"), 1);
    let moves = snap
        .histograms
        .iter()
        .find(|h| h.name == "sta.level_moves")
        .expect("level-move histogram");
    assert_eq!(moves.count, 1, "recorded once per structural round");
    assert!(moves.mean() >= 1.0, "the buffer pushed its sinks down");
}

#[test]
fn only_a_report_held_across_an_edit_copies_the_rows() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
    // The D-pin net of the `i`th flop: a wire edit there moves its row.
    let d_net = |nl: &Netlist, i: usize| {
        let flop = nl.flops(&lib).nth(i).unwrap();
        nl.cell(flop).inputs[0]
    };

    tc_obs::enable();
    tc_obs::reset();
    let flops = nl.flops(&lib).count();
    for i in 0..100 {
        let net = d_net(&nl, i % flops);
        nl.set_wire_length(net, 50.0 + i as f64);
        timer.update(&nl).unwrap();
        let report = timer.report(&nl);
        std::hint::black_box(report.wns());
    }
    let dropped = tc_obs::snapshot().counter("sta.rows_copied");
    let held = timer.report(&nl);
    nl.set_wire_length(d_net(&nl, 0), 400.0);
    timer.update(&nl).unwrap();
    let snap = tc_obs::snapshot();
    tc_obs::disable();

    assert_eq!(dropped, 0, "a dropped report costs no copy");
    assert_eq!(snap.counter("sta.rows_copied"), 1, "a held one costs one");
    assert!(
        held.endpoints != timer.report(&nl).endpoints,
        "the edit moved a row"
    );
}

#[test]
fn transient_solver_records_newton_effort() {
    use timing_closure::device::Technology;
    use timing_closure::sim::ff_char::{c2q_at, FfBench};

    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tc_obs::enable();
    let before = tc_obs::snapshot();
    let bench = FfBench::paper_default();
    let tech = Technology::planar_28nm();
    c2q_at(&bench, &tech, Ps::new(60.0), Ps::new(200.0)).unwrap();
    let after = tc_obs::snapshot();
    tc_obs::disable();

    let deltas = after.counter_deltas(&before);
    let delta = |name: &str| {
        deltas
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let steps = delta("sim.newton.steps");
    let iters = delta("sim.newton.iters");
    assert!(steps > 0, "transient must record steps");
    assert!(iters >= steps, "every step takes at least one iteration");

    let hist = after
        .histograms
        .iter()
        .find(|h| h.name == "sim.newton.iters_per_step")
        .expect("iters-per-step histogram");
    // The solver tallies per call and flushes once; the histogram must
    // still hold one sample per accepted step, valued at its iteration
    // count. OBS_LOCK keeps other tests' samples out of the window.
    let hist_before = before
        .histograms
        .iter()
        .find(|h| h.name == "sim.newton.iters_per_step")
        .map_or((0, 0.0), |h| (h.count, h.sum));
    assert_eq!(hist.count - hist_before.0, steps);
    assert_eq!(hist.sum - hist_before.1, iters as f64);
    let span = after.span("sim.transient").expect("sim.transient span");
    assert!(span.count >= 1);
}

/// Exact step work of three characterization jobs: a 3×3 inverter rise
/// table, one direction of the Fig 4 MIS study and the flop's
/// (setup, hold, c2q) triple, each as (solved steps, Newton iterations,
/// quiet steps). Every arc transient stops once its measurement is
/// decided, and no transient solves a step whose inputs repeat the last
/// solved one's; a run that solves its whole window or settle again
/// moves these counts, as a second propagation moves the arc counts in
/// `crates/sta/tests/one_propagation.rs`. Before quiet steps were
/// skipped, with the settle ending at its fixed point, the table and the
/// MIS direction took 5,852 steps / 9,446 iterations and 10,568 steps /
/// 16,003 iterations, and the flop 51,770 / 63,193; over the full window
/// and settle the table and the MIS direction took 21,600 / 27,890 and
/// 32,400 / 54,486.
#[test]
fn characterization_stops_each_transient_once_decided() {
    use timing_closure::core::units::{Ps, Volt};
    use timing_closure::device::Technology;
    use timing_closure::sim::char_cell::{characterize, CellKind as SimCell, CharConditions};
    use timing_closure::sim::ff_char::{c2q_at, characterize_ff, FfBench};
    use timing_closure::sim::measure::Edge;
    use timing_closure::sim::mis::{run_mis_study, InputDir, MisStudy};

    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tc_obs::enable();
    let work = |job: &dyn Fn()| {
        let before = tc_obs::snapshot();
        job();
        let after = tc_obs::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        (
            delta("sim.newton.steps"),
            delta("sim.newton.iters"),
            delta("sim.quiet_steps"),
        )
    };
    let tech = Technology::planar_28nm();
    let table = work(&|| {
        let cond = CharConditions::nominal_28nm();
        let (slews, loads) = ([10.0, 30.0, 60.0], [1.0, 3.0, 8.0]);
        characterize(SimCell::Inv, &cond, &slews, &loads, Edge::Rise).unwrap();
    });
    let mis = work(&|| {
        let study = MisStudy::paper_default(Volt::new(0.9));
        run_mis_study(&tech, &study, InputDir::Falling).unwrap();
    });
    let ff = FfBench::paper_default();
    let flop = work(&|| {
        characterize_ff(&ff, &tech, 1.10).unwrap();
    });
    // One full-window transient: c2q_at's 400 ps settle at 2 ps and its
    // 800 ps window at 0.5 ps are 200 + 1,600 steps, solved or quiet.
    let c2q = work(&|| {
        c2q_at(&ff, &tech, Ps::new(150.0), Ps::new(300.0)).unwrap();
    });
    tc_obs::disable();
    assert_eq!(
        table,
        (2_981, 6_575, 5_016),
        "3x3 INV rise table: (steps, iters, quiet)"
    );
    assert_eq!(
        mis,
        (4_106, 9_541, 12_168),
        "MIS study, falling inputs: (steps, iters, quiet)"
    );
    assert_eq!(
        flop,
        (11_740, 23_163, 44_060),
        "characterize_ff: (steps, iters, quiet)"
    );
    assert_eq!(c2q.0 + c2q.2, 200 + 1_600, "c2q_at: solved + quiet steps");
}

#[test]
fn disabled_instrumentation_records_nothing() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tc_obs::disable();
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
    let cons = Constraints::single_clock(900.0);
    let before = tc_obs::snapshot();
    Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
    let after = tc_obs::snapshot();
    assert!(
        after.counter_deltas(&before).is_empty(),
        "disabled counters must not move"
    );
}

/// A timer build, ten wirelength ECOs and a from-scratch check: one
/// `sta.gba` span per full propagation and one `sta.incremental` per
/// update, a balanced flight-recorder trace with nothing dropped, and
/// updates that re-time their cone rather than the design.
#[test]
fn eco_replay_records_one_span_per_update_and_retimes_only_the_cone() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const ECOS: usize = 10;
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, BenchProfile::c5315(), 2015).unwrap();
    let cons = Constraints::single_clock(1_500.0);

    tc_obs::enable();
    tc_obs::reset();
    tc_obs::clear_trace();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    let mut timer = Timer::new(&nl, &lib, &stack, cons.clone()).unwrap();
    let mut rng = tc_core::rng::Rng::seed_from(2015);
    for _ in 0..ECOS {
        let net = tc_core::ids::NetId::new(rng.below(nl.net_count()));
        let cur = nl.net(net).wire_length_um;
        nl.set_wire_length(net, (cur * rng.uniform_in(0.6, 1.4)).max(1.0));
        timer.update(&nl).unwrap();
    }
    let full = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
    let snap = tc_obs::snapshot();
    let trace = tc_obs::trace_snapshot();
    tc_obs::disable_trace();
    tc_obs::disable();

    let incremental = timer.report(&nl);
    assert_eq!(incremental.wns(), full.wns());
    assert_eq!(incremental.tns(), full.tns());

    let profile = tc_prof::Profile::from_trace(&trace);
    assert_eq!(
        (
            profile.dropped_events,
            profile.unmatched_ends,
            profile.open_spans
        ),
        (0, 0, 0),
        "trace is complete and balanced"
    );
    let count = |span: &str| profile.span(span).map_or(0, |s| s.count);
    assert_eq!(count("sta.gba"), 2, "the timer's build and the check");
    assert_eq!(count("sta.incremental"), ECOS as u64, "one per update");

    // Every update accounts for the whole graph, and the ten together
    // re-evaluate under a fifth of what ten full propagations would.
    let arcs = TimingGraph::build(&nl, &lib).unwrap().arc_count();
    let recomputed = snap.counter("sta.arcs_recomputed");
    assert_eq!(
        recomputed + snap.counter("sta.arcs_reused"),
        ECOS as u64 * arcs
    );
    assert!(
        5 * recomputed < ECOS as u64 * arcs,
        "updates re-timed {recomputed} of {} arcs",
        ECOS as u64 * arcs
    );
}
