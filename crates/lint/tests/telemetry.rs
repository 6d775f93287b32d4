//! `run_lint`'s `lint.*` counters live in tc-obs's process-global
//! registry, so the one test that asserts an exact counter delta is the
//! only test in its process: in the crate's unit-test binary its
//! siblings call `run_lint` on other threads and the delta came out
//! wrong in about 6% of workspace runs.

use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_lint::{run_lint, LintContext, Severity};
use tc_netlist::gen::{generate, BenchProfile};
use tc_par::Pool;
use tc_sta::constraints::Constraints;

#[test]
fn telemetry_counts_findings_by_severity() {
    tc_obs::enable();
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
    let mut cons = Constraints::single_clock(500.0);
    cons.clocks.clear();
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    let before = tc_obs::snapshot().counter("lint.errors");
    let diags = run_lint(&Pool::sequential(), &ctx);
    let snap = tc_obs::snapshot();
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count() as u64;
    assert!(errors >= 1);
    assert_eq!(snap.counter("lint.errors") - before, errors);
    assert!(snap.span("lint.run").is_some());
}
