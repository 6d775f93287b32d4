//! Every figure of the paper, gated on every `cargo test`: one test per
//! figure in [`tc_bench::figures::FIGURES`] asserts its claims, then
//! diffs its document against its entry in the committed
//! `BENCH_figures.json`. Exact rows gate; wall-clock cells are timing
//! deltas. A document never reads tc-obs state, so these tests share one
//! process, and `documents_do_not_depend_on_tc_obs_state` holds them to it.
//!
//! To re-baseline after a deliberate change, run all figures and copy
//! the `BENCH_figures.json` they leave in `artifacts/` to the repo root.

use tc_bench::figures::FIGURES;
use tc_obs::JsonValue;

/// The committed baseline's `(figure, document)` entries.
fn baseline() -> Vec<(String, JsonValue)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json");
    let text = std::fs::read_to_string(path).expect("committed baseline");
    match JsonValue::parse(&text).expect("baseline parses") {
        JsonValue::Obj(entries) => entries,
        other => panic!("baseline is not an object: {}", other.render()),
    }
}

fn check(name: &str) {
    let (_, run) = FIGURES.iter().find(|(n, _)| *n == name).expect("listed");
    let fig = run();
    let failed: Vec<String> = fig
        .claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect();
    assert!(failed.is_empty(), "claims fail:\n{}", failed.join("\n"));
    let entries = baseline();
    let (_, base) = entries
        .iter()
        .find(|(n, _)| n == name)
        .expect("an entry in BENCH_figures.json");
    // Compare what the figure would write, not the in-memory value.
    let fresh = JsonValue::parse(&fig.doc().render()).expect("document parses");
    let report = tcdiff::diff(base, &fresh).expect("comparable");
    assert!(report.ok(), "{}", report.render(false));
}

/// A figure's document is the same bytes with tc-obs off and with
/// tc-obs, memory counting and the flight recorder on, as the runner
/// arms them. `tbl_gba_pba` stands for every figure: its study records
/// spans and counters, and its run artifact reads them.
#[test]
fn documents_do_not_depend_on_tc_obs_state() {
    let off = tc_bench::figures::tbl_gba_pba().doc().render();
    tc_obs::enable();
    tc_obs::enable_memory();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    let on = tc_bench::figures::tbl_gba_pba().doc().render();
    tc_obs::disable_trace();
    tc_obs::disable_memory();
    tc_obs::disable();
    assert_eq!(off, on);
}

macro_rules! figure_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*

        /// Every figure has a test here and an entry in the baseline, in
        /// list order, and nothing else does.
        #[test]
        fn every_figure_is_gated() {
            let listed: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
            assert_eq!([$(stringify!($name)),*].to_vec(), listed);
            let entries = baseline();
            let committed: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(committed, listed);
        }
    };
}

figure_tests!(
    fig01_closure_loop,
    fig02_old_vs_new,
    fig03_care_abouts,
    fig04_mis_sis,
    fig05_sadp_sigma,
    fig06a_minia,
    fig06b_temp_inversion,
    fig07_path_distribution,
    fig08_tbc_alpha,
    fig09_aging_avs,
    fig10_ff_interdependence,
    tbl_clock_margins,
    tbl_corner_explosion,
    tbl_etm_hierarchy,
    tbl_fix_ordering,
    tbl_gate_wire_balance,
    tbl_gba_pba,
    tbl_ir_dynamic,
    tbl_margin_recovery,
    tbl_model_accuracy,
    tbl_noise_hold,
    tbl_yield_slack,
);
