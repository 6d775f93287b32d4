//! The committed GBA/PBA baseline, gated on every `cargo test`: a fresh
//! run of [`tc_bench::gba_pba`] must reproduce `BENCH_gba_pba.json`
//! exactly — every endpoint's GBA/PBA slack, recovery and stage count,
//! the violation counts and the span/counter snapshot — with wall clock
//! and heap telemetry as informational deltas. The document carries the
//! process-global tc-obs counters, so this binary holds exactly one test.

use tc_obs::JsonValue;

#[test]
fn gba_pba_reproduces_the_committed_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gba_pba.json");
    let text = std::fs::read_to_string(path).expect("committed baseline");
    let baseline = JsonValue::parse(&text).expect("baseline parses");
    let report = tcdiff::diff(&baseline, &tc_bench::gba_pba().table()).expect("comparable");
    assert!(report.ok(), "{}", report.render(false));
}
