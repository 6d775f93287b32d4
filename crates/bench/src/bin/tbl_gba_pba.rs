//! §1.3 — graph-based vs path-based analysis: PBA recovers the
//! pessimism GBA's conservative AOCV depth bound leaves on the table, at
//! the cost of per-path re-evaluation (the turnaround/licensing tradeoff
//! the paper describes).
//!
//! The study itself is [`tc_bench::gba_pba`]; this harness prints it.
//! Runtime attribution comes from tc-obs span stats (`sta.gba` /
//! `sta.pba`) instead of ad-hoc stopwatches, and the table plus the
//! observability snapshot land in the `gba_pba` sidecars (see
//! [`tc_bench::emit`]).

use std::time::Instant;

use tc_bench::{emit, fmt, gba_pba, print_table};
use tc_obs::JsonValue;

fn main() -> std::io::Result<()> {
    let run_start = Instant::now();
    let study = gba_pba();
    let snapshot = &study.snapshot;

    let rows: Vec<Vec<String>> = study
        .endpoints
        .iter()
        .take(12)
        .map(|r| {
            vec![
                format!("{:?}", r.endpoint),
                fmt(r.gba_slack.value(), 1),
                fmt(r.pba_slack.value(), 1),
                fmt(r.recovered().value(), 1),
                r.stages.to_string(),
            ]
        })
        .collect();
    print_table(
        "GBA vs PBA slack on the 12 worst endpoints (AOCV derates)",
        &["endpoint", "GBA slack", "PBA slack", "recovered", "stages"],
        &rows,
    );

    let total_rec = study.total_recovered_ps();
    let (viol_gba, viol_pba) = study.violations();
    println!(
        "\nGBA: {} | endpoints analyzed by PBA: {}",
        study.gba_summary,
        study.endpoints.len()
    );
    println!(
        "violations among analyzed endpoints: GBA {viol_gba} → PBA {viol_pba} | total recovered {total_rec:.1} ps"
    );

    // Span-based runtime attribution: `sta.gba` covers the one graph
    // propagation (`run` fills the analysis' cache, PBA reads it),
    // `sta.pba` only the path extraction + re-derating on top.
    let gba_ms = snapshot.span("sta.gba").map_or(0.0, |s| s.total_ms());
    let pba_ms = snapshot.span("sta.pba").map_or(0.0, |s| s.total_ms());
    println!(
        "runtime (tc-obs spans): GBA propagation {gba_ms:.1} ms total vs PBA overlay {pba_ms:.1} ms — the §1.3 turnaround cost"
    );
    println!(
        "arcs evaluated: {} | paths re-derated: {} ({} stages)",
        snapshot.counter("sta.arcs_evaluated"),
        snapshot.counter("sta.pba.paths"),
        snapshot.counter("sta.pba.stages"),
    );

    let table = study.table();
    let artifact = tc_obs::RunArtifact::new("tbl_gba_pba GBA-vs-PBA pessimism recovery")
        .knob("profile", "c5315")
        .knob("pba_endpoints", study.endpoints.len())
        .knob("aocv_stage_sigma", 0.06)
        .wall_ms(run_start.elapsed().as_secs_f64() * 1e3)
        .extra("gba_violations", JsonValue::from(viol_gba))
        .extra("pba_violations", JsonValue::from(viol_pba))
        .extra("total_recovered_ps", JsonValue::from(total_rec))
        .metrics(study.snapshot)
        .capture_memory();
    emit("gba_pba", &table, &artifact)
}
