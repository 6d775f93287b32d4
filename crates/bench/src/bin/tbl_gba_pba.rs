//! §1.3 — graph-based vs path-based analysis: PBA recovers the
//! pessimism GBA's conservative AOCV depth bound leaves on the table, at
//! the cost of per-path re-evaluation (the turnaround/licensing tradeoff
//! the paper describes).
//!
//! Runtime attribution comes from tc-obs span stats (`sta.gba` /
//! `sta.pba`) instead of ad-hoc stopwatches, and the table plus the
//! observability snapshot land in the `gba_pba` sidecars (see
//! [`tc_bench::emit`]).

use std::time::Instant;

use tc_bench::{emit, fmt, print_table, standard_env};
use tc_liberty::{AocvTable, DerateModel};
use tc_obs::JsonValue;
use tc_sta::pba::pba_worst_endpoints;
use tc_sta::{Constraints, Sta};

fn main() -> std::io::Result<()> {
    let run_start = Instant::now();
    let (lib, stack) = standard_env();
    let nl = tc_bench::bench_netlist(&lib, "c5315", 2015);
    // Constrain near the design's nominal capability so GBA-vs-PBA
    // decides real violations, not an absurdly overconstrained mode.
    let probe = Constraints::single_clock(5_000.0).with_derate(DerateModel::None);
    let wns = Sta::new(&nl, &lib, &stack, &probe)
        .run()
        .expect("probe")
        .wns()
        .value();
    let cons = Constraints::single_clock(5_000.0 - wns + 50.0)
        .with_derate(DerateModel::Aocv(AocvTable::from_stage_sigma(0.06)));
    let sta = Sta::new(&nl, &lib, &stack, &cons);

    // Only the measured runs below should appear in the snapshot.
    tc_obs::enable();
    tc_obs::enable_memory();
    tc_obs::reset();

    let gba = sta.run().expect("gba");
    let results = pba_worst_endpoints(&sta, 50).expect("pba");
    let snapshot = tc_obs::snapshot();

    let rows: Vec<Vec<String>> = results
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

    let total_rec: f64 = results.iter().map(|r| r.recovered().value()).sum();
    let viol_gba = results.iter().filter(|r| r.gba_slack.value() < 0.0).count();
    let viol_pba = results.iter().filter(|r| r.pba_slack.value() < 0.0).count();
    println!(
        "\nGBA: {} | endpoints analyzed by PBA: {}",
        gba.summary(),
        results.len()
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

    let endpoints: Vec<JsonValue> = results
        .iter()
        .map(|r| {
            JsonValue::obj([
                ("endpoint", JsonValue::str(format!("{:?}", r.endpoint))),
                ("gba_slack_ps", JsonValue::from(r.gba_slack.value())),
                ("pba_slack_ps", JsonValue::from(r.pba_slack.value())),
                ("recovered_ps", JsonValue::from(r.recovered().value())),
                ("stages", JsonValue::from(r.stages)),
            ])
        })
        .collect();
    let doc = JsonValue::obj([
        ("table", JsonValue::str("tbl_gba_pba")),
        ("gba_violations", JsonValue::from(viol_gba)),
        ("pba_violations", JsonValue::from(viol_pba)),
        ("total_recovered_ps", JsonValue::from(total_rec)),
        ("gba_span_ms", JsonValue::from(gba_ms)),
        ("pba_span_ms", JsonValue::from(pba_ms)),
        ("endpoints", JsonValue::Arr(endpoints)),
        ("observability", snapshot.to_json_value()),
    ]);

    let artifact = tc_obs::RunArtifact::new("tbl_gba_pba GBA-vs-PBA pessimism recovery")
        .knob("profile", "c5315")
        .knob("pba_endpoints", results.len())
        .knob("aocv_stage_sigma", 0.06)
        .wall_ms(run_start.elapsed().as_secs_f64() * 1e3)
        .extra("gba_violations", JsonValue::from(viol_gba))
        .extra("pba_violations", JsonValue::from(viol_pba))
        .extra("total_recovered_ps", JsonValue::from(total_rec))
        .metrics(snapshot)
        .capture_memory();
    emit("gba_pba", &doc, &artifact)
}
