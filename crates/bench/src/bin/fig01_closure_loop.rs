//! **Fig 1** — the five-iteration top-level closure loop (MacDonald,
//! ref \[30\]): STA → failure breakdown → ordered manual fixes, with
//! timing improving each iteration.
//!
//! Reproduces: per-iteration WNS/TNS/violation counts and the fix mix
//! (Vt-swap first, then sizing, buffering, NDR, useful skew), plus the
//! schedule model (three-day iterations). Runs under tc-obs with the
//! flight recorder armed: the per-phase timing report is printed after
//! the table, and the whole run lands in the `fig01_closure_loop`
//! sidecars (see [`tc_bench::emit`]).

use tc_bench::{emit, fmt, print_table, standard_env};
use tc_closure::flow::{ClosureConfig, ClosureFlow};
use tc_obs::JsonValue;
use tc_sta::{Constraints, Sta};

fn main() -> std::io::Result<()> {
    tc_obs::enable();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    let (lib, stack) = standard_env();
    let mut nl = tc_bench::bench_netlist(&lib, "soc_block", 2015);

    // Constrain the block 500 ps beyond its as-generated capability —
    // enough that no single fix pass can close it, so the iterative
    // character of Fig 1 is visible.
    let probe = Constraints::single_clock(6_000.0);
    let r = Sta::new(&nl, &lib, &stack, &probe).run().expect("sta");
    let period = 6_000.0 - r.wns().value() - 500.0;
    println!(
        "design: {} cells | probe WNS at 6 ns: {:.1} ps | closure period: {:.0} ps",
        nl.cell_count(),
        r.wns().value(),
        period
    );
    let cons = Constraints::single_clock(period);

    let before = Sta::new(&nl, &lib, &stack, &cons).run().expect("sta");
    println!("entering closure: {}", before.summary());
    let breakdown = before.failure_breakdown();
    println!("failure breakdown: {breakdown:?}");

    // The probe runs above are prologue, not the loop being measured.
    tc_obs::reset();

    let config = ClosureConfig {
        budget_per_pass: 15,
        k_paths: 8,
        ..Default::default()
    };
    let mut flow = ClosureFlow::new(&lib, &stack, config);
    let out = flow.run(&mut nl, cons).expect("closure flow");

    let rows: Vec<Vec<String>> = out
        .iterations
        .iter()
        .map(|it| {
            let fixes = it
                .fixes
                .iter()
                .map(|(k, n)| format!("{}:{n}", k.label()))
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                it.iteration.to_string(),
                fmt(it.wns_before.value(), 1),
                fmt(it.wns_after.value(), 1),
                fmt(it.tns_after.value(), 1),
                it.violations_after.to_string(),
                fmt(it.elapsed_ms, 0),
                it.counter_delta("sta.arcs_evaluated").to_string(),
                fixes,
            ]
        })
        .collect();
    print_table(
        "Fig 1: closure iterations",
        &[
            "iter", "WNS in", "WNS out", "TNS out", "viol", "ms", "arcs", "fixes",
        ],
        &rows,
    );
    println!(
        "\nclosed: {} | schedule: {:.0} days ({} iterations of 3 days)",
        out.closed,
        out.days,
        out.iterations.len()
    );
    println!("final: {}", out.final_report.summary());

    // Signoff cross-check: a from-scratch full STA must agree with the
    // incremental timer bit for bit, on every endpoint row.
    let signoff = {
        let _span = tc_obs::span("signoff.sta");
        Sta::new(&nl, &lib, &stack, &out.constraints)
            .run()
            .expect("signoff sta")
    };
    assert_eq!(
        signoff.endpoints, out.final_report.endpoints,
        "signoff STA disagrees with the incremental timer"
    );

    let snapshot = tc_obs::snapshot();
    println!("\n{}", snapshot.render_text());

    let iterations: Vec<JsonValue> = out
        .iterations
        .iter()
        .map(|it| {
            let deltas: Vec<(String, JsonValue)> = it
                .counter_deltas
                .iter()
                .map(|(n, v)| (n.clone(), JsonValue::from(*v)))
                .collect();
            JsonValue::obj([
                ("iteration", JsonValue::from(it.iteration)),
                ("wns_before_ps", JsonValue::from(it.wns_before.value())),
                ("wns_after_ps", JsonValue::from(it.wns_after.value())),
                ("tns_after_ps", JsonValue::from(it.tns_after.value())),
                ("violations_after", JsonValue::from(it.violations_after)),
                ("elapsed_ms", JsonValue::from(it.elapsed_ms)),
                ("counter_deltas", JsonValue::Obj(deltas)),
                (
                    "fixes",
                    JsonValue::Arr(
                        it.fixes
                            .iter()
                            .map(|(k, n)| {
                                JsonValue::obj([
                                    ("fix", JsonValue::str(k.label())),
                                    ("edits", JsonValue::from(*n)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let doc = JsonValue::obj([
        ("figure", JsonValue::str("fig01_closure_loop")),
        ("closed", JsonValue::from(out.closed)),
        ("days", JsonValue::from(out.days)),
        ("iterations", JsonValue::Arr(iterations)),
        ("observability", snapshot.to_json_value()),
    ]);

    let artifact = flow
        .run_artifact("fig01_closure_loop soc_block", &out)
        .extra("final_cells", JsonValue::from(nl.cell_count()));
    emit("fig01_closure_loop", &doc, &artifact)
}
