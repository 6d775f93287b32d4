//! Quickstart with observability: the same signoff flow as
//! `quickstart`, run under the tc-obs tracing/metrics layer.
//!
//! ```sh
//! cargo run --release --example quickstart_observed
//! ```
//!
//! `tc_obs::enable()` turns the instrumentation on (it is off — and
//! near-free — by default); after the flow finishes, the snapshot
//! renders a flame-style per-phase timing report plus the engine
//! counters: how many timing arcs every STA propagation evaluated, how
//! many ECO edits each closure iteration committed, and where the wall
//! clock actually went. `tc_obs::enable_trace()` additionally arms the
//! flight recorder, and the run ends by writing the per-event trace to
//! `artifacts/quickstart.trace.json` (directory override:
//! `$TC_BENCH_OUT`) — load it in `chrome://tracing` or Perfetto, or
//! reduce it with `tc_prof report artifacts/quickstart.trace.json`.

use timing_closure::closure::flow::ClosureConfig;
use timing_closure::sta::{Constraints, Sta};
use timing_closure::SignoffFlow;

fn main() -> Result<(), tc_core::Error> {
    // Everything recorded from here on shows up in the final report.
    tc_obs::enable();

    let mut flow = SignoffFlow::demo_block(7);
    println!(
        "design `{}`: {} cells, {} nets",
        flow.netlist.name,
        flow.netlist.cell_count(),
        flow.netlist.net_count(),
    );

    // Probe the natural speed, then overconstrain by 40 ps.
    let probe = Constraints::single_clock(5_000.0);
    let report = Sta::new(&flow.netlist, &flow.lib, &flow.stack, &probe).run()?;
    let target = 5_000.0 - report.wns().value() - 40.0;
    println!("running closure at {target:.0} ps (40 ps overconstrained)…");

    // Drop the probe's metrics so the report covers only the flow, then
    // arm the flight recorder for the flow itself.
    tc_obs::reset();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    flow.config = ClosureConfig::default();
    let outcome = flow.run(target)?;
    println!(
        "closed: {} in {} iteration(s) | final: {}\n",
        outcome.closed,
        outcome.iterations,
        outcome.final_report.summary()
    );

    // The per-phase timing report: spans indented by nesting, with
    // counts, totals, and percent-of-parent, then counters/histograms.
    let snapshot = tc_obs::snapshot();
    println!("{}", snapshot.render_text());

    // The same data is available programmatically… (`spans_named`
    // yields every node with that leaf name, wherever it nests.)
    let (gba_runs, gba_ns) = snapshot
        .spans_named("sta.gba")
        .fold((0, 0), |(n, ns), s| (n + s.count, ns + s.total_ns));
    if gba_runs > 0 {
        println!(
            "one number to watch: {} GBA propagations at {:.1} us mean",
            gba_runs,
            gba_ns as f64 / gba_runs as f64 / 1e3
        );
    }
    println!(
        "arcs evaluated across the whole flow: {}",
        snapshot.counter("sta.arcs_evaluated")
    );
    // …and as one machine-readable JSON document (`snapshot.to_json()`).
    println!("json export: {} bytes", snapshot.to_json().len());

    // The flight recorder's per-event view of the same run, as a Chrome
    // `trace_event` file under the artifacts directory (kept out of the
    // repo root; `tc_prof report` consumes the same file).
    let trace = tc_obs::trace_snapshot();
    let dir = std::env::var_os("TC_BENCH_OUT")
        .map_or_else(|| std::path::PathBuf::from("artifacts"), Into::into);
    std::fs::create_dir_all(&dir)
        .map_err(|e| tc_core::Error::internal(format!("artifacts dir failed: {e}")))?;
    let path = dir.join("quickstart.trace.json");
    std::fs::write(&path, trace.to_chrome_trace())
        .map_err(|e| tc_core::Error::internal(format!("trace write failed: {e}")))?;
    println!(
        "trace: {} ({} events on {} thread(s)) — open in chrome://tracing",
        path.display(),
        trace.events.len(),
        trace.thread_ids().len()
    );
    Ok(())
}
