#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-bench — figure-regeneration harnesses
//!
//! One binary per figure/table of the paper (see `src/bin/`). This
//! library holds the shared formatting and experiment-setup helpers so
//! every harness prints consistent, diffable tables (recorded in
//! `EXPERIMENTS.md`), and [`emit`] — the one call through which a
//! harness leaves its machine-readable sidecars (BENCH table, RUN
//! artifact, and, with the flight recorder armed, trace + folded stacks
//! + PROF span profile).
//!
//! [`gba_pba`] is the one study whose table is committed
//! (`BENCH_gba_pba.json`); `tests/gba_pba_baseline.rs` diffs a fresh run
//! against it on every `cargo test`.

use std::path::{Path, PathBuf};

use tc_interconnect::BeolStack;
use tc_liberty::{AocvTable, DerateModel, LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};
use tc_netlist::Netlist;
use tc_obs::{JsonValue, RunArtifact, Snapshot};
use tc_sta::pba::{pba_worst_endpoints, PbaEndpoint};
use tc_sta::{Constraints, Sta};

/// Prints a fixed-width table: header row, rule, then rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("{}", line.join(" | "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join(" | "));
    }
}

/// Formats a float with the given precision.
pub fn fmt(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// The standard experiment environment: a typical-corner library and the
/// 20 nm BEOL stack.
pub fn standard_env() -> (Library, BeolStack) {
    (
        Library::generate(&LibConfig::default(), &PvtCorner::typical()),
        BeolStack::n20(),
    )
}

/// A seeded benchmark netlist by profile name, from the classic
/// generator (whose output committed fingerprints depend on).
///
/// # Panics
///
/// Panics on an unknown profile name (harness misuse).
pub fn bench_netlist(lib: &Library, profile: &str, seed: u64) -> Netlist {
    let p = match profile {
        "tiny" => BenchProfile::tiny(),
        "soc_block" => BenchProfile::soc_block(),
        "c5315" => BenchProfile::c5315(),
        "c7552" => BenchProfile::c7552(),
        "aes" => BenchProfile::aes(),
        "mpeg2" => BenchProfile::mpeg2(),
        other => panic!("unknown profile {other}"),
    };
    generate(lib, p, seed).expect("generator is total")
}

/// One run of the §1.3 GBA-vs-PBA study: c5315 (seed 2015) clocked
/// 50 ps past its nominal WNS under AOCV derates, PBA over the 50 worst
/// endpoints.
pub struct GbaPba {
    /// The GBA run's one-line summary.
    pub gba_summary: String,
    /// PBA re-timing of the worst endpoints, worst GBA slack first.
    pub endpoints: Vec<PbaEndpoint>,
    /// tc-obs snapshot of the measured GBA propagation and PBA overlay.
    pub snapshot: Snapshot,
}

impl GbaPba {
    /// Endpoints with negative slack under GBA and under PBA.
    pub fn violations(&self) -> (usize, usize) {
        let count =
            |f: fn(&PbaEndpoint) -> f64| self.endpoints.iter().filter(|r| f(r) < 0.0).count();
        (
            count(|r| r.gba_slack.value()),
            count(|r| r.pba_slack.value()),
        )
    }

    /// Pessimism PBA recovers over all analyzed endpoints, ps.
    pub fn total_recovered_ps(&self) -> f64 {
        self.endpoints.iter().map(|r| r.recovered().value()).sum()
    }

    /// The `BENCH_gba_pba.json` document: endpoint rows, violation
    /// counts and the span/counter snapshot.
    pub fn table(&self) -> JsonValue {
        let (viol_gba, viol_pba) = self.violations();
        let span_ms = |name| self.snapshot.span(name).map_or(0.0, |s| s.total_ms());
        let endpoints = self.endpoints.iter().map(|r| {
            JsonValue::obj([
                ("endpoint", JsonValue::str(format!("{:?}", r.endpoint))),
                ("gba_slack_ps", JsonValue::from(r.gba_slack.value())),
                ("pba_slack_ps", JsonValue::from(r.pba_slack.value())),
                ("recovered_ps", JsonValue::from(r.recovered().value())),
                ("stages", JsonValue::from(r.stages)),
            ])
        });
        JsonValue::obj([
            ("table", JsonValue::str("tbl_gba_pba")),
            ("gba_violations", JsonValue::from(viol_gba)),
            ("pba_violations", JsonValue::from(viol_pba)),
            (
                "total_recovered_ps",
                JsonValue::from(self.total_recovered_ps()),
            ),
            ("gba_span_ms", JsonValue::from(span_ms("sta.gba"))),
            ("pba_span_ms", JsonValue::from(span_ms("sta.pba"))),
            ("endpoints", JsonValue::Arr(endpoints.collect())),
            ("observability", self.snapshot.to_json_value()),
        ])
    }
}

/// Runs the GBA-vs-PBA study. Enables tc-obs (with memory telemetry)
/// and resets it before the measured runs, so the snapshot holds
/// exactly one `sta.gba` propagation and one `sta.pba` overlay; nothing
/// else in the process may record meanwhile.
///
/// # Panics
///
/// Panics if the generated design fails to time (harness misuse).
pub fn gba_pba() -> GbaPba {
    let (lib, stack) = standard_env();
    let nl = bench_netlist(&lib, "c5315", 2015);
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
    let endpoints = pba_worst_endpoints(&sta, 50).expect("pba");
    let snapshot = tc_obs::snapshot();
    GbaPba {
        gba_summary: gba.summary(),
        endpoints,
        snapshot,
    }
}

/// The directory generated sidecars land in: `$TC_BENCH_OUT`, default
/// `artifacts/`. Harness output never scatters at the repo root —
/// committed baselines are *copied* to their gated locations, the
/// artifacts directory itself is gitignored.
pub fn out_dir() -> PathBuf {
    std::env::var_os("TC_BENCH_OUT").map_or_else(|| PathBuf::from("artifacts"), PathBuf::from)
}

/// Leaves everything a harness measured in [`out_dir`], under one
/// name: `BENCH_<name>.json` (the `table` the harness printed, for
/// `tcdiff` against a committed baseline), `RUN_<name>.json` (the run
/// artifact) and — when the flight recorder holds events —
/// `<name>.trace.json` (Chrome `trace_event`; load in `chrome://tracing`
/// or Perfetto), `<name>.folded` (folded stacks for `flamegraph.pl`)
/// and `PROF_<name>.json` (the span profile, labelled with the
/// artifact's workload). Prints each path.
///
/// # Errors
///
/// Filesystem errors, naming the file. A harness returns them from
/// `main`: a sidecar that was not written is a failed run, not a
/// warning for the gate step to rediscover as a missing file.
pub fn emit(name: &str, table: &JsonValue, artifact: &RunArtifact) -> std::io::Result<()> {
    let mut files = vec![
        (format!("BENCH_{name}.json"), table.render()),
        (format!("RUN_{name}.json"), artifact.render()),
    ];
    let snap = tc_obs::trace_snapshot();
    if !snap.events.is_empty() {
        let profile = tc_prof::Profile::from_trace(&snap).workload(artifact.workload());
        if profile.dropped_events > 0 {
            eprintln!(
                "warning: PROF_{name}: {} trace event(s) dropped to ring overflow — profile is \
                 truncated and will not pass a tcdiff gate",
                profile.dropped_events
            );
        }
        files.push((format!("{name}.trace.json"), snap.to_chrome_trace()));
        files.push((format!("{name}.folded"), snap.to_folded()));
        files.push((format!("PROF_{name}.json"), profile.render_json()));
    }
    let dir = out_dir();
    let at = |path: &Path, e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(&dir).map_err(|e| at(&dir, e))?;
    for (file, text) in files {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| at(&path, e))?;
        println!("sidecar: {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_and_netlists_materialize() {
        let (lib, stack) = standard_env();
        assert!(stack.layer_count() == 9);
        let nl = bench_netlist(&lib, "tiny", 1);
        assert!(nl.cell_count() > 100);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        // print_table must not panic on ragged input.
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn emit_lands_in_tc_bench_out() {
        let dir = std::env::temp_dir().join(format!("tc_bench_emit_{}", std::process::id()));
        let table = JsonValue::obj([("ok", JsonValue::from(true))]);
        std::env::set_var("TC_BENCH_OUT", &dir);
        emit("probe", &table, &RunArtifact::new("emit probe")).expect("writable directory");
        std::env::remove_var("TC_BENCH_OUT");
        let bench = std::fs::read_to_string(dir.join("BENCH_probe.json")).unwrap();
        assert_eq!(bench, "{\"ok\":true}");
        let run = std::fs::read_to_string(dir.join("RUN_probe.json")).unwrap();
        assert!(run.contains("emit probe"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
