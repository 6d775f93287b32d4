#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-bench — figure-regeneration harnesses
//!
//! One binary per figure/table of the paper (see `src/bin/`), plus the
//! std-only benchmarks in `benches/engines.rs`. This library holds the
//! shared formatting, timing, and experiment-setup helpers so every
//! harness prints consistent, diffable tables (recorded in
//! `EXPERIMENTS.md`), and [`emit`] — the one call through which a
//! harness leaves its machine-readable sidecars (BENCH table, RUN
//! artifact, and, with the flight recorder armed, trace + folded stacks
//! + PROF span profile).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tc_interconnect::BeolStack;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, generate_streamed, BenchProfile};
use tc_netlist::Netlist;
use tc_obs::{JsonValue, RunArtifact};

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

/// A seeded benchmark netlist by profile name. The `scale_*` profiles
/// go through the bounded-scratch streamed generator; everything else
/// uses the classic generator (whose output committed fingerprints
/// depend on).
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
        "scale_50k" | "50k" => {
            return generate_streamed(lib, BenchProfile::scale_50k(), seed)
                .expect("generator is total")
        }
        "scale_200k" | "200k" => {
            return generate_streamed(lib, BenchProfile::scale_200k(), seed)
                .expect("generator is total")
        }
        "scale_1m" | "1m" => {
            return generate_streamed(lib, BenchProfile::scale_1m(), seed)
                .expect("generator is total")
        }
        other => panic!("unknown profile {other}"),
    };
    generate(lib, p, seed).expect("generator is total")
}

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest iteration, ns.
    pub min_ns: f64,
    /// Slowest iteration, ns.
    pub max_ns: f64,
}

impl BenchResult {
    /// `name  mean ±(min..max)` formatted for the report table.
    pub fn row(&self) -> Vec<String> {
        let scale = |ns: f64| {
            if ns >= 1e6 {
                format!("{:.2} ms", ns / 1e6)
            } else {
                format!("{:.1} us", ns / 1e3)
            }
        };
        vec![
            self.name.clone(),
            self.iters.to_string(),
            scale(self.mean_ns),
            scale(self.min_ns),
            scale(self.max_ns),
        ]
    }
}

/// Minimum timed iterations per benchmark.
const BENCH_MIN_ITERS: u32 = 5;
/// Iteration cap per benchmark.
const BENCH_MAX_ITERS: u32 = 200;
/// Wall-clock budget per benchmark, seconds.
const BENCH_BUDGET_S: f64 = 0.8;

/// Times `routine` (std-only stand-in for Criterion, which the offline
/// build cannot fetch): one warmup call, then iterations until the time
/// budget or cap is hit.
pub fn bench<R>(name: &str, mut routine: impl FnMut() -> R) -> BenchResult {
    bench_with_setup(name, || (), |()| routine())
}

/// Like [`bench()`] but re-runs `setup` (untimed) before every timed
/// iteration — for routines that consume or mutate their input.
pub fn bench_with_setup<T, R>(
    name: &str,
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(T) -> R,
) -> BenchResult {
    black_box(routine(setup())); // warmup
    let mut iters = 0u32;
    let mut total_ns = 0.0f64;
    let mut min_ns = f64::INFINITY;
    let mut max_ns = 0.0f64;
    let started = Instant::now();
    while iters < BENCH_MIN_ITERS
        || (iters < BENCH_MAX_ITERS && started.elapsed().as_secs_f64() < BENCH_BUDGET_S)
    {
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        let ns = t0.elapsed().as_nanos() as f64;
        total_ns += ns;
        min_ns = min_ns.min(ns);
        max_ns = max_ns.max(ns);
        iters += 1;
    }
    BenchResult {
        name: name.to_string(),
        iters,
        mean_ns: total_ns / iters as f64,
        min_ns,
        max_ns,
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
    fn bench_runner_measures_and_bounds_iterations() {
        let r = bench("noop", || 1 + 1);
        assert!(r.iters >= 5);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
        let mut setups = 0;
        let r2 = bench_with_setup("setup", || setups += 1, |()| ());
        assert!(setups as u32 >= r2.iters, "setup runs every iteration");
        assert_eq!(r2.row().len(), 5);
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
