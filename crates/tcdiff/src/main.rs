//! The `tcdiff` CLI: compare two run artifacts, `BENCH_*.json` sidecars
//! or `PROF_*.json` span profiles, or validate a Chrome trace export.
//!
//! ```text
//! tcdiff <baseline.json> <candidate.json> [--tol 0.25] [--mem-tol 0.5]
//!        [--timing-strict] [--verbose]
//! tcdiff --check-trace <trace.json> [--min-threads N]
//! ```
//!
//! Exit codes (the [`tc_obs::cli`] contract): `0` — documents agree
//! (timing within tolerance or informational); `1` — regression
//! (fingerprint/exact mismatch, or out-of-tolerance timing under
//! `--timing-strict`); `2` — usage, I/O, parse, or schema-version
//! error.

use std::process::ExitCode;

use tc_obs::cli::{self, Args, Outcome};
use tc_obs::JsonValue;
use tcdiff::{check_trace, diff, DiffOptions};

const USAGE: &str = "\
usage: tcdiff <baseline.json> <candidate.json> [--tol FRACTION] [--mem-tol FRACTION]
       [--timing-strict] [--verbose]
       tcdiff --check-trace <trace.json> [--min-threads N]

Compares two run artifacts or BENCH_*.json sidecars field by field.
Fingerprint/result fields must match exactly; wall-clock fields
(*_ms/*_us/*_ns/wall*/speedup*/elapsed*/idle*) are tolerance-gated
(default 25% of the baseline value); allocator fields
(*_bytes/*_allocs/*_frees) gate under --mem-tol (default 50%, never
bit-exact). Both classes are informational unless --timing-strict.
Two PROF_*.json span profiles are compared by span name instead: span
set, counts and dropped_events exactly, self-time growth under --tol
for spans holding at least 2% of wall.
--check-trace validates a Chrome trace_event export instead:
well-formed events, per-thread monotonic timestamps, balanced B/E
events, no dropped events.";

/// A tolerance flag: a non-negative fraction.
fn tolerance(args: &mut Args, name: &str, default: f64) -> Result<f64, String> {
    match args.value::<f64>(name)? {
        Some(t) if t.is_nan() || t < 0.0 => Err(format!("{name} must be >= 0")),
        Some(t) => Ok(t),
        None => Ok(default),
    }
}

fn trace_mode(mut args: Args) -> Result<Outcome, String> {
    let min_threads = args.value("--min-threads")?.unwrap_or(1usize);
    let [path] = args.exactly()?;
    match check_trace(&cli::read(&path)?, min_threads) {
        Ok(p) => {
            println!(
                "{path}: valid Chrome trace — {} span name(s) on {} thread(s), wall {}",
                p.spans.len(),
                p.lanes.len(),
                tc_prof::fmt_ns(p.wall_ns)
            );
            Ok(Outcome::Clean)
        }
        Err(e) => {
            eprintln!("tcdiff: {path}: {e}");
            Ok(Outcome::Findings)
        }
    }
}

fn diff_mode(mut args: Args) -> Result<Outcome, String> {
    let defaults = DiffOptions::default();
    let opts = DiffOptions {
        tol: tolerance(&mut args, "--tol", defaults.tol)?,
        mem_tol: tolerance(&mut args, "--mem-tol", defaults.mem_tol)?,
        timing_strict: args.flag("--timing-strict"),
    };
    let verbose = args.flag("--verbose");
    let [base, cand] = args.exactly()?;
    let load = |path: &str| JsonValue::parse(&cli::read(path)?).map_err(|e| format!("{path}: {e}"));
    let report = diff(&load(&base)?, &load(&cand)?, &opts)?;
    print!("{}", report.render(verbose));
    let verdict = if report.ok() { "PASS" } else { "FAIL" };
    println!("{verdict}: {base} vs {cand}");
    Ok(Outcome::clean_if(report.ok()))
}

fn main() -> ExitCode {
    cli::run("tcdiff", USAGE, |mut args| {
        if args.flag("--check-trace") {
            trace_mode(args)
        } else {
            diff_mode(args)
        }
    })
}
