//! The `tcdiff` CLI: compare two run artifacts, `BENCH_*.json` sidecars
//! or `PROF_*.json` span profiles.
//!
//! ```text
//! tcdiff <baseline.json> <candidate.json> [--verbose]
//! ```
//!
//! Exit codes (the [`tc_obs::cli`] contract): `0` — documents agree on
//! every exact field (timing and memory deltas are informational); `1`
//! — regression (exact mismatch, a field or span on one side only, or
//! dropped trace events in a profile); `2` — usage, I/O, parse, or
//! schema-version error.

use std::process::ExitCode;

use tc_obs::cli::{self, Outcome};
use tc_obs::JsonValue;
use tcdiff::diff;

const USAGE: &str = "\
usage: tcdiff <baseline.json> <candidate.json> [--verbose]

Compares two run artifacts or BENCH_*.json sidecars field by field.
Fingerprint/result fields must match exactly; wall-clock fields
(*_ms/*_us/*_ns/wall*/speedup*/elapsed*/idle*) and allocator fields
(*_bytes/*_allocs/*_frees) show their delta and never gate.
Two PROF_*.json span profiles are compared by span name instead: span
set, counts and dropped_events exactly, self time and heap as deltas
that attribute a move to a named span.";

fn main() -> ExitCode {
    cli::run("tcdiff", USAGE, |mut args| {
        let verbose = args.flag("--verbose");
        let [base, cand] = args.exactly()?;
        let load =
            |path: &str| JsonValue::parse(&cli::read(path)?).map_err(|e| format!("{path}: {e}"));
        let report = diff(&load(&base)?, &load(&cand)?)?;
        print!("{}", report.render(verbose));
        let verdict = if report.ok() { "PASS" } else { "FAIL" };
        println!("{verdict}: {base} vs {cand}");
        Ok(Outcome::clean_if(report.ok()))
    })
}
