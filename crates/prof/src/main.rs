//! The `tc_prof` CLI: span profiles over flight-recorder output.
//! (Comparing two profiles is `tcdiff`'s job.)
//!
//! ```text
//! tc_prof report <trace.json | PROF_*.json> [--json] [--top N] [--workload LABEL]
//! tc_prof fold <trace.json>
//! ```
//!
//! Exit codes (the [`tc_obs::cli`] contract): `0` — clean; `1` —
//! finding (dropped trace events under `report`); `2` — usage, I/O,
//! parse, or schema error.

use std::process::ExitCode;

use tc_obs::cli::{self, Args, Outcome};
use tc_prof::profile::fold_chrome_trace;
use tc_prof::{Profile, PROF_KIND};

const USAGE: &str = "\
usage: tc_prof report <trace.json | PROF_*.json> [--json] [--top N] [--workload LABEL]
       tc_prof fold <trace.json>

report — reduce a Chrome trace sidecar (or re-render an existing
PROF_*.json) to a span profile: per-span count/total/self/child,
p50/p90/p99, net heap, lane utilization, critical chain. Dropped
trace events are a hard finding (exit 1): ring overflow truncates
self-time. --json emits the schema-versioned PROF document.
fold — re-fold a Chrome trace to flamegraph.pl input.
Two PROF documents are compared with `tcdiff BASE CAND`.";

fn report(mut args: Args) -> Result<Outcome, String> {
    let json = args.flag("--json");
    let top = args.value("--top")?.unwrap_or(20usize);
    let workload: Option<String> = args.value("--workload")?;
    let [path] = args.exactly()?;
    let text = cli::read(&path)?;
    // A PROF document carries the profile kind marker; anything else is
    // treated as a Chrome trace.
    let mut profile = if text.contains(PROF_KIND) {
        Profile::parse(&text)
    } else {
        Profile::from_chrome_trace(&text)
    }
    .map_err(|e| format!("{path}: {e}"))?;
    if let Some(label) = workload {
        profile = profile.workload(label);
    }
    if json {
        println!("{}", profile.render_json());
    } else {
        print!("{}", profile.render_text(top));
    }
    if profile.dropped_events > 0 {
        eprintln!(
            "tc_prof: {path}: {} dropped trace event(s) — profile is truncated",
            profile.dropped_events
        );
    }
    Ok(Outcome::clean_if(profile.dropped_events == 0))
}

fn fold(args: Args) -> Result<Outcome, String> {
    let [path] = args.exactly()?;
    let folded = fold_chrome_trace(&cli::read(&path)?).map_err(|e| format!("{path}: {e}"))?;
    print!("{folded}");
    Ok(Outcome::Clean)
}

fn main() -> ExitCode {
    cli::run("tc_prof", USAGE, |mut args| {
        match args.command().as_deref() {
            Some("report") => report(args),
            Some("fold") => fold(args),
            other => Err(format!(
                "unknown command `{}`\n{USAGE}",
                other.unwrap_or_default()
            )),
        }
    })
}
