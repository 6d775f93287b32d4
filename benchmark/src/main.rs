//! The repo benchmark: four closure workloads timed from outside.
//!
//! ```text
//! tc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//!     one run in this process; the last stdout line is the result object
//! tc-benchmark [--seed <n>] [--seconds <s>] [--out <dir>]
//!     every workload, untraced then traced, one child process each;
//!     prints every metric and writes <out>/result.json
//! tc-benchmark compare <a.json> <b.json>
//!     holds two result.json files against the bounds in BENCHMARK.json
//! ```
//!
//! `benchmark/run.sh` builds this binary and passes its arguments on.

mod char_cells;
mod closure_files;
mod compare;
mod eco_storm;
mod expected;
mod harness;
mod json;
mod signoff_mcmm;
mod spec;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Config;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: run.sh [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <s>] \
         [--out <dir>]\n       run.sh compare <a.json> <b.json>\nworkloads: {}",
        spec::WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [a, b] => ExitCode::from(compare::run(a.as_ref(), b.as_ref())),
            _ => usage("compare takes two result files"),
        };
    }

    let mut workload: Option<String> = None;
    let mut traced: Option<bool> = None;
    let mut seed = Config::DEFAULT_SEED;
    let mut seconds = spec::Spec::load().run_seconds;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                spec::WORKLOADS.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => {
                seconds = value.parse().unwrap_or(f64::NAN);
                seconds.is_finite() && seconds > 0.0
            }
            "--trace" => {
                traced = Some(value == "1");
                value == "0" || value == "1"
            }
            "--out" => {
                out = PathBuf::from(value);
                true
            }
            _ => return usage(&format!("unknown argument {flag}")),
        };
        if !ok {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }

    let code = match (workload, traced) {
        (Some(workload), Some(traced)) => {
            let cfg = Config {
                workload,
                seed,
                seconds,
                traced,
                out,
            };
            harness::init(&cfg);
            match cfg.workload.as_str() {
                "closure_files_50k" => closure_files::run(&cfg),
                "signoff_mcmm_200k" => signoff_mcmm::run(&cfg),
                "eco_storm_200k" => eco_storm::run(&cfg),
                _ => char_cells::run(&cfg),
            }
        }
        (None, None) => suite::run(seed, seconds, &out),
        _ => return usage("--workload and --trace go together"),
    };
    ExitCode::from(code as u8)
}
