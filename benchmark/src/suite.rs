//! The whole benchmark in one command: every workload, untraced then
//! traced, each in a child process of its own (so `VmHWM` is per
//! workload and no run inherits another's heap), merged into
//! `<out>/result.json` with the host facts a result is meaningless
//! without.

use std::path::Path;
use std::process::Command;

use tc_obs::JsonValue;

use crate::json::{as_f64, get};
use crate::spec::WORKLOADS;

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host() -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    JsonValue::obj([
        (
            "nproc",
            JsonValue::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("cpu", JsonValue::str(cpu)),
        (
            "rustc",
            JsonValue::str(first_line(Command::new("rustc").arg("--version"))),
        ),
    ])
}

/// Runs one workload once in a child process (which prints its own
/// metric table) and loads the detailed result file it leaves.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool, out: &Path) -> Option<JsonValue> {
    let trace = if traced { "1" } else { "0" };
    let status = Command::new(std::env::current_exe().ok()?)
        .args(["--workload", workload, "--trace", trace])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(out)
        .env("TC_PAR_THREADS", "1")
        .status()
        .ok()?;
    if status.code().is_none_or(|c| c > 1) {
        // 0 = clean, 1 = ran with failed checks (the file says which).
        return None;
    }
    let file = out.join(format!("result_{workload}_t{trace}.json"));
    JsonValue::parse(&std::fs::read_to_string(file).ok()?).ok()
}

pub fn run(seed: u64, seconds: f64, out: &Path) -> i32 {
    let mut workloads = Vec::new();
    let mut exact = Vec::new();
    let mut failed = 0u64;
    for w in WORKLOADS {
        let (Some(untraced), Some(traced)) = (
            child(w, seed, seconds, false, out),
            child(w, seed, seconds, true, out),
        ) else {
            eprintln!("{w}: a run did not finish");
            return 2;
        };
        let count = |key: &str| {
            [&untraced, &traced]
                .iter()
                .map(|r| get(r, key).map_or(f64::NAN, as_f64))
                .sum::<f64>()
        };
        failed += count("failed") as u64;
        let take = |r: &JsonValue, key: &str| get(r, key).cloned().unwrap_or(JsonValue::Null);
        exact.push((w.to_string(), take(&untraced, "exact")));
        workloads.push((
            w.to_string(),
            JsonValue::obj([
                ("end_to_end", take(&untraced, "metrics")),
                ("per_layer", take(&traced, "metrics")),
                ("attempted", JsonValue::from(count("attempted"))),
                ("failed", JsonValue::from(count("failed"))),
            ]),
        ));
    }

    let result = JsonValue::obj([
        ("seed", JsonValue::from(seed)),
        ("seconds", JsonValue::from(seconds)),
        ("host", host()),
        ("failed", JsonValue::from(failed)),
        ("exact", JsonValue::Obj(exact)),
        ("workloads", JsonValue::Obj(workloads)),
    ]);
    let file = out.join("result.json");
    if let Err(e) = std::fs::write(&file, result.render()) {
        eprintln!("cannot write {}: {e}", file.display());
        return 2;
    }
    println!(
        "\nops_failed {failed} over all workloads; wrote {}",
        file.display()
    );
    i32::from(failed > 0)
}
