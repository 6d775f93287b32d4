//! `tc_fuzz` — seeded mutation-fuzz campaigns over every ingest surface.
//!
//! ```text
//! tc_fuzz [--seed 1,2,3] [--iters N] [--target spef|verilog|liberty|json|journal|tcdiff|waiver|prof|all]
//!         [--corpus-out DIR] [--verbose]
//! tc_fuzz --replay PATH [--target T]
//! ```
//!
//! Campaign mode mutates writer-generated corpora and drives the chosen
//! parsers; every violation (panic, context-free error, round-trip
//! break) is deduplicated, shrunk, and — with `--corpus-out` — written
//! to `DIR/<target>/` as a regression corpus entry. Exit codes follow
//! the shared [`tc_obs::cli`] contract: 1 means findings, 0 a clean
//! run, 2 a usage or I/O error.
//!
//! Replay mode re-runs one file (or every file under a directory, with
//! the target inferred from the containing directory's name) and prints
//! the verdict; violating inputs are re-shrunk and printed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tc_fuzz::{run, shrink, Env, FuzzConfig, TargetKind, Verdict};
use tc_obs::cli::{self, Args, Outcome};

const USAGE: &str = "\
usage: tc_fuzz [--seed S1,S2,..] [--iters N] [--target NAME|all] [--corpus-out DIR] [--verbose]
       tc_fuzz --replay PATH [--target NAME]";

fn main() -> ExitCode {
    cli::run("tc_fuzz", USAGE, fuzz)
}

fn fuzz(mut args: Args) -> Result<Outcome, String> {
    let seeds = match args.value::<String>("--seed")? {
        None => vec![1],
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("--seed: cannot parse `{list}`"))?,
    };
    let iters = args.value("--iters")?.unwrap_or(1000u64);
    let targets = match args.value::<String>("--target")? {
        None => TargetKind::ALL.to_vec(),
        Some(name) if name == "all" => TargetKind::ALL.to_vec(),
        Some(name) => vec![TargetKind::from_name(&name)
            .ok_or_else(|| format!("unknown target `{name}`\n{USAGE}"))?],
    };
    let corpus_out: Option<PathBuf> = args.value("--corpus-out")?;
    let replay: Option<PathBuf> = args.value("--replay")?;
    let verbose = args.flag("--verbose");
    let [] = args.exactly()?;

    // Parsers under fuzz panic on purpose; keep the default hook from
    // spraying a backtrace per caught panic.
    std::panic::set_hook(Box::new(|_| {}));

    let env = Env::new();
    if let Some(path) = replay {
        return replay_mode(&env, &path, targets);
    }

    let cfg = FuzzConfig {
        seeds,
        iters,
        targets,
        verbose,
    };
    let findings = run(&env, &cfg);
    for f in &findings {
        println!(
            "[{}] seed {} iter {}: {} — {}",
            f.target.name(),
            f.seed,
            f.iter,
            f.violation.kind(),
            f.violation.message()
        );
        println!("  shrunk input ({} bytes):", f.input.len());
        println!("  {:?}", String::from_utf8_lossy(&f.input));
        if let Some(dir) = &corpus_out {
            let tdir = dir.join(f.target.name());
            let file = tdir.join(format!(
                "{}-s{}-i{}.bin",
                f.violation.kind(),
                f.seed,
                f.iter
            ));
            std::fs::create_dir_all(&tdir)
                .and_then(|()| std::fs::write(&file, &f.input))
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            println!("  wrote {}", file.display());
        }
    }
    let iters_total = cfg.iters * cfg.seeds.len() as u64 * cfg.targets.len() as u64;
    println!(
        "tc_fuzz: {} iterations across {} target(s), {} finding(s)",
        iters_total,
        cfg.targets.len(),
        findings.len()
    );
    Ok(Outcome::clean_if(findings.is_empty()))
}

fn replay_mode(env: &Env, path: &Path, targets: Vec<TargetKind>) -> Result<Outcome, String> {
    let mut files: Vec<(TargetKind, PathBuf)> = Vec::new();
    if path.is_dir() {
        collect_dir(path, &targets, &mut files)?;
    } else {
        let one = (targets.len() == 1).then(|| targets[0]);
        let target = infer_target(path)
            .or(one)
            .ok_or_else(|| format!("cannot infer target for {}; pass --target", path.display()))?;
        files.push((target, path.to_path_buf()));
    }

    let mut violations = 0usize;
    for (target, file) in files {
        let input =
            std::fs::read(&file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        match env.check(target, &input) {
            Verdict::Accepted => println!("[{}] {}: accepted", target.name(), file.display()),
            Verdict::Rejected => {
                println!(
                    "[{}] {}: rejected (positioned)",
                    target.name(),
                    file.display()
                )
            }
            Verdict::Violation(v) => {
                violations += 1;
                let shrunk = shrink(env, target, &input);
                println!(
                    "[{}] {}: VIOLATION {} — {}",
                    target.name(),
                    file.display(),
                    v.kind(),
                    v.message()
                );
                println!(
                    "  shrunk ({} bytes): {:?}",
                    shrunk.len(),
                    String::from_utf8_lossy(&shrunk)
                );
            }
        }
    }
    Ok(Outcome::clean_if(violations == 0))
}

/// `corpus/<target>/entry` layout: the parent directory names the target.
fn infer_target(file: &Path) -> Option<TargetKind> {
    file.parent()
        .and_then(|d| d.file_name())
        .and_then(|n| n.to_str())
        .and_then(TargetKind::from_name)
}

fn collect_dir(
    dir: &Path,
    allowed: &[TargetKind],
    out: &mut Vec<(TargetKind, PathBuf)>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_dir(&p, allowed, out)?;
        } else if let Some(t) = infer_target(&p) {
            if allowed.contains(&t) {
                out.push((t, p));
            }
        }
    }
    Ok(())
}
