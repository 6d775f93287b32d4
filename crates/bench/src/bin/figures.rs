//! Runs the paper's figures: `figures [name…]`, all of them by default.
//! For each it prints the tables, notes and claims and leaves its
//! sidecars through [`tc_bench::emit`], with the span profile, trace
//! and heap totals of the figure's own run ([`tc_bench::run_figure`]);
//! a run of all figures also writes `BENCH_figures.json`, the document
//! the committed baseline of the same name is copied from. Exits 1 if any claim fails, 2 on an
//! unknown figure name.

use std::process::ExitCode;

use tc_bench::figures::FIGURES;
use tc_bench::{emit, run_figure, write_sidecar};

fn main() -> std::io::Result<ExitCode> {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| !FIGURES.iter().any(|(f, _)| f == n)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!("unknown figure {bad}; known: {}", known.join(" "));
        return Ok(ExitCode::from(2));
    }
    let selected = FIGURES
        .iter()
        .filter(|(f, _)| names.is_empty() || names.iter().any(|n| n == f));
    let (mut failed, mut docs) = (Vec::new(), Vec::new());
    for (name, run) in selected {
        println!("\n##### {name}");
        let fig = run_figure(*run);
        print!("{}", fig.render());
        emit(name, &fig.doc(), &fig.artifact)?;
        if !fig.holds() {
            failed.push(*name);
        }
        docs.push(format!("\"{name}\":{}", fig.doc().render()));
    }
    if names.is_empty() {
        write_sidecar(
            "BENCH_figures.json",
            &format!("{{\n{}\n}}\n", docs.join(",\n")),
        )?;
    }
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("claims failed in: {}", failed.join(" "));
    Ok(ExitCode::FAILURE)
}
