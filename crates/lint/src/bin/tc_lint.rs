//! The `tc_lint` CLI: static design-rule analysis over a structural-
//! Verilog design and its side files, without running STA.
//!
//! ```text
//! tc_lint --verilog design.v [--spef design.spef] [--liberty lib.lib]
//!         [--journal eco.tcj] [--waivers baseline.tcw]
//!         [--clock-period PS] [--no-clock] [--json] [--quiet]
//! tc_lint --rules
//! ```
//!
//! Exit codes follow the shared [`tc_obs::cli`] contract: `0` — clean
//! (no unwaived findings); `1` — findings remain after waivers; `2` —
//! usage, I/O, or parse error with nothing actionable to report.
//! When the source scan already explains why a parse failed (a
//! multi-driven or undriven net), the findings are the diagnosis and
//! the exit is `1`, not `2`.

use std::process::ExitCode;

use tc_interconnect::{parse_spef, BeolStack};
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_lint::{apply_waivers, decode_waivers, render_text, run_lint, LintContext, Severity, RULES};
use tc_netlist::{decode_journal, parse_verilog};
use tc_obs::cli::{self, Args, Outcome};
use tc_obs::JsonValue;
use tc_par::Pool;
use tc_sta::constraints::Constraints;

const USAGE: &str = "\
usage: tc_lint --verilog design.v [--spef design.spef] [--liberty lib.lib]
       [--journal eco.tcj] [--waivers baseline.tcw]
       [--clock-period PS] [--no-clock] [--json] [--quiet]
       tc_lint --rules

Static design-rule analysis: connectivity, clocking, SPEF/netlist
cross-checks, Liberty table sanity, ECO-journal liveness. Runs no
timing. Exit 0 = clean, 1 = unwaived findings, 2 = usage/IO error.
--no-clock skips the constraint rules; --clock-period sets the
single-clock period used for them (default 500 ps). --rules prints
the rule catalog.";

/// Trailing path component, used as the findings' source label.
fn label(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// How [`report`] renders what survives the waivers.
struct Output {
    waivers: Option<String>,
    json: bool,
    quiet: bool,
}

fn main() -> ExitCode {
    cli::run("tc_lint", USAGE, lint)
}

fn lint(mut args: Args) -> Result<Outcome, String> {
    if args.flag("--rules") {
        for r in RULES {
            println!("{} {:7} {}", r.code, r.severity.label(), r.title);
        }
        return Ok(Outcome::Clean);
    }
    let verilog: Option<String> = args.value("--verilog")?;
    let spef: Option<String> = args.value("--spef")?;
    let liberty: Option<String> = args.value("--liberty")?;
    let journal: Option<String> = args.value("--journal")?;
    let clock_period = match args.value::<f64>("--clock-period")? {
        Some(p) if p > 0.0 => p,
        Some(_) => return Err("--clock-period needs a positive number of ps".to_string()),
        None => 500.0,
    };
    let no_clock = args.flag("--no-clock");
    let output = Output {
        waivers: args.value("--waivers")?,
        json: args.flag("--json"),
        quiet: args.flag("--quiet"),
    };
    let [] = args.exactly()?;
    let vpath = verilog.ok_or_else(|| format!("--verilog is required\n{USAGE}"))?;
    let vtext = cli::read(&vpath)?;

    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());

    // The source scan runs before the parse: if the parse then fails
    // because of a defect the scan already explains, the findings are
    // the report and the exit is 1.
    let source_findings = tc_lint::lint_verilog_source(&vtext, label(&vpath));
    let netlist = match parse_verilog(&vtext, &lib) {
        Ok(nl) => nl,
        Err(e) if source_findings.is_empty() => return Err(format!("{vpath}: {e}")),
        Err(e) => {
            eprintln!("tc_lint: note: {vpath} does not parse ({e}); reporting the scan findings");
            return report(source_findings, &output);
        }
    };

    let spef = spef
        .map(|p| parse_spef(&cli::read(&p)?, &BeolStack::n20()).map_err(|e| format!("{p}: {e}")))
        .transpose()?;
    let liberty = liberty
        .map(|p| cli::read(&p).map(|t| (t, label(&p).to_string())))
        .transpose()?;
    let journal = journal
        .map(|p| decode_journal(&cli::read(&p)?).map_err(|e| format!("{p}: {e}")))
        .transpose()?;
    let constraints = (!no_clock).then(|| Constraints::single_clock(clock_period));

    let mut ctx = LintContext::new(&netlist, &lib);
    ctx.verilog = Some((&vtext, label(&vpath)));
    ctx.constraints = constraints.as_ref();
    ctx.spef = spef.as_deref();
    ctx.liberty = liberty.as_ref().map(|(t, l)| (t.as_str(), l.as_str()));
    ctx.journal = journal.as_deref();

    // `run_lint` re-runs the source pass; feed it through the engine so
    // ordering and telemetry stay uniform, not the pre-scan copy.
    report(run_lint(&Pool::from_env(), &ctx), &output)
}

/// Applies waivers, prints the report, and maps findings to the exit
/// code.
fn report(findings: Vec<tc_lint::Diagnostic>, args: &Output) -> Result<Outcome, String> {
    let waivers = match args.waivers.as_deref() {
        None => Vec::new(),
        Some(p) => decode_waivers(&cli::read(p)?).map_err(|e| format!("{p}: {e}"))?,
    };
    let outcome = apply_waivers(findings, &waivers);

    if args.json {
        let json = JsonValue::obj([
            ("active", tc_lint::render_json(&outcome.active)),
            (
                "waived",
                JsonValue::Arr(outcome.waived.iter().map(|(d, _)| d.to_json()).collect()),
            ),
            (
                "unused_waivers",
                JsonValue::Arr(
                    outcome
                        .unused
                        .iter()
                        .map(|&i| JsonValue::Num(i as f64))
                        .collect(),
                ),
            ),
        ]);
        println!("{}", json.render());
    } else if !args.quiet {
        print!("{}", render_text(&outcome.active));
        let errors = outcome
            .active
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = outcome.active.len() - errors;
        println!(
            "tc_lint: {} error(s), {} warning(s), {} waived, {} stale waiver(s)",
            errors,
            warnings,
            outcome.waived.len(),
            outcome.unused.len()
        );
    }
    Ok(Outcome::clean_if(outcome.active.is_empty()))
}
