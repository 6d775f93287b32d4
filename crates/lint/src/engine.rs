//! The lint engine: a rule registry driven in parallel over a
//! [`LintContext`], with deterministic output ordering and `lint.*`
//! telemetry.
//!
//! Each rule is a pure function of the context; rules never see each
//! other's findings, so [`tc_par::Pool::scope_map`] can run them
//! concurrently and the engine flattens results in fixed rule-registry
//! order — the report is byte-identical at any thread count.

use tc_interconnect::spef::NetParasitics;
use tc_liberty::Library;
use tc_netlist::{JournalCmd, Netlist};
use tc_obs as obs;
use tc_par::Pool;
use tc_sta::constraints::Constraints;

use crate::diag::Diagnostic;
use crate::{graph_rules, liberty_check, source};

/// Everything a lint run may look at. Optional surfaces simply skip the
/// rules that need them; the netlist+library pair is the only required
/// input.
pub struct LintContext<'a> {
    /// The design under analysis.
    pub netlist: &'a Netlist,
    /// The library its masters resolve against.
    pub library: &'a Library,
    /// Timing constraints; `None` skips the 02xx rules entirely
    /// (distinct from "constraints present but empty", which is the
    /// `TCL0201` finding).
    pub constraints: Option<&'a Constraints>,
    /// Parsed SPEF annotation; `None` skips the 03xx cross-check.
    pub spef: Option<&'a [NetParasitics]>,
    /// Raw structural-Verilog text and its label, for the source rules
    /// the built netlist cannot express.
    pub verilog: Option<(&'a str, &'a str)>,
    /// Raw Liberty text and its label, for the 04xx table rules.
    pub liberty: Option<(&'a str, &'a str)>,
    /// Decoded ECO journal; `None` skips `TCL0501`.
    pub journal: Option<&'a [JournalCmd]>,
}

impl<'a> LintContext<'a> {
    /// A context with only the required design inputs; attach optional
    /// surfaces by assigning the public fields.
    pub fn new(netlist: &'a Netlist, library: &'a Library) -> Self {
        LintContext {
            netlist,
            library,
            constraints: None,
            spef: None,
            verilog: None,
            liberty: None,
            journal: None,
        }
    }
}

/// One registered pass: a telemetry name plus the function that runs it.
struct Pass {
    /// Span leaf name (`lint.rule.<name>`).
    name: &'static str,
    run: fn(&LintContext<'_>) -> Vec<Diagnostic>,
}

/// Fixed pass registry. Output order of [`run_lint`] follows this
/// order, regardless of which pass finishes first.
const PASSES: &[Pass] = &[
    Pass {
        name: "source",
        run: |ctx| match ctx.verilog {
            Some((text, label)) => source::lint_verilog_source(text, label),
            None => Vec::new(),
        },
    },
    Pass {
        name: "cycles",
        run: |ctx| graph_rules::check_cycles(ctx.netlist, ctx.library),
    },
    Pass {
        name: "dangling",
        run: |ctx| graph_rules::check_dangling(ctx.netlist),
    },
    Pass {
        name: "constraints",
        run: |ctx| match ctx.constraints {
            Some(cons) => graph_rules::check_constraints(ctx.netlist, ctx.library, cons),
            None => Vec::new(),
        },
    },
    Pass {
        name: "spef",
        run: |ctx| match ctx.spef {
            Some(spef) => graph_rules::check_spef(ctx.netlist, spef),
            None => Vec::new(),
        },
    },
    Pass {
        name: "liberty",
        run: |ctx| match ctx.liberty {
            Some((text, label)) => liberty_check::lint_liberty_source(text, label),
            None => Vec::new(),
        },
    },
    Pass {
        name: "journal",
        run: |ctx| match ctx.journal {
            Some(cmds) => graph_rules::check_journal(ctx.netlist, ctx.library, cmds),
            None => Vec::new(),
        },
    },
];

/// Runs every registered pass over `ctx` on `pool` and returns the
/// findings in registry order (and, within a pass, in that pass's own
/// deterministic order).
///
/// Telemetry (when [`tc_obs::enable`] is armed): the whole run under a
/// `lint.run` span, each pass under `lint.rule.<name>`, and counters
/// `lint.findings` / `lint.errors` / `lint.warnings`.
pub fn run_lint(pool: &Pool, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let _run = obs::span("lint.run");
    let per_pass: Vec<Vec<Diagnostic>> = pool.scope_map(PASSES, |_, pass| {
        let _s = obs::span(&format!("lint.rule.{}", pass.name));
        (pass.run)(ctx)
    });
    let mut out: Vec<Diagnostic> = per_pass.into_iter().flatten().collect();
    // Pass order is already deterministic; keep it, but make the
    // invariant explicit for any future pass that interleaves surfaces.
    let mut errors = 0u64;
    let mut warnings = 0u64;
    for d in &out {
        match d.severity {
            crate::diag::Severity::Error => errors += 1,
            crate::diag::Severity::Warning => warnings += 1,
        }
    }
    obs::counter("lint.findings").add(out.len() as u64);
    obs::counter("lint.errors").add(errors);
    obs::counter("lint.warnings").add(warnings);
    out.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ids::NetId;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    /// Generated designs legitimately leave some gate outputs unloaded;
    /// mark them as observed so "clean" means clean.
    fn tie_off(nl: &mut Netlist) {
        let dangling: Vec<NetId> = nl
            .nets()
            .enumerate()
            .filter(|(_, n)| n.driver.is_some() && n.sinks.is_empty() && !n.is_output)
            .map(|(i, _)| NetId::new(i))
            .collect();
        for n in dangling {
            nl.mark_output(n);
        }
    }

    #[test]
    fn clean_generated_design_lints_clean() {
        let lib = lib();
        let mut nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
        tie_off(&mut nl);
        let cons = Constraints::single_clock(500.0);
        let mut ctx = LintContext::new(&nl, &lib);
        ctx.constraints = Some(&cons);
        let diags = run_lint(&Pool::sequential(), &ctx);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let lib = lib();
        let nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
        let mut cons = Constraints::single_clock(500.0);
        cons.clocks.clear();
        let mut ctx = LintContext::new(&nl, &lib);
        ctx.constraints = Some(&cons);
        let seq = run_lint(&Pool::sequential(), &ctx);
        let par = run_lint(&Pool::new(4), &ctx);
        assert_eq!(seq, par);
        assert!(seq.iter().any(|d| d.code == "TCL0201"));
    }
}
