//! Seeded-defect acceptance suite: every rule class must fire on a
//! design broken one way at a time — and *only* the expected code may
//! fire — while the committed clean corpus and the generated benchmark
//! designs lint to zero findings.

use tc_closure::{ClosureConfig, ClosureFlow, FixKind};
use tc_core::ids::{CellId, NetId};
use tc_core::units::Ps;
use tc_interconnect::spef::NetParasitics;
use tc_interconnect::{parse_spef, BeolStack, WireModel};
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_lint::{decode_waivers, lint_liberty_source, lint_verilog_source, run_lint, LintContext};
use tc_netlist::gen::{generate, generate_streamed, BenchProfile};
use tc_netlist::{
    decode_journal, parse_verilog, replay_journal, write_journal, JournalCmd, Netlist, PinRef,
};
use tc_par::Pool;
use tc_sta::constraints::{Clock, Constraints};

fn lib() -> Library {
    Library::generate(&LibConfig::default(), &PvtCorner::typical())
}

fn corpus(rel: &str) -> String {
    let path = format!("{}/corpus/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
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

/// Full parasitics for every net, extracted from the annotated lengths.
fn full_spef(nl: &Netlist) -> Vec<NetParasitics> {
    let stack = BeolStack::n20();
    nl.nets()
        .map(|n| {
            let wm = WireModel::from_length(n.wire_length_um.max(1.0));
            NetParasitics::extract(n.name, &wm, &stack)
        })
        .collect()
}

/// Asserts `diags` is exactly one finding of `code`; returns its subject.
fn exactly_one(diags: &[tc_lint::Diagnostic], code: &str) -> String {
    assert_eq!(diags.len(), 1, "want exactly one {code}, got {diags:?}");
    assert_eq!(diags[0].code, code, "{diags:?}");
    diags[0].subject.clone()
}

// ---------------------------------------------------------------- clean

#[test]
fn committed_clean_corpus_lints_zero_findings() {
    let lib = lib();
    let vtext = corpus("clean/small.v");
    let nl = parse_verilog(&vtext, &lib).unwrap();
    let spef = parse_spef(&corpus("clean/small.spef"), &BeolStack::n20()).unwrap();
    let journal = decode_journal(&corpus("clean/small.tcj")).unwrap();
    let cons = Constraints::single_clock(500.0);
    let libtext = tc_liberty::write_liberty(&lib);

    let mut ctx = LintContext::new(&nl, &lib);
    ctx.verilog = Some((&vtext, "small.v"));
    ctx.constraints = Some(&cons);
    ctx.spef = Some(&spef);
    ctx.liberty = Some((&libtext, "lib.lib"));
    ctx.journal = Some(&journal);

    let diags = run_lint(&Pool::sequential(), &ctx);
    assert!(diags.is_empty(), "{diags:?}");

    // The committed waiver file decodes and is entirely stale here.
    let waivers = decode_waivers(&corpus("clean/small.tcw")).unwrap();
    let outcome = tc_lint::apply_waivers(diags, &waivers);
    assert!(outcome.active.is_empty());
    assert_eq!(outcome.unused, vec![0]);
}

#[test]
fn generated_benchmarks_lint_zero_findings() {
    let lib = lib();
    for profile in [BenchProfile::c5315(), BenchProfile::scale_50k()] {
        let name = profile.name;
        let mut nl = if name == "c5315" {
            generate(&lib, profile, 7).unwrap()
        } else {
            generate_streamed(&lib, profile, 7).unwrap()
        };
        tie_off(&mut nl);
        let spef = full_spef(&nl);
        let cons = Constraints::single_clock(500.0);
        let mut ctx = LintContext::new(&nl, &lib);
        ctx.constraints = Some(&cons);
        ctx.spef = Some(&spef);
        let diags = run_lint(&Pool::from_env(), &ctx);
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
}

// -------------------------------------------------------------- defects

#[test]
fn seeded_cycle_fires_tcl0101_naming_the_cells() {
    let lib = lib();
    let vtext = corpus("defect/cycle.v");
    let nl = parse_verilog(&vtext, &lib).unwrap();
    let cons = Constraints::single_clock(500.0);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.verilog = Some((&vtext, "cycle.v"));
    ctx.constraints = Some(&cons);
    let diags = run_lint(&Pool::sequential(), &ctx);
    exactly_one(&diags, "TCL0101");
    assert!(diags[0].message.contains("g2"), "{}", diags[0].message);
    assert!(diags[0].message.contains("g5"), "{}", diags[0].message);
}

#[test]
fn seeded_multidriver_fires_tcl0102_only() {
    let diags = lint_verilog_source(&corpus("defect/multidriver.v"), "multidriver.v");
    let subject = exactly_one(&diags, "TCL0102");
    assert_eq!(subject, "n1");
    assert!(diags[0].message.contains("g1.Y"), "{}", diags[0].message);
    assert!(diags[0].message.contains("g5.Y"), "{}", diags[0].message);
}

#[test]
fn seeded_undriven_fires_tcl0103_only() {
    let diags = lint_verilog_source(&corpus("defect/undriven.v"), "undriven.v");
    let subject = exactly_one(&diags, "TCL0103");
    assert_eq!(subject, "n1");
}

#[test]
fn seeded_dangling_net_fires_tcl0104_only() {
    let lib = lib();
    let mut nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
    tie_off(&mut nl);
    // A new inverter hanging off net 1 whose output nothing reads.
    let inv = lib.id_of("INV_X1_SVT").unwrap();
    nl.add_cell("u_dangle", &lib, inv, &[NetId::new(1)])
        .unwrap();
    let cons = Constraints::single_clock(500.0);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    let diags = run_lint(&Pool::sequential(), &ctx);
    exactly_one(&diags, "TCL0104");
}

#[test]
fn seeded_no_clocks_fires_tcl0201_only() {
    let lib = lib();
    let mut nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
    tie_off(&mut nl);
    let mut cons = Constraints::single_clock(500.0);
    cons.clocks.clear();
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    let diags = run_lint(&Pool::sequential(), &ctx);
    exactly_one(&diags, "TCL0201");
}

#[test]
fn seeded_ghost_clock_fires_tcl0202_only() {
    let lib = lib();
    let mut nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
    tie_off(&mut nl);
    let mut cons = Constraints::single_clock(500.0);
    cons.clocks = vec![Clock::new("clk_missing", Ps::new(500.0))];
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    let diags = run_lint(&Pool::sequential(), &ctx);
    let subject = exactly_one(&diags, "TCL0202");
    assert_eq!(subject, "clk_missing");
}

#[test]
fn seeded_unclocked_register_fires_tcl0203_only() {
    let lib = lib();
    let mut nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
    tie_off(&mut nl);
    // Re-home one flop's CK pin (pin 1: D, CK) onto a net no clock
    // reaches: a fresh primary input.
    let aux = nl.add_input("aux_not_a_clock");
    let flop = nl
        .cells()
        .enumerate()
        .find(|(_, c)| lib.cell(c.master).kind == tc_liberty::CellKind::Flop)
        .map(|(i, _)| CellId::new(i))
        .unwrap();
    nl.rewire_input(PinRef { cell: flop, pin: 1 }, aux);
    let cons = Constraints::single_clock(500.0);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    let diags = run_lint(&Pool::sequential(), &ctx);
    let subject = exactly_one(&diags, "TCL0203");
    assert_eq!(subject, nl.cell(flop).name);
}

#[test]
fn seeded_dead_exception_fires_tcl0204_only() {
    let lib = lib();
    let mut nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
    tie_off(&mut nl);
    let mut cons = Constraints::single_clock(500.0);
    // A comb cell is not a valid endpoint; a beyond-range id is dead.
    let comb = nl
        .cells()
        .enumerate()
        .find(|(_, c)| lib.cell(c.master).kind == tc_liberty::CellKind::Comb)
        .map(|(i, _)| CellId::new(i))
        .unwrap();
    cons.exceptions.false_path_endpoints.insert(comb);
    cons.exceptions
        .multicycle_endpoints
        .insert(CellId::new(nl.cell_count() + 5), 2);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    let diags = run_lint(&Pool::sequential(), &ctx);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.code == "TCL0204"), "{diags:?}");
}

#[test]
fn seeded_stale_spef_fires_tcl0301_only() {
    let lib = lib();
    let vtext = corpus("clean/small.v");
    let nl = parse_verilog(&vtext, &lib).unwrap();
    let mut spef = parse_spef(&corpus("clean/small.spef"), &BeolStack::n20()).unwrap();
    spef.extend(parse_spef(&corpus("defect/stale.spef"), &BeolStack::n20()).unwrap());
    let cons = Constraints::single_clock(500.0);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    ctx.spef = Some(&spef);
    let diags = run_lint(&Pool::sequential(), &ctx);
    let subject = exactly_one(&diags, "TCL0301");
    assert_eq!(subject, "ghost_net");
}

#[test]
fn seeded_missing_annotation_fires_tcl0302_only() {
    let lib = lib();
    let vtext = corpus("clean/small.v");
    let nl = parse_verilog(&vtext, &lib).unwrap();
    let mut spef = parse_spef(&corpus("clean/small.spef"), &BeolStack::n20()).unwrap();
    let dropped = spef.iter().position(|p| p.name == "q1").unwrap();
    spef.remove(dropped);
    let cons = Constraints::single_clock(500.0);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    ctx.spef = Some(&spef);
    let diags = run_lint(&Pool::sequential(), &ctx);
    let subject = exactly_one(&diags, "TCL0302");
    assert_eq!(subject, "q1");
}

#[test]
fn seeded_bad_axis_fires_tcl0401_only() {
    let diags = lint_liberty_source(&corpus("defect/badaxis.lib"), "badaxis.lib");
    let subject = exactly_one(&diags, "TCL0401");
    assert_eq!(subject, "INV_X1_SVT:A:cell_rise");
}

#[test]
fn seeded_nonmonotone_table_fires_tcl0402_only() {
    let diags = lint_liberty_source(&corpus("defect/nonmono.lib"), "nonmono.lib");
    let subject = exactly_one(&diags, "TCL0402");
    assert_eq!(subject, "INV_X1_SVT:A:cell_rise");
}

#[test]
fn seeded_dead_journal_ref_fires_tcl0501_only() {
    let lib = lib();
    let vtext = corpus("clean/small.v");
    let nl = parse_verilog(&vtext, &lib).unwrap();
    let journal = decode_journal(&corpus("defect/deadref.tcj")).unwrap();
    let cons = Constraints::single_clock(500.0);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    ctx.journal = Some(&journal);
    let diags = run_lint(&Pool::sequential(), &ctx);
    exactly_one(&diags, "TCL0501");
    assert!(diags[0].message.contains("999999"), "{}", diags[0].message);
}

/// Lints `cmds` against `nl` with nothing else attached.
fn lint_journal(nl: &Netlist, lib: &Library, cmds: &[JournalCmd]) -> Vec<tc_lint::Diagnostic> {
    let mut ctx = LintContext::new(nl, lib);
    ctx.journal = Some(cmds);
    let diags = run_lint(&Pool::sequential(), &ctx);
    diags.into_iter().filter(|d| d.code == "TCL0501").collect()
}

#[test]
fn journal_may_reference_the_cell_and_net_an_earlier_buf_appends() {
    // The lint check and the replay used to carry their own range
    // checks, and only replay knew that a BUF grows the design: this
    // journal replayed Ok but linted "SWAP references dead cell".
    let lib = lib();
    let mut nl = parse_verilog(&corpus("clean/small.v"), &lib).unwrap();
    let (new_cell, new_net) = (nl.cell_count(), nl.net_count());
    let victim = nl
        .nets()
        .position(|n| n.driver.is_some() && !n.sinks.is_empty())
        .unwrap();
    let sink = nl.net(NetId::new(victim)).sinks[0];
    let text = format!(
        "*TCJ 1\nBUF net {victim} master BUF_X2_SVT sinks {}:{}\n\
         SWAP cell {new_cell} master BUF_X4_SVT\nWIRELEN net {new_net} um 12.5\n",
        sink.cell.index(),
        sink.pin
    );
    let cmds = decode_journal(&text).unwrap();
    let diags = lint_journal(&nl, &lib, &cmds);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(replay_journal(&mut nl, &lib, &cmds).unwrap(), 3);

    // One past what the BUF appended is still dead, for both.
    let dead = format!("{text}SWAP cell {} master BUF_X4_SVT\n", new_cell + 1);
    let cmds = decode_journal(&dead).unwrap();
    let mut fresh = parse_verilog(&corpus("clean/small.v"), &lib).unwrap();
    let diags = lint_journal(&fresh, &lib, &cmds);
    assert_eq!(exactly_one(&diags, "TCL0501"), "entry 3");
    let err = replay_journal(&mut fresh, &lib, &cmds).unwrap_err();
    assert!(err.to_string().contains("entry 3"), "{err}");
}

#[test]
fn journal_exported_from_a_closure_run_lints_clean_and_replays() {
    let lib = lib();
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, BenchProfile::c5315(), 7).unwrap();
    let before = nl.clone();
    let cp = nl.journal_len();
    let probe = Constraints::single_clock(5_000.0);
    let wns = tc_sta::Sta::new(&nl, &lib, &stack, &probe)
        .run()
        .unwrap()
        .wns();
    let cons = Constraints::single_clock(5_000.0 - wns.value() - 600.0);
    // Buffers first, so the sizing passes get to resize them.
    let config = ClosureConfig {
        ordering: vec![FixKind::Buffering, FixKind::Sizing],
        ..ClosureConfig::default()
    };
    let out = ClosureFlow::new(&lib, &stack, config)
        .run(&mut nl, cons)
        .unwrap();
    let applied = |kind| {
        out.iterations
            .iter()
            .flat_map(|i| &i.fixes)
            .filter(|(k, _)| *k == kind)
            .map(|&(_, n)| n)
            .sum::<usize>()
    };
    assert!(applied(FixKind::Buffering) > 0, "the run must buffer");
    assert!(applied(FixKind::Sizing) > 0, "the run must size");

    let cmds = decode_journal(&write_journal(&nl, &lib, cp)).unwrap();
    let diags = lint_journal(&before, &lib, &cmds);
    assert!(diags.is_empty(), "{diags:?}");
    let mut copy = before;
    replay_journal(&mut copy, &lib, &cmds).unwrap();
    assert_eq!(copy.cell_count(), nl.cell_count());
}

// ------------------------------------------------------ scale telemetry

#[test]
fn scale_50k_lints_in_one_streaming_sweep_with_telemetry() {
    tc_obs::enable();
    let lib = lib();
    let mut nl = generate_streamed(&lib, BenchProfile::scale_50k(), 7).unwrap();
    tie_off(&mut nl);
    let spef = full_spef(&nl);
    let cons = Constraints::single_clock(500.0);
    let mut ctx = LintContext::new(&nl, &lib);
    ctx.constraints = Some(&cons);
    ctx.spef = Some(&spef);
    let diags = run_lint(&Pool::from_env(), &ctx);
    assert!(diags.is_empty(), "{diags:?}");
    let snap = tc_obs::snapshot();
    assert!(snap.span("lint.run").is_some());
}
