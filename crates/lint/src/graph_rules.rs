//! Graph passes over the built netlist: cycles, dangling nets, clock
//! and constraint coverage, SPEF cross-checks, journal liveness.
//!
//! Every pass is O(cells + nets + sinks) with dense id-indexed scratch —
//! no hash containers on the walk, no per-object strings except on an
//! actual finding — so the 50k/200k scale rungs lint in one streaming
//! sweep with bounded overhead.

use tc_interconnect::spef::NetParasitics;
use tc_liberty::{CellKind, Library};
use tc_netlist::{combinational_sccs, describe_scc, JournalCmd, JournalRefs, Netlist};
use tc_sta::constraints::Constraints;

use tc_core::error::Error;
use tc_core::ids::{CellId, NetId};

use crate::diag::{finding, Diagnostic};

/// Source label graph findings carry (there is no text position; the
/// subject names the object).
const NETLIST_SRC: &str = "netlist";

/// `TCL0101`: one finding per combinational SCC, naming its cells.
/// Shares [`combinational_sccs`] with `levelize`'s failure path, so the
/// lint report and the levelization error always agree.
pub fn check_cycles(nl: &Netlist, lib: &Library) -> Vec<Diagnostic> {
    combinational_sccs(nl, lib)
        .iter()
        .map(|comp| {
            finding(
                "TCL0101",
                nl.cell(comp[0]).name,
                format!("combinational cycle through {}", describe_scc(nl, comp)),
                NETLIST_SRC,
                None,
            )
        })
        .collect()
}

/// `TCL0104`: driven nets with no sinks that are not primary outputs.
/// Unused primary inputs are deliberately exempt — spare pins are
/// legitimate; a cell burning area and leakage into nothing is not.
pub fn check_dangling(nl: &Netlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for net in nl.nets() {
        if net.driver.is_some() && net.sinks.is_empty() && !net.is_output {
            out.push(finding(
                "TCL0104",
                net.name,
                "driven net has no sinks and is not a primary output",
                NETLIST_SRC,
                None,
            ));
        }
    }
    out
}

/// `TCL0201`/`TCL0202`/`TCL0203`/`TCL0204`: constraint coverage.
///
/// * no clocks at all → one `TCL0201` for the design (every register
///   and output endpoint is unconstrained);
/// * a clock whose name matches no primary-input net → `TCL0202`;
/// * with at least one resolved clock: every flop whose CK net is not
///   forward-reachable from a clock source through combinational cells
///   → `TCL0203`;
/// * timing exceptions referencing out-of-range or non-register cells
///   → `TCL0204`.
pub fn check_constraints(nl: &Netlist, lib: &Library, cons: &Constraints) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let flop_count = nl
        .cells()
        .filter(|c| lib.cell(c.master).kind == CellKind::Flop)
        .count();

    if cons.clocks.is_empty() {
        let endpoints = flop_count + nl.primary_outputs().count();
        out.push(finding(
            "TCL0201",
            nl.name.as_str(),
            format!("no clocks defined: all {endpoints} endpoints are unconstrained"),
            "constraints",
            None,
        ));
        return out;
    }

    // Clock roots: primary-input nets whose name matches a clock.
    let mut roots: Vec<NetId> = Vec::new();
    for clock in &cons.clocks {
        match nl
            .primary_inputs()
            .iter()
            .find(|&&n| nl.net(n).name == clock.name)
        {
            Some(&n) => roots.push(n),
            None => out.push(finding(
                "TCL0202",
                clock.name.as_str(),
                "clock has no matching primary-input net in the design",
                "constraints",
                None,
            )),
        }
    }

    // Forward reachability from the clock roots: combinational cells
    // propagate the clock (buffers/inverters of a clock tree); flops
    // consume it. Dense mark vector + explicit worklist.
    if !roots.is_empty() {
        let mut reach = vec![false; nl.net_count()];
        let mut work: Vec<NetId> = Vec::new();
        for &r in &roots {
            if !reach[r.index()] {
                reach[r.index()] = true;
                work.push(r);
            }
        }
        while let Some(n) = work.pop() {
            for sink in nl.net(n).sinks {
                let cell = nl.cell(sink.cell);
                if lib.cell(cell.master).kind == CellKind::Flop {
                    continue;
                }
                let o = cell.output;
                if !reach[o.index()] {
                    reach[o.index()] = true;
                    work.push(o);
                }
            }
        }
        for cell in nl.cells() {
            let master = lib.cell(cell.master);
            if master.kind != CellKind::Flop {
                continue;
            }
            let Some(ck_pin) = master.input_pins().iter().position(|&p| p == "CK") else {
                continue;
            };
            let ck_net = cell.inputs[ck_pin];
            if !reach[ck_net.index()] {
                out.push(finding(
                    "TCL0203",
                    cell.name,
                    format!(
                        "register clock pin is driven by {}, which no defined clock reaches",
                        nl.net(ck_net).name
                    ),
                    NETLIST_SRC,
                    None,
                ));
            }
        }
    }

    // Exception liveness. HashSet/HashMap iteration order is not
    // deterministic; collect ids and sort before reporting.
    let mut refs: Vec<(CellId, &'static str)> = Vec::new();
    for &c in &cons.exceptions.false_path_endpoints {
        refs.push((c, "false_path"));
    }
    for &c in cons.exceptions.multicycle_endpoints.keys() {
        refs.push((c, "multicycle"));
    }
    refs.sort_by_key(|&(c, _)| c.index());
    for (c, what) in refs {
        let dead = if c.index() >= nl.cell_count() {
            Some(format!(
                "{what} exception references cell #{} of {}",
                c.index(),
                nl.cell_count()
            ))
        } else if lib.cell(nl.cell(c).master).kind != CellKind::Flop {
            Some(format!(
                "{what} exception endpoint {} is not a register",
                nl.cell(c).name
            ))
        } else {
            None
        };
        if let Some(message) = dead {
            let subject = if c.index() < nl.cell_count() {
                nl.cell(c).name.to_string()
            } else {
                format!("cell#{}", c.index())
            };
            out.push(finding("TCL0204", subject, message, "constraints", None));
        }
    }
    out
}

/// `TCL0301`/`TCL0302`: SPEF ↔ netlist connectivity cross-check.
///
/// Every annotated net must exist in the netlist (`TCL0301`, error: the
/// parasitics belong to a different design revision) and every netlist
/// net should be annotated (`TCL0302`, warning: incomplete extraction —
/// those nets silently fall back to estimated parasitics). Name lookup
/// goes through the netlist's FNV-1a index over its own name table:
/// O(N + S), nothing copied. Of several nets sharing a name, the SPEF
/// entry covers the first.
pub fn check_spef(nl: &Netlist, spef: &[NetParasitics]) -> Vec<Diagnostic> {
    let index = nl.net_name_index();
    let mut covered = vec![false; nl.net_count()];
    let mut out = Vec::new();
    for p in spef {
        match index.find(&p.name) {
            Some(net) => covered[net.index()] = true,
            None => out.push(finding(
                "TCL0301",
                p.name.as_str(),
                "SPEF annotates a net that does not exist in the netlist",
                "spef",
                None,
            )),
        }
    }
    for (i, _) in covered.iter().enumerate().filter(|&(_, &c)| !c) {
        out.push(finding(
            "TCL0302",
            nl.net(NetId::new(i)).name,
            "net has no SPEF annotation (falls back to estimated parasitics)",
            "spef",
            None,
        ));
    }
    out
}

/// `TCL0501`: ECO-journal reference liveness, checked *without*
/// replaying the journal, by the resolver replay itself uses
/// ([`JournalRefs`]) — so a reference lints dead exactly when replay
/// would refuse it, including references to the cell and net an earlier
/// `BUF` entry appends. Positions use the journal entry index (the
/// `entry N` convention the journal decoder itself reports).
pub fn check_journal(nl: &Netlist, lib: &Library, cmds: &[JournalCmd]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut refs = JournalRefs::new(nl);
    for (i, cmd) in cmds.iter().enumerate() {
        let Err(Error::NotFound(what) | Error::InvalidInput(what)) = refs.resolve(nl, lib, cmd)
        else {
            continue;
        };
        let verb = match cmd {
            JournalCmd::Swap { .. } => "SWAP",
            JournalCmd::SetWireLength { .. } => "WIRELEN",
            JournalCmd::SetRouteClass { .. } => "ROUTE",
            JournalCmd::InsertBuffer { .. } => "BUF",
            JournalCmd::Rewire { .. } => "REWIRE",
        };
        out.push(finding(
            "TCL0501",
            format!("entry {i}"),
            format!("{verb} references {what}"),
            "journal",
            Some(i),
        ));
    }
    out
}
