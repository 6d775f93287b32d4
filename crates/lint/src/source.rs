//! Structural-Verilog source scan: connectivity rules the netlist data
//! structure cannot even represent.
//!
//! The SoA [`tc_netlist::Netlist`] mints a fresh output net per cell and
//! validates single drivers, so a multi-driven or undriven net can never
//! exist *after* ingest — `parse_verilog` rejects such files outright
//! with a bare "duplicate net" / "not found" error. Admission control
//! wants more than rejection: this pass reads the source through the
//! parser's own reader ([`read_statements`]) — so statement boundaries, start
//! lines and connection splitting are the parser's by construction —
//! and reports *positioned* findings naming every driver of the
//! offending net, before any parse is attempted. A statement the reader
//! rejects is skipped: it is the parser's error to report, and the rest
//! of the file still gets scanned.
//!
//! The scan is master-agnostic: it follows the workspace convention that
//! `.Y(net)` is the (single) output connection of an instance and every
//! other connection is an input. It never allocates more than the
//! per-net connection table — O(nets + connections) for any input size.

use tc_netlist::verilog::{read_statements, Statement};
use tc_netlist::Interner;

use crate::diag::{finding, Diagnostic};

/// Who drives a net: an `input` declaration, or the `.Y` of the
/// instance with this id in the scan's instance-name table.
#[derive(Clone, Copy)]
enum Driver {
    Input,
    Instance(usize),
}

/// Everything the scan learned about one net name.
#[derive(Default)]
struct NetUse {
    /// Everything that drives the net, in source order, with its line.
    drivers: Vec<(Driver, usize)>,
    /// Line of the `output` declaration, if any.
    declared_output: Option<usize>,
    /// Line of the first input-pin reference, and total count.
    first_sink: Option<usize>,
    sink_count: usize,
}

/// Net names in first-seen order, which is the order findings come in,
/// and what the scan learned about each.
#[derive(Default)]
struct Nets {
    names: Interner,
    uses: Vec<NetUse>,
}

impl Nets {
    fn entry(&mut self, name: &str) -> &mut NetUse {
        let (i, added) = self.names.intern(name);
        if added {
            self.uses.push(NetUse::default());
        }
        &mut self.uses[i]
    }
}

/// Scans structural-Verilog text for connectivity defects.
///
/// Emits `TCL0102` for every net with more than one driver (`.Y`
/// connections and `input` declarations both count), positioned at the
/// second driver, and `TCL0103` for every net that is referenced by an
/// input pin or `output` declaration but never driven, positioned at the
/// first reference. `label` names the stream in the findings
/// (`design.v`).
pub fn lint_verilog_source(text: &str, label: &str) -> Vec<Diagnostic> {
    let mut nets = Nets::default();
    let mut instances = Interner::default();

    let scanned = read_statements(text.as_bytes(), |line, stmt| {
        match stmt {
            Ok(Statement::Input(names)) => {
                for &n in names {
                    nets.entry(n).drivers.push((Driver::Input, line));
                }
            }
            Ok(Statement::Output(names)) => {
                for &n in names {
                    nets.entry(n).declared_output.get_or_insert(line);
                }
            }
            Ok(Statement::Instance { name, conns, .. }) => {
                for &(pin, net) in conns {
                    let u = nets.entry(net);
                    if pin == "Y" {
                        let inst = instances.intern(name).0;
                        u.drivers.push((Driver::Instance(inst), line));
                    } else {
                        u.first_sink.get_or_insert(line);
                        u.sink_count += 1;
                    }
                }
            }
            Ok(Statement::Module(_)) | Err(_) => {}
        }
        Ok(())
    });
    debug_assert!(scanned.is_ok(), "a str reads without error: {scanned:?}");

    let mut out = Vec::new();
    for (i, u) in nets.uses.iter().enumerate() {
        let name = nets.names.get(i);
        if let [_, extra, ..] = u.drivers.as_slice() {
            let who: Vec<String> = u
                .drivers
                .iter()
                .map(|&(who, l)| match who {
                    Driver::Input => format!("input declaration (line {l})"),
                    Driver::Instance(inst) => format!("{}.Y (line {l})", instances.get(inst)),
                })
                .collect();
            out.push(finding(
                "TCL0102",
                name,
                format!("net has {} drivers: {}", who.len(), who.join(", ")),
                label,
                Some(extra.1),
            ));
        } else if u.drivers.is_empty() {
            let referenced = u.sink_count > 0 || u.declared_output.is_some();
            if referenced {
                let line = u.first_sink.or(u.declared_output);
                let what = if u.sink_count > 0 {
                    format!("referenced by {} input pin(s)", u.sink_count)
                } else {
                    "declared as an output port".to_string()
                };
                out.push(finding(
                    "TCL0103",
                    name,
                    format!("net is never driven but {what}"),
                    label,
                    line,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "module t (a, y);\n  input a;\n  output y;\n\n  INV_X1_SVT u1 (.A(a), .Y(n1));\n  INV_X1_SVT u2 (.A(n1), .Y(y));\nendmodule\n";

    #[test]
    fn clean_text_scans_clean() {
        assert!(lint_verilog_source(CLEAN, "t.v").is_empty());
    }

    #[test]
    fn double_driver_is_positioned_at_the_extra_driver() {
        let text = CLEAN.replace("endmodule", "  INV_X1_SVT u3 (.A(a), .Y(n1));\nendmodule");
        let diags = lint_verilog_source(&text, "t.v");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "TCL0102");
        assert_eq!(diags[0].subject, "n1");
        assert_eq!(diags[0].line, Some(7));
        assert!(diags[0].message.contains("u1.Y"), "{}", diags[0].message);
        assert!(diags[0].message.contains("u3.Y"), "{}", diags[0].message);
    }

    #[test]
    fn driving_a_primary_input_is_multi_driver() {
        let text = CLEAN.replace(".Y(n1)", ".Y(a)").replace(".A(n1)", ".A(a)");
        let diags = lint_verilog_source(&text, "t.v");
        assert!(
            diags
                .iter()
                .any(|d| d.code == "TCL0102" && d.subject == "a"),
            "{diags:?}"
        );
    }

    #[test]
    fn undriven_reference_is_flagged_at_first_use() {
        let text = CLEAN.replace("  INV_X1_SVT u1 (.A(a), .Y(n1));\n", "");
        let diags = lint_verilog_source(&text, "t.v");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "TCL0103");
        assert_eq!(diags[0].subject, "n1");
        assert_eq!(diags[0].line, Some(5));
    }

    #[test]
    fn undriven_output_port_is_flagged() {
        let text = "module t (a, y);\n  input a;\n  output y;\n  INV_X1_SVT u1 (.A(a), .Y(n1));\nendmodule\n";
        let diags = lint_verilog_source(text, "t.v");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "TCL0103");
        assert_eq!(diags[0].subject, "y");
    }

    #[test]
    fn statements_spanning_lines_keep_their_start_line() {
        let text = "module t (a, y);\n  input a;\n  output y;\n  INV_X1_SVT u1\n    (.A(a),\n     .Y(y));\n  INV_X1_SVT u2 (.A(q), .Y(n2));\n  INV_X1_SVT u3 (.A(n2), .Y(n3));\nendmodule\n";
        let diags = lint_verilog_source(text, "t.v");
        // q undriven (line 7); n3 is driven-but-unloaded, which is the
        // graph pass's business, not the scan's.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].subject, "q");
        assert_eq!(diags[0].line, Some(7));
    }
}
