//! Structural-Verilog export and import.
//!
//! The gate-level netlist is the handoff artifact between synthesis and
//! physical design; this module writes a netlist as a flat structural
//! Verilog module (instances of library masters with named port
//! connections) and parses that subset back, so designs can be stored,
//! diffed, or exchanged with other tools.
//!
//! Subset: one `module` with `input`/`output`/`wire` declarations and
//! instantiations of the form `MASTER name (.A(net), .B(net), .Y(net));`.
//!
//! Import is streaming: [`parse_verilog_from`] consumes any [`BufRead`]
//! one statement at a time, so a million-cell netlist file is never
//! materialized in memory — only the netlist being built grows with the
//! design. [`parse_verilog`] wraps it for in-memory strings.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::BufRead;

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, NetId};
use tc_liberty::Library;

use crate::graph::{Netlist, PinRef};

/// Verilog-2005 keywords that a sanitized name must not collide with —
/// an instance or wire called `wire` or `module` would make the emitted
/// file unparseable by any conforming tool (and by our own parser).
const RESERVED: &[&str] = &[
    "always",
    "and",
    "assign",
    "begin",
    "buf",
    "case",
    "endcase",
    "endfunction",
    "endgenerate",
    "endmodule",
    "endtask",
    "else",
    "end",
    "for",
    "function",
    "generate",
    "if",
    "initial",
    "inout",
    "input",
    "integer",
    "localparam",
    "module",
    "nand",
    "negedge",
    "nor",
    "not",
    "or",
    "output",
    "parameter",
    "posedge",
    "real",
    "reg",
    "signed",
    "supply0",
    "supply1",
    "task",
    "time",
    "tri",
    "while",
    "wire",
    "xnor",
    "xor",
];

/// Sanitizes a name into a plain Verilog identifier:
/// `[a-zA-Z_][a-zA-Z0-9_]*`, never a reserved word. Non-ASCII characters
/// (which `char::is_alphanumeric` would wave through) are mapped to `_`
/// like any other illegal byte.
fn ident(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.as_bytes()[0].is_ascii_digit() {
        s.insert(0, 'n');
    }
    if RESERVED.contains(&s.as_str()) {
        s.push('_');
    }
    s
}

/// Serializes a netlist to structural Verilog.
///
/// Net and instance identifiers are uniquified against a shared
/// namespace: two distinct names that sanitize to the same identifier
/// (`u.1` vs `u_1`) get numeric suffixes, so the emitted text always
/// reparses to the same structure. Names that are already distinct
/// identifiers — everything our generators produce — come through
/// byte-identical.
pub fn write_verilog(nl: &Netlist, lib: &Library) -> String {
    let mut out = String::new();
    let mut used: HashSet<String> = HashSet::new();
    let claim = |name: &str, used: &mut HashSet<String>| -> String {
        let base = ident(name);
        if used.insert(base.clone()) {
            return base;
        }
        let mut k = 2usize;
        loop {
            let cand = format!("{base}_{k}");
            if used.insert(cand.clone()) {
                return cand;
            }
            k += 1;
        }
    };
    let net_names: Vec<String> = nl.nets().map(|n| claim(n.name, &mut used)).collect();
    let cell_names: Vec<String> = nl.cells().map(|c| claim(c.name, &mut used)).collect();
    let net_name = |id: NetId| net_names[id.index()].as_str();

    let inputs: Vec<&str> = nl.primary_inputs().iter().map(|&n| net_name(n)).collect();
    let outputs: Vec<&str> = nl.primary_outputs().map(net_name).collect();
    let mut ports = inputs.clone();
    ports.extend(outputs.iter().copied());

    let _ = writeln!(out, "module {} ({});", ident(&nl.name), ports.join(", "));
    for i in &inputs {
        let _ = writeln!(out, "  input {i};");
    }
    for o in &outputs {
        let _ = writeln!(out, "  output {o};");
    }
    // Internal wires: every net that is neither a PI nor a PO.
    for (i, net) in nl.nets().enumerate() {
        let id = NetId::new(i);
        if nl.primary_inputs().contains(&id) || net.is_output {
            continue;
        }
        let _ = writeln!(out, "  wire {};", net_name(id));
    }
    let _ = writeln!(out);

    for (i, cell) in nl.cells().enumerate() {
        let master = lib.cell(cell.master);
        let mut conns: Vec<String> = master
            .input_pins()
            .iter()
            .zip(cell.inputs)
            .map(|(pin, &net)| format!(".{pin}({})", net_name(net)))
            .collect();
        conns.push(format!(".Y({})", net_name(cell.output)));
        let _ = writeln!(
            out,
            "  {} {} ({});",
            master.name,
            cell_names[i],
            conns.join(", ")
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// One `;`-terminated statement of the structural subset, split into
/// its parts. Names borrow from the reader's statement buffer.
#[derive(Debug, PartialEq)]
pub enum Statement<'a> {
    /// `module NAME (ports)`: the module name.
    Module(&'a str),
    /// `input a, b`: the declared names.
    Input(Vec<&'a str>),
    /// `output a, b`: the declared names.
    Output(Vec<&'a str>),
    /// `MASTER name (.PIN(net), ...)`.
    Instance {
        /// Library master name.
        master: &'a str,
        /// Instance name.
        name: &'a str,
        /// `(pin, net)` per connection, in source order; neither is empty.
        conns: Vec<(&'a str, &'a str)>,
    },
}

/// The one reader of the structural subset, shared by [`parse_verilog_from`]
/// and `tc-lint`'s source scan: strips `//` comments, joins continuation
/// lines, splits on `;` and hands `visit` each statement with the line
/// it started on, one at a time (the file is never held). Blank
/// statements, `endmodule` and `wire` declarations (wires are implied by
/// their drivers) are skipped. A malformed statement reaches `visit` as
/// an `Err` naming its line: the parser returns it and reading stops, a
/// scan that wants every finding returns `Ok` and reading goes on.
///
/// # Errors
///
/// The first `Err` from `visit`, or a read error (I/O, invalid UTF-8)
/// as [`Error::InvalidInput`] naming its line.
pub fn read_statements<R: BufRead>(
    mut reader: R,
    mut visit: impl FnMut(usize, Result<Statement<'_>>) -> Result<()>,
) -> Result<()> {
    let mut report = |stmt: &str, line: usize| match stmt.trim() {
        "" | "endmodule" => Ok(()),
        stmt if stmt.starts_with("wire ") => Ok(()),
        stmt => visit(line, classify(stmt, line)),
    };
    let mut line = String::new();
    let mut buf = String::new();
    let mut lineno = 0usize;
    // Line on which the statement currently accumulating in `buf` began.
    let mut stmt_line = 1usize;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| Error::invalid_input(format!("line {}: read: {e}", lineno + 1)))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        // Strip line comments, join continuation lines with a space.
        let code = line.split("//").next().unwrap_or("").trim_end();
        if buf.is_empty() {
            stmt_line = lineno;
        } else {
            buf.push(' ');
        }
        buf.push_str(code);
        while let Some(pos) = buf.find(';') {
            report(&buf[..pos], stmt_line)?;
            buf.drain(..=pos);
            // Whatever trails the `;` came from the current line.
            stmt_line = lineno;
        }
    }
    report(&buf, stmt_line)
}

fn classify(stmt: &str, line: usize) -> Result<Statement<'_>> {
    fn names(list: &str) -> Vec<&str> {
        list.split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .collect()
    }
    if let Some(rest) = stmt.strip_prefix("module ") {
        Ok(Statement::Module(
            rest.split('(').next().unwrap_or("").trim(),
        ))
    } else if let Some(rest) = stmt.strip_prefix("input ") {
        Ok(Statement::Input(names(rest)))
    } else if let Some(rest) = stmt.strip_prefix("output ") {
        Ok(Statement::Output(names(rest)))
    } else {
        instance(stmt, line)
    }
}

fn instance(stmt: &str, line: usize) -> Result<Statement<'_>> {
    let open = stmt
        .find('(')
        .ok_or_else(|| Error::invalid_input(format!("line {line}: bad statement: {stmt}")))?;
    let mut head = stmt[..open].split_whitespace();
    let (Some(master), Some(name), None) = (head.next(), head.next(), head.next()) else {
        return Err(Error::invalid_input(format!(
            "line {line}: bad instance head: {stmt}"
        )));
    };
    // The closing paren must come after the opening one: on input like
    // `X) Y(;` a naive `rfind` slice would panic with an inverted range
    // instead of reporting the malformed statement.
    let close = match stmt.rfind(')') {
        Some(c) if c > open => c,
        Some(_) => {
            return Err(Error::invalid_input(format!(
                "line {line}: unterminated connection list: {stmt}"
            )))
        }
        None => stmt.len(),
    };
    let conns = stmt[open + 1..close]
        .split(',')
        .map(|c| {
            let c = c.trim().trim_start_matches('.');
            c.split_once('(')
                .map(|(pin, net)| (pin.trim(), net.trim_end_matches(')').trim()))
                .filter(|(pin, net)| !pin.is_empty() && !net.is_empty())
                .ok_or_else(|| Error::invalid_input(format!("line {line}: bad connection: {c}")))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Statement::Instance {
        master,
        name,
        conns,
    })
}

/// Netlist construction over the statement stream. Cells and nets are
/// created as their statements arrive; only the input pins wait for the
/// end of the file, because a pin may name a net driven further down.
#[derive(Default)]
struct Parser {
    nl: Netlist,
    /// Net name → symbol: a name is hashed and stored once, however
    /// many pins mention it.
    symbols: HashMap<String, usize>,
    /// Per symbol: the net its `input` declaration or driving instance
    /// created, and the line of the first pin that reads it.
    nets: Vec<(Option<NetId>, usize)>,
    /// The symbol on every input pin, in cell then pin order.
    pins: Vec<usize>,
    outputs: Vec<(usize, usize)>,
}

impl Parser {
    fn symbol(&mut self, name: &str) -> usize {
        if let Some(&s) = self.symbols.get(name) {
            return s;
        }
        self.symbols.insert(name.to_string(), self.nets.len());
        self.nets.push((None, 0));
        self.nets.len() - 1
    }

    /// Binds `name` to the net that carries it. Re-declaring a name
    /// would silently shadow the earlier net and corrupt every
    /// connection that resolved to it.
    fn define(&mut self, name: &str, net: NetId, line: usize) -> Result<()> {
        let s = self.symbol(name);
        if self.nets[s].0.replace(net).is_some() {
            return Err(Error::invalid_input(format!(
                "line {line}: duplicate net {name}"
            )));
        }
        Ok(())
    }

    fn statement(&mut self, lib: &Library, stmt: Statement<'_>, line: usize) -> Result<()> {
        match stmt {
            Statement::Module(name) => self.nl.name = name.to_string(),
            Statement::Input(names) => {
                for n in names {
                    let id = self.nl.add_input(n);
                    self.define(n, id, line)?;
                }
            }
            Statement::Output(names) => {
                for n in names {
                    let s = self.symbol(n);
                    self.outputs.push((s, line));
                }
            }
            Statement::Instance {
                master,
                name,
                conns,
            } => self.instance(lib, master, name, &conns, line)?,
        }
        Ok(())
    }

    fn instance(
        &mut self,
        lib: &Library,
        master_name: &str,
        name: &str,
        conns: &[(&str, &str)],
        line: usize,
    ) -> Result<()> {
        let master = lib
            .id_of(master_name)
            .ok_or_else(|| Error::not_found(format!("line {line}: master {master_name}")))?;
        let pins = lib.cell(master).input_pins();
        let (_, out_net) = self.nl.push_cell(name, master, pins.len()).ok_or_else(|| {
            Error::invalid_input(format!("line {line}: duplicate instance {name}"))
        })?;
        let net_on = |pin: &str, what: &str| {
            conns
                .iter()
                .find(|(p, _)| *p == pin)
                .map(|&(_, net)| net)
                .ok_or_else(|| Error::invalid_input(format!("line {line}: {name}: {what}")))
        };
        // The instance's Y connection names its output net.
        self.define(net_on("Y", "no Y connection")?, out_net, line)?;
        for pin in pins {
            let s = self.symbol(net_on(pin, &format!("missing pin {pin}"))?);
            if self.nets[s].1 == 0 {
                self.nets[s].1 = line;
            }
            self.pins.push(s);
        }
        // Y and every master pin were found, so one connection more than
        // that is a repeated pin or one the master does not have: a net
        // the file mentions and the netlist would silently drop.
        if conns.len() != pins.len() + 1 {
            return Err(Error::invalid_input(format!(
                "line {line}: {name}: {} connections, but {master_name} has only Y and {}",
                conns.len(),
                pins.join(", ")
            )));
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Netlist> {
        let net_of = |s: usize, line: usize, what: &str| {
            self.nets[s].0.ok_or_else(|| {
                let name = self.symbols.iter().find(|(_, &v)| v == s).map(|(n, _)| n);
                Error::not_found(format!(
                    "line {line}: {what} {}",
                    name.map_or("", String::as_str)
                ))
            })
        };
        let mut pins = self.pins.iter();
        for c in 0..self.nl.cell_count() {
            let cell = CellId::new(c);
            for pin in 0..self.nl.cell_inputs(cell).len() {
                let &s = pins.next().expect("one symbol per pin of every cell");
                let net = net_of(s, self.nets[s].1, "net")?;
                self.nl.connect(PinRef { cell, pin }, net);
            }
        }
        for &(s, line) in &self.outputs {
            let net = net_of(s, line, "output net")?;
            self.nl.mark_output(net);
        }
        self.nl.compact();
        Ok(self.nl)
    }
}

/// Parses the structural subset produced by [`write_verilog`] from any
/// buffered reader, one `;`-terminated statement at a time — the file is
/// never held in memory as a whole. The design is built, not edited: a
/// parsed netlist has an empty ECO journal.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for unknown masters, undeclared nets,
/// missing, repeated or unknown pins, or syntax outside the supported
/// subset; I/O errors are wrapped as [`Error::InvalidInput`]. Every
/// error reports the line the offending statement started on.
pub fn parse_verilog_from<R: BufRead>(reader: R, lib: &Library) -> Result<Netlist> {
    let mut parser = Parser::default();
    parser.nl.name = "parsed".to_string();
    read_statements(reader, |line, stmt| parser.statement(lib, stmt?, line))?;
    parser.finish()
}

/// Parses the structural subset produced by [`write_verilog`] back into
/// a [`Netlist`] bound to `lib` (in-memory convenience wrapper around
/// [`parse_verilog_from`]).
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for unknown masters, undeclared nets,
/// missing pins, or syntax outside the supported subset.
pub fn parse_verilog(text: &str, lib: &Library) -> Result<Netlist> {
    parse_verilog_from(text.as_bytes(), lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, BenchProfile};
    use tc_liberty::{LibConfig, PvtCorner};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let lib = lib();
        let orig = generate(&lib, BenchProfile::tiny(), 55).unwrap();
        let text = write_verilog(&orig, &lib);
        assert!(text.contains("module tiny"));
        assert!(text.contains("endmodule"));

        let parsed = parse_verilog(&text, &lib).unwrap();
        parsed.validate(&lib).unwrap();
        assert_eq!(parsed.cell_count(), orig.cell_count());
        assert_eq!(
            parsed.primary_outputs().count(),
            orig.primary_outputs().count()
        );

        // Per-instance master binding survives.
        for cell in orig.cells() {
            let pc = parsed
                .cell_named(cell.name)
                .expect("instance name preserved");
            assert_eq!(parsed.cell(pc).master, cell.master, "cell {}", cell.name);
        }

        // Connectivity: same driver-master for every input pin.
        for cell in orig.cells() {
            let pid = parsed.cell_named(cell.name).unwrap();
            for (i, &net) in cell.inputs.iter().enumerate() {
                let want_driver = orig.net(net).driver.map(|d| orig.cell(d).name.to_string());
                let pnet = parsed.cell(pid).inputs[i];
                let got_driver = parsed
                    .net(pnet)
                    .driver
                    .map(|d| parsed.cell(d).name.to_string());
                assert_eq!(want_driver, got_driver, "cell {} pin {i}", cell.name);
            }
        }
    }

    #[test]
    fn streaming_parse_matches_in_memory_parse() {
        let lib = lib();
        let orig = generate(&lib, BenchProfile::tiny(), 55).unwrap();
        let text = write_verilog(&orig, &lib);
        // A deliberately tiny buffer forces many refills mid-statement.
        let reader = std::io::BufReader::with_capacity(17, text.as_bytes());
        let streamed = parse_verilog_from(reader, &lib).unwrap();
        let direct = parse_verilog(&text, &lib).unwrap();
        assert_eq!(write_verilog(&streamed, &lib), write_verilog(&direct, &lib));
    }

    #[test]
    fn parse_rejects_unknown_master() {
        let lib = lib();
        let bad = "module m (a); input a; FOO_X1 u1 (.A(a), .Y(b)); endmodule";
        assert!(parse_verilog(bad, &lib).is_err());
    }

    #[test]
    fn parse_rejects_missing_pin() {
        let lib = lib();
        let bad = "module m (a); input a; NAND2_X1_SVT u1 (.A(a), .Y(b)); endmodule";
        assert!(parse_verilog(bad, &lib).is_err());
    }

    #[test]
    fn identifiers_are_sanitized() {
        assert_eq!(ident("a.b-c"), "a_b_c");
        assert_eq!(ident("3x"), "n3x");
        // Non-ASCII alphanumerics are not legal Verilog identifier
        // characters even though `char::is_alphanumeric` accepts them.
        assert_eq!(ident("née"), "n_e");
        assert_eq!(ident("λx"), "_x");
        // Reserved words are escaped, not emitted verbatim.
        assert_eq!(ident("wire"), "wire_");
        assert_eq!(ident("module"), "module_");
        assert_eq!(ident(""), "n");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let lib = lib();
        let bad = "module m (a);\ninput a;\nFOO_X1 u1 (.A(a), .Y(b));\nendmodule\n";
        let err = parse_verilog(bad, &lib).unwrap_err().to_string();
        assert!(err.contains("line 3"), "no line number in: {err}");

        let bad = "module m (a);\ninput a;\noutput q;\nendmodule\n";
        let err = parse_verilog(bad, &lib).unwrap_err().to_string();
        assert!(err.contains("line 3"), "no line number in: {err}");
    }

    #[test]
    fn inverted_parens_are_an_error_not_a_panic() {
        // `rfind(')')` before the first '(' used to build an inverted
        // slice range and panic.
        let lib = lib();
        let bad = "module m (a); input a; X) Y(; endmodule";
        let err = parse_verilog(bad, &lib).unwrap_err().to_string();
        assert!(err.contains("line 1"), "no line number in: {err}");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let lib = lib();
        let dup_net = "module m (a); input a, a; endmodule";
        assert!(parse_verilog(dup_net, &lib).is_err());
        let dup_inst = "module m (a); input a;\n\
                        INV_X1_SVT u1 (.A(a), .Y(x));\n\
                        INV_X1_SVT u1 (.A(a), .Y(y));\nendmodule";
        let err = parse_verilog(dup_inst, &lib).unwrap_err().to_string();
        assert!(err.contains("duplicate instance"), "got: {err}");
    }

    #[test]
    fn instances_before_the_input_line_add_no_phantom_input() {
        // Instances used to be created on a scratch net and rewired; with
        // no input declared yet, the scratch net was a made-up primary
        // input that stayed in the design.
        let lib = lib();
        let text = "module m (a, b, q);\n\
                    NAND2_X1_SVT u1 (.A(a), .B(b), .Y(n1));\n\
                    INV_X1_SVT u2 (.A(n1), .Y(q));\n\
                    input a, b;\noutput q;\nendmodule\n";
        let nl = parse_verilog(text, &lib).unwrap();
        nl.validate(&lib).unwrap();
        let inputs: Vec<&str> = nl
            .primary_inputs()
            .iter()
            .map(|&n| nl.net(n).name)
            .collect();
        assert_eq!(inputs, ["a", "b"]);
        assert_eq!(nl.net_count(), 4);
        assert!(nl.nets().all(|n| n.name != "__scratch__"));
        assert_eq!(nl.journal_len(), 0, "construction is not an ECO");
    }

    #[test]
    fn connections_the_master_does_not_have_are_rejected() {
        let lib = lib();
        for conns in [".A(a), .Z(a), .Y(x)", ".A(a), .A(a), .Y(x)"] {
            let bad = format!("module m (a);\ninput a;\nINV_X1_SVT u1 ({conns});\nendmodule");
            let err = parse_verilog(&bad, &lib).unwrap_err().to_string();
            assert!(err.contains("line 3"), "{conns}: {err}");
        }
    }

    #[test]
    fn reader_reports_malformed_statements_and_reads_on() {
        let text = "module m (a);\n  input a; // clk\n  bogus;\n  INV_X1_SVT u1\n    (.A(a), .Y(x));\nendmodule\n";
        // Statements borrow from the reader, so keep their debug text.
        let mut seen = Vec::new();
        read_statements(text.as_bytes(), |line, stmt| {
            seen.push((line, format!("{stmt:?}")));
            Ok(())
        })
        .unwrap();
        let instance = Statement::Instance {
            master: "INV_X1_SVT",
            name: "u1",
            conns: vec![("A", "a"), ("Y", "x")],
        };
        assert_eq!(seen.len(), 4, "{seen:?}");
        assert_eq!(seen[0], (1, format!("Ok({:?})", Statement::Module("m"))));
        assert_eq!(
            seen[1],
            (2, format!("Ok({:?})", Statement::Input(vec!["a"])))
        );
        assert!(seen[2].0 == 3 && seen[2].1.starts_with("Err("), "{seen:?}");
        assert!(seen[2].1.contains("line 3"), "{seen:?}");
        assert_eq!(seen[3], (4, format!("Ok({instance:?})")));
    }

    #[test]
    fn writer_uniquifies_colliding_identifiers() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        // Both sanitize to `a_1`; the writer must keep them distinct.
        let a = nl.add_input("a.1");
        let b = nl.add_input("a_1");
        let inv = lib.id_of("INV_X1_SVT").unwrap();
        let (_, out) = nl.add_cell("u1", &lib, inv, &[a]).unwrap();
        let (_, out2) = nl.add_cell("u2", &lib, inv, &[b]).unwrap();
        nl.mark_output(out);
        nl.mark_output(out2);
        let text = write_verilog(&nl, &lib);
        assert!(text.contains("input a_1;"), "{text}");
        assert!(text.contains("input a_1_2;"), "{text}");
        let reparsed = parse_verilog(&text, &lib).unwrap();
        assert_eq!(reparsed.cell_count(), 2);
        assert_eq!(write_verilog(&reparsed, &lib), text);
    }
}
