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

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::BufRead;

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, NetId};
use tc_core::text::{for_each_line, utf8_line};
use tc_liberty::Library;

use crate::graph::{Interner, Netlist, PinRef};

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
/// its parts. Names and lists borrow from the reader, which reuses its
/// buffers for the next statement.
#[derive(Debug, PartialEq)]
pub enum Statement<'a> {
    /// `module NAME (ports)`: the module name.
    Module(&'a str),
    /// `input a, b`: the declared names.
    Input(&'a [&'a str]),
    /// `output a, b`: the declared names.
    Output(&'a [&'a str]),
    /// `MASTER name (.PIN(net), ...)`.
    Instance {
        /// Library master name.
        master: &'a str,
        /// Instance name.
        name: &'a str,
        /// `(pin, net)` per connection, in source order; neither is empty.
        conns: &'a [(&'a str, &'a str)],
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
/// Lines are read as bytes into one reused buffer; only a statement
/// that spans lines is copied again, into a second reused buffer. A line that is not
/// UTF-8 is an error at that line, and nothing on it is visited (only a
/// line with a non-ASCII byte needs the check).
///
/// # Errors
///
/// The first `Err` from `visit`, or a read error (I/O, invalid UTF-8)
/// as [`Error::InvalidInput`] naming its line.
pub fn read_statements<R: BufRead>(
    reader: R,
    mut visit: impl FnMut(usize, Result<Statement<'_>>) -> Result<()>,
) -> Result<()> {
    let mut lists = Lists::default();
    // The statement accumulating across lines, and the line it began on.
    let mut stmt: Vec<u8> = Vec::new();
    let mut stmt_line = 1usize;
    for_each_line(reader, |lineno, raw| {
        // Strip the line comment and trailing whitespace.
        let cut = comment_start(raw);
        let code = if raw.is_ascii() {
            trim_ascii_end(&raw[..cut])
        } else {
            utf8_line(raw, lineno)?[..cut].trim_end().as_bytes()
        };
        // Join continuation lines with a space.
        if stmt.is_empty() {
            stmt_line = lineno;
        } else {
            stmt.push(b' ');
        }
        let mut rest = code;
        while let Some(semi) = rest.iter().position(|&b| b == b';') {
            if stmt.is_empty() {
                lists.report(&rest[..semi], stmt_line, &mut visit)?;
            } else {
                stmt.extend_from_slice(&rest[..semi]);
                lists.report(&stmt, stmt_line, &mut visit)?;
                stmt.clear();
            }
            rest = &rest[semi + 1..];
            // Whatever trails the `;` came from the current line.
            stmt_line = lineno;
        }
        stmt.extend_from_slice(rest);
        Ok(())
    })?;
    lists.report(&stmt, stmt_line, &mut visit)
}

/// Where the line comment starts: the first `//`, else the line's end.
fn comment_start(line: &[u8]) -> usize {
    line.windows(2)
        .position(|w| w == b"//")
        .unwrap_or(line.len())
}

/// `str::trim_end` for ASCII text: drops what `char::is_whitespace`
/// calls whitespace, which includes the vertical tab.
fn trim_ascii_end(code: &[u8]) -> &[u8] {
    let keep = code
        .iter()
        .rposition(|&b| !matches!(b, b'\t'..=b'\r' | b' '))
        .map_or(0, |last| last + 1);
    &code[..keep]
}

/// The list buffers a [`Statement`] borrows, kept empty between
/// statements so each one reuses the last one's allocation.
#[derive(Default)]
struct Lists {
    names: Vec<&'static str>,
    conns: Vec<(&'static str, &'static str)>,
}

impl Lists {
    /// Classifies one statement and hands it to `visit`, unless it is
    /// one the reader skips.
    fn report(
        &mut self,
        stmt: &[u8],
        line: usize,
        visit: &mut impl FnMut(usize, Result<Statement<'_>>) -> Result<()>,
    ) -> Result<()> {
        // Every line was checked, so this is the statement's one UTF-8
        // check, not a new way to fail.
        match utf8_line(stmt, line)?.trim() {
            "" | "endmodule" => Ok(()),
            stmt if stmt.starts_with("wire ") => Ok(()),
            stmt => {
                let mut names = recycle(std::mem::take(&mut self.names));
                let mut conns = recycle(std::mem::take(&mut self.conns));
                let visited = visit(line, classify(stmt, line, &mut names, &mut conns));
                self.names = recycle(names);
                self.conns = recycle(conns);
                visited
            }
        }
    }
}

/// `v` emptied and retyped, so a list of borrows can outlive the
/// statement it borrowed from. Collecting an empty vector into one of
/// the same element layout reuses its allocation on current std; that
/// reuse is not guaranteed, and without it each statement allocates its
/// lists afresh.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// Splits a trimmed statement; its lists go into `names` or `conns`,
/// which the statement then borrows.
fn classify<'a: 'b, 'b>(
    stmt: &'a str,
    line: usize,
    names: &'b mut Vec<&'a str>,
    conns: &'b mut Vec<(&'a str, &'a str)>,
) -> Result<Statement<'b>> {
    fn declared<'a: 'b, 'b>(list: &'a str, names: &'b mut Vec<&'a str>) -> &'b [&'a str] {
        names.extend(list.split(',').map(str::trim).filter(|n| !n.is_empty()));
        names
    }
    if let Some(rest) = stmt.strip_prefix("module ") {
        Ok(Statement::Module(
            rest.split_once('(').map_or(rest, |(name, _)| name).trim(),
        ))
    } else if let Some(rest) = stmt.strip_prefix("input ") {
        Ok(Statement::Input(declared(rest, names)))
    } else if let Some(rest) = stmt.strip_prefix("output ") {
        Ok(Statement::Output(declared(rest, names)))
    } else {
        instance(stmt, line, conns)
    }
}

fn instance<'a: 'b, 'b>(
    stmt: &'a str,
    line: usize,
    conns: &'b mut Vec<(&'a str, &'a str)>,
) -> Result<Statement<'b>> {
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
    for c in stmt[open + 1..close].split(',') {
        let c = c.trim().trim_start_matches('.');
        let conn = c
            .split_once('(')
            .map(|(pin, net)| (pin.trim(), net.trim_end_matches(')').trim()))
            .filter(|(pin, net)| !pin.is_empty() && !net.is_empty())
            .ok_or_else(|| Error::invalid_input(format!("line {line}: bad connection: {c}")))?;
        conns.push(conn);
    }
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
    /// Net names as the file spells them, numbered in first-seen order:
    /// a name is hashed and stored once, however many pins mention it.
    symbols: Interner,
    /// Per symbol: the net its `input` declaration or driving instance
    /// created, and the line of the first pin that reads it.
    nets: Vec<(Option<NetId>, usize)>,
    /// The symbol on every input pin, in cell then pin order.
    pins: Vec<usize>,
    outputs: Vec<(usize, usize)>,
}

impl Parser {
    fn symbol(&mut self, name: &str) -> usize {
        let (s, added) = self.symbols.intern(name);
        if added {
            self.nets.push((None, 0));
        }
        s
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
                for &n in names {
                    let id = self.nl.add_input(n);
                    self.define(n, id, line)?;
                }
            }
            Statement::Output(names) => {
                for &n in names {
                    let s = self.symbol(n);
                    self.outputs.push((s, line));
                }
            }
            Statement::Instance {
                master,
                name,
                conns,
            } => self.instance(lib, master, name, conns, line)?,
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
        let net_on = |pin: &str| conns.iter().find(|(p, _)| *p == pin).map(|&(_, net)| net);
        // The instance's Y connection names its output net. A missing
        // one is reported after a duplicate instance name, which wins.
        let y = net_on("Y");
        let (_, out_net) = self
            .nl
            .push_cell(name, y.unwrap_or_default(), master, pins.len())
            .ok_or_else(|| {
                Error::invalid_input(format!("line {line}: duplicate instance {name}"))
            })?;
        let y =
            y.ok_or_else(|| Error::invalid_input(format!("line {line}: {name}: no Y connection")))?;
        self.define(y, out_net, line)?;
        for pin in pins {
            let net = net_on(pin).ok_or_else(|| {
                Error::invalid_input(format!("line {line}: {name}: missing pin {pin}"))
            })?;
            let s = self.symbol(net);
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
                Error::not_found(format!("line {line}: {what} {}", self.symbols.get(s)))
            })
        };
        // Pins are in cell-then-pin order, so the first unresolved one
        // is the one reported.
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
/// Nets keep the names the file gives them: a primary input is named by
/// its `input` declaration and every other net by the `.Y` connection
/// of the instance that drives it, so writing the design back gives the
/// same port list and wires, and a SPEF written for the file's nets
/// names the parsed ones. (Netlists built with [`Netlist::add_cell`]
/// name a cell's output `{instance}_out` instead; the generators'
/// files therefore read back with exactly those names.) Net ids follow
/// the file: inputs and driven nets in the order their declarations
/// and instances appear.
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

    /// Everything a parse decides, in id order: per cell its name,
    /// master, input nets and output net; per net its name, driver,
    /// sinks in order and output flag; the primary inputs in order.
    fn structure(nl: &Netlist) -> String {
        let mut out = format!("{} {:?}\n", nl.name, nl.primary_inputs());
        for c in nl.cells() {
            let _ = writeln!(
                out,
                "{} {:?} {:?} {:?}",
                c.name, c.master, c.inputs, c.output
            );
        }
        for n in nl.nets() {
            let _ = writeln!(
                out,
                "{} {:?} {:?} {}",
                n.name, n.driver, n.sinks, n.is_output
            );
        }
        out
    }

    #[test]
    fn streaming_parse_matches_in_memory_parse() {
        let lib = lib();
        let orig = generate(&lib, BenchProfile::c5315(), 55).unwrap();
        let mut text = write_verilog(&orig, &lib);
        // Comments, a statement split over lines and CRLF endings put
        // every reader path on some buffer boundary.
        text = text.replacen("\n  input ", "\n  // a; comment\r\n  input ", 1);
        text = text.replacen(" (.A(", "\r\n    (.A(", 3);
        let direct = structure(&parse_verilog(&text, &lib).unwrap());
        // Buffers from one byte up force refills at every offset of a
        // statement, a comment and a line ending.
        for k in 1..=64 {
            let reader = std::io::BufReader::with_capacity(k, text.as_bytes());
            let streamed = parse_verilog_from(reader, &lib).unwrap();
            assert!(structure(&streamed) == direct, "buffer of {k} bytes");
        }
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
        let text =
            "module m (a);\n  input a; // clk\n  bogus;\n  INV_X1_SVT u1\n    (.A(a), .Y(x));\n  \
                    input b, c;\n  NAND2_X1_SVT u2 (.A(x), .B(b), .Y(y));\nendmodule\n";
        // Statements borrow from the reader, so keep their debug text;
        // each one must carry only its own lists, not the last one's.
        let mut seen = Vec::new();
        read_statements(text.as_bytes(), |line, stmt| {
            seen.push((line, format!("{stmt:?}")));
            Ok(())
        })
        .unwrap();
        let instance = Statement::Instance {
            master: "INV_X1_SVT",
            name: "u1",
            conns: &[("A", "a"), ("Y", "x")],
        };
        assert_eq!(seen.len(), 6, "{seen:?}");
        assert_eq!(seen[0], (1, format!("Ok({:?})", Statement::Module("m"))));
        assert_eq!(seen[1], (2, format!("Ok({:?})", Statement::Input(&["a"]))));
        assert!(seen[2].0 == 3 && seen[2].1.starts_with("Err("), "{seen:?}");
        assert!(seen[2].1.contains("line 3"), "{seen:?}");
        assert_eq!(seen[3], (4, format!("Ok({instance:?})")));
        assert_eq!(
            seen[4],
            (6, format!("Ok({:?})", Statement::Input(&["b", "c"])))
        );
        let nand = Statement::Instance {
            master: "NAND2_X1_SVT",
            name: "u2",
            conns: &[("A", "x"), ("B", "b"), ("Y", "y")],
        };
        assert_eq!(seen[5], (7, format!("Ok({nand:?})")));
    }

    /// Every way the reader and the parser refuse a file, with the exact
    /// error each gives: the text, the line, and which error wins when a
    /// statement has more than one thing wrong.
    #[test]
    fn malformed_inputs_give_exact_errors() {
        let lib = lib();
        let cases: &[(&[u8], &str)] = &[
            // Instance head: not exactly `MASTER name`.
            (b"module m (a);\ninput a;\nINV_X1_SVT (.A(a), .Y(x));\n", "invalid input: line 3: bad instance head: INV_X1_SVT (.A(a), .Y(x))"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 u2 (.A(a), .Y(x));\n", "invalid input: line 3: bad instance head: INV_X1_SVT u1 u2 (.A(a), .Y(x))"),
            (b"module m (a); input a; X) Y(; endmodule", "invalid input: line 1: unterminated connection list: X) Y("),
            (b"module m (a);\ninput a;\nbogus;\n", "invalid input: line 3: bad statement: bogus"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.(a), .Y(x));\n", "invalid input: line 3: bad connection: (a)"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(), .Y(x));\n", "invalid input: line 3: bad connection: A()"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a), .Z(a), .Y(x));\n", "invalid input: line 3: u1: 3 connections, but INV_X1_SVT has only Y and A"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a), .A(a), .Y(x));\n", "invalid input: line 3: u1: 3 connections, but INV_X1_SVT has only Y and A"),
            (b"module m (a);\ninput a;\nNAND2_X1_SVT u1 (.A(a), .Y(x));\n", "invalid input: line 3: u1: missing pin B"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a));\n", "invalid input: line 3: u1: no Y connection"),
            (b"module m (a);\ninput a;\nFOO_X1 u1 (.A(a), .Y(x));\n", "not found: line 3: master FOO_X1"),
            (b"module m (a);\ninput a, b,\n  a;\n", "invalid input: line 2: duplicate net a"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a), .Y(a));\n", "invalid input: line 3: duplicate net a"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a), .Y(x));\nINV_X1_SVT u1 (.A(x), .Y(y));\n", "invalid input: line 4: duplicate instance u1"),
            // Duplicate instance wins over a missing Y on the same line.
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a), .Y(x));\nINV_X1_SVT u1 (.A(x));\n", "invalid input: line 4: duplicate instance u1"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(zz), .Y(x));\nendmodule\n", "not found: line 3: net zz"),
            (b"module m (a);\ninput a;\noutput q;\nendmodule\n", "not found: line 3: output net q"),
            // A `;` inside a comment ends nothing.
            (b"module m (a);\n// x; y;\ninput a; // q; bogus\n  INV_X1_SVT u1 (.A(a), // ;\n .Y(x)) ; junk\n;\n", "invalid input: line 5: bad statement: junk"),
            // CRLF line endings: the CR is trailing whitespace.
            (b"module m (a);\r\ninput a;\r\nINV_X1_SVT u1 (.A(zz),\r\n .Y(q));\r\nendmodule\r\n", "not found: line 3: net zz"),
            (b"module m (a);\r\ninput a;\r\nbogus\r\n;\r\n", "invalid input: line 3: bad statement: bogus"),
            // A statement spanning lines: start line, joined text.
            (b"module m (a);\ninput a;\nbogus\n\n  more  \n  ;\n", "invalid input: line 3: bad statement: bogus    more"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a),\n   junk ,\n .Y(x));\n", "invalid input: line 3: bad connection: junk"),
            (b"module m (a);\ninput a; INV_X1_SVT\n  u1 (.A(a), .B(a), .Y(x));\n", "invalid input: line 2: u1: 3 connections, but INV_X1_SVT has only Y and A"),
            // A non-UTF-8 byte: in code, in a comment, after a statement
            // on the same line, and past a statement's start line.
            (b"module m (a);\ninput a;\nINV_X1_SVT u1 (.A(a), .Y(\xff));\nendmodule\n", "invalid input: line 3: read: stream did not contain valid UTF-8"),
            (b"module m (a);\ninput a; // \xfe\n", "invalid input: line 2: read: stream did not contain valid UTF-8"),
            (b"module m (a);\ninput a, a; INV_X1_SVT \xc3(\n", "invalid input: line 2: read: stream did not contain valid UTF-8"),
            (b"module m (a);\ninput a;\nINV_X1_SVT u1\n (.A(a), \x80\n", "invalid input: line 4: read: stream did not contain valid UTF-8"),
        ];
        for &(input, want) in cases {
            let got = parse_verilog_from(input, &lib).map(|_| ()).unwrap_err();
            let input = String::from_utf8_lossy(input);
            assert_eq!(got.to_string(), want, "{input}");
        }
    }

    #[test]
    fn parsed_nets_keep_the_names_the_file_gives_them() {
        // Driven nets used to be renamed `{instance}_out`, which changed
        // the port list on a write-back and left a SPEF written for the
        // file's nets matching none of them.
        let lib = lib();
        let text = "module m (a, q);\n  input a;\n  output q;\n  wire n7;\n\n  \
                    INV_X1_SVT u1 (.A(a), .Y(n7));\n  INV_X1_SVT u2 (.A(n7), .Y(q));\nendmodule\n";
        let nl = parse_verilog(text, &lib).unwrap();
        let names: Vec<&str> = nl.nets().map(|n| n.name).collect();
        assert_eq!(names, ["a", "n7", "q"]);
        assert_eq!(write_verilog(&nl, &lib), text);
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
