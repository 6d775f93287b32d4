//! Liberty-format export and (subset) import.
//!
//! The paper's modeling-standards discussion lives entirely inside
//! `.lib` files (NLDM tables, AOCV sidecars, the LVF extension — see the
//! "Open Source Liberty" reference \[38\]). This module writes the
//! synthetic library in a Liberty-compatible subset so it can be
//! inspected or diffed like a foundry deliverable, and parses that
//! subset back for round-trip verification.
//!
//! Supported constructs: `library`, `cell` (area, leakage), `pin`
//! (direction, capacitance), `timing` groups with `cell_rise` /
//! `rise_transition` 7×7 tables (`index_1`, `index_2`, `values`), and
//! `ocv_sigma_cell_rise` tables for LVF.

use std::collections::HashMap;
use std::fmt::Write as _;

use tc_core::error::{Error, Result};
use tc_core::lut::Lut2;

use crate::library::Library;

/// Serializes a library to Liberty text.
pub fn write_liberty(lib: &Library) -> String {
    let mut out = String::new();
    let name = format!("tc_synth_{}", lib.corner.label().replace(['.', '-'], "p"));
    let _ = writeln!(out, "library ({name}) {{");
    let _ = writeln!(out, "  time_unit : \"1ps\";");
    let _ = writeln!(out, "  capacitive_load_unit (1, ff);");
    let _ = writeln!(out, "  voltage_unit : \"1V\";");
    let _ = writeln!(
        out,
        "  nom_voltage : {:.3};\n  nom_temperature : {:.1};",
        lib.corner.voltage.value(),
        lib.corner.temperature.value()
    );

    for cell in lib.cells() {
        let _ = writeln!(out, "  cell ({}) {{", cell.name);
        let _ = writeln!(out, "    area : {:.3};", cell.area_sites);
        let _ = writeln!(out, "    cell_leakage_power : {:.6};", cell.leakage_uw);
        for pin in cell.input_pins() {
            let _ = writeln!(out, "    pin ({pin}) {{");
            let _ = writeln!(out, "      direction : input;");
            let _ = writeln!(out, "      capacitance : {:.4};", cell.input_cap.value());
            let _ = writeln!(out, "    }}");
        }
        let _ = writeln!(out, "    pin (Y) {{");
        let _ = writeln!(out, "      direction : output;");
        for arc in &cell.arcs {
            let _ = writeln!(out, "      timing () {{");
            let _ = writeln!(out, "        related_pin : \"{}\";", arc.input);
            write_table(&mut out, "cell_rise", &arc.delay);
            write_table(&mut out, "rise_transition", &arc.out_slew);
            if let Some(lvf) = &arc.lvf {
                write_table(&mut out, "ocv_sigma_cell_rise", &lvf.sigma_late);
                write_table(&mut out, "ocv_sigma_cell_fall", &lvf.sigma_early);
            }
            let _ = writeln!(out, "      }}");
        }
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

fn write_table(out: &mut String, kind: &str, lut: &Lut2) {
    let fmt_axis = |axis: &[f64]| {
        axis.iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        out,
        "        {kind} (tbl_{}x{}) {{",
        lut.row_axis().len(),
        lut.col_axis().len()
    );
    let _ = writeln!(out, "          index_1 (\"{}\");", fmt_axis(lut.row_axis()));
    let _ = writeln!(out, "          index_2 (\"{}\");", fmt_axis(lut.col_axis()));
    let rows: Vec<String> = lut
        .row_axis()
        .iter()
        .map(|&r| {
            lut.col_axis()
                .iter()
                .map(|&c| format!("{:.5}", lut.eval(r, c)))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .map(|row| format!("\"{row}\""))
        .collect();
    let _ = writeln!(
        out,
        "          values ({});",
        rows.join(", \\\n                  ")
    );
    let _ = writeln!(out, "        }}");
}

/// A parsed timing table.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedTable {
    /// Table kind ("cell_rise", "ocv_sigma_cell_rise", …).
    pub kind: String,
    /// The reconstructed table.
    pub lut: Lut2,
}

/// A parsed timing arc.
#[derive(Clone, Debug, Default)]
pub struct ParsedArc {
    /// Related (input) pin.
    pub related_pin: String,
    /// Tables in the arc.
    pub tables: Vec<ParsedTable>,
}

/// A parsed cell.
#[derive(Clone, Debug, Default)]
pub struct ParsedCell {
    /// Cell name.
    pub name: String,
    /// Area attribute.
    pub area: f64,
    /// Leakage attribute.
    pub leakage: f64,
    /// Input pin capacitances.
    pub pin_caps: HashMap<String, f64>,
    /// Timing arcs.
    pub arcs: Vec<ParsedArc>,
}

/// A parsed library (the subset this module writes).
#[derive(Clone, Debug, Default)]
pub struct ParsedLibrary {
    /// Library name.
    pub name: String,
    /// Cells by name.
    pub cells: HashMap<String, ParsedCell>,
}

/// Table groups the subset knows; a `values` belongs to the most recent
/// one opened.
const TABLE_KINDS: [&str; 4] = [
    "cell_rise",
    "rise_transition",
    "ocv_sigma_cell_rise",
    "ocv_sigma_cell_fall",
];

/// One construct of the Liberty subset — a line, or a run of lines
/// spliced at trailing `\` — classified, with its numbers parsed.
/// Names borrow from the reader.
#[derive(Debug, PartialEq)]
pub enum LibertyStmt<'a> {
    /// `library (NAME) {`.
    Library(&'a str),
    /// `cell (NAME) {`.
    Cell(&'a str),
    /// `pin (NAME) {`.
    Pin(&'a str),
    /// `timing () {`.
    Timing,
    /// `related_pin : "NAME";`.
    RelatedPin(&'a str),
    /// `area : V;`, `cell_leakage_power : V;` or `capacitance : V;`: the
    /// attribute name and its (finite) value.
    Attr(&'static str, f64),
    /// A table group opens; the payload is its kind (`cell_rise`, …).
    Table(&'static str),
    /// `index_1 ("…")` / `index_2 ("…")`: which axis (1 or 2) and its
    /// values as written — finite, but not checked for order, which is
    /// what `Lut2::new` rejects and `tc-lint` reports as `TCL0401`.
    Index(u8, Vec<f64>),
    /// `values ("…", "…")`: one row per quoted group, as written.
    Values(Vec<Vec<f64>>),
    /// A lone `}`.
    Close,
    /// Anything else (units, nominal conditions, directions, blanks).
    Other,
}

/// The one reader of the Liberty subset, shared by [`parse_liberty`] and
/// `tc-lint`'s table rules: splices `\`-continued lines and hands `visit`
/// each construct, classified and with its numbers parsed, with the line
/// it started on. One whose numbers do not parse reaches `visit` as an
/// `Err` naming its line: the parser returns it and reading stops, the
/// lint scan returns `Ok` and reading goes on. Returns the line count.
///
/// # Errors
///
/// The first `Err` from `visit`.
pub fn read_liberty(
    text: &str,
    mut visit: impl FnMut(usize, Result<LibertyStmt<'_>>) -> Result<()>,
) -> Result<usize> {
    // The writer emits one construct per line except `values`, which may
    // continue with `\`-terminated lines; splice those first, remembering
    // the line each spliced statement started on.
    let mut pending = String::new();
    let mut pending_line = 0usize;
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        let trimmed = line.trim_end();
        if trimmed.ends_with('\\') {
            if pending.is_empty() {
                pending_line = lines;
            }
            pending.push_str(trimmed.trim_end_matches('\\'));
        } else if pending.is_empty() {
            visit(lines, classify(trimmed, lines))?;
        } else {
            pending.push_str(trimmed);
            visit(pending_line, classify(&pending, pending_line))?;
            pending.clear();
        }
    }
    if !pending.is_empty() {
        // A trailing `\` with no continuation line.
        visit(pending_line, classify(&pending, pending_line))?;
    }
    Ok(lines)
}

fn classify(line: &str, lineno: usize) -> Result<LibertyStmt<'_>> {
    let l = line.trim();
    fn group_name(rest: &str) -> &str {
        rest.split(')').next().unwrap_or("")
    }
    fn quoted(l: &str) -> Option<&str> {
        l.split('"').nth(1)
    }
    // Every number in a quoted, comma-separated list.
    let floats = |list: &str, what: &str| -> Result<Vec<f64>> {
        list.split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|e| Error::invalid_input(format!("line {lineno}: bad {what}: {e}")))
            })
            .collect()
    };
    Ok(if let Some(rest) = l.strip_prefix("library (") {
        LibertyStmt::Library(group_name(rest))
    } else if let Some(rest) = l.strip_prefix("cell (") {
        LibertyStmt::Cell(group_name(rest))
    } else if let Some(rest) = l.strip_prefix("pin (") {
        LibertyStmt::Pin(group_name(rest))
    } else if l.starts_with("timing ") {
        LibertyStmt::Timing
    } else if l.starts_with("related_pin") {
        LibertyStmt::RelatedPin(quoted(l).unwrap_or(""))
    } else if let Some(name) = ["area", "cell_leakage_power", "capacitance"]
        .into_iter()
        .find(|a| l.strip_prefix(a).is_some_and(|rest| rest.starts_with(" :")))
    {
        LibertyStmt::Attr(name, attr_value(l, lineno)?)
    } else if let Some(kind) = TABLE_KINDS.iter().find(|k| l.starts_with(**k)) {
        LibertyStmt::Table(kind)
    } else if l.starts_with("index_1") || l.starts_with("index_2") {
        let inner = quoted(l)
            .ok_or_else(|| Error::invalid_input(format!("line {lineno}: axis missing quotes")))?;
        let axis = floats(inner, "axis value")?;
        if let Some(x) = axis.iter().find(|x| !x.is_finite()) {
            return Err(Error::invalid_input(format!(
                "line {lineno}: axis value must be finite, got {x}"
            )));
        }
        LibertyStmt::Index(if l.starts_with("index_1") { 1 } else { 2 }, axis)
    } else if l.starts_with("values (") {
        LibertyStmt::Values(
            l.split('"')
                .skip(1)
                .step_by(2)
                .map(|row| floats(row, "value"))
                .collect::<Result<_>>()?,
        )
    } else if l == "}" {
        LibertyStmt::Close
    } else {
        LibertyStmt::Other
    })
}

/// Parses the Liberty subset produced by [`write_liberty`].
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] on malformed structure (unbalanced
/// braces, missing axes, ragged value grids). Every error names the line
/// the offending construct started on.
pub fn parse_liberty(text: &str) -> Result<ParsedLibrary> {
    let mut lib = ParsedLibrary::default();
    let mut cur_cell: Option<ParsedCell> = None;
    let mut cur_arc: Option<ParsedArc> = None;
    let mut cur_pin: Option<String> = None;
    let mut table_kind: Option<&str> = None;
    let mut index1: Option<Vec<f64>> = None;
    let mut index2: Option<Vec<f64>> = None;
    let mut depth = 0i32;

    let last_line = read_liberty(text, |lineno, stmt| {
        match stmt? {
            LibertyStmt::Library(name) => {
                lib.name = name.to_string();
                depth += 1;
            }
            LibertyStmt::Cell(name) => {
                cur_cell = Some(ParsedCell {
                    name: name.to_string(),
                    ..Default::default()
                });
                depth += 1;
            }
            LibertyStmt::Pin(name) => {
                cur_pin = Some(name.to_string());
                depth += 1;
            }
            LibertyStmt::Timing => {
                cur_arc = Some(ParsedArc::default());
                depth += 1;
            }
            LibertyStmt::RelatedPin(pin) => {
                if let Some(arc) = cur_arc.as_mut() {
                    arc.related_pin = pin.to_string();
                }
            }
            LibertyStmt::Attr(name, v) => match (name, cur_cell.as_mut(), cur_pin.as_ref()) {
                ("area", Some(c), _) => c.area = v,
                ("cell_leakage_power", Some(c), _) => c.leakage = v,
                ("capacitance", Some(c), Some(pin)) => {
                    c.pin_caps.insert(pin.clone(), v);
                }
                _ => {}
            },
            LibertyStmt::Table(kind) => {
                table_kind = Some(kind);
                index1 = None;
                index2 = None;
                depth += 1;
            }
            LibertyStmt::Index(1, axis) => index1 = Some(axis),
            LibertyStmt::Index(_, axis) => index2 = Some(axis),
            LibertyStmt::Values(grid) => {
                let kind = table_kind.ok_or_else(|| {
                    Error::invalid_input(format!("line {lineno}: values outside a table"))
                })?;
                let rows_axis = index1.clone().ok_or_else(|| {
                    Error::invalid_input(format!("line {lineno}: values before index_1"))
                })?;
                let cols_axis = index2.clone().ok_or_else(|| {
                    Error::invalid_input(format!("line {lineno}: values before index_2"))
                })?;
                let lut = Lut2::new(rows_axis, cols_axis, grid)
                    .map_err(|e| Error::invalid_input(format!("line {lineno}: {e}")))?;
                if let Some(arc) = cur_arc.as_mut() {
                    arc.tables.push(ParsedTable {
                        kind: kind.to_string(),
                        lut,
                    });
                }
            }
            LibertyStmt::Close => {
                depth -= 1;
                if depth < 0 {
                    return Err(Error::invalid_input(format!(
                        "line {lineno}: unexpected closing brace"
                    )));
                }
                // Close the innermost open construct.
                if table_kind.take().is_some() {
                    // table closed
                } else if let Some(arc) = cur_arc.take() {
                    if let Some(c) = cur_cell.as_mut() {
                        c.arcs.push(arc);
                    }
                } else if cur_pin.take().is_some() {
                    // pin closed
                } else if let Some(c) = cur_cell.take() {
                    lib.cells.insert(c.name.clone(), c);
                }
            }
            LibertyStmt::Other => {}
        }
        Ok(())
    })?;
    if depth != 0 {
        return Err(Error::invalid_input(format!(
            "line {last_line}: unbalanced braces: depth {depth} at end of file"
        )));
    }
    Ok(lib)
}

fn attr_value(line: &str, lineno: usize) -> Result<f64> {
    let v = line
        .split(':')
        .nth(1)
        .and_then(|v| v.trim().trim_end_matches(';').parse::<f64>().ok())
        .ok_or_else(|| {
            Error::invalid_input(format!("line {lineno}: bad attribute line: {line}"))
        })?;
    if !v.is_finite() {
        return Err(Error::invalid_input(format!(
            "line {lineno}: attribute must be finite: {line}"
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::PvtCorner;
    use crate::library::{LibConfig, Library};

    fn lib() -> Library {
        // Keep the file small for the test.
        let cfg = LibConfig {
            comb_drives: vec![1.0, 2.0],
            flop_drives: vec![1.0],
            ..Default::default()
        };
        Library::generate(&cfg, &PvtCorner::typical())
    }

    #[test]
    fn writes_well_formed_liberty() {
        let text = write_liberty(&lib());
        assert!(text.starts_with("library ("));
        assert!(text.contains("cell (NAND2_X2_SVT)"));
        assert!(text.contains("ocv_sigma_cell_rise"));
        // Balanced braces.
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn roundtrip_preserves_cells_and_tables() {
        let library = lib();
        let text = write_liberty(&library);
        let parsed = parse_liberty(&text).unwrap();
        assert_eq!(parsed.cells.len(), library.cells().len());

        let nand = &parsed.cells["NAND2_X1_SVT"];
        let orig = library.cell_named("NAND2_X1_SVT").unwrap();
        assert!((nand.area - orig.area_sites).abs() < 1e-3);
        assert!((nand.leakage - orig.leakage_uw).abs() < 1e-5);
        assert!((nand.pin_caps["A"] - orig.input_cap.value()).abs() < 1e-3);
        assert_eq!(nand.arcs.len(), orig.arcs.len());

        // Table values survive the round trip at print precision.
        let arc = nand.arcs.iter().find(|a| a.related_pin == "A").unwrap();
        let rise = arc.tables.iter().find(|t| t.kind == "cell_rise").unwrap();
        for &s in orig.arcs[0].delay.row_axis() {
            for &l in orig.arcs[0].delay.col_axis() {
                let want = orig.arcs[0].delay.eval(s, l);
                let got = rise.lut.eval(s, l);
                assert!(
                    (want - got).abs() < 1e-4,
                    "table mismatch at ({s},{l}): {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn parser_rejects_unbalanced_input() {
        let err = parse_liberty(
            "library (x) {
  cell (a) {
}",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("line 3"), "no line number in: {err}");
    }

    #[test]
    fn parser_errors_carry_line_numbers() {
        let bad = "library (x) {\n  cell (a) {\n    area : potato;\n  }\n}";
        let err = parse_liberty(bad).unwrap_err().to_string();
        assert!(err.contains("line 3"), "no line number in: {err}");

        let extra = "library (x) {\n}\n}";
        let err = parse_liberty(extra).unwrap_err().to_string();
        assert!(err.contains("line 3"), "no line number in: {err}");

        let nan = "library (x) {\n  cell (a) {\n    area : NaN;\n  }\n}";
        let err = parse_liberty(nan).unwrap_err().to_string();
        assert!(err.contains("line 3") && err.contains("finite"), "{err}");
    }

    #[test]
    fn parser_rejects_values_without_axes() {
        let bad = "library (x) {
  cell (a) {
    pin (Y) {
      timing () {
        cell_rise (t) {
          values (\"1.0\");
        }
      }
    }
  }
}";
        assert!(parse_liberty(bad).is_err());
    }
}
