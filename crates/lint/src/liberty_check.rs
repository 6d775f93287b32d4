//! Liberty LUT validation: axis ordering and delay monotonicity.
//!
//! [`tc_core::lut::Lut2`] rejects non-increasing axes at construction,
//! so `parse_liberty` can only report a bad axis as an opaque parse
//! failure — and it cannot see physics violations at all, because a
//! non-monotone delay table is structurally valid. This pass reads the
//! Liberty text through the parser's own reader ([`read_liberty`]) — which hands
//! over axes and rows as written, before `Lut2::new` can reject them —
//! so both defects surface as positioned, waivable findings:
//!
//! * `TCL0401` — an `index_1`/`index_2` axis is not strictly increasing.
//! * `TCL0402` — a `cell_rise`/`rise_transition` table row decreases
//!   along the load (column) axis: gate delay and output slew grow with
//!   load in any physical characterization, so a dip is corrupt data
//!   that would silently warp every slack downstream.
//!
//! Sigma (`ocv_sigma_*`) and constraint tables are exempt from the
//! monotonicity rule — hold constraints legitimately fall with data
//! slew. A construct whose numbers do not parse is the parser's error
//! to report; the scan skips it.

use tc_liberty::libfile::{read_liberty, LibertyStmt};

use crate::diag::{finding, Diagnostic};

/// Table kinds whose rows must be non-decreasing along the load axis.
const MONOTONE_KINDS: [&str; 2] = ["cell_rise", "rise_transition"];

/// Scans Liberty text for axis-ordering and monotonicity defects.
/// `label` names the stream in the findings (`lib.lib`).
pub fn lint_liberty_source(text: &str, label: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut cell = String::new();
    let mut related = String::new();
    let mut kind: Option<&str> = None;
    let mut axes_ok = true;

    let scanned = read_liberty(text, |lineno, stmt| {
        match stmt {
            Ok(LibertyStmt::Cell(name)) => {
                cell = name.to_string();
                related.clear();
            }
            Ok(LibertyStmt::RelatedPin(pin)) => related = pin.to_string(),
            Ok(LibertyStmt::Table(k)) => {
                kind = Some(k);
                axes_ok = true;
            }
            Ok(LibertyStmt::Index(which, axis)) => {
                if let Some(i) = axis.windows(2).position(|w| w[1] <= w[0]) {
                    axes_ok = false;
                    out.push(finding(
                        "TCL0401",
                        table_subject(&cell, &related, kind.unwrap_or("?")),
                        format!(
                            "index_{which} not strictly increasing: {} then {} at position {}",
                            axis[i],
                            axis[i + 1],
                            i + 1
                        ),
                        label,
                        Some(lineno),
                    ));
                }
            }
            Ok(LibertyStmt::Values(rows)) => {
                // Monotonicity over an unordered axis is meaningless; the
                // TCL0401 finding already covers that table.
                // One finding per table is enough to act on.
                let dip = kind
                    .filter(|k| axes_ok && MONOTONE_KINDS.contains(k))
                    .and_then(|k| {
                        rows.iter().enumerate().find_map(|(r, row)| {
                            let c = row.windows(2).position(|w| w[1] < w[0] - 1e-9)?;
                            Some((k, r, c, row[c], row[c + 1]))
                        })
                    });
                if let Some((k, row_idx, c, a, b)) = dip {
                    out.push(finding(
                        "TCL0402",
                        table_subject(&cell, &related, k),
                        format!(
                            "row {row_idx} decreases along the load axis at column {}: {a} then {b}",
                            c + 1
                        ),
                        label,
                        Some(lineno),
                    ));
                }
            }
            Ok(_) | Err(_) => {}
        }
        Ok(())
    });
    debug_assert!(scanned.is_ok(), "the visitor never fails: {scanned:?}");
    out
}

/// Waiver-matchable identity of a table: `cell:related_pin:kind`.
fn table_subject(cell: &str, related: &str, kind: &str) -> String {
    let related = if related.is_empty() { "?" } else { related };
    format!("{cell}:{related}:{kind}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_liberty::{LibConfig, Library, PvtCorner};

    fn table(index_2: &str, values: &str) -> String {
        format!(
            "library (t) {{\n  cell (INV_X1_SVT) {{\n    pin (Y) {{\n      timing () {{\n        related_pin : \"A\";\n        cell_rise (tbl_2x2) {{\n          index_1 (\"5.0000, 10.0000\");\n          index_2 ({index_2});\n          values ({values});\n        }}\n      }}\n    }}\n  }}\n}}\n"
        )
    }

    #[test]
    fn generated_library_is_clean() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let text = tc_liberty::write_liberty(&lib);
        let diags = lint_liberty_source(&text, "gen.lib");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_monotone_row_fires_0402_with_position() {
        let text = table("\"0.5000, 1.0000\"", "\"1.0, 0.5\", \"1.2, 1.4\"");
        let diags = lint_liberty_source(&text, "t.lib");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "TCL0402");
        assert_eq!(diags[0].subject, "INV_X1_SVT:A:cell_rise");
        assert_eq!(diags[0].line, Some(9));
    }

    #[test]
    fn unordered_axis_fires_0401_and_suppresses_0402() {
        let text = table("\"1.0000, 0.5000\"", "\"1.0, 0.5\", \"1.2, 1.4\"");
        let diags = lint_liberty_source(&text, "t.lib");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "TCL0401");
        assert_eq!(diags[0].line, Some(8));
    }

    #[test]
    fn sigma_tables_may_fall() {
        let text = table("\"0.5000, 1.0000\"", "\"1.0, 1.5\", \"1.2, 1.4\"")
            .replace("cell_rise (tbl_2x2)", "ocv_sigma_cell_rise (tbl_2x2)");
        let falling = text.replace("\"1.0, 1.5\"", "\"1.5, 1.0\"");
        assert!(lint_liberty_source(&falling, "t.lib").is_empty());
    }

    #[test]
    fn continued_values_lines_keep_the_start_line() {
        let text = table(
            "\"0.5000, 1.0000\"",
            "\"1.0, 0.5\", \\\n                  \"1.2, 1.4\"",
        );
        let diags = lint_liberty_source(&text, "t.lib");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, Some(9));
    }
}
