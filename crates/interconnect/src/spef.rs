//! SPEF-style parasitics exchange, with the *sensitivity* extension.
//!
//! §3.1: "Another flirtation, Sensitivity SPEF (SSPEF) for statistical
//! modeling of interconnect, seems to have recently dropped by the
//! wayside, leaving BEOL variations as a major hole in signoff
//! enablement"; §4 predicts "Statistical SPEF or similar will be
//! revived (cf. 'BEOL as first-class citizen')". This module implements
//! that revival for our stack: each net's total R/C is written together
//! with its *per-layer sensitivity coefficients*, so a downstream tool
//! can re-evaluate the parasitics at any BEOL corner or Monte Carlo
//! sample without re-extraction.
//!
//! Format (a compact SPEF-inspired subset, one `*D_NET` block per net):
//!
//! ```text
//! *SPEF tc-interconnect sensitivity
//! *D_NET n42 R 0.48 C 12.75 LAYER 5
//! *SENS R M6 1.0
//! *SENS C M6 1.0
//! *END
//! ```

use std::fmt::Write as _;

use tc_core::error::{Error, Result};
use tc_core::text::{for_each_line, utf8_line};

use crate::beol::{BeolSample, BeolStack};
use crate::estimate::WireModel;

/// Parasitics of one net with its variation sensitivities.
#[derive(Clone, Debug, PartialEq)]
pub struct NetParasitics {
    /// Net name.
    pub name: String,
    /// Total resistance at the typical corner, kΩ.
    pub r_total: f64,
    /// Total wire capacitance (ground + coupling) at typical, fF.
    pub c_total: f64,
    /// Stack layer index the net is routed on.
    pub layer: usize,
    /// Per-layer sensitivity of R: dR/R per unit layer R factor, as
    /// `(layer, sensitivity)` pairs sorted by layer index. For
    /// single-layer routes this is 1.0 on the route layer. A sorted
    /// slice beats a hash map here: the hot consumer ([`at_sample`])
    /// only ever iterates, serialization wants layer order anyway, and
    /// real nets touch a handful of layers at most.
    ///
    /// [`at_sample`]: NetParasitics::at_sample
    pub r_sens: Vec<(usize, f64)>,
    /// Per-layer sensitivity of C, same representation as `r_sens`.
    pub c_sens: Vec<(usize, f64)>,
}

impl NetParasitics {
    /// Extracts one net's parasitics from a wire model.
    pub fn extract(name: impl Into<String>, wm: &WireModel, stack: &BeolStack) -> Self {
        let layer = stack.layer(wm.layer);
        let (fr, fcg, fcc) = wm.ndr.factors();
        let r_total = layer.r_per_um * fr * wm.length_um;
        let c_total = (layer.cg_per_um * fcg + layer.cc_per_um * fcc) * wm.length_um;
        let r_sens = vec![(wm.layer, 1.0)];
        let c_sens = vec![(wm.layer, 1.0)];
        NetParasitics {
            name: name.into(),
            r_total,
            c_total,
            layer: wm.layer,
            r_sens,
            c_sens,
        }
    }

    /// Re-evaluates the parasitics under a per-layer Monte Carlo sample
    /// using the stored sensitivities — the SSPEF use case.
    pub fn at_sample(&self, sample: &BeolSample) -> (f64, f64) {
        let r_factor: f64 = self
            .r_sens
            .iter()
            .map(|&(l, s)| 1.0 + s * (sample.r[l] - 1.0))
            .product();
        let c_factor: f64 = self
            .c_sens
            .iter()
            .map(|&(l, s)| 1.0 + s * (sample.c[l] - 1.0))
            .product();
        (self.r_total * r_factor, self.c_total * c_factor)
    }
}

/// Serializes a set of net parasitics to sensitivity-SPEF text.
pub fn write_spef(nets: &[NetParasitics], stack: &BeolStack) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "*SPEF tc-interconnect sensitivity");
    let _ = writeln!(out, "*T_UNIT ps  *C_UNIT ff  *R_UNIT kohm");
    for n in nets {
        let _ = writeln!(
            out,
            "*D_NET {} R {:.6} C {:.6} LAYER {}",
            n.name, n.r_total, n.c_total, n.layer
        );
        // The pairs are kept sorted by layer, so emission order is
        // deterministic without a sort.
        for &(l, s) in &n.r_sens {
            let _ = writeln!(out, "*SENS R {} {:.4}", stack.layer(l).name, s);
        }
        for &(l, s) in &n.c_sens {
            let _ = writeln!(out, "*SENS C {} {:.4}", stack.layer(l).name, s);
        }
        let _ = writeln!(out, "*END");
    }
    out
}

/// Parses the sensitivity-SPEF subset written by [`write_spef`] from any
/// buffered reader, one line at a time — a multi-million-net parasitics
/// file is never materialized in memory as a whole. Lines are lent
/// straight out of the reader's buffer, and a record's fields land in a
/// fixed-size array: the only allocations are the parsed nets.
///
/// Numeric fields are validated at parse time: totals must be finite and
/// non-negative, sensitivities finite — a `NaN` or negative cap here
/// would silently poison every slack merge downstream.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] on malformed records, unknown layer
/// names, non-finite/negative values, or I/O failures (wrapped). Every
/// error names the offending line number.
pub fn parse_spef_from<R: std::io::BufRead>(
    reader: R,
    stack: &BeolStack,
) -> Result<Vec<NetParasitics>> {
    let mut nets = Vec::new();
    let mut cur: Option<NetParasitics> = None;
    let mut lines = 0usize;
    for_each_line(reader, |lineno, raw| {
        lines = lineno;
        let l = utf8_line(raw, lineno)?.trim();
        if let Some(rest) = l.strip_prefix("*D_NET ") {
            let Some([name, "R", r, "C", c, "LAYER", layer]) = fields(rest) else {
                return Err(Error::invalid_input(format!(
                    "line {lineno}: bad D_NET record: {l}"
                )));
            };
            // Totals must be finite and non-negative: f64::parse happily
            // accepts `NaN`, `inf` and `-3`, none of which is a physical
            // R or C.
            let parse_total = |what: &str, s: &str| -> Result<f64> {
                let v = s.parse::<f64>().map_err(|e| {
                    Error::invalid_input(format!("line {lineno}: bad number {s}: {e}"))
                })?;
                if !v.is_finite() || v < 0.0 {
                    return Err(Error::invalid_input(format!(
                        "line {lineno}: {what} must be finite and non-negative, got {s}"
                    )));
                }
                Ok(v)
            };
            cur = Some(NetParasitics {
                name: name.to_string(),
                r_total: parse_total("R", r)?,
                c_total: parse_total("C", c)?,
                layer: {
                    // Validate against the stack here: an out-of-range
                    // index would otherwise surface later as an indexing
                    // panic in `at_sample` or `write_spef`.
                    let layer: usize = layer.parse().map_err(|e| {
                        Error::invalid_input(format!("line {lineno}: bad layer index: {e}"))
                    })?;
                    if layer >= stack.layers().len() {
                        return Err(Error::invalid_input(format!(
                            "line {lineno}: layer index {layer} out of range for a {}-layer \
                             stack: {l}",
                            stack.layers().len()
                        )));
                    }
                    layer
                },
                // Routes on one layer, the common case, fill these
                // exactly.
                r_sens: Vec::with_capacity(1),
                c_sens: Vec::with_capacity(1),
            });
        } else if let Some(rest) = l.strip_prefix("*SENS ") {
            let Some([kind, layer, value]) = fields(rest) else {
                return Err(Error::invalid_input(format!(
                    "line {lineno}: bad SENS record: {l}"
                )));
            };
            let net = cur.as_mut().ok_or_else(|| {
                Error::invalid_input(format!("line {lineno}: SENS outside D_NET"))
            })?;
            let layer = stack
                .layers()
                .iter()
                .position(|l| l.name == layer)
                .ok_or_else(|| {
                    Error::invalid_input(format!("line {lineno}: unknown layer {layer}"))
                })?;
            let s = value.parse::<f64>().map_err(|e| {
                Error::invalid_input(format!("line {lineno}: bad sensitivity: {e}"))
            })?;
            if !s.is_finite() {
                return Err(Error::invalid_input(format!(
                    "line {lineno}: sensitivity must be finite, got {value}"
                )));
            }
            match kind {
                "R" => upsert(&mut net.r_sens, layer, s),
                "C" => upsert(&mut net.c_sens, layer, s),
                other => {
                    return Err(Error::invalid_input(format!(
                        "line {lineno}: bad SENS kind {other}"
                    )));
                }
            }
        } else if l == "*END" {
            nets.push(cur.take().ok_or_else(|| {
                Error::invalid_input(format!("line {lineno}: END without D_NET"))
            })?);
        }
        Ok(())
    })?;
    if cur.is_some() {
        return Err(Error::invalid_input(format!(
            "line {lines}: unterminated D_NET block"
        )));
    }
    Ok(nets)
}

/// The whitespace-separated fields of `rest`, if there are exactly `N`.
fn fields<const N: usize>(rest: &str) -> Option<[&str; N]> {
    let mut out = [""; N];
    let mut n = 0;
    for word in rest.split_whitespace() {
        *out.get_mut(n)? = word;
        n += 1;
    }
    (n == N).then_some(out)
}

/// Inserts `(layer, s)` into a layer-sorted pair list, replacing the
/// entry if the layer is already present (a repeated `*SENS` line for
/// the same layer means the later value wins, matching map semantics).
fn upsert(pairs: &mut Vec<(usize, f64)>, layer: usize, s: f64) {
    match pairs.binary_search_by_key(&layer, |&(l, _)| l) {
        Ok(i) => pairs[i].1 = s,
        Err(i) => pairs.insert(i, (layer, s)),
    }
}

/// Parses the sensitivity-SPEF subset written by [`write_spef`]
/// (in-memory convenience wrapper around [`parse_spef_from`]).
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] on malformed records or unknown layer
/// names.
pub fn parse_spef(text: &str, stack: &BeolStack) -> Result<Vec<NetParasitics>> {
    parse_spef_from(text.as_bytes(), stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::NdrClass;
    use tc_core::rng::Rng;
    use tc_liberty::{LibConfig, Library, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    fn stack() -> BeolStack {
        BeolStack::n20()
    }

    fn sample_nets(stack: &BeolStack) -> Vec<NetParasitics> {
        [
            (20.0, NdrClass::Default),
            (150.0, NdrClass::Default),
            (400.0, NdrClass::DoubleWidthSpacing),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(len, ndr))| {
            let wm = WireModel::from_length(len).with_ndr(ndr);
            NetParasitics::extract(format!("n{i}"), &wm, stack)
        })
        .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let stack = stack();
        let nets = sample_nets(&stack);
        let text = write_spef(&nets, &stack);
        assert!(text.contains("*D_NET n0"));
        let parsed = parse_spef(&text, &stack).unwrap();
        assert_eq!(parsed.len(), nets.len());
        for (a, b) in nets.iter().zip(&parsed) {
            assert_eq!(a.name, b.name);
            assert!((a.r_total - b.r_total).abs() < 1e-6);
            assert!((a.c_total - b.c_total).abs() < 1e-6);
            assert_eq!(a.layer, b.layer);
            assert_eq!(a.r_sens, b.r_sens);
        }
    }

    #[test]
    fn sensitivities_reproduce_monte_carlo_reevaluation() {
        // The SSPEF promise: a consumer can re-evaluate parasitics at a
        // sample without the extractor. Cross-check against WireModel's
        // own sampled timing inputs.
        let stack = stack();
        let wm = WireModel::from_length(150.0);
        let net = NetParasitics::extract("n", &wm, &stack);
        let mut rng = Rng::seed_from(17);
        for _ in 0..20 {
            let smp = stack.sample(&mut rng);
            let (r, c) = net.at_sample(&smp);
            let want_r = net.r_total * smp.r[wm.layer];
            let want_c = net.c_total * smp.c[wm.layer];
            assert!((r - want_r).abs() < 1e-9);
            assert!((c - want_c).abs() < 1e-9);
        }
    }

    #[test]
    fn parser_rejects_malformed_records() {
        let stack = stack();
        assert!(parse_spef("*D_NET bogus R x C 1 LAYER 2\n*END", &stack).is_err());
        assert!(parse_spef("*SENS R M1 1.0", &stack).is_err());
        assert!(parse_spef("*D_NET n R 1 C 1 LAYER 1\n*SENS R M99 1.0\n*END", &stack).is_err());
        assert!(parse_spef("*D_NET n R 1 C 1 LAYER 1\n", &stack).is_err());
    }

    #[test]
    fn parser_rejects_out_of_range_layer_index() {
        // A syntactically valid LAYER with an index past the stack must
        // fail at parse time, not as a later indexing panic when the
        // parasitics are re-evaluated at a sample.
        let stack = stack();
        let bad = "*D_NET n R 1 C 1 LAYER 99\n*END";
        let err = parse_spef(bad, &stack).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // The first in-range index and the last one parse fine.
        let last = stack.layers().len() - 1;
        let good = format!("*D_NET n R 1 C 1 LAYER {last}\n*END");
        assert_eq!(parse_spef(&good, &stack).unwrap()[0].layer, last);
    }

    #[test]
    fn parser_rejects_non_finite_and_negative_values() {
        // `f64::parse` happily accepts `NaN`, `inf`, and negatives — any
        // of which would poison every downstream slack merge.
        let stack = stack();
        for bad in [
            "*D_NET n R NaN C 1 LAYER 1\n*END",
            "*D_NET n R inf C 1 LAYER 1\n*END",
            "*D_NET n R 1 C -3.0 LAYER 1\n*END",
            "*D_NET n R 1 C 1e999 LAYER 1\n*END",
            "*D_NET n R 1 C 1 LAYER 1\n*SENS R M1 NaN\n*END",
        ] {
            let err = parse_spef(bad, &stack).unwrap_err().to_string();
            assert!(err.contains("line "), "no line number in: {err}");
        }
    }

    #[test]
    fn parser_errors_carry_line_numbers() {
        let stack = stack();
        let bad = "*D_NET n R 1 C 1 LAYER 1\n*SENS R M99 1.0\n*END";
        let err = parse_spef(bad, &stack).unwrap_err().to_string();
        assert!(err.contains("line 2"), "no line number in: {err}");
    }

    #[test]
    fn parser_rejects_truncated_input() {
        // Truncation mid-block (e.g. an interrupted write) is an error,
        // and truncation mid-record never panics.
        let stack = stack();
        let nets = sample_nets(&stack);
        let text = write_spef(&nets, &stack);
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            // Every prefix must either parse (clean block boundary) or
            // error — the parser must not panic on any of them.
            let _ = parse_spef(&text[..cut], &stack);
        }
        // A prefix ending inside a block is specifically an error.
        let inside = text.find("*SENS").unwrap() + 3;
        assert!(parse_spef(&text[..inside], &stack).is_err());
    }

    /// Every way the reader refuses a file, with the exact error each
    /// gives: the text and the line.
    #[test]
    fn malformed_inputs_give_exact_errors() {
        let stack = stack();
        let cases: &[(&[u8], &str)] = &[
            (b"*D_NET n R NaN C 1 LAYER 1\n*END\n", "invalid input: line 1: R must be finite and non-negative, got NaN"),
            (b"*D_NET n R inf C 1 LAYER 1\n*END\n", "invalid input: line 1: R must be finite and non-negative, got inf"),
            (b"*D_NET n R 1 C -3.0 LAYER 1\n*END\n", "invalid input: line 1: C must be finite and non-negative, got -3.0"),
            (b"*D_NET n R 1 C 1e999 LAYER 1\n*END\n", "invalid input: line 1: C must be finite and non-negative, got 1e999"),
            (b"*D_NET n R x C 1 LAYER 1\n*END\n", "invalid input: line 1: bad number x: invalid float literal"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*SENS R M2 NaN\n*END\n", "invalid input: line 2: sensitivity must be finite, got NaN"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*SENS C M2 -inf\n*END\n", "invalid input: line 2: sensitivity must be finite, got -inf"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*SENS R M2 abc\n*END\n", "invalid input: line 2: bad sensitivity: invalid float literal"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*SENS R M99 1.0\n*END\n", "invalid input: line 2: unknown layer M99"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*SENS X M2 1.0\n*END\n", "invalid input: line 2: bad SENS kind X"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*SENS R M2\n*END\n", "invalid input: line 2: bad SENS record: *SENS R M2"),
            (b"*D_NET n R 1 C 1 LAYER 99\n*END\n", "invalid input: line 1: layer index 99 out of range for a 9-layer stack: *D_NET n R 1 C 1 LAYER 99"),
            (b"*D_NET n R 1 C 1 LAYER -1\n*END\n", "invalid input: line 1: bad layer index: invalid digit found in string"),
            (b"*D_NET n R 1 C 1 LAYOUT 1\n*END\n", "invalid input: line 1: bad D_NET record: *D_NET n R 1 C 1 LAYOUT 1"),
            (b"*D_NET n R 1 C 1 LAYER 1 extra\n*END\n", "invalid input: line 1: bad D_NET record: *D_NET n R 1 C 1 LAYER 1 extra"),
            (b"*SPEF x\n*SENS R M2 1.0\n", "invalid input: line 2: SENS outside D_NET"),
            (b"*SPEF x\n*END\n", "invalid input: line 2: END without D_NET"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*SENS R M2 1.0\n", "invalid input: line 2: unterminated D_NET block"),
            (b"*D_NET n R 1 C 1 LAYER 1\r\n*END\r\n*D_NET m R 1 C 1 LAYER 1\r\n*SENS R M99 1\r\n", "invalid input: line 4: unknown layer M99"),
            (b"*D_NET n R 1 C 1 LAYER 1\n*END\n*D_NET \xff R 1 C 1 LAYER 1\n", "invalid input: line 3: read: stream did not contain valid UTF-8"),
        ];
        for &(input, want) in cases {
            let got = parse_spef_from(input, &stack).unwrap_err();
            let input = String::from_utf8_lossy(input);
            assert_eq!(got.to_string(), want, "{input}");
        }
    }

    /// c5315's nets at their generated wire lengths, as the SPEF a
    /// flow would hand over with the design.
    fn c5315_parasitics(stack: &BeolStack) -> Vec<NetParasitics> {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = generate(&lib, BenchProfile::c5315(), 55).unwrap();
        nl.nets()
            .map(|n| {
                let wm = WireModel::from_length(n.wire_length_um.max(1.0));
                NetParasitics::extract(n.name, &wm, stack)
            })
            .collect()
    }

    #[test]
    fn streaming_parse_matches_in_memory_parse() {
        let stack = stack();
        let text = write_spef(&c5315_parasitics(&stack), &stack);
        let direct = parse_spef(&text, &stack).unwrap();
        // Buffers from one byte up force refills at every offset of a
        // record and a line ending.
        for k in 1..=64 {
            let reader = std::io::BufReader::with_capacity(k, text.as_bytes());
            let streamed = parse_spef_from(reader, &stack).unwrap();
            assert!(streamed == direct, "buffer of {k} bytes");
        }
        // What the reader produced is what the writer writes back.
        let again = parse_spef(&write_spef(&direct, &stack), &stack).unwrap();
        assert_eq!(again, direct);
    }

    #[test]
    fn ndr_nets_carry_their_rule_in_the_totals() {
        let stack = stack();
        let base = NetParasitics::extract("a", &WireModel::from_length(400.0), &stack);
        let ndr = NetParasitics::extract(
            "b",
            &WireModel::from_length(400.0).with_ndr(NdrClass::DoubleWidthSpacing),
            &stack,
        );
        assert!(ndr.r_total < 0.6 * base.r_total);
        assert!(ndr.c_total < base.c_total, "spacing cuts coupling");
    }
}
