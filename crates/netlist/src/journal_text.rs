//! Text codec for ECO-journal interchange and validated replay.
//!
//! A closure run's edit sequence (the delta the fix engine applied) can
//! be exported as a line-oriented journal file, shipped next to the
//! netlist, and replayed onto another copy of the same design — the ECO
//! handoff of the paper's Fig 1, where the "fix" tool and the signoff
//! timer are separate processes exchanging edit scripts.
//!
//! The format is deliberately tiny: a `*TCJ 1` header line, then one
//! command per line. Identifiers are the dense [`CellId`]/[`NetId`]
//! indices (stable across ECO edits by construction — see
//! [`crate::journal`]); masters travel by name so the journal survives
//! library regeneration.
//!
//! ```text
//! *TCJ 1
//! SWAP cell 3 master NAND2_X1_LVT
//! WIRELEN net 5 um 25.5
//! ROUTE net 5 class 2
//! BUF net 3 master BUF_X2_SVT sinks 4:0,7:1
//! REWIRE cell 2 pin 1 net 6
//! ```
//!
//! [`replay_journal`] is *transactional*: every command is validated
//! against the target netlist (indices in range, masters known, pins
//! present) before it is applied, and any failure rolls the netlist back
//! to its pre-replay state via [`Netlist::undo_to`] — a half-applied
//! journal never leaks out, so an incremental `Timer` pointed at the
//! netlist stays consistent.

use std::collections::HashSet;
use std::fmt::Write as _;

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, LibCellId, NetId};
use tc_liberty::Library;

use crate::graph::{Netlist, PinRef};
use crate::journal::NetlistEdit;

/// One replayable journal command (the external mirror of
/// [`NetlistEdit`], minus the undo bookkeeping the target netlist will
/// re-derive when it applies the edit).
#[derive(Clone, Debug, PartialEq)]
pub enum JournalCmd {
    /// Rebind `cell` to the master named `new_master`.
    Swap {
        /// Target cell index.
        cell: usize,
        /// Replacement master, by name.
        new_master: String,
    },
    /// Set `net`'s estimated routed length.
    SetWireLength {
        /// Target net index.
        net: usize,
        /// New length, µm (finite, non-negative).
        um: f64,
    },
    /// Set `net`'s non-default-rule class.
    SetRouteClass {
        /// Target net index.
        net: usize,
        /// New route class.
        class: u8,
    },
    /// Insert a buffer on `src_net`, re-homing `sinks` onto its output.
    InsertBuffer {
        /// The split net's index.
        src_net: usize,
        /// Buffer master, by name.
        master: String,
        /// Moved sinks as `(cell, pin)` pairs.
        sinks: Vec<(usize, usize)>,
    },
    /// Move one sink pin onto a different net.
    Rewire {
        /// Sink cell index.
        cell: usize,
        /// Sink pin index.
        pin: usize,
        /// Net the pin now loads.
        net: usize,
    },
}

/// Renders commands in the canonical journal text form (header line
/// included). [`decode_journal`] ∘ [`render_cmds`] is the identity, and
/// re-rendering a decoded journal reproduces the text byte-for-byte.
pub fn render_cmds(cmds: &[JournalCmd]) -> String {
    let mut out = String::from("*TCJ 1\n");
    for cmd in cmds {
        match cmd {
            JournalCmd::Swap { cell, new_master } => {
                let _ = writeln!(out, "SWAP cell {cell} master {new_master}");
            }
            JournalCmd::SetWireLength { net, um } => {
                let _ = writeln!(out, "WIRELEN net {net} um {um}");
            }
            JournalCmd::SetRouteClass { net, class } => {
                let _ = writeln!(out, "ROUTE net {net} class {class}");
            }
            JournalCmd::InsertBuffer {
                src_net,
                master,
                sinks,
            } => {
                let s = if sinks.is_empty() {
                    "-".to_string()
                } else {
                    sinks
                        .iter()
                        .map(|(c, p)| format!("{c}:{p}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = writeln!(out, "BUF net {src_net} master {master} sinks {s}");
            }
            JournalCmd::Rewire { cell, pin, net } => {
                let _ = writeln!(out, "REWIRE cell {cell} pin {pin} net {net}");
            }
        }
    }
    out
}

/// Exports the journal suffix `nl.journal()[from..]` as replayable text —
/// `from` is a checkpoint taken with [`Netlist::journal_len`] before the
/// edit sequence of interest.
pub fn write_journal(nl: &Netlist, lib: &Library, from: usize) -> String {
    let cmds: Vec<JournalCmd> = nl.journal()[from..]
        .iter()
        .map(|edit| match edit {
            NetlistEdit::SwapMaster {
                cell, new_master, ..
            } => JournalCmd::Swap {
                cell: cell.index(),
                new_master: lib.cell(*new_master).name.clone(),
            },
            NetlistEdit::SetWireLength { net, new_um, .. } => JournalCmd::SetWireLength {
                net: net.index(),
                um: *new_um,
            },
            NetlistEdit::SetRouteClass { net, new_class, .. } => JournalCmd::SetRouteClass {
                net: net.index(),
                class: *new_class,
            },
            NetlistEdit::InsertBuffer {
                buffer,
                src_net,
                moved_sinks,
                ..
            } => JournalCmd::InsertBuffer {
                src_net: src_net.index(),
                master: lib.cell(nl.cell(*buffer).master).name.clone(),
                sinks: moved_sinks
                    .iter()
                    .map(|(s, _)| (s.cell.index(), s.pin))
                    .collect(),
            },
            NetlistEdit::RewireInput { sink, new_net, .. } => JournalCmd::Rewire {
                cell: sink.cell.index(),
                pin: sink.pin,
                net: new_net.index(),
            },
        })
        .collect();
    render_cmds(&cmds)
}

/// Parses journal text back into commands.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for a missing/mismatched header,
/// unknown verbs, malformed fields, or non-finite/negative wire lengths;
/// every message names the offending line.
pub fn decode_journal(text: &str) -> Result<Vec<JournalCmd>> {
    let mut cmds = Vec::new();
    let mut saw_header = false;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            if line != "*TCJ 1" {
                return Err(Error::invalid_input(format!(
                    "line {lineno}: expected `*TCJ 1` header, got `{line}`"
                )));
            }
            saw_header = true;
            continue;
        }
        let tok: Vec<&str> = line.split_whitespace().collect();
        let index = |what: &str, s: &str| -> Result<usize> {
            s.parse::<usize>()
                .map_err(|_| Error::invalid_input(format!("line {lineno}: bad {what} index `{s}`")))
        };
        let cmd = match tok.as_slice() {
            ["SWAP", "cell", c, "master", m] => JournalCmd::Swap {
                cell: index("cell", c)?,
                new_master: m.to_string(),
            },
            ["WIRELEN", "net", n, "um", um] => {
                let v = um.parse::<f64>().map_err(|_| {
                    Error::invalid_input(format!("line {lineno}: bad length `{um}`"))
                })?;
                if !v.is_finite() || v < 0.0 {
                    return Err(Error::invalid_input(format!(
                        "line {lineno}: length must be finite and non-negative, got {um}"
                    )));
                }
                JournalCmd::SetWireLength {
                    net: index("net", n)?,
                    um: v,
                }
            }
            ["ROUTE", "net", n, "class", c] => JournalCmd::SetRouteClass {
                net: index("net", n)?,
                class: c.parse::<u8>().map_err(|_| {
                    Error::invalid_input(format!("line {lineno}: bad route class `{c}`"))
                })?,
            },
            ["BUF", "net", n, "master", m, "sinks", s] => {
                let sinks = if *s == "-" {
                    Vec::new()
                } else {
                    s.split(',')
                        .map(|pair| {
                            let (c, p) = pair.split_once(':').ok_or_else(|| {
                                Error::invalid_input(format!(
                                    "line {lineno}: bad sink `{pair}` (want cell:pin)"
                                ))
                            })?;
                            Ok((index("sink cell", c)?, index("sink pin", p)?))
                        })
                        .collect::<Result<Vec<_>>>()?
                };
                JournalCmd::InsertBuffer {
                    src_net: index("net", n)?,
                    master: m.to_string(),
                    sinks,
                }
            }
            ["REWIRE", "cell", c, "pin", p, "net", n] => JournalCmd::Rewire {
                cell: index("cell", c)?,
                pin: index("pin", p)?,
                net: index("net", n)?,
            },
            _ => {
                return Err(Error::invalid_input(format!(
                    "line {lineno}: unrecognized journal command `{line}`"
                )))
            }
        };
        cmds.push(cmd);
    }
    if !saw_header {
        return Err(Error::invalid_input(
            "line 1: empty journal (missing `*TCJ 1` header)",
        ));
    }
    Ok(cmds)
}

/// Replays decoded commands onto `nl`, transactionally.
///
/// Every command is validated before it is applied; on the first failure
/// the netlist is rolled back to its state at entry and the error is
/// returned. On success, returns the number of commands applied (the
/// journal grows by at least that much — `insert_buffer` also journals
/// the sink moves it performs).
///
/// # Errors
///
/// Returns [`Error::NotFound`] for out-of-range cell/net/pin indices and
/// unknown master names, [`Error::InvalidInput`] for commands the
/// netlist rejects (pin-count mismatches, sinks not on the named net,
/// duplicate sinks); every message names the failing journal entry.
pub fn replay_journal(nl: &mut Netlist, lib: &Library, cmds: &[JournalCmd]) -> Result<usize> {
    let cp = nl.journal_len();
    let result = apply_cmds(nl, lib, cmds);
    if result.is_err() {
        // A failed entry must not leave earlier entries applied: the
        // caller's Timer checkpoint still describes the pre-replay
        // netlist, and `undo_to` restores exactly that.
        nl.undo_to(cp)
            .map_err(|e| Error::internal(format!("rollback after failed replay: {e}")))?;
    }
    result
}

/// A [`JournalCmd`] whose every reference resolved: typed ids, ready to
/// apply.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolvedCmd {
    /// [`JournalCmd::Swap`].
    Swap(CellId, LibCellId),
    /// [`JournalCmd::SetWireLength`].
    SetWireLength(NetId, f64),
    /// [`JournalCmd::SetRouteClass`].
    SetRouteClass(NetId, u8),
    /// [`JournalCmd::InsertBuffer`]: split net, buffer master, moved sinks.
    InsertBuffer(NetId, LibCellId, Vec<PinRef>),
    /// [`JournalCmd::Rewire`].
    Rewire(PinRef, NetId),
}

/// The one resolver of journal references (cell, net and pin indices in
/// range, masters known, no sink listed twice), shared by
/// [`replay_journal`], which applies each command it resolves, and
/// `tc-lint`'s `TCL0501`, which applies nothing. It counts the cell and
/// the net each earlier `BUF` appends, so both see the same design size
/// at every entry.
#[derive(Debug)]
pub struct JournalRefs {
    cells: usize,
    nets: usize,
}

impl JournalRefs {
    /// References as they stand before the journal's first entry.
    pub fn new(nl: &Netlist) -> Self {
        JournalRefs {
            cells: nl.cell_count(),
            nets: nl.net_count(),
        }
    }

    /// Resolves the next entry. `nl` is the design [`JournalRefs::new`]
    /// saw, with or without the entries resolved so far applied.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] for the first reference that names nothing,
    /// [`Error::InvalidInput`] for a sink listed twice. The message
    /// completes "`cmd` references …"; callers add the entry position.
    pub fn resolve(
        &mut self,
        nl: &Netlist,
        lib: &Library,
        cmd: &JournalCmd,
    ) -> Result<ResolvedCmd> {
        let live = |what: &str, index: usize, count: usize| {
            if index < count {
                Ok(index)
            } else {
                Err(Error::not_found(format!(
                    "dead {what} #{index} (netlist has {count})"
                )))
            }
        };
        let (cells, nets) = (self.cells, self.nets);
        let cell_id = |cell: usize| live("cell", cell, cells).map(CellId::new);
        let net_id = |net: usize| live("net", net, nets).map(NetId::new);
        let master_id = |name: &str| {
            lib.id_of(name)
                .ok_or_else(|| Error::not_found(format!("unknown master {name}")))
        };
        let pin_ref = |cell: usize, pin: usize| {
            let id = cell_id(cell)?;
            // A cell the design does not have yet is a buffer an earlier
            // entry appends: one input.
            let inputs = if cell < nl.cell_count() {
                nl.cell_inputs(id).len()
            } else {
                1
            };
            if pin < inputs {
                Ok(PinRef { cell: id, pin })
            } else {
                Err(Error::not_found(format!(
                    "pin {pin} out of range for cell #{cell} ({inputs} inputs)"
                )))
            }
        };
        Ok(match cmd {
            JournalCmd::Swap { cell, new_master } => {
                ResolvedCmd::Swap(cell_id(*cell)?, master_id(new_master)?)
            }
            JournalCmd::SetWireLength { net, um } => ResolvedCmd::SetWireLength(net_id(*net)?, *um),
            JournalCmd::SetRouteClass { net, class } => {
                ResolvedCmd::SetRouteClass(net_id(*net)?, *class)
            }
            JournalCmd::InsertBuffer {
                src_net,
                master,
                sinks,
            } => {
                let net = net_id(*src_net)?;
                let master = master_id(master)?;
                let mut seen = HashSet::new();
                let mut moved = Vec::with_capacity(sinks.len());
                for &(cell, pin) in sinks {
                    moved.push(pin_ref(cell, pin)?);
                    if !seen.insert((cell, pin)) {
                        return Err(Error::invalid_input(format!("duplicate sink {cell}:{pin}")));
                    }
                }
                self.cells += 1;
                self.nets += 1;
                ResolvedCmd::InsertBuffer(net, master, moved)
            }
            JournalCmd::Rewire { cell, pin, net } => {
                ResolvedCmd::Rewire(pin_ref(*cell, *pin)?, net_id(*net)?)
            }
        })
    }
}

fn apply_cmds(nl: &mut Netlist, lib: &Library, cmds: &[JournalCmd]) -> Result<usize> {
    let mut refs = JournalRefs::new(nl);
    for (i, cmd) in cmds.iter().enumerate() {
        let at = |m: &dyn std::fmt::Display| format!("journal entry {i}: {m}");
        let resolved = refs.resolve(nl, lib, cmd).map_err(|e| match e {
            Error::NotFound(m) => Error::not_found(at(&m)),
            Error::InvalidInput(m) => Error::invalid_input(at(&m)),
            other => other,
        })?;
        let applied = match resolved {
            ResolvedCmd::Swap(cell, master) => nl.swap_master(lib, cell, master),
            // Decode already rejects these, but commands can also be
            // built programmatically.
            ResolvedCmd::SetWireLength(_, um) if !um.is_finite() || um < 0.0 => {
                return Err(Error::invalid_input(at(&format_args!(
                    "length must be finite and non-negative, got {um}"
                ))));
            }
            ResolvedCmd::SetWireLength(net, um) => {
                nl.set_wire_length(net, um);
                Ok(())
            }
            ResolvedCmd::SetRouteClass(net, class) => {
                nl.set_route_class(net, class);
                Ok(())
            }
            ResolvedCmd::InsertBuffer(net, master, moved) => {
                nl.insert_buffer(lib, net, &moved, master).map(|_| ())
            }
            ResolvedCmd::Rewire(sink, net) => {
                nl.rewire_input(sink, net);
                Ok(())
            }
        };
        applied.map_err(|e| Error::invalid_input(at(&e)))?;
    }
    Ok(cmds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, BenchProfile};
    use tc_liberty::{LibConfig, Library, PvtCorner};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    fn swap_target(nl: &Netlist, lib: &Library) -> (CellId, String) {
        // Find a cell with a same-pin-count alternative master.
        for cell in nl.cells() {
            let pins = cell.inputs.len();
            let cur = lib.cell(cell.master).name.clone();
            if let Some(alt) = lib
                .cells()
                .iter()
                .find(|c| c.input_pins().len() == pins && c.name != cur)
            {
                return (nl.cell_named(cell.name).unwrap(), alt.name.clone());
            }
        }
        panic!("no swappable cell");
    }

    #[test]
    fn roundtrip_through_text_and_replay() {
        let lib = lib();
        let mut nl = generate(&lib, BenchProfile::tiny(), 7).unwrap();
        let mut copy = nl.clone();
        let cp = nl.journal_len();

        let (cell, alt) = swap_target(&nl, &lib);
        let alt_id = lib.id_of(&alt).unwrap();
        nl.swap_master(&lib, cell, alt_id).unwrap();
        nl.set_wire_length(NetId::new(3), 41.25);
        nl.set_route_class(NetId::new(3), 2);
        let buf = lib
            .cells()
            .iter()
            .find(|c| c.input_pins().len() == 1 && c.is_buffer_like())
            .unwrap();
        let victim = NetId::new(3);
        let sink = nl.net(victim).sinks.first().copied();
        if let Some(s) = sink {
            nl.insert_buffer(&lib, victim, &[s], lib.id_of(&buf.name).unwrap())
                .unwrap();
        }

        let text = write_journal(&nl, &lib, cp);
        let cmds = decode_journal(&text).unwrap();
        // Canonical text is a fixpoint of decode∘render.
        assert_eq!(render_cmds(&cmds), text);

        let applied = replay_journal(&mut copy, &lib, &cmds).unwrap();
        assert_eq!(applied, cmds.len());
        copy.validate(&lib).unwrap();
        assert_eq!(copy.cell_count(), nl.cell_count());
        assert_eq!(copy.net_count(), nl.net_count());
        assert_eq!(copy.cell(cell).master, alt_id);
        assert!((copy.net(NetId::new(3)).wire_length_um - 41.25).abs() < 1e-12);
    }

    #[test]
    fn decode_errors_carry_line_numbers() {
        for (text, want) in [
            ("SWAP cell 0 master X\n", "line 1"),
            ("*TCJ 1\nSWAP cell zero master X\n", "line 2"),
            ("*TCJ 1\nWIRELEN net 0 um NaN\n", "line 2"),
            ("*TCJ 1\nWIRELEN net 0 um -5\n", "line 2"),
            ("*TCJ 1\nFROB net 0\n", "line 2"),
            ("*TCJ 1\nBUF net 0 master B sinks 1;2\n", "line 2"),
            ("", "line 1"),
        ] {
            let err = decode_journal(text).unwrap_err().to_string();
            assert!(err.contains(want), "`{err}` lacks `{want}` for {text:?}");
        }
    }

    #[test]
    fn replay_failure_rolls_back_everything() {
        let lib = lib();
        let mut nl = generate(&lib, BenchProfile::tiny(), 7).unwrap();
        let before = nl.clone();
        let cp = nl.journal_len();

        let (cell, alt) = swap_target(&nl, &lib);
        let cmds = vec![
            JournalCmd::Swap {
                cell: cell.index(),
                new_master: alt,
            },
            JournalCmd::SetWireLength { net: 2, um: 99.0 },
            // Out-of-range cell: must fail *and* unwind the two edits
            // above.
            JournalCmd::Swap {
                cell: 999_999,
                new_master: "INV_X1_SVT".to_string(),
            },
        ];
        let err = replay_journal(&mut nl, &lib, &cmds).unwrap_err();
        assert!(err.to_string().contains("entry 2"), "{err}");
        assert_eq!(nl.journal_len(), cp);
        assert_eq!(nl.cell(cell).master, before.cell(cell).master);
        assert!(
            (nl.net(NetId::new(2)).wire_length_um - before.net(NetId::new(2)).wire_length_um).abs()
                < 1e-12
        );
    }

    #[test]
    fn replay_rejects_bad_references_without_panicking() {
        let lib = lib();
        let mut nl = generate(&lib, BenchProfile::tiny(), 7).unwrap();
        for cmd in [
            JournalCmd::SetWireLength {
                net: usize::MAX,
                um: 1.0,
            },
            JournalCmd::SetRouteClass {
                net: 1 << 40,
                class: 2,
            },
            JournalCmd::Swap {
                cell: 0,
                new_master: "NO_SUCH_CELL".to_string(),
            },
            JournalCmd::Rewire {
                cell: 0,
                pin: 99,
                net: 0,
            },
            JournalCmd::InsertBuffer {
                src_net: 0,
                master: "BUF_X2_SVT".to_string(),
                sinks: vec![(0, 0), (0, 0)],
            },
        ] {
            let cp = nl.journal_len();
            let err = replay_journal(&mut nl, &lib, std::slice::from_ref(&cmd)).unwrap_err();
            assert!(err.to_string().contains("entry 0"), "{cmd:?}: {err}");
            assert_eq!(nl.journal_len(), cp, "{cmd:?} left edits applied");
        }
    }
}
