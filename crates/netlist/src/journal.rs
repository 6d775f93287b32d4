//! The ECO edit journal: a typed log of every netlist mutation.
//!
//! Incremental timing (the `Timer` in `tc-sta`) consumes this journal to
//! find the dirty cones an edit invalidated, instead of re-timing the
//! whole design. The journal also powers O(edits) rollback
//! ([`Netlist::undo_to`]): each entry records enough of the *prior*
//! state (old master, old wirelength, original sink positions) that the
//! inverse can be applied exactly, restoring bit-identical structure.
//!
//! Identifiers are stable across edits: cells and nets are only ever
//! appended (buffer insertion appends one cell and one net), so a
//! `CellId`/`NetId` captured before an edit sequence still names the
//! same object afterwards — and after an undo.
//!
//! [`Netlist::undo_to`]: crate::Netlist::undo_to

use tc_core::ids::{CellId, LibCellId, NetId};

use crate::graph::PinRef;

/// One journaled netlist edit.
///
/// Every ECO mutator on [`Netlist`](crate::Netlist) appends exactly one
/// entry. Construction-time calls (`add_cell`, `add_input`,
/// `mark_output`) are *not* journaled, so a parsed design starts with
/// an empty journal. The generators in [`crate::gen`] finish their
/// designs with ECO mutators (`rewire_input` on flop D pins,
/// `set_wire_length` on every net), so a generated design starts with
/// those entries in it. Either way the journal describes a delta, and
/// [`Netlist::journal_len`] taken once construction is over is the
/// "time zero" checkpoint.
///
/// [`Netlist::journal_len`]: crate::Netlist::journal_len
#[derive(Clone, Debug, PartialEq)]
pub enum NetlistEdit {
    /// `swap_master`: Vt-swap or resize — arc tables and pin caps change,
    /// structure does not.
    SwapMaster {
        /// The rebound cell.
        cell: CellId,
        /// Master before the swap.
        old_master: LibCellId,
        /// Master after the swap.
        new_master: LibCellId,
    },
    /// `set_wire_length`: a net's estimated routed length changed.
    SetWireLength {
        /// The annotated net.
        net: NetId,
        /// Length before, µm.
        old_um: f64,
        /// Length after, µm.
        new_um: f64,
    },
    /// `set_route_class`: a net's non-default routing rule changed.
    SetRouteClass {
        /// The reclassed net.
        net: NetId,
        /// Route class before.
        old_class: u8,
        /// Route class after.
        new_class: u8,
    },
    /// `insert_buffer`: one cell and one net were appended; the moved
    /// sinks now hang off the buffer's output net.
    InsertBuffer {
        /// The new buffer cell (always the last cell at insertion time).
        buffer: CellId,
        /// The buffer's output net (always the last net at insertion time).
        buffer_out: NetId,
        /// The net that was split (the buffer's input).
        src_net: NetId,
        /// The re-homed sinks with their original positions in
        /// `src_net`'s sink list, ascending — what `undo_to` needs to
        /// restore the exact sink order (per-sink wire delays align with
        /// that order).
        moved_sinks: Vec<(PinRef, usize)>,
    },
    /// `rewire_input`: one sink pin moved between nets.
    RewireInput {
        /// The moved sink.
        sink: PinRef,
        /// Net it was detached from.
        old_net: NetId,
        /// Net it now loads.
        new_net: NetId,
        /// The sink's original position in `old_net`'s sink list.
        old_index: usize,
    },
}

impl NetlistEdit {
    /// `true` for edits that change graph structure (cell/net counts or
    /// connectivity), forcing the incremental timer to re-derive its
    /// topological order; value-only edits (swap, wirelength, NDR) reuse
    /// the existing order.
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            NetlistEdit::InsertBuffer { .. } | NetlistEdit::RewireInput { .. }
        )
    }
}
