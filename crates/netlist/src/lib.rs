#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-netlist — gate-level netlists and synthetic benchmarks
//!
//! The netlist is the object the whole closure flow operates on: STA
//! reads it, the fix engine *edits* it (Vt-swap, resize, buffer
//! insertion — the ECO operations of the paper's Fig 1), and the
//! placement/clock crates annotate it.
//!
//! * [`graph`] — the [`Netlist`] structure: cell instances bound to
//!   `tc-liberty` masters, single-driver nets, primary I/O, plus the ECO
//!   edit operations (`swap_master`, `insert_buffer`).
//! * [`level`] — levelization (topological ordering with flops as
//!   sequential boundaries), logic-depth queries, combinational-loop
//!   detection.
//! * [`gen`] — seeded random-logic generators and the synthetic stand-ins
//!   for the paper's Fig 9 benchmark set (c5315, c7552, AES, MPEG2).
//!
//! # Examples
//!
//! ```
//! use tc_liberty::{LibConfig, Library, PvtCorner};
//! use tc_netlist::gen::{generate, BenchProfile};
//!
//! let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
//! let nl = generate(&lib, BenchProfile::c5315(), 42)?;
//! assert!(nl.cell_count() > 1_000);
//! # Ok::<(), tc_core::Error>(())
//! ```

pub mod gen;
pub mod graph;
pub mod journal;
pub mod journal_text;
pub mod level;
pub mod scc;
pub mod verilog;

pub use graph::{CellRef, Interner, NetNameIndex, NetRef, Netlist, PinRef};
pub use journal::NetlistEdit;
pub use journal_text::{
    decode_journal, render_cmds, replay_journal, write_journal, JournalCmd, JournalRefs,
};
pub use level::Levelization;
pub use scc::{combinational_sccs, describe_scc};
pub use verilog::{parse_verilog, parse_verilog_from, write_verilog};
