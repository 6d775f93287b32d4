#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-liberty — cell-library modeling (NLDM, corners, AOCV/POCV/LVF)
//!
//! This crate plays the role of the foundry Liberty deliverable in the
//! paper's ecosystem. It provides:
//!
//! * [`corner`] — PVT corner definitions ([`PvtCorner`]): process corners
//!   (SS/SSG/TT/FFG/FF plus cross-corners FS/SF), voltage and temperature,
//!   with delay scaling factors derived from the `tc-device` models so
//!   temperature inversion (§2.3) falls out naturally.
//! * [`nldm`] — closed-form NLDM table generation: per-arc
//!   delay(slew, load) and output-slew tables built on a logical-effort
//!   style cell model over the `tc-device` drive resistance, with
//!   hand-set intrinsic and slew constants. It is not fitted to `tc-sim`
//!   characterization; the two share only the device model.
//! * [`cell`] — library cells ([`LibCell`]) with pins, arcs, area,
//!   leakage and dynamic power; multi-Vt, multi-drive variants.
//! * [`flop`] — sequential timing: setup/hold constraint tables, c2q
//!   arcs, and the *interdependent* setup–hold–c2q surface of the paper's
//!   Fig 10 ([`flop::InterdepModel`]) used for margin recovery (§3.4).
//! * [`variation`] — the variation-modeling standards ladder of §3.1:
//!   flat OCV derates, stage-count AOCV tables ([`variation::AocvTable`]),
//!   per-cell POCV sigma, and per-(slew, load) LVF sigma tables
//!   ([`variation::LvfTable`]) with separate late/early sigmas.
//! * [`library`] — the [`Library`] container and the synthetic library
//!   generator used throughout the workspace (our substitute for a
//!   foundry 16 nm kit).
//!
//! # Examples
//!
//! ```
//! use tc_liberty::{Library, LibConfig, PvtCorner};
//!
//! let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
//! let nand = lib.cell_named("NAND2_X2_SVT").expect("cell exists");
//! let arc = &nand.arcs[0];
//! // Delay grows with load.
//! assert!(arc.delay.eval(20.0, 10.0) > arc.delay.eval(20.0, 2.0));
//! ```

pub mod cell;
pub mod corner;
pub mod flop;
pub mod libfile;
pub mod library;
pub mod nldm;
pub mod variation;

pub use cell::{CellKind, LibCell, TimingArc};
pub use corner::{ProcessCorner, PvtCorner};
pub use flop::{FlopTiming, InterdepModel};
pub use libfile::{parse_liberty, write_liberty, ParsedLibrary};
pub use library::{LibConfig, Library};
pub use variation::{AocvTable, DerateModel, LvfTable, PocvSigma};
