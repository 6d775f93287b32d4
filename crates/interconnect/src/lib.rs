#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-interconnect — BEOL interconnect modeling
//!
//! The paper's §2.2/§3.2 center on the "rise of the BEOL": sub-20 nm
//! wires are highly resistive, multi-patterned, and a first-class source
//! of timing variation. This crate models that stack:
//!
//! * [`beol`] — a 9-metal-layer stack with per-layer R/C, the
//!   conventional BEOL corners (Cw/Cb/Ccw/Ccb/RCw/RCb), and per-layer
//!   *independent* variation parameters (the fact the Tightened BEOL
//!   Corner methodology of Fig 8 exploits).
//! * [`rctree`] — RC trees with Elmore and D2M delay metrics and the
//!   O'Brien–Savarino pi-model reduction used to present an effective
//!   load to the driver's NLDM table.
//! * [`sadp`] — self-aligned double patterning: the four SID patterning
//!   solutions of Fig 5(c) with their CD-variance formulas, line-end
//!   extension and floating-fill capacitance adders, and the bimodal CD
//!   distribution of LELE double patterning.
//! * [`estimate`] — wirelength-based net models (layer assignment by
//!   length, optional non-default rules), producing the `WireModel`
//!   consumed by `tc-sta`.
//!
//! # Examples
//!
//! ```
//! use tc_interconnect::beol::{BeolCorner, BeolStack};
//!
//! let stack = BeolStack::n20();
//! let typ = stack.layer(4).unit_delay(BeolCorner::Typical);
//! let slow = stack.layer(4).unit_delay(BeolCorner::RcWorst);
//! assert!(slow > typ);
//! ```

pub mod beol;
pub mod estimate;
pub mod rctree;
pub mod sadp;
pub mod spef;

pub use beol::{BeolCorner, BeolStack, MetalLayer};
pub use estimate::{NdrClass, WireModel};
pub use rctree::RcTree;
pub use sadp::{PatterningSolution, SadpProcess};
pub use spef::{parse_spef, parse_spef_from, write_spef, NetParasitics};
