#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-sim — transient circuit simulation (the workspace's SPICE substitute)
//!
//! The paper's device-level evidence (Figures 4, 6b and 10) comes from
//! HSPICE runs on foundry models. This crate replaces that proprietary
//! stack with a small, deterministic transient simulator:
//!
//! * [`circuit`] — netlist of resistors, capacitors, piecewise-linear
//!   sources and [`tc_device`] MOSFETs.
//! * [`solver`] — backward-Euler integration with damped Newton iteration
//!   and a dense LU solve (circuits here are ≤ a few dozen nodes).
//! * [`cells`] — transistor-level standard cells: inverter, NAND2, NOR2,
//!   transmission-gate master–slave flip-flop.
//! * [`measure`] — 50%-crossing delays and 10–90% slews on waveforms.
//! * [`mis`] — the multi-input-switching study of **Fig 4**: MIS vs SIS
//!   arc delays of a NAND2 with an FO3 load, sweeping the second input's
//!   arrival offset.
//! * [`ff_char`] — flip-flop characterization by bisection: c2q-vs-setup,
//!   c2q-vs-hold and the setup/hold interdependency contour of **Fig 10**,
//!   including the industry-standard 10% c2q-pushout criterion.
//! * [`char_cell`] — NLDM-style (slew × load) delay/slew table
//!   characterization used by `tc-liberty`'s simulator-backed library.
//!
//! # Examples
//!
//! ```
//! use tc_core::units::{Celsius, Volt};
//! use tc_device::{Technology, VtClass};
//! use tc_sim::cells::inverter_chain_delay;
//!
//! let tech = Technology::planar_28nm();
//! let d = inverter_chain_delay(&tech, VtClass::Svt, Volt::new(0.9), Celsius::new(25.0))?;
//! assert!(d.value() > 0.0 && d.value() < 200.0); // a sane stage delay in ps
//! # Ok::<(), tc_core::Error>(())
//! ```

pub mod cells;
pub mod char_cell;
pub mod circuit;
#[cfg(test)]
mod early_stop_exactness;
pub mod ff_char;
pub mod measure;
pub mod mis;
pub mod solver;

pub use circuit::{Circuit, NodeId, Pwl};
pub use measure::{cross_time, delay_between, slew_10_90, Waveform};
pub use solver::{TranOptions, TranResult};
