#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-core — shared foundation for the `timing-closure` workspace
//!
//! This crate holds the domain-neutral building blocks used by every other
//! crate in the workspace:
//!
//! * [`units`] — newtype wrappers for physical quantities ([`Ps`], [`Ff`],
//!   [`Kohm`], [`Volt`], [`Celsius`], [`Um`]) with dimensional arithmetic,
//!   so a picosecond can never silently mix with a nanosecond
//!   (C-NEWTYPE).
//! * [`lut`] — 1-D and 2-D interpolated lookup tables, the data structure
//!   behind Liberty NLDM/LVF delay tables.
//! * [`stats`] — summary statistics (mean, sigma, skewness, quantiles) and
//!   histograms used by the Monte Carlo engines.
//! * [`rng`] — a small, fully deterministic xoshiro256** PRNG with
//!   Box–Muller normal and Azzalini skew-normal samplers. Every stochastic
//!   experiment in the workspace takes an explicit `u64` seed so results
//!   are reproducible bit-for-bit across runs and platforms.
//! * [`ids`] — typed index newtypes shared by the netlist/STA graphs.
//! * [`text`] — FNV-1a and the byte-level line reader the handoff-file
//!   readers share.
//!
//! # Examples
//!
//! ```
//! use tc_core::units::{Ff, Kohm, Ps};
//!
//! // An RC product is a time: 2 kΩ × 3 fF = 6 ps.
//! let delay: Ps = Kohm::new(2.0) * Ff::new(3.0);
//! assert_eq!(delay, Ps::new(6.0));
//! ```

pub mod error;
pub mod ids;
pub mod lut;
pub mod rng;
pub mod stats;
pub mod text;
pub mod units;

pub use error::{Error, Result};
pub use lut::{Lut1, Lut2, LutPoint};
pub use rng::Rng;
pub use stats::Summary;
pub use units::{Celsius, Ff, Kohm, Ps, Um, Volt};
