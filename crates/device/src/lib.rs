#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-device — compact transistor models
//!
//! This crate is the workspace's stand-in for foundry SPICE models. It
//! implements the **alpha-power-law MOSFET** (Sakurai–Newton) with
//! temperature-dependent threshold voltage and mobility, which is enough
//! to reproduce every device-level behaviour the paper leans on:
//!
//! * **Temperature inversion** (paper §2.3, Fig 6b): at supply voltages
//!   below the reversal point `Vtr` the threshold-voltage term dominates
//!   and circuits are *slower cold*; above `Vtr` mobility degradation
//!   dominates and circuits are *slower hot*.
//! * **Multi-Vt libraries** ([`VtClass`]): ULVT/LVT/SVT/HVT devices trade
//!   speed against exponentially increasing leakage, the knob behind the
//!   Vt-swap fix of the closure loop (Fig 1) and the MinIA interference of
//!   §2.4.
//! * **BTI aging** hook: a [`MosDevice`] carries a threshold shift
//!   `delta_vt` that `tc-aging` populates from its BTI model (§3.3).
//! * **Voltage scaling**: drive current collapses as VDD approaches Vt,
//!   reproducing the wide-voltage-range behaviour (0.46–1.25 V) that
//!   drives corner explosion (§2.3).
//!
//! # Examples
//!
//! ```
//! use tc_core::units::{Celsius, Volt};
//! use tc_device::{MosDevice, MosKind, Technology, VtClass};
//!
//! let tech = Technology::planar_28nm();
//! let nmos = MosDevice::new(MosKind::Nmos, VtClass::Svt, 1.0);
//! // Saturation current rises with gate drive.
//! let lo = nmos.drain_current(&tech, Volt::new(0.6), Volt::new(0.9), Celsius::new(25.0));
//! let hi = nmos.drain_current(&tech, Volt::new(0.9), Volt::new(0.9), Celsius::new(25.0));
//! assert!(hi > lo);
//! ```

pub mod mosfet;
pub mod vt;

pub use mosfet::{FoldedMos, GateDrive, MosDevice, MosKind, Technology};
pub use vt::VtClass;
