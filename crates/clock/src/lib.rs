#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-clock — clock distribution and clock-related margin recovery
//!
//! The paper repeatedly singles the clock network out: MCMM clock
//! synthesis "where each of hundreds of scenarios has different clock
//! insertion delay" (§1.2), flat jitter margins that "sweep PLL jitter,
//! CTS jitter and IR-drop margin under a single rug" (§1.3 footnote),
//! cycle-to-cycle jitter margining (§3.4), and useful skew as both a
//! closure fix (Fig 1) and a future optimization (\[6\], §4).
//!
//! * [`cts`] — recursive-bisection clock-tree synthesis over a
//!   `tc-placement` placement, producing the latency model `tc-sta`
//!   consumes; multi-corner skew reporting.
//! * [`jitter`] — flat vs cycle-to-cycle jitter margining.
//! * [`useful_skew`] — greedy leaf-latency adjustment (the "useful
//!   skew" fix), each move a speculative edit of `tc-sta`'s timer.
//!
//! # Examples
//!
//! ```
//! use tc_liberty::{LibConfig, Library, PvtCorner};
//! use tc_netlist::gen::{generate, BenchProfile};
//! use tc_placement::rows::Placement;
//! use tc_clock::cts::ClockTree;
//!
//! let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
//! let nl = generate(&lib, BenchProfile::tiny(), 1)?;
//! let pl = Placement::row_fill(&nl, &lib, 64, 7);
//! let tree = ClockTree::synthesize(&nl, &lib, &pl, 8);
//! assert!(tree.skew().value() >= 0.0);
//! # Ok::<(), tc_core::Error>(())
//! ```

pub mod cts;
pub mod jitter;
pub mod useful_skew;

pub use cts::ClockTree;
pub use jitter::JitterModel;
pub use useful_skew::{optimize_useful_skew, skew_on_timer};
