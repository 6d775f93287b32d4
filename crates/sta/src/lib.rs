#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-sta — static timing analysis
//!
//! The analysis engine at the center of the paper's closure loop (Fig 1):
//! every iteration of timing closure begins with an STA run, and every
//! modeling evolution the paper surveys (§1.3, §3.1) is a change to how
//! this engine derates or searches.
//!
//! * [`constraints`] — clocks, I/O delays, uncertainties, the clock-tree
//!   latency model (with common/local split for CPPR), and the derate
//!   model selection.
//! * [`analysis`] — graph-based analysis (GBA): levelized late/early
//!   arrival propagation with slews, POCV/LVF variance accumulation,
//!   setup/hold checks at flop D pins and primary outputs, all held in
//!   one [`TimingState`].
//! * [`report`] — WNS/TNS, slack histograms and the *failure breakdown*
//!   the manual-fix step of Fig 1 consumes (weak drive vs long wire vs
//!   deep path).
//! * [`pba`] — path-based analysis: worst-path extraction and exact
//!   re-evaluation (true path depth for AOCV, RSS sigma along the path),
//!   guaranteed no more pessimistic than GBA (§1.3).
//! * [`si`] — a coupling delta-delay model: aggressor coupling inflates
//!   late arrivals and deflates early ones.
//! * [`mcmm`] — multi-corner multi-mode scenario management (§2.3):
//!   run many (library corner × BEOL corner × mode) scenarios, merge
//!   worst slacks per endpoint; shared-graph runs derive the design's
//!   timing structure once across all corners.
//! * [`timer`] — the persistent incremental timer: a long-lived
//!   [`TimingGraph`](timer::TimingGraph) plus dirty-cone re-propagation
//!   driven by the netlist's ECO edit journal, and the [`Trial`] that
//!   speculates a fix on netlist and timer together and undoes both in
//!   O(cone). Bit-identical to a from-scratch run.
//!
//! # Examples
//!
//! ```
//! use tc_interconnect::BeolStack;
//! use tc_liberty::{LibConfig, Library, PvtCorner};
//! use tc_netlist::gen::{generate, BenchProfile};
//! use tc_sta::{Constraints, Sta};
//!
//! let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
//! let nl = generate(&lib, BenchProfile::tiny(), 1)?;
//! let stack = BeolStack::n20();
//! let cons = Constraints::single_clock(1_000.0); // 1 ns
//! let report = Sta::new(&nl, &lib, &stack, &cons).run()?;
//! assert!(report.endpoints.len() > 0);
//! # Ok::<(), tc_core::Error>(())
//! ```

pub mod analysis;
pub mod constraints;
pub mod etm;
pub mod mcmm;
pub mod noise;
pub mod pba;
pub mod report;
pub mod si;
pub mod timer;

pub use analysis::{Sta, TimingState};
pub use constraints::{Clock, ClockTreeModel, Constraints, Exceptions};
pub use etm::Etm;
pub use mcmm::{merge_reports, Scenario};
pub use noise::{noise_check, NoiseConfig, NoiseViolation};
pub use pba::{pba_worst_endpoints, worst_paths, CriticalPath, PathStage, PbaEndpoint};
pub use report::{Endpoint, EndpointTiming, FailureClass, TimingReport};
pub use timer::{Timer, TimerCheckpoint, TimingGraph, Trial};
