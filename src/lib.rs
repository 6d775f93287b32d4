#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # timing-closure — a reproduction of "New Game, New Goal Posts:
//! A Recent History of Timing Closure" (A. B. Kahng, DAC 2015)
//!
//! This facade crate re-exports the full workspace and adds the
//! high-level [`SignoffFlow`] that strings the subsystems together the
//! way a physical-design team would: generate/ingest a netlist, place
//! it, synthesize a clock tree, run the closure loop, then recover
//! power.
//!
//! The workspace layers, bottom-up:
//!
//! | Crate | Role |
//! |---|---|
//! | [`core`] (`tc-core`) | units, LUTs, statistics, deterministic RNG |
//! | [`device`] (`tc-device`) | alpha-power-law MOSFETs, temperature inversion |
//! | [`sim`] (`tc-sim`) | transient circuit simulation (the SPICE substitute) |
//! | [`liberty`] (`tc-liberty`) | NLDM libraries, PVT corners, AOCV/POCV/LVF |
//! | [`netlist`] (`tc-netlist`) | netlist graph, ECO edits, benchmark generators |
//! | [`interconnect`] (`tc-interconnect`) | BEOL stack, RC trees, SADP variability |
//! | [`sta`] (`tc-sta`) | GBA/PBA static timing, MCMM, CPPR, SI |
//! | [`variation`] (`tc-variation`) | Monte Carlo, model accuracy, tightened BEOL corners |
//! | [`placement`] (`tc-placement`) | rows, MinIA rule checking/fixing |
//! | [`clock`] (`tc-clock`) | CTS, skew, jitter, useful skew |
//! | [`aging`] (`tc-aging`) | BTI, AVS loop, aging-aware signoff |
//! | [`signoff`] (`tc-signoff`) | corner explosion, margins, yield, margin recovery |
//! | [`closure`] (`tc-closure`) | the Fig 1 closure loop and leakage recovery |
//!
//! # Examples
//!
//! ```
//! use timing_closure::SignoffFlow;
//!
//! let outcome = SignoffFlow::demo_block(99).run(1_800.0)?;
//! println!("{}", outcome.final_report.summary());
//! assert!(outcome.closed);
//! # Ok::<(), tc_core::Error>(())
//! ```

pub use tc_aging as aging;
pub use tc_clock as clock;
pub use tc_closure as closure;
pub use tc_core as core;
pub use tc_device as device;
pub use tc_interconnect as interconnect;
pub use tc_liberty as liberty;
pub use tc_netlist as netlist;
pub use tc_par as par;
pub use tc_placement as placement;
pub use tc_signoff as signoff;
pub use tc_sim as sim;
pub use tc_sta as sta;
pub use tc_variation as variation;

use tc_clock::cts::ClockTree;
use tc_closure::flow::{ClosureConfig, ClosureFlow};
use tc_closure::power::recover_leakage;
use tc_core::error::Result;
use tc_interconnect::BeolStack;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};
use tc_netlist::Netlist;
use tc_placement::rows::Placement;
use tc_sta::{Constraints, Timer, TimingReport};

/// The end-to-end flow: place → CTS → closure loop → leakage recovery.
///
/// This mirrors the "months of block-level final physical implementation"
/// the paper describes, compressed into one call for experimentation.
pub struct SignoffFlow {
    /// The library (one PVT corner; use [`sta::mcmm`] for multi-corner).
    pub lib: Library,
    /// BEOL stack.
    pub stack: BeolStack,
    /// The design under closure.
    pub netlist: Netlist,
    /// Closure-loop configuration.
    pub config: ClosureConfig,
}

/// What the flow produced.
pub struct FlowOutcome {
    /// Final signoff report.
    pub final_report: TimingReport,
    /// Whether the block closed.
    pub closed: bool,
    /// Closure iterations used.
    pub iterations: usize,
    /// Leakage saved by post-closure recovery (fraction).
    pub leakage_saving: f64,
    /// Final constraints (clock tree with CTS latencies + useful skew).
    pub constraints: Constraints,
}

impl SignoffFlow {
    /// A small demo block (seeded) over the default library and stack.
    pub fn demo_block(seed: u64) -> Self {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let netlist = generate(&lib, BenchProfile::tiny(), seed).expect("generator is total");
        SignoffFlow {
            lib,
            stack: BeolStack::n20(),
            netlist,
            config: ClosureConfig::default(),
        }
    }

    /// A flow over a caller-provided design.
    pub fn new(lib: Library, netlist: Netlist) -> Self {
        SignoffFlow {
            lib,
            stack: BeolStack::n20(),
            netlist,
            config: ClosureConfig::default(),
        }
    }

    /// Runs the flow at the given clock period (ps).
    ///
    /// # Errors
    ///
    /// Propagates analysis failures from any stage.
    pub fn run(mut self, period_ps: f64) -> Result<FlowOutcome> {
        // Placement and clock tree.
        let placement = Placement::row_fill(&self.netlist, &self.lib, 128, 7);
        let tree = ClockTree::synthesize(&self.netlist, &self.lib, &placement, 8);
        let mut cons = Constraints::single_clock(period_ps);
        cons.clock_tree = tree.to_model(25.0);

        // Closure loop.
        let mut flow = ClosureFlow::new(&self.lib, &self.stack, self.config.clone());
        let outcome = flow.run(&mut self.netlist, cons)?;

        // Post-closure power recovery (no-op unless clean), then signoff,
        // on one timer.
        let mut timer = Timer::new(&self.netlist, &self.lib, &self.stack, outcome.constraints)?;
        let recovery = recover_leakage(&mut timer, &mut self.netlist, 25, |_| true)?;

        let final_report = timer.report(&self.netlist);
        Ok(FlowOutcome {
            closed: final_report.is_clean(),
            iterations: outcome.iterations.len(),
            leakage_saving: recovery.saving(),
            final_report,
            constraints: timer.constraints().clone(),
        })
    }
}
