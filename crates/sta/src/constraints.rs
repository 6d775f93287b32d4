//! Timing constraints: clocks, I/O delays, clock-tree latencies, derates.

// Cold configuration path: constraint sets are built once per scenario
// and looked up per endpoint, never inside the propagation loop.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};

use tc_core::error::{Error, Result};
use tc_core::ids::CellId;
use tc_core::units::Ps;
use tc_liberty::DerateModel;

/// A clock definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Clock {
    /// Clock name.
    pub name: String,
    /// Period.
    pub period: Ps,
    /// Setup uncertainty (jitter + margin — the "flat margin" of §1.3).
    pub uncertainty: Ps,
    /// Hold uncertainty.
    pub hold_uncertainty: Ps,
    /// Latency from the clock source to the tree root.
    pub source_latency: Ps,
}

impl Clock {
    /// A clock with the given period and default margins.
    pub fn new(name: impl Into<String>, period: Ps) -> Self {
        Clock {
            name: name.into(),
            period,
            uncertainty: Ps::new(20.0),
            hold_uncertainty: Ps::new(10.0),
            source_latency: Ps::new(50.0),
        }
    }
}

/// Clock-tree latency model with the common/leaf split that CPPR
/// exploits: `arrival(sink) = source_latency + common + leaf(sink)`.
/// Only the *leaf* segment is subject to on-chip-variation derating; the
/// common segment is shared by launch and capture and cancels.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClockTreeModel {
    /// Latency of the shared trunk (source to first branch).
    pub common: Ps,
    /// Default leaf latency for flops not in `leaf`.
    pub default_leaf: Ps,
    /// Per-flop leaf latency (insertion delay past the trunk); also the
    /// lever useful-skew optimization adjusts.
    pub leaf: HashMap<CellId, Ps>,
    /// Clock slew at the flop CK pins, ps.
    pub clock_slew: f64,
}

impl ClockTreeModel {
    /// An ideal clock network (zero latency everywhere).
    pub fn ideal() -> Self {
        ClockTreeModel {
            common: Ps::ZERO,
            default_leaf: Ps::ZERO,
            leaf: HashMap::new(),
            clock_slew: 25.0,
        }
    }

    /// Leaf latency of a flop.
    pub fn leaf_of(&self, flop: CellId) -> Ps {
        self.leaf.get(&flop).copied().unwrap_or(self.default_leaf)
    }

    /// Adjusts one flop's leaf latency by `delta` (useful skew),
    /// returning its previous map entry (`None` if it sat on the default).
    pub fn skew_by(&mut self, flop: CellId, delta: Ps) -> Option<Ps> {
        let cur = self.leaf_of(flop);
        self.leaf.insert(flop, cur + delta)
    }
}

/// The full constraint set for one analysis mode.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraints {
    /// Clocks (index 0 is the default clock for all flops).
    pub clocks: Vec<Clock>,
    /// Clock network latencies.
    pub clock_tree: ClockTreeModel,
    /// Arrival time of primary inputs relative to the clock edge.
    pub input_delay: Ps,
    /// Required margin at primary outputs.
    pub output_delay: Ps,
    /// Transition time assumed at primary inputs, ps.
    pub input_slew: f64,
    /// Variation-derate model in force.
    pub derate: DerateModel,
    /// Flat wire derates `(late, early)` applied to net delays when the
    /// cell derate is flat/AOCV; POCV/LVF instead accumulate wire sigma.
    pub wire_derate: (f64, f64),
    /// Whether clock-path-pessimism removal is applied (disable to
    /// measure the pessimism CPPR recovers).
    pub cppr: bool,
    /// Whether coupling (SI) delta delays are added.
    pub si_enabled: bool,
    /// Timing exceptions (the SDC `set_false_path` / `set_multicycle_path`
    /// layer — "constraints evolution" is one of §4 Comment 3's schedule
    /// risks).
    pub exceptions: Exceptions,
}

/// Endpoint-scoped timing exceptions.
///
/// Real SDC scopes exceptions by through-points as well; endpoint scope
/// covers the dominant uses (configuration registers, quasi-static CDC
/// endpoints, deliberately slow datapaths).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exceptions {
    /// Flops whose D-pin setup/hold checks are waived entirely.
    pub false_path_endpoints: HashSet<CellId>,
    /// Flops whose setup check gets `n` clock periods instead of one
    /// (`n ≥ 1`); hold stays single-cycle per standard SDC semantics.
    pub multicycle_endpoints: HashMap<CellId, u32>,
}

impl Exceptions {
    /// Declares a false path to a flop endpoint.
    pub fn false_path_to(&mut self, flop: CellId) {
        self.false_path_endpoints.insert(flop);
    }

    /// Declares an `n`-cycle setup path to a flop endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn multicycle_to(&mut self, flop: CellId, n: u32) {
        assert!(n >= 1, "multicycle multiplier must be ≥ 1");
        self.multicycle_endpoints.insert(flop, n);
    }

    /// The setup-period multiplier for an endpoint (1 when unconstrained).
    pub fn setup_cycles(&self, flop: CellId) -> u32 {
        self.multicycle_endpoints.get(&flop).copied().unwrap_or(1)
    }

    /// `true` if the endpoint's checks are waived.
    pub fn is_false_path(&self, flop: CellId) -> bool {
        self.false_path_endpoints.contains(&flop)
    }
}

impl Constraints {
    /// Single-clock constraints at the given period (ps) with classic
    /// flat derates — the 2010-era baseline setup.
    pub fn single_clock(period_ps: f64) -> Self {
        Constraints {
            clocks: vec![Clock::new("clk", Ps::new(period_ps))],
            clock_tree: ClockTreeModel::ideal(),
            input_delay: Ps::new(100.0),
            output_delay: Ps::new(100.0),
            input_slew: 30.0,
            derate: DerateModel::classic_flat(),
            wire_derate: (1.05, 0.95),
            cppr: true,
            si_enabled: false,
            exceptions: Exceptions::default(),
        }
    }

    /// Returns a copy using a different derate model.
    pub fn with_derate(mut self, derate: DerateModel) -> Self {
        self.derate = derate;
        self
    }

    /// Returns a copy at a different period.
    pub fn with_period(mut self, period_ps: f64) -> Self {
        self.clocks[0].period = Ps::new(period_ps);
        self
    }

    /// The clock governing all flops (multi-clock designs index
    /// explicitly; the default clock is index 0).
    pub fn default_clock(&self) -> &Clock {
        &self.clocks[0]
    }

    /// The default clock, or an error on a set that defines none (lint's
    /// TCL0201): every timing entry checks this before it reads a period.
    pub(crate) fn checked_clock(&self) -> Result<&Clock> {
        self.clocks.first().ok_or_else(|| {
            Error::invalid_input(
                "constraints define no clock: timing needs the default clock (clocks[0])",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Constraints::single_clock(800.0);
        assert_eq!(c.default_clock().period, Ps::new(800.0));
        assert!(c.cppr);
        assert!(!c.si_enabled);
        assert!(matches!(c.derate, DerateModel::Flat { .. }));
    }

    #[test]
    fn builder_style_modifiers() {
        let c = Constraints::single_clock(800.0)
            .with_period(500.0)
            .with_derate(DerateModel::None);
        assert_eq!(c.default_clock().period, Ps::new(500.0));
        assert_eq!(c.derate, DerateModel::None);
    }

    #[test]
    fn clock_tree_skew_adjustment() {
        let mut t = ClockTreeModel::ideal();
        let f = CellId::new(3);
        assert_eq!(t.leaf_of(f), Ps::ZERO);
        t.skew_by(f, Ps::new(15.0));
        t.skew_by(f, Ps::new(-5.0));
        assert_eq!(t.leaf_of(f), Ps::new(10.0));
        // Other flops unaffected.
        assert_eq!(t.leaf_of(CellId::new(4)), Ps::ZERO);
    }
}
