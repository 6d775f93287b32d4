//! Extracted timing models (ETMs) for hierarchical closure.
//!
//! §4 Comment 3: "flat vs ETM-based/hierarchical analysis and
//! optimization … affect design schedule and QOR". A block owner closes
//! the block flat, then hands the integrator a *boundary model*: worst
//! input-to-register setup requirements, register-to-output delays, and
//! feedthrough arcs — so top-level analysis never re-traverses the
//! block's interior. The price is boundary pessimism: the ETM keeps one
//! worst number per boundary pin, where flat analysis sees each path.

// Cold boundary-model path: ETMs are extracted once per block and keyed
// by a handful of boundary nets, not per-arc hot state.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use tc_core::error::Result;
use tc_core::ids::NetId;
use tc_core::units::Ps;

use crate::analysis::Sta;
use crate::report::Endpoint;

/// The timing requirement an ETM publishes for one block input: data
/// must arrive at least `setup_to_clock` before the clock edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InputRequirement {
    /// Worst interior setup requirement referenced to the clock edge, ps
    /// (i.e. required arrival = period − this).
    pub setup_to_clock: Ps,
    /// Depth of the interior path behind the requirement.
    pub depth: usize,
}

/// The timing an ETM publishes for one block output: valid
/// `clock_to_output` after the clock edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutputDelay {
    /// Worst clock-to-output delay, ps.
    pub clock_to_output: Ps,
    /// Output slew, ps.
    pub slew: f64,
}

/// An extracted timing model of a closed block.
#[derive(Clone, Debug, Default)]
pub struct Etm {
    /// Block name.
    pub name: String,
    /// Clock period the block was characterized at.
    pub period: Ps,
    /// Per-input requirements (keyed by the block's input net).
    pub inputs: HashMap<NetId, InputRequirement>,
    /// Per-output delays (keyed by the block's output net).
    pub outputs: HashMap<NetId, OutputDelay>,
}

impl Etm {
    /// Extracts an ETM from a block by running its STA and folding the
    /// *input-launched* interior endpoints to the boundary.
    ///
    /// Only endpoints whose worst path starts at a primary input
    /// constrain the boundary; purely internal register-to-register
    /// paths are the block owner's problem and do not leak into the
    /// model. The extraction publishes one worst requirement per input
    /// (the standard single-number ETM pessimism).
    ///
    /// # Errors
    ///
    /// Fails on constraints without a clock; propagates STA failures.
    pub fn extract(sta: &Sta<'_>, name: impl Into<String>) -> Result<Etm> {
        let period = sta.cons.checked_clock()?.period;

        // Input requirements need *input-launched* path visibility, but
        // GBA keeps only the single worst arrival per node — usually a
        // register-launched one. Re-run with the input arrival inflated
        // to the full period so input paths dominate wherever they
        // reach; the assumed arrival cancels out of the published
        // requirement (slack = required − (input_delay + interior), so
        // requirement = period − slack − input_delay is
        // arrival-independent). The boosted analysis is a clone: it
        // shares the graph and propagates its own arrivals.
        let mut boosted = sta.cons.clone();
        boosted.input_delay = period;
        sta.graph()?;
        let sta_boost = Sta {
            cons: &boosted,
            ..sta.clone()
        };
        let boost = sta_boost.propagate()?;
        let paths = crate::pba::worst_paths(&sta_boost, usize::MAX)?;
        let mut worst_req: Option<InputRequirement> = None;
        for p in &paths {
            if p.launch_flop.is_some() {
                continue; // internal reg-to-reg: not a boundary constraint
            }
            let Endpoint::FlopD(_) = p.endpoint else {
                continue;
            };
            let ep = boost.row(p.endpoint).expect("a path ends at a row");
            let cand = InputRequirement {
                setup_to_clock: Ps::new(
                    period.value() - (boosted.input_delay.value() + ep.setup_slack.value()),
                ),
                depth: ep.depth,
            };
            if worst_req
                .map(|w| cand.setup_to_clock > w.setup_to_clock)
                .unwrap_or(true)
            {
                worst_req = Some(cand);
            }
        }

        let mut inputs = HashMap::new();
        if let Some(req) = worst_req {
            for &pi in sta.nl.primary_inputs() {
                let net = sta.nl.net(pi);
                if sta.cons.clocks.iter().any(|c| c.name == net.name) {
                    continue;
                }
                inputs.insert(pi, req);
            }
        }

        let mut outputs = HashMap::new();
        for e in sta.propagate()?.rows() {
            let Endpoint::Output(net) = e.endpoint else {
                continue;
            };
            outputs.insert(
                net,
                OutputDelay {
                    clock_to_output: e.arrival,
                    slew: e.data_slew,
                },
            );
        }

        Ok(Etm {
            name: name.into(),
            period,
            inputs,
            outputs,
        })
    }

    /// Checks a top-level arrival against an input's published
    /// requirement; returns the slack.
    pub fn input_slack(&self, input: NetId, arrival: Ps) -> Option<Ps> {
        self.inputs
            .get(&input)
            .map(|r| Ps::new(self.period.value() - r.setup_to_clock.value()) - arrival)
    }

    /// The worst input requirement across the boundary (the block's
    /// headline constraint in the integrator's budget sheet).
    pub fn worst_input_requirement(&self) -> Option<Ps> {
        self.inputs
            .values()
            .map(|r| r.setup_to_clock)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: Ps| a.max(x))))
    }

    /// The worst clock-to-output across the boundary.
    pub fn worst_output_delay(&self) -> Option<Ps> {
        self.outputs
            .values()
            .map(|o| o.clock_to_output)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: Ps| a.max(x))))
    }
}

/// A two-block budget check at the top level: block A's output feeds
/// block B's input through a top-level wire. Returns the interface
/// slack under the two ETMs — the hierarchical version of a flat
/// reg-to-reg check.
pub fn interface_slack(
    a: &Etm,
    a_output: NetId,
    wire_delay: Ps,
    b: &Etm,
    b_input: NetId,
) -> Option<Ps> {
    let out = a.outputs.get(&a_output)?;
    let req = b.inputs.get(&b_input)?;
    // Data leaves A at c2out, travels the wire, and must arrive at B no
    // later than period − setup_to_clock.
    let arrival = out.clock_to_output + wire_delay;
    Some(Ps::new(b.period.value() - req.setup_to_clock.value()) - arrival)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_interconnect::BeolStack;
    use tc_liberty::{LibConfig, Library, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    use crate::constraints::Constraints;

    fn block(seed: u64) -> (Library, BeolStack, tc_netlist::Netlist) {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = generate(&lib, BenchProfile::tiny(), seed).unwrap();
        (lib, BeolStack::n20(), nl)
    }

    #[test]
    fn extraction_covers_the_boundary() {
        let (lib, stack, nl) = block(3);
        let cons = Constraints::single_clock(1_200.0);
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        let etm = Etm::extract(&sta, "blk").unwrap();
        // All data inputs published; clock excluded.
        assert_eq!(etm.inputs.len(), nl.primary_inputs().len() - 1);
        assert_eq!(etm.outputs.len(), nl.primary_outputs().count());
        assert!(etm.worst_input_requirement().is_some());
        assert!(etm.worst_output_delay().unwrap().value() > 0.0);
    }

    #[test]
    fn etm_check_is_conservative_vs_flat() {
        // The ETM folds every input-launched endpoint to one number per
        // input: its slack at a given boundary arrival must not be more
        // optimistic than the flat slack of the worst *input-launched*
        // endpoint at the same arrival. Identify those endpoints the way
        // the extractor does (boosted input delay) and compare in the
        // boosted run itself, where attribution is exact.
        let (lib, stack, nl) = block(5);
        let mut cons = Constraints::single_clock(1_200.0);
        cons.input_delay = Ps::new(1_200.0);
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        let flat = sta.run().unwrap();
        let paths = crate::pba::worst_paths(&sta, flat.endpoints.len()).unwrap();
        let flat_worst_input_launched = paths
            .iter()
            .filter(|p| p.launch_flop.is_none() && matches!(p.endpoint, Endpoint::FlopD(_)))
            .map(|p| p.slack)
            .fold(Ps::new(f64::INFINITY), Ps::min);

        let etm = Etm::extract(&sta, "blk").unwrap();
        let pi = nl.primary_inputs()[1]; // a data input
        let etm_slack = etm
            .input_slack(pi, cons.input_delay)
            .expect("published input");
        assert!(
            etm_slack <= flat_worst_input_launched + Ps::new(1e-6),
            "ETM {} must be ≤ flat {}",
            etm_slack,
            flat_worst_input_launched
        );
        // And within a whisker of it: the fold is tight at the worst pin.
        assert!(
            (etm_slack - flat_worst_input_launched).abs() < Ps::new(1.0),
            "fold should be tight: {} vs {}",
            etm_slack,
            flat_worst_input_launched
        );
    }

    #[test]
    fn extraction_after_run_equals_extraction_on_a_fresh_analysis() {
        // The boosted analysis is derived from one that has already
        // propagated: it must recompute, not inherit un-boosted arrivals.
        let (lib, stack, nl) = block(5);
        let cons = Constraints::single_clock(1_200.0);
        let fresh = Etm::extract(&Sta::new(&nl, &lib, &stack, &cons), "blk").unwrap();
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        sta.run().unwrap();
        let after_run = Etm::extract(&sta, "blk").unwrap();
        assert!(fresh.worst_input_requirement().is_some());
        assert_eq!(after_run.period, fresh.period);
        assert_eq!(after_run.inputs, fresh.inputs);
        assert_eq!(after_run.outputs, fresh.outputs);
    }

    #[test]
    fn interface_budget_between_two_blocks() {
        let (lib, stack, nl_a) = block(7);
        let nl_b = generate(&lib, BenchProfile::tiny(), 8).unwrap();
        let cons = Constraints::single_clock(1_500.0);
        let etm_a = Etm::extract(&Sta::new(&nl_a, &lib, &stack, &cons), "a").unwrap();
        let etm_b = Etm::extract(&Sta::new(&nl_b, &lib, &stack, &cons), "b").unwrap();

        let a_out = nl_a.primary_outputs().next().unwrap();
        let b_in = nl_b.primary_inputs()[1];
        let short = interface_slack(&etm_a, a_out, Ps::new(10.0), &etm_b, b_in).unwrap();
        let long = interface_slack(&etm_a, a_out, Ps::new(400.0), &etm_b, b_in).unwrap();
        assert!(short > long, "wire delay must eat interface slack");
        assert!((short - long - Ps::new(-390.0).abs()).value().abs() < 1e-6);
    }

    #[test]
    fn missing_pins_return_none() {
        let (lib, stack, nl) = block(9);
        let cons = Constraints::single_clock(1_200.0);
        let etm = Etm::extract(&Sta::new(&nl, &lib, &stack, &cons), "blk").unwrap();
        assert!(etm.input_slack(NetId::new(99_999), Ps::new(0.0)).is_none());
    }
}
