//! Extracted timing models (ETMs) for hierarchical closure.
//!
//! §4 Comment 3: "flat vs ETM-based/hierarchical analysis and
//! optimization … affect design schedule and QOR". A block owner closes
//! the block flat, then hands the integrator a *boundary model*: worst
//! input-to-register setup requirements and register-to-output delays,
//! so top-level analysis never re-traverses the block's interior. The
//! price is boundary pessimism: the ETM keeps one worst number per
//! boundary pin, where flat analysis sees each path.
//!
//! An input requirement is read off the block's own analysis: the late
//! required time at each data input, from one backward pass over the
//! block's flop checks. Every interior arc is timed at the slew that
//! analysis propagated, the standard required time at a boundary pin.

// Cold boundary-model path: ETMs are extracted once per block and keyed
// by a handful of boundary nets, not per-arc hot state.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use tc_core::error::{Error, Result};
use tc_core::ids::NetId;
use tc_core::units::Ps;
use tc_liberty::DerateModel;

use crate::analysis::Sta;
use crate::report::Endpoint;

/// The timing requirement an ETM publishes for one block input: data
/// must arrive at least `setup_to_clock` before the clock edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InputRequirement {
    /// Worst interior setup requirement referenced to the clock edge, ps
    /// (i.e. required arrival = period − this).
    pub setup_to_clock: Ps,
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
    /// Extracts an ETM from a block by running its STA and folding its
    /// flop checks back to the boundary.
    ///
    /// Only flop endpoints that a data input reaches constrain the
    /// boundary; purely internal register-to-register paths are the
    /// block owner's problem and do not leak into the model. The
    /// requirement is `period − min(required time at a data input)`,
    /// the required times from one backward pass seeded by the flop
    /// rows alone, and every data input publishes it (the standard
    /// single-number ETM pessimism).
    ///
    /// # Errors
    ///
    /// Fails on constraints without a clock, and under POCV or LVF,
    /// where a required time is a mean-only estimate; propagates STA
    /// failures.
    pub fn extract(sta: &Sta<'_>, name: impl Into<String>) -> Result<Etm> {
        let period = sta.cons.checked_clock()?.period;
        if let model @ (DerateModel::Pocv { .. } | DerateModel::Lvf { .. }) = &sta.cons.derate {
            let why = "a mean-only required time is a ranking estimate, not a signoff number";
            return Err(Error::invalid_input(format!("ETM under {model:?}: {why}")));
        }

        let st = sta.propagate()?;
        let flop_rows = st.rows().iter();
        let flop_rows = flop_rows.filter(|r| matches!(r.endpoint, Endpoint::FlopD(_)));
        let req = sta.required(st, flop_rows)?;
        let mut inputs = HashMap::new();
        let worst = sta.data_inputs().map(|pi| req[pi.index()]);
        let worst = worst.fold(f64::INFINITY, f64::min);
        if worst < f64::INFINITY {
            let setup_to_clock = Ps::new(period.value() - worst);
            let published = InputRequirement { setup_to_clock };
            inputs.extend(sta.data_inputs().map(|pi| (pi, published)));
        }

        let mut outputs = HashMap::new();
        for e in st.rows() {
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
    use tc_liberty::{AocvTable, LibConfig, Library, PocvSigma, PvtCorner};
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
        // endpoint at the same arrival. Identify those endpoints with the
        // input delay boosted to a full period, so input-launched paths
        // win wherever they reach, and compare in that run itself, where
        // attribution is exact.
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
        // Extraction reads the analysis' one propagation: it must give
        // the same model whether or not the analysis has already run.
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
    fn extraction_refuses_the_mean_only_models() {
        let (lib, stack, nl) = block(5);
        let models = [
            DerateModel::None,
            DerateModel::classic_flat(),
            DerateModel::Aocv(AocvTable::from_stage_sigma(0.06)),
            DerateModel::Pocv {
                sigma: PocvSigma::standard(),
                k: 3.0,
            },
            DerateModel::Lvf { k: 3.0 },
        ];
        for derate in models {
            let mean_only = match derate {
                DerateModel::Pocv { .. } => Some("Pocv"),
                DerateModel::Lvf { .. } => Some("Lvf"),
                _ => None,
            };
            let cons = Constraints::single_clock(1_200.0).with_derate(derate);
            let etm = Etm::extract(&Sta::new(&nl, &lib, &stack, &cons), "blk");
            match (mean_only, etm) {
                (None, Ok(etm)) => assert!(etm.worst_input_requirement().is_some()),
                (Some(model), Err(e)) => assert!(e.to_string().contains(model), "{e}"),
                (model, etm) => panic!("{model:?}: {etm:?}"),
            }
        }
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
