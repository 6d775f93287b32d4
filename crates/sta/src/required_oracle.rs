//! The late required times of [`Sta::required`] against an oracle that
//! walks paths instead of levels.
//!
//! The oracle starts at each endpoint row's seed and subtracts stage
//! terms going back towards the launch points, one path at a time. On
//! tiny it enumerates every path; on c5315 a reverse depth-first search
//! over each endpoint's fan-in cone drops a walk that arrives at a net
//! no earlier than an earlier walk did, which cannot change a minimum
//! because subtracting the same term is monotone in floating point.
//! Under no derate, flat and AOCV, with SI off and on, every net's
//! required time equals the oracle's minimum over paths bit for bit.
//! Along each row's backtracked worst path, `req − late.t` is at most
//! the row's setup slack, and on the WNS endpoint's path it equals it.
//! [`Etm::extract`]'s requirement is the period less the oracle's
//! minimum over the data inputs, from the flop rows alone.

use tc_core::ids::NetId;
use tc_core::units::Ps;
use tc_interconnect::BeolStack;
use tc_liberty::{AocvTable, CellKind, DerateModel, LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};

use crate::analysis::{pin_slew, Bound};
use crate::etm::Etm;
use crate::report::{Endpoint, EndpointTiming};
use crate::{worst_paths, Constraints, Sta, TimingState};

/// The oracle: a reverse walk from each row's seed. `prune` drops a walk
/// that reaches a net no earlier than the best value found there so far;
/// without it every path is enumerated. Returns the per-net minimum.
fn oracle<'r>(
    sta: &Sta<'_>,
    st: &TimingState,
    rows: impl IntoIterator<Item = &'r EndpointTiming>,
    prune: bool,
) -> Vec<f64> {
    let mut req = vec![f64::INFINITY; st.nets.len()];
    for row in rows {
        let (net, seed) = match row.endpoint {
            Endpoint::FlopD(fid) => {
                let d = sta.nl.cell_inputs(fid)[0];
                let wire = st.wires.delay(sta.nl.pin_base(fid));
                let (wl, ..) = sta.wire_terms(wire);
                (
                    d,
                    row.required.value() - (wl + st.wires.si_delta(d.index())),
                )
            }
            Endpoint::Output(net) => (net, row.required.value()),
        };
        walk(sta, st, net, seed, prune, &mut req);
    }
    req
}

fn walk(sta: &Sta<'_>, st: &TimingState, net: NetId, r: f64, prune: bool, req: &mut [f64]) {
    if prune && r >= req[net.index()] {
        return;
    }
    req[net.index()] = req[net.index()].min(r);
    let nl = sta.nl;
    let Some(driver) = nl.net_driver(net) else {
        return; // a primary input
    };
    let master = sta.lib.cell(nl.cell_master(driver));
    if master.kind == CellKind::Flop {
        return; // a launch point
    }
    let load = st.wires.driver_load(net.index()).value();
    for (pin, &input) in nl.cell_inputs(driver).iter().enumerate() {
        let ns = &st.nets[input.index()];
        if !ns.reached {
            continue;
        }
        let wire = st.wires.delay(nl.pin_base(driver) + pin);
        let (wl, ..) = sta.wire_terms(wire);
        let arc = master.arc_of_pin(pin).unwrap();
        let at = arc.delay.locate(pin_slew(ns.late.slew, wire), load);
        let raw = arc.delay.at(&at);
        let sigma = sta.stage_sigma(Bound::Late, driver, arc, &at, raw);
        let (dl, _) = sta.derate(Bound::Late, raw, sigma, 1);
        let term = wl + st.wires.si_delta(input.index()) + dl;
        walk(sta, st, input, r - term, prune, req);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn required_times_equal_the_minimum_over_paths() {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let models = [
        DerateModel::None,
        DerateModel::classic_flat(),
        DerateModel::Aocv(AocvTable::from_stage_sigma(0.06)),
    ];
    // (design, the oracle prunes)
    for (profile, prune) in [(BenchProfile::tiny(), false), (BenchProfile::c5315(), true)] {
        let name = profile.name;
        let nl = generate(&lib, profile, 11).unwrap();
        for derate in &models {
            for si in [false, true] {
                let case = format!("{name} si={si} {derate:?}");
                let mut cons = Constraints::single_clock(900.0).with_derate(derate.clone());
                cons.si_enabled = si;
                // Output rows tight enough to bind at the data inputs, so
                // that seeding check 3 with every row would show.
                cons.output_delay = Ps::new(300.0);
                let sta = Sta::new(&nl, &lib, &stack, &cons);
                let st = sta.propagate().unwrap();

                // Check 1: bit for bit against the oracle, every row.
                let req = sta.required(st, st.rows()).unwrap();
                let expected = oracle(&sta, st, st.rows(), prune);
                assert_eq!(bits(&req), bits(&expected), "{case}");
                assert!(req.iter().any(|r| r.is_finite()), "{case}");

                // Check 2: the slack a net carries bounds every row's worst
                // path through it, and is the WNS on the WNS path.
                let paths = worst_paths(&sta, usize::MAX).unwrap();
                assert_eq!(paths.len(), st.rows().len(), "{case}");
                for p in &paths {
                    for net in &p.nets {
                        let slack = req[net.index()] - st.nets[net.index()].late.t;
                        assert!(slack <= p.slack.value() + 1e-9, "{case}: {net:?}");
                    }
                }
                let wns = &paths[0];
                for net in &wns.nets {
                    let slack = req[net.index()] - st.nets[net.index()].late.t;
                    assert!(
                        (slack - wns.slack.value()).abs() <= 1e-9,
                        "{case}: {net:?} carries {slack}, the WNS is {}",
                        wns.slack
                    );
                }

                // Check 3: the ETM requirement, from the flop rows alone.
                let flops = st.rows().iter();
                let flops = flops.filter(|r| matches!(r.endpoint, Endpoint::FlopD(_)));
                let from_flops = oracle(&sta, st, flops, prune);
                let worst = sta.data_inputs().map(|pi| from_flops[pi.index()]);
                let worst = worst.fold(f64::INFINITY, f64::min);
                let setup_to_clock = 900.0 - worst;
                let etm = Etm::extract(&sta, "blk").unwrap();
                assert_eq!(etm.inputs.len(), sta.data_inputs().count(), "{case}");
                for r in etm.inputs.values() {
                    assert_eq!(
                        r.setup_to_clock.value().to_bits(),
                        setup_to_clock.to_bits(),
                        "{case}"
                    );
                }
            }
        }
    }
}
