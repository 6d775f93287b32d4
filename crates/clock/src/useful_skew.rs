//! Useful-skew optimization: greedy, STA-in-the-loop leaf-latency
//! adjustment.
//!
//! Delaying a capture flop's clock buys its incoming (setup-critical)
//! path time at the expense of paths it launches — "borrowing" slack
//! across register boundaries. This is the last fix in the classic
//! ordering of Fig 1 and a key lever in the MCMM skew-variation work of
//! ref \[10\]. The implementation is deliberately conservative: one move
//! at a time, kept only if the design's WNS improves, so it can never
//! regress timing (ping-pong protection, §2.3).

use tc_core::error::Result;
use tc_core::units::Ps;
use tc_interconnect::BeolStack;
use tc_liberty::Library;
use tc_netlist::Netlist;
use tc_sta::{Constraints, Endpoint, Sta};

/// Outcome of the optimization.
#[derive(Clone, Debug)]
pub struct UsefulSkewResult {
    /// WNS before any move.
    pub wns_before: Ps,
    /// WNS after the accepted moves.
    pub wns_after: Ps,
    /// Accepted (flop, delta) moves.
    pub moves: Vec<(tc_core::ids::CellId, Ps)>,
    /// The adjusted constraint set (clock tree updated).
    pub constraints: Constraints,
}

/// Greedily skews the capture clocks of the worst setup endpoints.
///
/// Each trial delays the worst violating endpoint's flop clock by
/// `step`; the move is kept only if WNS improves and no hold violation
/// is created.
///
/// # Errors
///
/// Propagates STA failures.
pub fn optimize_useful_skew(
    nl: &Netlist,
    lib: &Library,
    stack: &BeolStack,
    cons: &Constraints,
    max_moves: usize,
    step: Ps,
) -> Result<UsefulSkewResult> {
    let mut cons = cons.clone();
    // The report of the current `cons`: replaced only when a trial is
    // kept, so each move costs one STA run (the trial), not two.
    let mut report = Sta::new(nl, lib, stack, &cons).run()?;
    let wns_before = report.wns();
    let mut cur_wns = wns_before;
    let hold_floor = report.hold_wns();
    let mut moves = Vec::new();
    // Plateau handling: many endpoints often sit within a step of the
    // WNS. A single move then fixes one endpoint without moving the
    // design WNS; keep working the plateau (accept WNS-neutral moves
    // that improve their own endpoint) but never touch the same flop
    // twice without global progress.
    let mut tried: std::collections::HashSet<tc_core::ids::CellId> =
        std::collections::HashSet::new();

    for _ in 0..max_moves {
        if report.wns() >= Ps::ZERO {
            break;
        }
        // The worst endpoint whose flop we have not yet tried this
        // plateau.
        let Some((flop, own_slack)) = report
            .worst_endpoints(report.endpoints.len())
            .iter()
            .find_map(|e| match e.endpoint {
                Endpoint::FlopD(f) if !tried.contains(&f) => Some((f, e.setup_slack)),
                _ => None,
            })
        else {
            break;
        };
        tried.insert(flop);
        let mut trial = cons.clone();
        trial.clock_tree.skew_by(flop, step);
        let after = Sta::new(nl, lib, stack, &trial).run()?;
        let own_after = after
            .endpoints
            .iter()
            .find(|e| e.endpoint == Endpoint::FlopD(flop))
            .map(|e| e.setup_slack)
            .unwrap_or(own_slack);
        let no_regress = after.wns() >= cur_wns - Ps::new(1e-9);
        let hold_safe = after.hold_wns() >= hold_floor.min(Ps::ZERO);
        if no_regress && hold_safe && own_after > own_slack {
            if after.wns() > cur_wns + Ps::new(1e-9) {
                // Global progress: the plateau moved; retry everyone.
                tried.clear();
            }
            cur_wns = after.wns();
            cons = trial;
            report = after;
            moves.push((flop, step));
        }
    }

    Ok(UsefulSkewResult {
        wns_before,
        wns_after: cur_wns,
        moves,
        constraints: cons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ids::NetId;
    use tc_device::VtClass;
    use tc_liberty::{LibConfig, PvtCorner};

    /// A 2-stage pipeline with an unbalanced middle: ff0 → 6 gates → ff1
    /// → 1 gate → ff2. Skewing ff1 later borrows time for the long first
    /// stage from the short second stage.
    fn unbalanced(lib: &Library) -> Netlist {
        let mut nl = Netlist::new("unbalanced");
        let clk = nl.add_input("clk");
        let d0 = nl.add_input("d0");
        let dff = lib.variant("DFF", VtClass::Svt, 1.0).unwrap();
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        let (_, q0) = nl.add_cell("ff0", lib, dff, &[d0, clk]).unwrap();
        let mut net = q0;
        for i in 0..6 {
            let (_, o) = nl.add_cell(format!("a{i}"), lib, inv, &[net]).unwrap();
            net = o;
        }
        let (_, q1) = nl.add_cell("ff1", lib, dff, &[net, clk]).unwrap();
        let (_, o) = nl.add_cell("b0", lib, inv, &[q1]).unwrap();
        let (_, _q2) = nl.add_cell("ff2", lib, dff, &[o, clk]).unwrap();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 8.0);
        }
        nl
    }

    #[test]
    fn skew_borrows_slack_across_the_boundary() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = unbalanced(&lib);
        let stack = BeolStack::n20();
        // Pick a period that makes the long stage violate by ~15 ps:
        // measure slack at a relaxed period, then shave it off.
        let probe = Constraints::single_clock(600.0);
        let r = Sta::new(&nl, &lib, &stack, &probe).run().unwrap();
        let period = 600.0 - r.wns().value() - 15.0;
        assert!(period > 0.0, "probe period underflow");
        let cons = Constraints::single_clock(period);
        let res = optimize_useful_skew(&nl, &lib, &stack, &cons, 8, Ps::new(8.0)).unwrap();
        assert!(
            res.wns_after > res.wns_before,
            "useful skew must improve WNS: {} → {}",
            res.wns_before,
            res.wns_after
        );
        assert!(!res.moves.is_empty());
    }

    #[test]
    fn no_moves_when_timing_is_clean() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = unbalanced(&lib);
        let stack = BeolStack::n20();
        let cons = Constraints::single_clock(2_000.0);
        let res = optimize_useful_skew(&nl, &lib, &stack, &cons, 5, Ps::new(8.0)).unwrap();
        // Clean timing: the greedy loop may take zero or a few no-harm
        // moves but must never regress.
        assert!(res.wns_after >= res.wns_before);
    }
}
