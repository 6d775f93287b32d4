//! Useful-skew optimization: greedy leaf-latency adjustment, each move
//! tried as a speculative edit of the incremental timer.
//!
//! Delaying a capture flop's clock buys its incoming (setup-critical)
//! path time at the expense of paths it launches — "borrowing" slack
//! across register boundaries. This is the last fix in the classic
//! ordering of Fig 1 and a key lever in the MCMM skew-variation work of
//! ref \[10\]. The implementation is deliberately conservative: one move
//! at a time, kept only if the design's WNS improves, so it can never
//! regress timing (ping-pong protection, §2.3).

use tc_core::error::Result;
use tc_core::ids::CellId;
use tc_core::units::Ps;
use tc_interconnect::BeolStack;
use tc_liberty::Library;
use tc_netlist::Netlist;
use tc_sta::report::{hold_wns, wns};
use tc_sta::{Constraints, Endpoint, Timer};

/// Outcome of the optimization.
#[derive(Clone, Debug)]
pub struct UsefulSkewResult {
    /// WNS before any move.
    pub wns_before: Ps,
    /// WNS after the accepted moves.
    pub wns_after: Ps,
    /// Accepted (flop, delta) moves.
    pub moves: Vec<(CellId, Ps)>,
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
    let mut timer = Timer::new(nl, lib, stack, cons.clone())?;
    let wns_before = wns(timer.endpoints());
    let moves = skew_on_timer(&mut timer, nl, max_moves, step)?;
    Ok(UsefulSkewResult {
        wns_before,
        wns_after: wns(timer.endpoints()),
        moves,
        constraints: timer.constraints().clone(),
    })
}

/// The greedy loop on a caller's up-to-date timer: each trial is
/// checkpoint → [`Timer::skew_clock`] → read the cached endpoint checks →
/// keep or [`Timer::rollback_to`]. Returns the kept moves, left applied.
///
/// # Errors
///
/// Fails if the timer is stale, and on propagation errors.
pub fn skew_on_timer(
    timer: &mut Timer<'_>,
    nl: &Netlist,
    max_moves: usize,
    step: Ps,
) -> Result<Vec<(CellId, Ps)>> {
    let (mut cur_wns, hold_floor) = (wns(timer.endpoints()), hold_wns(timer.endpoints()));
    let mut moves = Vec::new();
    // Plateau handling: many endpoints often sit within a step of the
    // WNS. A single move then fixes one endpoint without moving the
    // design WNS; keep working the plateau (accept WNS-neutral moves
    // that improve their own endpoint) but never touch the same flop
    // twice without global progress.
    let mut tried: Vec<CellId> = Vec::new();

    for _ in 0..max_moves {
        if cur_wns >= Ps::ZERO {
            break;
        }
        // The worst endpoint whose flop we have not yet tried this
        // plateau (of equals, the first in report order).
        let untried = timer.endpoints().filter_map(|e| match e.endpoint {
            Endpoint::FlopD(f) if !tried.contains(&f) => Some((f, e.setup_slack)),
            _ => None,
        });
        let worst = untried.min_by(|a, b| a.1.value().total_cmp(&b.1.value()));
        let Some((flop, own_slack)) = worst else {
            break;
        };
        tried.push(flop);
        let cp = timer.checkpoint();
        timer.skew_clock(nl, flop, step)?;
        let setup_now = wns(timer.endpoints());
        let own_row = timer.flop_endpoint(flop);
        let own_after = own_row.map_or(own_slack, |e| e.setup_slack);
        let no_regress = setup_now >= cur_wns - Ps::new(1e-9);
        let hold_safe = hold_wns(timer.endpoints()) >= hold_floor.min(Ps::ZERO);
        if no_regress && hold_safe && own_after > own_slack {
            if setup_now > cur_wns + Ps::new(1e-9) {
                // Global progress: the plateau moved; retry everyone.
                tried.clear();
            }
            cur_wns = setup_now;
            moves.push((flop, step));
        } else {
            timer.rollback_to(cp)?;
        }
    }
    Ok(moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ids::NetId;
    use tc_device::VtClass;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_sta::Sta;

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
