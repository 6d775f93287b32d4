//! Equivalence property test for the incremental timing engine.
//!
//! The contract of `tc_sta::Timer` is *bit-identity*: after any journaled
//! ECO sequence, `Timer::update` must leave the cached net states, wire
//! timings, endpoint reports and worst paths exactly equal — every `f64`
//! bit — to a from-scratch `Sta` run on the edited netlist. This test drives that
//! contract with seeded random edit sequences (master swaps up/down the
//! size and Vt ladders, wirelength and route-class changes, buffer
//! insertions, pin rewires) and clock-leaf skews (`Timer::skew_clock`,
//! the one edit that lives on the timer instead of in the journal) on
//! three benchmark profiles, interleaving dropped trials (`Timer::trial`)
//! and raw checkpoint/rollback cycles so the undo log is exercised under
//! the same randomness.
//!
//! The stateful structural oracle goes further on the edits that repair
//! the timing graph: buffer insertions on combinationally driven,
//! flop-driven and output nets, acyclic and loop-closing rewires and
//! flop ↔ combinational swaps, mixed with parametric edits and skews, all
//! inside nested trials that commit or drop and raw rollbacks. After
//! every step the graph must equal `TimingGraph::build` and the state a
//! fresh `Sta`'s, and a loop must fail the update with state, cursor and
//! undo log unchanged. A report held across the steps is a snapshot: it
//! must keep the rows it was taken with.
//! The c7552 sequence is ignored by default; run it with
//! `cargo test --release --test incremental_sta -- --ignored`.

use timing_closure::core::ids::{CellId, LibCellId, NetId};
use timing_closure::core::rng::Rng;
use timing_closure::core::units::Ps;
use timing_closure::core::Error;
use timing_closure::device::VtClass;
use timing_closure::interconnect::beol::BeolStack;
use timing_closure::liberty::{CellKind, LibConfig, Library, PvtCorner};
use timing_closure::netlist::gen::{generate, BenchProfile};
use timing_closure::netlist::level::levelize;
use timing_closure::netlist::{Netlist, PinRef};
use timing_closure::sta::{
    worst_paths, Constraints, Endpoint, EndpointTiming, Sta, Timer, TimingGraph, TimingReport,
};

/// Asserts the timer's cached world — graph, net states, wire timings,
/// endpoint rows — is bit-identical to a fresh full STA's.
fn assert_matches_full(timer: &Timer<'_>, nl: &Netlist, lib: &Library, stack: &BeolStack) {
    assert!(
        timer.state().graph() == &TimingGraph::build(nl, lib).unwrap(),
        "timing graph diverged from a fresh build"
    );
    let sta = Sta::new(nl, lib, stack, timer.constraints());
    assert!(
        timer.state() == sta.propagate().unwrap(),
        "timing state diverged from full STA"
    );
    // The path reader over the timer's rows and over the fresh state.
    assert_eq!(
        timer.worst_paths(nl, 25).unwrap(),
        worst_paths(&sta, 25).unwrap(),
        "worst paths diverged from full STA"
    );
}

/// Nets that can always absorb a rewired sink without creating a
/// combinational cycle: primary inputs and flop-driven nets.
fn acyclic_safe_nets(nl: &Netlist, lib: &Library) -> Vec<NetId> {
    let mut safe: Vec<NetId> = nl.primary_inputs().to_vec();
    for (i, net) in nl.nets().enumerate() {
        if let Some(driver) = net.driver {
            if lib.cell(nl.cell(driver).master).kind == CellKind::Flop {
                safe.push(NetId::new(i));
            }
        }
    }
    safe
}

/// Applies one random edit: a journaled ECO on the netlist, or a clock
/// skew on the timer. Returns `false` if the drawn edit was inapplicable
/// (e.g. no sized-up variant exists) so the caller can redraw.
fn random_edit(rng: &mut Rng, nl: &mut Netlist, lib: &Library, timer: &mut Timer<'_>) -> bool {
    match rng.below(7) {
        0 => {
            // Wirelength change on a random net.
            let net = NetId::new(rng.below(nl.net_count()));
            nl.set_wire_length(net, rng.uniform_in(5.0, 400.0));
            true
        }
        1 => {
            // Route-class (NDR) change.
            let net = NetId::new(rng.below(nl.net_count()));
            nl.set_route_class(net, rng.below(3) as u8);
            true
        }
        2 | 3 => {
            // Master swap along a random ladder direction.
            let cell = CellId::new(rng.below(nl.cell_count()));
            let cur = nl.cell(cell).master;
            let alt = match rng.below(4) {
                0 => lib.vt_faster(cur),
                1 => lib.vt_slower(cur),
                2 => lib.upsize(cur),
                _ => lib.downsize(cur),
            };
            match alt {
                Some(m) => {
                    nl.swap_master(lib, cell, m).unwrap();
                    true
                }
                None => false,
            }
        }
        4 => {
            // Buffer a random subset of a driven net's sinks.
            let Some(buf) = lib.variant("BUF", VtClass::Svt, 2.0) else {
                return false;
            };
            let candidates: Vec<NetId> = (0..nl.net_count())
                .map(NetId::new)
                .filter(|&n| nl.net(n).driver.is_some() && !nl.net(n).sinks.is_empty())
                .collect();
            if candidates.is_empty() {
                return false;
            }
            let net = *rng.choose(&candidates);
            let sinks = nl.net(net).sinks.to_vec();
            let mut moved: Vec<PinRef> =
                sinks.iter().copied().filter(|_| rng.chance(0.5)).collect();
            if moved.is_empty() {
                moved.push(sinks[0]);
            }
            nl.insert_buffer(lib, net, &moved, buf).unwrap();
            true
        }
        5 => {
            // Skew a random flop's clock by ±step. A timer edit, so the
            // pending netlist edits are consumed first.
            let flops: Vec<CellId> = nl.flops(lib).collect();
            let step = if rng.chance(0.5) {
                SKEW_STEP
            } else {
                -SKEW_STEP
            };
            timer.update(nl).unwrap();
            timer.skew_clock(nl, *rng.choose(&flops), step).unwrap();
            true
        }
        _ => {
            // Rewire a random sink onto a cycle-safe net.
            let safe = acyclic_safe_nets(nl, lib);
            let candidates: Vec<PinRef> = nl.nets().flat_map(|n| n.sinks.iter().copied()).collect();
            if safe.is_empty() || candidates.is_empty() {
                return false;
            }
            let sink = *rng.choose(&candidates);
            let target = *rng.choose(&safe);
            nl.rewire_input(sink, target);
            true
        }
    }
}

const SKEW_STEP: Ps = Ps::new(10.0);

/// Draws edits until one applies (bounded redraws keep the stream moving).
fn apply_edit(rng: &mut Rng, nl: &mut Netlist, lib: &Library, timer: &mut Timer<'_>) {
    for _ in 0..32 {
        if random_edit(rng, nl, lib, timer) {
            return;
        }
    }
    panic!("no applicable ECO edit after 32 draws");
}

fn run_sequence(profile: BenchProfile, gen_seed: u64, edit_seed: u64, edits: usize) {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, profile, gen_seed).unwrap();
    let mut rng = Rng::seed_from(edit_seed);
    let cons = Constraints::single_clock(1_100.0);
    let mut timer = Timer::new(&nl, &lib, &stack, cons).unwrap();
    assert_matches_full(&timer, &nl, &lib, &stack);

    for i in 0..edits {
        apply_edit(&mut rng, &mut nl, &lib, &mut timer);
        timer.update(&nl).unwrap();
        assert_matches_full(&timer, &nl, &lib, &stack);

        // Every few edits, speculate a couple of extra edits in a trial
        // and drop it, verifying the rollback restores the exact
        // pre-speculation world.
        if i % 5 == 4 {
            let before = timer.state().clone();
            let cons_before = timer.constraints().clone();
            let journal_len = nl.journal_len();
            let mut trial = timer.trial(&mut nl).unwrap();
            let (trial_nl, trial_timer) = trial.parts();
            apply_edit(&mut rng, trial_nl, &lib, trial_timer);
            apply_edit(&mut rng, trial_nl, &lib, trial_timer);
            trial.update().unwrap();
            drop(trial);
            assert_eq!(nl.journal_len(), journal_len, "rollback lost the journal");
            assert_eq!(
                timer.constraints(),
                &cons_before,
                "rollback lost constraints"
            );
            assert!(timer.state() == &before, "rollback lost timing state");
            assert_matches_full(&timer, &nl, &lib, &stack);
        }
    }
}

#[test]
fn incremental_matches_full_on_tiny_random_ecos() {
    run_sequence(BenchProfile::tiny(), 17, 0xDAC_2015, 25);
}

#[test]
fn incremental_matches_full_on_c5315_random_ecos() {
    run_sequence(BenchProfile::c5315(), 21, 0xC5315, 12);
}

#[test]
fn incremental_matches_full_on_c7552_random_ecos() {
    run_sequence(BenchProfile::c7552(), 23, 0xC7552, 10);
}

/// A tiny design on a fresh timer, for the skew-specific cases.
fn tiny() -> (Library, BeolStack, Netlist) {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let nl = generate(&lib, BenchProfile::tiny(), 17).unwrap();
    (lib, BeolStack::n20(), nl)
}

#[test]
fn skews_interleaved_with_ecos_roll_back_exactly() {
    let (lib, stack, mut nl) = tiny();
    let cons = Constraints::single_clock(1_100.0);
    let mut timer = Timer::new(&nl, &lib, &stack, cons.clone()).unwrap();
    let flops: Vec<CellId> = nl.flops(&lib).collect();
    let before = timer.state().clone();

    let nl_cp = nl.journal_len();
    let t_cp = timer.checkpoint();
    timer.skew_clock(&nl, flops[0], SKEW_STEP).unwrap();
    assert_matches_full(&timer, &nl, &lib, &stack);
    nl.set_wire_length(NetId::new(3), 320.0);
    let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
    let q = nl.cell(flops[1]).output;
    let sinks = nl.net(q).sinks.to_vec();
    nl.insert_buffer(&lib, q, &sinks, buf).unwrap();
    timer.update(&nl).unwrap();
    timer.skew_clock(&nl, flops[1], -SKEW_STEP).unwrap();
    // The same flop twice: the second undo entry carries `Some(prev)`.
    timer.skew_clock(&nl, flops[0], SKEW_STEP).unwrap();
    assert_matches_full(&timer, &nl, &lib, &stack);
    let leaf = &timer.constraints().clock_tree;
    assert_eq!(leaf.leaf_of(flops[0]), SKEW_STEP + SKEW_STEP);
    assert_eq!(leaf.leaf_of(flops[1]), -SKEW_STEP);
    assert!(timer.state().rows() != before.rows());

    nl.undo_to(nl_cp).unwrap();
    timer.rollback_to(t_cp).unwrap();
    assert!(timer.state() == &before);
    assert_eq!(timer.constraints(), &cons);
    assert!(timer.constraints().clock_tree.leaf.is_empty());
    assert_matches_full(&timer, &nl, &lib, &stack);
}

#[test]
fn bad_skew_is_an_error_that_leaves_the_timer_unchanged() {
    let (lib, stack, mut nl) = tiny();
    let cons = Constraints::single_clock(1_100.0);
    let mut timer = Timer::new(&nl, &lib, &stack, cons.clone()).unwrap();
    let before = timer.state().clone();
    let unchanged = |timer: &Timer<'_>, nl: &Netlist| {
        assert!(timer.state() == &before);
        assert_eq!(timer.constraints(), &cons);
        assert_eq!(timer.cursor(), nl.journal_len());
    };

    let comb = (0..nl.cell_count())
        .map(CellId::new)
        .find(|&c| lib.cell(nl.cell(c).master).kind != CellKind::Flop)
        .unwrap();
    assert!(timer.skew_clock(&nl, comb, SKEW_STEP).is_err());
    assert!(timer
        .skew_clock(&nl, CellId::new(nl.cell_count()), SKEW_STEP)
        .is_err());
    unchanged(&timer, &nl);

    // Stale: the netlist moved on and the timer has not consumed it.
    let flop = nl.flops(&lib).next().unwrap();
    let nl_cp = nl.journal_len();
    nl.set_wire_length(NetId::new(0), 250.0);
    assert!(timer.skew_clock(&nl, flop, SKEW_STEP).is_err());
    nl.undo_to(nl_cp).unwrap();
    unchanged(&timer, &nl);

    // And the timer still takes a good skew afterwards.
    timer.skew_clock(&nl, flop, SKEW_STEP).unwrap();
    assert_matches_full(&timer, &nl, &lib, &stack);
}

/// c5315 plus the DFF and NAND2 masters: both take two input pins, so
/// `swap_master` accepts a flop <-> combinational swap, and the timer
/// sees a structural edit that changes the design's endpoint set.
fn c5315_with_swap_masters() -> (Library, BeolStack, Netlist, LibCellId, LibCellId) {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let nl = generate(&lib, BenchProfile::c5315(), 21).unwrap();
    let dff = lib.variant("DFF", VtClass::Svt, 1.0).unwrap();
    let nand2 = lib.variant("NAND2", VtClass::Svt, 1.0).unwrap();
    (lib, BeolStack::n20(), nl, dff, nand2)
}

/// Whether swapping `flop` to `comb` closes a combinational loop, with
/// levelization of the swapped netlist as the oracle. Leaves `nl` as it
/// was.
fn swap_closes_loop(nl: &mut Netlist, lib: &Library, flop: CellId, comb: LibCellId) -> bool {
    let cp = nl.journal_len();
    nl.swap_master(lib, flop, comb).unwrap();
    let looped = levelize(nl, lib).is_err();
    nl.undo_to(cp).unwrap();
    looped
}

/// The endpoints that have a row, in row order.
fn row_endpoints(timer: &Timer<'_>) -> Vec<Endpoint> {
    timer.state().rows().iter().map(|r| r.endpoint).collect()
}

/// `eps` with `ep` added or removed, kept in report order.
fn toggled(eps: &[Endpoint], ep: Endpoint) -> Vec<Endpoint> {
    let mut out = eps.to_vec();
    match out.binary_search(&ep) {
        Ok(at) => {
            out.remove(at);
        }
        Err(at) => out.insert(at, ep),
    }
    out
}

#[test]
fn flop_master_swaps_relay_endpoint_rows_and_roll_back_exactly() {
    let (lib, stack, mut nl, dff, nand2) = c5315_with_swap_masters();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(1_100.0)).unwrap();
    let before = timer.state().clone();
    let (nl_cp, t_cp) = (nl.journal_len(), timer.checkpoint());

    // Combinational -> DFF: exactly one row more, the new flop's.
    let comb = (0..nl.cell_count())
        .map(CellId::new)
        .find(|&c| {
            let cell = nl.cell(c);
            lib.cell(cell.master).kind != CellKind::Flop
                && cell.inputs.len() == 2
                && !nl.net(cell.output).sinks.is_empty()
        })
        .unwrap();
    let eps = row_endpoints(&timer);
    nl.swap_master(&lib, comb, dff).unwrap();
    timer.update(&nl).unwrap();
    assert_eq!(row_endpoints(&timer), toggled(&eps, Endpoint::FlopD(comb)));
    assert_matches_full(&timer, &nl, &lib, &stack);
    let swapped = timer.state().clone();
    let (nl_mid, t_mid) = (nl.journal_len(), timer.checkpoint());

    // DFF -> combinational on a flop off every feedback loop: its row
    // goes.
    let flops: Vec<CellId> = nl.flops(&lib).filter(|&f| f != comb).collect();
    let flop = *flops
        .iter()
        .find(|&&f| !swap_closes_loop(&mut nl, &lib, f, nand2))
        .unwrap();
    let eps = row_endpoints(&timer);
    nl.swap_master(&lib, flop, nand2).unwrap();
    timer.update(&nl).unwrap();
    assert_eq!(row_endpoints(&timer), toggled(&eps, Endpoint::FlopD(flop)));
    assert_matches_full(&timer, &nl, &lib, &stack);

    nl.undo_to(nl_mid).unwrap();
    timer.rollback_to(t_mid).unwrap();
    assert!(timer.state() == &swapped, "rollback lost the removed row");
    nl.undo_to(nl_cp).unwrap();
    timer.rollback_to(t_cp).unwrap();
    assert!(timer.state() == &before, "rollback kept the inserted row");
}

#[test]
fn a_false_pathed_flop_has_no_row_on_sta_or_timer() {
    let (lib, stack, mut nl) = tiny();
    let flop = nl.flops(&lib).next().unwrap();
    let ep = Endpoint::FlopD(flop);
    let mut cons = Constraints::single_clock(1_100.0);
    cons.exceptions.false_path_to(flop);
    let sta = Sta::new(&nl, &lib, &stack, &cons);
    assert_eq!(sta.propagate().unwrap().row(ep), None);
    let mut timer = Timer::new(&nl, &lib, &stack, cons).unwrap();
    assert_eq!(timer.state().row(ep), None);
    assert_eq!(timer.flop_endpoint(flop), None);

    // Dirty its check from both sides: the data net and its own clock.
    let before = timer.state().clone();
    let (nl_cp, t_cp) = (nl.journal_len(), timer.checkpoint());
    nl.set_wire_length(nl.cell(flop).inputs[0], 400.0);
    timer.update(&nl).unwrap();
    timer.skew_clock(&nl, flop, SKEW_STEP).unwrap();
    assert_eq!(timer.state().row(ep), None);
    assert!(timer.state().rows() != before.rows());
    assert_matches_full(&timer, &nl, &lib, &stack);

    nl.undo_to(nl_cp).unwrap();
    timer.rollback_to(t_cp).unwrap();
    assert!(timer.state() == &before);
}

#[test]
fn a_rewire_that_unreaches_an_output_removes_its_row_and_reinserts_it_in_order() {
    // Three inverters, each driving a primary output; the middle one's
    // row is the one that goes and comes back.
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
    let mut nl = Netlist::new("outputs");
    let clk = nl.add_input("clk");
    let (a, b) = (nl.add_input("a"), nl.add_input("b"));
    let mut gates = Vec::new();
    for (i, input) in [a, b, a].into_iter().enumerate() {
        let (g, out) = nl.add_cell(format!("g{i}"), &lib, inv, &[input]).unwrap();
        nl.set_wire_length(out, 40.0 * (i + 1) as f64);
        nl.mark_output(out);
        gates.push(g);
    }
    let pin = PinRef {
        cell: gates[1],
        pin: 0,
    };
    let ep = Endpoint::Output(nl.cell(gates[1]).output);
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(1_100.0)).unwrap();
    let reached = timer.state().clone();
    let eps = row_endpoints(&timer);
    assert_eq!(eps.len(), 3);

    // The clock root carries no data arrival: g1's output goes unreached.
    let (nl_cp, t_cp) = (nl.journal_len(), timer.checkpoint());
    nl.rewire_input(pin, clk);
    timer.update(&nl).unwrap();
    assert_eq!(timer.state().row(ep), None);
    assert_eq!(row_endpoints(&timer), toggled(&eps, ep));
    assert_matches_full(&timer, &nl, &lib, &stack);
    let unreached = timer.state().clone();

    let (nl_mid, t_mid) = (nl.journal_len(), timer.checkpoint());
    nl.rewire_input(pin, b);
    timer.update(&nl).unwrap();
    assert!(
        timer.state() == &reached,
        "the row is back, in report order"
    );
    assert_matches_full(&timer, &nl, &lib, &stack);

    nl.undo_to(nl_mid).unwrap();
    timer.rollback_to(t_mid).unwrap();
    assert!(
        timer.state() == &unreached,
        "rollback kept the re-inserted row"
    );
    nl.undo_to(nl_cp).unwrap();
    timer.rollback_to(t_cp).unwrap();
    assert!(timer.state() == &reached, "rollback lost the removed row");
}

#[test]
fn flop_swap_that_closes_a_loop_is_an_error_that_leaves_the_timer_unchanged() {
    let (lib, stack, mut nl, _, nand2) = c5315_with_swap_masters();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(1_100.0)).unwrap();
    let flops: Vec<CellId> = nl.flops(&lib).collect();
    let flop = *flops
        .iter()
        .find(|&&f| swap_closes_loop(&mut nl, &lib, f, nand2))
        .expect("c5315 has a flop on a feedback loop");
    let before = timer.state().clone();
    let nl_cp = nl.journal_len();

    // The swap inside a trial; `?` returns the update's `Err` and drops
    // the trial, which undoes the swap on the netlist too.
    let swap = |timer: &mut Timer<'_>, nl: &mut Netlist| -> Result<(), Error> {
        let mut trial = timer.trial(nl)?;
        trial.netlist().swap_master(&lib, flop, nand2)?;
        trial.update()?;
        trial.commit();
        Ok(())
    };
    assert!(swap(&mut timer, &mut nl).is_err());
    assert!(
        timer.state() == &before,
        "a failed update changed the state"
    );
    assert_eq!((nl.journal_len(), timer.cursor()), (nl_cp, nl_cp));

    // And both carry on.
    nl.set_wire_length(NetId::new(2), 150.0);
    timer.update(&nl).unwrap();
    assert_matches_full(&timer, &nl, &lib, &stack);
}

/// One draw of the stateful structural oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Buffer a subset of a combinationally driven net's sinks.
    BufferComb,
    /// Buffer a subset of a flop-driven net's sinks.
    BufferFlop,
    /// Buffer a primary-output net (possibly none of its sinks).
    BufferOutput,
    /// Rewire a sink onto a primary input or a flop-driven net.
    RewireSafe,
    /// Rewire a sink onto any net: raises, lowers or closes a loop.
    RewireAny,
    /// Rewire a gate's input onto one of its combinational sinks' outputs.
    RewireLoop,
    /// Swap a two-input gate to a flop master.
    ToFlop,
    /// Swap a flop to a two-input gate (closes a loop on a feedback flop).
    ToComb,
    /// A wirelength, route-class or same-kind master edit.
    Param,
    /// A clock-leaf skew on the timer.
    Skew,
}

const STEPS: [Step; 10] = [
    Step::BufferComb,
    Step::BufferFlop,
    Step::BufferOutput,
    Step::RewireSafe,
    Step::RewireAny,
    Step::RewireLoop,
    Step::ToFlop,
    Step::ToComb,
    Step::Param,
    Step::Skew,
];

/// The stateful structural oracle: seeded random steps inside nested
/// trials that commit or drop and raw checkpoint/rollback cycles, each
/// step checked against `Sta` and `TimingGraph::build` on the edited
/// netlist, and each loop-closing step checked to fail without touching
/// the timer. One report, taken at a random step, is held across the
/// steps after it and must keep the rows it was taken with.
struct Oracle<'a> {
    lib: &'a Library,
    stack: &'a BeolStack,
    rng: Rng,
    applied: Vec<Step>,
    loops: usize,
    raw_rollbacks: usize,
    /// The held report and a deep copy of its rows made when it was taken.
    held: Option<(TimingReport, Vec<EndpointTiming>)>,
}

impl Oracle<'_> {
    fn is_flop(&self, nl: &Netlist, c: CellId) -> bool {
        self.lib.cell(nl.cell(c).master).kind == CellKind::Flop
    }

    fn master(&self, name: &str) -> LibCellId {
        self.lib.variant(name, VtClass::Svt, 1.0).unwrap()
    }

    /// The after-every-step check: the timer against a fresh `Sta`, its
    /// report against `Sta::run`'s, and the held report against its copy.
    /// Sometimes swaps the held report for a fresh one.
    fn check(&mut self, nl: &Netlist, timer: &Timer<'_>) {
        assert_matches_full(timer, nl, self.lib, self.stack);
        let sta = Sta::new(nl, self.lib, self.stack, timer.constraints());
        assert_eq!(timer.report(nl).endpoints, sta.run().unwrap().endpoints);
        if let Some((report, copy)) = &self.held {
            assert!(
                *report.endpoints == *copy,
                "a later step moved a held report"
            );
        }
        if self.held.is_none() || self.rng.chance(0.1) {
            let report = timer.report(nl);
            let copy = report.endpoints.to_vec();
            self.held = Some((report, copy));
        }
    }

    /// A random subset of `net`'s sinks, non-empty unless `may_be_empty`.
    fn some_sinks(&mut self, nl: &Netlist, net: NetId, may_be_empty: bool) -> Vec<PinRef> {
        let sinks = nl.net(net).sinks;
        let mut moved: Vec<PinRef> = sinks
            .iter()
            .copied()
            .filter(|_| self.rng.chance(0.5))
            .collect();
        if moved.is_empty() && !may_be_empty {
            moved.push(sinks[0]);
        }
        moved
    }

    /// Applies one netlist edit of `step`; `false` if nothing fits.
    fn apply(&mut self, step: Step, nl: &mut Netlist) -> bool {
        let lib = self.lib;
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        let cells: Vec<CellId> = (0..nl.cell_count()).map(CellId::new).collect();
        let two_input_gates: Vec<CellId> = cells
            .iter()
            .copied()
            .filter(|&c| !self.is_flop(nl, c) && nl.cell(c).inputs.len() == 2)
            .collect();
        let sinks: Vec<PinRef> = nl.nets().flat_map(|n| n.sinks.iter().copied()).collect();
        match step {
            Step::BufferComb | Step::BufferFlop => {
                let flop_driven = step == Step::BufferFlop;
                let nets: Vec<NetId> = (0..nl.net_count())
                    .map(NetId::new)
                    .filter(|&n| {
                        let net = nl.net(n);
                        !net.sinks.is_empty()
                            && net
                                .driver
                                .is_some_and(|d| self.is_flop(nl, d) == flop_driven)
                    })
                    .collect();
                if nets.is_empty() {
                    return false;
                }
                let net = *self.rng.choose(&nets);
                let moved = self.some_sinks(nl, net, false);
                nl.insert_buffer(lib, net, &moved, buf).unwrap();
            }
            Step::BufferOutput => {
                let outputs: Vec<NetId> = nl
                    .primary_outputs()
                    .filter(|&n| nl.net(n).driver.is_some())
                    .collect();
                if outputs.is_empty() {
                    return false;
                }
                let net = *self.rng.choose(&outputs);
                let moved = self.some_sinks(nl, net, true);
                nl.insert_buffer(lib, net, &moved, buf).unwrap();
            }
            Step::RewireSafe | Step::RewireAny => {
                let targets = if step == Step::RewireSafe {
                    acyclic_safe_nets(nl, lib)
                } else {
                    (0..nl.net_count()).map(NetId::new).collect()
                };
                if targets.is_empty() || sinks.is_empty() {
                    return false;
                }
                let sink = *self.rng.choose(&sinks);
                nl.rewire_input(sink, *self.rng.choose(&targets));
            }
            Step::RewireLoop => {
                let pairs: Vec<(CellId, CellId)> = cells
                    .iter()
                    .filter(|&&a| !self.is_flop(nl, a) && !nl.cell(a).inputs.is_empty())
                    .flat_map(|&a| {
                        let out = nl.net(nl.cell(a).output).sinks;
                        out.iter().map(move |s| (a, s.cell))
                    })
                    .filter(|&(_, b)| !self.is_flop(nl, b))
                    .collect();
                if pairs.is_empty() {
                    return false;
                }
                let (a, b) = *self.rng.choose(&pairs);
                let pin = self.rng.below(nl.cell(a).inputs.len());
                nl.rewire_input(PinRef { cell: a, pin }, nl.cell(b).output);
            }
            Step::ToFlop | Step::ToComb => {
                let (pool, to) = if step == Step::ToFlop {
                    (two_input_gates, self.master("DFF"))
                } else {
                    (nl.flops(lib).collect(), self.master("NAND2"))
                };
                if pool.is_empty() {
                    return false;
                }
                nl.swap_master(lib, *self.rng.choose(&pool), to).unwrap();
            }
            Step::Param => match self.rng.below(3) {
                0 => {
                    let net = NetId::new(self.rng.below(nl.net_count()));
                    nl.set_wire_length(net, self.rng.uniform_in(5.0, 400.0));
                }
                1 => {
                    let net = NetId::new(self.rng.below(nl.net_count()));
                    nl.set_route_class(net, self.rng.below(3) as u8);
                }
                _ => {
                    let cell = *self.rng.choose(&cells);
                    let cur = nl.cell(cell).master;
                    match lib.upsize(cur).or_else(|| lib.downsize(cur)) {
                        Some(m) => nl.swap_master(lib, cell, m).unwrap(),
                        None => return false,
                    }
                }
            },
            Step::Skew => unreachable!("a timer edit"),
        }
        true
    }

    /// Re-times the edits past journal length `len`. A loop must fail
    /// the update with state, cursor and undo log unchanged; the edits
    /// are then undone.
    fn retime(&mut self, nl: &mut Netlist, timer: &mut Timer<'_>, len: usize) {
        let looped = levelize(nl, self.lib).is_err();
        let held = looped.then(|| (timer.state().clone(), timer.checkpoint()));
        match timer.update(nl) {
            Ok(()) => assert!(!looped, "an update timed a combinational loop"),
            Err(e) => {
                let (state, cp) = held.unwrap_or_else(|| panic!("update failed off a loop: {e}"));
                assert!(timer.state() == &state, "a failed update changed the state");
                assert_eq!(
                    timer.checkpoint(),
                    cp,
                    "a failed update moved cursor or undo log"
                );
                nl.undo_to(len).unwrap();
                self.loops += 1;
            }
        }
        self.check(nl, timer);
    }

    fn step(&mut self, nl: &mut Netlist, timer: &mut Timer<'_>) {
        for _ in 0..32 {
            let step = *self.rng.choose(&STEPS);
            let len = nl.journal_len();
            if step == Step::Skew {
                let flops: Vec<CellId> = nl.flops(self.lib).collect();
                if flops.is_empty() {
                    continue;
                }
                let delta = if self.rng.chance(0.5) {
                    SKEW_STEP
                } else {
                    -SKEW_STEP
                };
                timer
                    .skew_clock(nl, *self.rng.choose(&flops), delta)
                    .unwrap();
                self.check(nl, timer);
            } else if self.apply(step, nl) {
                self.retime(nl, timer, len);
            } else {
                continue;
            }
            self.applied.push(step);
            return;
        }
        panic!("no applicable step after 32 draws");
    }

    /// One step under a raw checkpoint, then `undo_to` + `rollback_to`.
    fn raw_rollback(&mut self, nl: &mut Netlist, timer: &mut Timer<'_>) {
        let before = (timer.state().clone(), timer.constraints().clone());
        let (cp, journal_len) = (timer.checkpoint(), nl.journal_len());
        self.step(nl, timer);
        nl.undo_to(journal_len).unwrap();
        timer.rollback_to(cp).unwrap();
        assert!(
            timer.state() == &before.0,
            "a raw rollback left state behind"
        );
        assert_eq!(timer.constraints(), &before.1);
        assert_eq!(timer.checkpoint(), cp);
        self.raw_rollbacks += 1;
        self.check(nl, timer);
    }

    /// One to three steps, raw rollbacks or nested trials, then a commit
    /// or a drop.
    fn trial(&mut self, nl: &mut Netlist, timer: &mut Timer<'_>, depth: usize) {
        let before = (timer.state().clone(), timer.constraints().clone());
        let (cp, journal_len) = (timer.checkpoint(), nl.journal_len());
        let mut trial = timer.trial(nl).unwrap();
        for _ in 0..1 + self.rng.below(3) {
            let (nl, timer) = trial.parts();
            if depth < 2 && self.rng.chance(0.25) {
                self.trial(nl, timer, depth + 1);
            } else if self.rng.chance(0.15) {
                self.raw_rollback(nl, timer);
            } else {
                self.step(nl, timer);
            }
        }
        if self.rng.chance(0.5) {
            trial.commit();
        } else {
            drop(trial);
            assert!(
                timer.state() == &before.0,
                "a dropped trial left state behind"
            );
            assert_eq!(timer.constraints(), &before.1);
            assert_eq!(
                timer.checkpoint(),
                cp,
                "a dropped trial left undo entries or wire-pool bytes"
            );
            assert_eq!(nl.journal_len(), journal_len);
        }
        self.check(nl, timer);
    }
}

fn structural_oracle(profile: BenchProfile, gen_seed: u64, seed: u64, trials: usize) {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, profile, gen_seed).unwrap();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(1_100.0)).unwrap();
    let mut oracle = Oracle {
        lib: &lib,
        stack: &stack,
        rng: Rng::seed_from(seed),
        applied: Vec::new(),
        loops: 0,
        raw_rollbacks: 0,
        held: None,
    };
    for _ in 0..trials {
        oracle.trial(&mut nl, &mut timer, 0);
    }
    for step in STEPS {
        assert!(oracle.applied.contains(&step), "{step:?} never drawn");
    }
    assert!(oracle.loops > 0, "no loop-closing step");
    assert!(oracle.raw_rollbacks > 0, "no raw rollback");
}

#[test]
fn structural_oracle_on_tiny() {
    structural_oracle(BenchProfile::tiny(), 17, 0x57A7E, 60);
}

#[test]
fn structural_oracle_on_c5315() {
    structural_oracle(BenchProfile::c5315(), 21, 0x5315, 20);
}

/// The release-size sequence: `cargo test --release --test incremental_sta
/// -- --ignored`.
#[test]
#[ignore = "release-size sequence"]
fn structural_oracle_on_c7552_long() {
    structural_oracle(BenchProfile::c7552(), 23, 0x7552, 400);
}
