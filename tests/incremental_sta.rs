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
use timing_closure::sta::{worst_paths, Constraints, Sta, Timer};

/// Asserts the timer's cached world — graph, net states, wire timings,
/// endpoint rows — is bit-identical to a fresh full STA's.
fn assert_matches_full(timer: &Timer<'_>, nl: &Netlist, lib: &Library, stack: &BeolStack) {
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

#[test]
fn flop_master_swaps_relay_endpoint_rows_and_roll_back_exactly() {
    let (lib, stack, mut nl, dff, nand2) = c5315_with_swap_masters();
    let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(1_100.0)).unwrap();
    let before = timer.state().clone();
    let (nl_cp, t_cp) = (nl.journal_len(), timer.checkpoint());

    // Combinational -> DFF: one endpoint more.
    let comb = (0..nl.cell_count())
        .map(CellId::new)
        .find(|&c| {
            let cell = nl.cell(c);
            lib.cell(cell.master).kind != CellKind::Flop
                && cell.inputs.len() == 2
                && !nl.net(cell.output).sinks.is_empty()
        })
        .unwrap();
    nl.swap_master(&lib, comb, dff).unwrap();
    timer.update(&nl).unwrap();
    assert_eq!(timer.state().rows().len(), before.rows().len() + 1);
    assert_matches_full(&timer, &nl, &lib, &stack);

    // DFF -> combinational on a flop off every feedback loop: one fewer.
    let flops: Vec<CellId> = nl.flops(&lib).filter(|&f| f != comb).collect();
    let flop = *flops
        .iter()
        .find(|&&f| !swap_closes_loop(&mut nl, &lib, f, nand2))
        .unwrap();
    nl.swap_master(&lib, flop, nand2).unwrap();
    timer.update(&nl).unwrap();
    assert_eq!(timer.state().rows().len(), before.rows().len());
    assert_matches_full(&timer, &nl, &lib, &stack);

    nl.undo_to(nl_cp).unwrap();
    timer.rollback_to(t_cp).unwrap();
    assert!(timer.state() == &before, "rollback lost timing state");
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
