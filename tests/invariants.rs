//! Randomized cross-crate invariants (formerly proptest; now driven by
//! the in-tree deterministic RNG so offline builds need no external
//! dependencies).
//!
//! These encode the structural guarantees DESIGN.md calls out: PBA never
//! more pessimistic than GBA, slack moving 1:1 with the clock period,
//! ECO edits preserving netlist validity, deterministic generation, and
//! monotone responses to load/length.

use tc_core::ids::NetId;
use tc_core::rng::Rng;
use tc_core::units::{Ff, Kohm};
use timing_closure::interconnect::beol::BeolStack;
use timing_closure::interconnect::rctree::RcTree;
use timing_closure::liberty::{AocvTable, DerateModel, LibConfig, Library, PvtCorner};
use timing_closure::netlist::gen::{generate, BenchProfile};
use timing_closure::sta::pba::pba_worst_endpoints;
use timing_closure::sta::{Constraints, Sta};

fn env() -> (Library, BeolStack) {
    (
        Library::generate(&LibConfig::default(), &PvtCorner::typical()),
        BeolStack::n20(),
    )
}

/// Cases per randomized invariant (proptest ran 8).
const CASES: u64 = 8;

#[test]
fn pba_never_below_gba() {
    let (lib, stack) = env();
    let mut rng = Rng::seed_from(0x1a01);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 500;
        let depth_sigma = rng.uniform_in(0.02, 0.08);
        let nl = generate(&lib, BenchProfile::tiny(), seed).unwrap();
        let cons = Constraints::single_clock(900.0)
            .with_derate(DerateModel::Aocv(AocvTable::from_stage_sigma(depth_sigma)));
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        for r in pba_worst_endpoints(&sta, 8).unwrap() {
            assert!(
                r.pba_slack.value() >= r.gba_slack.value() - 1e-9,
                "pba {} < gba {} (seed {seed})",
                r.pba_slack,
                r.gba_slack
            );
        }
    }
}

#[test]
fn slack_shifts_one_to_one_with_period() {
    let (lib, stack) = env();
    let mut rng = Rng::seed_from(0x1a02);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 500;
        let delta = rng.uniform_in(10.0, 800.0);
        let nl = generate(&lib, BenchProfile::tiny(), seed).unwrap();
        let base = Constraints::single_clock(1_000.0);
        let wide = Constraints::single_clock(1_000.0 + delta);
        let w0 = Sta::new(&nl, &lib, &stack, &base).run().unwrap().wns();
        let w1 = Sta::new(&nl, &lib, &stack, &wide).run().unwrap().wns();
        assert!(((w1 - w0).value() - delta).abs() < 1e-6);
    }
}

#[test]
fn generation_is_reproducible() {
    let (lib, _) = env();
    let mut rng = Rng::seed_from(0x1a03);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 1000;
        let a = generate(&lib, BenchProfile::tiny(), seed).unwrap();
        let b = generate(&lib, BenchProfile::tiny(), seed).unwrap();
        assert_eq!(a.cell_count(), b.cell_count());
        for (ca, cb) in a.cells().zip(b.cells()) {
            assert_eq!(ca.master, cb.master);
            assert_eq!(&ca.inputs, &cb.inputs);
        }
    }
}

#[test]
fn wire_stretch_never_improves_wns() {
    let (lib, stack) = env();
    let mut rng = Rng::seed_from(0x1a04);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 300;
        let stretch = rng.uniform_in(1.1, 6.0);
        let mut nl = generate(&lib, BenchProfile::tiny(), seed).unwrap();
        let cons = Constraints::single_clock(1_000.0);
        let before = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        let lengths: Vec<f64> = nl.nets().map(|n| n.wire_length_um).collect();
        for (i, len) in lengths.into_iter().enumerate() {
            nl.set_wire_length(NetId::new(i), len * stretch);
        }
        let after = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        assert!(after <= before + tc_core::units::Ps::new(1e-6));
    }
}

#[test]
fn elmore_monotone_under_added_cap() {
    let mut rng = Rng::seed_from(0x1a05);
    for _ in 0..64 {
        let (r1, r2) = (rng.uniform_in(0.1, 5.0), rng.uniform_in(0.1, 5.0));
        let (c1, c2) = (rng.uniform_in(0.5, 10.0), rng.uniform_in(0.5, 10.0));
        let extra = rng.uniform_in(0.1, 20.0);
        let mut t = RcTree::new(Ff::new(0.2));
        let a = t.add_node(0, Kohm::new(r1), Ff::new(c1));
        let b = t.add_node(a, Kohm::new(r2), Ff::new(c2));
        let before = t.elmore(b).unwrap();
        t.add_cap(a, Ff::new(extra));
        let after = t.elmore(b).unwrap();
        assert!(after > before);
        // D2M stays below Elmore.
        assert!(t.d2m(b).unwrap() <= after);
    }
}

#[test]
fn mc_seeds_are_deterministic_and_distinct() {
    let mut rng = Rng::seed_from(0x1a06);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 1000;
        let path = timing_closure::variation::mc::PathModel::uniform(8, 20.0, 0.05, 2.0);
        let a = path.monte_carlo(500, seed);
        let b = path.monte_carlo(500, seed);
        assert_eq!(&a, &b);
        let c = path.monte_carlo(500, seed ^ 0xdead_beef);
        assert_ne!(&a, &c);
    }
}

#[test]
fn eco_edits_preserve_validity_under_stress() {
    // Hammer the three ECO surfaces in interleaved order and validate.
    let (lib, stack) = env();
    let mut nl = generate(&lib, BenchProfile::tiny(), 77).unwrap();
    let cons = Constraints::single_clock(700.0);
    let mut rng = tc_core::rng::Rng::seed_from(123);
    for round in 0..6 {
        // Random master swaps.
        for _ in 0..10 {
            let cell = tc_core::ids::CellId::new(rng.below(nl.cell_count()));
            let cur = nl.cell(cell).master;
            let target = if rng.chance(0.5) {
                lib.vt_faster(cur).or_else(|| lib.vt_slower(cur))
            } else {
                lib.upsize(cur).or_else(|| lib.downsize(cur))
            };
            if let Some(m) = target {
                nl.swap_master(&lib, cell, m).unwrap();
            }
        }
        // Random NDR flips.
        for _ in 0..5 {
            let net = NetId::new(rng.below(nl.net_count()));
            nl.set_route_class(net, (round % 3) as u8);
        }
        // A buffer insertion on some multi-sink net.
        let candidate = (0..nl.net_count())
            .map(NetId::new)
            .find(|&n| nl.net(n).sinks.len() >= 2 && nl.net(n).driver.is_some());
        if let Some(net) = candidate {
            let sinks = vec![nl.net(net).sinks[0]];
            let buf = lib
                .variant("BUF", timing_closure::device::VtClass::Svt, 2.0)
                .unwrap();
            nl.insert_buffer(&lib, net, &sinks, buf).unwrap();
        }
        nl.validate(&lib).unwrap();
        // STA must still run after every round.
        Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
    }
}
