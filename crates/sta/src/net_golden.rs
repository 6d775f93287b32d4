//! Golden fingerprints of every net's timing state and the wire table.
//!
//! `tests/gba_golden.rs` pins the endpoint rows and the 25 worst paths,
//! so a moved early bound or predecessor pin on a net off the critical
//! paths would pass it. These fingerprints are FNV-1a over every net's
//! whole [`NetState`] and every [`WireTable`] entry, on c5315 (seed 11,
//! 900 ps): once after [`Sta::propagate`], and once over the timer's
//! state after each update of a fixed sequence of [`Trial`]s, kept and
//! dropped, value and structural. The constants were recorded before
//! the sweep was batched by level; a change that moves one moved a bit
//! of some net's state.

use tc_core::ids::{CellId, NetId};
use tc_device::VtClass;
use tc_interconnect::BeolStack;
use tc_liberty::{CellKind, DerateModel, LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};
use tc_netlist::Netlist;

use crate::analysis::{NetState, WireTable};
use crate::{Constraints, Sta, Timer, TimingState};

/// `(case, after propagate, over the trial sequence)`.
const GOLDEN: [(&str, u64, u64); 2] = [
    ("flat", 0xd30a_1a0f_fdc2_0b75, 0xa6e3_11f5_94c3_1aab),
    ("lvf+si", 0xbc96_d93e_69c7_1f37, 0xfd93_43b5_1838_475b),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn net(&mut self, ns: &NetState) {
        for a in [ns.late, ns.early] {
            self.f(a.t);
            self.f(a.var);
            self.f(a.slew);
        }
        self.f(ns.late_gate_ps);
        self.f(ns.late_wire_ps);
        self.word(ns.late_depth as u64);
        self.word(ns.late_pred_pin as u64);
        self.word(ns.reached as u64);
    }

    fn wires(&mut self, wires: &WireTable) {
        for n in 0..wires.net_count() {
            self.f(wires.driver_load(n).value());
            self.f(wires.si_delta(n));
        }
        for p in 0..wires.pin_count() {
            self.f(wires.delay(p).value());
        }
    }

    fn state(&mut self, st: &TimingState) {
        self.word(st.nets.len() as u64);
        st.nets.iter().for_each(|ns| self.net(ns));
        self.wires(&st.wires);
    }
}

fn constraints(case: &str) -> Constraints {
    let mut cons = Constraints::single_clock(900.0);
    match case {
        "flat" => cons.with_derate(DerateModel::classic_flat()),
        "lvf+si" => {
            cons.si_enabled = true;
            cons.with_derate(DerateModel::Lvf { k: 3.0 })
        }
        _ => unreachable!("unknown case {case}"),
    }
}

/// One trial's edit: a wire-length change on a primary input (a cone
/// through many wide levels), a mid-design net or the fattest net's
/// fanout moved behind a buffer, or a Vt swap.
fn edit(nl: &mut Netlist, lib: &Library, round: usize) {
    let comb = |nl: &Netlist, c: CellId| lib.cell(nl.cell_master(c)).kind != CellKind::Flop;
    match round % 4 {
        0 => {
            let pis = nl.primary_inputs();
            let pi = pis[(round * 7) % pis.len()];
            nl.set_wire_length(pi, 40.0 + round as f64 * 13.0);
        }
        1 => {
            let net = NetId::new((round * 131) % nl.net_count());
            nl.set_wire_length(net, 300.0);
        }
        2 => {
            let fat = (0..nl.net_count())
                .map(NetId::new)
                .filter(|&n| nl.net_driver(n).is_some())
                .max_by_key(|&n| nl.net_sinks(n).len())
                .unwrap();
            let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
            let sinks = nl.net_sinks(fat).to_vec();
            nl.insert_buffer(lib, fat, &sinks[..sinks.len() / 2 + 1], buf)
                .unwrap();
        }
        _ => {
            let cell = (0..nl.cell_count())
                .map(|i| CellId::new((i + round * 37) % nl.cell_count()))
                .find(|&c| comb(nl, c))
                .unwrap();
            let m = lib.cell(nl.cell_master(cell));
            let vt = if m.vt == VtClass::Lvt {
                VtClass::Hvt
            } else {
                VtClass::Lvt
            };
            if let Some(alt) = lib.variant(m.template.name, vt, m.drive) {
                nl.swap_master(lib, cell, alt).unwrap();
            }
        }
    }
}

#[test]
fn every_net_state_and_wire_matches_its_fingerprint() {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut got = Vec::new();
    for &(case, _, _) in &GOLDEN {
        let cons = constraints(case);
        let mut nl = generate(&lib, BenchProfile::c5315(), 11).unwrap();
        let mut full = Fnv::new();
        full.state(Sta::new(&nl, &lib, &stack, &cons).propagate().unwrap());

        let mut timer = Timer::new(&nl, &lib, &stack, cons.clone()).unwrap();
        let mut trials = Fnv::new();
        for round in 0..24 {
            let mut trial = timer.trial(&mut nl).unwrap();
            edit(trial.netlist(), &lib, round);
            trial.update().unwrap();
            trials.state(trial.timer().state());
            if round % 3 != 2 {
                trial.commit();
            }
        }
        trials.state(timer.state());
        let fresh = Sta::new(&nl, &lib, &stack, &cons);
        assert!(
            timer.state() == fresh.propagate().unwrap(),
            "{case}: diverged"
        );
        got.push((case, full.0, trials.0));
    }
    let diffs: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|(want, got)| want != got)
        .map(|(w, g)| {
            format!(
                "{}: want ({:#018x}, {:#018x}), got ({:#018x}, {:#018x})",
                w.0, w.1, w.2, g.1, g.2
            )
        })
        .collect();
    assert!(diffs.is_empty(), "net states moved:\n{}", diffs.join("\n"));
}
