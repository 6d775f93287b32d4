//! Golden transient fingerprints: every sample of every node of a full
//! `TranResult`, for an inverter, a NAND2, the master–slave DFF and one
//! multi-input-switching pulse on a loaded NAND2, each at 25 °C and at a
//! hot and a cold corner, plus one `characterize` table and the
//! `characterize_ff` triple at three temperatures.
//!
//! Each fingerprint is FNV-1a over the sample times and every node's
//! voltage bit patterns. Away from 25 °C the mobility factor is not 1.0,
//! so the temperature terms the device model folds per transient are
//! exercised with real weight. The constants were recorded before the
//! per-transient device folding and the drain-step reuse landed; a change
//! that moves any of them moved a simulator bit.

use tc_core::units::{Celsius, Ff, Volt};
use tc_device::{Technology, VtClass};
use tc_sim::cells::{dff, inverter, nand2};
use tc_sim::char_cell::{characterize, CellKind, CharConditions};
use tc_sim::circuit::Element;
use tc_sim::ff_char::{characterize_ff, FfBench};
use tc_sim::measure::Edge;
use tc_sim::solver::transient;
use tc_sim::{Circuit, NodeId, Pwl, TranOptions, TranResult};

/// `(circuit, temperature °C, fingerprint)`.
const GOLDEN: [(&str, f64, u64); 12] = [
    ("inv", 25.0, 0x0623_6b78_0857_a0bd),
    ("inv", 125.0, 0x52e2_7909_6e2c_57d4),
    ("inv", -40.0, 0x60aa_5ce7_1a4e_9af1),
    ("nand2", 25.0, 0xd6f6_3111_4992_7a29),
    ("nand2", 125.0, 0xae02_fc0d_f608_bd4c),
    ("nand2", -40.0, 0x51ee_d7d2_4d3b_db10),
    ("dff", 25.0, 0x3fe1_48c6_be43_3378),
    ("dff", 125.0, 0xfeae_3f76_d93a_178b),
    ("dff", -40.0, 0x9dd2_1664_4db8_db62),
    ("mis", 25.0, 0x6e36_9b27_5a39_586a),
    ("mis", 125.0, 0x22bd_8e00_f017_db12),
    ("mis", -40.0, 0xd579_b284_1cfa_c561),
];

/// NAND2 fall-arc table at 125 °C over a 3×3 (slew × load) grid.
const GOLDEN_TABLE: u64 = 0x5063_55ed_4f0a_cc96;

/// `characterize_ff` at the paper's bench and 10% pushout:
/// `(temperature °C, [setup, hold, c2q_nominal] bits)`. Recorded while
/// every step of every transient was still solved, so they pin the flop's
/// 31 transients per call, captures, pushouts and failures alike.
const GOLDEN_FF: [(f64, [u64; 3]); 3] = [
    (
        25.0,
        [
            0x3fb3_1000_0000_0000,
            0xbfe2_2000_0000_0000,
            0x4026_4fc8_3512_3f60,
        ],
    ),
    (
        125.0,
        [
            0xbf79_0000_0000_0000,
            0x3fae_0000_0000_0000,
            0x4026_a87c_9ec6_d280,
        ],
    ),
    (
        -40.0,
        [
            0x3fb6_8000_0000_0000,
            0xbfe7_c000_0000_0000,
            0x4026_76cf_b145_8b80,
        ],
    ),
];

const VDD: f64 = 0.9;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every node the circuit's elements touch, ground included, in id order.
fn nodes(ckt: &Circuit) -> Vec<NodeId> {
    let mut ids = vec![NodeId::GROUND];
    for el in ckt.elements() {
        match el {
            Element::Source { node, .. } => ids.push(*node),
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                ids.extend([*a, *b])
            }
            Element::Mosfet { d, g, s, .. } => ids.extend([*d, *g, *s]),
        }
    }
    ids.sort();
    ids.dedup();
    ids
}

fn fingerprint(ckt: &Circuit, res: &TranResult) -> u64 {
    let mut h = Fnv::new();
    for &t in res.times() {
        h.f(t);
    }
    for n in nodes(ckt) {
        for &v in res.waveform(n).values() {
            h.f(v);
        }
    }
    h.0
}

fn circuit(name: &str) -> (Circuit, f64) {
    let vdd_v = Volt::new(VDD);
    let mut ckt = Circuit::new();
    let vdd = ckt.rail("vdd", vdd_v);
    let t_stop = match name {
        "inv" => {
            let (a, out) = (ckt.node("in"), ckt.node("out"));
            inverter(&mut ckt, vdd, a, out, VtClass::Svt, 1.0);
            ckt.cap_to_ground(out, Ff::new(2.0));
            ckt.source(a, Pwl::pulse(40.0, 160.0, 20.0, Volt::ZERO, vdd_v));
            300.0
        }
        "nand2" => {
            let (a, b, out) = (ckt.node("a"), ckt.node("b"), ckt.node("out"));
            nand2(&mut ckt, vdd, a, b, out, VtClass::Lvt, 1.0);
            ckt.cap_to_ground(out, Ff::new(3.0));
            ckt.source(a, Pwl::pulse(40.0, 160.0, 25.0, Volt::ZERO, vdd_v));
            ckt.source(b, Pwl::constant(vdd_v));
            300.0
        }
        "dff" => {
            let ff = dff(&mut ckt, vdd, VtClass::Svt);
            ckt.cap_to_ground(ff.q, Ff::new(2.0));
            ckt.source(ff.d, Pwl::pulse(60.0, 260.0, 20.0, Volt::ZERO, vdd_v));
            ckt.source(ff.ck, Pwl::pulse(150.0, 300.0, 15.0, Volt::ZERO, vdd_v));
            400.0
        }
        "mis" => {
            // Fig 4's bench: a NAND2 into an FO3 load, both inputs rising
            // a few ps apart and falling back together.
            let (a, b, out) = (ckt.node("in"), ckt.node("in1"), ckt.node("out"));
            nand2(&mut ckt, vdd, a, b, out, VtClass::Svt, 1.0);
            for i in 0..3 {
                let sink = ckt.node(format!("fo{i}"));
                inverter(&mut ckt, vdd, out, sink, VtClass::Svt, 1.0);
                ckt.cap_to_ground(sink, Ff::new(0.5));
            }
            ckt.source(a, Pwl::pulse(50.0, 170.0, 30.0, Volt::ZERO, vdd_v));
            ckt.source(b, Pwl::pulse(56.0, 170.0, 30.0, Volt::ZERO, vdd_v));
            300.0
        }
        _ => unreachable!("unknown circuit {name}"),
    };
    (ckt, t_stop)
}

#[test]
fn transient_fingerprints_hold_across_cells_and_temperatures() {
    let tech = Technology::planar_28nm();
    let mut got = Vec::new();
    for &(name, temp, _) in &GOLDEN {
        let (ckt, t_stop) = circuit(name);
        let opts = TranOptions {
            t_stop,
            dt: 0.25,
            temp: Celsius::new(temp),
            ..TranOptions::default()
        };
        let res = transient(&ckt, &tech, &opts).expect("transient converges");
        got.push((name, temp, fingerprint(&ckt, &res)));
    }
    let diffs: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|(want, got)| want.2 != got.2)
        .map(|(want, got)| {
            format!(
                "{} @ {} °C: got {:#018x}, want {:#018x}",
                want.0, want.1, got.2, want.2
            )
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "transient fingerprints moved:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn characterized_table_fingerprint_holds() {
    let cond = CharConditions {
        temp: Celsius::new(125.0),
        ..CharConditions::nominal_28nm()
    };
    let (slews, loads) = ([10.0, 30.0, 60.0], [1.0, 3.0, 8.0]);
    let table = characterize(CellKind::Nand2, &cond, &slews, &loads, Edge::Fall).unwrap();
    let mut h = Fnv::new();
    for &s in &slews {
        for &l in &loads {
            h.f(table.delay.eval(s, l));
            h.f(table.out_slew.eval(s, l));
        }
    }
    assert_eq!(h.0, GOLDEN_TABLE, "table fingerprint {:#018x}", h.0);
}

#[test]
fn flop_characterization_triple_holds() {
    let tech = Technology::planar_28nm();
    let mut diffs = Vec::new();
    for (temp, want) in GOLDEN_FF {
        let bench = FfBench {
            temp: Celsius::new(temp),
            ..FfBench::paper_default()
        };
        let t = characterize_ff(&bench, &tech, 1.10).expect("flop characterizes");
        let got = [t.setup, t.hold, t.c2q_nominal].map(|x| x.value().to_bits());
        if got != want {
            diffs.push(format!(
                "{temp} °C: got {got:#018x?}, want {want:#018x?} ({t:?})"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "flop triples moved:\n{}",
        diffs.join("\n")
    );
}
