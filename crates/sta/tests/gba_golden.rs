//! Golden GBA fingerprints across every derate model, with SI off and on
//! and CPPR on and off.
//!
//! The benchmark workloads time under the flat derate and the GBA/PBA
//! table under AOCV, so nothing else pins GBA's bits under POCV, LVF or
//! SI. Each fingerprint is FNV-1a over every endpoint row's bit patterns
//! and over the stage delays of the 25 worst paths, on c5315 (seed 11,
//! 900 ps). The constants were recorded before the GBA and PBA stage
//! models were merged; a change that moves any of them moved a GBA bit.

use tc_core::units::Ps;
use tc_interconnect::BeolStack;
use tc_liberty::{AocvTable, DerateModel, LibConfig, Library, PocvSigma, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};
use tc_sta::{worst_paths, Constraints, Endpoint, Sta};

/// `(model, si, cppr, fingerprint)`.
const GOLDEN: [(&str, bool, bool, u64); 20] = [
    // No derate: launch and capture clocks are underated, so CPPR
    // removes nothing.
    ("none", false, true, 0x0c6c_6a7e_cbc8_a649),
    ("none", false, false, 0x0c6c_6a7e_cbc8_a649),
    ("none", true, true, 0x463c_416b_9591_3d4e),
    ("none", true, false, 0x463c_416b_9591_3d4e),
    ("flat", false, true, 0xe236_4f0c_79b4_d45e),
    ("flat", false, false, 0x580d_f5a7_2f39_acf6),
    ("flat", true, true, 0xc4ca_219f_cdbd_3980),
    ("flat", true, false, 0x7653_8336_af49_428f),
    ("aocv", false, true, 0x9f09_cbf1_fd89_b7d6),
    ("aocv", false, false, 0x980e_d8ab_27ae_029f),
    ("aocv", true, true, 0xff50_cf47_b02a_0cbd),
    ("aocv", true, false, 0x549c_b918_6706_c709),
    ("pocv", false, true, 0x921f_378e_4fd7_47ba),
    ("pocv", false, false, 0xc7a0_1daf_e0d9_429e),
    ("pocv", true, true, 0xe3bf_9f8b_f277_9190),
    ("pocv", true, false, 0x1124_92ca_470d_8e1e),
    ("lvf", false, true, 0xeed1_3afa_711c_b01a),
    ("lvf", false, false, 0xc6b0_c65a_ca67_fa87),
    ("lvf", true, true, 0xa699_eed2_658d_9c09),
    ("lvf", true, false, 0xe182_1e9e_c5c7_eb9a),
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
}

fn derate(model: &str) -> DerateModel {
    match model {
        "none" => DerateModel::None,
        "flat" => DerateModel::classic_flat(),
        "aocv" => DerateModel::Aocv(AocvTable::from_stage_sigma(0.05)),
        "pocv" => DerateModel::Pocv {
            sigma: PocvSigma::standard(),
            k: 3.0,
        },
        "lvf" => DerateModel::Lvf { k: 3.0 },
        _ => unreachable!("unknown model {model}"),
    }
}

#[test]
fn gba_fingerprints_hold_for_every_derate_model_si_and_cppr() {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let nl = generate(&lib, BenchProfile::c5315(), 11).unwrap();
    let stack = BeolStack::n20();
    let mut got = Vec::new();
    for &(model, si, cppr, _) in &GOLDEN {
        let mut cons = Constraints::single_clock(900.0).with_derate(derate(model));
        // A clock trunk for CPPR to remove.
        cons.clock_tree.common = Ps::new(300.0);
        cons.clock_tree.default_leaf = Ps::new(60.0);
        cons.si_enabled = si;
        cons.cppr = cppr;
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        let mut h = Fnv::new();
        for r in sta.run().unwrap().endpoints.iter() {
            match r.endpoint {
                Endpoint::FlopD(c) => h.word(c.index() as u64),
                Endpoint::Output(n) => h.word(1 << 63 | n.index() as u64),
            }
            for x in [
                r.setup_slack.value(),
                r.hold_slack.value(),
                r.arrival.value(),
                r.required.value(),
                r.gate_ps,
                r.wire_ps,
                r.data_slew,
            ] {
                h.f(x);
            }
            h.word(r.depth as u64);
        }
        for p in worst_paths(&sta, 25).unwrap() {
            for s in &p.stages {
                h.f(s.gate_delay);
                h.f(s.sigma);
                h.f(s.wire_delay);
            }
        }
        got.push((model, si, cppr, h.0));
    }
    let diffs: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|(want, got)| want != got)
        .map(|(w, g)| {
            format!(
                "{} si={} cppr={}: want {:#018x}, got {:#018x}",
                w.0, w.1, w.2, w.3, g.3
            )
        })
        .collect();
    assert!(diffs.is_empty(), "GBA moved:\n{}", diffs.join("\n"));
}
