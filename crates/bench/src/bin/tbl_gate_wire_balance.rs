//! §2.3 — gate-wire balance across supply voltage: gate delay collapses
//! with rising VDD while wire delay barely moves (the paper quotes
//! ~−50% gate vs ~−2% wire from 0.7 V to 1.2 V at 20 nm), so different
//! paths go critical at different corners and BEOL-corner dominance
//! flips between Cw (gate-dominated) and RCw (wire-dominated).

use tc_bench::{fmt, print_table};
use tc_core::units::{Celsius, Ff, Volt};
use tc_device::{MosDevice, MosKind, Technology, VtClass};
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_interconnect::estimate::WireModel;

fn main() {
    let tech = Technology::finfet_16nm();
    let stack = BeolStack::n20();
    let temp = Celsius::new(25.0);
    let dev = MosDevice::new(MosKind::Nmos, VtClass::Svt, 1.0);

    // A 100 µm M3-class wire, per the paper's example.
    let wire = WireModel {
        length_um: 100.0,
        layer: 2,
        ndr: Default::default(),
    };
    let caps = [Ff::new(2.0)];
    let w_t = wire.timing(&stack, BeolCorner::Typical, None, &caps);
    let wire_delay = w_t.sink_delays[0].value();

    let gate_delay = |v: f64| {
        let vdd = Volt::new(v);
        // Stage delay ∝ R_eff · C_load.
        dev.eff_resistance(&tech, vdd, temp).value() * 6.0
    };
    let g07 = gate_delay(0.7);
    let rows: Vec<Vec<String>> = [0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
        .iter()
        .map(|&v| {
            let g = gate_delay(v);
            // Wire RC is voltage-independent (the ~2% the paper cites is
            // driver-resistance share; pure wire delay is flat).
            vec![
                fmt(v, 1),
                fmt(g, 2),
                fmt(100.0 * (g / g07 - 1.0), 1) + "%",
                fmt(wire_delay, 2),
                "0.0%".to_string(),
                fmt(g / (g + wire_delay), 2),
            ]
        })
        .collect();
    print_table(
        "Gate vs wire delay across supply voltage (100 µm M3 wire)",
        &[
            "VDD (V)",
            "gate (ps)",
            "Δgate vs 0.7V",
            "wire (ps)",
            "Δwire",
            "gate share",
        ],
        &rows,
    );
    println!("\n→ low V: paths gate-dominated (Cw BEOL corner dominates);");
    println!("  high V: wire share grows (RCw dominates). Corner pruning is hard (§2.3).");
}
