//! Transistor-level standard cells for characterization testbenches.
//!
//! Each builder wires devices into an existing [`Circuit`] and returns the
//! relevant node ids. Device widths follow the usual 28 nm-ish
//! conventions: PMOS ≈ 1.8× NMOS for balanced rise/fall, series stacks
//! upsized by the stack height.

use tc_core::error::Result;
use tc_core::units::{Celsius, Ff, Ps, Volt};
use tc_device::{MosDevice, MosKind, Technology, VtClass};

use crate::circuit::{Circuit, NodeId, Pwl};
use crate::measure::{delay_between, Edge};
use crate::solver::{Testbench, TranOptions, TranResult};

/// Relative PMOS upsizing for balanced drive.
const BETA: f64 = 1.8;

/// Builds an inverter; returns nothing beyond wiring (out is caller's).
pub fn inverter(
    ckt: &mut Circuit,
    vdd: NodeId,
    input: NodeId,
    output: NodeId,
    vt: VtClass,
    strength: f64,
) {
    let wn = strength;
    let wp = BETA * strength;
    ckt.mosfet(
        MosDevice::new(MosKind::Nmos, vt, wn),
        output,
        input,
        NodeId::GROUND,
    );
    ckt.mosfet(MosDevice::new(MosKind::Pmos, vt, wp), output, input, vdd);
    // Drain diffusion loading on the output.
    ckt.cap_to_ground(output, Ff::new(0.55 * (wn + wp) * 0.5));
}

/// Builds a 2-input NAND; inputs `a` (bottom of stack) and `b` (top).
///
/// The series NMOS stack is upsized 2× so the worst-case pull-down matches
/// an inverter of the same strength.
pub fn nand2(
    ckt: &mut Circuit,
    vdd: NodeId,
    a: NodeId,
    b: NodeId,
    output: NodeId,
    vt: VtClass,
    strength: f64,
) {
    let wn = 2.0 * strength;
    let wp = BETA * strength;
    let mid = ckt.node("nand_mid");
    // Pull-down stack: output → (gate b) → mid → (gate a) → ground.
    ckt.mosfet(MosDevice::new(MosKind::Nmos, vt, wn), output, b, mid);
    ckt.mosfet(
        MosDevice::new(MosKind::Nmos, vt, wn),
        mid,
        a,
        NodeId::GROUND,
    );
    // Parallel pull-ups.
    ckt.mosfet(MosDevice::new(MosKind::Pmos, vt, wp), output, a, vdd);
    ckt.mosfet(MosDevice::new(MosKind::Pmos, vt, wp), output, b, vdd);
    ckt.cap_to_ground(output, Ff::new(0.55 * (wn + 2.0 * wp) * 0.4));
    ckt.cap_to_ground(mid, Ff::new(0.55 * wn * 0.5));
}

/// Builds a transmission gate between `a` and `b`, conducting when
/// `ctrl` is high (`ctrl_b` must carry its complement).
pub fn transmission_gate(
    ckt: &mut Circuit,
    a: NodeId,
    b: NodeId,
    ctrl: NodeId,
    ctrl_b: NodeId,
    vt: VtClass,
    strength: f64,
) {
    ckt.mosfet(MosDevice::new(MosKind::Nmos, vt, strength), a, ctrl, b);
    ckt.mosfet(
        MosDevice::new(MosKind::Pmos, vt, BETA * strength),
        a,
        ctrl_b,
        b,
    );
}

/// Node handles of a built flip-flop.
#[derive(Clone, Copy, Debug)]
pub struct DffNodes {
    /// Data input.
    pub d: NodeId,
    /// Clock input.
    pub ck: NodeId,
    /// Data output.
    pub q: NodeId,
}

/// Builds a positive-edge-triggered transmission-gate master–slave
/// flip-flop (the classic DFF topology). `d` and `ck` must be driven by
/// the caller; `q` is the output.
pub fn dff(ckt: &mut Circuit, vdd: NodeId, vt: VtClass) -> DffNodes {
    let d = ckt.node("d");
    let ck = ckt.node("ck");
    let ckb = ckt.node("ckb");
    let cki = ckt.node("cki");
    // Local clock buffers: ckb = !ck, cki = !ckb (buffered true phase).
    inverter(ckt, vdd, ck, ckb, vt, 1.0);
    inverter(ckt, vdd, ckb, cki, vt, 1.0);

    // Master latch: transparent while ck low.
    let m1 = ckt.node("m1");
    let m2 = ckt.node("m2");
    let m3 = ckt.node("m3");
    transmission_gate(ckt, d, m1, ckb, cki, vt, 1.0);
    inverter(ckt, vdd, m1, m2, vt, 1.0);
    inverter(ckt, vdd, m2, m3, vt, 0.5);
    transmission_gate(ckt, m3, m1, cki, ckb, vt, 0.5);

    // Slave latch: transparent while ck high.
    let s1 = ckt.node("s1");
    let q = ckt.node("q");
    let s3 = ckt.node("s3");
    transmission_gate(ckt, m2, s1, cki, ckb, vt, 1.0);
    inverter(ckt, vdd, s1, q, vt, 1.5);
    inverter(ckt, vdd, q, s3, vt, 0.5);
    transmission_gate(ckt, s3, s1, ckb, cki, vt, 0.5);

    DffNodes { d, ck, q }
}

/// Measures the 50%–50% propagation delay of one inverter stage inside a
/// 3-stage chain (the middle stage sees realistic input slew and output
/// loading) — a quick end-to-end smoke of the device + solver stack.
///
/// # Errors
///
/// Propagates solver convergence failures.
pub fn inverter_chain_delay(
    tech: &Technology,
    vt: VtClass,
    vdd_v: Volt,
    temp: Celsius,
) -> Result<Ps> {
    chain_bench(vt, vdd_v, temp)
        .run(tech)?
        .0
        .ok_or_else(|| tc_core::Error::internal("inverter chain produced no output transition"))
}

/// The testbench of [`inverter_chain_delay`]: three inverters from a ramp
/// at 50 ps, measured from `n1` falling to `n2` rising over 400 ps.
pub(crate) fn chain_bench(
    vt: VtClass,
    vdd_v: Volt,
    temp: Celsius,
) -> Testbench<impl Fn(&TranResult) -> Option<Ps>> {
    let mut ckt = Circuit::new();
    let vdd = ckt.rail("vdd", vdd_v);
    let input = ckt.node("in");
    let n1 = ckt.node("n1");
    let n2 = ckt.node("n2");
    let n3 = ckt.node("n3");
    inverter(&mut ckt, vdd, input, n1, vt, 1.0);
    inverter(&mut ckt, vdd, n1, n2, vt, 1.0);
    inverter(&mut ckt, vdd, n2, n3, vt, 1.0);
    ckt.cap_to_ground(n3, Ff::new(2.0));
    ckt.source(input, Pwl::ramp(50.0, 20.0, Volt::ZERO, vdd_v));

    let half = 0.5 * vdd_v.value();
    Testbench {
        circuit: ckt,
        opts: TranOptions {
            t_stop: 400.0,
            dt: 0.25,
            temp,
            ..Default::default()
        },
        reads: vec![(n1, half, Edge::Fall), (n2, half, Edge::Rise)],
        measure: move |res: &TranResult| {
            let (w_in, w_out) = (res.waveform(n1), res.waveform(n2));
            delay_between(&w_in, Edge::Fall, &w_out, Edge::Rise, vdd_v.value(), 0.0)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::transient;

    #[test]
    fn inverter_inverts() {
        let tech = Technology::planar_28nm();
        let vdd_v = Volt::new(0.9);
        let mut ckt = Circuit::new();
        let vdd = ckt.rail("vdd", vdd_v);
        let input = ckt.node("in");
        let out = ckt.node("out");
        inverter(&mut ckt, vdd, input, out, VtClass::Svt, 1.0);
        ckt.cap_to_ground(out, Ff::new(1.0));
        ckt.source(input, Pwl::ramp(50.0, 10.0, Volt::ZERO, vdd_v));
        let res = transient(&ckt, &tech, &TranOptions::until(300.0)).unwrap();
        let w = res.waveform(out);
        // Out starts high (input low), ends low.
        assert!(w.at(10.0) > 0.8 * vdd_v.value(), "initial {}", w.at(10.0));
        assert!(w.last() < 0.1 * vdd_v.value(), "final {}", w.last());
    }

    #[test]
    fn chain_delay_is_positive_and_sane() {
        let tech = Technology::planar_28nm();
        let d =
            inverter_chain_delay(&tech, VtClass::Svt, Volt::new(0.9), Celsius::new(25.0)).unwrap();
        assert!(d.value() > 1.0 && d.value() < 100.0, "stage delay {d}");
    }

    #[test]
    fn lower_vt_is_faster() {
        let tech = Technology::planar_28nm();
        let t = Celsius::new(25.0);
        let v = Volt::new(0.9);
        let d_lvt = inverter_chain_delay(&tech, VtClass::Lvt, v, t).unwrap();
        let d_hvt = inverter_chain_delay(&tech, VtClass::Hvt, v, t).unwrap();
        assert!(d_lvt < d_hvt, "lvt {d_lvt} must beat hvt {d_hvt}");
    }

    #[test]
    fn temperature_inversion_at_circuit_level() {
        // The device-level reversal must survive into simulated gate delay.
        let tech = Technology::planar_28nm();
        let cold = Celsius::new(-30.0);
        let hot = Celsius::new(125.0);
        // Low voltage: slower cold.
        let v = Volt::new(0.6);
        let d_cold = inverter_chain_delay(&tech, VtClass::Svt, v, cold).unwrap();
        let d_hot = inverter_chain_delay(&tech, VtClass::Svt, v, hot).unwrap();
        assert!(d_cold > d_hot, "low-V: cold {d_cold} vs hot {d_hot}");
        // High voltage: slower hot.
        let v = Volt::new(1.1);
        let d_cold = inverter_chain_delay(&tech, VtClass::Svt, v, cold).unwrap();
        let d_hot = inverter_chain_delay(&tech, VtClass::Svt, v, hot).unwrap();
        assert!(d_hot > d_cold, "high-V: cold {d_cold} vs hot {d_hot}");
    }

    #[test]
    fn nand2_truth_table_endpoints() {
        let tech = Technology::planar_28nm();
        let vdd_v = Volt::new(0.9);
        // b held high, a ramps high → output falls (NAND(1,1)=0).
        let mut ckt = Circuit::new();
        let vdd = ckt.rail("vdd", vdd_v);
        let a = ckt.node("a");
        let b = ckt.node("b");
        let out = ckt.node("out");
        nand2(&mut ckt, vdd, a, b, out, VtClass::Svt, 1.0);
        ckt.cap_to_ground(out, Ff::new(1.0));
        ckt.source(b, Pwl::constant(vdd_v));
        ckt.source(a, Pwl::ramp(50.0, 10.0, Volt::ZERO, vdd_v));
        let res = transient(&ckt, &tech, &TranOptions::until(300.0)).unwrap();
        let w = res.waveform(out);
        assert!(w.at(10.0) > 0.8 * vdd_v.value());
        assert!(w.last() < 0.1 * vdd_v.value());
    }

    #[test]
    fn dff_captures_on_rising_edge() {
        let tech = Technology::planar_28nm();
        let vdd_v = Volt::new(0.9);
        let mut ckt = Circuit::new();
        let vdd = ckt.rail("vdd", vdd_v);
        let ff = dff(&mut ckt, vdd, VtClass::Svt);
        ckt.cap_to_ground(ff.q, Ff::new(1.0));
        // D rises well before the clock edge at t=400; Q should go high
        // shortly after the edge and stay high.
        ckt.source(ff.d, Pwl::ramp(100.0, 20.0, Volt::ZERO, vdd_v));
        ckt.source(ff.ck, Pwl::pulse(400.0, 700.0, 20.0, Volt::ZERO, vdd_v));
        let opts = TranOptions {
            t_stop: 1000.0,
            dt: 0.5,
            ..Default::default()
        };
        let res = transient(&ckt, &tech, &opts).unwrap();
        let q = res.waveform(ff.q);
        assert!(
            q.at(380.0) < 0.2 * vdd_v.value(),
            "Q must stay low before the edge, got {}",
            q.at(380.0)
        );
        assert!(
            q.at(600.0) > 0.8 * vdd_v.value(),
            "Q must capture the high D, got {}",
            q.at(600.0)
        );
        // And hold it after the clock falls.
        assert!(q.last() > 0.8 * vdd_v.value());
    }
}
