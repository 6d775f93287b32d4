//! NLDM-style cell characterization: delay/slew tables over a
//! (input slew × output load) grid, measured on the transistor-level
//! cells of [`crate::cells`].
//!
//! This is the simulator-backed path of the library flow: `tc-liberty`
//! normally builds its tables from closed-form models (fast), but can be
//! cross-checked against these measured tables — mirroring the paper's
//! model-hardware-correlation theme (§4, Comment 2).

use tc_core::error::{Error, Result};
use tc_core::lut::Lut2;
use tc_core::units::{Celsius, Ff, Volt};
use tc_device::{Technology, VtClass};

use crate::cells::{inverter, nand2};
use crate::circuit::{Circuit, NodeId, Pwl};
use crate::measure::{delay_between, slew_10_90, slew_thresholds, Edge};
use crate::solver::{Testbench, TranOptions, TranResult};

/// Which cell template to characterize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// Single inverter.
    Inv,
    /// 2-input NAND, arc from input A with B sensitized high.
    Nand2,
}

/// Characterization conditions.
#[derive(Clone, Debug)]
pub struct CharConditions {
    /// Supply voltage.
    pub vdd: Volt,
    /// Die temperature.
    pub temp: Celsius,
    /// Threshold flavour.
    pub vt: VtClass,
    /// Drive strength multiplier.
    pub strength: f64,
}

impl CharConditions {
    /// Nominal 28 nm conditions.
    pub fn nominal_28nm() -> Self {
        CharConditions {
            vdd: Volt::new(0.9),
            temp: Celsius::new(25.0),
            vt: VtClass::Svt,
            strength: 1.0,
        }
    }
}

/// A measured rise/fall delay & output-slew point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArcSample {
    /// 50–50 arc delay, ps.
    pub delay: f64,
    /// Output 10–90 transition (full-swing equivalent), ps.
    pub out_slew: f64,
}

fn build_cell(kind: CellKind, cond: &CharConditions, ckt: &mut Circuit) -> (NodeId, NodeId) {
    let vdd = ckt.rail("vdd", cond.vdd);
    let input = ckt.node("in");
    let out = ckt.node("out");
    match kind {
        CellKind::Inv => inverter(ckt, vdd, input, out, cond.vt, cond.strength),
        CellKind::Nand2 => {
            let b = ckt.rail("b", cond.vdd);
            nand2(ckt, vdd, input, b, out, cond.vt, cond.strength);
        }
    }
    (input, out)
}

/// Measures one (slew, load) point for the given input edge.
///
/// # Errors
///
/// Propagates simulator failures; errors if the output never switches.
pub fn measure_arc(
    kind: CellKind,
    cond: &CharConditions,
    input_slew: f64,
    load: Ff,
    in_edge: Edge,
) -> Result<ArcSample> {
    arc_bench(kind, cond, input_slew, load, in_edge)
        .run(&Technology::planar_28nm())?
        .0
        .ok_or_else(|| Error::internal("arc did not switch, or its output slew is unmeasurable"))
}

/// The testbench of [`measure_arc`]: the cell driving `load` from a ramp
/// at 80 ps, measured over a 500 ps window.
pub(crate) fn arc_bench(
    kind: CellKind,
    cond: &CharConditions,
    input_slew: f64,
    load: Ff,
    in_edge: Edge,
) -> Testbench<impl Fn(&TranResult) -> Option<ArcSample>> {
    let mut ckt = Circuit::new();
    let (input, out) = build_cell(kind, cond, &mut ckt);
    ckt.cap_to_ground(out, load);

    let vdd = cond.vdd.value();
    let (v0, v1, out_edge) = match in_edge {
        Edge::Rise => (Volt::ZERO, cond.vdd, Edge::Fall),
        _ => (cond.vdd, Volt::ZERO, Edge::Rise),
    };
    ckt.source(input, Pwl::ramp(80.0, input_slew, v0, v1));
    let [slew_from, slew_to] = slew_thresholds(out_edge, vdd).expect("a rise or a fall");
    Testbench {
        circuit: ckt,
        opts: TranOptions {
            t_stop: 500.0,
            dt: 0.25,
            temp: cond.temp,
            ..Default::default()
        },
        reads: vec![
            (input, 0.5 * vdd, in_edge),
            (out, 0.5 * vdd, out_edge),
            (out, slew_from, out_edge),
            (out, slew_to, out_edge),
        ],
        measure: move |res: &TranResult| {
            let w_in = res.waveform(input);
            let w_out = res.waveform(out);
            Some(ArcSample {
                delay: delay_between(&w_in, in_edge, &w_out, out_edge, vdd, 0.0)?.value(),
                out_slew: slew_10_90(&w_out, out_edge, vdd, 0.0)?.value(),
            })
        },
    }
}

/// A characterized NLDM table pair (delay and output slew) for one arc
/// direction.
#[derive(Clone, Debug)]
pub struct CharTable {
    /// Arc delay table: rows = input slew (ps), cols = load (fF).
    pub delay: Lut2,
    /// Output slew table on the same axes.
    pub out_slew: Lut2,
}

/// Characterizes a full (slew × load) grid for the given input edge.
///
/// # Errors
///
/// Propagates simulator failures or invalid axes.
pub fn characterize(
    kind: CellKind,
    cond: &CharConditions,
    slews: &[f64],
    loads: &[f64],
    in_edge: Edge,
) -> Result<CharTable> {
    let mut delay_grid = Vec::with_capacity(slews.len());
    let mut slew_grid = Vec::with_capacity(slews.len());
    for &s in slews {
        let mut drow = Vec::with_capacity(loads.len());
        let mut srow = Vec::with_capacity(loads.len());
        for &l in loads {
            let sample = measure_arc(kind, cond, s, Ff::new(l), in_edge)?;
            drow.push(sample.delay);
            srow.push(sample.out_slew);
        }
        delay_grid.push(drow);
        slew_grid.push(srow);
    }
    Ok(CharTable {
        delay: Lut2::new(slews.to_vec(), loads.to_vec(), delay_grid)?,
        out_slew: Lut2::new(slews.to_vec(), loads.to_vec(), slew_grid)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_monotone_in_load() {
        let cond = CharConditions::nominal_28nm();
        let light = measure_arc(CellKind::Inv, &cond, 20.0, Ff::new(1.0), Edge::Rise).unwrap();
        let heavy = measure_arc(CellKind::Inv, &cond, 20.0, Ff::new(8.0), Edge::Rise).unwrap();
        assert!(
            heavy.delay > light.delay,
            "{} !> {}",
            heavy.delay,
            light.delay
        );
        assert!(heavy.out_slew > light.out_slew);
    }

    #[test]
    fn delay_grows_with_input_slew() {
        let cond = CharConditions::nominal_28nm();
        let fast = measure_arc(CellKind::Inv, &cond, 10.0, Ff::new(4.0), Edge::Rise).unwrap();
        let slow = measure_arc(CellKind::Inv, &cond, 60.0, Ff::new(4.0), Edge::Rise).unwrap();
        assert!(slow.delay > fast.delay);
    }

    #[test]
    fn stronger_cell_is_faster() {
        let mut cond = CharConditions::nominal_28nm();
        let weak = measure_arc(CellKind::Inv, &cond, 20.0, Ff::new(6.0), Edge::Rise).unwrap();
        cond.strength = 2.0;
        let strong = measure_arc(CellKind::Inv, &cond, 20.0, Ff::new(6.0), Edge::Rise).unwrap();
        assert!(strong.delay < weak.delay);
    }

    #[test]
    fn characterized_grid_interpolates_sanely() {
        let cond = CharConditions::nominal_28nm();
        let tbl =
            characterize(CellKind::Inv, &cond, &[10.0, 40.0], &[1.0, 6.0], Edge::Rise).unwrap();
        let mid = tbl.delay.eval(25.0, 3.5);
        let lo = tbl.delay.eval(10.0, 1.0);
        let hi = tbl.delay.eval(40.0, 6.0);
        assert!(lo < mid && mid < hi, "{lo} < {mid} < {hi}");
    }

    #[test]
    fn nand2_arc_measures() {
        let cond = CharConditions::nominal_28nm();
        let s = measure_arc(CellKind::Nand2, &cond, 20.0, Ff::new(3.0), Edge::Rise).unwrap();
        assert!(s.delay > 0.0 && s.delay < 150.0);
    }
}
