//! Multi-input switching (MIS) vs single-input switching (SIS) study —
//! the paper's **Figure 4** (§2.1).
//!
//! Setup, following the paper: a NAND2 cell drives a fanout-of-3 inverter
//! load. A ramp transition is applied at input `IN` (the measured arc).
//! For **SIS**, the other input `IN1` is tied to VDD. For **MIS**, `IN1`
//! ramps in the *same direction* with the same slew, and its arrival
//! offset relative to `IN` is swept; the extreme arc delay over the sweep
//! is the MIS delay.
//!
//! Physics reproduced:
//! * inputs **falling** → NAND output **rises** through the two *parallel*
//!   PMOS devices; with MIS both conduct, roughly doubling drive, so the
//!   MIS rise arc can be **< ~50–70% of SIS** — critical for hold signoff;
//! * inputs **rising** → output **falls** through the *series* NMOS stack;
//!   with SIS the `IN1` transistor is already fully on, while with MIS it
//!   is still turning on, so the MIS fall arc is **> ~10% slower**.

use tc_core::error::{Error, Result};
use tc_core::units::{Celsius, Ff, Ps, Volt};
use tc_device::{Technology, VtClass};

use crate::cells::{inverter, nand2};
use crate::circuit::{Circuit, Pwl};
use crate::measure::Edge;
use crate::solver::{Testbench, TranOptions, TranResult};

/// Direction of the *input* transition being swept (the paper plots both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputDir {
    /// Inputs rise; output falls through the series NMOS stack.
    Rising,
    /// Inputs fall; output rises through the parallel PMOS devices.
    Falling,
}

/// Parameters of the Fig 4 experiment.
#[derive(Clone, Debug)]
pub struct MisStudy {
    /// Supply voltage.
    pub vdd: Volt,
    /// Die temperature.
    pub temp: Celsius,
    /// Input transition time (0–100%), ps.
    pub input_slew: f64,
    /// IN1 arrival offsets (ps, relative to IN) swept for the MIS delay.
    pub offsets: Vec<f64>,
}

impl MisStudy {
    /// The paper's configuration: nominal VDD, ±40 ps offset sweep.
    pub fn paper_default(vdd: Volt) -> Self {
        MisStudy {
            vdd,
            temp: Celsius::new(25.0),
            input_slew: 30.0,
            offsets: (-8..=8).map(|i| i as f64 * 5.0).collect(),
        }
    }
}

/// Outcome of one MIS/SIS comparison.
#[derive(Clone, Debug)]
pub struct MisResult {
    /// Input direction of the measured arc.
    pub dir: InputDir,
    /// Supply at which it was measured.
    pub vdd: Volt,
    /// SIS arc delay (IN1 at VDD).
    pub sis_delay: Ps,
    /// Extreme MIS arc delay over the offset sweep (min for a rising
    /// output where MIS speeds the arc up, max for a falling output where
    /// it slows it down).
    pub mis_delay: Ps,
    /// Offset (ps) at which the extreme was found.
    pub worst_offset: f64,
    /// Arc delay at every swept offset, parallel to the study's `offsets`.
    pub sweep: Vec<Ps>,
}

impl MisResult {
    /// MIS delay as a fraction of SIS delay.
    pub fn ratio(&self) -> f64 {
        self.mis_delay / self.sis_delay
    }
}

/// The testbench of one arc of the study: IN ramps at 100 ps; IN1 is
/// parked at VDD (`offset` = `None`, SIS) or ramps `offset` ps after IN
/// (MIS). Measured over a 350 ps window.
pub(crate) fn arc_bench(
    study: &MisStudy,
    dir: InputDir,
    offset: Option<f64>,
) -> Testbench<impl Fn(&TranResult) -> Option<Ps>> {
    let vdd_v = study.vdd;
    let mut ckt = Circuit::new();
    let vdd = ckt.rail("vdd", vdd_v);
    let input = ckt.node("in");
    let in1 = ckt.node("in1");
    let out = ckt.node("out");
    nand2(&mut ckt, vdd, input, in1, out, VtClass::Svt, 1.0);
    // FO3 load: three unit inverters plus their wiring.
    for i in 0..3 {
        let sink = ckt.node(format!("fo{i}"));
        inverter(&mut ckt, vdd, out, sink, VtClass::Svt, 1.0);
        ckt.cap_to_ground(sink, Ff::new(0.5));
    }

    let t_edge = 100.0;
    let (v0, v1, in_edge, out_edge) = match dir {
        InputDir::Rising => (Volt::ZERO, vdd_v, Edge::Rise, Edge::Fall),
        InputDir::Falling => (vdd_v, Volt::ZERO, Edge::Fall, Edge::Rise),
    };
    ckt.source(input, Pwl::ramp(t_edge, study.input_slew, v0, v1));
    let in1_wave = match offset {
        None => Pwl::constant(vdd_v),
        Some(off) => Pwl::ramp(t_edge + off, study.input_slew, v0, v1),
    };
    ckt.source(in1, in1_wave);

    let half = 0.5 * vdd_v.value();
    let mut reads = vec![(input, half, in_edge), (out, half, out_edge)];
    if offset.is_some() {
        reads.push((in1, half, in_edge));
    }
    Testbench {
        circuit: ckt,
        opts: TranOptions {
            t_stop: 350.0,
            dt: 0.25,
            temp: study.temp,
            ..Default::default()
        },
        reads,
        measure: move |res: &TranResult| {
            // The arc is referenced to the input that *causes* the output
            // edge: with rising inputs the NAND output falls on the LAST
            // input (series stack, AND), with falling inputs it rises on
            // the FIRST (parallel pull-up, OR). This is how MIS
            // characterization isolates the multi-input effect from
            // trivial arrival-time bookkeeping.
            let t_in = res.waveform(input).crossing(half, in_edge, 0.0)?;
            let t_cause = match offset {
                None => t_in,
                Some(_) => {
                    let t_in1 = res.waveform(in1).crossing(half, in_edge, 0.0)?;
                    match dir {
                        InputDir::Rising => t_in.max(t_in1),
                        InputDir::Falling => t_in.min(t_in1),
                    }
                }
            };
            let t_out = res.waveform(out).crossing(half, out_edge, 0.0)?;
            Some(Ps::new(t_out - t_cause))
        },
    }
}

/// Runs the MIS/SIS comparison for one input direction.
///
/// # Errors
///
/// Propagates simulator convergence failures and missing transitions.
pub fn run_mis_study(tech: &Technology, study: &MisStudy, dir: InputDir) -> Result<MisResult> {
    let arc = |offset| {
        arc_bench(study, dir, offset)
            .run(tech)?
            .0
            .ok_or_else(|| Error::internal("nand2 arc produced no complete transition"))
    };
    // SIS: IN1 parked at VDD (NAND2 sensitized).
    let sis_delay = arc(None)?;
    let sweep = study
        .offsets
        .iter()
        .map(|&off| arc(Some(off)))
        .collect::<Result<Vec<_>>>()?;

    // The signoff-relevant extreme: fastest arc for the rising output
    // (hold risk), slowest for the falling output (setup risk).
    let (idx, &mis_delay) = match dir {
        InputDir::Falling => sweep
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            .expect("non-empty sweep"),
        InputDir::Rising => sweep
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            .expect("non-empty sweep"),
    };
    Ok(MisResult {
        dir,
        vdd: study.vdd,
        sis_delay,
        mis_delay,
        worst_offset: study.offsets[idx],
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mis_speeds_up_rising_output() {
        // Inputs falling → parallel PMOS → MIS delay well below SIS.
        let tech = Technology::planar_28nm();
        let mut study = MisStudy::paper_default(Volt::new(0.9));
        study.offsets = vec![-10.0, 0.0, 10.0];
        let r = run_mis_study(&tech, &study, InputDir::Falling).unwrap();
        assert!(
            r.ratio() < 0.85,
            "MIS rise arc should be much faster: ratio {}",
            r.ratio()
        );
    }

    #[test]
    fn mis_slows_down_falling_output() {
        // Inputs rising → series NMOS stack → MIS delay above SIS.
        let tech = Technology::planar_28nm();
        let mut study = MisStudy::paper_default(Volt::new(0.9));
        study.offsets = vec![-10.0, 0.0, 10.0];
        let r = run_mis_study(&tech, &study, InputDir::Rising).unwrap();
        assert!(
            r.ratio() > 1.05,
            "MIS fall arc should be slower: ratio {}",
            r.ratio()
        );
    }

    #[test]
    fn far_offset_approaches_sis() {
        // With IN1 arriving far ahead, the MIS sweep endpoint approaches SIS.
        let tech = Technology::planar_28nm();
        let study = MisStudy {
            vdd: Volt::new(0.9),
            temp: Celsius::new(25.0),
            input_slew: 30.0,
            offsets: vec![-80.0],
        };
        let r = run_mis_study(&tech, &study, InputDir::Rising).unwrap();
        let early = r.sweep[0];
        assert!(
            (early / r.sis_delay - 1.0).abs() < 0.15,
            "IN1 80 ps early ≈ SIS: {} vs {}",
            early,
            r.sis_delay
        );
    }
}
