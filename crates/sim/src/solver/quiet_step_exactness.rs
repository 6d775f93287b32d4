//! The quiet-step rule against a reference loop that solves every step.
//!
//! [`reference`] is `integrate`'s settle and window with
//! [`System::step`] called on every step, no step skipped. For each
//! testbench, [`transient`] must give the reference's [`TranResult`] bit
//! for bit: every sample time and every node's every sample. Each group
//! must also skip at least one step at each temperature, so the
//! comparison is not vacuous.
//!
//! Covered, at −40, 25 and 125 °C:
//! * [`c2q_at`](crate::ff_char::c2q_at)'s testbench over a setup × hold
//!   grid whose points capture, push c2q out past 10%, fail, and drive D
//!   with a runt pulse (each kind required at every temperature), and its
//!   nominal point again at half the timestep;
//! * [`measure_arc`](crate::char_cell::measure_arc)'s testbench for INV
//!   and NAND2, both edges, at the corners of the benchmark's slew ×
//!   load axes, over its whole window;
//! * the Fig 4 MIS arcs in both directions: SIS and three IN1 offsets.

use tc_core::units::{Ff, Ps, Volt};

use super::*;
use crate::char_cell::{arc_bench, CellKind, CharConditions};
use crate::ff_char::{c2q_bench, c2q_of, FfBench};
use crate::mis::{self, InputDir, MisStudy};

const TEMPS: [f64; 3] = [-40.0, 25.0, 125.0];

/// `integrate` with every step solved: the same starting guess, the
/// whole settle, then every window step.
fn reference(sys: &System, n: usize, opts: &TranOptions) -> TranResult {
    let mut ws = Workspace::new(sys.free.len());
    let mut v = vec![0.0; n];
    sys.apply_sources(-opts.settle, &mut v);
    let vmax = sys
        .sources
        .iter()
        .map(|(_, w)| w.at(-opts.settle))
        .fold(0.0f64, f64::max);
    for &node in &sys.free {
        v[node] = 0.5 * vmax;
    }
    let settle_dt = (opts.dt * 4.0).max(1.0);
    let mut v_prev = v.clone();
    let mut t = -opts.settle;
    while t < 0.0 {
        let t_next = (t + settle_dt).min(0.0);
        sys.step(&mut ws, t_next, t_next - t, &v_prev, &mut v)
            .expect("reference settle converges");
        t = t_next;
        v_prev.copy_from_slice(&v);
    }
    let mut res = TranResult {
        times: Vec::new(),
        volts: vec![Vec::new(); n],
    };
    res.record(0.0, &v);
    let mut t = 0.0;
    for _ in 0..(opts.t_stop / opts.dt).ceil() as usize {
        let t_next = t + opts.dt;
        sys.step(&mut ws, t_next, opts.dt, &v_prev, &mut v)
            .expect("reference step converges");
        t = t_next;
        res.record(t, &v);
        v_prev.copy_from_slice(&v);
    }
    res
}

/// The sample times, then each node's samples, as bits: one row each.
fn rows(res: &TranResult) -> Vec<Vec<u64>> {
    std::iter::once(&res.times)
        .chain(&res.volts)
        .map(|w| w.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Checks one testbench against the reference and returns its result and
/// how many of its steps were quiet.
fn quiet_equals_reference(circuit: &Circuit, opts: &TranOptions, case: &str) -> (TranResult, u64) {
    let tech = Technology::planar_28nm();
    let sys = System::build(circuit, &tech, opts).expect("testbench builds");
    let n = circuit.node_count();
    let want = rows(&reference(&sys, n, opts));
    let got = transient(circuit, &tech, opts).expect("transient converges");
    let moved = |res: &TranResult| rows(res).iter().zip(&want).position(|(a, b)| a != b);
    // Row 0 is the sample times, row k + 1 node k.
    assert_eq!(
        moved(&got),
        None,
        "{case}: a row differs from the reference"
    );
    // The same loop again with its own tally, for the quiet-step count.
    let mut effort = Effort::default();
    let counted =
        integrate(&sys, n, opts, &[], &mut |_| false, &mut effort).expect("transient converges");
    assert_eq!(moved(&counted), None, "{case}: counted run");
    (got, effort.quiet)
}

#[test]
fn flop_testbenches_match_the_reference() {
    let (setups, holds) = ([150.0, 10.0, 0.0, -30.0], [300.0, 5.0, 0.0, -30.0]);
    for temp in TEMPS {
        let bench = FfBench {
            temp: Celsius::new(temp),
            ..FfBench::paper_default()
        };
        let c2q = |setup: f64, hold: f64| {
            let (ckt, opts, ff) = c2q_bench(&bench, Ps::new(setup), Ps::new(hold));
            let case = format!("c2q_at setup {setup} ps hold {hold} ps at {temp} °C");
            let (res, quiet) = quiet_equals_reference(&ckt, &opts, &case);
            (c2q_of(&res, &ff, bench.vdd).expect("clock edge"), quiet)
        };
        let (nominal, mut quiet) = c2q(200.0, 300.0);
        // The nominal point again at half the timestep: at −40 °C its
        // settle comes to rest, at 1 ps steps, on a point that 0.25 ps
        // steps move, so a rule that skips across a `dt` change fails.
        let (ckt, mut opts, _) = c2q_bench(&bench, Ps::new(200.0), Ps::new(300.0));
        opts.dt = 0.25;
        let case = format!("c2q_at nominal at 0.25 ps steps, {temp} °C");
        quiet += quiet_equals_reference(&ckt, &opts, &case).1;
        let limit = nominal.expect("nominal capture") * 1.10;
        let (mut capture, mut pushout, mut fail, mut runt) = (0, 0, 0, 0);
        for setup in setups {
            for hold in holds {
                let (d, q) = c2q(setup, hold);
                quiet += q;
                match d {
                    Some(d) if d <= limit => capture += 1,
                    Some(_) => pushout += 1,
                    None => fail += 1,
                }
                if setup + hold > 0.0 && setup + hold < bench.slew {
                    runt += 1;
                }
            }
        }
        let kinds = [capture, pushout, fail, runt];
        assert!(
            kinds.iter().all(|&k| k > 0),
            "{temp} °C: (capture, pushout, fail, runt) = {kinds:?}"
        );
        assert!(quiet > 0, "flop at {temp} °C: no quiet step");
    }
}

#[test]
fn arc_testbenches_match_the_reference() {
    let (slews, loads) = ([8.0, 75.0], [0.6, 9.0]);
    for temp in TEMPS {
        let cond = CharConditions {
            temp: Celsius::new(temp),
            ..CharConditions::nominal_28nm()
        };
        let mut quiet = 0;
        for kind in [CellKind::Inv, CellKind::Nand2] {
            for edge in [Edge::Rise, Edge::Fall] {
                for slew in slews {
                    for load in loads {
                        let bench = arc_bench(kind, &cond, slew, Ff::new(load), edge);
                        let case = format!("{kind:?} {edge:?} {slew} ps {load} fF at {temp} °C");
                        quiet += quiet_equals_reference(&bench.circuit, &bench.opts, &case).1;
                    }
                }
            }
        }
        assert!(quiet > 0, "arcs at {temp} °C: no quiet step");
    }
}

#[test]
fn mis_testbenches_match_the_reference() {
    for temp in TEMPS {
        let study = MisStudy {
            temp: Celsius::new(temp),
            ..MisStudy::paper_default(Volt::new(0.9))
        };
        let mut quiet = 0;
        for dir in [InputDir::Falling, InputDir::Rising] {
            for offset in [None, Some(-40.0), Some(0.0), Some(15.0)] {
                let bench = mis::arc_bench(&study, dir, offset);
                let case = format!("MIS {dir:?}, IN1 offset {offset:?} at {temp} °C");
                quiet += quiet_equals_reference(&bench.circuit, &bench.opts, &case).1;
            }
        }
        assert!(quiet > 0, "MIS at {temp} °C: no quiet step");
    }
}
