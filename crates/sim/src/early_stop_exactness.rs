//! Every early-stopped measurement against its full-window twin: the same
//! testbench through [`transient`] plus the same measurement.
//!
//! For each testbench the early run must
//! * give the twin's value bit for bit,
//! * record exactly the twin's first samples, and
//! * stop at the first sample that decides the measurement: the shortest
//!   prefix of the twin's result on which the measurement is `Some`.
//!   Stopping later (a crossing missing from the reads) or earlier fails.
//!
//! Covered: [`measure_arc`](crate::char_cell::measure_arc) for INV and
//! NAND2, both edges, on a slew × load grid whose corners are the
//! slowest-slew × lightest-load and fastest-slew × heaviest-load points
//! of the benchmark's axes, at −40, 25 and 125 °C;
//! [`run_mis_study`] in both directions over the paper's offset sweep;
//! and [`inverter_chain_delay`](crate::cells::inverter_chain_delay) at
//! three temperatures.

use tc_core::units::{Celsius, Ff, Volt};
use tc_device::{Technology, VtClass};

use crate::cells::chain_bench;
use crate::char_cell::{arc_bench, CellKind, CharConditions};
use crate::measure::Edge;
use crate::mis::{self, run_mis_study, InputDir, MisStudy};
use crate::solver::{transient, Testbench, TranResult};

const TEMPS: [f64; 3] = [-40.0, 25.0, 125.0];

/// Checks one testbench (see the module notes) and returns its value.
fn early_equals_full<T: Copy + std::fmt::Debug>(
    tech: &Technology,
    bench: &Testbench<impl Fn(&TranResult) -> Option<T>>,
    bits: impl Fn(T) -> Vec<u64>,
    case: &str,
) -> T {
    let (early, prefix) = bench.run(tech).expect("early run converges");
    let full = transient(&bench.circuit, tech, &bench.opts).expect("full run converges");
    let want = (bench.measure)(&full).unwrap_or_else(|| panic!("{case}: twin undecided"));
    let got = early.unwrap_or_else(|| panic!("{case}: early run undecided"));
    assert_eq!(bits(got), bits(want), "{case}: {got:?} vs {want:?}");

    let len = prefix.times().len();
    let same = |a: &TranResult, b: &TranResult| {
        let samples = |r: &TranResult| {
            let times = r.times().iter().map(|t| t.to_bits());
            let volts = (0..bench.circuit.node_count())
                .flat_map(|n| r.waveform(crate::NodeId(n)).values().to_vec())
                .map(f64::to_bits);
            times.chain(volts).collect::<Vec<_>>()
        };
        samples(a) == samples(b)
    };
    assert!(same(&prefix, &full.prefix(len)), "{case}: prefix moved");

    // The measurement on a prefix is `None` up to some length and the
    // full value from there on, so the deciding length bisects.
    let decided = |k: usize| (bench.measure)(&full.prefix(k)).is_some();
    let (mut lo, mut hi) = (1, full.times().len());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if decided(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    assert_eq!(len, hi, "{case}: stopped at sample {len}, decided at {hi}");
    assert!(
        len < full.times().len(),
        "{case}: the run used its whole window"
    );
    got
}

fn f64_bits(x: f64) -> Vec<u64> {
    vec![x.to_bits()]
}

#[test]
fn arcs_stop_early_with_full_window_values() {
    let tech = Technology::planar_28nm();
    // The benchmark's outermost axis points, before its seed jitter.
    let (slews, loads) = ([8.0, 75.0], [0.6, 9.0]);
    for kind in [CellKind::Inv, CellKind::Nand2] {
        for temp in TEMPS {
            let cond = CharConditions {
                temp: Celsius::new(temp),
                ..CharConditions::nominal_28nm()
            };
            for edge in [Edge::Rise, Edge::Fall] {
                for slew in slews {
                    for load in loads {
                        let bench = arc_bench(kind, &cond, slew, Ff::new(load), edge);
                        let case = format!("{kind:?} {edge:?} {slew} ps {load} fF at {temp} °C");
                        let bits = |s: crate::char_cell::ArcSample| {
                            vec![s.delay.to_bits(), s.out_slew.to_bits()]
                        };
                        early_equals_full(&tech, &bench, bits, &case);
                    }
                }
            }
        }
    }
}

#[test]
fn mis_study_stops_early_with_full_window_values() {
    let tech = Technology::planar_28nm();
    let study = MisStudy::paper_default(Volt::new(0.9));
    for dir in [InputDir::Falling, InputDir::Rising] {
        let r = run_mis_study(&tech, &study, dir).expect("study runs");
        let arcs = std::iter::once(None).chain(study.offsets.iter().map(|&o| Some(o)));
        let want: Vec<_> = arcs
            .map(|offset| {
                let bench = mis::arc_bench(&study, dir, offset);
                let case = format!("MIS {dir:?}, IN1 offset {offset:?}");
                early_equals_full(&tech, &bench, |d| f64_bits(d.value()), &case)
            })
            .collect();
        let got: Vec<_> = std::iter::once(r.sis_delay).chain(r.sweep).collect();
        let bits = |v: &[tc_core::units::Ps]| v.iter().map(|d| d.value().to_bits()).collect();
        let (got, want): (Vec<u64>, Vec<u64>) = (bits(&got), bits(&want));
        assert_eq!(got, want, "{dir:?}: study values differ from their arcs");
    }
}

#[test]
fn inverter_chain_stops_early_with_full_window_values() {
    let tech = Technology::planar_28nm();
    for temp in TEMPS {
        let bench = chain_bench(VtClass::Svt, Volt::new(0.9), Celsius::new(temp));
        let case = format!("inverter chain at {temp} °C");
        early_equals_full(&tech, &bench, |d| f64_bits(d.value()), &case);
    }
}
