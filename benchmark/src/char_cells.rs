//! `char_cells` — transistor-level characterization: 7×7 NLDM grids for
//! an inverter and a NAND2 (rise and fall), the flop's setup/hold/c2q
//! triple by bisection, and the Fig 4 MIS study in both directions.
//! tc-sim's dense-Jacobian Newton loop does all the work and tc-sta
//! none: the only place a sparse solver can show, and the control that
//! must not move for any STA or ingest change.

use tc_core::rng::Rng;
use tc_core::units::{Ff, Volt};
use tc_device::{Technology, VtClass};
use tc_obs::JsonValue;
use tc_sim::cells::inverter;
use tc_sim::char_cell::{characterize, CellKind, CharConditions, CharTable};
use tc_sim::ff_char::{characterize_ff, FfBench};
use tc_sim::measure::Edge;
use tc_sim::mis::{run_mis_study, InputDir, MisStudy};
use tc_sim::solver::transient;
use tc_sim::{Circuit, Pwl, TranOptions};

use crate::harness::{
    finish, first_report_is_out, layer, prep, run_passes, traced, Checks, Config, Layers,
};
use crate::json::hex;

/// NLDM axes before the seed's jitter: input slew, ps, and load, fF.
const SLEWS_PS: [f64; 7] = [8.0, 14.0, 22.0, 32.0, 44.0, 58.0, 75.0];
const LOADS_FF: [f64; 7] = [0.6, 1.2, 2.0, 3.2, 4.8, 6.8, 9.0];
/// Largest relative move the seed applies to any input value: enough to
/// change every operating point, small enough that every arc still
/// switches inside its testbench window.
const JITTER: f64 = 0.05;

/// The seeded operating points of one run.
struct Inputs {
    slews: Vec<f64>,
    loads: Vec<f64>,
    ff: FfBench,
    mis: MisStudy,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::seed_from(seed);
    let mut jitter = |x: f64| x * rng.uniform_in(1.0 - JITTER, 1.0 + JITTER);
    // Each point moves by less than half the gap to its neighbour, so
    // the axes stay strictly increasing.
    let slews = SLEWS_PS.iter().map(|&s| jitter(s)).collect();
    let loads = LOADS_FF.iter().map(|&l| jitter(l)).collect();
    let mut ff = FfBench::paper_default();
    ff.slew = jitter(ff.slew);
    ff.load = Ff::new(jitter(ff.load.value()));
    let mut mis = MisStudy::paper_default(Volt::new(0.9));
    mis.input_slew = jitter(mis.input_slew);
    Inputs {
        slews,
        loads,
        ff,
        mis,
    }
}

/// FNV-1a accumulator over `f64` bit patterns.
struct Checksum(u64);

impl Checksum {
    fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every grid value of both tables, row-major.
    fn eat_table(&mut self, t: &CharTable, inp: &Inputs) {
        for &s in &inp.slews {
            for &l in &inp.loads {
                self.eat(t.delay.eval(s, l));
                self.eat(t.out_slew.eval(s, l));
            }
        }
    }
}

/// Delay grows with load along every row, and every entry is a positive
/// finite time.
fn table_is_sane(t: &CharTable, inp: &Inputs) -> bool {
    inp.slews.iter().all(|&s| {
        let row: Vec<f64> = inp.loads.iter().map(|&l| t.delay.eval(s, l)).collect();
        row.iter().all(|d| d.is_finite() && *d > 0.0) && row.windows(2).all(|w| w[0] < w[1])
    })
}

pub fn run(cfg: &Config) -> i32 {
    let mut checks = Checks::default();
    let tech = Technology::planar_28nm();
    let cond = CharConditions::nominal_28nm();

    let (prep_s, inp) = prep(cfg, || inputs(cfg.seed));

    let mut sums: Vec<u64> = Vec::new();
    let mut sane = true;
    let times = run_passes(cfg, 3, |t0| {
        let mut sum = Checksum::new();
        let mut first_report_s = 0.0;
        for (kind, span) in [
            (CellKind::Inv, "bench.sim.characterize_inv"),
            (CellKind::Nand2, "bench.sim.characterize_nand2"),
        ] {
            layer(span, || {
                for edge in [Edge::Rise, Edge::Fall] {
                    let table = characterize(kind, &cond, &inp.slews, &inp.loads, edge)
                        .expect("every arc switches");
                    if first_report_s == 0.0 {
                        first_report_s = t0.elapsed().as_secs_f64();
                        first_report_is_out();
                    }
                    sane &= table_is_sane(&table, &inp);
                    sum.eat_table(&table, &inp);
                }
            });
        }
        let ff = layer("bench.sim.characterize_ff", || {
            characterize_ff(&inp.ff, &tech, 1.10).expect("flop characterizes")
        });
        for x in [ff.setup.value(), ff.hold.value(), ff.c2q_nominal.value()] {
            sum.eat(x);
        }
        layer("bench.sim.mis_study", || {
            for dir in [InputDir::Falling, InputDir::Rising] {
                let r = run_mis_study(&tech, &inp.mis, dir).expect("MIS study runs");
                sum.eat(r.sis_delay.value());
                sum.eat(r.mis_delay.value());
            }
        });
        sums.push(sum.0);
        first_report_s
    });

    checks.check(
        "every pass repeats the first exactly",
        sums.iter().all(|s| *s == sums[0]),
    );
    checks.check("NLDM delays are positive and grow with load", sane);
    let exact = JsonValue::obj([("nldm_checksum", hex(sums[0]))]);
    checks.check_expected(cfg, &exact);

    let layers = cfg.traced.then(|| {
        let steps = traced(|| {
            // One inverter transient, for the solver's cost per timestep.
            let mut ckt = Circuit::new();
            let vdd = ckt.rail("vdd", cond.vdd);
            let (input, out) = (ckt.node("in"), ckt.node("out"));
            inverter(&mut ckt, vdd, input, out, VtClass::Svt, 1.0);
            ckt.cap_to_ground(out, Ff::new(inp.loads[3]));
            ckt.source(input, Pwl::ramp(80.0, inp.slews[3], Volt::ZERO, cond.vdd));
            let opts = TranOptions {
                t_stop: 500.0,
                dt: 0.25,
                temp: cond.temp,
                ..Default::default()
            };
            layer("bench.sim.transient", || {
                transient(&ckt, &tech, &opts).expect("inverter transient converges")
            })
            .times()
            .len()
        });
        let mut l = Layers::reduce(cfg, &mut checks, &times, 0);
        l.set(
            "sim.us_per_timestep",
            l.span_fastest_s("bench.sim.transient") * 1e6 / steps as f64,
        );
        l
    });

    finish(cfg, checks, prep_s, times, layers, exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_axes_stay_strictly_increasing_and_repeat() {
        for seed in 0..200 {
            let a = inputs(seed);
            assert!(a.slews.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            assert!(a.loads.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            let b = inputs(seed);
            assert_eq!((a.slews, a.loads), (b.slews, b.loads));
        }
        assert_ne!(inputs(1).slews, inputs(2).slews);
    }
}
