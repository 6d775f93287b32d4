//! Flip-flop timing characterization — the paper's **Figure 10** (§3.4).
//!
//! Conventional signoff treats a flip-flop's setup time, hold time and
//! clock-to-q delay as three *fixed* numbers, characterized with a
//! pushout criterion (c2q allowed to degrade by 10%). In reality the
//! three quantities trade off against each other: squeezing the data
//! arrival against the clock edge pushes c2q out smoothly. This module
//! measures those interdependent surfaces from the transistor-level DFF
//! of [`crate::cells::dff`]:
//!
//! * [`c2q_vs_setup`] — c2q delay as the data-to-clock gap shrinks;
//! * [`c2q_vs_hold`] — c2q delay as the data pulse ends sooner after the
//!   clock edge;
//! * [`setup_hold_contour`] — for each setup value, the minimum hold that
//!   still meets the c2q pushout limit (the paper's third panel);
//! * [`characterize_ff`] — the fixed (setup, hold, c2q) triple a
//!   conventional Liberty model would record at a given pushout.

use tc_core::error::{Error, Result};
use tc_core::units::{Celsius, Ff, Ps, Volt};
use tc_device::{Technology, VtClass};

use crate::cells::{dff, DffNodes};
use crate::circuit::{Circuit, Pwl};
use crate::measure::Edge;
use crate::solver::{transient, TranOptions, TranResult};

/// Testbench configuration for FF characterization.
#[derive(Clone, Debug)]
pub struct FfBench {
    /// Supply voltage.
    pub vdd: Volt,
    /// Die temperature.
    pub temp: Celsius,
    /// Input transition time, ps.
    pub slew: f64,
    /// Output load on Q, fF.
    pub load: Ff,
    /// Threshold flavour of the flop's devices.
    pub vt: VtClass,
}

impl FfBench {
    /// A 65 nm-flavoured default matching the paper's DFQDX study
    /// (nominal planar supply, modest load).
    pub fn paper_default() -> Self {
        FfBench {
            vdd: Volt::new(0.9),
            temp: Celsius::new(25.0),
            slew: 20.0,
            load: Ff::new(2.0),
            vt: VtClass::Svt,
        }
    }
}

/// Clock edge time inside the testbench window (ps).
const T_CK: f64 = 300.0;
const T_STOP: f64 = 800.0;

/// Simulates one (setup, hold) point and returns the c2q delay, or `None`
/// if the flop failed to capture (Q never rose, or lost the value).
///
/// # Errors
///
/// Propagates simulator convergence failures.
pub fn c2q_at(bench: &FfBench, tech: &Technology, setup: Ps, hold: Ps) -> Result<Option<Ps>> {
    let (ckt, opts, ff) = c2q_bench(bench, setup, hold);
    c2q_of(&transient(&ckt, tech, &opts)?, &ff, bench.vdd)
}

/// The [`c2q_at`] testbench: the flop with its Q load and the D and
/// clock sources of one (setup, hold) point, the options and the flop's
/// nodes.
pub(crate) fn c2q_bench(bench: &FfBench, setup: Ps, hold: Ps) -> (Circuit, TranOptions, DffNodes) {
    let mut ckt = Circuit::new();
    let vdd = ckt.rail("vdd", bench.vdd);
    let ff = dff(&mut ckt, vdd, bench.vt);
    ckt.cap_to_ground(ff.q, bench.load);

    // D rises `setup` before the clock edge and falls `hold` after it;
    // overlapping edges degrade into a runt triangle (see [`Pwl::pulse`]).
    let d_rise = T_CK - setup.value();
    let d_fall = T_CK + hold.value();
    ckt.source(
        ff.d,
        Pwl::pulse(d_rise, d_fall, bench.slew, Volt::ZERO, bench.vdd),
    );
    ckt.source(ff.ck, Pwl::ramp(T_CK, bench.slew, Volt::ZERO, bench.vdd));

    let opts = TranOptions {
        t_stop: T_STOP,
        dt: 0.5,
        temp: bench.temp,
        ..Default::default()
    };
    (ckt, opts, ff)
}

/// [`c2q_at`]'s measurement on its testbench's result.
pub(crate) fn c2q_of(res: &TranResult, ff: &DffNodes, vdd: Volt) -> Result<Option<Ps>> {
    let q = res.waveform(ff.q);
    let ck = res.waveform(ff.ck);
    let vdd_v = vdd.value();

    let t_ck50 = ck
        .crossing(0.5 * vdd_v, Edge::Rise, 0.0)
        .ok_or_else(|| Error::internal("clock edge missing"))?;
    let t_q = match q.crossing(0.5 * vdd_v, Edge::Rise, t_ck50) {
        Some(t) => t,
        None => return Ok(None),
    };
    // Q must also *stay* captured (a metastable wiggle that collapses back
    // low is a failure).
    if q.last() < 0.8 * vdd_v {
        return Ok(None);
    }
    Ok(Some(Ps::new(t_q - t_ck50)))
}

/// One sampled point of a c2q tradeoff curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct C2qPoint {
    /// The swept constraint value (setup or hold), ps.
    pub constraint: Ps,
    /// Measured c2q delay; `None` = capture failure.
    pub c2q: Option<Ps>,
}

/// Sweeps c2q against setup time with the hold side held safe.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn c2q_vs_setup(bench: &FfBench, tech: &Technology, setups: &[f64]) -> Result<Vec<C2qPoint>> {
    setups
        .iter()
        .map(|&s| {
            Ok(C2qPoint {
                constraint: Ps::new(s),
                c2q: c2q_at(bench, tech, Ps::new(s), Ps::new(300.0))?,
            })
        })
        .collect()
}

/// Sweeps c2q against hold time with the setup side held safe.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn c2q_vs_hold(bench: &FfBench, tech: &Technology, holds: &[f64]) -> Result<Vec<C2qPoint>> {
    holds
        .iter()
        .map(|&h| {
            Ok(C2qPoint {
                constraint: Ps::new(h),
                c2q: c2q_at(bench, tech, Ps::new(150.0), Ps::new(h))?,
            })
        })
        .collect()
}

/// The conventional Liberty-style characterization triple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FfTiming {
    /// Minimum setup meeting the pushout criterion.
    pub setup: Ps,
    /// Minimum hold meeting the pushout criterion.
    pub hold: Ps,
    /// Nominal (unconstrained) c2q delay.
    pub c2q_nominal: Ps,
}

fn bisect_min_constraint(
    mut check: impl FnMut(f64) -> Result<bool>,
    mut lo: f64,
    mut hi: f64,
    iters: usize,
) -> Result<f64> {
    // `lo` fails, `hi` passes.
    if !check(hi)? {
        return Err(Error::convergence("constraint never passes in window"));
    }
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if check(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Characterizes the fixed (setup, hold, c2q) triple at the given pushout
/// factor (1.10 = the classic "10% pushout" the paper cites).
///
/// # Errors
///
/// Returns [`Error::Convergence`] if the flop cannot capture anywhere in
/// the search window, or propagates simulator failures.
pub fn characterize_ff(bench: &FfBench, tech: &Technology, pushout: f64) -> Result<FfTiming> {
    let c2q_nominal = c2q_at(bench, tech, Ps::new(200.0), Ps::new(300.0))?
        .ok_or_else(|| Error::convergence("flop fails even with generous margins"))?;
    let limit = c2q_nominal * pushout;

    let setup = bisect_min_constraint(
        |s| Ok(c2q_at(bench, tech, Ps::new(s), Ps::new(300.0))?.is_some_and(|d| d <= limit)),
        -20.0,
        200.0,
        14,
    )?;
    let hold = bisect_min_constraint(
        |h| Ok(c2q_at(bench, tech, Ps::new(150.0), Ps::new(h))?.is_some_and(|d| d <= limit)),
        -20.0,
        300.0,
        14,
    )?;
    Ok(FfTiming {
        setup: Ps::new(setup),
        hold: Ps::new(hold),
        c2q_nominal,
    })
}

/// For each setup value, the minimum hold still meeting the pushout — the
/// interdependency contour of Fig 10's third panel. Returns
/// `(setup, min_hold)` pairs; setups at which no hold works are skipped.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn setup_hold_contour(
    bench: &FfBench,
    tech: &Technology,
    pushout: f64,
    setups: &[f64],
) -> Result<Vec<(Ps, Ps)>> {
    let c2q_nominal = c2q_at(bench, tech, Ps::new(200.0), Ps::new(300.0))?
        .ok_or_else(|| Error::convergence("flop fails even with generous margins"))?;
    let limit = c2q_nominal * pushout;
    let mut out = Vec::new();
    for &s in setups {
        let r = bisect_min_constraint(
            |h| Ok(c2q_at(bench, tech, Ps::new(s), Ps::new(h))?.is_some_and(|d| d <= limit)),
            -20.0,
            300.0,
            12,
        );
        if let Ok(h) = r {
            out.push((Ps::new(s), Ps::new(h)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> (FfBench, Technology) {
        (FfBench::paper_default(), Technology::planar_28nm())
    }

    #[test]
    fn generous_margins_capture_cleanly() {
        let (b, tech) = bench();
        let c2q = c2q_at(&b, &tech, Ps::new(150.0), Ps::new(300.0))
            .unwrap()
            .expect("capture");
        assert!(c2q.value() > 5.0 && c2q.value() < 200.0, "c2q {c2q}");
    }

    #[test]
    fn violated_setup_fails_or_pushes_out() {
        let (b, tech) = bench();
        let nominal = c2q_at(&b, &tech, Ps::new(150.0), Ps::new(300.0))
            .unwrap()
            .unwrap();
        // D arriving 30 ps *after* the clock edge must fail or push far out.
        match c2q_at(&b, &tech, Ps::new(-30.0), Ps::new(300.0)).unwrap() {
            None => {}
            Some(d) => assert!(d > nominal * 1.3, "late D: {d} vs nominal {nominal}"),
        }
    }

    #[test]
    fn c2q_rises_as_setup_shrinks() {
        let (b, tech) = bench();
        let pts = c2q_vs_setup(&b, &tech, &[150.0, 40.0, 15.0]).unwrap();
        let d150 = pts[0].c2q.expect("150 ps setup captures");
        // Find the last surviving point; its c2q must exceed the nominal.
        let worst = pts
            .iter()
            .rev()
            .find_map(|p| p.c2q)
            .expect("some point captures");
        assert!(
            worst >= d150,
            "c2q must not improve as setup shrinks: {worst} vs {d150}"
        );
    }

    #[test]
    fn characterization_triple_is_consistent() {
        let (b, tech) = bench();
        let t = characterize_ff(&b, &tech, 1.10).unwrap();
        assert!(t.c2q_nominal.value() > 0.0);
        // Min setup/hold land inside the bisection window, not at its ends.
        assert!(t.setup.value() < 190.0 && t.setup.value() > -20.0);
        assert!(t.hold.value() < 290.0 && t.hold.value() > -20.0);
        // And the characterized point indeed meets the pushout.
        let d = c2q_at(&b, &tech, t.setup, Ps::new(300.0)).unwrap().unwrap();
        assert!(d <= t.c2q_nominal * 1.11);
    }
}
