//! Alpha-power-law MOSFET model (Sakurai–Newton) with temperature and
//! aging dependence.
//!
//! Unit system: voltages in **V**, widths in **µm**, currents in **mA**,
//! capacitances in **fF**, time in **ps**. These are mutually consistent:
//! `1 fF · 1 V / 1 ps = 1 mA`, so the transient simulator in `tc-sim` can
//! integrate charge without conversion factors, and `V / mA = kΩ` so
//! effective drive resistances land directly in `tc-core`'s canonical
//! resistance unit.

use tc_core::units::{Celsius, Ff, Kohm, Volt};

use crate::vt::VtClass;

/// Which channel type a device is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MosKind {
    /// N-channel (pull-down).
    Nmos,
    /// P-channel (pull-up).
    Pmos,
}

/// Process-level model parameters shared by all devices of a technology.
///
/// Two calibrations are provided: [`Technology::planar_28nm`] (used for the
/// paper's 28 nm FDSOI MIS study, Fig 4) and [`Technology::finfet_16nm`]
/// (used for the wide-voltage-range corner studies).
#[derive(Clone, Debug, PartialEq)]
pub struct Technology {
    /// Human-readable name ("planar28", "finfet16").
    pub name: &'static str,
    /// Nominal supply voltage in volts.
    pub vdd_nominal: Volt,
    /// Zero-bias SVT threshold magnitude at 25 °C, NMOS, in volts.
    pub vt0_n: f64,
    /// Zero-bias SVT threshold magnitude at 25 °C, PMOS, in volts.
    pub vt0_p: f64,
    /// Velocity-saturation exponent α (≈2 long-channel, ≈1.2–1.4 scaled).
    pub alpha: f64,
    /// NMOS transconductance: mA per µm of width at 1 V of overdrive, 25 °C.
    pub k_n: f64,
    /// PMOS transconductance (weaker than NMOS).
    pub k_p: f64,
    /// Threshold temperature coefficient in V/°C (Vt falls when hot).
    pub vt_temp_coeff: f64,
    /// Mobility temperature exponent m in µ(T) ∝ (T/T₀)^−m.
    pub mobility_temp_exp: f64,
    /// Gate capacitance per µm of width, in fF.
    pub cgate_per_um: f64,
    /// Drain-diffusion capacitance per µm of width, in fF.
    pub cdiff_per_um: f64,
    /// SVT off-current per µm at 25 °C, nominal VDD, in mA (tiny).
    pub ioff_per_um: f64,
    /// Subthreshold swing factor n (I ∝ exp(Vgst/(n·vT))).
    pub subthreshold_n: f64,
}

impl Technology {
    /// A 28 nm planar/FDSOI-flavoured calibration (VDD 0.9 V). Matches the
    /// setting of the paper's Fig 4 MIS/SIS study.
    pub fn planar_28nm() -> Self {
        Technology {
            name: "planar28",
            vdd_nominal: Volt::new(0.9),
            vt0_n: 0.35,
            vt0_p: 0.33,
            alpha: 1.35,
            k_n: 0.55,
            k_p: 0.28,
            vt_temp_coeff: 1.2e-3,
            mobility_temp_exp: 1.25,
            cgate_per_um: 1.0,
            cdiff_per_um: 0.55,
            ioff_per_um: 4.0e-6,
            subthreshold_n: 1.45,
        }
    }

    /// A 16/14 nm FinFET-flavoured calibration (VDD 0.8 V, steeper
    /// subthreshold, stronger drive, larger relative gate cap). Supports
    /// the wide supply range (0.46–1.25 V) discussed in §1.2.
    pub fn finfet_16nm() -> Self {
        Technology {
            name: "finfet16",
            vdd_nominal: Volt::new(0.8),
            vt0_n: 0.32,
            vt0_p: 0.31,
            alpha: 1.2,
            k_n: 0.9,
            k_p: 0.6,
            vt_temp_coeff: 1.0e-3,
            mobility_temp_exp: 1.35,
            cgate_per_um: 1.6,
            cdiff_per_um: 0.7,
            ioff_per_um: 1.2e-6,
            subthreshold_n: 1.15,
        }
    }

    /// Thermal voltage kT/q in volts at temperature `t`.
    pub fn thermal_voltage(t: Celsius) -> f64 {
        8.617e-5 * t.as_kelvin()
    }

    /// Mobility degradation factor relative to 25 °C.
    pub fn mobility_factor(&self, t: Celsius) -> f64 {
        (t.as_kelvin() / Celsius::new(25.0).as_kelvin()).powf(-self.mobility_temp_exp)
    }
}

/// A single transistor: channel type, threshold flavour, width, and an
/// aging-induced threshold shift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MosDevice {
    /// Channel type.
    pub kind: MosKind,
    /// Threshold flavour.
    pub vt_class: VtClass,
    /// Channel width in µm.
    pub width_um: f64,
    /// BTI-induced threshold magnitude increase in volts (≥ 0);
    /// populated by `tc-aging`.
    pub delta_vt: f64,
}

impl MosDevice {
    /// Creates a fresh (un-aged) device.
    pub fn new(kind: MosKind, vt_class: VtClass, width_um: f64) -> Self {
        MosDevice {
            kind,
            vt_class,
            width_um,
            delta_vt: 0.0,
        }
    }

    /// Returns a copy with the given BTI threshold shift applied.
    pub fn aged(mut self, delta_vt: f64) -> Self {
        self.delta_vt = delta_vt;
        self
    }

    /// Effective threshold magnitude at temperature `t`, including the Vt
    /// class offset and any aging shift.
    pub fn vt_eff(&self, tech: &Technology, t: Celsius) -> f64 {
        let vt0 = match self.kind {
            MosKind::Nmos => tech.vt0_n,
            MosKind::Pmos => tech.vt0_p,
        };
        vt0 + self.vt_class.vt_offset() - tech.vt_temp_coeff * (t.value() - 25.0) + self.delta_vt
    }

    /// The device's drive terms folded for temperature `t`: everything
    /// [`drain_current`](Self::drain_current) computes that does not
    /// depend on the terminal voltages. A transient folds each device once
    /// and evaluates the folded form at every Newton iteration.
    pub fn fold(&self, tech: &Technology, t: Celsius) -> FoldedMos {
        let k = match self.kind {
            MosKind::Nmos => tech.k_n,
            MosKind::Pmos => tech.k_p,
        };
        FoldedMos {
            gain: k * self.width_um * tech.mobility_factor(t),
            vt: self.vt_eff(tech, t),
            n_vt: tech.subthreshold_n * Technology::thermal_voltage(t),
            alpha: tech.alpha,
        }
    }

    /// Drain-current *magnitude* in mA for gate-drive magnitude `vgs` and
    /// drain-source magnitude `vds` (both ≥ 0; the caller resolves PMOS
    /// polarity). Smoothly blends subthreshold and alpha-power saturation
    /// so the Newton iterations in `tc-sim` converge.
    ///
    /// The formula lives in [`FoldedMos::current`]; this is
    /// `self.fold(tech, t).current(vgs, vds)`, bit for bit.
    pub fn drain_current(&self, tech: &Technology, vgs: Volt, vds: Volt, t: Celsius) -> f64 {
        self.fold(tech, t).current(vgs.value(), vds.value())
    }

    /// Saturation current magnitude at full gate drive `vdd`.
    pub fn idsat(&self, tech: &Technology, vdd: Volt, t: Celsius) -> f64 {
        self.drain_current(tech, vdd, vdd, t)
    }

    /// Effective switching resistance for RC delay estimation:
    /// `R ≈ VDD / (2·Idsat)` (the factor 2 approximates averaging over the
    /// output transition).
    pub fn eff_resistance(&self, tech: &Technology, vdd: Volt, t: Celsius) -> Kohm {
        let id = self.idsat(tech, vdd, t);
        Kohm::new(vdd.value() / (2.0 * id.max(1e-12)))
    }

    /// Gate capacitance in fF.
    pub fn gate_cap(&self, tech: &Technology) -> Ff {
        Ff::new(tech.cgate_per_um * self.width_um)
    }

    /// Drain-diffusion capacitance in fF.
    pub fn diff_cap(&self, tech: &Technology) -> Ff {
        Ff::new(tech.cdiff_per_um * self.width_um)
    }

    /// Subthreshold leakage magnitude in mA at the given supply and
    /// temperature (gate off).
    pub fn leakage(&self, tech: &Technology, _vdd: Volt, t: Celsius) -> f64 {
        let n_vt = tech.subthreshold_n * Technology::thermal_voltage(t);
        let n_vt25 = tech.subthreshold_n * Technology::thermal_voltage(Celsius::new(25.0));
        let vt25 = {
            let vt0 = match self.kind {
                MosKind::Nmos => tech.vt0_n,
                MosKind::Pmos => tech.vt0_p,
            };
            vt0 + self.vt_class.vt_offset() + self.delta_vt
        };
        let vt_t = self.vt_eff(tech, t);
        // Reference Ioff is quoted for SVT at 25 °C; rescale for the class
        // Vt and temperature through the subthreshold exponential.
        let vt0_svt = match self.kind {
            MosKind::Nmos => tech.vt0_n,
            MosKind::Pmos => tech.vt0_p,
        };
        let base = tech.ioff_per_um * self.width_um;
        base * ((vt0_svt - vt25) / n_vt25).exp() * ((vt25 - vt_t) / n_vt).exp()
    }
}

/// A [`MosDevice`] with its temperature terms folded in
/// ([`MosDevice::fold`]): the alpha-power model as a function of the
/// terminal voltages alone.
///
/// The model splits into a gate half, [`gate`](Self::gate), which maps
/// the gate drive to the saturation current and voltage, and a drain
/// half, [`GateDrive::drain`], which scales that by the drain bias. A
/// caller that moves only `vds` keeps the gate half and re-runs only the
/// drain half, with the same result as a full [`current`](Self::current).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FoldedMos {
    /// `k · width · mobility_factor(t)`: mA at 1 V of overdrive.
    pub gain: f64,
    /// Effective threshold magnitude at `t` ([`MosDevice::vt_eff`]).
    pub vt: f64,
    /// Subthreshold slope voltage `n · kT/q` at `t`.
    pub n_vt: f64,
    /// Velocity-saturation exponent α.
    pub alpha: f64,
}

impl FoldedMos {
    /// The gate half: saturation current and voltage at gate-drive
    /// magnitude `vgs` (clamped at 0).
    pub fn gate(&self, vgs: f64) -> GateDrive {
        let vgst = vgs.max(0.0) - self.vt;
        // Smooth effective overdrive: ≈ n·vT·ln(1+exp(vgst/n·vT)) tends to
        // vgst when on and to a decaying exponential when off.
        let x = vgst / self.n_vt;
        let ov_eff = if x > 40.0 {
            vgst
        } else {
            self.n_vt * (1.0 + x.exp()).ln()
        };
        GateDrive {
            idsat: self.gain * ov_eff.powf(self.alpha),
            // Smooth triode→saturation transition.
            vdsat: (0.35 * ov_eff).max(0.05),
        }
    }

    /// Drain-current magnitude in mA: the gate half at `vgs`, then the
    /// drain half at `vds`.
    pub fn current(&self, vgs: f64, vds: f64) -> f64 {
        self.gate(vgs).drain(vds)
    }
}

/// The gate half of a [`FoldedMos`] evaluation at one gate drive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateDrive {
    /// Saturation current magnitude in mA.
    pub idsat: f64,
    /// Saturation voltage in V.
    pub vdsat: f64,
}

impl GateDrive {
    /// The drain half: current magnitude in mA at drain-source magnitude
    /// `vds`. Zero when `vds ≤ 0`.
    pub fn drain(&self, vds: f64) -> f64 {
        if vds <= 0.0 {
            return 0.0;
        }
        self.idsat * (vds / self.vdsat).tanh()
    }
}

/// The supply voltage at which a device's delay-vs-temperature slope
/// reverses (the *temperature reversal point* `Vtr` of paper Fig 6b),
/// found by bisection on the delay ratio between `hot` and `cold`.
///
/// Returns `None` if no reversal occurs inside `[v_lo, v_hi]`.
pub fn temperature_reversal_point(
    tech: &Technology,
    device: &MosDevice,
    cold: Celsius,
    hot: Celsius,
    v_lo: Volt,
    v_hi: Volt,
) -> Option<Volt> {
    // Delay ∝ C·V/Idsat; the capacitance cancels in the hot/cold ratio.
    let ratio = |v: Volt| -> f64 {
        let d_hot = v.value() / device.idsat(tech, v, hot);
        let d_cold = v.value() / device.idsat(tech, v, cold);
        d_hot - d_cold // > 0 ⇒ slower hot (high-V regime)
    };
    let (mut lo, mut hi) = (v_lo.value(), v_hi.value());
    let f_lo = ratio(Volt::new(lo));
    let f_hi = ratio(Volt::new(hi));
    if f_lo.signum() == f_hi.signum() {
        return None;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if ratio(Volt::new(mid)).signum() == f_lo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Volt::new(0.5 * (lo + hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svt_n() -> MosDevice {
        MosDevice::new(MosKind::Nmos, VtClass::Svt, 1.0)
    }

    #[test]
    fn current_monotone_in_gate_drive_and_width() {
        let tech = Technology::planar_28nm();
        let t = Celsius::new(25.0);
        let d = svt_n();
        let mut last = 0.0;
        for vg in [0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
            let i = d.drain_current(&tech, Volt::new(vg), Volt::new(0.9), t);
            assert!(i > last, "Id must rise with Vgs");
            last = i;
        }
        let wide = MosDevice::new(MosKind::Nmos, VtClass::Svt, 2.0);
        assert!(wide.idsat(&tech, Volt::new(0.9), t) > 1.9 * d.idsat(&tech, Volt::new(0.9), t));
    }

    #[test]
    fn current_monotone_in_vds_and_saturates() {
        let tech = Technology::planar_28nm();
        let t = Celsius::new(25.0);
        let d = svt_n();
        let i_lin = d.drain_current(&tech, Volt::new(0.9), Volt::new(0.05), t);
        let i_mid = d.drain_current(&tech, Volt::new(0.9), Volt::new(0.3), t);
        let i_sat = d.drain_current(&tech, Volt::new(0.9), Volt::new(0.9), t);
        assert!(i_lin < i_mid && i_mid < i_sat);
        // Deep saturation is flat.
        let i_sat2 = d.drain_current(&tech, Volt::new(0.9), Volt::new(0.8), t);
        assert!((i_sat - i_sat2) / i_sat < 0.02);
    }

    #[test]
    fn faster_vt_class_drives_more_current() {
        let tech = Technology::planar_28nm();
        let t = Celsius::new(25.0);
        let vdd = Volt::new(0.9);
        let ids: Vec<f64> = VtClass::ALL
            .iter()
            .map(|&v| MosDevice::new(MosKind::Nmos, v, 1.0).idsat(&tech, vdd, t))
            .collect();
        for w in ids.windows(2) {
            assert!(w[0] > w[1], "idsat must fall as Vt rises: {ids:?}");
        }
    }

    #[test]
    fn temperature_inversion_exists() {
        let tech = Technology::planar_28nm();
        let d = svt_n();
        let cold = Celsius::new(-30.0);
        let hot = Celsius::new(125.0);
        // Low VDD: faster hot (delay_hot < delay_cold).
        let v = Volt::new(0.55);
        let del = |t: Celsius| v.value() / d.idsat(&tech, v, t);
        assert!(del(hot) < del(cold), "low-V regime must be slower cold");
        // High VDD: slower hot.
        let v = Volt::new(1.1);
        let del = |t: Celsius| v.value() / d.idsat(&tech, v, t);
        assert!(del(hot) > del(cold), "high-V regime must be slower hot");
    }

    #[test]
    fn reversal_point_is_in_plausible_range() {
        let tech = Technology::planar_28nm();
        let vtr = temperature_reversal_point(
            &tech,
            &svt_n(),
            Celsius::new(-30.0),
            Celsius::new(125.0),
            Volt::new(0.45),
            Volt::new(1.2),
        )
        .expect("reversal must exist in range");
        assert!(
            (0.55..0.95).contains(&vtr.value()),
            "Vtr = {} V outside plausible window",
            vtr.value()
        );
    }

    #[test]
    fn aging_slows_device() {
        let tech = Technology::planar_28nm();
        let t = Celsius::new(25.0);
        let fresh = svt_n();
        let aged = svt_n().aged(0.04);
        assert!(aged.idsat(&tech, Volt::new(0.8), t) < fresh.idsat(&tech, Volt::new(0.8), t));
        assert!(aged.leakage(&tech, Volt::new(0.8), t) < fresh.leakage(&tech, Volt::new(0.8), t));
    }

    #[test]
    fn leakage_rises_with_temperature_and_lower_vt() {
        let tech = Technology::planar_28nm();
        let vdd = Volt::new(0.9);
        let d = svt_n();
        assert!(
            d.leakage(&tech, vdd, Celsius::new(125.0))
                > 5.0 * d.leakage(&tech, vdd, Celsius::new(25.0))
        );
        let lvt = MosDevice::new(MosKind::Nmos, VtClass::Lvt, 1.0);
        assert!(
            lvt.leakage(&tech, vdd, Celsius::new(25.0)) > d.leakage(&tech, vdd, Celsius::new(25.0))
        );
    }

    #[test]
    fn eff_resistance_falls_with_vdd() {
        let tech = Technology::finfet_16nm();
        let t = Celsius::new(25.0);
        let d = svt_n();
        let r_low = d.eff_resistance(&tech, Volt::new(0.5), t);
        let r_nom = d.eff_resistance(&tech, Volt::new(0.8), t);
        let r_high = d.eff_resistance(&tech, Volt::new(1.1), t);
        assert!(r_low > r_nom && r_nom > r_high);
    }

    #[test]
    fn pmos_is_weaker_than_nmos() {
        let tech = Technology::planar_28nm();
        let t = Celsius::new(25.0);
        let n = svt_n();
        let p = MosDevice::new(MosKind::Pmos, VtClass::Svt, 1.0);
        assert!(p.idsat(&tech, Volt::new(0.9), t) < n.idsat(&tech, Volt::new(0.9), t));
    }

    #[test]
    fn caps_scale_with_width() {
        let tech = Technology::planar_28nm();
        let d = MosDevice::new(MosKind::Nmos, VtClass::Svt, 3.0);
        assert_eq!(d.gate_cap(&tech), Ff::new(3.0));
        assert!((d.diff_cap(&tech).value() - 1.65).abs() < 1e-12);
    }
}
