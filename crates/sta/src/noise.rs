//! Functional noise (glitch) analysis.
//!
//! Besides delta-delay, coupling injects *glitches*: an aggressor edge
//! couples charge onto a quiet victim net; if the bump exceeds the
//! receiver's noise margin it can propagate a spurious transition. The
//! paper counts "a last set of several hundred manual noise … fixes"
//! as part of every tapeout (§1) and lists noise closure among the new
//! signoff requirements (§1.3).
//!
//! The glitch model: peak ≈ VDD · Cc/(Cc+Cg+Cpin) · k_driver, where the
//! holding driver's strength (its output resistance vs the coupling
//! time constant) attenuates the bump. Victims failing the margin are
//! fixed by spacing NDRs or upsizing the holding driver.

use tc_core::ids::NetId;
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_interconnect::estimate::{NdrClass, WireModel};
use tc_liberty::Library;
use tc_netlist::Netlist;

/// One victim net failing the noise check.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseViolation {
    /// The victim net.
    pub net: NetId,
    /// Estimated glitch peak as a fraction of VDD.
    pub glitch_frac: f64,
    /// The noise margin it exceeded (fraction of VDD).
    pub margin_frac: f64,
}

/// Noise-check configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseConfig {
    /// Receiver noise margin as a fraction of VDD (typ. ~0.3 for static
    /// CMOS at nominal supply, lower at low voltage).
    pub margin_frac: f64,
    /// Attenuation exponent of driver holding strength (larger drive ⇒
    /// smaller glitch).
    pub driver_atten: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            margin_frac: 0.30,
            driver_atten: 0.55,
        }
    }
}

/// Estimates the glitch peak fraction for one net.
pub fn glitch_fraction(
    nl: &Netlist,
    lib: &Library,
    stack: &BeolStack,
    corner: BeolCorner,
    cfg: &NoiseConfig,
    net: NetId,
) -> f64 {
    let n = nl.net(net);
    if n.wire_length_um <= 1.0 {
        return 0.0;
    }
    let ndr = NdrClass::from_route_class(n.route_class);
    let wm = WireModel::from_length(n.wire_length_um).with_ndr(ndr);
    let layer = stack.layer(wm.layer);
    let f = corner.factors(layer.multi_patterned);
    let (_, fcg, fcc) = ndr.factors();
    let cc = layer.cc_per_um * f.cc * fcc * n.wire_length_um;
    let cg = layer.cg_per_um * f.cg * fcg * n.wire_length_um;
    let pin: f64 = n
        .sinks
        .iter()
        .map(|s| lib.cell(nl.cell(s.cell).master).input_cap.value())
        .sum();
    let coupling = cc / (cc + cg + pin);
    // Holding-driver attenuation: stronger drivers restore the victim
    // faster, clipping the bump.
    let drive = n
        .driver
        .map(|d| lib.cell(nl.cell(d).master).drive)
        .unwrap_or(8.0); // primary inputs are strongly driven
    coupling * (1.0 / drive).powf(cfg.driver_atten)
}

/// Runs the noise check over every net; returns violations sorted worst
/// first.
pub fn noise_check(
    nl: &Netlist,
    lib: &Library,
    stack: &BeolStack,
    corner: BeolCorner,
    cfg: &NoiseConfig,
) -> Vec<NoiseViolation> {
    let mut out: Vec<NoiseViolation> = (0..nl.net_count())
        .map(NetId::new)
        .filter_map(|net| {
            let g = glitch_fraction(nl, lib, stack, corner, cfg, net);
            (g > cfg.margin_frac).then_some(NoiseViolation {
                net,
                glitch_frac: g,
                margin_frac: cfg.margin_frac,
            })
        })
        .collect();
    out.sort_by(|a, b| b.glitch_frac.total_cmp(&a.glitch_frac));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    fn env() -> (Library, BeolStack, Netlist) {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = generate(&lib, BenchProfile::tiny(), 61).unwrap();
        (lib, BeolStack::n20(), nl)
    }

    #[test]
    fn long_weakly_driven_nets_glitch_hardest() {
        let (lib, stack, mut nl) = env();
        // Find nets driven by X1 and X4 cells; make both long.
        let x1_net = (0..nl.net_count())
            .map(NetId::new)
            .find(|&n| {
                nl.net(n)
                    .driver
                    .map(|d| lib.cell(nl.cell(d).master).drive == 1.0)
                    .unwrap_or(false)
            })
            .expect("x1-driven net exists");
        let x4_net = (0..nl.net_count())
            .map(NetId::new)
            .find(|&n| {
                nl.net(n)
                    .driver
                    .map(|d| lib.cell(nl.cell(d).master).drive == 4.0)
                    .unwrap_or(false)
            })
            .expect("x4-driven net exists");
        nl.set_wire_length(x1_net, 500.0);
        nl.set_wire_length(x4_net, 500.0);
        let cfg = NoiseConfig::default();
        let g1 = glitch_fraction(&nl, &lib, &stack, BeolCorner::Typical, &cfg, x1_net);
        let g4 = glitch_fraction(&nl, &lib, &stack, BeolCorner::Typical, &cfg, x4_net);
        assert!(g1 > g4, "weak driver must glitch harder: {g1} vs {g4}");
        assert!(g1 > 0.1);
    }

    #[test]
    fn spacing_ndr_fixes_noise() {
        let (lib, stack, mut nl) = env();
        let net = NetId::new(
            (0..nl.net_count())
                .find(|&i| nl.net(NetId::new(i)).driver.is_some())
                .unwrap(),
        );
        nl.set_wire_length(net, 700.0);
        let cfg = NoiseConfig::default();
        let before = glitch_fraction(&nl, &lib, &stack, BeolCorner::Typical, &cfg, net);
        nl.set_route_class(net, 2);
        let after = glitch_fraction(&nl, &lib, &stack, BeolCorner::Typical, &cfg, net);
        assert!(
            after < 0.7 * before,
            "spacing must cut coupling: {before} → {after}"
        );
    }

    #[test]
    fn ccworst_corner_finds_more_violations() {
        let (lib, stack, mut nl) = env();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 300.0);
        }
        let cfg = NoiseConfig {
            margin_frac: 0.25,
            ..Default::default()
        };
        let typ = noise_check(&nl, &lib, &stack, BeolCorner::Typical, &cfg).len();
        let ccw = noise_check(&nl, &lib, &stack, BeolCorner::CcWorst, &cfg).len();
        assert!(
            ccw >= typ,
            "Ccw is the noise-signoff corner: {ccw} vs {typ}"
        );
        assert!(ccw > 0, "a 300 µm everything design must have noise issues");
    }

    #[test]
    fn violations_sorted_worst_first() {
        let (lib, stack, mut nl) = env();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 400.0);
        }
        let v = noise_check(
            &nl,
            &lib,
            &stack,
            BeolCorner::CcWorst,
            &NoiseConfig {
                margin_frac: 0.2,
                ..Default::default()
            },
        );
        for w in v.windows(2) {
            assert!(w[0].glitch_frac >= w[1].glitch_frac);
        }
    }
}
