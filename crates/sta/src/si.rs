//! Crosstalk (SI) delta-delay model.
//!
//! The paper lists noise closure and "STA with noise analysis enabled"
//! among the modern signoff requirements (§1.3). We model the dominant
//! timing effect: an aggressor switching opposite to the victim inflates
//! the victim's effective coupling capacitance (Miller effect), adding
//! delay on late paths and — switching in the same direction — removing
//! it on early paths.

use tc_core::units::Ps;
use tc_interconnect::beol::{BeolCorner, MetalLayer};
use tc_interconnect::estimate::NdrClass;

/// Fraction of nets assumed to have a timing-window-overlapping
/// aggressor (a graph-level SI analysis would compute real windows; the
/// flat factor reproduces the signoff-level magnitude).
const AGGRESSOR_ACTIVITY: f64 = 0.6;

/// Miller factor excursion for opposite-direction switching.
const MILLER_EXCESS: f64 = 0.85;

/// Delta delay (ps) a net's sinks see from coupling, given its layer,
/// corner, routing rule and per-sink wire delays (a borrowed slice, so
/// callers keeping delays in a scratch buffer pass them without copying).
/// Added to late arrivals, subtracted from early arrivals.
pub fn coupling_delta(
    layer: &MetalLayer,
    corner: BeolCorner,
    ndr: NdrClass,
    sink_delays: &[Ps],
) -> f64 {
    let f = corner.factors(layer.multi_patterned);
    let (_, fcg, fcc) = ndr.factors();
    let cc = layer.cc_per_um * f.cc * fcc;
    let cg = layer.cg_per_um * f.cg * fcg;
    let coupling_fraction = cc / (cc + cg);
    let worst_wire = sink_delays.iter().map(|d| d.value()).fold(0.0f64, f64::max);
    AGGRESSOR_ACTIVITY * MILLER_EXCESS * coupling_fraction * worst_wire
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::units::Ff;
    use tc_interconnect::beol::BeolStack;
    use tc_interconnect::estimate::WireModel;

    #[test]
    fn delta_scales_with_wire_delay_and_coupling() {
        let stack = BeolStack::n20();
        let caps = [Ff::new(2.0)];
        let short = WireModel::from_length(20.0);
        let long = WireModel::from_length(600.0);
        let t_short = short.timing(&stack, BeolCorner::Typical, None, &caps);
        let t_long = long.timing(&stack, BeolCorner::Typical, None, &caps);
        let d_short = coupling_delta(
            stack.layer(short.layer),
            BeolCorner::Typical,
            NdrClass::Default,
            &t_short.sink_delays,
        );
        let d_long = coupling_delta(
            stack.layer(long.layer),
            BeolCorner::Typical,
            NdrClass::Default,
            &t_long.sink_delays,
        );
        assert!(d_long > d_short);
        assert!(d_short >= 0.0);
    }

    #[test]
    fn spacing_ndr_reduces_si() {
        let stack = BeolStack::n20();
        let caps = [Ff::new(2.0)];
        let wm = WireModel::from_length(300.0);
        let t = wm.timing(&stack, BeolCorner::Typical, None, &caps);
        let base = coupling_delta(
            stack.layer(wm.layer),
            BeolCorner::Typical,
            NdrClass::Default,
            &t.sink_delays,
        );
        let spaced = coupling_delta(
            stack.layer(wm.layer),
            BeolCorner::Typical,
            NdrClass::DoubleWidthSpacing,
            &t.sink_delays,
        );
        assert!(
            spaced < base,
            "spacing must reduce coupling: {spaced} vs {base}"
        );
    }

    #[test]
    fn ccworst_corner_amplifies_si() {
        let stack = BeolStack::n20();
        let caps = [Ff::new(2.0)];
        let wm = WireModel::from_length(300.0);
        let t = wm.timing(&stack, BeolCorner::Typical, None, &caps);
        let typ = coupling_delta(
            stack.layer(wm.layer),
            BeolCorner::Typical,
            NdrClass::Default,
            &t.sink_delays,
        );
        let ccw = coupling_delta(
            stack.layer(wm.layer),
            BeolCorner::CcWorst,
            NdrClass::Default,
            &t.sink_delays,
        );
        assert!(ccw > typ);
    }
}
