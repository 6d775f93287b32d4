//! Wirelength-based net models: layer assignment, non-default rules, and
//! the (driver load, per-sink wire delay) interface consumed by `tc-sta`.

use tc_core::units::{Ff, Kohm, Ps};

use crate::beol::{BeolCorner, BeolSample, BeolStack};

/// Routing rule class for a net. Non-default rules (NDRs) are one of the
/// classic manual timing fixes of the paper's Fig 1: wider/spaced wiring
/// trades track resources for lower R (and lower coupling).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NdrClass {
    /// Minimum-width, minimum-spacing default rule.
    #[default]
    Default,
    /// Double width: ~half the resistance, slightly more ground cap.
    DoubleWidth,
    /// Double width + double spacing: half R and much less coupling.
    DoubleWidthSpacing,
}

impl NdrClass {
    /// The rule a netlist's per-net route class selects: `0` is the
    /// default rule, `1` double width, anything higher double width and
    /// spacing.
    pub fn from_route_class(class: u8) -> NdrClass {
        match class {
            0 => NdrClass::Default,
            1 => NdrClass::DoubleWidth,
            _ => NdrClass::DoubleWidthSpacing,
        }
    }

    /// `(r_factor, cg_factor, cc_factor)` relative to the default rule.
    pub fn factors(self) -> (f64, f64, f64) {
        match self {
            NdrClass::Default => (1.0, 1.0, 1.0),
            NdrClass::DoubleWidth => (0.52, 1.18, 1.05),
            NdrClass::DoubleWidthSpacing => (0.52, 1.22, 0.55),
        }
    }

    /// Routing-resource cost multiplier (tracks consumed).
    pub fn track_cost(self) -> f64 {
        match self {
            NdrClass::Default => 1.0,
            NdrClass::DoubleWidth => 2.0,
            NdrClass::DoubleWidthSpacing => 4.0,
        }
    }
}

/// Per-sink timing of an estimated net.
#[derive(Clone, Debug, PartialEq)]
pub struct WireTiming {
    /// Effective capacitive load presented to the driver (total wire +
    /// pin capacitance — the value looked up in the driver's NLDM table).
    pub driver_load: Ff,
    /// Additional wire delay from driver output to each sink, in the
    /// order the sink caps were supplied.
    pub sink_delays: Vec<Ps>,
    /// Total wire resistance (diagnostics / NDR decisions).
    pub r_total: Kohm,
}

/// A net reduced to (length, layer, rule); the estimation model of a
/// placed-but-unrouted flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireModel {
    /// Routed length in µm.
    pub length_um: f64,
    /// Stack layer index the router would choose.
    pub layer: usize,
    /// Routing rule.
    pub ndr: NdrClass,
}

impl WireModel {
    /// Estimates a net: layer chosen by length (short nets stay on thin
    /// local metal, long nets are promoted to fat upper layers).
    pub fn from_length(length_um: f64) -> Self {
        let layer = if length_um < 50.0 {
            1 // M2
        } else if length_um < 200.0 {
            3 // M4
        } else {
            5 // M6
        };
        WireModel {
            length_um,
            layer,
            ndr: NdrClass::Default,
        }
    }

    /// Returns the same net with a different rule applied (the NDR fix).
    pub fn with_ndr(mut self, ndr: NdrClass) -> Self {
        self.ndr = ndr;
        self
    }

    /// Returns the same net promoted one layer pair up (fixes long nets).
    pub fn promoted(mut self, stack: &BeolStack) -> Self {
        self.layer = (self.layer + 2).min(stack.layer_count() - 1);
        self
    }

    /// Resistance and capacitance per µm of this net's layer under its
    /// rule, the BEOL corner and an optional Monte Carlo sample.
    fn per_um(
        &self,
        stack: &BeolStack,
        corner: BeolCorner,
        sample: Option<&BeolSample>,
    ) -> (f64, f64) {
        let layer = stack.layer(self.layer);
        let (fr, fcg, fcc) = self.ndr.factors();
        let cf = corner.factors(layer.multi_patterned);
        let (sr, sc) = match sample {
            Some(s) => (s.r[self.layer], s.c[self.layer]),
            None => (1.0, 1.0),
        };
        let r_per_um = layer.r_per_um * fr * cf.r * sr;
        let c_per_um = (layer.cg_per_um * fcg * cf.cg + layer.cc_per_um * fcc * cf.cc) * sc;
        (r_per_um, c_per_um)
    }

    /// Computes the driver load and per-sink Elmore delays, *appending*
    /// the delays to `out_delays` (one per entry of `sink_caps`, in
    /// order). Returns `(driver_load, r_total)`.
    ///
    /// The net is a 4-segment RC ladder: node 0 at the driver holds half
    /// a segment's cap, nodes 1 to 4 one segment each, and sink 0 adds
    /// its pin cap at the far end (node 4), the others alternately at
    /// nodes 3 and 4. On a chain the common ancestor of nodes `k` and
    /// `s` is `min(k, s)`, so the Elmore delay at `s` is
    /// `Σ_k cap[k] · r_to[min(k, s)]`. The sum is taken on the stack,
    /// with the same products in the same order as the generic
    /// [`RcTree`](crate::rctree::RcTree) walk, which the tests keep as a
    /// bit-for-bit oracle of this ladder.
    pub fn timing_into(
        &self,
        stack: &BeolStack,
        corner: BeolCorner,
        sample: Option<&BeolSample>,
        sink_caps: &[Ff],
        out_delays: &mut Vec<Ps>,
    ) -> (Ff, Kohm) {
        let (r_per_um, c_per_um) = self.per_um(stack, corner, sample);
        let seg_len = self.length_um / SEGS as f64;
        let mut cap = [c_per_um * seg_len; SEGS + 1];
        cap[0] = 0.5 * c_per_um * seg_len;
        for (i, c) in sink_caps.iter().enumerate() {
            cap[sink_node(i)] += c.value();
        }
        let mut r_to = [0.0; SEGS + 1];
        for k in 1..=SEGS {
            r_to[k] = r_to[k - 1] + r_per_um * seg_len;
        }
        let elmore = |s: usize| {
            let mut total = 0.0;
            for k in 0..=SEGS {
                total += cap[k] * r_to[k.min(s)];
            }
            Ps::new(total)
        };
        out_delays.extend((0..sink_caps.len()).map(|i| elmore(sink_node(i))));
        let driver_load = Ff::new(cap.iter().sum());
        (driver_load, Kohm::new(r_per_um * self.length_um))
    }

    /// Computes the driver load and per-sink Elmore delays (allocating
    /// convenience wrapper around [`WireModel::timing_into`]).
    pub fn timing(
        &self,
        stack: &BeolStack,
        corner: BeolCorner,
        sample: Option<&BeolSample>,
        sink_caps: &[Ff],
    ) -> WireTiming {
        let mut sink_delays = Vec::with_capacity(sink_caps.len());
        let (driver_load, r_total) =
            self.timing_into(stack, corner, sample, sink_caps, &mut sink_delays);
        WireTiming {
            driver_load,
            sink_delays,
            r_total,
        }
    }
}

/// Segments of the estimated wire's RC ladder.
const SEGS: usize = 4;

/// The ladder node sink `i` hangs on: the far end (node `SEGS`) for
/// sink 0, then alternately the node before it and the far end.
fn sink_node(i: usize) -> usize {
    if i == 0 {
        SEGS
    } else {
        SEGS - 1 + i % 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rctree::RcTree;

    fn stack() -> BeolStack {
        BeolStack::n20()
    }

    #[test]
    fn layer_assignment_by_length() {
        assert_eq!(WireModel::from_length(10.0).layer, 1);
        assert_eq!(WireModel::from_length(100.0).layer, 3);
        assert_eq!(WireModel::from_length(500.0).layer, 5);
    }

    #[test]
    fn longer_nets_are_slower() {
        let s = stack();
        let caps = [Ff::new(2.0)];
        let short = WireModel::from_length(20.0).timing(&s, BeolCorner::Typical, None, &caps);
        let long = WireModel::from_length(400.0).timing(&s, BeolCorner::Typical, None, &caps);
        assert!(long.sink_delays[0] > short.sink_delays[0]);
        assert!(long.driver_load > short.driver_load);
    }

    #[test]
    fn ndr_cuts_wire_delay() {
        let s = stack();
        let caps = [Ff::new(2.0)];
        let wm = WireModel {
            length_um: 300.0,
            layer: 3,
            ndr: NdrClass::Default,
        };
        let base = wm.timing(&s, BeolCorner::Typical, None, &caps);
        let ndr =
            wm.with_ndr(NdrClass::DoubleWidthSpacing)
                .timing(&s, BeolCorner::Typical, None, &caps);
        assert!(
            ndr.sink_delays[0].value() < 0.8 * base.sink_delays[0].value(),
            "NDR {} vs default {}",
            ndr.sink_delays[0],
            base.sink_delays[0]
        );
        assert!(NdrClass::DoubleWidthSpacing.track_cost() > 1.0);
    }

    #[test]
    fn layer_promotion_helps_long_nets() {
        let s = stack();
        let caps = [Ff::new(2.0)];
        let wm = WireModel {
            length_um: 600.0,
            layer: 3,
            ndr: NdrClass::Default,
        };
        let base = wm.timing(&s, BeolCorner::Typical, None, &caps);
        let promoted = wm.promoted(&s).timing(&s, BeolCorner::Typical, None, &caps);
        assert!(promoted.sink_delays[0] < base.sink_delays[0]);
    }

    #[test]
    fn corners_move_wire_timing() {
        let s = stack();
        let caps = [Ff::new(2.0)];
        let wm = WireModel::from_length(300.0);
        let typ = wm.timing(&s, BeolCorner::Typical, None, &caps);
        let cw = wm.timing(&s, BeolCorner::CWorst, None, &caps);
        let rcw = wm.timing(&s, BeolCorner::RcWorst, None, &caps);
        assert!(cw.driver_load > typ.driver_load);
        assert!(rcw.sink_delays[0] > typ.sink_delays[0]);
    }

    #[test]
    fn samples_perturb_timing() {
        let s = stack();
        let caps = [Ff::new(2.0)];
        let wm = WireModel::from_length(150.0);
        let mut rng = tc_core::rng::Rng::seed_from(4);
        let base = wm.timing(&s, BeolCorner::Typical, None, &caps).sink_delays[0];
        let mut distinct = 0;
        for _ in 0..10 {
            let smp = s.sample(&mut rng);
            let d = wm
                .timing(&s, BeolCorner::Typical, Some(&smp), &caps)
                .sink_delays[0];
            if (d.value() - base.value()).abs() > 1e-9 {
                distinct += 1;
            }
        }
        assert!(distinct >= 9, "samples must perturb delay");
    }

    /// The ladder as a generic RC tree: the oracle the closed form must
    /// reproduce bit for bit.
    fn ladder_tree(
        wm: &WireModel,
        s: &BeolStack,
        corner: BeolCorner,
        sample: Option<&BeolSample>,
        caps: &[Ff],
    ) -> RcTree {
        let (r_per_um, c_per_um) = wm.per_um(s, corner, sample);
        let seg_len = wm.length_um / SEGS as f64;
        let mut tree = RcTree::new(Ff::new(0.5 * c_per_um * seg_len));
        let mut prev = 0;
        for _ in 0..SEGS {
            prev = tree.add_node(
                prev,
                Kohm::new(r_per_um * seg_len),
                Ff::new(c_per_um * seg_len),
            );
        }
        for (i, &cap) in caps.iter().enumerate() {
            tree.add_cap(sink_node(i), cap);
        }
        tree
    }

    #[test]
    fn closed_form_ladder_matches_the_rc_tree_oracle_bit_for_bit() {
        let s = stack();
        let mut rng = tc_core::rng::Rng::seed_from(9);
        let samples = [s.sample(&mut rng), s.sample(&mut rng)];
        let ndrs = [
            NdrClass::Default,
            NdrClass::DoubleWidth,
            NdrClass::DoubleWidthSpacing,
        ];
        let mut delays = Vec::new();
        for i in 0..3000 {
            let corner = BeolCorner::ALL[i % BeolCorner::ALL.len()];
            let sample = match i % 3 {
                0 => None,
                k => Some(&samples[k - 1]),
            };
            let n_sinks = 1 + rng.below(12);
            let caps: Vec<Ff> = (0..n_sinks)
                .map(|_| Ff::new(rng.uniform_in(0.2, 6.0)))
                .collect();
            let mut wm = WireModel::from_length(rng.uniform_in(1.0, 900.0))
                .with_ndr(ndrs[(i / 7) % ndrs.len()]);
            if i % 5 == 0 {
                wm = wm.promoted(&s);
            }
            let start = delays.len();
            let (load, r_total) = wm.timing_into(&s, corner, sample, &caps, &mut delays);
            let tree = ladder_tree(&wm, &s, corner, sample, &caps);
            assert_eq!(
                load.value().to_bits(),
                tree.total_cap().value().to_bits(),
                "net {i}"
            );
            assert_eq!(delays.len() - start, n_sinks, "net {i}");
            for (k, d) in delays[start..].iter().enumerate() {
                let want = tree.elmore(sink_node(k)).unwrap();
                assert_eq!(
                    d.value().to_bits(),
                    want.value().to_bits(),
                    "net {i} sink {k}"
                );
            }
            let layer = s.layer(wm.layer);
            let want_r = layer.r_per_um
                * wm.ndr.factors().0
                * corner.factors(layer.multi_patterned).r
                * sample.map_or(1.0, |smp| smp.r[wm.layer])
                * wm.length_um;
            assert_eq!(r_total.value().to_bits(), want_r.to_bits(), "net {i}");
        }
    }

    #[test]
    fn timing_into_is_bit_identical_to_timing_across_reuse() {
        // Appending into one buffer across nets of different shapes
        // gives each net exactly the bytes of the allocating path.
        let s = stack();
        let mut rng = tc_core::rng::Rng::seed_from(9);
        let mut delays = Vec::new();
        for i in 0..50 {
            let n_sinks = 1 + rng.below(6);
            let caps: Vec<Ff> = (0..n_sinks)
                .map(|_| Ff::new(rng.uniform_in(0.5, 4.0)))
                .collect();
            let ndr = NdrClass::from_route_class((i % 3) as u8);
            let wm = WireModel::from_length(rng.uniform_in(5.0, 700.0)).with_ndr(ndr);
            let want = wm.timing(&s, BeolCorner::Typical, None, &caps);
            let start = delays.len();
            let (load, r_total) = wm.timing_into(&s, BeolCorner::Typical, None, &caps, &mut delays);
            assert_eq!(load, want.driver_load, "net {i}");
            assert_eq!(r_total, want.r_total, "net {i}");
            assert_eq!(delays[start..], want.sink_delays, "net {i}");
        }
    }

    #[test]
    fn multi_sink_nets_report_all_delays() {
        let s = stack();
        let caps = [Ff::new(2.0), Ff::new(1.0), Ff::new(3.0)];
        let t = WireModel::from_length(100.0).timing(&s, BeolCorner::Typical, None, &caps);
        assert_eq!(t.sink_delays.len(), 3);
        for d in &t.sink_delays {
            assert!(d.value() > 0.0);
        }
    }
}
