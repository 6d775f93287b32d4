//! Timing reports: WNS/TNS, slack histograms, and the failure breakdown
//! that drives the manual-fix step of the paper's Fig 1.

use tc_core::ids::{CellId, NetId};
use tc_core::stats::Histogram;
use tc_core::units::Ps;

/// A timing endpoint. Ordered as reports list endpoints: flop D pins by
/// cell id, then primary outputs by net id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// Setup/hold check at a flop's D pin.
    FlopD(CellId),
    /// Setup-style check at a primary output.
    Output(NetId),
}

/// Per-endpoint timing results.
#[derive(Clone, Debug, PartialEq)]
pub struct EndpointTiming {
    /// Which endpoint.
    pub endpoint: Endpoint,
    /// Setup (max-delay) slack.
    pub setup_slack: Ps,
    /// Hold (min-delay) slack; +∞ at outputs.
    pub hold_slack: Ps,
    /// Late data arrival.
    pub arrival: Ps,
    /// Required time used for the setup check.
    pub required: Ps,
    /// Worst-path stage count.
    pub depth: usize,
    /// Cumulative gate delay of the worst path, ps.
    pub gate_ps: f64,
    /// Cumulative wire delay of the worst path, ps.
    pub wire_ps: f64,
    /// Data slew at the endpoint, ps.
    pub data_slew: f64,
}

impl EndpointTiming {
    /// Fraction of the worst path's delay spent in wires.
    pub fn wire_fraction(&self) -> f64 {
        let total = self.gate_ps + self.wire_ps;
        if total <= 0.0 {
            0.0
        } else {
            self.wire_ps / total
        }
    }
}

/// Coarse cause classification of a setup violation — the "breakdown of
/// timing failures" step in Fig 1, which decides the fix to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Wire-dominated path: buffer / NDR / layer-promotion territory.
    LongWire,
    /// Unusually deep path: restructure or useful-skew territory.
    DeepPath,
    /// Gate-dominated shallow path: Vt-swap / upsizing territory.
    WeakDrive,
}

/// The result of one STA run.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Every checked endpoint.
    pub endpoints: Vec<EndpointTiming>,
    /// The clock period the run was constrained to.
    pub period: Ps,
}

impl TimingReport {
    /// Assembles a report.
    pub fn from_endpoints(endpoints: Vec<EndpointTiming>, period: Ps) -> Self {
        TimingReport { endpoints, period }
    }

    /// Worst negative (setup) slack — the headline number of every
    /// closure iteration. Positive if timing is met.
    pub fn wns(&self) -> Ps {
        wns(self.endpoints.iter())
    }

    /// Total negative setup slack (sum over violating endpoints).
    pub fn tns(&self) -> Ps {
        tns(self.endpoints.iter())
    }

    /// Worst hold slack.
    pub fn hold_wns(&self) -> Ps {
        hold_wns(self.endpoints.iter())
    }

    /// Number of setup-violating endpoints.
    pub fn setup_violations(&self) -> usize {
        setup_violations(self.endpoints.iter())
    }

    /// Number of hold-violating endpoints.
    pub fn hold_violations(&self) -> usize {
        hold_violations(self.endpoints.iter())
    }

    /// `true` if every endpoint meets both setup and hold.
    pub fn is_clean(&self) -> bool {
        is_clean(self.endpoints.iter())
    }

    /// The `k` worst setup endpoints, most critical first.
    pub fn worst_endpoints(&self, k: usize) -> Vec<&EndpointTiming> {
        k_worst(self.endpoints.iter(), k)
    }

    /// Classifies a violating endpoint's dominant cause.
    pub fn classify(&self, e: &EndpointTiming) -> FailureClass {
        class_of(e, self.max_depth())
    }

    fn max_depth(&self) -> usize {
        self.endpoints.iter().map(|x| x.depth).max().unwrap_or(1)
    }

    /// Failure breakdown: violating-endpoint count per cause class.
    pub fn failure_breakdown(&self) -> Vec<(FailureClass, usize)> {
        let mut counts = [
            (FailureClass::LongWire, 0usize),
            (FailureClass::DeepPath, 0),
            (FailureClass::WeakDrive, 0),
        ];
        let max_depth = self.max_depth();
        for e in self.endpoints.iter().filter(|e| e.setup_slack < Ps::ZERO) {
            let c = class_of(e, max_depth);
            for entry in counts.iter_mut() {
                if entry.0 == c {
                    entry.1 += 1;
                }
            }
        }
        counts.to_vec()
    }

    /// A slack histogram over `[lo, hi]` ps with the given bin count.
    pub fn slack_histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        for e in &self.endpoints {
            h.add(e.setup_slack.value());
        }
        h
    }

    /// One-line summary string for logs and harness output.
    pub fn summary(&self) -> String {
        format!(
            "WNS {:.1} ps | TNS {:.1} ps | setup viol {} | hold WNS {:.1} ps | hold viol {} | endpoints {}",
            self.wns().value(),
            self.tns().value(),
            self.setup_violations(),
            self.hold_wns().value(),
            self.hold_violations(),
            self.endpoints.len()
        )
    }
}

/// A violating endpoint's dominant cause, against the design's deepest
/// endpoint.
fn class_of(e: &EndpointTiming, max_depth: usize) -> FailureClass {
    if e.wire_fraction() > 0.45 {
        FailureClass::LongWire
    } else if e.depth * 10 >= max_depth * 8 {
        FailureClass::DeepPath
    } else {
        FailureClass::WeakDrive
    }
}

/// Worst setup slack over `endpoints` (+∞ over none). Reports, the
/// timer's borrowed rows and the closure and skew loops all reduce
/// through this one definition (and its siblings below).
pub fn wns<'e>(endpoints: impl Iterator<Item = &'e EndpointTiming>) -> Ps {
    endpoints.fold(Ps::new(f64::INFINITY), |w, e| w.min(e.setup_slack))
}

/// Worst hold slack over `endpoints` (+∞ over none).
pub fn hold_wns<'e>(endpoints: impl Iterator<Item = &'e EndpointTiming>) -> Ps {
    endpoints.fold(Ps::new(f64::INFINITY), |w, e| w.min(e.hold_slack))
}

/// Total negative setup slack over `endpoints`.
pub fn tns<'e>(endpoints: impl Iterator<Item = &'e EndpointTiming>) -> Ps {
    let violating = endpoints.map(|e| e.setup_slack).filter(|&s| s < Ps::ZERO);
    // `Sum` over nothing is IEEE −0.0; `+ 0.0` makes it +0.0 and leaves
    // every non-zero sum's bits alone.
    violating.sum::<Ps>() + Ps::ZERO
}

/// Number of setup-violating endpoints.
pub fn setup_violations<'e>(endpoints: impl Iterator<Item = &'e EndpointTiming>) -> usize {
    endpoints.filter(|e| e.setup_slack < Ps::ZERO).count()
}

/// Number of hold-violating endpoints.
pub fn hold_violations<'e>(endpoints: impl Iterator<Item = &'e EndpointTiming>) -> usize {
    endpoints.filter(|e| e.hold_slack < Ps::ZERO).count()
}

/// `true` if no endpoint violates setup or hold.
pub fn is_clean<'e>(mut endpoints: impl Iterator<Item = &'e EndpointTiming>) -> bool {
    !endpoints.any(|e| e.setup_slack < Ps::ZERO || e.hold_slack < Ps::ZERO)
}

/// The `k` worst setup endpoints among `endpoints`, most critical first
/// (stable: equal slacks keep report order). Reports, PBA and the
/// timer's path extraction all select through this one function.
pub(crate) fn k_worst<'e>(
    endpoints: impl Iterator<Item = &'e EndpointTiming>,
    k: usize,
) -> Vec<&'e EndpointTiming> {
    let mut v: Vec<&EndpointTiming> = endpoints.collect();
    v.sort_by(|a, b| a.setup_slack.value().total_cmp(&b.setup_slack.value()));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(slack: f64, hold: f64, depth: usize, gate: f64, wire: f64) -> EndpointTiming {
        EndpointTiming {
            endpoint: Endpoint::FlopD(CellId::new(0)),
            setup_slack: Ps::new(slack),
            hold_slack: Ps::new(hold),
            arrival: Ps::new(500.0),
            required: Ps::new(500.0 + slack),
            depth,
            gate_ps: gate,
            wire_ps: wire,
            data_slew: 30.0,
        }
    }

    #[test]
    fn wns_tns_and_counts() {
        let r = TimingReport::from_endpoints(
            vec![
                ep(-50.0, 10.0, 10, 300.0, 50.0),
                ep(-10.0, -5.0, 4, 100.0, 200.0),
                ep(30.0, 20.0, 6, 200.0, 40.0),
            ],
            Ps::new(1000.0),
        );
        assert_eq!(r.wns(), Ps::new(-50.0));
        assert_eq!(r.tns(), Ps::new(-60.0));
        assert_eq!(r.setup_violations(), 2);
        assert_eq!(r.hold_violations(), 1);
        assert_eq!(r.hold_wns(), Ps::new(-5.0));
        assert!(!r.is_clean());
        let worst = r.worst_endpoints(2);
        assert_eq!(worst[0].setup_slack, Ps::new(-50.0));
        assert_eq!(worst.len(), 2);
    }

    #[test]
    fn classification_by_cause() {
        let r = TimingReport::from_endpoints(
            vec![
                ep(-50.0, 10.0, 10, 300.0, 50.0), // deep (max depth)
                ep(-10.0, 10.0, 4, 100.0, 200.0), // wire-dominated
                ep(-5.0, 10.0, 3, 200.0, 20.0),   // shallow, gate-dominated
            ],
            Ps::new(1000.0),
        );
        assert_eq!(r.classify(&r.endpoints[0]), FailureClass::DeepPath);
        assert_eq!(r.classify(&r.endpoints[1]), FailureClass::LongWire);
        assert_eq!(r.classify(&r.endpoints[2]), FailureClass::WeakDrive);
        let breakdown = r.failure_breakdown();
        let total: usize = breakdown.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn clean_report() {
        let r = TimingReport::from_endpoints(vec![ep(5.0, 5.0, 3, 100.0, 10.0)], Ps::new(1000.0));
        assert!(r.is_clean());
        assert_eq!(r.tns(), Ps::ZERO);
        assert!(r.summary().contains("WNS 5.0"));
        assert!(r.summary().contains("TNS 0.0 ps"), "{}", r.summary());
    }

    #[test]
    fn histogram_covers_endpoints() {
        let r = TimingReport::from_endpoints(
            vec![ep(-20.0, 1.0, 3, 1.0, 1.0), ep(20.0, 1.0, 3, 1.0, 1.0)],
            Ps::new(1000.0),
        );
        let h = r.slack_histogram(-50.0, 50.0, 4);
        assert_eq!(h.counts().iter().sum::<usize>(), 2);
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized invariants driven by the in-tree deterministic RNG.

    use super::*;
    use tc_core::rng::Rng;

    fn random_endpoint(rng: &mut Rng) -> EndpointTiming {
        let setup = rng.uniform_in(-500.0, 500.0);
        EndpointTiming {
            endpoint: Endpoint::FlopD(CellId::new(rng.below(50))),
            setup_slack: Ps::new(setup),
            hold_slack: Ps::new(rng.uniform_in(-200.0, 500.0)),
            arrival: Ps::new(1000.0 - setup),
            required: Ps::new(1000.0),
            depth: 1 + rng.below(39),
            gate_ps: rng.uniform_in(0.0, 400.0),
            wire_ps: rng.uniform_in(0.0, 400.0),
            data_slew: 30.0,
        }
    }

    #[test]
    fn invariants_of_aggregates() {
        let mut rng = Rng::seed_from(0x4e9);
        for _ in 0..64 {
            let n = 1 + rng.below(39);
            let eps: Vec<EndpointTiming> = (0..n).map(|_| random_endpoint(&mut rng)).collect();
            let r = TimingReport::from_endpoints(eps.clone(), Ps::new(1000.0));
            // WNS is the min slack; TNS ≤ 0 and ≤ WNS when violating.
            let min = eps
                .iter()
                .map(|e| e.setup_slack)
                .fold(Ps::new(f64::INFINITY), Ps::min);
            assert_eq!(r.wns(), min);
            assert!(r.tns() <= Ps::ZERO);
            if r.wns() < Ps::ZERO {
                assert!(r.tns() <= r.wns());
                assert!(r.setup_violations() >= 1);
            } else {
                assert_eq!(r.tns(), Ps::ZERO);
                assert_eq!(r.setup_violations(), 0);
            }
            // worst_endpoints is sorted and bounded.
            let w = r.worst_endpoints(5);
            assert!(w.len() <= 5);
            for pair in w.windows(2) {
                assert!(pair[0].setup_slack <= pair[1].setup_slack);
            }
            // Breakdown covers exactly the violating endpoints.
            let total: usize = r.failure_breakdown().iter().map(|&(_, n)| n).sum();
            assert_eq!(total, r.setup_violations());
            // Histogram + outliers account for every endpoint.
            let h = r.slack_histogram(-500.0, 500.0, 10);
            assert_eq!(h.counts().iter().sum::<usize>() + h.outliers(), eps.len());
        }
    }
}
