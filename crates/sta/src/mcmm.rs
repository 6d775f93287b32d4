//! Multi-corner multi-mode (MCMM) scenario management.
//!
//! The paper's §2.3 "corner super-explosion": a complex SoC must close
//! timing at the cross product of functional/test modes, PVT corners and
//! BEOL extraction corners. Each [`Scenario`] bundles one point of that
//! product; [`merge_reports`] folds per-endpoint worst slacks across all
//! of them — the number signoff actually gates on.

// Cold report-merging path: runs once per MCMM sweep over endpoint
// reports, not inside any per-arc loop.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::Arc;

use tc_core::error::Result;
use tc_core::units::Ps;
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_liberty::Library;
use tc_netlist::Netlist;

use crate::analysis::Sta;
use crate::constraints::Constraints;
use crate::report::{Endpoint, TimingReport};
use crate::timer::TimingGraph;

/// One analysis scenario: a mode's constraints at a PVT corner (baked
/// into the library) and a BEOL extraction corner.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name, e.g. `func_SSG_0.81V_-30C_RCw`.
    pub name: String,
    /// Library characterized at this scenario's PVT corner.
    pub lib: Library,
    /// BEOL extraction corner.
    pub beol: BeolCorner,
    /// Mode constraints (period, derates, margins).
    pub constraints: Constraints,
}

/// Per-endpoint worst slack across scenarios, with attribution.
#[derive(Clone, Debug)]
pub struct MergedEndpoint {
    /// The endpoint.
    pub endpoint: Endpoint,
    /// Worst setup slack and the scenario that produced it.
    pub setup: (Ps, String),
    /// Worst hold slack and the scenario that produced it.
    pub hold: (Ps, String),
}

/// The merged signoff view across all scenarios.
#[derive(Clone, Debug)]
pub struct MergedReport {
    /// Per-endpoint worst data.
    pub endpoints: Vec<MergedEndpoint>,
}

impl MergedReport {
    /// Merged worst setup slack.
    pub fn wns(&self) -> Ps {
        self.endpoints
            .iter()
            .map(|e| e.setup.0)
            .fold(Ps::new(f64::INFINITY), Ps::min)
    }

    /// Merged worst hold slack.
    pub fn hold_wns(&self) -> Ps {
        self.endpoints
            .iter()
            .map(|e| e.hold.0)
            .fold(Ps::new(f64::INFINITY), Ps::min)
    }

    /// Count of endpoints violating in *any* scenario.
    pub fn violations(&self) -> usize {
        self.endpoints
            .iter()
            .filter(|e| e.setup.0 < Ps::ZERO || e.hold.0 < Ps::ZERO)
            .count()
    }

    /// How many endpoints each scenario dominates (is the worst for) —
    /// the data behind corner-pruning decisions: a scenario that
    /// dominates nothing is a candidate to drop (§2.3). Endpoints whose
    /// setup check was skipped in every scenario (no finite slack) carry
    /// no attribution and are not counted.
    pub fn dominance(&self) -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for e in &self.endpoints {
            if e.setup.1.is_empty() {
                continue;
            }
            *m.entry(e.setup.1.clone()).or_insert(0) += 1;
        }
        m
    }
}

/// Runs every scenario over one shared [`TimingGraph`]: the design's
/// connectivity does not vary across corners, so the levelization and
/// sink-index map are derived once instead of once per corner — the
/// fix for the corner super-explosion's *analysis* cost (§2.3). Each
/// corner runs under a `corner.<name>` tracing span.
///
/// Corners are independent given the shared structure, so each runs as
/// one task of `pool`. Results come back in scenario order regardless
/// of completion order, and the first failing corner (in scenario
/// order) wins error reporting — identical behavior to the sequential
/// loop.
///
/// # Errors
///
/// Propagates the first failing scenario run.
pub fn run_scenarios_shared_on(
    pool: tc_par::Pool,
    nl: &Netlist,
    stack: &BeolStack,
    scenarios: &[Scenario],
) -> Result<Vec<(String, TimingReport)>> {
    let Some(first) = scenarios.first() else {
        return Ok(Vec::new());
    };
    // Levelization depends only on which masters are flops, which is
    // identical across PVT-recharacterized libraries of one design.
    let graph = Arc::new(TimingGraph::build(nl, &first.lib)?);
    pool.scope_map(scenarios, |_, s| {
        let _span = tc_obs::span(&format!("corner.{}", s.name));
        let report = Sta::new(nl, &s.lib, stack, &s.constraints)
            .with_beol_corner(s.beol)
            .with_graph(Arc::clone(&graph))
            .run()?;
        Ok((s.name.clone(), report))
    })
    .into_iter()
    .collect()
}

/// Folds per-endpoint worst slacks across named reports.
///
/// Degenerate corners do not poison the merge: a report with zero
/// endpoints contributes nothing (counted on `mcmm.empty_reports`), and
/// a NaN setup or hold slack is skipped for that check (counted on
/// `mcmm.nonfinite_slacks`) rather than propagating into the merged
/// WNS/TNS. Non-NaN infinities are kept — `+inf` hold slack is the
/// legitimate "no hold check" marker at primary outputs.
pub fn merge_reports(reports: &[(String, TimingReport)]) -> MergedReport {
    let mut empty_reports = 0u64;
    let mut nonfinite = 0u64;
    let mut map: HashMap<Endpoint, MergedEndpoint> = HashMap::new();
    for (name, rep) in reports {
        if rep.endpoints.is_empty() {
            empty_reports += 1;
            continue;
        }
        for ep in rep.endpoints.iter() {
            let entry = map.entry(ep.endpoint).or_insert_with(|| MergedEndpoint {
                endpoint: ep.endpoint,
                setup: (Ps::new(f64::INFINITY), String::new()),
                hold: (Ps::new(f64::INFINITY), String::new()),
            });
            if ep.setup_slack.value().is_nan() {
                nonfinite += 1;
            } else if ep.setup_slack < entry.setup.0 {
                entry.setup = (ep.setup_slack, name.clone());
            }
            if ep.hold_slack.value().is_nan() {
                nonfinite += 1;
            } else if ep.hold_slack < entry.hold.0 {
                entry.hold = (ep.hold_slack, name.clone());
            }
        }
    }
    if empty_reports > 0 {
        tc_obs::counter("mcmm.empty_reports").add(empty_reports);
    }
    if nonfinite > 0 {
        tc_obs::counter("mcmm.nonfinite_slacks").add(nonfinite);
    }
    // Equal slacks fall back to report order, so the merge is
    // deterministic regardless of hash order.
    let mut endpoints: Vec<MergedEndpoint> = map.into_values().collect();
    endpoints.sort_by(|a, b| {
        a.setup
            .0
            .value()
            .total_cmp(&b.setup.0.value())
            .then_with(|| a.endpoint.cmp(&b.endpoint))
    });
    MergedReport { endpoints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    impl Scenario {
        /// The fresh-analysis reference: one `Sta` for this scenario.
        fn run(&self, nl: &Netlist, stack: &BeolStack) -> Result<TimingReport> {
            Sta::new(nl, &self.lib, stack, &self.constraints)
                .with_beol_corner(self.beol)
                .run()
        }
    }

    #[test]
    fn merged_wns_is_worst_of_scenarios() {
        let cfg = LibConfig::default();
        let lib_typ = Library::generate(&cfg, &PvtCorner::typical());
        let nl = generate(&lib_typ, BenchProfile::tiny(), 3).unwrap();
        let stack = BeolStack::n20();

        let scenarios = vec![
            Scenario {
                name: "typ".to_string(),
                lib: lib_typ.clone(),
                beol: BeolCorner::Typical,
                constraints: Constraints::single_clock(900.0),
            },
            Scenario {
                name: "slow_rcw".to_string(),
                lib: Library::generate(&cfg, &PvtCorner::slow_cold()),
                beol: BeolCorner::RcWorst,
                constraints: Constraints::single_clock(900.0),
            },
        ];
        let merged = merge_reports(
            &run_scenarios_shared_on(tc_par::Pool::from_env(), &nl, &stack, &scenarios).unwrap(),
        );
        let typ = scenarios[0].run(&nl, &stack).unwrap();
        let slow = scenarios[1].run(&nl, &stack).unwrap();
        assert_eq!(merged.wns(), typ.wns().min(slow.wns()));
        // The slow corner should dominate setup on most endpoints.
        let dom = merged.dominance();
        assert!(dom.get("slow_rcw").copied().unwrap_or(0) > dom.get("typ").copied().unwrap_or(0));
    }

    #[test]
    fn merge_attributes_scenarios() {
        let cfg = LibConfig::default();
        let lib = Library::generate(&cfg, &PvtCorner::typical());
        let nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let stack = BeolStack::n20();
        let fast = Scenario {
            name: "fast".to_string(),
            lib: Library::generate(&cfg, &PvtCorner::fast_cold()),
            beol: BeolCorner::CBest,
            constraints: Constraints::single_clock(900.0),
        };
        let r = fast.run(&nl, &stack).unwrap();
        let checked = r.endpoints.len();
        let merged = merge_reports(&[("fast".to_string(), r)]);
        assert!(merged.endpoints.iter().all(|e| e.setup.1 == "fast"));
        assert_eq!(merged.endpoints.len(), checked);
        assert!(merged.violations() <= merged.endpoints.len());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use tc_core::ids::CellId;
    use tc_core::units::Ps;

    fn ep(id: usize, setup: f64, hold: f64) -> crate::report::EndpointTiming {
        crate::report::EndpointTiming {
            endpoint: Endpoint::FlopD(CellId::new(id)),
            setup_slack: Ps::new(setup),
            hold_slack: Ps::new(hold),
            arrival: Ps::new(100.0),
            required: Ps::new(100.0 + setup),
            depth: 3,
            gate_ps: 80.0,
            wire_ps: 20.0,
            data_slew: 30.0,
        }
    }

    fn report(eps: Vec<crate::report::EndpointTiming>) -> TimingReport {
        TimingReport::from_endpoints(eps, Ps::new(1000.0))
    }

    #[test]
    fn merge_takes_worst_per_check_independently() {
        // Scenario A is worse for setup on ep0; B is worse for hold.
        let a = report(vec![ep(0, -30.0, 50.0)]);
        let b = report(vec![ep(0, 10.0, -5.0)]);
        let merged = merge_reports(&[("a".into(), a), ("b".into(), b)]);
        assert_eq!(merged.endpoints.len(), 1);
        let e = &merged.endpoints[0];
        assert_eq!(e.setup.0, Ps::new(-30.0));
        assert_eq!(e.setup.1, "a");
        assert_eq!(e.hold.0, Ps::new(-5.0));
        assert_eq!(e.hold.1, "b");
        assert_eq!(merged.violations(), 1);
    }

    #[test]
    fn merge_handles_disjoint_endpoint_sets() {
        // A scenario may skip endpoints (false paths, mode gating).
        let a = report(vec![ep(0, 5.0, 5.0), ep(1, -2.0, 9.0)]);
        let b = report(vec![ep(1, -8.0, 9.0), ep(2, 3.0, 3.0)]);
        let merged = merge_reports(&[("a".into(), a), ("b".into(), b)]);
        assert_eq!(merged.endpoints.len(), 3);
        assert_eq!(merged.wns(), Ps::new(-8.0));
        // Sorted worst-first.
        assert!(merged.endpoints[0].setup.0 <= merged.endpoints[1].setup.0);
    }

    #[test]
    fn degenerate_reports_do_not_poison_merge() {
        // A zero-endpoint corner and a NaN-slack corner ride along with a
        // healthy one; the merged WNS/TNS must come from the healthy one.
        let healthy = report(vec![ep(0, -3.0, 4.0)]);
        let empty = report(vec![]);
        let nan = report(vec![ep(0, f64::NAN, f64::NAN)]);
        let merged = merge_reports(&[
            ("ok".into(), healthy),
            ("empty".into(), empty),
            ("nan".into(), nan),
        ]);
        assert_eq!(merged.endpoints.len(), 1);
        assert_eq!(merged.wns(), Ps::new(-3.0));
        assert_eq!(merged.hold_wns(), Ps::new(4.0));
        assert_eq!(merged.endpoints[0].setup.1, "ok");
        assert!(!merged.dominance().contains_key("nan"));
    }

    #[test]
    fn endpoints_with_only_nan_slacks_carry_no_attribution() {
        let nan_only = report(vec![ep(7, f64::NAN, f64::NAN)]);
        let merged = merge_reports(&[("nan".into(), nan_only)]);
        assert_eq!(merged.endpoints.len(), 1);
        assert!(merged.endpoints[0].setup.1.is_empty());
        // Unattributed endpoints are excluded from dominance counts.
        assert!(merged.dominance().is_empty());
    }

    #[test]
    fn merge_order_is_deterministic_under_slack_ties() {
        // Equal slacks everywhere: order must fall back to endpoint ids,
        // not HashMap iteration order.
        let a = report(vec![ep(2, 1.0, 5.0), ep(0, 1.0, 5.0), ep(1, 1.0, 5.0)]);
        let merged = merge_reports(&[("a".into(), a)]);
        let ids: Vec<Endpoint> = merged.endpoints.iter().map(|e| e.endpoint).collect();
        assert_eq!(
            ids,
            vec![
                Endpoint::FlopD(CellId::new(0)),
                Endpoint::FlopD(CellId::new(1)),
                Endpoint::FlopD(CellId::new(2)),
            ]
        );
    }

    #[test]
    fn dominance_counts_sum_to_endpoints() {
        let a = report(vec![ep(0, -1.0, 5.0), ep(1, 2.0, 5.0)]);
        let b = report(vec![ep(0, 4.0, 5.0), ep(1, -9.0, 5.0)]);
        let merged = merge_reports(&[("a".into(), a), ("b".into(), b)]);
        let dom = merged.dominance();
        let total: usize = dom.values().sum();
        assert_eq!(total, merged.endpoints.len());
        assert_eq!(dom["a"], 1);
        assert_eq!(dom["b"], 1);
    }
}
