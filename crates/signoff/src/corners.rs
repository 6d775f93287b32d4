//! Corner enumeration and the "corner super-explosion" (§2.3).

use tc_core::error::Result;
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_liberty::{ProcessCorner, PvtCorner};
use tc_netlist::Netlist;
use tc_sta::mcmm::{merge_reports, MergedReport, Scenario};

/// A functional or test mode.
#[derive(Clone, Debug, PartialEq)]
pub struct Mode {
    /// Mode name ("func", "scan_shift", "bist", "overdrive"…).
    pub name: String,
    /// Clock period of the mode, ps.
    pub period_ps: f64,
    /// Test modes get relaxed signoff but still need corners.
    pub is_test: bool,
}

impl Mode {
    /// A functional mode.
    pub fn functional(name: impl Into<String>, period_ps: f64) -> Self {
        Mode {
            name: name.into(),
            period_ps,
            is_test: false,
        }
    }

    /// A test mode.
    pub fn test(name: impl Into<String>, period_ps: f64) -> Self {
        Mode {
            name: name.into(),
            period_ps,
            is_test: true,
        }
    }
}

/// The cross product a full signoff must cover.
#[derive(Clone, Debug)]
pub struct CornerSpace {
    /// Functional/test modes.
    pub modes: Vec<Mode>,
    /// FEOL PVT corners.
    pub pvt: Vec<PvtCorner>,
    /// BEOL extraction corners.
    pub beol: Vec<BeolCorner>,
    /// Aging assumptions analyzed (fresh / end-of-life …).
    pub aging_points: usize,
    /// Independently-scalable voltage domains; asynchronous interfaces
    /// force cross-domain analyses growing with the pair count.
    pub voltage_domains: usize,
}

/// One enumerated analysis view.
#[derive(Clone, Debug, PartialEq)]
pub struct CornerPoint {
    /// Name, e.g. `func@SSG_0.81V_-30C@RCw`.
    pub name: String,
    /// Mode index.
    pub mode: usize,
    /// PVT corner.
    pub pvt: PvtCorner,
    /// BEOL corner.
    pub beol: BeolCorner,
}

impl CornerSpace {
    /// A 65 nm-era space: one mode pair, 3 PVTs, 3 BEOLs, no aging
    /// views, one domain — the "old game".
    pub fn n65_classic() -> Self {
        CornerSpace {
            modes: vec![
                Mode::functional("func", 1_250.0),
                Mode::test("scan", 5_000.0),
            ],
            pvt: vec![
                PvtCorner::typical(),
                PvtCorner::slow_cold(),
                PvtCorner::fast_cold(),
            ],
            beol: vec![BeolCorner::Typical, BeolCorner::CWorst, BeolCorner::CBest],
            aging_points: 1,
            voltage_domains: 1,
        }
    }

    /// A 16 nm SoC space: overdrive/underdrive modes, temperature
    /// inversion forcing hot+cold at low V, cross-corners for clocks,
    /// all seven BEOL corners, aging views, many domains.
    pub fn n16_soc() -> Self {
        use tc_core::units::{Celsius, Volt};
        let mut pvt = Vec::new();
        for &p in &[
            ProcessCorner::Ssg,
            ProcessCorner::Ffg,
            ProcessCorner::Tt,
            ProcessCorner::Sf,
            ProcessCorner::Fs,
        ] {
            for &v in &[0.72, 0.80, 0.90, 1.05] {
                for &t in &[-40.0, 25.0, 125.0] {
                    pvt.push(PvtCorner {
                        process: p,
                        voltage: Volt::new(v),
                        temperature: Celsius::new(t),
                    });
                }
            }
        }
        CornerSpace {
            modes: vec![
                Mode::functional("func_nominal", 800.0),
                Mode::functional("func_overdrive", 600.0),
                Mode::functional("func_underdrive", 1_600.0),
                Mode::test("scan_shift", 5_000.0),
                Mode::test("scan_atspeed", 800.0),
                Mode::test("bist", 1_000.0),
            ],
            pvt,
            beol: BeolCorner::ALL.to_vec(),
            aging_points: 2,
            voltage_domains: 8,
        }
    }

    /// Total analysis views before any pruning. Cross-domain interfaces
    /// add one view per ordered domain pair on top of the base product.
    pub fn count(&self) -> usize {
        let base = self.modes.len() * self.pvt.len() * self.beol.len() * self.aging_points;
        let cross = self.voltage_domains * self.voltage_domains.saturating_sub(1);
        base + cross * self.modes.iter().filter(|m| !m.is_test).count()
    }

    /// Enumerates the base product (without cross-domain views).
    pub fn enumerate(&self) -> Vec<CornerPoint> {
        let mut out = Vec::with_capacity(self.count());
        for (mi, m) in self.modes.iter().enumerate() {
            for &pvt in &self.pvt {
                for &beol in &self.beol {
                    out.push(CornerPoint {
                        name: format!("{}@{}@{}", m.name, pvt.label(), beol),
                        mode: mi,
                        pvt,
                        beol,
                    });
                }
            }
        }
        out
    }
}

/// Runs a full scenario set and merges the reports, with per-corner
/// observability: the whole sweep runs under a `signoff.corners` span,
/// each scenario under a `corner.<name>` child span, and the
/// `signoff.corners` counter tallies scenarios analyzed — the raw data
/// behind "how much of signoff is corner runtime" (§2.3).
///
/// All corners share one timing-graph structure (levelization and
/// sink-index maps are corner-invariant), so the per-corner cost is pure
/// propagation — see `tc_sta::mcmm::run_scenarios_shared_on`.
///
/// Corners run as tasks of `pool` (`Pool::from_env()` for the
/// environment's width; tests pin the worker count instead of mutating
/// `TC_PAR_THREADS`). Per-corner `corner.<name>` spans keep their
/// `signoff.corners` parent even when the corner runs on a pool worker.
///
/// # Errors
///
/// Propagates the first failing scenario run.
pub fn run_corner_set_on(
    pool: tc_par::Pool,
    nl: &Netlist,
    stack: &BeolStack,
    scenarios: &[Scenario],
) -> Result<MergedReport> {
    let _span = tc_obs::span("signoff.corners");
    let reports = tc_sta::mcmm::run_scenarios_shared_on(pool, nl, stack, scenarios)?;
    tc_obs::counter("signoff.corners").add(scenarios.len() as u64);
    Ok(merge_reports(&reports))
}

/// Scenario pruning by dominance: keep only scenarios that are the worst
/// setup or hold corner for at least `min_endpoints` endpoints in a
/// merged MCMM report (a never-dominant corner adds runtime, not
/// coverage — §2.3's "pruning of corners is difficult" becomes a data
/// question).
pub fn prune_by_dominance(merged: &MergedReport, min_endpoints: usize) -> Vec<String> {
    use std::collections::HashMap;
    let mut wins: HashMap<&str, usize> = HashMap::new();
    for e in &merged.endpoints {
        // Endpoints with an unbounded check (e.g. hold at outputs) carry
        // no attribution; skip the empty name.
        if !e.setup.1.is_empty() {
            *wins.entry(e.setup.1.as_str()).or_insert(0) += 1;
        }
        if !e.hold.1.is_empty() {
            *wins.entry(e.hold.1.as_str()).or_insert(0) += 1;
        }
    }
    let mut keep: Vec<String> = wins
        .into_iter()
        .filter(|&(_, n)| n >= min_endpoints)
        .map(|(k, _)| k.to_string())
        .collect();
    keep.sort();
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_interconnect::BeolStack;
    use tc_liberty::{LibConfig, Library};
    use tc_netlist::gen::{generate, BenchProfile};
    use tc_par::Pool;
    use tc_sta::mcmm::Scenario;
    use tc_sta::Constraints;

    #[test]
    fn corner_counts_explode_across_nodes() {
        let old = CornerSpace::n65_classic();
        let new = CornerSpace::n16_soc();
        assert!(old.count() < 25, "65 nm: {}", old.count());
        assert!(
            new.count() > 40 * old.count(),
            "16 nm must explode: {} vs {}",
            new.count(),
            old.count()
        );
    }

    #[test]
    fn enumeration_matches_base_product() {
        let s = CornerSpace::n65_classic();
        let pts = s.enumerate();
        assert_eq!(pts.len(), 2 * 3 * 3);
        assert!(pts[0].name.contains('@'));
        // Names are unique.
        let mut names: Vec<&str> = pts.iter().map(|p| p.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), pts.len());
    }

    #[test]
    fn run_corner_set_merges_and_records_per_corner_spans() {
        let cfg = LibConfig::default();
        let lib_typ = Library::generate(&cfg, &PvtCorner::typical());
        let nl = generate(&lib_typ, BenchProfile::tiny(), 8).unwrap();
        let stack = BeolStack::n20();
        let scenarios = vec![
            Scenario {
                name: "typ".into(),
                lib: lib_typ.clone(),
                beol: BeolCorner::Typical,
                constraints: Constraints::single_clock(900.0),
            },
            Scenario {
                name: "slow".into(),
                lib: Library::generate(&cfg, &PvtCorner::slow_cold()),
                beol: BeolCorner::RcWorst,
                constraints: Constraints::single_clock(900.0),
            },
        ];
        tc_obs::enable();
        let merged = run_corner_set_on(Pool::from_env(), &nl, &stack, &scenarios).unwrap();
        let expected = merge_reports(
            &tc_sta::mcmm::run_scenarios_shared_on(Pool::new(1), &nl, &stack, &scenarios).unwrap(),
        );
        assert_eq!(merged.wns(), expected.wns());

        // Other tests in this process may record concurrently, so assert
        // presence and lower bounds rather than exact totals.
        let snap = tc_obs::snapshot();
        assert!(snap.counter("signoff.corners") >= scenarios.len() as u64);
        assert!(snap.span("signoff.corners").is_some());
        for name in ["typ", "slow"] {
            let path = format!("signoff.corners/corner.{name}");
            let s = snap.span(&path).unwrap_or_else(|| panic!("missing {path}"));
            assert!(s.count >= 1);
        }
    }

    #[test]
    fn degenerate_corner_does_not_poison_merged_wns() {
        use tc_core::ids::NetId;

        let cfg = LibConfig::default();
        let lib = Library::generate(&cfg, &PvtCorner::typical());
        // A design with no primary outputs: false-pathing every flop
        // leaves a corner with zero endpoints.
        let mut nl = tc_netlist::Netlist::new("no_po");
        let clk = nl.add_input("clk");
        let d0 = nl.add_input("d0");
        let dff = lib.variant("DFF", tc_device::VtClass::Svt, 1.0).unwrap();
        let inv = lib.variant("INV", tc_device::VtClass::Svt, 2.0).unwrap();
        let (_, q) = nl.add_cell("ff0", &lib, dff, &[d0, clk]).unwrap();
        let (_, x) = nl.add_cell("i0", &lib, inv, &[q]).unwrap();
        let (_, _q1) = nl.add_cell("ff1", &lib, dff, &[x, clk]).unwrap();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 10.0);
        }

        let mut waived = Constraints::single_clock(900.0);
        for fid in nl.flops(&lib) {
            waived.exceptions.false_path_to(fid);
        }
        let scenarios = vec![
            Scenario {
                name: "ok".into(),
                lib: lib.clone(),
                beol: BeolCorner::Typical,
                constraints: Constraints::single_clock(900.0),
            },
            Scenario {
                name: "degenerate".into(),
                lib: lib.clone(),
                beol: BeolCorner::Typical,
                constraints: waived,
            },
        ];
        tc_obs::enable();
        let before = tc_obs::snapshot().counter("mcmm.empty_reports");
        let merged =
            run_corner_set_on(Pool::from_env(), &nl, &BeolStack::n20(), &scenarios).unwrap();
        // The healthy corner's slacks survive untouched; the degenerate
        // corner contributes nothing and is counted, not propagated.
        assert!(merged.wns().value().is_finite());
        assert!(merged.endpoints.iter().all(|e| e.setup.1 == "ok"));
        assert!(tc_obs::snapshot().counter("mcmm.empty_reports") > before);
    }

    #[test]
    fn dominance_pruning_drops_covered_corners() {
        let cfg = LibConfig::default();
        let lib_typ = Library::generate(&cfg, &PvtCorner::typical());
        let nl = generate(&lib_typ, BenchProfile::tiny(), 6).unwrap();
        let stack = BeolStack::n20();
        let scenarios = vec![
            Scenario {
                name: "slow".into(),
                lib: Library::generate(&cfg, &PvtCorner::slow_cold()),
                beol: BeolCorner::RcWorst,
                constraints: Constraints::single_clock(900.0),
            },
            Scenario {
                name: "typ".into(),
                lib: lib_typ.clone(),
                beol: BeolCorner::Typical,
                constraints: Constraints::single_clock(900.0),
            },
            Scenario {
                name: "fast".into(),
                lib: Library::generate(&cfg, &PvtCorner::fast_cold()),
                beol: BeolCorner::CBest,
                constraints: Constraints::single_clock(900.0),
            },
        ];
        let merged = run_corner_set_on(Pool::from_env(), &nl, &stack, &scenarios).unwrap();
        let kept = prune_by_dominance(&merged, 3);
        // The slow corner must survive (it dominates setup), and the
        // typical corner should be pruned (dominated on both checks).
        assert!(kept.contains(&"slow".to_string()));
        assert!(!kept.contains(&"typ".to_string()), "kept: {kept:?}");
    }
}
