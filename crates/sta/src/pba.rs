//! Path-based analysis (PBA) and worst-path extraction.
//!
//! GBA's arrival at each node is a bound over *all* paths, so per-stage
//! derates must assume the worst path shape (depth 1 for AOCV). PBA
//! extracts the actual critical path to an endpoint and re-derates it
//! with exact knowledge — true stage count for AOCV, exact RSS for
//! POCV/LVF — recovering pessimism at the cost of path enumeration
//! (the runtime/licensing tradeoff of §1.3). It has no stage model of
//! its own: it re-times the path through GBA's launch, derate and wire
//! functions at the path's depth. Under a depth-independent derate it
//! reproduces GBA's slack, and under an AOCV table that shrinks with
//! depth it can only recover, so PBA ≥ GBA holds by construction.
//!
//! Both are overlays on a timing state that already exists: an [`Sta`]
//! lends the one it filled, the [`Timer`](crate::Timer) the one it
//! edits, and the same backtrack reads either.

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, NetId};
use tc_core::units::Ps;
use tc_liberty::CellKind;

use crate::analysis::{pin_slew, Bound, Sta, TimingState};
use crate::report::{k_worst, Endpoint, EndpointTiming};

/// One extracted path stage (endpoint side first).
#[derive(Clone, Debug, PartialEq)]
pub struct PathStage {
    /// The driving cell of this stage.
    pub cell: CellId,
    /// Underated arc delay, ps.
    pub gate_delay: f64,
    /// Per-stage late sigma, ps (0 unless the derate is POCV or LVF).
    pub sigma: f64,
    /// Wire delay into this stage's sink pin, ps.
    pub wire_delay: f64,
}

/// PBA result for one endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct PbaEndpoint {
    /// Which endpoint.
    pub endpoint: Endpoint,
    /// Slack as GBA reported it.
    pub gba_slack: Ps,
    /// Slack after path-based re-analysis (never more pessimistic).
    pub pba_slack: Ps,
    /// True stage count of the extracted path.
    pub stages: usize,
}

impl PbaEndpoint {
    /// Pessimism recovered by PBA.
    pub fn recovered(&self) -> Ps {
        self.pba_slack - self.gba_slack
    }
}

/// Runs PBA on the `k` worst setup flop endpoints of the analysis
/// (primary outputs have no launch-to-capture path to re-derate).
///
/// # Errors
///
/// Propagates propagation failures; errors if path backtracking hits an
/// inconsistent predecessor chain (an internal bug).
pub fn pba_worst_endpoints(sta: &Sta<'_>, k: usize) -> Result<Vec<PbaEndpoint>> {
    let st = sta.propagate()?;
    let _span = tc_obs::span("sta.pba");
    let flops = st
        .rows()
        .iter()
        .filter(|e| matches!(e.endpoint, Endpoint::FlopD(_)));

    let mut stages_total = 0u64;
    let mut out = Vec::new();
    for ep in k_worst(flops, k) {
        let path = backtrack(sta, st, ep)?;
        let pba_slack = reevaluate(sta, st, ep, &path)?;
        let stages = path.stages.len() + 1; // + the launch c2q stage
        stages_total += stages as u64;
        out.push(PbaEndpoint {
            endpoint: ep.endpoint,
            gba_slack: ep.setup_slack,
            pba_slack,
            stages,
        });
    }
    tc_obs::counter("sta.pba.paths").add(out.len() as u64);
    tc_obs::counter("sta.pba.stages").add(stages_total);
    Ok(out)
}

/// A worst path to an endpoint: the stage list (endpoint-first) plus the
/// nets the path traverses — the raw material of the closure fix engine
/// (which cell to swap/upsize, which net to buffer or NDR).
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// The endpoint this path feeds.
    pub endpoint: Endpoint,
    /// GBA setup slack at the endpoint.
    pub slack: Ps,
    /// Path stages, endpoint side first.
    pub stages: Vec<PathStage>,
    /// Nets traversed (endpoint side first, including the endpoint net).
    pub nets: Vec<NetId>,
    /// Launching flop, if the path starts at one.
    pub launch_flop: Option<CellId>,
}

/// Extracts the worst path to each of the `k` worst setup endpoints.
///
/// # Errors
///
/// Propagates propagation failures; errors if backtracking hits an
/// inconsistent predecessor chain.
pub fn worst_paths(sta: &Sta<'_>, k: usize) -> Result<Vec<CriticalPath>> {
    let st = sta.propagate()?;
    paths_to(sta, st, k_worst(st.rows().iter(), k))
}

/// The worst path to each of `endpoints` over a lent timing state — an
/// [`Sta`]'s or the [`Timer`](crate::Timer)'s.
pub(crate) fn paths_to(
    sta: &Sta<'_>,
    st: &TimingState,
    endpoints: Vec<&EndpointTiming>,
) -> Result<Vec<CriticalPath>> {
    let _span = tc_obs::span("sta.worst_paths");
    let paths = endpoints
        .into_iter()
        .map(|ep| backtrack(sta, st, ep))
        .collect::<Result<Vec<_>>>()?;
    tc_obs::counter("sta.paths.extracted").add(paths.len() as u64);
    tc_obs::counter("sta.paths.stages").add(paths.iter().map(|p| p.stages.len() as u64 + 1).sum());
    Ok(paths)
}

/// Walks the late-predecessor breadcrumbs from an endpoint back to its
/// launch point, re-deriving each stage's GBA evaluation on the way. The
/// path ends at the launching flop, or at a primary input (no flop).
fn backtrack(sta: &Sta<'_>, st: &TimingState, ep: &EndpointTiming) -> Result<CriticalPath> {
    let (nl, lib) = (sta.nl, sta.lib);
    let (state, wires) = (&st.nets, &st.wires);
    let mut net = match ep.endpoint {
        Endpoint::FlopD(fid) => nl.cell_inputs(fid)[0],
        Endpoint::Output(net) => net,
    };
    let mut path = CriticalPath {
        endpoint: ep.endpoint,
        slack: ep.setup_slack,
        stages: Vec::new(),
        nets: vec![net],
        launch_flop: None,
    };
    for _ in 0..nl.cell_count() + 2 {
        let Some(driver) = nl.net_driver(net) else {
            return Ok(path); // primary input startpoint
        };
        let master = lib.cell(nl.cell_master(driver));
        if master.kind == CellKind::Flop {
            path.launch_flop = Some(driver);
            return Ok(path);
        }
        let ns = &state[net.index()];
        if !ns.reached {
            return Err(Error::internal("missing predecessor on critical path"));
        }
        let pred = usize::from(ns.late_pred_pin);
        let in_net = nl.cell_inputs(driver)[pred];
        // Reconstruct the GBA evaluation of this stage, at the point the
        // sweep located.
        let load = wires.driver_load(nl.cell_output(driver).index()).value();
        let wire = wires.delay(nl.pin_base(driver) + pred);
        let arc = master
            .arc_of_pin(pred)
            .ok_or_else(|| Error::internal("missing arc on critical path"))?;
        let at = arc
            .delay
            .locate(pin_slew(state[in_net.index()].late.slew, wire), load);
        let gate_delay = arc.delay.at(&at);
        let sigma = sta.stage_sigma(Bound::Late, driver, arc, &at, gate_delay);
        path.stages.push(PathStage {
            cell: driver,
            gate_delay,
            sigma,
            wire_delay: wire.value(),
        });
        path.nets.push(in_net);
        net = in_net;
    }
    Err(Error::internal("path backtrack did not terminate"))
}

/// Re-times one extracted path to a flop hop by hop, in GBA's
/// arithmetic and through GBA's own launch, derate and wire terms, with
/// every stage derated at the path's true depth.
fn reevaluate(
    sta: &Sta<'_>,
    st: &TimingState,
    ep: &EndpointTiming,
    path: &CriticalPath,
) -> Result<Ps> {
    let Endpoint::FlopD(capture) = ep.endpoint else {
        return Err(Error::internal("PBA re-times flop endpoints only"));
    };
    let wires = &st.wires;
    let depth = path.stages.len() + 1;
    let (mut t, mut var) = match path.launch_flop {
        Some(f) => {
            let load = wires.driver_load(sta.nl.cell_output(f).index()).value();
            let q = sta.launch(f, load, depth)?.late;
            (q.t, q.var)
        }
        None => (sta.cons.input_delay.value(), 0.0),
    };
    // Stages were collected endpoint-first, each beside the net feeding
    // it (`nets[i + 1]`); time them from the launch side. A wire hop adds
    // its late terms plus its net's SI delta on the mean.
    for (stage, net) in path.stages.iter().zip(&path.nets[1..]).rev() {
        let (wl, wvl, _, _) = sta.wire_terms(Ps::new(stage.wire_delay));
        let (dl, vl) = sta.derate(Bound::Late, stage.gate_delay, stage.sigma, depth);
        t = t + wl + wires.si_delta(net.index()) + dl;
        var = var + wvl + vl;
    }
    // The last hop, into the capturing flop's D pin.
    let d_net = path.nets[0];
    let wire = wires.delay(sta.nl.pin_base(capture));
    let (wl, wvl, _, _) = sta.wire_terms(wire);
    let t = t + wl + wires.si_delta(d_net.index());
    let var = var + wvl;
    Ok(Ps::new(
        ep.required.value() - (t + sta.k_sigma() * var.sqrt()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_interconnect::BeolStack;
    use tc_liberty::{AocvTable, DerateModel, LibConfig, Library, PocvSigma, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    use crate::constraints::Constraints;

    fn env() -> (Library, BeolStack) {
        (
            Library::generate(&LibConfig::default(), &PvtCorner::typical()),
            BeolStack::n20(),
        )
    }

    fn pocv() -> DerateModel {
        DerateModel::Pocv {
            sigma: PocvSigma::standard(),
            k: 3.0,
        }
    }

    /// PBA on the 50 worst flop endpoints of tiny and c5315 (seed 11,
    /// 900 ps) under `derate`, with SI off and on.
    fn pba_runs(derate: &DerateModel) -> Vec<(String, Vec<PbaEndpoint>)> {
        let (lib, stack) = env();
        let mut runs = Vec::new();
        for profile in [BenchProfile::tiny(), BenchProfile::c5315()] {
            let name = profile.name;
            let nl = generate(&lib, profile, 11).unwrap();
            for si in [false, true] {
                let mut cons = Constraints::single_clock(900.0).with_derate(derate.clone());
                cons.si_enabled = si;
                let results = pba_worst_endpoints(&Sta::new(&nl, &lib, &stack, &cons), 50).unwrap();
                assert!(!results.is_empty());
                runs.push((format!("{name} si={si} {derate:?}"), results));
            }
        }
        runs
    }

    #[test]
    fn pba_never_more_pessimistic_than_gba() {
        for derate in [
            DerateModel::None,
            DerateModel::classic_flat(),
            DerateModel::Aocv(AocvTable::from_stage_sigma(0.05)),
            pocv(),
            DerateModel::Lvf { k: 3.0 },
        ] {
            for (run, results) in pba_runs(&derate) {
                for r in &results {
                    assert!(
                        r.pba_slack.value() >= r.gba_slack.value() - 1e-9,
                        "pba {} < gba {} on {run}",
                        r.pba_slack,
                        r.gba_slack
                    );
                }
            }
        }
    }

    #[test]
    fn pba_equals_gba_where_derating_ignores_depth() {
        // Only AOCV's derate depends on depth; under every other model
        // PBA re-times the GBA path with the same stage terms.
        for derate in [
            DerateModel::None,
            DerateModel::classic_flat(),
            pocv(),
            DerateModel::Lvf { k: 3.0 },
        ] {
            for (run, results) in pba_runs(&derate) {
                for r in &results {
                    assert!(
                        (r.pba_slack.value() - r.gba_slack.value()).abs() <= 1e-9,
                        "pba {} != gba {} at {:?} on {run}",
                        r.pba_slack,
                        r.gba_slack,
                        r.endpoint
                    );
                }
            }
        }
    }

    #[test]
    fn aocv_pba_recovers_real_pessimism_on_deep_paths() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 11).unwrap();
        let cons = Constraints::single_clock(900.0)
            .with_derate(DerateModel::Aocv(AocvTable::from_stage_sigma(0.06)));
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        let results = pba_worst_endpoints(&sta, 10).unwrap();
        let recovered: f64 = results.iter().map(|r| r.recovered().value()).sum();
        assert!(
            recovered > 1.0,
            "AOCV PBA should recover pessimism, got {recovered}"
        );
        // Deeper paths recover more (statistical averaging).
        let deep = results.iter().max_by_key(|r| r.stages).unwrap();
        assert!(deep.recovered().value() > 0.0);
    }

    #[test]
    fn path_stage_counts_are_plausible() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 11).unwrap();
        let cons = Constraints::single_clock(900.0);
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        let results = pba_worst_endpoints(&sta, 5).unwrap();
        for r in &results {
            assert!(r.stages >= 1 && r.stages < 100, "stages {}", r.stages);
        }
    }

    #[test]
    fn overlays_after_run_equal_overlays_on_a_fresh_analysis() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 11).unwrap();
        let cons = Constraints::single_clock(900.0)
            .with_derate(DerateModel::Aocv(AocvTable::from_stage_sigma(0.06)));
        let fresh = || Sta::new(&nl, &lib, &stack, &cons);
        let slack_bits = |r: Vec<PbaEndpoint>| -> Vec<_> {
            r.iter()
                .map(|p| (p.endpoint, p.pba_slack.value().to_bits(), p.stages))
                .collect()
        };

        let sta = fresh();
        sta.run().unwrap();
        let after_run = pba_worst_endpoints(&sta, 10).unwrap();
        assert!(!after_run.is_empty());
        assert_eq!(
            slack_bits(after_run),
            slack_bits(pba_worst_endpoints(&fresh(), 10).unwrap())
        );
        assert_eq!(
            worst_paths(&sta, 10).unwrap(),
            worst_paths(&fresh(), 10).unwrap()
        );
    }
}
