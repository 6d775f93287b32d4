//! Path-based analysis (PBA) and worst-path extraction.
//!
//! GBA's arrival at each node is a bound over *all* paths, so per-stage
//! derates must assume the worst path shape (depth 1 for AOCV). PBA
//! extracts the actual critical path to an endpoint and re-derates it
//! with exact knowledge — true stage count for AOCV, exact RSS for
//! POCV/LVF — recovering pessimism at the cost of path enumeration
//! (the runtime/licensing tradeoff of §1.3).
//!
//! Both are overlays on a timing state that already exists: an [`Sta`]
//! lends the one it filled, the [`Timer`](crate::Timer) the one it
//! edits, and the same backtrack reads either.

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, NetId};
use tc_core::units::Ps;
use tc_liberty::{CellKind, DerateModel};

use crate::analysis::{Sta, TimingState, WireTable};
use crate::report::{k_worst, Endpoint, EndpointTiming};

/// One extracted path stage (endpoint side first).
#[derive(Clone, Debug, PartialEq)]
pub struct PathStage {
    /// The driving cell of this stage.
    pub cell: CellId,
    /// Undereated arc delay, ps.
    pub gate_delay: f64,
    /// Per-stage late sigma, ps.
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
    let k_sigma = sta.k_sigma();
    let flops = st
        .rows()
        .iter()
        .filter(|e| matches!(e.endpoint, Endpoint::FlopD(_)));

    let mut stages_total = 0u64;
    let mut out = Vec::new();
    for ep in k_worst(flops, k) {
        let path = backtrack(sta, st, ep)?;
        let pba_slack = reevaluate(sta, ep, &path, &st.wires, k_sigma)?;
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
        Endpoint::FlopD(fid) => nl.cell(fid).inputs[0],
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
        let Some(driver) = nl.net(net).driver else {
            return Ok(path); // primary input startpoint
        };
        let cell = nl.cell(driver);
        let master = lib.cell(cell.master);
        if master.kind == CellKind::Flop {
            path.launch_flop = Some(driver);
            return Ok(path);
        }
        let pred = state[net.index()]
            .late_pred_pin
            .ok_or_else(|| Error::internal("missing predecessor on critical path"))?;
        let in_net = cell.inputs[pred];
        // Reconstruct the GBA evaluation of this stage.
        let load = wires.driver_load(cell.output.index()).value();
        let sink_idx = st.graph.sink_pos(nl, driver, pred);
        let wire = wires.delay(in_net.index(), sink_idx).value();
        let pin_slew = state[in_net.index()].late.slew + 0.25 * wire;
        let pin_name = master.input_pins()[pred];
        let arc = master
            .arc_from(pin_name)
            .ok_or_else(|| Error::internal("missing arc on critical path"))?;
        let gate_delay = arc.delay.eval(pin_slew, load);
        let sigma = match &sta.cons.derate {
            DerateModel::Pocv { sigma, .. } => sigma.late * gate_delay,
            DerateModel::Lvf { .. } => arc
                .lvf
                .as_ref()
                .map(|l| l.sigma_late.eval(pin_slew, load))
                .unwrap_or(master.pocv.late * gate_delay),
            _ => 0.0,
        };
        path.stages.push(PathStage {
            cell: driver,
            gate_delay,
            sigma,
            wire_delay: wire,
        });
        path.nets.push(in_net);
        net = in_net;
    }
    Err(Error::internal("path backtrack did not terminate"))
}

/// Re-derates one extracted path with its true depth and RSS variance.
fn reevaluate(
    sta: &Sta<'_>,
    ep: &EndpointTiming,
    path: &CriticalPath,
    wires: &WireTable,
    k: f64,
) -> Result<Ps> {
    let depth = path.stages.len() + 1;

    // Launch clock + c2q of the launching flop.
    let mut t;
    let mut var = 0.0;
    match path.launch_flop {
        Some(f) => {
            let (ck_late, _) = sta.clock_arrivals(f);
            let master = sta.lib.cell(sta.nl.cell(f).master);
            let arc = master
                .arc_from("CK")
                .ok_or_else(|| Error::internal("flop without CK arc"))?;
            let cs = sta.cons.clock_tree.clock_slew;
            let load = wires.driver_load(sta.nl.cell(f).output.index()).value();
            let raw = arc.delay.eval(cs, load);
            let (d, v) = derate_stage(sta, raw, depth, || {
                arc.lvf
                    .as_ref()
                    .map(|l| l.sigma_late.eval(cs, load))
                    .unwrap_or(master.pocv.late * raw)
            });
            t = ck_late + d;
            var += v;
        }
        None => {
            t = sta.cons.input_delay.value();
        }
    }

    // Stages were collected endpoint-first; accumulate from launch side.
    // Wires take GBA's derate terms: `(late ps, late variance, ..)`.
    let wire = |w: f64| sta.wire_terms(Ps::new(w));
    for st in path.stages.iter().rev() {
        let (d, v) = derate_stage(sta, st.gate_delay, depth, || st.sigma);
        let (wl, wv, _, _) = wire(st.wire_delay);
        t += wl + d;
        var += v + wv;
    }
    // Final hop into the endpoint D pin: the difference between the
    // endpoint's total (derated) wire time and the path-internal segments.
    let path_wire: f64 = path.stages.iter().map(|s| wire(s.wire_delay).0).sum();
    let last_wire = (ep.wire_ps - path_wire).max(0.0);
    t += last_wire;
    var += wire(last_wire).1;

    let arrival = t + k * var.sqrt();
    let required = ep.required.value();
    Ok(Ps::new(required - arrival))
}

fn derate_stage(
    sta: &Sta<'_>,
    raw: f64,
    path_depth: usize,
    sigma_of: impl Fn() -> f64,
) -> (f64, f64) {
    match &sta.cons.derate {
        DerateModel::None => (raw, 0.0),
        DerateModel::Flat { late, .. } => (raw * late, 0.0),
        DerateModel::Aocv(tbl) => (raw * tbl.late_derate(path_depth, 0.0), 0.0),
        DerateModel::Pocv { .. } | DerateModel::Lvf { .. } => {
            let s = sigma_of();
            (raw, s * s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_interconnect::BeolStack;
    use tc_liberty::{AocvTable, LibConfig, Library, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    use crate::constraints::Constraints;

    fn env() -> (Library, BeolStack) {
        (
            Library::generate(&LibConfig::default(), &PvtCorner::typical()),
            BeolStack::n20(),
        )
    }

    #[test]
    fn pba_never_more_pessimistic_than_gba() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 11).unwrap();
        for derate in [
            DerateModel::None,
            DerateModel::classic_flat(),
            DerateModel::Aocv(AocvTable::from_stage_sigma(0.05)),
            DerateModel::Lvf { k: 3.0 },
        ] {
            let cons = Constraints::single_clock(900.0).with_derate(derate.clone());
            let sta = Sta::new(&nl, &lib, &stack, &cons);
            let results = pba_worst_endpoints(&sta, 10).unwrap();
            assert!(!results.is_empty());
            for r in &results {
                assert!(
                    r.pba_slack.value() >= r.gba_slack.value() - 0.3,
                    "pba {} < gba {} under {derate:?}",
                    r.pba_slack,
                    r.gba_slack
                );
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
