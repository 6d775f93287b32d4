//! Path-based analysis (PBA).
//!
//! GBA's arrival at each node is a bound over *all* paths, so per-stage
//! derates must assume the worst path shape (depth 1 for AOCV). PBA
//! extracts the actual critical path to an endpoint and re-derates it
//! with exact knowledge — true stage count for AOCV, exact RSS for
//! POCV/LVF — recovering pessimism at the cost of path enumeration
//! (the runtime/licensing tradeoff of §1.3).

use tc_core::error::{Error, Result};
use tc_core::ids::CellId;
use tc_core::units::Ps;
use tc_liberty::{CellKind, DerateModel};

use crate::analysis::Sta;
use crate::report::{Endpoint, EndpointTiming};

/// One extracted path stage (endpoint side first).
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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

/// Runs PBA on the `k` worst setup endpoints of a GBA run.
///
/// # Errors
///
/// Propagates propagation failures; errors if path backtracking hits an
/// inconsistent predecessor chain (an internal bug).
pub fn pba_worst_endpoints(sta: &Sta<'_>, k: usize) -> Result<Vec<PbaEndpoint>> {
    let (state, wires) = sta.propagate()?;
    let report = sta.report_from(&state, &wires)?;
    let _span = tc_obs::span("sta.pba");
    let k_sigma = sta.k_sigma();

    let mut stages_total = 0u64;
    let mut out = Vec::new();
    for ep in worst_flop_endpoints(&report, k) {
        let Endpoint::FlopD(fid) = ep.endpoint else {
            continue;
        };
        let (path, launch_flop) = extract_path(sta, &state, &wires, fid)?;
        let pba_slack = reevaluate(sta, ep, &path, launch_flop, &wires, k_sigma)?;
        stages_total += path.len() as u64 + 1;
        out.push(PbaEndpoint {
            endpoint: ep.endpoint,
            gba_slack: ep.setup_slack,
            pba_slack,
            stages: path.len() + 1, // + the launch c2q stage
        });
    }
    tc_obs::counter("sta.pba.paths").add(out.len() as u64);
    tc_obs::counter("sta.pba.stages").add(stages_total);
    Ok(out)
}

/// A worst path to an endpoint: the stage list (endpoint-first) plus the
/// nets the path traverses — the raw material of the closure fix engine
/// (which cell to swap/upsize, which net to buffer or NDR).
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// The endpoint this path feeds.
    pub endpoint: Endpoint,
    /// GBA setup slack at the endpoint.
    pub slack: Ps,
    /// Path stages, endpoint side first.
    pub stages: Vec<PathStage>,
    /// Nets traversed (endpoint side first, including the endpoint net).
    pub nets: Vec<tc_core::ids::NetId>,
    /// Launching flop, if the path starts at one.
    pub launch_flop: Option<CellId>,
}

/// Extracts the worst path to each of the `k` worst setup endpoints.
///
/// # Errors
///
/// Propagates propagation failures.
/// The `k` worst *flop* endpoints (primary outputs have no sequential
/// endpoint to backtrack from and are excluded).
fn worst_flop_endpoints(report: &crate::report::TimingReport, k: usize) -> Vec<&EndpointTiming> {
    let mut v: Vec<&EndpointTiming> = report
        .endpoints
        .iter()
        .filter(|e| matches!(e.endpoint, Endpoint::FlopD(_)))
        .collect();
    v.sort_by(|a, b| a.setup_slack.value().total_cmp(&b.setup_slack.value()));
    v.truncate(k);
    v
}

/// Extracts the worst path to each of the `k` worst setup endpoints —
/// the work list of the closure fix engine.
///
/// # Errors
///
/// Propagates propagation failures.
pub fn worst_paths(sta: &Sta<'_>, k: usize) -> Result<Vec<CriticalPath>> {
    let (state, wires) = sta.propagate()?;
    let report = sta.report_from(&state, &wires)?;
    worst_paths_from(sta, &report, &state, &wires, k)
}

/// [`worst_paths`] over already-propagated state — how the persistent
/// timer extracts paths without re-running STA.
///
/// # Errors
///
/// Errors if backtracking hits an inconsistent predecessor chain.
pub(crate) fn worst_paths_from(
    sta: &Sta<'_>,
    report: &crate::report::TimingReport,
    state: &[crate::analysis::NetState],
    wires: &crate::analysis::WireTable,
    k: usize,
) -> Result<Vec<CriticalPath>> {
    let _span = tc_obs::span("sta.pba");
    let mut out = Vec::new();
    for ep in report.worst_endpoints(k) {
        let start_net = match ep.endpoint {
            Endpoint::FlopD(fid) => sta.nl.cell(fid).inputs[0],
            Endpoint::Output(net) => net,
        };
        let (stages, launch_flop) = extract_path_from_net(sta, state, wires, start_net)?;
        // Reconstruct the net list by replaying the same backtrack: each
        // stage's cell drives the current net through its recorded
        // predecessor pin.
        let mut nets = vec![start_net];
        let mut net = start_net;
        for st in &stages {
            let pred = state[net.index()]
                .late_pred_pin
                .ok_or_else(|| Error::internal("stage without predecessor"))?;
            let in_net = sta.nl.cell(st.cell).inputs[pred];
            nets.push(in_net);
            net = in_net;
        }
        out.push(CriticalPath {
            endpoint: ep.endpoint,
            slack: ep.setup_slack,
            stages,
            nets,
            launch_flop,
        });
    }
    tc_obs::counter("sta.pba.paths").add(out.len() as u64);
    tc_obs::counter("sta.pba.stages").add(out.iter().map(|p| p.stages.len() as u64 + 1).sum());
    Ok(out)
}

/// Walks the late-predecessor breadcrumbs from a flop's D pin back to the
/// launch point. Returns stages (endpoint-first) and the launching flop
/// (None if the path starts at a primary input).
fn extract_path(
    sta: &Sta<'_>,
    state: &[crate::analysis::NetState],
    wires: &crate::analysis::WireTable,
    endpoint_flop: CellId,
) -> Result<(Vec<PathStage>, Option<CellId>)> {
    extract_path_from_net(sta, state, wires, sta.nl.cell(endpoint_flop).inputs[0])
}

fn extract_path_from_net(
    sta: &Sta<'_>,
    state: &[crate::analysis::NetState],
    wires: &crate::analysis::WireTable,
    start_net: tc_core::ids::NetId,
) -> Result<(Vec<PathStage>, Option<CellId>)> {
    let nl = sta.nl;
    let lib = sta.lib;
    let graph = sta.graph()?;
    let mut stages = Vec::new();
    let mut net = start_net;
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > nl.cell_count() + 2 {
            return Err(Error::internal("pba backtrack did not terminate"));
        }
        let Some(driver) = nl.net(net).driver else {
            return Ok((stages, None)); // primary input startpoint
        };
        let cell = nl.cell(driver);
        let master = lib.cell(cell.master);
        if master.kind == CellKind::Flop {
            return Ok((stages, Some(driver)));
        }
        let pred = state[net.index()]
            .late_pred_pin
            .ok_or_else(|| Error::internal("missing predecessor on critical path"))?;
        let in_net = cell.inputs[pred];
        // Reconstruct the GBA evaluation of this stage.
        let load = wires.driver_load(cell.output.index()).value();
        let sink_idx = graph.sink_pos(nl, driver, pred);
        let wire = wires.delay(in_net.index(), sink_idx).value();
        let pin_slew = state[in_net.index()].late.slew + 0.25 * wire;
        let pin_name = master.input_pins()[pred];
        let arc = master
            .arc_from(pin_name)
            .ok_or_else(|| Error::internal("missing arc in pba"))?;
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
        stages.push(PathStage {
            cell: driver,
            gate_delay,
            sigma,
            wire_delay: wire,
        });
        net = in_net;
    }
}

#[allow(clippy::too_many_arguments)]
fn reevaluate(
    sta: &Sta<'_>,
    ep: &EndpointTiming,
    path: &[PathStage],
    launch_flop: Option<CellId>,
    wires: &crate::analysis::WireTable,
    k: f64,
) -> Result<Ps> {
    let depth = path.len() + 1;
    let wire_late_factor = match &sta.cons.derate {
        DerateModel::Pocv { .. } | DerateModel::Lvf { .. } => 1.0,
        _ => sta.cons.wire_derate.0,
    };

    // Launch clock + c2q of the launching flop.
    let mut t;
    let mut var = 0.0;
    match launch_flop {
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
    for st in path.iter().rev() {
        let (d, v) = derate_stage(sta, st.gate_delay, depth, || st.sigma);
        t += st.wire_delay * wire_late_factor + d;
        var += v + pocv_wire_var(sta, st.wire_delay);
    }
    // Final hop into the endpoint D pin: the difference between the
    // endpoint's total wire time and the path-internal wire segments.
    let path_wire: f64 = path.iter().map(|s| s.wire_delay * wire_late_factor).sum();
    let last_wire = (ep.wire_ps - path_wire).max(0.0);
    t += last_wire;
    var += pocv_wire_var(sta, last_wire);

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

fn pocv_wire_var(sta: &Sta<'_>, wire: f64) -> f64 {
    match &sta.cons.derate {
        DerateModel::Pocv { .. } | DerateModel::Lvf { .. } => {
            let s = 0.05 * wire;
            s * s
        }
        _ => 0.0,
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
}
