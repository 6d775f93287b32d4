//! The five manual-fix transforms of the paper's Fig 1, in recommended
//! order of application.

use std::collections::HashSet;

use tc_core::error::Result;
use tc_core::ids::{CellId, LibCellId, NetId};
use tc_core::units::Ps;
use tc_interconnect::BeolStack;
use tc_liberty::Library;
use tc_netlist::{Netlist, PinRef};
use tc_sta::{Constraints, CriticalPath, Sta};

/// Which fix a transform belongs to (Fig 1's ordering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FixKind {
    /// Swap critical cells one Vt step faster (cheapest: no footprint or
    /// routing change — until MinIA interferes, §2.4).
    VtSwap,
    /// Upsize weak drivers of heavily loaded critical stages.
    Sizing,
    /// Insert buffers on long critical nets.
    Buffering,
    /// Apply non-default routing rules to long critical nets.
    Ndr,
    /// Adjust capture-clock latencies (useful skew).
    UsefulSkew,
}

impl FixKind {
    /// The paper's recommended ordering.
    pub const RECOMMENDED: [FixKind; 5] = [
        FixKind::VtSwap,
        FixKind::Sizing,
        FixKind::Buffering,
        FixKind::Ndr,
        FixKind::UsefulSkew,
    ];

    /// Stable snake_case label, used in reports and observability span
    /// names (`closure.fix.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            FixKind::VtSwap => "vt_swap",
            FixKind::Sizing => "sizing",
            FixKind::Buffering => "buffering",
            FixKind::Ndr => "ndr",
            FixKind::UsefulSkew => "useful_skew",
        }
    }
}

/// What a fix pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixOutcome {
    /// ECO edits committed.
    pub edits: usize,
}

/// Plans the Vt-swap pass over already-extracted worst paths (the flow
/// passes the persistent timer's path list): walk the paths, swapping
/// their cells one Vt step faster, skipping cells already at ULVT. A
/// `veto` callback lets the caller enforce MinIA awareness (return
/// `false` to block a swap).
pub fn plan_vt_swaps(
    nl: &Netlist,
    lib: &Library,
    paths: &[CriticalPath],
    budget: usize,
    mut veto: impl FnMut(tc_core::ids::CellId) -> bool,
) -> Vec<(CellId, LibCellId)> {
    let mut touched = HashSet::new();
    let mut plan = Vec::new();
    'outer: for p in paths {
        if p.slack >= Ps::ZERO {
            continue;
        }
        for st in &p.stages {
            if plan.len() >= budget {
                break 'outer;
            }
            if !touched.insert(st.cell) {
                continue;
            }
            if let Some(faster) = lib.vt_faster(nl.cell(st.cell).master) {
                if veto(st.cell) {
                    plan.push((st.cell, faster));
                }
            }
        }
    }
    plan
}

/// Plans the sizing pass over already-extracted worst paths: upsize the
/// slowest stages (largest gate delay) of each one drive step.
pub fn plan_sizing(
    nl: &Netlist,
    lib: &Library,
    paths: &[CriticalPath],
    budget: usize,
) -> Vec<(CellId, LibCellId)> {
    let mut touched = HashSet::new();
    let mut plan = Vec::new();
    for p in paths {
        if p.slack >= Ps::ZERO {
            continue;
        }
        // Slowest stage first within each path.
        let mut stages = p.stages.clone();
        stages.sort_by(|a, b| b.gate_delay.total_cmp(&a.gate_delay));
        for st in stages.iter().take(2) {
            if plan.len() >= budget {
                break;
            }
            if !touched.insert(st.cell) {
                continue;
            }
            if let Some(bigger) = lib.upsize(nl.cell(st.cell).master) {
                plan.push((st.cell, bigger));
            }
        }
    }
    plan
}

/// Plans the buffering pass: the longest net (>120 µm) of each violating
/// path, deduplicated, up to `budget` nets.
pub fn plan_buffering(nl: &Netlist, paths: &[CriticalPath], budget: usize) -> Vec<NetId> {
    let mut plan = Vec::new();
    let mut used = HashSet::new();
    for p in paths {
        if p.slack >= Ps::ZERO || plan.len() >= budget {
            continue;
        }
        // Longest net on the path, if long enough to be worth a buffer.
        if let Some(&net) = p
            .nets
            .iter()
            .filter(|&&n| nl.net(n).wire_length_um > 120.0)
            .max_by(|&&a, &&b| {
                nl.net(a)
                    .wire_length_um
                    .total_cmp(&nl.net(b).wire_length_um)
            })
        {
            if used.insert(net) {
                plan.push(net);
            }
        }
    }
    plan
}

/// Applies a buffering plan: splits each net with a strong buffer, both
/// halves keeping half the original length. Returns the edit count (one
/// per buffered net; a plan entry contributes three journal entries).
///
/// # Errors
///
/// Propagates netlist edit failures.
pub fn apply_buffering(nl: &mut Netlist, lib: &Library, plan: &[NetId]) -> Result<usize> {
    let buf = match lib.variant("BUF", tc_device::VtClass::Svt, 4.0) {
        Some(b) => b,
        None => return Ok(0),
    };
    let mut edits = 0;
    for &net in plan {
        let len = nl.net(net).wire_length_um;
        let sinks: Vec<PinRef> = nl.net(net).sinks.to_vec();
        if sinks.is_empty() {
            continue;
        }
        let buf_id = nl.insert_buffer(lib, net, &sinks, buf)?;
        let buf_out = nl.cell(buf_id).output;
        nl.set_wire_length(net, len * 0.5);
        nl.set_wire_length(buf_out, len * 0.5);
        edits += 1;
    }
    Ok(edits)
}

/// Plans the NDR pass: long (>80 µm) default-rule nets on violating
/// paths, deduplicated, up to `budget` nets, to be promoted to the
/// double-width/double-spacing rule.
pub fn plan_ndr(nl: &Netlist, paths: &[CriticalPath], budget: usize) -> Vec<NetId> {
    let mut plan = Vec::new();
    let mut seen = HashSet::new();
    for p in paths {
        if p.slack >= Ps::ZERO || plan.len() >= budget {
            continue;
        }
        for &net in &p.nets {
            if nl.net(net).wire_length_um > 80.0 && nl.net(net).route_class == 0 && seen.insert(net)
            {
                plan.push(net);
                if plan.len() >= budget {
                    break;
                }
            }
        }
    }
    plan
}

/// Hold-fix pass: pad hold-violating endpoints with slow delay buffers
/// on their D pins. Part of the paper's "last set of manual fixes" —
/// hold padding is done after setup closure because every pad also eats
/// setup slack.
///
/// # Errors
///
/// Propagates STA failures.
pub fn hold_fix_pass(
    nl: &mut Netlist,
    lib: &Library,
    stack: &BeolStack,
    cons: &Constraints,
    budget: usize,
) -> Result<FixOutcome> {
    // The slowest single-input cell available: an HVT X1 buffer.
    let Some(pad) = lib
        .variant("BUF", tc_device::VtClass::Hvt, 1.0)
        .or_else(|| lib.variant("BUF", tc_device::VtClass::Svt, 1.0))
    else {
        return Ok(FixOutcome::default());
    };
    let mut edits = 0;
    // Iterate: each pass pads every currently-violating endpoint once.
    for _round in 0..4 {
        if edits >= budget {
            break;
        }
        let report = Sta::new(nl, lib, stack, cons).run()?;
        let violating: Vec<tc_core::ids::CellId> = report
            .endpoints
            .iter()
            .filter(|e| e.hold_slack < Ps::ZERO)
            .filter_map(|e| match e.endpoint {
                tc_sta::Endpoint::FlopD(f) => Some(f),
                _ => None,
            })
            .collect();
        if violating.is_empty() {
            break;
        }
        for flop in violating {
            if edits >= budget {
                break;
            }
            let d_net = nl.cell(flop).inputs[0];
            let sink = PinRef { cell: flop, pin: 0 };
            let buf = nl.insert_buffer(lib, d_net, &[sink], pad)?;
            // The pad sits next to the flop: negligible new wire.
            let buf_out = nl.cell(buf).output;
            nl.set_wire_length(buf_out, 2.0);
            edits += 1;
        }
    }
    Ok(FixOutcome { edits })
}

/// Noise-fix pass: apply spacing NDRs to the worst glitch victims, and
/// upsize their holding drivers if the NDR alone is not enough (§1.3
/// noise closure).
///
/// # Errors
///
/// Propagates STA failures (none expected from the check itself).
pub fn noise_fix_pass(
    nl: &mut Netlist,
    lib: &Library,
    stack: &BeolStack,
    cfg: &tc_sta::NoiseConfig,
    budget: usize,
) -> Result<FixOutcome> {
    use tc_interconnect::beol::BeolCorner;
    let mut edits = 0;
    for _round in 0..3 {
        if edits >= budget {
            break;
        }
        let violations = tc_sta::noise_check(nl, lib, stack, BeolCorner::CcWorst, cfg);
        if violations.is_empty() {
            break;
        }
        for v in violations {
            if edits >= budget {
                break;
            }
            let net = v.net;
            if nl.net(net).route_class < 2 {
                nl.set_route_class(net, 2);
                edits += 1;
            } else if let Some(driver) = nl.net(net).driver {
                if let Some(bigger) = lib.upsize(nl.cell(driver).master) {
                    nl.swap_master(lib, driver, bigger)?;
                    edits += 1;
                }
            }
        }
    }
    Ok(FixOutcome { edits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};
    use tc_sta::worst_paths;

    fn env() -> (Library, BeolStack, Netlist, Constraints) {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = generate(&lib, BenchProfile::tiny(), 21).unwrap();
        let stack = BeolStack::n20();
        // A period that violates meaningfully.
        let probe = Constraints::single_clock(5_000.0);
        let r = Sta::new(&nl, &lib, &stack, &probe).run().unwrap();
        let period = 5_000.0 - r.wns().value() - 60.0;
        (lib, stack, nl, Constraints::single_clock(period))
    }

    fn wns(nl: &Netlist, lib: &Library, stack: &BeolStack, cons: &Constraints) -> f64 {
        Sta::new(nl, lib, stack, cons).run().unwrap().wns().value()
    }

    fn critical(
        nl: &Netlist,
        lib: &Library,
        stack: &BeolStack,
        cons: &Constraints,
        k: usize,
    ) -> Vec<CriticalPath> {
        worst_paths(&Sta::new(nl, lib, stack, cons), k).unwrap()
    }

    #[test]
    fn vt_swap_improves_wns() {
        let (lib, stack, mut nl, cons) = env();
        let before = wns(&nl, &lib, &stack, &cons);
        let paths = critical(&nl, &lib, &stack, &cons, 10);
        let plan = plan_vt_swaps(&nl, &lib, &paths, 50, |_| true);
        assert!(!plan.is_empty());
        for &(cell, master) in &plan {
            nl.swap_master(&lib, cell, master).unwrap();
        }
        let after = wns(&nl, &lib, &stack, &cons);
        assert!(after > before, "vt swap: {before} → {after}");
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn veto_blocks_vt_swaps() {
        let (lib, stack, nl, cons) = env();
        let paths = critical(&nl, &lib, &stack, &cons, 10);
        assert!(plan_vt_swaps(&nl, &lib, &paths, 50, |_| false).is_empty());
    }

    #[test]
    fn sizing_improves_wns() {
        let (lib, stack, mut nl, cons) = env();
        let before = wns(&nl, &lib, &stack, &cons);
        let plan = plan_sizing(&nl, &lib, &critical(&nl, &lib, &stack, &cons, 10), 30);
        assert!(!plan.is_empty());
        for &(cell, master) in &plan {
            nl.swap_master(&lib, cell, master).unwrap();
        }
        let after = wns(&nl, &lib, &stack, &cons);
        assert!(after > before, "sizing: {before} → {after}");
    }

    #[test]
    fn buffering_splits_long_nets() {
        // Engineered case: a weak X1 inverter driving a huge net between
        // two flops — the textbook buffering target.
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let stack = BeolStack::n20();
        let mut nl = Netlist::new("longnet");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let dff = lib.variant("DFF", tc_device::VtClass::Svt, 1.0).unwrap();
        let inv = lib.variant("INV", tc_device::VtClass::Svt, 1.0).unwrap();
        let (_, q) = nl.add_cell("ff0", &lib, dff, &[d, clk]).unwrap();
        let (_, long) = nl.add_cell("drv", &lib, inv, &[q]).unwrap();
        let (_, o2) = nl.add_cell("rcv", &lib, inv, &[long]).unwrap();
        let (_, _q1) = nl.add_cell("ff1", &lib, dff, &[o2, clk]).unwrap();
        nl.set_wire_length(long, 900.0);

        let probe = Constraints::single_clock(5_000.0);
        let r = Sta::new(&nl, &lib, &stack, &probe).run().unwrap();
        let cons = Constraints::single_clock(5_000.0 - r.wns().value() - 30.0);
        let before = wns(&nl, &lib, &stack, &cons);
        let cells_before = nl.cell_count();
        let plan = plan_buffering(&nl, &critical(&nl, &lib, &stack, &cons, 5), 5);
        assert!(apply_buffering(&mut nl, &lib, &plan).unwrap() > 0);
        assert!(nl.cell_count() > cells_before);
        let after = wns(&nl, &lib, &stack, &cons);
        assert!(after > before, "buffering: {before} → {after}");
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn ndr_reclasses_long_nets() {
        let (lib, stack, mut nl, cons) = env();
        for p in &critical(&nl, &lib, &stack, &cons, 3) {
            for &net in &p.nets {
                nl.set_wire_length(net, 300.0);
            }
        }
        let before = wns(&nl, &lib, &stack, &cons);
        let plan = plan_ndr(&nl, &critical(&nl, &lib, &stack, &cons, 5), 10);
        assert!(!plan.is_empty());
        for net in plan {
            nl.set_route_class(net, 2);
        }
        let after = wns(&nl, &lib, &stack, &cons);
        assert!(after > before, "ndr: {before} → {after}");
    }
}

#[cfg(test)]
mod hold_noise_tests {
    use super::*;
    use tc_core::ids::NetId;
    use tc_core::units::Ps;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    #[test]
    fn hold_fix_pads_violating_endpoints() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let stack = BeolStack::n20();
        // A direct flop→flop connection with heavy capture-clock skew:
        // the textbook hold violation.
        let mut nl = Netlist::new("holdcase");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let dff = lib.variant("DFF", tc_device::VtClass::Svt, 1.0).unwrap();
        let (_ff0, q) = nl.add_cell("ff0", &lib, dff, &[d, clk]).unwrap();
        let (ff1, _q1) = nl.add_cell("ff1", &lib, dff, &[q, clk]).unwrap();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 4.0);
        }
        let mut cons = Constraints::single_clock(2_000.0);
        cons.clock_tree.skew_by(ff1, Ps::new(-60.0)); // capture clock early
                                                      // Negative leaf latency means the *launch* side is late relative
                                                      // to capture; flip sign to make capture late instead.
        cons.clock_tree.skew_by(ff1, Ps::new(120.0)); // net +60 ps late capture

        let before = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
        assert!(
            before.hold_wns().value() < 0.0,
            "setup of the experiment must violate hold: {}",
            before.summary()
        );
        let out = hold_fix_pass(&mut nl, &lib, &stack, &cons, 10).unwrap();
        assert!(out.edits > 0);
        let after = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
        assert!(
            after.hold_wns() > before.hold_wns(),
            "padding must improve hold: {} → {}",
            before.hold_wns(),
            after.hold_wns()
        );
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn noise_fix_clears_glitch_violations() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let stack = BeolStack::n20();
        let mut nl = generate(&lib, BenchProfile::tiny(), 71).unwrap();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 350.0);
        }
        let cfg = tc_sta::NoiseConfig {
            margin_frac: 0.25,
            ..Default::default()
        };
        let before = tc_sta::noise_check(
            &nl,
            &lib,
            &stack,
            tc_interconnect::beol::BeolCorner::CcWorst,
            &cfg,
        )
        .len();
        assert!(before > 0, "setup must create noise violations");
        let out = noise_fix_pass(&mut nl, &lib, &stack, &cfg, 500).unwrap();
        assert!(out.edits > 0);
        let after = tc_sta::noise_check(
            &nl,
            &lib,
            &stack,
            tc_interconnect::beol::BeolCorner::CcWorst,
            &cfg,
        )
        .len();
        assert!(
            after < before / 2,
            "noise fixes must clear most violations: {before} → {after}"
        );
        nl.validate(&lib).unwrap();
    }
}
