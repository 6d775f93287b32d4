//! Graph-based timing analysis (GBA).
//!
//! Late/early arrivals with slews are propagated through the levelized
//! netlist; POCV/LVF variance is accumulated per stage and slacks are
//! margined at `mean ± k·σ` ("slacks now reported at a confidence tail of
//! the slack distribution", §1.3 footnote). AOCV in GBA uses the
//! conservative depth bound of 1 stage — the pessimism PBA then recovers.

use std::mem;
use std::sync::{Arc, OnceLock};

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, NetId};
use tc_core::lut::LutPoint;
use tc_core::units::{Ff, Ps};
use tc_interconnect::beol::{BeolCorner, BeolSample, BeolStack};
use tc_interconnect::estimate::{NdrClass, WireModel};
use tc_liberty::{CellKind, DerateModel, Library, TimingArc};
use tc_netlist::{Netlist, PinRef};

use crate::constraints::Constraints;
use crate::report::{Endpoint, EndpointTiming, TimingReport};
use crate::si::coupling_delta;
use crate::timer::{Frontier, TimingGraph};

/// One propagated arrival bound (late or early).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Arr {
    /// Mean arrival, ps.
    pub t: f64,
    /// Accumulated delay variance, ps².
    pub var: f64,
    /// Transition time at this point, ps.
    pub slew: f64,
    /// Stage count from the launch point.
    pub depth: usize,
    /// Cumulative gate delay along the winning path, ps.
    pub gate_ps: f64,
    /// Cumulative wire delay along the winning path, ps.
    pub wire_ps: f64,
}

impl Arr {
    fn late_criterion(&self, k: f64) -> f64 {
        self.t + k * self.var.sqrt()
    }

    fn early_criterion(&self, k: f64) -> f64 {
        self.t - k * self.var.sqrt()
    }
}

/// Which arrival bound a stage is derated for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Bound {
    /// The late (max-delay, setup) bound.
    Late,
    /// The early (min-delay, hold) bound.
    Early,
}

impl Bound {
    fn pick<T>(self, late: T, early: T) -> T {
        match self {
            Bound::Late => late,
            Bound::Early => early,
        }
    }
}

/// Per-net propagation state.
///
/// From-scratch propagation and the incremental [`Timer`](crate::Timer)
/// write these through the *same* sweep (`Sta::sweep`), which is what
/// makes incremental results bit-identical to a from-scratch run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetState {
    /// Late (max-delay) arrival bound at the net.
    pub late: Arr,
    /// Early (min-delay) arrival bound at the net.
    pub early: Arr,
    /// `(driver input pin index)` that produced the late arrival — the
    /// breadcrumb PBA backtracking follows.
    pub late_pred_pin: Option<usize>,
    /// Whether any arrival reached this net.
    pub reached: bool,
}

/// The STA engine, borrowing the design and its environment. It
/// propagates at most once ([`Sta::propagate`]); a clone or an input
/// builder keeps the graph and drops the propagation.
#[derive(Debug)]
pub struct Sta<'a> {
    pub(crate) nl: &'a Netlist,
    pub(crate) lib: &'a Library,
    pub(crate) stack: &'a BeolStack,
    pub(crate) cons: &'a Constraints,
    pub(crate) beol_corner: BeolCorner,
    pub(crate) beol_sample: Option<&'a BeolSample>,
    /// The netlist's timing structure, built on first use (the netlist
    /// is borrowed immutably, so it cannot go stale) or handed in.
    pub(crate) graph: OnceLock<Arc<TimingGraph>>,
    /// The timing state, filled on first use.
    pub(crate) propagated: OnceLock<TimingState>,
}

/// One analysis' timing state: the graph it was propagated over, the
/// per-net states and wire timings, and one row per checked endpoint in
/// report order. An [`Sta`] fills it once and lends it; the
/// [`Timer`](crate::Timer) takes it over and edits it in place.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingState {
    pub(crate) graph: Arc<TimingGraph>,
    pub(crate) nets: Vec<NetState>,
    pub(crate) wires: WireTable,
    pub(crate) rows: Arc<Vec<EndpointTiming>>,
}

impl TimingState {
    /// The timing graph the state was propagated over.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The checked endpoints' rows, in report order (sorted by
    /// [`Endpoint`]). Dense: a false-path or unreached endpoint of the
    /// graph has no row. Every report taken from the state shares this
    /// vector; a timer writes it copy-on-write, so a report held across
    /// an edit costs one copy and sees none of the edit.
    pub fn rows(&self) -> &[EndpointTiming] {
        &self.rows
    }

    /// The row of one endpoint (`None` for a false-path or unreached
    /// endpoint, and for one the graph does not have).
    pub fn row(&self, ep: Endpoint) -> Option<&EndpointTiming> {
        let at = self.rows.binary_search_by_key(&ep, |r| r.endpoint).ok()?;
        Some(&self.rows[at])
    }

    /// A report of the checked endpoints: the rows themselves, shared.
    pub(crate) fn report(&self, period: Ps) -> TimingReport {
        TimingReport {
            endpoints: Arc::clone(&self.rows),
            period,
        }
    }
}

/// A derived analysis (`Sta { cons, ..sta.clone() }`) must not inherit
/// arrivals propagated under the original's inputs.
impl Clone for Sta<'_> {
    fn clone(&self) -> Self {
        Sta {
            graph: self.graph.clone(),
            propagated: OnceLock::new(),
            ..*self
        }
    }
}

/// What one [`Sta::sweep`] did. Callers flush these into their own
/// counters once per propagation, not per arc.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SweepCounts {
    /// Cells evaluated.
    pub(crate) cells: u64,
    /// Timing arcs evaluated.
    pub(crate) arcs: u64,
    /// Output-net states written.
    pub(crate) writes: u64,
}

/// Wire timing cached per net. Plain-old-data: the per-sink delays live
/// in the owning [`WireTable`]'s shared pool, addressed by `(start, len)`
/// — one flat `Vec<Ps>` for the whole design instead of one heap
/// allocation per net.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetWire {
    /// Total load seen by the driver, fF.
    pub driver_load: Ff,
    /// SI delta delay (ps) added late / subtracted early when enabled.
    pub si_delta: f64,
    /// Start of this net's sink-delay span in the pool.
    pub(crate) start: u32,
    /// Sink count (span length).
    pub(crate) len: u32,
}

/// Per-net wire timings for a whole design: dense entries indexed by net
/// id plus one pooled sink-delay arena.
///
/// The pool is **append-only**: recomputing a net writes a fresh span and
/// repoints the entry, leaving the old span in place. That is what makes
/// the incremental timer's undo log sound — a popped [`NetWire`] entry
/// still addresses valid bytes. A timer rollback restores every entry
/// installed since its checkpoint, so it truncates the pool back to the
/// checkpoint's length; the spans a kept edit retires stay until the
/// table is rebuilt from scratch (a full propagation).
#[derive(Clone, Debug, Default)]
pub struct WireTable {
    entries: Vec<NetWire>,
    pool: Vec<Ps>,
}

impl WireTable {
    /// The POD entry of one net.
    pub fn entry(&self, net: usize) -> NetWire {
        self.entries[net]
    }

    /// Driver load of one net, fF.
    pub fn driver_load(&self, net: usize) -> Ff {
        self.entries[net].driver_load
    }

    /// SI delta delay of one net, ps.
    pub fn si_delta(&self, net: usize) -> f64 {
        self.entries[net].si_delta
    }

    /// Per-sink wire delays of one net, aligned with its sink list.
    pub fn delays(&self, net: usize) -> &[Ps] {
        let e = self.entries[net];
        &self.pool[e.start as usize..e.start as usize + e.len as usize]
    }

    /// Wire delay to one sink of one net.
    pub fn delay(&self, net: usize, sink: usize) -> Ps {
        self.delays(net)[sink]
    }

    /// Grows the entry vector to `n` nets (new entries empty) after a
    /// structural edit appended nets.
    pub(crate) fn resize(&mut self, n: usize) {
        self.entries.resize(n, NetWire::default());
    }

    /// Shrinks the entry vector back to `n` nets (rollback of a
    /// structural edit); pooled spans are untouched, so surviving
    /// entries stay valid.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.entries.truncate(n);
    }

    /// Direct pool access for appending a candidate span (the timer's
    /// incremental recompute path).
    pub(crate) fn pool_mut(&mut self) -> &mut Vec<Ps> {
        &mut self.pool
    }

    /// Current pool length — the `start` of the next appended span.
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Pool slice by raw span (candidate spans not yet installed in an
    /// entry).
    pub(crate) fn pool_slice(&self, start: usize, len: usize) -> &[Ps] {
        &self.pool[start..start + len]
    }

    /// Drops pool bytes past `len` (a rejected candidate span).
    pub(crate) fn pool_truncate(&mut self, len: usize) {
        self.pool.truncate(len);
    }

    /// Installs `entry` for `net` (a recomputed span, or a popped one on
    /// rollback), returning the previous entry (whose span remains valid
    /// in the pool for undo).
    pub(crate) fn install(&mut self, net: usize, entry: NetWire) -> NetWire {
        std::mem::replace(&mut self.entries[net], entry)
    }
}

/// Content equality: two tables agree when every net has the same load,
/// SI delta and delay values — regardless of where the spans sit in
/// their pools.
impl PartialEq for WireTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && (0..self.entries.len()).all(|n| {
                let (a, b) = (self.entries[n], other.entries[n]);
                a.driver_load == b.driver_load
                    && a.si_delta == b.si_delta
                    && self.delays(n) == other.delays(n)
            })
    }
}

/// Reusable scratch for wire-timing evaluation: the per-net sink-cap
/// staging buffer. One instance serves a whole propagation (or a whole
/// incremental-update batch) with no per-net allocations.
#[derive(Clone, Debug, Default)]
pub struct WireEvalScratch {
    sink_caps: Vec<Ff>,
}

impl<'a> Sta<'a> {
    /// Creates an analysis over a netlist at the library's PVT corner and
    /// the typical BEOL corner.
    pub fn new(
        nl: &'a Netlist,
        lib: &'a Library,
        stack: &'a BeolStack,
        cons: &'a Constraints,
    ) -> Self {
        Sta {
            nl,
            lib,
            stack,
            cons,
            beol_corner: BeolCorner::Typical,
            beol_sample: None,
            graph: OnceLock::new(),
            propagated: OnceLock::new(),
        }
    }

    /// Uses an already-built timing structure of this netlist instead
    /// of deriving one on first use — how runs over one design (MCMM
    /// corners, Monte Carlo trials) share a single graph.
    pub fn with_graph(mut self, graph: Arc<TimingGraph>) -> Self {
        self.graph = OnceLock::from(graph);
        self
    }

    /// The netlist's timing structure, built on the first call (which
    /// fails on combinational loops).
    pub(crate) fn graph(&self) -> Result<&Arc<TimingGraph>> {
        if let Some(graph) = self.graph.get() {
            return Ok(graph);
        }
        let built = Arc::new(TimingGraph::build(self.nl, self.lib)?);
        Ok(self.graph.get_or_init(|| built))
    }

    /// Selects a BEOL extraction corner (a clone: any propagation so far
    /// was at the old corner).
    pub fn with_beol_corner(self, corner: BeolCorner) -> Self {
        Sta {
            beol_corner: corner,
            ..self.clone()
        }
    }

    /// Applies a Monte Carlo per-layer BEOL variation sample (a clone,
    /// like [`with_beol_corner`](Self::with_beol_corner)).
    pub fn with_beol_sample(self, sample: &'a BeolSample) -> Self {
        Sta {
            beol_sample: Some(sample),
            ..self.clone()
        }
    }

    pub(crate) fn k_sigma(&self) -> f64 {
        match &self.cons.derate {
            DerateModel::Pocv { k, .. } | DerateModel::Lvf { k } => *k,
            _ => 0.0,
        }
    }

    /// A stage's own delay sigma, ps, for an arc of `cell` whose raw
    /// delay at the located `(slew, load)` point `at` is `raw`: the POCV
    /// fraction of `raw`; under LVF the arc's sigma table read at `at`
    /// (the master's POCV fraction when the arc has none); 0 under every
    /// other model.
    pub(crate) fn stage_sigma(
        &self,
        bound: Bound,
        cell: CellId,
        arc: &TimingArc,
        at: &LutPoint,
        raw: f64,
    ) -> f64 {
        match &self.cons.derate {
            DerateModel::Pocv { sigma, .. } => bound.pick(sigma.late, sigma.early) * raw,
            DerateModel::Lvf { .. } => match &arc.lvf {
                Some(l) => bound.pick(&l.sigma_late, &l.sigma_early).at(at),
                None => {
                    let pocv = self.lib.cell(self.nl.cell_master(cell)).pocv;
                    bound.pick(pocv.late, pocv.early) * raw
                }
            },
            _ => 0.0,
        }
    }

    /// The derate policy: a stage's `(delay, variance)` from its raw
    /// delay and [`stage_sigma`](Self::stage_sigma) on a path of `depth`
    /// stages. Flat and AOCV scale the mean; POCV and LVF keep it and add
    /// the variance. GBA derates every stage at depth 1, AOCV's worst
    /// case; PBA at its path's true depth.
    pub(crate) fn derate(&self, bound: Bound, raw: f64, sigma: f64, depth: usize) -> (f64, f64) {
        match &self.cons.derate {
            DerateModel::None => (raw, 0.0),
            DerateModel::Flat { late, early } => (raw * bound.pick(late, early), 0.0),
            DerateModel::Aocv(t) => {
                let d = match bound {
                    Bound::Late => t.late_derate(depth, 0.0),
                    Bound::Early => t.early_derate(depth, 0.0),
                };
                (raw * d, 0.0)
            }
            DerateModel::Pocv { .. } | DerateModel::Lvf { .. } => (raw, sigma * sigma),
        }
    }

    /// One arc's derated `(delay, variance)` at the located `(slew,
    /// load)` point `at`.
    fn stage(
        &self,
        bound: Bound,
        cell: CellId,
        arc: &TimingArc,
        at: &LutPoint,
        depth: usize,
    ) -> (f64, f64) {
        let raw = arc.delay.at(at);
        let sigma = self.stage_sigma(bound, cell, arc, at, raw);
        self.derate(bound, raw, sigma, depth)
    }

    /// Wire delay derates: `(late_ps, late_var, early_ps, early_var)`.
    pub(crate) fn wire_terms(&self, wire: Ps) -> (f64, f64, f64, f64) {
        let w = wire.value();
        match &self.cons.derate {
            DerateModel::Pocv { .. } | DerateModel::Lvf { .. } => {
                let s = 0.05 * w;
                (w, s * s, w, s * s)
            }
            _ => (
                w * self.cons.wire_derate.0,
                0.0,
                w * self.cons.wire_derate.1,
                0.0,
            ),
        }
    }

    /// Computes one net's wire timing (load, sink delays, SI delta),
    /// appending the per-sink delays to `pool` and returning the entry
    /// that addresses them. The single code path shared by full runs and
    /// incremental updates; with a warm `scratch` it allocates nothing
    /// beyond pool growth.
    pub(crate) fn net_wire_entry(
        &self,
        net: NetId,
        scratch: &mut WireEvalScratch,
        pool: &mut Vec<Ps>,
    ) -> Result<NetWire> {
        scratch.sink_caps.clear();
        let sink_cap = |s: &PinRef| self.lib.cell(self.nl.cell_master(s.cell)).input_cap;
        scratch
            .sink_caps
            .extend(self.nl.net_sinks(net).iter().map(sink_cap));
        let ndr = NdrClass::from_route_class(self.nl.net_route_class(net));
        let wm = WireModel::from_length(self.nl.net_wire_length(net).max(1.0)).with_ndr(ndr);
        let start = pool.len();
        let (driver_load, _r_total) = wm.timing_into(
            self.stack,
            self.beol_corner,
            self.beol_sample,
            &scratch.sink_caps,
            pool,
        );
        let si_delta = if self.cons.si_enabled {
            let layer = self.stack.layer(wm.layer);
            coupling_delta(layer, self.beol_corner, ndr, &pool[start..])
        } else {
            0.0
        };
        Ok(NetWire {
            driver_load,
            si_delta,
            start: start as u32,
            len: (pool.len() - start) as u32,
        })
    }

    /// Computes per-net wire timings (loads, sink delays, SI deltas)
    /// into a fresh [`WireTable`], in net order.
    pub(crate) fn wire_timings(&self) -> Result<WireTable> {
        let n = self.nl.net_count();
        let mut table = WireTable::default();
        let mut scratch = WireEvalScratch::default();
        table.entries.reserve(n);
        for i in 0..n {
            let e = self.net_wire_entry(NetId::new(i), &mut scratch, &mut table.pool)?;
            table.entries.push(e);
        }
        Ok(table)
    }

    /// Launch/capture clock components for a flop:
    /// `(late_arrival, early_arrival)` at its CK pin. The common segment
    /// (source latency + trunk) is not derated when CPPR is on.
    fn clock_arrivals(&self, flop: CellId) -> (f64, f64) {
        let clk = self.cons.default_clock();
        let common = clk.source_latency.value() + self.cons.clock_tree.common.value();
        let leaf = self.cons.clock_tree.leaf_of(flop).value();
        let (dl, de) = match &self.cons.derate {
            DerateModel::Flat { late, early } => (*late, *early),
            DerateModel::Aocv(t) => (t.late_derate(4, 0.0), t.early_derate(4, 0.0)),
            // POCV/LVF margin clock paths with a light flat derate (the
            // variance bookkeeping lives on the data path).
            DerateModel::Pocv { .. } | DerateModel::Lvf { .. } => (1.03, 0.97),
            DerateModel::None => (1.0, 1.0),
        };
        if self.cons.cppr {
            (common + leaf * dl, common + leaf * de)
        } else {
            ((common + leaf) * dl, (common + leaf) * de)
        }
    }

    /// The state a flop launches at Q: its clock arrivals plus the CK→Q
    /// stage at the clock slew, derated for a path of `depth` stages (GBA
    /// passes 1, PBA its path's stage count).
    pub(crate) fn launch(&self, flop: CellId, wires: &WireTable, depth: usize) -> Result<NetState> {
        let load = wires.driver_load(self.nl.cell_output(flop).index()).value();
        let (ck_late, ck_early) = self.clock_arrivals(flop);
        let arc = self
            .lib
            .cell(self.nl.cell_master(flop))
            .arc_from("CK")
            .ok_or_else(|| Error::internal("flop without CK arc"))?;
        // Both bounds launch at the clock slew: one point serves them.
        let at = arc.delay.locate(self.cons.clock_tree.clock_slew, load);
        let (dl, vl) = self.stage(Bound::Late, flop, arc, &at, depth);
        let (de, ve) = self.stage(Bound::Early, flop, arc, &at, depth);
        let slew = arc.out_slew.at(&at);
        Ok(NetState {
            late: Arr {
                t: ck_late + dl,
                var: vl,
                slew,
                depth: 1,
                gate_ps: dl,
                wire_ps: 0.0,
            },
            early: Arr {
                t: ck_early + de,
                var: ve,
                slew,
                depth: 1,
                gate_ps: de,
                wire_ps: 0.0,
            },
            late_pred_pin: None,
            reached: true,
        })
    }

    /// Seeds primary-input arrivals. Clock roots are excluded from data
    /// propagation.
    pub(crate) fn seed_primary_inputs(&self, state: &mut [NetState]) {
        let clock_names: Vec<&str> = self.cons.clocks.iter().map(|c| c.name.as_str()).collect();
        for &pi in self.nl.primary_inputs() {
            let net = self.nl.net(pi);
            if clock_names.contains(&net.name) {
                continue;
            }
            let base = Arr {
                t: self.cons.input_delay.value(),
                var: 0.0,
                slew: self.cons.input_slew,
                depth: 0,
                gate_ps: 0.0,
                wire_ps: 0.0,
            };
            state[pi.index()] = NetState {
                late: base,
                early: base,
                late_pred_pin: None,
                reached: true,
            };
        }
    }

    /// Evaluates one cell's output-net state from its inputs' current
    /// states. Returns the new state (default/unreached if no arrival
    /// reaches the cell) and the arc count evaluated.
    fn eval_cell(
        &self,
        cid: CellId,
        wires: &WireTable,
        state: &[NetState],
    ) -> Result<(NetState, u64)> {
        let graph = self.graph()?;
        let master = self.lib.cell(self.nl.cell_master(cid));
        if master.kind == CellKind::Flop {
            return Ok((self.launch(cid, wires, 1)?, 1));
        }
        let load = wires.driver_load(self.nl.cell_output(cid).index()).value();
        let k = self.k_sigma();

        // Combinational: evaluate every input arc.
        let mut arcs_evaluated = 0u64;
        let mut best_late: Option<(Arr, usize)> = None;
        let mut best_early: Option<Arr> = None;
        for (pin, &in_net) in self.nl.cell_inputs(cid).iter().enumerate() {
            let ns = state[in_net.index()];
            if !ns.reached {
                continue;
            }
            let si = graph.sink_pos(self.nl, cid, pin);
            let wire = wires.delay(in_net.index(), si);
            let si_delta = wires.si_delta(in_net.index());
            let (wl, wvl, we, wve) = self.wire_terms(wire);
            let arc = master
                .arc_of_pin(pin)
                .ok_or_else(|| Error::internal("missing arc"))?;
            arcs_evaluated += 1;

            // Each bound's (pin slew, load) is located once; its delay,
            // output slew and sigma tables share the axes.
            let at_late = arc.delay.locate(ns.late.slew + 0.25 * wire.value(), load);
            let (dl, vl) = self.stage(Bound::Late, cid, arc, &at_late, 1);
            let cand_late = Arr {
                t: ns.late.t + wl + si_delta + dl,
                var: ns.late.var + wvl + vl,
                slew: arc.out_slew.at(&at_late),
                depth: ns.late.depth + 1,
                gate_ps: ns.late.gate_ps + dl,
                wire_ps: ns.late.wire_ps + wl + si_delta,
            };
            let better = match &best_late {
                None => true,
                Some((b, _)) => cand_late.late_criterion(k) > b.late_criterion(k),
            };
            if better {
                best_late = Some((cand_late, pin));
            }

            let at_early = arc.delay.locate(ns.early.slew + 0.25 * wire.value(), load);
            let (de, ve) = self.stage(Bound::Early, cid, arc, &at_early, 1);
            let cand_early = Arr {
                t: ns.early.t + we - si_delta + de,
                var: ns.early.var + wve + ve,
                slew: arc.out_slew.at(&at_early),
                depth: ns.early.depth + 1,
                gate_ps: ns.early.gate_ps + de,
                wire_ps: ns.early.wire_ps + we - si_delta,
            };
            let better = match &best_early {
                None => true,
                Some(b) => cand_early.early_criterion(k) < b.early_criterion(k),
            };
            if better {
                best_early = Some(cand_early);
            }
        }
        let ns = match (best_late, best_early) {
            (Some((late, pin)), Some(early)) => NetState {
                late,
                early,
                late_pred_pin: Some(pin),
                reached: true,
            },
            _ => NetState::default(),
        };
        Ok((ns, arcs_evaluated))
    }

    /// The one arrival-propagation loop. It takes the `frontier`'s
    /// cells one at a time in `(level, cell id)` order, evaluates each
    /// from its inputs' current states, and writes its output state only
    /// when it changed; each write — net, overwritten state, the frontier
    /// to grow — goes to `on_write`. Flops sit at level 0 and read no
    /// arrival, and an arc a → b between combinational cells forces
    /// level(b) > level(a), so a cell is visited after all its drivers
    /// have settled and a write grows the frontier only above the cell
    /// being visited: both frontiers evaluate every cell they share with
    /// the same float ops in the same order.
    pub(crate) fn sweep(
        &self,
        wires: &WireTable,
        state: &mut [NetState],
        mut frontier: Frontier<'_>,
        mut on_write: impl FnMut(NetId, NetState, &mut Frontier<'_>),
    ) -> Result<SweepCounts> {
        // From scratch every output slot is still unreached, so "changed"
        // is `reached` and needs no load of the old state.
        let from_scratch = matches!(frontier, Frontier::Full(_));
        let mut counts = SweepCounts::default();
        while let Some(cid) = frontier.pop() {
            let (ns, arcs) = self.eval_cell(cid, wires, state)?;
            counts.cells += 1;
            counts.arcs += arcs;
            let out = self.nl.cell_output(cid);
            let changed = if from_scratch {
                ns.reached
            } else {
                ns != state[out.index()]
            };
            if changed {
                let prev = mem::replace(&mut state[out.index()], ns);
                counts.writes += 1;
                on_write(out, prev, &mut frontier);
            }
        }
        Ok(counts)
    }

    /// The analysis' timing state (the raw material for reports, PBA and
    /// path extraction): the sweep and one check per graph endpoint on
    /// the first call, borrowed on every later one.
    ///
    /// # Errors
    ///
    /// Propagates levelization failures (combinational loops) and
    /// interconnect estimation errors.
    pub fn propagate(&self) -> Result<&TimingState> {
        if let Some(st) = self.propagated.get() {
            return Ok(st);
        }
        let graph = Arc::clone(self.graph()?); // built (once) outside the propagation span
        let _span = tc_obs::span("sta.gba");
        let wires = self.wire_timings()?;
        let mut nets = vec![NetState::default(); self.nl.net_count()];
        self.seed_primary_inputs(&mut nets);
        let frontier = Frontier::full(&graph.level);
        let counts = self.sweep(&wires, &mut nets, frontier, |_, _, _| {})?;
        let mut rows = Vec::with_capacity(graph.endpoints.len());
        for &ep in &graph.endpoints {
            rows.extend(self.endpoint_row(ep, &nets, &wires)?);
        }
        tc_obs::counter("sta.arcs_evaluated").add(counts.arcs);
        tc_obs::counter("sta.nets_propagated").add(counts.writes);
        tc_obs::counter("sta.endpoint_checks").add(graph.endpoints.len() as u64);
        let st = TimingState {
            graph,
            nets,
            wires,
            rows: Arc::new(rows),
        };
        Ok(self.propagated.get_or_init(|| st))
    }

    /// The check at one endpoint from propagated states — shared by the
    /// fill and the timer's endpoint refresh. At a primary output it is
    /// setup-style, `None` when no arrival reaches it.
    pub(crate) fn endpoint_row(
        &self,
        ep: Endpoint,
        state: &[NetState],
        wires: &WireTable,
    ) -> Result<Option<EndpointTiming>> {
        let po = match ep {
            Endpoint::FlopD(fid) => return self.flop_endpoint(fid, state, wires),
            Endpoint::Output(po) => po,
        };
        let ns = state[po.index()];
        if !ns.reached {
            return Ok(None);
        }
        let k = self.k_sigma();
        let period = self.cons.default_clock().period.value();
        let required = period - self.cons.output_delay.value();
        let setup_slack = required - ns.late.late_criterion(k);
        Ok(Some(EndpointTiming {
            endpoint: ep,
            setup_slack: Ps::new(setup_slack),
            hold_slack: Ps::new(f64::INFINITY),
            arrival: Ps::new(ns.late.t),
            required: Ps::new(required),
            depth: ns.late.depth,
            gate_ps: ns.late.gate_ps,
            wire_ps: ns.late.wire_ps,
            data_slew: ns.late.slew,
        }))
    }

    /// Computes the setup/hold check at one flop's D pin. `None` for
    /// false-path flops and unreached D pins.
    fn flop_endpoint(
        &self,
        fid: CellId,
        state: &[NetState],
        wires: &WireTable,
    ) -> Result<Option<EndpointTiming>> {
        if self.cons.exceptions.is_false_path(fid) {
            return Ok(None); // set_false_path: checks waived
        }
        let k = self.k_sigma();
        let clk = self.cons.default_clock();
        let period = clk.period.value();
        let master = self.lib.cell(self.nl.cell_master(fid));
        let flop_t = master.flop.as_ref().expect("flop has constraint data");
        let d_net = self.nl.cell_inputs(fid)[0];
        let ns = state[d_net.index()];
        if !ns.reached {
            return Ok(None);
        }
        let si = self.graph()?.sink_pos(self.nl, fid, 0);
        let wire = wires.delay(d_net.index(), si);
        let si_delta = wires.si_delta(d_net.index());
        let (wl, wvl, we, wve) = self.wire_terms(wire);

        let data_late = Arr {
            t: ns.late.t + wl + si_delta,
            var: ns.late.var + wvl,
            wire_ps: ns.late.wire_ps + wl + si_delta,
            ..ns.late
        };
        let data_early = Arr {
            t: ns.early.t + we - si_delta,
            var: ns.early.var + wve,
            wire_ps: ns.early.wire_ps + we - si_delta,
            ..ns.early
        };
        let data_slew = ns.late.slew + 0.25 * wire.value();
        let cs = self.cons.clock_tree.clock_slew;
        let setup_req = flop_t.setup_at(data_slew, cs).value();
        let hold_req = flop_t.hold_at(data_slew, cs).value();
        let (ck_late, ck_early) = self.clock_arrivals(fid);

        // set_multicycle_path: the capture edge moves out by n−1
        // periods for setup; hold stays single-cycle (SDC default).
        let cycles = self.cons.exceptions.setup_cycles(fid) as f64;
        let setup_slack = (cycles * period + ck_early)
            - clk.uncertainty.value()
            - setup_req
            - data_late.late_criterion(k);
        let hold_slack =
            data_early.early_criterion(k) - ck_late - hold_req - clk.hold_uncertainty.value();

        Ok(Some(EndpointTiming {
            endpoint: Endpoint::FlopD(fid),
            setup_slack: Ps::new(setup_slack),
            hold_slack: Ps::new(hold_slack),
            arrival: Ps::new(data_late.t),
            required: Ps::new(cycles * period + ck_early - clk.uncertainty.value() - setup_req),
            depth: data_late.depth,
            gate_ps: data_late.gate_ps,
            wire_ps: data_late.wire_ps,
            data_slew,
        }))
    }

    /// The timing report: the timing state's rows, shared rather than
    /// copied (see [`TimingReport`]).
    ///
    /// # Errors
    ///
    /// Propagates levelization failures (combinational loops) and
    /// interconnect estimation errors.
    pub fn run(&self) -> Result<TimingReport> {
        Ok(self.propagate()?.report(self.cons.default_clock().period))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ids::NetId;
    use tc_device::VtClass;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    fn env() -> (Library, BeolStack) {
        (
            Library::generate(&LibConfig::default(), &PvtCorner::typical()),
            BeolStack::n20(),
        )
    }

    /// flop → 4 inverters → flop, hand-checkable.
    fn reg2reg(lib: &Library) -> Netlist {
        let mut nl = Netlist::new("reg2reg");
        let clk = nl.add_input("clk");
        let d0 = nl.add_input("d0");
        let dff = lib.variant("DFF", VtClass::Svt, 1.0).unwrap();
        let inv = lib.variant("INV", VtClass::Svt, 2.0).unwrap();
        let (_, q) = nl.add_cell("ff0", lib, dff, &[d0, clk]).unwrap();
        let mut net = q;
        for i in 0..4 {
            let (_, out) = nl.add_cell(format!("i{i}"), lib, inv, &[net]).unwrap();
            net = out;
        }
        let (_, q1) = nl.add_cell("ff1", lib, dff, &[net, clk]).unwrap();
        nl.mark_output(q1);
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 10.0);
        }
        nl
    }

    #[test]
    fn reg2reg_slack_tracks_period() {
        let (lib, stack) = env();
        let nl = reg2reg(&lib);
        let fast = Constraints::single_clock(2_000.0);
        let slow = Constraints::single_clock(200.0);
        let r_fast = Sta::new(&nl, &lib, &stack, &fast).run().unwrap();
        let r_slow = Sta::new(&nl, &lib, &stack, &slow).run().unwrap();
        assert!(r_fast.wns() > r_slow.wns());
        // Period delta flows 1:1 into slack.
        let d = r_fast.wns().value() - r_slow.wns().value();
        assert!((d - 1_800.0).abs() < 1.0, "slack delta {d}");
        // Relaxed clock meets timing.
        assert!(r_fast.wns().value() > 0.0);
    }

    #[test]
    fn arrival_equals_clock_plus_c2q_plus_stages() {
        let (lib, stack) = env();
        let nl = reg2reg(&lib);
        let cons = Constraints::single_clock(1_000.0).with_derate(DerateModel::None);
        let r = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
        let ff1 = nl.cell_named("ff1").unwrap();
        let ep = r
            .endpoints
            .iter()
            .find(|e| e.endpoint == Endpoint::FlopD(ff1))
            .unwrap();
        // 1 c2q + 4 inverters.
        assert_eq!(ep.depth, 5);
        assert!(ep.arrival.value() > 50.0, "arrival {}", ep.arrival);
        assert!(
            (ep.gate_ps + ep.wire_ps - (ep.arrival.value() - 50.0)).abs() < 1e-6,
            "breakdown must sum to arrival minus clock source latency"
        );
    }

    #[test]
    fn derate_models_order_pessimism() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
        let base = Constraints::single_clock(1_000.0);
        let wns = |derate: DerateModel| {
            let cons = base.clone().with_derate(derate);
            Sta::new(&nl, &lib, &stack, &cons)
                .run()
                .unwrap()
                .wns()
                .value()
        };
        let none = wns(DerateModel::None);
        let flat = wns(DerateModel::classic_flat());
        assert!(flat < none, "flat derate must eat slack: {flat} vs {none}");
        let lvf = wns(DerateModel::Lvf { k: 3.0 });
        assert!(lvf < none, "3σ LVF must eat slack");
    }

    #[test]
    fn longer_wires_reduce_slack() {
        let (lib, stack) = env();
        let mut nl = reg2reg(&lib);
        let cons = Constraints::single_clock(1_000.0);
        let base = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 400.0);
        }
        let long = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        assert!(long < base);
    }

    #[test]
    fn cppr_recovers_pessimism() {
        let (lib, stack) = env();
        let nl = reg2reg(&lib);
        let mut cons = Constraints::single_clock(600.0);
        cons.clock_tree.common = Ps::new(300.0);
        cons.clock_tree.default_leaf = Ps::new(60.0);
        let with = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        cons.cppr = false;
        let without = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        assert!(
            with > without,
            "CPPR must improve slack: {with} vs {without}"
        );
    }

    #[test]
    fn si_eats_setup_slack() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
        let mut cons = Constraints::single_clock(1_000.0);
        let base = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        cons.si_enabled = true;
        let si = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        assert!(si < base, "SI must eat slack: {si} vs {base}");
    }

    #[test]
    fn beol_corner_moves_timing() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
        // Exaggerate wires so the BEOL matters.
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 150.0);
        }
        let cons = Constraints::single_clock(1_500.0);
        let typ = Sta::new(&nl, &lib, &stack, &cons).run().unwrap().wns();
        let rcw = Sta::new(&nl, &lib, &stack, &cons)
            .with_beol_corner(BeolCorner::RcWorst)
            .run()
            .unwrap()
            .wns();
        assert!(rcw < typ);
    }

    #[test]
    fn a_derived_analysis_recomputes() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
        for i in 0..nl.net_count() {
            nl.set_wire_length(NetId::new(i), 150.0);
        }
        let cons = Constraints::single_clock(1_500.0);
        let flat = cons.clone().with_derate(DerateModel::None);
        let fresh = || Sta::new(&nl, &lib, &stack, &cons);
        let endpoints = |sta: &Sta<'_>| sta.run().unwrap().endpoints;

        // Every derivation starts from an analysis that has propagated.
        let sta = fresh();
        let typ = endpoints(&sta);
        assert_eq!(endpoints(&sta.clone()), typ);

        let rcw = endpoints(&fresh().with_beol_corner(BeolCorner::RcWorst));
        assert_ne!(
            rcw, typ,
            "the corner must move timing for this check to bite"
        );
        assert_eq!(
            endpoints(&sta.clone().with_beol_corner(BeolCorner::RcWorst)),
            rcw
        );

        let sample = stack.sample(&mut tc_core::rng::Rng::seed_from(7));
        let sampled = endpoints(&fresh().with_beol_sample(&sample));
        assert_ne!(sampled, typ);
        assert_eq!(endpoints(&sta.clone().with_beol_sample(&sample)), sampled);

        let derated = endpoints(&Sta::new(&nl, &lib, &stack, &flat));
        assert_ne!(derated, typ);
        let derived = Sta {
            cons: &flat,
            ..sta.clone()
        };
        assert_eq!(endpoints(&derived), derated);
    }

    #[test]
    fn false_path_waives_and_multicycle_relaxes() {
        let (lib, stack) = env();
        let nl = reg2reg(&lib);
        let ff1 = nl.cell_named("ff1").unwrap();
        // A period that violates.
        let probe = Constraints::single_clock(5_000.0);
        let wns = Sta::new(&nl, &lib, &stack, &probe)
            .run()
            .unwrap()
            .wns()
            .value();
        let mut cons = Constraints::single_clock(5_000.0 - wns - 50.0);
        let base = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
        assert!(base.wns().value() < 0.0);

        // Multicycle: 2 cycles adds exactly one period of slack at ff1.
        cons.exceptions.multicycle_to(ff1, 2);
        let mc = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
        let ep_base = base
            .endpoints
            .iter()
            .find(|e| e.endpoint == Endpoint::FlopD(ff1))
            .unwrap();
        let ep_mc = mc
            .endpoints
            .iter()
            .find(|e| e.endpoint == Endpoint::FlopD(ff1))
            .unwrap();
        let delta = ep_mc.setup_slack.value() - ep_base.setup_slack.value();
        assert!(
            (delta - cons.default_clock().period.value()).abs() < 1e-6,
            "multicycle slack delta {delta}"
        );
        // Hold is unchanged (SDC default).
        assert_eq!(ep_mc.hold_slack, ep_base.hold_slack);

        // False path: the endpoint disappears from the report.
        cons.exceptions.false_path_to(ff1);
        let fp = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
        assert!(fp
            .endpoints
            .iter()
            .all(|e| e.endpoint != Endpoint::FlopD(ff1)));
        assert!(fp.endpoints.len() == mc.endpoints.len() - 1);
    }

    #[test]
    fn hold_slack_present_and_generally_positive_with_ideal_clock() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 5).unwrap();
        let cons = Constraints::single_clock(1_000.0);
        let r = Sta::new(&nl, &lib, &stack, &cons).run().unwrap();
        // With an ideal clock (zero skew), most paths hold comfortably.
        let holds: Vec<f64> = r
            .endpoints
            .iter()
            .filter(|e| matches!(e.endpoint, Endpoint::FlopD(_)))
            .map(|e| e.hold_slack.value())
            .collect();
        assert!(!holds.is_empty());
        let ok = holds.iter().filter(|&&h| h > 0.0).count();
        assert!(
            ok * 10 >= holds.len() * 9,
            "{ok}/{} hold-clean",
            holds.len()
        );
    }
}
