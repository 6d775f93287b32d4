//! Graph-based timing analysis (GBA).
//!
//! Late/early arrivals with slews are propagated through the levelized
//! netlist; POCV/LVF variance is accumulated per stage and slacks are
//! margined at `mean ± k·σ` ("slacks now reported at a confidence tail of
//! the slack distribution", §1.3 footnote). AOCV in GBA uses the
//! conservative depth bound of 1 stage — the pessimism PBA then recovers.

use std::mem;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, LibCellId, NetId};
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
}

impl Arr {
    fn late_criterion(&self, k: f64) -> f64 {
        self.t + k * self.var.sqrt()
    }

    fn early_criterion(&self, k: f64) -> f64 {
        self.t - k * self.var.sqrt()
    }
}

/// The slew at an input pin: its net's slew degraded by a quarter of the
/// wire delay into the pin. An arc's tables and a flop's setup and hold
/// tables are read at it.
#[inline]
pub(crate) fn pin_slew(net_slew: f64, wire: Ps) -> f64 {
    net_slew + 0.25 * wire.value()
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

/// Per-net propagation state, 72 bytes: the sweep's gather copies one
/// per input pin into staging, a level's chunk at a time, before any of
/// the chunk's cells is evaluated.
///
/// From-scratch propagation and the incremental [`Timer`](crate::Timer)
/// write these through the *same* sweep (`Sta::sweep`), which is what
/// makes incremental results bit-identical to a from-scratch run. Only
/// the late bound carries its winning path's breakdown (depth, gate and
/// wire delay, predecessor pin): reports and PBA read it there, while
/// the hold check reads the early bound's arrival, variance and slew
/// alone.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetState {
    /// Late (max-delay) arrival bound at the net.
    pub late: Arr,
    /// Early (min-delay) arrival bound at the net.
    pub early: Arr,
    /// Cumulative gate delay along the late bound's winning path, ps.
    pub late_gate_ps: f64,
    /// Cumulative wire delay along the late bound's winning path, ps.
    pub late_wire_ps: f64,
    /// Stage count from the launch point along the late bound's path.
    pub late_depth: u32,
    /// Input pin of the net's driver that produced the late arrival —
    /// the breadcrumb PBA backtracking follows. Meaningful on a reached
    /// net that a combinational cell drives.
    pub late_pred_pin: u16,
    /// Whether any arrival reached this net.
    pub reached: bool,
}

const _: () = assert!(mem::size_of::<NetState>() == 72);

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

/// Cells per gather-then-evaluate chunk of the sweep. A constant, so the
/// staging stays a few tens of KB — inside L2 — however wide a level is.
const CHUNK: usize = 128;

/// What one cell of a sweep chunk reads, copied by the gather.
#[derive(Clone, Copy, Debug)]
struct StagedCell {
    cell: CellId,
    master: LibCellId,
    out: NetId,
    /// Load on the output net, fF.
    load: f64,
    /// The output net's state before the evaluation.
    prev: NetState,
    /// The output net's sink list ([`Netlist::net_sink_span`]).
    sinks: (u32, u32),
    /// Input pins staged for the cell, next in the chunk's pin staging.
    pins: u32,
}

/// What one input pin of a sweep chunk's cell reads, copied by the
/// gather.
#[derive(Clone, Copy, Debug)]
struct StagedPin {
    /// The input net's state.
    state: NetState,
    /// Wire delay from the net's driver to this pin.
    wire: Ps,
    /// The input net's SI delta, ps.
    si_delta: f64,
}

/// The sweep's staging: the level being visited and one chunk's gathered
/// reads. A timer keeps one across updates, so a warm sweep allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct SweepStage {
    level: Vec<u32>,
    cells: Vec<StagedCell>,
    pins: Vec<StagedPin>,
}

/// Wire timing cached per net: what its driver and all its sinks read.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetWire {
    /// Total load seen by the driver, fF.
    pub driver_load: Ff,
    /// SI delta delay (ps) added late / subtracted early when enabled.
    pub si_delta: f64,
}

/// Wire timings for a whole design: one [`NetWire`] per net, by net id,
/// and one wire delay per input pin, at the pin's global slot
/// `Netlist::pin_base(cell) + pin`.
///
/// An arc reads its sink's delay from the slot of the pin it enters —
/// one load, no lookup of the pin's place in its net's sink list — and
/// a sink moved to another net or position keeps its slot. The
/// incremental timer overwrites single slots and logs each overwritten
/// value, so the table never grows except with the design.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireTable {
    nets: Vec<NetWire>,
    pins: Vec<Ps>,
}

/// A pin slot no net's sink list has filled.
const HOLE: Ps = Ps::new(f64::NAN);

impl WireTable {
    /// Driver load of one net, fF.
    pub fn driver_load(&self, net: usize) -> Ff {
        self.nets[net].driver_load
    }

    /// SI delta delay of one net, ps.
    pub fn si_delta(&self, net: usize) -> f64 {
        self.nets[net].si_delta
    }

    /// Wire delay from its net's driver to the input pin at global slot
    /// `pin` (`Netlist::pin_base(cell) + pin`).
    #[inline]
    pub fn delay(&self, pin: usize) -> Ps {
        self.pins[pin]
    }

    /// Input-pin slots in the table.
    pub(crate) fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// Net entries in the table.
    #[cfg(test)]
    pub(crate) fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Resizes the table to `nets` nets and `pins` pin slots: grows it
    /// after a structural edit appended ids (new entries empty, new slots
    /// unfilled), or shrinks it back on rollback.
    pub(crate) fn resize(&mut self, nets: usize, pins: usize) {
        self.nets.resize(nets, NetWire::default());
        self.pins.resize(pins, HOLE);
    }

    /// Installs `entry` for `net`, returning the previous entry.
    pub(crate) fn install(&mut self, net: usize, entry: NetWire) -> NetWire {
        mem::replace(&mut self.nets[net], entry)
    }

    /// Writes the delay of pin slot `pin`, returning the previous one.
    pub(crate) fn set_delay(&mut self, pin: usize, delay: Ps) -> Ps {
        mem::replace(&mut self.pins[pin], delay)
    }

    /// The first pin slot that no sink list has filled.
    pub(crate) fn first_hole(&self) -> Option<usize> {
        self.pins.iter().position(|d| d.value().is_nan())
    }
}

/// Reusable scratch for wire-timing evaluation: the per-net sink-cap
/// staging buffer and the delays computed from it, aligned with the
/// net's sink list. One instance serves a whole propagation (or a whole
/// incremental-update batch) with no per-net allocations.
#[derive(Clone, Debug, Default)]
pub struct WireEvalScratch {
    sink_caps: Vec<Ff>,
    pub(crate) delays: Vec<Ps>,
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

    /// Computes one net's wire timing: returns its load and SI delta and
    /// leaves the per-sink delays in `scratch.delays`, aligned with the
    /// net's sink list. The single code path shared by full runs and
    /// incremental updates; with a warm `scratch` it allocates nothing.
    pub(crate) fn net_wire(&self, net: NetId, scratch: &mut WireEvalScratch) -> Result<NetWire> {
        scratch.sink_caps.clear();
        let sink_cap = |s: &PinRef| self.lib.cell(self.nl.cell_master(s.cell)).input_cap;
        scratch
            .sink_caps
            .extend(self.nl.net_sinks(net).iter().map(sink_cap));
        let ndr = NdrClass::from_route_class(self.nl.net_route_class(net));
        let wm = WireModel::from_length(self.nl.net_wire_length(net).max(1.0)).with_ndr(ndr);
        scratch.delays.clear();
        let (driver_load, _r_total) = wm.timing_into(
            self.stack,
            self.beol_corner,
            self.beol_sample,
            &scratch.sink_caps,
            &mut scratch.delays,
        );
        let si_delta = if self.cons.si_enabled {
            let layer = self.stack.layer(wm.layer);
            coupling_delta(layer, self.beol_corner, ndr, &scratch.delays)
        } else {
            0.0
        };
        Ok(NetWire {
            driver_load,
            si_delta,
        })
    }

    /// Computes every net's wire timing into a fresh [`WireTable`], in
    /// net order, each sink's delay at its pin slot.
    ///
    /// # Errors
    ///
    /// Fails if an input pin is on no net's sink list: every id-indexed
    /// column relies on the dense pin numbering.
    pub(crate) fn wire_timings(&self) -> Result<WireTable> {
        let nl = self.nl;
        let mut table = WireTable {
            nets: Vec::with_capacity(nl.net_count()),
            pins: vec![HOLE; nl.total_input_pins()],
        };
        let mut scratch = WireEvalScratch::default();
        for i in 0..nl.net_count() {
            let net = NetId::new(i);
            table.nets.push(self.net_wire(net, &mut scratch)?);
            for (s, &d) in nl.net_sinks(net).iter().zip(&scratch.delays) {
                table.pins[nl.pin_base(s.cell) + s.pin] = d;
            }
        }
        // A hole means cell ids are not dense or a sink list is
        // inconsistent with the cells' input columns; fail loudly here
        // rather than timing garbage.
        if let Some(hole) = table.first_hole() {
            return Err(Error::internal(format!(
                "timing graph: input-pin slot {hole} of {} has no sink entry — netlist sink \
                 lists are inconsistent with the dense pin index",
                table.pins.len()
            )));
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

    /// The state a flop launches at Q into `load` fF: its clock arrivals
    /// plus the CK→Q stage at the clock slew, derated for a path of
    /// `depth` stages (GBA passes 1, PBA its path's stage count).
    pub(crate) fn launch(&self, flop: CellId, load: f64, depth: usize) -> Result<NetState> {
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
            },
            early: Arr {
                t: ck_early + de,
                var: ve,
                slew,
            },
            late_gate_ps: dl,
            late_wire_ps: 0.0,
            late_depth: 1,
            late_pred_pin: 0,
            reached: true,
        })
    }

    /// The primary inputs that carry data: every one but the clock roots.
    pub(crate) fn data_inputs(&self) -> impl Iterator<Item = NetId> + '_ {
        let (nl, clocks) = (self.nl, &self.cons.clocks);
        let inputs = nl.primary_inputs().iter().copied();
        inputs.filter(move |&pi| clocks.iter().all(|c| c.name != nl.net(pi).name))
    }

    /// Seeds primary-input arrivals. Clock roots are excluded from data
    /// propagation.
    pub(crate) fn seed_primary_inputs(&self, state: &mut [NetState]) {
        for pi in self.data_inputs() {
            let base = Arr {
                t: self.cons.input_delay.value(),
                var: 0.0,
                slew: self.cons.input_slew,
            };
            state[pi.index()] = NetState {
                late: base,
                early: base,
                reached: true,
                ..NetState::default()
            };
        }
    }

    /// Evaluates one staged cell's output-net state from its staged
    /// inputs: `pins` holds one entry per input pin, in pin order (none
    /// for a flop). Returns the new state (default/unreached if no
    /// arrival reaches the cell) and the arc count evaluated.
    fn eval_cell(&self, c: &StagedCell, pins: &[StagedPin]) -> Result<(NetState, u64)> {
        let master = self.lib.cell(c.master);
        if master.kind == CellKind::Flop {
            return Ok((self.launch(c.cell, c.load, 1)?, 1));
        }
        let (cid, load) = (c.cell, c.load);
        let k = self.k_sigma();

        // Combinational: evaluate every input arc; the first reached one
        // sets both bounds, later ones replace a bound they beat.
        let mut arcs_evaluated = 0u64;
        let mut out = NetState::default();
        for (pin, p) in pins.iter().enumerate() {
            let ns = &p.state;
            if !ns.reached {
                continue;
            }
            let (wire, si_delta) = (p.wire, p.si_delta);
            let (wl, wvl, we, wve) = self.wire_terms(wire);
            let arc = master
                .arc_of_pin(pin)
                .ok_or_else(|| Error::internal("missing arc"))?;
            arcs_evaluated += 1;

            // Each bound's (pin slew, load) is located once; its delay,
            // output slew and sigma tables share the axes.
            let at_late = arc.delay.locate(pin_slew(ns.late.slew, wire), load);
            let (dl, vl) = self.stage(Bound::Late, cid, arc, &at_late, 1);
            let late = Arr {
                t: ns.late.t + wl + si_delta + dl,
                var: ns.late.var + wvl + vl,
                slew: arc.out_slew.at(&at_late),
            };
            if !out.reached || late.late_criterion(k) > out.late.late_criterion(k) {
                out.late = late;
                out.late_gate_ps = ns.late_gate_ps + dl;
                out.late_wire_ps = ns.late_wire_ps + wl + si_delta;
                out.late_depth = ns.late_depth + 1;
                out.late_pred_pin = u16::try_from(pin)
                    .map_err(|_| Error::internal("cell input pin past u16::MAX"))?;
            }

            let at_early = arc.delay.locate(pin_slew(ns.early.slew, wire), load);
            let (de, ve) = self.stage(Bound::Early, cid, arc, &at_early, 1);
            let early = Arr {
                t: ns.early.t + we - si_delta + de,
                var: ns.early.var + wve + ve,
                slew: arc.out_slew.at(&at_early),
            };
            if !out.reached || early.early_criterion(k) < out.early.early_criterion(k) {
                out.early = early;
            }
            out.reached = true;
        }
        Ok((out, arcs_evaluated))
    }

    /// The gather phase of the sweep: one pass of independent loads over
    /// the chunk `at` of level `l`, the cells `stage.level[at]`, copying
    /// everything each cell's evaluation and write will read into
    /// `stage` — its master, output net, output load, output state and
    /// sink span, and per input pin the input net's state, the pin's wire
    /// delay and the net's SI delta. A flop reads no input.
    ///
    /// Sound because a level-`l` combinational cell reads only nets
    /// driven by a primary input, a flop or a cell below `l`, all final
    /// before level `l` is handed out; checked in debug builds against
    /// the graph's `levels`.
    fn gather(
        &self,
        l: u32,
        at: Range<usize>,
        levels: &[u32],
        wires: &WireTable,
        state: &[NetState],
        stage: &mut SweepStage,
    ) {
        let nl = self.nl;
        let SweepStage { level, cells, pins } = stage;
        cells.clear();
        pins.clear();
        for &id in &level[at] {
            let cell = CellId::new(id as usize);
            debug_assert_eq!(
                levels[cell.index()],
                l,
                "cell {id} handed out off its level"
            );
            let master = nl.cell_master(cell);
            let inputs = match self.lib.cell(master).kind {
                CellKind::Flop => &[][..],
                _ => nl.cell_inputs(cell),
            };
            let base = nl.pin_base(cell);
            for (pin, &net) in inputs.iter().enumerate() {
                debug_assert!(
                    nl.net_driver(net).is_none_or(|d| {
                        levels[d.index()] < l
                            || self.lib.cell(nl.cell_master(d)).kind == CellKind::Flop
                    }),
                    "input {pin} of level-{l} cell {id} is driven at or above its level"
                );
                pins.push(StagedPin {
                    state: state[net.index()],
                    wire: wires.delay(base + pin),
                    si_delta: wires.si_delta(net.index()),
                });
            }
            let out = nl.cell_output(cell);
            cells.push(StagedCell {
                cell,
                master,
                out,
                load: wires.driver_load(out.index()).value(),
                prev: state[out.index()],
                sinks: nl.net_sink_span(out),
                pins: inputs.len() as u32,
            });
        }
    }

    /// The one arrival-propagation loop. The `frontier` hands it one
    /// level at a time, lowest first, and it takes each level in chunks
    /// of [`CHUNK`] cells in cell-id order. A chunk is
    /// [gathered](Self::gather) into `stage` first — independent loads,
    /// so their cache misses overlap — and then evaluated cell by cell
    /// from the staged copies, each output written only when it changed;
    /// each write — net, overwritten state, the output's sinks, the
    /// frontier to grow — goes to `on_write`.
    ///
    /// Flops sit at level 0 and read no arrival, and an arc a → b between
    /// combinational cells forces level(b) > level(a), so a level's inputs
    /// are final before any of its cells is evaluated, and a write grows
    /// the frontier only above the level being visited: a sweep from
    /// scratch and a dirty one evaluate every cell they share with the
    /// same float ops in the same `(level, cell id)` order. From scratch
    /// every output is still unreached, so a write is a reached output.
    pub(crate) fn sweep(
        &self,
        wires: &WireTable,
        state: &mut [NetState],
        frontier: &mut Frontier,
        stage: &mut SweepStage,
        mut on_write: impl FnMut(NetId, NetState, &[PinRef], &mut Frontier),
    ) -> Result<SweepCounts> {
        let levels = &self.graph()?.level;
        let mut counts = SweepCounts::default();
        while let Some(l) = frontier.next_level(&mut stage.level) {
            let cells = stage.level.len();
            for start in (0..cells).step_by(CHUNK) {
                self.gather(
                    l,
                    start..cells.min(start + CHUNK),
                    levels,
                    wires,
                    state,
                    stage,
                );
                let mut pin = 0;
                for c in &stage.cells {
                    let inputs = &stage.pins[pin..pin + c.pins as usize];
                    pin += inputs.len();
                    let (ns, arcs) = self.eval_cell(c, inputs)?;
                    counts.cells += 1;
                    counts.arcs += arcs;
                    if ns != c.prev {
                        state[c.out.index()] = ns;
                        counts.writes += 1;
                        on_write(c.out, c.prev, self.nl.sinks_at(c.sinks), frontier);
                    }
                }
            }
        }
        Ok(counts)
    }

    /// The late required time at every net of the propagated state `st`
    /// that honours the endpoint `rows` given, by net id: the latest late
    /// arrival at the net that still meets every one of those rows it
    /// reaches, `f64::INFINITY` where it reaches none.
    ///
    /// A flop row seeds its D net at `required − (wire + SI delta)`, an
    /// output row its net at `required`. The graph's levels are then
    /// visited highest first, and each arc of a combinational cell into a
    /// reached input net min-combines `req(out) − (wire + SI delta +
    /// arc)` into that net. Every term is recomputed as the forward
    /// sweep computed it, at the forward state's slews. A flop passes
    /// nothing back: its row is where a path ends.
    ///
    /// Under no derate, flat and AOCV, where GBA derates every stage at
    /// depth 1, this is the exact GBA required time: `req − late.t` at a
    /// net is the worst setup slack over the given rows' paths through
    /// it. CPPR does not change that here, because its credit is per
    /// flop, not per launch–capture pair. Under POCV and LVF it carries
    /// the mean alone, no variance: a ranking estimate, not a signoff
    /// number.
    pub(crate) fn required<'r>(
        &self,
        st: &TimingState,
        rows: impl IntoIterator<Item = &'r EndpointTiming>,
    ) -> Result<Vec<f64>> {
        let _span = tc_obs::span("sta.required");
        let (nl, wires) = (self.nl, &st.wires);
        let mut req = vec![f64::INFINITY; st.nets.len()];
        for row in rows {
            let (net, r) = match row.endpoint {
                Endpoint::FlopD(fid) => {
                    let d = nl.cell_inputs(fid)[0];
                    let (wl, ..) = self.wire_terms(wires.delay(nl.pin_base(fid)));
                    (d, row.required.value() - (wl + wires.si_delta(d.index())))
                }
                Endpoint::Output(net) => (net, row.required.value()),
            };
            req[net.index()] = req[net.index()].min(r);
        }
        let levels = Frontier::full(&st.graph.level).into_levels();
        for &id in levels.iter().rev().flatten() {
            let cell = CellId::new(id as usize);
            let master = self.lib.cell(nl.cell_master(cell));
            let out = nl.cell_output(cell).index();
            if master.kind == CellKind::Flop || req[out] == f64::INFINITY {
                continue;
            }
            let load = wires.driver_load(out).value();
            for (pin, &net) in nl.cell_inputs(cell).iter().enumerate() {
                let ns = &st.nets[net.index()];
                if !ns.reached {
                    continue;
                }
                let wire = wires.delay(nl.pin_base(cell) + pin);
                let (wl, ..) = self.wire_terms(wire);
                let arc = master
                    .arc_of_pin(pin)
                    .ok_or_else(|| Error::internal("missing arc"))?;
                let at = arc.delay.locate(pin_slew(ns.late.slew, wire), load);
                let (dl, _) = self.stage(Bound::Late, cell, arc, &at, 1);
                let r = req[out] - (wl + wires.si_delta(net.index()) + dl);
                req[net.index()] = req[net.index()].min(r);
            }
        }
        Ok(req)
    }

    /// The analysis' timing state (the raw material for reports, PBA and
    /// path extraction): the sweep and one check per graph endpoint on
    /// the first call, borrowed on every later one.
    ///
    /// # Errors
    ///
    /// Fails on constraints without a clock; propagates levelization
    /// failures (combinational loops) and interconnect estimation errors.
    pub fn propagate(&self) -> Result<&TimingState> {
        self.cons.checked_clock()?;
        if let Some(st) = self.propagated.get() {
            return Ok(st);
        }
        let graph = Arc::clone(self.graph()?); // built (once) outside the propagation span
        let _span = tc_obs::span("sta.gba");
        let wires = self.wire_timings()?;
        let mut nets = vec![NetState::default(); self.nl.net_count()];
        self.seed_primary_inputs(&mut nets);
        let mut frontier = Frontier::full(&graph.level);
        let mut stage = SweepStage::default();
        let counts = self.sweep(
            &wires,
            &mut nets,
            &mut frontier,
            &mut stage,
            |_, _, _, _| {},
        )?;
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
            depth: ns.late_depth as usize,
            gate_ps: ns.late_gate_ps,
            wire_ps: ns.late_wire_ps,
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
        let wire = wires.delay(self.nl.pin_base(fid));
        let si_delta = wires.si_delta(d_net.index());
        let (wl, wvl, we, wve) = self.wire_terms(wire);

        let data_late = Arr {
            t: ns.late.t + wl + si_delta,
            var: ns.late.var + wvl,
            ..ns.late
        };
        let data_early = Arr {
            t: ns.early.t + we - si_delta,
            var: ns.early.var + wve,
            ..ns.early
        };
        let data_slew = pin_slew(ns.late.slew, wire);
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
            depth: ns.late_depth as usize,
            gate_ps: ns.late_gate_ps,
            wire_ps: ns.late_wire_ps + wl + si_delta,
            data_slew,
        }))
    }

    /// The timing report: the timing state's rows, shared rather than
    /// copied (see [`TimingReport`]).
    ///
    /// # Errors
    ///
    /// Fails as [`Sta::propagate`] does.
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

    /// A constraint set without a clock (lint's TCL0201) is an error from
    /// every timing entry, never an out-of-bounds panic.
    #[test]
    fn constraints_without_a_clock_are_an_error_not_a_panic() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 11).unwrap();
        let mut cons = Constraints::single_clock(900.0);
        cons.clocks.clear();
        let sta = Sta::new(&nl, &lib, &stack, &cons);
        let no_clock = |e: Error| assert!(e.to_string().contains("no clock"), "{e}");
        no_clock(sta.propagate().unwrap_err());
        no_clock(sta.run().unwrap_err());
        no_clock(crate::pba::pba_worst_endpoints(&sta, 10).unwrap_err());
        no_clock(crate::pba::worst_paths(&sta, 10).unwrap_err());
        no_clock(crate::etm::Etm::extract(&sta, "tiny").err().unwrap());
        no_clock(
            crate::Timer::new(&nl, &lib, &stack, cons.clone())
                .err()
                .unwrap(),
        );
        let corner = BeolCorner::Typical;
        let timer = crate::Timer::with_corner(&nl, &lib, &stack, cons, corner);
        no_clock(timer.err().unwrap());
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
