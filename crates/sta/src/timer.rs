//! The persistent incremental timing engine.
//!
//! A [`Timer`] owns the [`TimingState`](crate::analysis::TimingState) of
//! its initial analysis (a long-lived [`TimingGraph`], per-net arrivals
//! and wire timings, one row per endpoint) and edits it in place. Instead
//! of re-timing the whole design after every ECO edit — the dominant
//! cost of the paper's Fig 1 closure loop — it
//! consumes the netlist's typed edit journal ([`NetlistEdit`]) and
//! re-propagates only the *dirty cones*: the fanout of each touched cell
//! and net, walked in levelized order until arrivals stop changing.
//!
//! Results are **bit-identical** to a from-scratch [`Sta`] run: there is
//! one propagation loop, which [`Timer::update`] drives over each rank's
//! dirty cells where `Sta::propagate` drives it over every cell, and the
//! wire-timing and endpoint code paths are shared too (see the invariants
//! note in `DESIGN.md`). A failed update rolls itself back.
//!
//! The timer also supports O(cone) speculative editing: open a [`Trial`]
//! on the netlist and the timer together, apply + evaluate a candidate
//! fix through it, and [`Trial::commit`] it or drop it. Every state write
//! during an update pushes its previous value onto an undo log, so a
//! dropped trial restores exactly the bytes the update overwrote, and
//! undoes the netlist journal with them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;
use std::sync::Arc;

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, NetId};
use tc_core::units::Ps;
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_liberty::{CellKind, Library};
use tc_netlist::level::levelize;
use tc_netlist::{Netlist, NetlistEdit};

use crate::analysis::{NetState, NetWire, Sta, SweepCounts, TimingState, WireEvalScratch};
use crate::constraints::Constraints;
use crate::pba::{self, CriticalPath};
use crate::report::{k_worst, Endpoint, EndpointTiming, TimingReport};

/// The static structure STA needs about a netlist, derived once and
/// reused across runs: the levelized evaluation order and the position
/// of every sink pin in its net's sink list.
///
/// Structure only changes on *structural* edits (buffer insertion,
/// rewiring); value edits (Vt-swap, resize, wirelength, NDR) reuse it
/// as-is. MCMM corner runs share one graph via `Arc` — corners differ
/// in libraries and constraints, not connectivity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingGraph {
    /// Cells in levelized evaluation order (flops first, then
    /// combinational cells, every cell strictly after all its drivers).
    pub(crate) order: Vec<CellId>,
    /// Inverse of `order`: position of each cell, indexed by cell id.
    pub(crate) order_pos: Vec<usize>,
    /// Dense per-pin sink positions: slot `Netlist::pin_base(cell) + pin`
    /// holds that input pin's index in its driving net's sink list — the
    /// lookup arrival evaluation needs to pick the right per-sink wire
    /// delay. A flat `Vec<u32>` indexed by global input-pin number, not a
    /// hash map: the hot path is one add and one load.
    pub(crate) sink_pos: Vec<u32>,
    /// Total timing-arc count of the design (1 per flop, 1 per
    /// combinational input pin) — the denominator of arc-reuse metrics.
    pub(crate) arc_count: u64,
    /// Levelization ranks: contiguous index ranges of `order` holding
    /// cells of equal logic depth. Cells within a rank are mutually
    /// independent (an arc from `a` to `b` forces
    /// `depth(b) ≥ depth(a) + 1`), so a rank may be evaluated in any
    /// order — including in parallel — with bit-identical results.
    pub(crate) ranks: Vec<std::ops::Range<usize>>,
    /// Every timing endpoint in report order — flop D pins by cell id,
    /// then primary outputs by net id, i.e. sorted by [`Endpoint`]'s
    /// order. This is the one place that order is written.
    pub(crate) endpoints: Vec<Endpoint>,
}

impl TimingGraph {
    /// Derives the timing structure of a netlist.
    ///
    /// # Errors
    ///
    /// Fails on combinational loops (levelization is impossible).
    pub fn build(nl: &Netlist, lib: &Library) -> Result<Self> {
        let lv = levelize(nl, lib)?;
        let mut order_pos = vec![0usize; nl.cell_count()];
        for (p, &c) in lv.order.iter().enumerate() {
            order_pos[c.index()] = p;
        }
        // Dense per-pin sink positions, written net by net. Start from
        // an invalid sentinel so the dense-id invariant is checkable.
        let mut sink_pos = vec![u32::MAX; nl.total_input_pins()];
        for i in 0..nl.net_count() {
            for (k, s) in nl.net(NetId::new(i)).sinks.iter().enumerate() {
                sink_pos[nl.pin_base(s.cell) + s.pin] = k as u32;
            }
        }
        // Every input pin must be a sink of exactly one net — the
        // invariant the flat lookup (and every id-indexed column) relies
        // on. A hole means cell ids are not dense or a sink list is
        // inconsistent with the cells' input columns; fail loudly here
        // rather than timing garbage.
        if let Some(hole) = sink_pos.iter().position(|&p| p == u32::MAX) {
            return Err(Error::internal(format!(
                "timing graph: input-pin slot {hole} of {} has no sink entry — netlist sink \
                 lists are inconsistent with the dense pin index",
                sink_pos.len()
            )));
        }
        let mut arc_count = 0u64;
        let mut endpoints = Vec::new();
        for (i, cell) in nl.cells().enumerate() {
            if lib.cell(cell.master).kind == CellKind::Flop {
                arc_count += 1;
                endpoints.push(Endpoint::FlopD(CellId::new(i)));
            } else {
                arc_count += cell.inputs.len() as u64;
            }
        }
        endpoints.extend(nl.primary_outputs().map(Endpoint::Output));
        // Group the order into equal-depth ranks. Levelization's FIFO
        // sweep enqueues depth-k cells only while processing depth-k−1
        // cells, so `order` is depth-sorted and ranks are contiguous.
        let mut ranks = Vec::new();
        let mut start = 0usize;
        for p in 1..=lv.order.len() {
            if p == lv.order.len()
                || lv.depth[lv.order[p].index()] != lv.depth[lv.order[start].index()]
            {
                debug_assert!(
                    p == lv.order.len()
                        || lv.depth[lv.order[p].index()] > lv.depth[lv.order[start].index()],
                    "levelized order must be depth-sorted"
                );
                ranks.push(start..p);
                start = p;
            }
        }
        Ok(TimingGraph {
            order: lv.order,
            order_pos,
            sink_pos,
            arc_count,
            ranks,
            endpoints,
        })
    }

    /// The report-order slot of one endpoint, by binary search.
    pub(crate) fn slot(&self, ep: Endpoint) -> Option<usize> {
        self.endpoints.binary_search(&ep).ok()
    }

    /// Index of `(cell, pin)` in its driving net's sink list.
    #[inline]
    pub(crate) fn sink_pos(&self, nl: &Netlist, cell: CellId, pin: usize) -> usize {
        self.sink_pos[nl.pin_base(cell) + pin] as usize
    }

    /// Total timing-arc count of the design.
    pub fn arc_count(&self) -> u64 {
        self.arc_count
    }
}

/// An epoch-marked dense set over small integer ids (cells, nets).
///
/// `insert` is one load + one store — no hashing, and no allocation once
/// the mark vector is warm. `begin` resets in O(1) by bumping the epoch
/// instead of clearing. Replaces the HashSet-then-sort dirty-cone
/// collection: the sorted id iteration order is identical, so update
/// order (and the undo log) is byte-for-byte unchanged.
#[derive(Debug, Default)]
struct MarkSet {
    mark: Vec<u32>,
    epoch: u32,
    items: Vec<u32>,
}

impl MarkSet {
    /// Starts a new collection round over ids `0..n`.
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One wrap every 2^32 rounds: clear and restart.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.items.clear();
    }

    /// Marks `i`; returns `true` on first insertion this round.
    fn insert(&mut self, i: usize) -> bool {
        if self.mark[i] == self.epoch {
            return false;
        }
        self.mark[i] = self.epoch;
        self.items.push(i as u32);
        true
    }

    /// The ids marked this round, sorted ascending.
    fn sorted_items(&mut self) -> &[u32] {
        self.items.sort_unstable();
        &self.items
    }
}

/// The dirty cells still to visit, keyed by order position so each rank's
/// share pops in evaluation order. A cell is queued at most once per
/// round.
#[derive(Debug, Default)]
pub(crate) struct Worklist {
    heap: BinaryHeap<Reverse<(usize, usize)>>,
    queued: MarkSet,
}

impl Worklist {
    /// Starts a new round over cell ids `0..cells`, dropping anything a
    /// failed round left behind.
    fn begin(&mut self, cells: usize) {
        self.heap.clear();
        self.queued.begin(cells);
    }

    pub(crate) fn push(&mut self, order_pos: &[usize], cell: usize) {
        if self.queued.insert(cell) {
            self.heap.push(Reverse((order_pos[cell], cell)));
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Moves every queued cell positioned before `end` into `batch`
    /// (cleared first), ascending in order position.
    pub(crate) fn pop_below(&mut self, end: usize, batch: &mut Vec<CellId>) {
        batch.clear();
        while let Some(&Reverse((pos, cell))) = self.heap.peek() {
            if pos >= end {
                break;
            }
            self.heap.pop();
            batch.push(CellId::new(cell));
        }
    }
}

/// Which cells of each levelization rank one sweep visits.
pub(crate) enum Frontier<'w> {
    /// Every cell: timing from scratch.
    Full,
    /// The rank's dirty cells, popped from the worklist; writes grow it.
    Dirty(&'w mut Worklist),
}

impl Frontier<'_> {
    /// Adds a cell to the frontier (from scratch every cell is already
    /// on it).
    fn push(&mut self, order_pos: &[usize], cell: usize) {
        if let Frontier::Dirty(worklist) = self {
            worklist.push(order_pos, cell);
        }
    }
}

/// Reusable buffers for one incremental update: dirty-set marks, the
/// worklist and its per-rank batch, and the wire-evaluation arena. Owned
/// by the [`Timer`] so the ~10⁵ transient allocations a per-update
/// rebuild would cost are paid once per timer instead.
#[derive(Debug, Default)]
struct UpdateScratch {
    dirty_nets: MarkSet,
    seed_cells: MarkSet,
    dirty_flop_eps: MarkSet,
    dirty_po_eps: MarkSet,
    worklist: Worklist,
    batch: Vec<CellId>,
    wire: WireEvalScratch,
}

/// A point in a timer's history that [`Timer::rollback_to`] can restore.
///
/// Raw checkpoints are for timer-only edits ([`Timer::skew_clock`]) and
/// for callers that drive the netlist journal themselves, such as the
/// repo benchmark; a netlist ECO is speculated with a [`Trial`], which
/// undoes both halves together. Committing an outermost trial empties the
/// undo log, so every checkpoint taken before that commit is refused
/// whole by `rollback_to`.
#[derive(Clone, Copy, Debug)]
pub struct TimerCheckpoint {
    cursor: usize,
    undo_len: usize,
    /// Outermost trial commits before this checkpoint.
    commits: u64,
}

/// One reversible write the incremental update performed. Pushed in
/// execution order; [`Timer::rollback_to`] pops in reverse.
enum UndoOp {
    /// A per-net arrival state was overwritten.
    NetState { net: usize, prev: NetState },
    /// A per-net wire timing was overwritten.
    NetWire { net: usize, prev: NetWire },
    /// An endpoint row was overwritten.
    Row {
        slot: usize,
        prev: Option<EndpointTiming>,
    },
    /// A structural edit replaced the timing graph (and, when the new
    /// graph lists other endpoints, re-laid the rows: `rows` holds the
    /// old vector) and grew the per-net vectors from `nets` entries.
    /// Pushed *before* the value ops of the same update, so popping
    /// restores values first.
    Structure {
        graph: Arc<TimingGraph>,
        rows: Option<Vec<Option<EndpointTiming>>>,
        nets: usize,
    },
    /// A flop's clock-leaf latency was written; `prev` is its previous
    /// map entry (`None`: absent, the flop sat on the default leaf).
    ClockLeaf { flop: CellId, prev: Option<Ps> },
}

/// The persistent incremental timer.
///
/// Build one with [`Timer::new`], edit the netlist through its journaled
/// ECO mutators, then call [`Timer::update`] to re-time just the dirty
/// cones. [`Timer::report`] and [`Timer::worst_paths`] read the cached
/// results without re-propagating anything. [`Timer::skew_clock`] is the
/// one edit made on the timer itself ([`Constraints`] are timer-owned):
/// same dirty sweep, logged on the undo log instead of the netlist journal.
/// A speculative edit of either kind goes through a [`Timer::trial`].
///
/// # Examples
///
/// ```
/// use tc_interconnect::BeolStack;
/// use tc_liberty::{LibConfig, Library, PvtCorner};
/// use tc_netlist::gen::{generate, BenchProfile};
/// use tc_sta::report::wns;
/// use tc_sta::{Constraints, Timer};
///
/// let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
/// let mut nl = generate(&lib, BenchProfile::tiny(), 42)?;
/// let stack = BeolStack::n20();
/// let cons = Constraints::single_clock(900.0);
///
/// let mut timer = Timer::new(&nl, &lib, &stack, cons)?;
/// let before = wns(timer.endpoints());
///
/// // Speculative fix: lengthen one net, re-time just its cone, reject.
/// let mut trial = timer.trial(&mut nl)?;
/// trial.netlist().set_wire_length(tc_core::ids::NetId::new(0), 250.0);
/// trial.update()?;
/// let after = wns(trial.timer().endpoints());
/// drop(trial); // netlist and timer roll back together
/// assert_eq!(wns(timer.endpoints()), before);
/// # let _ = after;
/// # Ok::<(), tc_core::Error>(())
/// ```
pub struct Timer<'a> {
    lib: &'a Library,
    stack: &'a BeolStack,
    cons: Constraints,
    beol_corner: BeolCorner,
    /// The initial analysis' timing state, taken over and edited in place.
    st: TimingState,
    /// How many journal entries have been consumed.
    cursor: usize,
    undo: Vec<UndoOp>,
    /// Open trials; the outermost one's commit empties `undo`.
    trials: usize,
    /// Outermost trial commits so far: the checkpoints they invalidated.
    commits: u64,
    scratch: UpdateScratch,
}

/// A speculative edit of a netlist and its [`Timer`] together — the one
/// keep-or-reject unit of the closure flow.
///
/// Opened by [`Timer::trial`], it borrows both halves until it ends. Edit
/// the netlist through [`Trial::netlist`] (timer-only edits such as
/// [`Timer::skew_clock`] through [`Trial::parts`]), re-time with
/// [`Trial::update`], judge from [`Trial::timer`]'s cached rows, and
/// [`Trial::commit`] to keep. Dropping an uncommitted trial — a rejection,
/// or an `Err` returned with `?` from inside it — undoes the netlist
/// journal and rolls the timer back to where both stood when it began.
///
/// Trials nest: open one on a trial's [`parts`](Trial::parts). A nested
/// commit keeps its undo entries for the enclosing trial; the outermost
/// commit empties the undo log, so the log is bounded by what is being
/// speculated, not by how long the timer has lived.
pub struct Trial<'t, 'a> {
    nl: &'t mut Netlist,
    timer: &'t mut Timer<'a>,
    nl_cp: usize,
    t_cp: TimerCheckpoint,
    committed: bool,
}

impl<'a> Trial<'_, 'a> {
    /// The netlist, for journaled ECO edits.
    pub fn netlist(&mut self) -> &mut Netlist {
        self.nl
    }

    /// The timer, for reading the cached results.
    pub fn timer(&self) -> &Timer<'a> {
        self.timer
    }

    /// Both halves at once, for a routine that edits the timer itself
    /// (useful skew) or opens a nested trial.
    pub fn parts(&mut self) -> (&mut Netlist, &mut Timer<'a>) {
        (self.nl, self.timer)
    }

    /// Re-times the edits made so far ([`Timer::update`]).
    ///
    /// # Errors
    ///
    /// As [`Timer::update`]; the trial stays open, and dropping it undoes
    /// the edits.
    pub fn update(&mut self) -> Result<()> {
        self.timer.update(self.nl)
    }

    /// Keeps the edits. The outermost commit empties the timer's undo log.
    pub fn commit(mut self) {
        self.committed = true;
        if self.timer.trials == 1 {
            self.timer.undo.clear();
            self.timer.commits += 1;
        }
    }
}

impl Drop for Trial<'_, '_> {
    fn drop(&mut self) {
        self.timer.trials -= 1;
        if !self.committed {
            // Both restores check their target before writing anything,
            // and an open trial's own checkpoints stay valid.
            let restored = self.nl.undo_to(self.nl_cp);
            let restored = restored.and_then(|()| self.timer.rollback_to(self.t_cp));
            debug_assert!(restored.is_ok(), "trial rollback: {restored:?}");
        }
    }
}

/// Classifies one sink pin whose arrival changed: flop D pins dirty
/// their endpoint check (CK pins follow the ideal clock model),
/// combinational pins join the frontier.
fn mark_sink_dirty(
    lib: &Library,
    nl: &Netlist,
    s: tc_netlist::PinRef,
    dirty_flop_eps: &mut MarkSet,
    mut enqueue: impl FnMut(usize),
) {
    if lib.cell(nl.cell(s.cell).master).kind == CellKind::Flop {
        if s.pin == 0 {
            dirty_flop_eps.insert(s.cell.index());
        }
    } else {
        enqueue(s.cell.index());
    }
}

impl<'a> Timer<'a> {
    /// Builds the graph and runs the initial full propagation at the
    /// typical BEOL corner.
    ///
    /// # Errors
    ///
    /// Fails on combinational loops or interconnect estimation errors.
    pub fn new(
        nl: &Netlist,
        lib: &'a Library,
        stack: &'a BeolStack,
        cons: Constraints,
    ) -> Result<Self> {
        Self::with_corner(nl, lib, stack, cons, BeolCorner::Typical)
    }

    /// Like [`Timer::new`] with an explicit BEOL extraction corner.
    ///
    /// # Errors
    ///
    /// Fails on combinational loops or interconnect estimation errors.
    pub fn with_corner(
        nl: &Netlist,
        lib: &'a Library,
        stack: &'a BeolStack,
        cons: Constraints,
        corner: BeolCorner,
    ) -> Result<Self> {
        // The only from-scratch fill; every edit goes through the
        // incremental path. The timer takes the state over, not a copy.
        let sta = Sta::new(nl, lib, stack, &cons).with_beol_corner(corner);
        sta.propagate()?;
        let st = sta.propagated.into_inner().expect("propagated above");
        Ok(Timer {
            lib,
            stack,
            cons,
            beol_corner: corner,
            st,
            cursor: nl.journal_len(),
            undo: Vec::new(),
            trials: 0,
            commits: 0,
            scratch: UpdateScratch::default(),
        })
    }

    /// Consumes journal entries past the cursor and re-propagates the
    /// dirty cones. No-op when the timer is already current.
    ///
    /// Results are bit-identical to a from-scratch run over the edited
    /// netlist: it is the same rank sweep, visiting only dirty cells.
    ///
    /// # Errors
    ///
    /// Fails if the netlist was rolled back *past* the timer's cursor
    /// (speculate with a [`Trial`], which rolls both back together), on
    /// combinational loops after structural edits, and on interconnect
    /// estimation errors. A failed update is rolled back before it
    /// returns — states, wires, endpoint checks, undo log and cursor are
    /// as on entry — so a trial dropped on the error leaves netlist and
    /// timer as they were before the offending edits.
    pub fn update(&mut self, nl: &Netlist) -> Result<()> {
        let journal_len = nl.journal_len();
        if self.cursor > journal_len {
            return Err(Error::invalid_input(format!(
                "timer cursor {} is past journal length {journal_len}: the netlist was rolled \
                 back — roll the timer back with the paired checkpoint instead",
                self.cursor
            )));
        }
        if self.cursor == journal_len {
            return Ok(());
        }
        self.retime(nl, |t| t.scan_journal(nl))
    }

    /// Moves one flop's clock-leaf latency by `delta` (useful skew) and
    /// re-times what that dirties: the flop's own D-pin check (its capture
    /// edge moved) and the launch cone from its Q. The constraint write is
    /// on the undo log: rollback restores the leaf entry, absent included.
    ///
    /// # Errors
    ///
    /// Fails, leaving the timer as it was, if it is stale (call
    /// [`Timer::update`] first), if `flop` is not a flop of `nl`, or on
    /// propagation errors.
    pub fn skew_clock(&mut self, nl: &Netlist, flop: CellId, delta: Ps) -> Result<()> {
        self.ensure_current(nl, "skew_clock")?;
        let id = flop.index();
        if id >= nl.cell_count() || self.lib.cell(nl.cell(flop).master).kind != CellKind::Flop {
            return Err(Error::invalid_input(format!(
                "skew_clock: cell {id} is not a flop"
            )));
        }
        self.retime(nl, |t| {
            let prev = t.cons.clock_tree.skew_by(flop, delta);
            t.undo.push(UndoOp::ClockLeaf { flop, prev });
            t.scratch.seed_cells.insert(id);
            t.scratch.dirty_flop_eps.insert(id);
            false
        })
    }

    /// Opens a [`Trial`] on `nl` and this timer: a speculative edit of
    /// both that a drop undoes.
    ///
    /// # Errors
    ///
    /// Fails if the timer is stale (call [`Timer::update`] first).
    pub fn trial<'t>(&'t mut self, nl: &'t mut Netlist) -> Result<Trial<'t, 'a>> {
        self.ensure_current(nl, "a trial")?;
        self.trials += 1;
        Ok(Trial {
            nl_cp: nl.journal_len(),
            t_cp: self.checkpoint(),
            nl,
            timer: self,
            committed: false,
        })
    }

    fn ensure_current(&self, nl: &Netlist, what: &str) -> Result<()> {
        if self.cursor == nl.journal_len() {
            return Ok(());
        }
        Err(Error::invalid_input(format!(
            "{what} requires an up-to-date timer: call update first"
        )))
    }

    /// One failure-atomic round on the dirty sweep: `seed` fills the
    /// emptied dirty sets and says whether the structure changed; every
    /// write is on the undo log, so an `Err` is rolled back first.
    fn retime(&mut self, nl: &Netlist, seed: impl FnOnce(&mut Self) -> bool) -> Result<()> {
        let _span = tc_obs::span("sta.incremental");
        let entry = self.checkpoint();
        // All dirty-set, worklist and wire-eval buffers live in the
        // timer-owned scratch arena, so a steady-state round performs
        // no transient allocations.
        let scr = &mut self.scratch;
        scr.dirty_nets.begin(nl.net_count());
        scr.seed_cells.begin(nl.cell_count());
        scr.dirty_flop_eps.begin(nl.cell_count());
        scr.dirty_po_eps.begin(nl.net_count());
        scr.worklist.begin(nl.cell_count());
        let structural = seed(self);
        let swept = self.sweep_dirty(nl, structural);
        if swept.is_err() {
            self.rollback_to(entry)?;
        }
        let (counts, checks) = swept?;

        self.cursor = nl.journal_len();
        tc_obs::histogram("sta.dirty_cone_size").record(counts.cells as f64);
        tc_obs::counter("sta.arcs_recomputed").add(counts.arcs);
        tc_obs::counter("sta.arcs_reused").add(self.st.graph.arc_count.saturating_sub(counts.arcs));
        tc_obs::counter("sta.endpoint_checks").add(checks);
        Ok(())
    }

    /// Phase 1 of an update: scans the unconsumed journal suffix into the
    /// dirty sets. Returns whether any edit was structural.
    fn scan_journal(&mut self, nl: &Netlist) -> bool {
        let scr = &mut self.scratch;
        let mut structural = false;
        for edit in &nl.journal()[self.cursor..] {
            match edit {
                NetlistEdit::SwapMaster {
                    cell,
                    old_master,
                    new_master,
                } => {
                    // Arc tables changed: re-evaluate the cell. Pin caps
                    // changed: every input net's wire timing is stale.
                    scr.seed_cells.insert(cell.index());
                    for &input in nl.cell(*cell).inputs {
                        scr.dirty_nets.insert(input.index());
                    }
                    let old_kind = self.lib.cell(*old_master).kind;
                    let new_kind = self.lib.cell(*new_master).kind;
                    if old_kind != new_kind {
                        // Flop <-> comb swaps change levelization.
                        structural = true;
                    }
                    if old_kind == CellKind::Flop || new_kind == CellKind::Flop {
                        // Setup/hold tables live on the master.
                        scr.dirty_flop_eps.insert(cell.index());
                    }
                }
                NetlistEdit::SetWireLength { net, .. } | NetlistEdit::SetRouteClass { net, .. } => {
                    scr.dirty_nets.insert(net.index());
                }
                NetlistEdit::InsertBuffer {
                    buffer,
                    buffer_out,
                    src_net,
                    moved_sinks,
                } => {
                    structural = true;
                    scr.dirty_nets.insert(src_net.index());
                    scr.dirty_nets.insert(buffer_out.index());
                    scr.seed_cells.insert(buffer.index());
                    for (s, _) in moved_sinks {
                        mark_sink_dirty(self.lib, nl, *s, &mut scr.dirty_flop_eps, |c| {
                            scr.seed_cells.insert(c);
                        });
                    }
                }
                NetlistEdit::RewireInput {
                    sink,
                    old_net,
                    new_net,
                    ..
                } => {
                    structural = true;
                    scr.dirty_nets.insert(old_net.index());
                    scr.dirty_nets.insert(new_net.index());
                    mark_sink_dirty(self.lib, nl, *sink, &mut scr.dirty_flop_eps, |c| {
                        scr.seed_cells.insert(c);
                    });
                }
            }
        }
        structural
    }

    /// Phases 2–5, shared by every seeder: structure rebuild, wire
    /// recompute, the dirty sweep from the seeded cells, endpoint refresh.
    /// Returns the sweep's counts and the endpoint checks made.
    fn sweep_dirty(&mut self, nl: &Netlist, structural: bool) -> Result<(SweepCounts, u64)> {
        let scr = &mut self.scratch;

        // Phase 2: structural edits invalidate the levelization and the
        // sink-index map; rebuild once for the whole batch and grow the
        // per-net vectors (ids are append-only). A graph listing other
        // endpoints (a flop <-> comb swap) gets the rows re-laid by
        // endpoint key. An endpoint new to it starts empty: only a swap
        // to a flop master adds one, and the swap dirtied its check.
        if structural {
            let graph = Arc::new(TimingGraph::build(nl, self.lib)?);
            let rows = (graph.endpoints != self.st.graph.endpoints).then(|| {
                let old = &self.st;
                let relaid = graph.endpoints.iter().map(|&ep| {
                    let slot = old.graph.slot(ep);
                    slot.and_then(|s| old.rows[s].clone())
                });
                let relaid = relaid.collect();
                mem::replace(&mut self.st.rows, relaid)
            });
            self.undo.push(UndoOp::Structure {
                graph: mem::replace(&mut self.st.graph, graph),
                rows,
                nets: self.st.nets.len(),
            });
            self.st.nets.resize(nl.net_count(), NetState::default());
            self.st.wires.resize(nl.net_count());
        }

        // Borrows fields, not `self`: the cached vectors stay writable.
        let sta = Sta::new(nl, self.lib, self.stack, &self.cons)
            .with_beol_corner(self.beol_corner)
            .with_graph(Arc::clone(&self.st.graph));
        let graph = sta.graph()?;
        let order_pos = &graph.order_pos;
        // Dirty sets iterate in sorted id order so update order (and
        // thus the undo log and any accumulated float state) is
        // deterministic.
        for &c in scr.seed_cells.sorted_items() {
            scr.worklist.push(order_pos, c as usize);
        }

        // Phase 3: recompute dirty wire timings into the pooled arena.
        // A changed wire dirties its driver (load changed) and every
        // sink (arrival changed); an unchanged recomputation is trimmed
        // back off the end of the pool.
        let wires = &mut self.st.wires;
        for &n in scr.dirty_nets.sorted_items() {
            let n = n as usize;
            let start = wires.pool_len();
            let cand = sta.net_wire_entry(NetId::new(n), &mut scr.wire, wires.pool_mut())?;
            let old = wires.entry(n);
            if old.driver_load == cand.driver_load
                && old.si_delta == cand.si_delta
                && wires.delays(n) == wires.pool_slice(start, cand.len as usize)
            {
                wires.pool_truncate(start);
                continue;
            }
            let prev = wires.install(n, cand);
            self.undo.push(UndoOp::NetWire { net: n, prev });
            let net = nl.net(NetId::new(n));
            if let Some(drv) = net.driver {
                scr.worklist.push(order_pos, drv.index());
            }
            for &s in net.sinks {
                mark_sink_dirty(self.lib, nl, s, &mut scr.dirty_flop_eps, |c| {
                    scr.worklist.push(order_pos, c);
                });
            }
        }

        // Phase 4: the rank sweep over the dirty frontier. Flops order
        // before all comb cells and every comb cell after its drivers,
        // so each cell is evaluated at most once, after all its inputs
        // have settled — exactly what a from-scratch sweep computes.
        // Propagation stops where arrivals stop changing.
        let (lib, undo) = (self.lib, &mut self.undo);
        let counts = sta.sweep(
            &self.st.wires,
            &mut self.st.nets,
            Frontier::Dirty(&mut scr.worklist),
            &mut scr.batch,
            |out, prev, frontier| {
                undo.push(UndoOp::NetState {
                    net: out.index(),
                    prev,
                });
                let net = nl.net(out);
                if net.is_output {
                    scr.dirty_po_eps.insert(out.index());
                }
                for &s in net.sinks {
                    mark_sink_dirty(lib, nl, s, &mut scr.dirty_flop_eps, |c| {
                        frontier.push(order_pos, c);
                    });
                }
            },
        )?;

        // Phase 5: rewrite the dirty endpoint rows in place, in report
        // order. A dirty cell the graph lists no endpoint for was swapped
        // away from a flop master; its row went with the re-lay.
        let flops = scr.dirty_flop_eps.sorted_items().iter();
        let outputs = scr.dirty_po_eps.sorted_items().iter();
        let dirty = flops
            .map(|&c| Endpoint::FlopD(CellId::new(c as usize)))
            .chain(outputs.map(|&n| Endpoint::Output(NetId::new(n as usize))));
        let mut checks = 0u64;
        for ep in dirty {
            let Some(slot) = graph.slot(ep) else {
                continue;
            };
            checks += 1;
            let row = sta.endpoint_row(ep, &self.st.nets, &self.st.wires)?;
            if row != self.st.rows[slot] {
                let prev = mem::replace(&mut self.st.rows[slot], row);
                self.undo.push(UndoOp::Row { slot, prev });
            }
        }
        Ok((counts, checks))
    }

    /// Marks the current state for later [`Timer::rollback_to`]. Cheap
    /// (three integers); see [`TimerCheckpoint`] for when to take one
    /// instead of opening a [`Trial`].
    pub fn checkpoint(&self) -> TimerCheckpoint {
        TimerCheckpoint {
            cursor: self.cursor,
            undo_len: self.undo.len(),
            commits: self.commits,
        }
    }

    /// Restores the exact timer state at `cp` by replaying the undo log
    /// in reverse — O(writes since the checkpoint), not O(design).
    ///
    /// # Errors
    ///
    /// Fails, changing nothing, if `cp` is newer than the timer's current
    /// state (rollback only goes backwards) or was taken before an
    /// outermost trial commit emptied the undo log.
    pub fn rollback_to(&mut self, cp: TimerCheckpoint) -> Result<()> {
        if cp.commits != self.commits {
            return Err(Error::invalid_input(
                "checkpoint predates a trial commit, which emptied the undo log",
            ));
        }
        if cp.undo_len > self.undo.len() || cp.cursor > self.cursor {
            return Err(Error::invalid_input(
                "checkpoint is newer than the timer state",
            ));
        }
        while self.undo.len() > cp.undo_len {
            match self.undo.pop().expect("length checked") {
                UndoOp::NetState { net, prev } => self.st.nets[net] = prev,
                UndoOp::NetWire { net, prev } => {
                    self.st.wires.install(net, prev);
                }
                UndoOp::Row { slot, prev } => self.st.rows[slot] = prev,
                UndoOp::Structure { graph, rows, nets } => {
                    self.st.graph = graph;
                    if let Some(rows) = rows {
                        self.st.rows = rows;
                    }
                    self.st.nets.truncate(nets);
                    self.st.wires.truncate(nets);
                }
                UndoOp::ClockLeaf { flop, prev } => {
                    let leaf = &mut self.cons.clock_tree.leaf;
                    match prev {
                        Some(latency) => leaf.insert(flop, latency),
                        None => leaf.remove(&flop),
                    };
                }
            }
        }
        self.cursor = cp.cursor;
        Ok(())
    }

    /// An owned copy of the cached endpoint rows — same rows, same order
    /// as [`Sta::run`], no propagation. For a caller that keeps a report
    /// across later edits; [`Timer::endpoints`] borrows instead.
    pub fn report(&self, _nl: &Netlist) -> TimingReport {
        self.st.report(self.cons.default_clock().period)
    }

    /// The cached endpoint checks in report order, borrowed: what a
    /// speculative-trial loop scans instead of cloning a report per trial.
    pub fn endpoints(&self) -> impl Iterator<Item = &EndpointTiming> {
        self.st.endpoints()
    }

    /// The cached check at one flop's D pin (`None` for a false-path or
    /// unreached flop, or a cell that is not one).
    pub fn flop_endpoint(&self, flop: CellId) -> Option<&EndpointTiming> {
        self.st.row(Endpoint::FlopD(flop))
    }

    /// Extracts the worst paths from the cached timing state (the
    /// closure fix engine's work list): the reader [`crate::worst_paths`]
    /// uses, over the cached rows — no propagation, no report.
    ///
    /// # Errors
    ///
    /// Propagates path-backtracking failures.
    pub fn worst_paths(&self, nl: &Netlist, k: usize) -> Result<Vec<CriticalPath>> {
        let sta = Sta::new(nl, self.lib, self.stack, &self.cons).with_beol_corner(self.beol_corner);
        pba::paths_to(&sta, &self.st, k_worst(self.endpoints(), k))
    }

    /// The active constraint set.
    pub fn constraints(&self) -> &Constraints {
        &self.cons
    }

    /// The library the design is timed against.
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// The cached timing state: per-net states, wire timings and
    /// endpoint rows.
    pub fn state(&self) -> &TimingState {
        &self.st
    }

    /// How many journal entries the timer has consumed.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_device::VtClass;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    fn env() -> (Library, BeolStack) {
        (
            Library::generate(&LibConfig::default(), &PvtCorner::typical()),
            BeolStack::n20(),
        )
    }

    /// Full-STA ground truth for the current netlist.
    fn full(nl: &Netlist, lib: &Library, stack: &BeolStack, cons: &Constraints) -> TimingReport {
        Sta::new(nl, lib, stack, cons).run().unwrap()
    }

    fn assert_matches_full(timer: &Timer<'_>, nl: &Netlist, lib: &Library, stack: &BeolStack) {
        let sta = Sta::new(nl, lib, stack, timer.constraints());
        assert!(timer.state() == sta.propagate().unwrap(), "state diverged");
    }

    /// Moves every sink of the widest-fanout driven net behind a buffer.
    fn buffer_fattest_net(nl: &mut Netlist, lib: &Library) {
        let fat = (0..nl.net_count())
            .map(NetId::new)
            .filter(|&n| nl.net(n).driver.is_some())
            .max_by_key(|&n| nl.net(n).sinks.len())
            .unwrap();
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        let sinks = nl.net(fat).sinks.to_vec();
        nl.insert_buffer(lib, fat, &sinks, buf).unwrap();
    }

    #[test]
    fn fresh_timer_matches_full_sta() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let cons = Constraints::single_clock(900.0);
        let timer = Timer::new(&nl, &lib, &stack, cons.clone()).unwrap();
        let fresh = full(&nl, &lib, &stack, &cons);
        assert_eq!(timer.report(&nl).endpoints, fresh.endpoints);
        assert_eq!(timer.report(&nl).wns(), fresh.wns());
    }

    #[test]
    fn value_edits_retime_incrementally_and_exactly() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let cons = Constraints::single_clock(900.0);
        let mut timer = Timer::new(&nl, &lib, &stack, cons).unwrap();

        // Wirelength, NDR, and a Vt swap on some mid-design objects.
        nl.set_wire_length(NetId::new(nl.net_count() / 2), 300.0);
        nl.set_route_class(NetId::new(nl.net_count() / 3), 2);
        let victim = nl
            .cells()
            .position(|c| lib.cell(c.master).kind != CellKind::Flop)
            .unwrap();
        let m = lib.cell(nl.cell(CellId::new(victim)).master);
        if let Some(alt) = lib.variant(m.template.name, VtClass::Lvt, m.drive) {
            nl.swap_master(&lib, CellId::new(victim), alt).unwrap();
        }
        timer.update(&nl).unwrap();
        assert_matches_full(&timer, &nl, &lib, &stack);
    }

    #[test]
    fn structural_edit_rebuilds_and_matches() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let cons = Constraints::single_clock(900.0);
        let mut timer = Timer::new(&nl, &lib, &stack, cons).unwrap();

        buffer_fattest_net(&mut nl, &lib);
        timer.update(&nl).unwrap();
        assert_matches_full(&timer, &nl, &lib, &stack);
    }

    #[test]
    fn rollback_restores_exact_state() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 9).unwrap();
        let cons = Constraints::single_clock(900.0);
        let mut timer = Timer::new(&nl, &lib, &stack, cons).unwrap();
        let before = timer.state().clone();

        let nl_cp = nl.journal_len();
        let t_cp = timer.checkpoint();
        // A structural + a value edit, then reject both.
        buffer_fattest_net(&mut nl, &lib);
        nl.set_wire_length(NetId::new(1), 400.0);
        timer.update(&nl).unwrap();
        assert_ne!(timer.st.nets.len(), before.nets.len());

        nl.undo_to(nl_cp).unwrap();
        timer.rollback_to(t_cp).unwrap();
        assert!(timer.state() == &before);
        assert_eq!(timer.cursor(), nl.journal_len());
        // And the rolled-back timer still updates correctly afterwards.
        nl.set_wire_length(NetId::new(2), 150.0);
        timer.update(&nl).unwrap();
        assert_matches_full(&timer, &nl, &lib, &stack);
    }

    #[test]
    fn failed_update_leaves_the_timer_untouched() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 9).unwrap();
        let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
        let before = timer.state().clone();
        let (cursor, undo_len) = (timer.cursor(), timer.undo.len());

        // One batch: a legal buffer insertion, then a rewire that feeds a
        // gate from its own fanout — levelization must reject it after
        // the update has already grown the vectors and logged undo ops.
        let nl_cp = nl.journal_len();
        let is_comb = |c: CellId| lib.cell(nl.cell(c).master).kind != CellKind::Flop;
        let (a, b) = (0..nl.cell_count())
            .map(CellId::new)
            .filter(|&a| is_comb(a))
            .find_map(|a| {
                let sinks = nl.net(nl.cell(a).output).sinks;
                sinks.iter().find(|s| is_comb(s.cell)).map(|s| (a, s.cell))
            })
            .unwrap();
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        let sinks = nl.net(nl.cell(a).output).sinks.to_vec();
        nl.insert_buffer(&lib, nl.cell(a).output, &sinks, buf)
            .unwrap();
        nl.rewire_input(tc_netlist::PinRef { cell: a, pin: 0 }, nl.cell(b).output);
        assert!(timer.update(&nl).is_err());

        assert!(timer.state() == &before);
        assert_eq!((timer.cursor(), timer.undo.len()), (cursor, undo_len));

        // The caller drops the bad edits and carries on.
        nl.undo_to(nl_cp).unwrap();
        nl.set_wire_length(NetId::new(2), 150.0);
        timer.update(&nl).unwrap();
        assert_matches_full(&timer, &nl, &lib, &stack);
    }

    #[test]
    fn outermost_commit_empties_the_undo_log() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
        // Taken on an empty log: only the commit count can refuse it.
        let stale = timer.checkpoint();
        for _ in 0..1_000 {
            let mut trial = timer.trial(&mut nl).unwrap();
            buffer_fattest_net(trial.netlist(), &lib);
            trial.update().unwrap();
            assert!(!trial.timer().undo.is_empty(), "a structural round logs");
            trial.commit();
            assert!(timer.undo.is_empty());
        }
        assert_matches_full(&timer, &nl, &lib, &stack);

        // A checkpoint older than a commit is refused whole.
        let (before, cursor) = (timer.state().clone(), timer.cursor());
        assert!(timer.rollback_to(stale).is_err());
        assert!(timer.state() == &before);
        assert_eq!(timer.cursor(), cursor);

        // A nested commit — a netlist edit, then a skew with no netlist
        // half — keeps its entries for the enclosing trial, whose drop
        // undoes both.
        let journal_len = nl.journal_len();
        let flop = nl.flops(&lib).next().unwrap();
        let mut outer = timer.trial(&mut nl).unwrap();
        {
            let (nl, timer) = outer.parts();
            let mut inner = timer.trial(nl).unwrap();
            inner.netlist().set_wire_length(NetId::new(2), 150.0);
            inner.update().unwrap();
            let (nl, timer) = inner.parts();
            timer.skew_clock(nl, flop, Ps::new(10.0)).unwrap();
            inner.commit();
        }
        assert!(!outer.timer().undo.is_empty());
        assert!(outer.timer().state() != &before);
        drop(outer);
        assert!(timer.state() == &before);
        assert!(timer.constraints().clock_tree.leaf.is_empty());
        assert_eq!((nl.journal_len(), timer.cursor()), (journal_len, cursor));
    }

    #[test]
    fn update_rejects_netlist_rolled_back_past_cursor() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
        let cp = nl.journal_len();
        nl.set_wire_length(NetId::new(0), 99.0);
        timer.update(&nl).unwrap();
        nl.undo_to(cp).unwrap();
        assert!(timer.update(&nl).is_err());
    }

    #[test]
    fn no_op_update_touches_nothing() {
        let (lib, stack) = env();
        let nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
        let cp = timer.checkpoint();
        timer.update(&nl).unwrap();
        let cp2 = timer.checkpoint();
        assert_eq!(cp.undo_len, cp2.undo_len);
        assert_eq!(cp.cursor, cp2.cursor);
    }
}
