//! The persistent incremental timing engine.
//!
//! A [`Timer`] owns the [`TimingState`] of its initial analysis (a
//! long-lived [`TimingGraph`], per-net arrivals and wire timings, one row
//! per checked endpoint) and edits it in place. Instead
//! of re-timing the whole design after every ECO edit — the dominant
//! cost of the paper's Fig 1 closure loop — it
//! consumes the netlist's typed edit journal ([`NetlistEdit`]) and
//! re-propagates only the *dirty cones*: the fanout of each touched cell
//! and net, walked in levelized order until arrivals stop changing.
//!
//! Results are **bit-identical** to a from-scratch [`Sta`] run: there is
//! one propagation loop, which [`Timer::update`] drives over the dirty
//! cells where `Sta::propagate` drives it over every cell, both in
//! `(level, cell id)` order, and the wire-timing and endpoint code paths
//! are shared too (see the invariants note in `DESIGN.md`). A failed
//! update rolls itself back.
//!
//! A structural edit (buffer insertion, rewiring, a flop ↔ combinational
//! master swap) repairs the graph in place: the levels of the cells it
//! rewired are re-derived and relaxed along the fanout whose level
//! changes, and only the swapped cells' endpoint slots are rewritten.
//! The repaired graph equals [`TimingGraph::build`] of the edited
//! netlist.
//!
//! The timer also supports O(cone) speculative editing: open a [`Trial`]
//! on the netlist and the timer together, apply + evaluate a candidate
//! fix through it, and [`Trial::commit`] it or drop it. Every state write
//! during an update — the graph repair included — pushes its previous
//! value onto an undo log, so a dropped trial restores exactly the bytes
//! the update overwrote, and undoes the netlist journal with them.

use std::mem;
use std::sync::Arc;

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, NetId};
use tc_core::units::Ps;
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_liberty::{CellKind, Library};
use tc_netlist::level::levelize;
use tc_netlist::{Netlist, NetlistEdit, PinRef};

use crate::analysis::{
    NetState, NetWire, Sta, SweepCounts, SweepStage, TimingState, WireEvalScratch,
};
use crate::constraints::Constraints;
use crate::pba::{self, CriticalPath};
use crate::report::{k_worst, Endpoint, EndpointTiming, TimingReport};

/// The static structure STA needs about a netlist: every cell's logic
/// level, the arc count and the endpoint list.
///
/// It is a pure function of the netlist's connectivity and cell kinds,
/// so two graphs of the same netlist compare equal however they were
/// reached.
/// [`TimingGraph::build`] derives it from scratch; the [`Timer`] repairs
/// its own copy in place after a structural edit (buffer insertion,
/// rewiring, a flop ↔ combinational master swap), touching only the
/// cells whose level changes. Value edits (Vt-swap, resize, wirelength,
/// NDR) reuse it as-is. MCMM corner runs share one graph via `Arc` —
/// corners differ in libraries and constraints, not connectivity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingGraph {
    /// Logic level of each cell, indexed by cell id: 0 for a flop (a
    /// launch point), and for a combinational cell one more than the
    /// highest level among its combinational drivers (1 when it has
    /// none). An arc between combinational cells `a → b` forces
    /// `level(b) > level(a)`, so the sweep's `(level, cell id)` order
    /// visits every cell after its drivers.
    pub(crate) level: Vec<u32>,
    /// Total timing-arc count of the design (1 per flop, 1 per
    /// combinational input pin) — the denominator of arc-reuse metrics.
    pub(crate) arc_count: u64,
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
        let level = levelize(nl, lib)?.level;
        let mut arc_count = 0u64;
        let mut endpoints = Vec::new();
        for i in 0..nl.cell_count() {
            let c = CellId::new(i);
            arc_count += arcs_of(nl, lib, c);
            if is_flop(nl, lib, c) {
                endpoints.push(Endpoint::FlopD(c));
            }
        }
        endpoints.extend(nl.primary_outputs().map(Endpoint::Output));
        Ok(TimingGraph {
            level,
            arc_count,
            endpoints,
        })
    }

    /// Whether `ep` is an endpoint of the graph, by binary search.
    pub(crate) fn has_endpoint(&self, ep: Endpoint) -> bool {
        self.endpoints.binary_search(&ep).is_ok()
    }

    /// Total timing-arc count of the design.
    pub fn arc_count(&self) -> u64 {
        self.arc_count
    }
}

fn is_flop(nl: &Netlist, lib: &Library, c: CellId) -> bool {
    lib.cell(nl.cell_master(c)).kind == CellKind::Flop
}

/// Timing arcs of one cell: 1 for a flop (CK → Q), one per input pin
/// for a combinational cell.
fn arcs_of(nl: &Netlist, lib: &Library, c: CellId) -> u64 {
    if is_flop(nl, lib, c) {
        1
    } else {
        nl.cell_inputs(c).len() as u64
    }
}

/// An epoch-marked dense set over small integer ids (cells, nets).
///
/// `insert` is one load + one store — no hashing, and no allocation once
/// the mark vector is warm (it grows to the largest id marked). `begin`
/// resets in O(1) by bumping the epoch instead of clearing. Iterated in
/// sorted id order, so update order (and the undo log) is deterministic.
#[derive(Debug, Default)]
struct MarkSet {
    mark: Vec<u32>,
    epoch: u32,
    items: Vec<u32>,
}

impl MarkSet {
    /// Starts a new collection round.
    fn begin(&mut self) {
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
        if i >= self.mark.len() {
            self.mark.resize(i + 1, 0);
        }
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

/// The cells one sweep visits, handed out a whole level at a time in
/// `(level, cell id)` order: one bucket of cell ids per level, sorted
/// when its level is handed out. A visitor queues cells only above the
/// level it was handed, so a bucket is complete when it is sorted, and a
/// level's cells read only states settled before it. A cell is queued
/// at most once per round through [`push`](Self::push); a relaxation
/// queues one again through [`push_at`](Self::push_at) each time its
/// level moves and skips the entries its level has left. The buckets are
/// kept across rounds, so a warm frontier allocates nothing, and a round
/// clears and visits only the levels from its lowest queued to its
/// highest.
#[derive(Debug, Default)]
pub(crate) struct Frontier {
    buckets: Vec<Vec<u32>>,
    /// The levels that may still hold queued cells: none below `lo`,
    /// none from `hi` on (`lo == hi`: none at all).
    lo: usize,
    hi: usize,
    /// The level last handed out this round.
    visiting: Option<usize>,
    queued: MarkSet,
}

impl Frontier {
    /// Every cell of a graph with these levels: timing from scratch.
    /// Cells go in in id order, so each bucket is already sorted.
    pub(crate) fn full(level: &[u32]) -> Self {
        let mut sizes = vec![0usize; level.iter().max().map_or(0, |&m| m as usize + 1)];
        for &l in level {
            sizes[l as usize] += 1;
        }
        let mut buckets: Vec<Vec<u32>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (i, &l) in level.iter().enumerate() {
            buckets[l as usize].push(i as u32);
        }
        Frontier {
            hi: buckets.len(),
            buckets,
            ..Frontier::default()
        }
    }

    /// The buckets, lowest level first. Of a [`full`](Self::full)
    /// frontier: every cell of the graph by level, each level in id order.
    pub(crate) fn into_levels(self) -> Vec<Vec<u32>> {
        self.buckets
    }

    /// Starts a new round, dropping anything a failed round left behind.
    fn begin(&mut self) {
        self.buckets[self.lo..self.hi]
            .iter_mut()
            .for_each(Vec::clear);
        (self.lo, self.hi, self.visiting) = (0, 0, None);
        self.queued.begin();
    }

    /// Queues `cell` at its level in `level` unless it already is.
    pub(crate) fn push(&mut self, level: &[u32], cell: usize) {
        if self.queued.insert(cell) {
            self.push_at(level[cell], CellId::new(cell));
        }
    }

    /// Queues `cell` at level `l` however often it already is.
    fn push_at(&mut self, l: u32, cell: CellId) {
        let l = l as usize;
        debug_assert!(
            self.visiting.is_none_or(|v| l > v),
            "a cell is queued only above the level being visited"
        );
        if l >= self.buckets.len() {
            self.buckets.resize_with(l + 1, Vec::new);
        }
        self.buckets[l].push(cell.index() as u32);
        if self.lo == self.hi {
            (self.lo, self.hi) = (l, l + 1);
        } else {
            (self.lo, self.hi) = (self.lo.min(l), self.hi.max(l + 1));
        }
    }

    /// Hands out the lowest level still queued: moves its cells into
    /// `cells`, sorted by id (stale relaxation entries included), and
    /// returns the level; `None`, with `cells` empty, once the round is
    /// done.
    pub(crate) fn next_level(&mut self, cells: &mut Vec<u32>) -> Option<u32> {
        cells.clear();
        while self.lo < self.hi {
            let l = self.lo;
            self.lo += 1;
            let bucket = &mut self.buckets[l];
            if !bucket.is_empty() {
                cells.append(bucket);
                cells.sort_unstable();
                self.visiting = Some(l);
                return Some(l as u32);
            }
        }
        None
    }
}

/// What a structural batch touched, collected by the journal scan: the
/// input pins whose driving arc may be new and the cells swapped across
/// the flop / combinational line.
/// A handful per round, so sorted vectors, not id-indexed marks.
#[derive(Debug, Default)]
struct StructEdits {
    pins: Vec<PinRef>,
    swaps: Vec<CellId>,
}

fn pin_key(s: &PinRef) -> (CellId, usize) {
    (s.cell, s.pin)
}

impl StructEdits {
    fn clear(&mut self) {
        self.pins.clear();
        self.swaps.clear();
    }

    /// Sorts and deduplicates what the scan pushed.
    fn finish(&mut self) {
        self.pins.sort_unstable_by_key(pin_key);
        self.pins.dedup();
        self.swaps.sort_unstable();
        self.swaps.dedup();
    }

    /// Whether the arc into `s` is one the batch may have added and has
    /// not yet joined: re-levelization joins `pins` in order and has
    /// joined the first `joined`.
    fn pending(&self, s: PinRef, joined: usize) -> bool {
        let at = self.pins.binary_search_by_key(&pin_key(&s), pin_key);
        at.is_ok_and(|i| i >= joined)
    }
}

/// The level writes of one structural round, each with the level it
/// overwrote, so a loop can restore them and a success can turn each
/// existing cell's first write into an undo entry.
#[derive(Debug, Default)]
struct LevelLog {
    /// Cells the round started with; cells past it are new.
    cells: usize,
    writes: Vec<(CellId, u32)>,
}

impl LevelLog {
    fn set(&mut self, level: &mut [u32], c: CellId, l: u32) {
        let i = c.index();
        if i < self.cells {
            self.writes.push((c, level[i]));
        }
        level[i] = l;
    }
}

/// Re-levelization after a structural batch, in place and local. Levels
/// are relaxed from the cells the batch rewired, and only along fanout
/// whose level actually changes.
///
/// 1. New cells and cells swapped across the flop / combinational line
///    start as if they had no incoming arc (flop 0, combinational 1).
///    Every arc the batch may have added is *pending*; every other arc
///    was in the old graph between the same cells, so it still goes
///    strictly up in level.
/// 2. The pending arcs join one at a time, in pin order. An arc `u → v`
///    with `level(u) < level(v)` already goes up. Otherwise it closes a
///    loop iff `v` reaches `u` over the joined arcs, which all go up, so
///    the search never leaves levels below `level(u)`. Then `v` rises to
///    `level(u) + 1` and the rise is relaxed down its fanout.
/// 3. Every level is now an upper bound that some path attains, except
///    where the batch removed arcs. So each cell with a rewired pin is
///    recomputed from its drivers in level order, and a drop is relaxed
///    down the fanout the same way.
#[derive(Debug, Default)]
struct Relevel {
    edits: StructEdits,
    log: LevelLog,
    /// Existing cells whose flop-ness the batch changed, ascending.
    kind_changed: Vec<CellId>,
    queue: Frontier,
    /// The level `queue` last handed out.
    visit: Vec<u32>,
    seen: MarkSet,
    stack: Vec<CellId>,
}

impl Relevel {
    /// Re-derives `level` for `nl` after the collected edits, growing it
    /// for new cells. On a combinational loop it restores `level` and
    /// returns levelization's error, which names the cells on the loop.
    /// On success `log.writes` holds, per existing cell it wrote, the
    /// level the cell had before the round, ascending by cell.
    fn run(&mut self, nl: &Netlist, lib: &Library, level: &mut Vec<u32>) -> Result<()> {
        self.log.cells = level.len();
        self.log.writes.clear();
        self.kind_changed.clear();
        self.edits.finish();
        let relevelled = self.relevel(nl, lib, level);
        let writes = &mut self.log.writes;
        if relevelled.is_err() {
            for &(c, l) in writes.iter().rev() {
                level[c.index()] = l;
            }
            level.truncate(self.log.cells);
        }
        // A stable sort keeps each cell's first write, and its level
        // before the round, first.
        writes.sort_by_key(|&(c, _)| c);
        writes.dedup_by_key(|&mut (c, _)| c);
        relevelled
    }

    fn relevel(&mut self, nl: &Netlist, lib: &Library, level: &mut Vec<u32>) -> Result<()> {
        let Relevel {
            edits,
            log,
            kind_changed,
            queue,
            visit,
            seen,
            stack,
        } = self;
        let comb = |c: CellId| !is_flop(nl, lib, c);
        let sinks = |c: CellId| nl.net_sinks(nl.cell_output(c));

        // Step 1. A flop's level is 0 and a combinational one's is ≥ 1,
        // so a level of 0 tells an existing cell was a flop.
        let cells = log.cells;
        level.extend((cells..nl.cell_count()).map(|i| u32::from(comb(CellId::new(i)))));
        for &c in &edits.swaps {
            if c.index() < cells && (level[c.index()] == 0) == comb(c) {
                kind_changed.push(c);
                log.set(level, c, u32::from(comb(c)));
            }
        }

        // Step 2.
        for (i, &pin) in edits.pins.iter().enumerate() {
            let (v, joined) = (pin.cell, i + 1);
            let Some(u) = nl.net_driver(nl.cell_inputs(v)[pin.pin]) else {
                continue;
            };
            let top = level[u.index()];
            if !comb(u) || !comb(v) || top < level[v.index()] {
                continue;
            }
            // A joined path from v climbs strictly, so it can only reach
            // u through cells below u's level.
            seen.begin();
            stack.clear();
            stack.push(v);
            let mut closes = u == v;
            while let Some(x) = stack.pop().filter(|_| !closes) {
                for &s in sinks(x) {
                    if !comb(s.cell) || edits.pending(s, joined) {
                        continue;
                    }
                    closes |= s.cell == u;
                    if level[s.cell.index()] < top && seen.insert(s.cell.index()) {
                        stack.push(s.cell);
                    }
                }
            }
            if closes {
                return Err(levelize(nl, lib).err().unwrap_or_else(|| {
                    Error::internal("re-levelization found a loop that levelization does not")
                }));
            }
            log.set(level, v, top + 1);
            queue.begin();
            queue.push_at(top + 1, v);
            while let Some(l) = queue.next_level(visit) {
                for x in visit.iter().map(|&x| CellId::new(x as usize)) {
                    if l != level[x.index()] {
                        continue; // superseded by a later rise
                    }
                    for &s in sinks(x) {
                        if comb(s.cell) && !edits.pending(s, joined) && level[s.cell.index()] <= l {
                            log.set(level, s.cell, l + 1);
                            queue.push_at(l + 1, s.cell);
                        }
                    }
                }
            }
        }

        // Step 3. Every push is of a cell above the level handed out, so
        // levels come in rising order and a cell's drivers are final when
        // it is recomputed.
        queue.begin();
        for s in edits.pins.iter().filter(|s| comb(s.cell)) {
            queue.push_at(level[s.cell.index()], s.cell);
        }
        while let Some(l) = queue.next_level(visit) {
            for x in visit.iter().map(|&x| CellId::new(x as usize)) {
                if l != level[x.index()] {
                    continue; // already recomputed
                }
                let exact = 1 + nl
                    .cell_inputs(x)
                    .iter()
                    .filter_map(|&n| nl.net_driver(n).filter(|&d| comb(d)))
                    .map(|d| level[d.index()])
                    .max()
                    .unwrap_or(0);
                debug_assert!(exact <= l, "step 2 leaves every level an upper bound");
                if exact < l {
                    log.set(level, x, exact);
                    for s in sinks(x).iter().filter(|s| comb(s.cell)) {
                        queue.push_at(level[s.cell.index()], s.cell);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Reusable buffers for one incremental update: dirty-set marks, the
/// frontier, the sweep's staging, the re-levelization buffers and the
/// wire-evaluation arena.
/// Owned by the [`Timer`] so the ~10⁵ transient allocations a per-update
/// rebuild would cost are paid once per timer instead.
#[derive(Debug, Default)]
struct UpdateScratch {
    dirty_nets: MarkSet,
    seed_cells: MarkSet,
    dirty_flop_eps: MarkSet,
    dirty_po_eps: MarkSet,
    frontier: Frontier,
    stage: SweepStage,
    relevel: Relevel,
    wire: WireEvalScratch,
}

/// A point in a timer's history that [`Timer::rollback_to`] can restore:
/// the journal cursor, the undo-log length and the commit count. Every
/// cache the timer writes, wire timings included, is overwritten in
/// place and undo-logged, so the log length is the whole position.
///
/// Raw checkpoints are for timer-only edits ([`Timer::skew_clock`]) and
/// for callers that drive the netlist journal themselves, such as the
/// repo benchmark; a netlist ECO is speculated with a [`Trial`], which
/// undoes both halves together. Committing an outermost trial empties the
/// undo log, so every checkpoint taken before that commit is refused
/// whole by `rollback_to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// A net's wire timing was recomputed: `prev` is its entry before,
    /// and `Timer::pin_undo` from `pins` on holds the pin slots it
    /// overwrote.
    NetWire {
        net: usize,
        prev: NetWire,
        pins: usize,
    },
    /// The row of `ep` was replaced, inserted or removed; `prev` is the
    /// row it had (`None`: it had none).
    Row {
        ep: Endpoint,
        prev: Option<EndpointTiming>,
    },
    /// A structural round grew the design past `cells` cells, `nets`
    /// nets and `pins` input pins, and moved the arc count from `arcs`.
    /// Pushed first in its round, so it is popped last.
    Grow {
        cells: usize,
        nets: usize,
        pins: usize,
        arcs: u64,
    },
    /// A cell moved from level `prev` to its current one.
    Level { cell: CellId, prev: u32 },
    /// A flop ↔ combinational swap inserted graph endpoint `slot`
    /// (`removed: None`) or removed it.
    Endpoint {
        slot: usize,
        removed: Option<Endpoint>,
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
    /// The pin-slot delays the logged [`UndoOp::NetWire`] entries
    /// overwrote, `(slot, previous delay)` in write order: 16 bytes a
    /// pin instead of one undo entry each.
    pin_undo: Vec<(usize, Ps)>,
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
            self.timer.pin_undo.clear();
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
    s: PinRef,
    dirty_flop_eps: &mut MarkSet,
    mut enqueue: impl FnMut(usize),
) {
    if lib.cell(nl.cell_master(s.cell)).kind == CellKind::Flop {
        if s.pin == 0 {
            dirty_flop_eps.insert(s.cell.index());
        }
    } else {
        enqueue(s.cell.index());
    }
}

/// [`mark_sink_dirty`] once the graph is repaired, where the flops are
/// the cells at level 0.
fn retime_sink(level: &[u32], s: PinRef, dirty_flop_eps: &mut MarkSet, frontier: &mut Frontier) {
    if level[s.cell.index()] != 0 {
        frontier.push(level, s.cell.index());
    } else if s.pin == 0 {
        dirty_flop_eps.insert(s.cell.index());
    }
}

/// Makes `row` the row of `ep` — replacing, inserting or, for `None`,
/// removing it — and returns the row `ep` had. A report still holding
/// the rows keeps its snapshot: they are copied first (counted in
/// `sta.rows_copied`), and the copy is the timer's own, so a round or a
/// rollback copies at most once however many rows it writes.
fn set_row(
    rows: &mut Arc<Vec<EndpointTiming>>,
    ep: Endpoint,
    row: Option<EndpointTiming>,
) -> Option<EndpointTiming> {
    let found = rows.binary_search_by_key(&ep, |r| r.endpoint);
    if Arc::get_mut(rows).is_none() {
        tc_obs::counter("sta.rows_copied").add(1);
    }
    let rows = Arc::make_mut(rows);
    match (found, row) {
        (Ok(at), Some(row)) => Some(mem::replace(&mut rows[at], row)),
        (Ok(at), None) => Some(rows.remove(at)),
        (Err(at), Some(row)) => {
            rows.insert(at, row);
            None
        }
        (Err(_), None) => None,
    }
}

impl<'a> Timer<'a> {
    /// Builds the graph and runs the initial full propagation at the
    /// typical BEOL corner.
    ///
    /// # Errors
    ///
    /// Fails on constraints without a clock, combinational loops or
    /// interconnect estimation errors.
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
    /// Fails on constraints without a clock, combinational loops or
    /// interconnect estimation errors.
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
            pin_undo: Vec::new(),
            trials: 0,
            commits: 0,
            scratch: UpdateScratch::default(),
        })
    }

    /// Consumes journal entries past the cursor and re-propagates the
    /// dirty cones. No-op when the timer is already current.
    ///
    /// Results are bit-identical to a from-scratch run over the edited
    /// netlist: it is the same sweep, visiting only dirty cells.
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
        if id >= nl.cell_count() || !is_flop(nl, self.lib, flop) {
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
        // All dirty-set, frontier and wire-eval buffers live in the
        // timer-owned scratch arena, so a steady-state round performs
        // no transient allocations.
        let scr = &mut self.scratch;
        scr.dirty_nets.begin();
        scr.seed_cells.begin();
        scr.dirty_flop_eps.begin();
        scr.dirty_po_eps.begin();
        scr.frontier.begin();
        scr.relevel.edits.clear();
        let structural = seed(self);
        let swept = self.sweep_dirty(nl, structural);
        if swept.is_err() {
            self.rollback_to(entry)?;
        }
        let (counts, checks, level_moves) = swept?;

        self.cursor = nl.journal_len();
        tc_obs::histogram("sta.dirty_cone_size").record(counts.cells as f64);
        tc_obs::counter("sta.arcs_recomputed").add(counts.arcs);
        tc_obs::counter("sta.arcs_reused").add(self.st.graph.arc_count.saturating_sub(counts.arcs));
        tc_obs::counter("sta.endpoint_checks").add(checks);
        if let Some(moves) = level_moves {
            tc_obs::counter("sta.structural_rounds").add(1);
            tc_obs::histogram("sta.level_moves").record(moves as f64);
        }
        Ok(())
    }

    /// Phase 1 of an update: scans the unconsumed journal suffix into the
    /// dirty sets, and a structural edit's pins and swaps into the
    /// re-levelization's. Returns whether any edit was structural.
    fn scan_journal(&mut self, nl: &Netlist) -> bool {
        let scr = &mut self.scratch;
        let edits = &mut scr.relevel.edits;
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
                    for &input in nl.cell_inputs(*cell) {
                        scr.dirty_nets.insert(input.index());
                    }
                    let old_kind = self.lib.cell(*old_master).kind;
                    let new_kind = self.lib.cell(*new_master).kind;
                    if old_kind != new_kind {
                        // Flop <-> comb swaps change levelization: every
                        // arc into and out of the cell appears or goes.
                        structural = true;
                        edits.swaps.push(*cell);
                        let ins =
                            (0..nl.cell_inputs(*cell).len()).map(|pin| PinRef { cell: *cell, pin });
                        edits.pins.extend(ins);
                        edits.pins.extend(nl.net_sinks(nl.cell_output(*cell)));
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
                    edits.pins.push(PinRef {
                        cell: *buffer,
                        pin: 0,
                    });
                    for (s, _) in moved_sinks {
                        edits.pins.push(*s);
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
                    edits.pins.push(*sink);
                    mark_sink_dirty(self.lib, nl, *sink, &mut scr.dirty_flop_eps, |c| {
                        scr.seed_cells.insert(c);
                    });
                }
            }
        }
        structural
    }

    /// Phase 2 of a structural round: repairs the graph in place for the
    /// scanned edits — levels, the endpoint slots of flop ↔ comb swaps,
    /// the arc count — and grows the per-net and per-pin vectors (ids
    /// are append-only). Every write is a delta on the undo log; on a
    /// combinational loop nothing is written. Returns the number of
    /// existing cells whose level changed.
    fn repair_structure(&mut self, nl: &Netlist) -> Result<usize> {
        let (lib, relevel) = (self.lib, &mut self.scratch.relevel);
        // Copy-on-write: a caller still holding a state clone keeps the
        // graph it cloned.
        let graph = Arc::make_mut(&mut self.st.graph);
        let (cells, pins) = (graph.level.len(), self.st.wires.pin_count());
        relevel.run(nl, lib, &mut graph.level)?;
        self.undo.push(UndoOp::Grow {
            cells,
            nets: self.st.nets.len(),
            pins,
            arcs: graph.arc_count,
        });

        for i in cells..nl.cell_count() {
            let c = CellId::new(i);
            debug_assert!(!is_flop(nl, lib, c), "a buffer is combinational");
            graph.arc_count += arcs_of(nl, lib, c);
        }
        let mut moves = 0;
        for &(cell, prev) in &relevel.log.writes {
            if graph.level[cell.index()] != prev {
                self.undo.push(UndoOp::Level { cell, prev });
                moves += 1;
            }
        }

        // A swap to a flop master adds an endpoint; a swap away drops
        // one. Either swap dirtied the check, so its row follows in
        // phase 5.
        for &c in &relevel.kind_changed {
            let (ep, inputs) = (Endpoint::FlopD(c), nl.cell_inputs(c).len() as u64);
            let (slot, removed) = match graph.endpoints.binary_search(&ep) {
                Err(slot) => {
                    graph.arc_count = graph.arc_count + 1 - inputs;
                    graph.endpoints.insert(slot, ep);
                    (slot, None)
                }
                Ok(slot) => {
                    graph.arc_count = graph.arc_count + inputs - 1;
                    (slot, Some(graph.endpoints.remove(slot)))
                }
            };
            self.undo.push(UndoOp::Endpoint { slot, removed });
        }

        self.st.nets.resize(nl.net_count(), NetState::default());
        self.st.wires.resize(nl.net_count(), nl.total_input_pins());
        Ok(moves)
    }

    /// Phases 2–5, shared by every seeder: structure repair, wire
    /// recompute, the dirty sweep from the seeded cells, endpoint refresh.
    /// Returns the sweep's counts, the endpoint checks made and, for a
    /// structural round, the cells whose level changed.
    fn sweep_dirty(
        &mut self,
        nl: &Netlist,
        structural: bool,
    ) -> Result<(SweepCounts, u64, Option<usize>)> {
        let level_moves = if structural {
            Some(self.repair_structure(nl)?)
        } else {
            None
        };
        let scr = &mut self.scratch;

        // Borrows fields, not `self`: the cached vectors stay writable.
        let sta = Sta::new(nl, self.lib, self.stack, &self.cons)
            .with_beol_corner(self.beol_corner)
            .with_graph(Arc::clone(&self.st.graph));
        let graph = sta.graph()?;
        let level = &graph.level;
        // Dirty sets iterate in sorted id order so update order (and
        // thus the undo log and any accumulated float state) is
        // deterministic.
        for &c in scr.seed_cells.sorted_items() {
            scr.frontier.push(level, c as usize);
        }

        // Phase 3: recompute dirty wire timings. A changed load dirties
        // the driver, a changed SI delta every sink, and a changed pin
        // slot its own sink — a sink that moved to another net or
        // position included, since its slot now holds that place's delay.
        let wires = &mut self.st.wires;
        for &n in scr.dirty_nets.sorted_items() {
            let net = NetId::new(n as usize);
            let cand = sta.net_wire(net, &mut scr.wire)?;
            let (prev, pins) = (wires.install(net.index(), cand), self.pin_undo.len());
            if prev.driver_load != cand.driver_load {
                if let Some(drv) = nl.net_driver(net) {
                    scr.frontier.push(level, drv.index());
                }
            }
            let si_changed = prev.si_delta != cand.si_delta;
            for (&s, &delay) in nl.net_sinks(net).iter().zip(&scr.wire.delays) {
                let pin = nl.pin_base(s.cell) + s.pin;
                let changed = wires.delay(pin) != delay;
                if changed {
                    self.pin_undo.push((pin, wires.set_delay(pin, delay)));
                }
                if changed || si_changed {
                    retime_sink(level, s, &mut scr.dirty_flop_eps, &mut scr.frontier);
                }
            }
            if prev != cand || self.pin_undo.len() > pins {
                let net = net.index();
                self.undo.push(UndoOp::NetWire { net, prev, pins });
            }
        }
        debug_assert!(
            !structural || wires.first_hole().is_none(),
            "a new pin left unfilled"
        );

        // Phase 4: the sweep over the dirty frontier. Flops order
        // before all comb cells and every comb cell after its drivers,
        // so each cell is evaluated at most once, after all its inputs
        // have settled — exactly what a from-scratch sweep computes.
        // Propagation stops where arrivals stop changing.
        let undo = &mut self.undo;
        let counts = sta.sweep(
            &self.st.wires,
            &mut self.st.nets,
            &mut scr.frontier,
            &mut scr.stage,
            |out, prev, sinks, frontier| {
                undo.push(UndoOp::NetState {
                    net: out.index(),
                    prev,
                });
                if nl.net_is_output(out) {
                    scr.dirty_po_eps.insert(out.index());
                }
                for &s in sinks {
                    retime_sink(level, s, &mut scr.dirty_flop_eps, frontier);
                }
            },
        )?;

        // Phase 5: re-check the dirty endpoints in report order and
        // replace, insert or remove their rows. A dirty cell the graph
        // lists no endpoint for was swapped away from a flop master: its
        // row goes.
        let flops = scr.dirty_flop_eps.sorted_items().iter();
        let outputs = scr.dirty_po_eps.sorted_items().iter();
        let dirty = flops
            .map(|&c| Endpoint::FlopD(CellId::new(c as usize)))
            .chain(outputs.map(|&n| Endpoint::Output(NetId::new(n as usize))));
        let mut checks = 0u64;
        for ep in dirty {
            let row = if graph.has_endpoint(ep) {
                checks += 1;
                sta.endpoint_row(ep, &self.st.nets, &self.st.wires)?
            } else {
                None
            };
            if self.st.row(ep) != row.as_ref() {
                let prev = set_row(&mut self.st.rows, ep, row);
                self.undo.push(UndoOp::Row { ep, prev });
            }
        }
        Ok((counts, checks, level_moves))
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
            let op = self.undo.pop().expect("length checked");
            let st = &mut self.st;
            match op {
                UndoOp::NetState { net, prev } => st.nets[net] = prev,
                UndoOp::NetWire { net, prev, pins } => {
                    st.wires.install(net, prev);
                    for (pin, delay) in self.pin_undo.drain(pins..).rev() {
                        st.wires.set_delay(pin, delay);
                    }
                }
                UndoOp::Row { ep, prev } => {
                    set_row(&mut st.rows, ep, prev);
                }
                UndoOp::Grow {
                    cells,
                    nets,
                    pins,
                    arcs,
                } => {
                    let graph = Arc::make_mut(&mut st.graph);
                    graph.level.truncate(cells);
                    graph.arc_count = arcs;
                    st.nets.truncate(nets);
                    st.wires.resize(nets, pins);
                }
                UndoOp::Level { cell, prev } => {
                    Arc::make_mut(&mut st.graph).level[cell.index()] = prev
                }
                UndoOp::Endpoint { slot, removed } => {
                    let endpoints = &mut Arc::make_mut(&mut st.graph).endpoints;
                    match removed {
                        Some(ep) => endpoints.insert(slot, ep),
                        None => {
                            endpoints.remove(slot);
                        }
                    }
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

    /// A snapshot of the cached endpoint rows — same rows, same order as
    /// [`Sta::run`], no propagation — in O(1): the report shares the
    /// timer's row vector. A later edit or rollback leaves a report that
    /// is still alive as it was, by copying the rows once before it
    /// writes them; drop the report before the next edit to avoid the
    /// copy. [`Timer::endpoints`] borrows instead.
    pub fn report(&self, _nl: &Netlist) -> TimingReport {
        self.st.report(self.cons.default_clock().period)
    }

    /// The cached endpoint checks in report order, borrowed: what a
    /// speculative-trial loop scans instead of holding a report.
    pub fn endpoints(&self) -> impl Iterator<Item = &EndpointTiming> {
        self.st.rows.iter()
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

    /// The cached timing state: graph, per-net states, wire timings and
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

    /// The wire delays to `net`'s sinks, in sink-list order.
    fn sink_delays(timer: &Timer<'_>, nl: &Netlist, net: NetId) -> Vec<Ps> {
        let pin = |s: &PinRef| timer.st.wires.delay(nl.pin_base(s.cell) + s.pin);
        nl.net_sinks(net).iter().map(pin).collect()
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
    fn a_reused_frontier_hands_out_each_round_in_level_then_id_order() {
        let mut rng = tc_core::rng::Rng::seed_from(43);
        let level: Vec<u32> = (0..400).map(|_| rng.below(30) as u32).collect();
        let top = *level.iter().max().unwrap();
        let tops: Vec<usize> = (0..level.len()).filter(|&c| level[c] == top).collect();
        let mut frontier = Frontier::default();
        let mut visit = Vec::new();
        for round in 0..64 {
            frontier.begin();
            let mut queued = Vec::new();
            let push = |f: &mut Frontier, c: usize, queued: &mut Vec<(u32, u32)>| {
                f.push(&level, c);
                queued.push((level[c], c as u32));
            };
            // Round 0 queues nothing; every fourth round queues only
            // top-level cells; the others a few cells anywhere.
            let seeds = if round == 0 { 0 } else { 1 + rng.below(12) };
            for _ in 0..seeds {
                let c = match round % 4 {
                    1 => *rng.choose(&tops),
                    _ => rng.below(level.len()),
                };
                push(&mut frontier, c, &mut queued);
            }
            // The round visits only the levels from its lowest queued to
            // its highest: none in an empty round, one in a top-only one.
            let levels = queued.iter().map(|&(l, _)| l as usize);
            let span = levels.clone().min().zip(levels.max());
            let (lo, hi) = span.map_or((0, 0), |(lo, hi)| (lo, hi + 1));
            assert_eq!((frontier.lo, frontier.hi), (lo, hi), "round {round}");
            let mut got = Vec::new();
            while let Some(l) = frontier.next_level(&mut visit) {
                for &c in &visit {
                    got.push((l, c));
                    // Each visit queues cells above its level, some
                    // already queued.
                    for _ in 0..rng.below(3) {
                        let d = rng.below(level.len());
                        if level[d] > l {
                            push(&mut frontier, d, &mut queued);
                        }
                    }
                }
                // Every seventh round fails after its first level: the
                // next round must drop what it left queued.
                if round % 7 == 3 {
                    break;
                }
            }
            queued.sort_unstable();
            queued.dedup();
            if round % 7 == 3 {
                assert!(got.iter().all(|&(l, _)| l == got[0].0), "round {round}");
                continue;
            }
            assert_eq!(
                got, queued,
                "round {round}: each queued cell once, in order"
            );
        }
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
    fn structural_edit_repairs_the_graph_in_place() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let cons = Constraints::single_clock(900.0);
        let mut timer = Timer::new(&nl, &lib, &stack, cons).unwrap();
        let graph = Arc::as_ptr(&timer.st.graph);

        buffer_fattest_net(&mut nl, &lib);
        timer.update(&nl).unwrap();
        assert_eq!(Arc::as_ptr(&timer.st.graph), graph, "repaired, not rebuilt");
        assert_eq!(*timer.st.graph, TimingGraph::build(&nl, &lib).unwrap());
        assert_matches_full(&timer, &nl, &lib, &stack);

        // A state clone held across a structural round keeps the graph
        // it cloned; the timer repairs a copy of its own.
        let held = timer.state().clone();
        let nl_cp = nl.journal_len();
        buffer_fattest_net(&mut nl, &lib);
        timer.update(&nl).unwrap();
        assert!(held.graph != timer.st.graph);
        assert_eq!(*timer.st.graph, TimingGraph::build(&nl, &lib).unwrap());
        nl.undo_to(nl_cp).unwrap();
        assert_eq!(*held.graph, TimingGraph::build(&nl, &lib).unwrap());
    }

    /// Every row's endpoint, depth and `f64` bit patterns.
    fn bits(rows: &[EndpointTiming]) -> Vec<(Endpoint, usize, [u64; 7])> {
        rows.iter()
            .map(|r| {
                let f64s = [
                    r.setup_slack.value(),
                    r.hold_slack.value(),
                    r.arrival.value(),
                    r.required.value(),
                    r.gate_ps,
                    r.wire_ps,
                    r.data_slew,
                ];
                (r.endpoint, r.depth, f64s.map(f64::to_bits))
            })
            .collect()
    }

    #[test]
    fn a_report_is_a_snapshot_of_the_shared_rows() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
        let shares = |r: &TimingReport, t: &Timer<'_>| {
            std::ptr::eq(r.endpoints.as_ptr(), t.state().rows().as_ptr())
        };
        let held = timer.report(&nl);
        assert!(shares(&held, &timer), "a report shares the rows");
        let taken = bits(&held.endpoints);

        // An edit and a rollback, each while the report is alive.
        let cp = (nl.journal_len(), timer.checkpoint());
        let flop = nl.flops(&lib).next().unwrap();
        nl.set_wire_length(nl.cell(flop).inputs[0], 400.0);
        buffer_fattest_net(&mut nl, &lib);
        timer.update(&nl).unwrap();
        assert_ne!(bits(timer.state().rows()), taken, "the edit moved rows");
        assert!(!shares(&held, &timer), "the timer wrote a copy");
        assert_eq!(bits(&held.endpoints), taken);
        assert_matches_full(&timer, &nl, &lib, &stack);

        let edited = timer.report(&nl);
        nl.undo_to(cp.0).unwrap();
        timer.rollback_to(cp.1).unwrap();
        assert_eq!(bits(timer.state().rows()), taken);
        assert!(!shares(&edited, &timer), "the rollback wrote a copy");
        assert_ne!(bits(&edited.endpoints), taken);
        assert_eq!(bits(&held.endpoints), taken);
    }

    #[test]
    fn sinks_that_shift_position_are_retimed() {
        // Every sink of `n` has the buffer's master, so moving the first
        // one behind a buffer leaves n's delay list as it was — but the
        // sinks after it now read the delay one slot earlier.
        let (lib, stack) = env();
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        let mut nl = Netlist::new("shift");
        let a = nl.add_input("a");
        let (_, n) = nl.add_cell("drv", &lib, inv, &[a]).unwrap();
        for i in 0..3 {
            let (_, out) = nl.add_cell(format!("s{i}"), &lib, buf, &[n]).unwrap();
            nl.mark_output(out);
        }
        nl.set_wire_length(n, 300.0);
        let mut timer = Timer::new(&nl, &lib, &stack, Constraints::single_clock(900.0)).unwrap();
        let delays = sink_delays(&timer, &nl, n);
        assert_ne!(delays[0], delays[2], "per-sink delays differ by position");

        let s0 = PinRef {
            cell: nl.cell_named("s0").unwrap(),
            pin: 0,
        };
        nl.insert_buffer(&lib, n, &[s0], buf).unwrap();
        timer.update(&nl).unwrap();
        assert_eq!(sink_delays(&timer, &nl, n), delays);
        assert_matches_full(&timer, &nl, &lib, &stack);
    }

    #[test]
    fn kept_and_rejected_rounds_keep_one_wire_slot_per_pin() {
        let (lib, stack) = env();
        let mut nl = generate(&lib, BenchProfile::tiny(), 3).unwrap();
        let cons = Constraints::single_clock(900.0);
        let mut timer = Timer::new(&nl, &lib, &stack, cons.clone()).unwrap();
        let mut kept = 0;
        for i in 0..1_000 {
            let mut trial = timer.trial(&mut nl).unwrap();
            let net = NetId::new(i % trial.netlist().net_count());
            trial.netlist().set_wire_length(net, 50.0 + i as f64);
            if i % 2 == 0 {
                buffer_fattest_net(trial.netlist(), &lib);
            }
            trial.update().unwrap();
            if i % 4 < 2 {
                trial.commit();
                kept += 1;
            } else {
                drop(trial);
            }
            let wires = &timer.st.wires;
            assert_eq!(wires.pin_count(), nl.total_input_pins(), "round {i}");
            assert_eq!(wires.net_count(), nl.net_count(), "round {i}");
            assert!(timer.undo.is_empty() && timer.pin_undo.is_empty());
        }
        assert_eq!(kept, 500);
        let fresh = Timer::new(&nl, &lib, &stack, cons).unwrap();
        assert!(timer.st.wires == fresh.st.wires, "wire table diverged");
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
