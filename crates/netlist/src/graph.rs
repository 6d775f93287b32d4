//! The netlist graph and its ECO edit operations.
//!
//! # Data layout
//!
//! The netlist is stored in struct-of-arrays (SoA) form: every cell and
//! net attribute lives in its own dense vector indexed by raw
//! [`CellId`] / [`NetId`], so the timing hot loops touch exactly the
//! columns they read and nothing else (no inline `String` names, no
//! per-cell `Vec` headers between consecutive masters).
//!
//! * Cell input pins are a CSR adjacency: `cell_input_nets` holds every
//!   input net back to back, `cell_input_offsets[i]..cell_input_offsets
//!   [i + 1]` is cell `i`'s slice. Input *counts* never change after
//!   `add_cell` (ECOs rewire pins in place, buffer insertion appends a
//!   new cell), so the offsets stay valid under every journaled edit.
//! * Net sink lists are spans into a shared `sink_pool`. Sinks *do*
//!   move between nets (buffering, rewires), so each span carries a
//!   capacity and relocates to the end of the pool with doubled
//!   capacity when full — O(1) amortized push, and the abandoned slots
//!   are bounded geometrically. [`Netlist::compact`] rebuilds the pool
//!   tight; the generators call it once construction settles.
//! * Names are evicted into interned `NameTable`s (one byte buffer +
//!   `(start, len)` spans) owned by the netlist and touched only by
//!   reporting, lookup and the Verilog writer. Cell-name lookup goes
//!   through a chained FNV-1a index (`NameIndex`; the pair is an
//!   [`Interner`]) instead of a `HashMap<String, CellId>`.
//!
//! Accessors hand out [`CellRef`] / [`NetRef`] view structs that borrow
//! the columns, so downstream code reads `cell.inputs` / `net.sinks`
//! exactly as it did against the old array-of-structs layout.

use tc_core::error::{Error, Result};
use tc_core::ids::{CellId, LibCellId, NetId};
use tc_core::text::fnv1a;
use tc_liberty::{CellKind, Library};

use crate::journal::NetlistEdit;

/// A (cell, input-pin-index) sink reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// The sink cell.
    pub cell: CellId,
    /// Index into the cell's input pin list.
    pub pin: usize,
}

/// A borrowed view of one cell instance (the SoA columns re-assembled).
#[derive(Clone, Copy, Debug)]
pub struct CellRef<'a> {
    /// Instance name.
    pub name: &'a str,
    /// The library master this instance is bound to.
    pub master: LibCellId,
    /// Input nets, in the master's pin order (`D`, `CK` for flops).
    pub inputs: &'a [NetId],
    /// The output net.
    pub output: NetId,
}

/// A borrowed view of one net.
#[derive(Clone, Copy, Debug)]
pub struct NetRef<'a> {
    /// Net name.
    pub name: &'a str,
    /// Driving cell; `None` for primary inputs.
    pub driver: Option<CellId>,
    /// Sink pins.
    pub sinks: &'a [PinRef],
    /// `true` if the net is a primary output.
    pub is_output: bool,
    /// Estimated routed wirelength in µm (annotated by placement).
    pub wire_length_um: f64,
    /// Routing-rule class: 0 = default, 1 = double-width NDR,
    /// 2 = double-width/double-spacing NDR (set by closure fixes and
    /// interpreted by `tc-interconnect`).
    pub route_class: u8,
}

/// Interned names: one byte buffer plus `(start, len)` spans per id.
/// Append-only except [`NameTable::pop_last`], which exactly inverts
/// the most recent push (what buffer-insertion undo needs).
#[derive(Clone, Debug, Default)]
struct NameTable {
    bytes: String,
    spans: Vec<(u32, u32)>,
}

impl NameTable {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn get(&self, i: usize) -> &str {
        let (start, len) = self.spans[i];
        &self.bytes[start as usize..(start + len) as usize]
    }

    fn push(&mut self, name: &str) -> usize {
        let start = self.bytes.len() as u32;
        self.bytes.push_str(name);
        self.spans.push((start, name.len() as u32));
        self.spans.len() - 1
    }

    /// Removes the most recently pushed name, reclaiming its bytes.
    fn pop_last(&mut self) {
        let (start, _) = self.spans.pop().expect("name table not empty");
        self.bytes.truncate(start as usize);
    }
}

/// Chained-bucket FNV-1a index over a [`NameTable`]: the flat-layout
/// replacement for `HashMap<String, usize>`. `buckets` holds head
/// indices + 1 (0 = empty), `next` the per-entry chain links. Deletion
/// is only ever of the *last* entry (buffer undo), so a chain unlink
/// suffices — no tombstones.
#[derive(Clone, Debug, Default)]
struct NameIndex {
    buckets: Vec<u32>,
    next: Vec<u32>,
}

impl NameIndex {
    /// An index over every name of `names`. Where several entries carry
    /// one name, lookups find the first.
    fn over(names: &NameTable) -> Self {
        let mut index = NameIndex::default();
        index.rehash(names, names.len());
        index
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash & (self.buckets.len() as u64 - 1)) as usize
    }

    /// The entry called `name`, whose FNV-1a hash is `hash`.
    fn find(&self, names: &NameTable, name: &str, hash: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut at = self.buckets[self.bucket(hash)];
        while at != 0 {
            let i = (at - 1) as usize;
            if names.get(i) == name {
                return Some(i);
            }
            at = self.next[i];
        }
        None
    }

    /// Indexes the last-pushed name (index `names.len() - 1`), whose
    /// FNV-1a hash is `hash`.
    fn insert_last(&mut self, names: &NameTable, hash: u64) {
        let i = names.len() - 1;
        debug_assert_eq!(self.next.len(), i, "insert must follow the table");
        if names.len() > self.buckets.len() {
            self.rehash(names, i);
        }
        let b = self.bucket(hash);
        self.next.push(self.buckets[b]);
        self.buckets[b] = i as u32 + 1;
    }

    /// Unlinks the last entry, mirroring [`NameTable::pop_last`]. Call
    /// *before* popping the table (the name is still needed to hash).
    fn remove_last(&mut self, names: &NameTable) {
        let i = names.len() - 1;
        let b = self.bucket(fnv1a(names.get(i).as_bytes()));
        let target = i as u32 + 1;
        if self.buckets[b] == target {
            self.buckets[b] = self.next[i];
        } else {
            let mut at = self.buckets[b];
            loop {
                let j = (at - 1) as usize;
                if self.next[j] == target {
                    self.next[j] = self.next[i];
                    break;
                }
                at = self.next[j];
                assert!(at != 0, "name index chain corrupt");
            }
        }
        self.next.pop();
    }

    /// Re-buckets the first `indexed` names, sized for all of `names`.
    /// Later entries go in first, so each chain lists ids in order.
    fn rehash(&mut self, names: &NameTable, indexed: usize) {
        let want = (names.len().max(8)).next_power_of_two() * 2;
        self.buckets.clear();
        self.buckets.resize(want, 0);
        self.next.clear();
        self.next.resize(indexed, 0);
        for i in (0..indexed).rev() {
            let b = self.bucket(fnv1a(names.get(i).as_bytes()));
            self.next[i] = self.buckets[b];
            self.buckets[b] = i as u32 + 1;
        }
    }
}

/// A set of distinct names numbered in the order they were first seen:
/// each name is stored once in a flat byte table and found again through
/// an FNV-1a index. The netlist keeps its instance names in one; the
/// Verilog reader's symbol table and `tc-lint`'s source scan are others.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: NameTable,
    index: NameIndex,
}

impl Interner {
    /// The id of `name`, adding it if it is new; `true` if it was added.
    pub fn intern(&mut self, name: &str) -> (usize, bool) {
        let hash = fnv1a(name.as_bytes());
        if let Some(i) = self.index.find(&self.names, name, hash) {
            return (i, false);
        }
        let i = self.names.push(name);
        self.index.insert_last(&self.names, hash);
        (i, true)
    }

    /// The id of `name`, if it was interned.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.index.find(&self.names, name, fnv1a(name.as_bytes()))
    }

    /// The name with id `i`.
    ///
    /// # Panics
    ///
    /// If `i` is not an id this set gave out.
    pub fn get(&self, i: usize) -> &str {
        self.names.get(i)
    }

    /// Removes the most recently added name.
    fn pop_last(&mut self) {
        self.index.remove_last(&self.names);
        self.names.pop_last();
    }
}

/// Net lookup by name over a netlist's own name table, built by
/// [`Netlist::net_name_index`]: nothing is copied, the index holds ids.
#[derive(Debug)]
pub struct NetNameIndex<'a> {
    names: &'a NameTable,
    index: NameIndex,
}

impl NetNameIndex<'_> {
    /// The net called `name`; of several nets sharing it, the first.
    pub fn find(&self, name: &str) -> Option<NetId> {
        self.index
            .find(self.names, name, fnv1a(name.as_bytes()))
            .map(NetId::new)
    }
}

/// One net's sink list: a span into the shared pool with headroom.
#[derive(Clone, Copy, Debug, Default)]
struct SinkSpan {
    start: u32,
    len: u32,
    cap: u32,
}

const PLACEHOLDER_SINK: PinRef = PinRef {
    cell: CellId::new(0),
    pin: 0,
};

/// What an input pin holds between [`Netlist::push_cell`] and its
/// [`Netlist::connect`]; never visible outside the crate.
const UNCONNECTED: NetId = NetId::new(u32::MAX as usize);

/// A gate-level netlist bound to a [`Library`]'s master ids.
///
/// Invariants (checked by [`Netlist::validate`]):
/// * every net has exactly one driver (a cell or a primary input);
/// * every cell's input count matches its master's pin count;
/// * flop `CK` pins connect to a clock net.
#[derive(Clone, Debug)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    // Cell columns (dense by CellId).
    cell_master: Vec<LibCellId>,
    cell_output: Vec<NetId>,
    /// CSR offsets into `cell_input_nets`; length `cell_count() + 1`.
    cell_input_offsets: Vec<u32>,
    cell_input_nets: Vec<NetId>,
    // Net columns (dense by NetId).
    net_driver: Vec<Option<CellId>>,
    net_is_output: Vec<bool>,
    net_wire_length: Vec<f64>,
    net_route_class: Vec<u8>,
    net_sinks: Vec<SinkSpan>,
    sink_pool: Vec<PinRef>,
    // Name side tables: reporting/lookup only, never on the hot path.
    cell_names: Interner,
    net_names: NameTable,
    inputs: Vec<NetId>,
    journal: Vec<NetlistEdit>,
}

impl Default for Netlist {
    fn default() -> Self {
        Netlist::new("")
    }
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cell_master: Vec::new(),
            cell_output: Vec::new(),
            cell_input_offsets: vec![0],
            cell_input_nets: Vec::new(),
            net_driver: Vec::new(),
            net_is_output: Vec::new(),
            net_wire_length: Vec::new(),
            net_route_class: Vec::new(),
            net_sinks: Vec::new(),
            sink_pool: Vec::new(),
            cell_names: Interner::default(),
            net_names: NameTable::default(),
            inputs: Vec::new(),
            journal: Vec::new(),
        }
    }

    fn push_net(&mut self, name: &str, driver: Option<CellId>) -> NetId {
        let id = NetId::new(self.net_driver.len());
        self.net_names.push(name);
        self.net_driver.push(driver);
        self.net_is_output.push(false);
        self.net_wire_length.push(0.0);
        self.net_route_class.push(0);
        self.net_sinks.push(SinkSpan::default());
        id
    }

    /// Adds a primary input and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let id = self.push_net(&name, None);
        self.inputs.push(id);
        id
    }

    /// Adds a cell instance driving a fresh net; returns `(cell, output)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the input count does not match
    /// the master's pin count, or the instance name is already taken.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        lib: &Library,
        master: LibCellId,
        inputs: &[NetId],
    ) -> Result<(CellId, NetId)> {
        let name = name.into();
        let want = lib.cell(master).input_pins().len();
        if inputs.len() != want {
            return Err(Error::invalid_input(format!(
                "cell {name}: master {} wants {want} inputs, got {}",
                lib.cell(master).name,
                inputs.len()
            )));
        }
        let (cell, out) = self
            .push_cell(&name, &format!("{name}_out"), master, want)
            .ok_or_else(|| Error::invalid_input(format!("duplicate instance name {name}")))?;
        for (pin, &net) in inputs.iter().enumerate() {
            self.connect(PinRef { cell, pin }, net);
        }
        Ok((cell, out))
    }

    /// The construction primitive under [`Netlist::add_cell`] and the
    /// Verilog reader: appends a cell and the net it drives, named `net`,
    /// with its `n_inputs` pins on no net yet — the caller
    /// [`Netlist::connect`]s every one of them before the netlist leaves
    /// this crate. `None` if the instance name is taken.
    pub(crate) fn push_cell(
        &mut self,
        name: &str,
        net: &str,
        master: LibCellId,
        n_inputs: usize,
    ) -> Option<(CellId, NetId)> {
        let cell_id = CellId::new(self.cell_master.len());
        if !self.cell_names.intern(name).1 {
            return None;
        }
        let out = self.push_net(net, Some(cell_id));
        self.cell_master.push(master);
        self.cell_output.push(out);
        let pins = self.cell_input_nets.len() + n_inputs;
        self.cell_input_nets.resize(pins, UNCONNECTED);
        self.cell_input_offsets.push(pins as u32);
        Some((cell_id, out))
    }

    /// Puts input pin `sink` of a cell under construction on `net`. Not
    /// an ECO: nothing is journaled and there is no old net to detach
    /// from (that is [`Netlist::rewire_input`]).
    pub(crate) fn connect(&mut self, sink: PinRef, net: NetId) {
        debug_assert_eq!(self.cell_inputs(sink.cell)[sink.pin], UNCONNECTED);
        self.set_cell_input(sink, net);
        self.sink_push(net, sink);
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.net_is_output[net.index()] = true;
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cell_master.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_driver.len()
    }

    /// Iterates all cells in [`CellId`] order.
    pub fn cells(&self) -> impl Iterator<Item = CellRef<'_>> + '_ {
        (0..self.cell_count()).map(|i| self.cell(CellId::new(i)))
    }

    /// Iterates all nets in [`NetId`] order.
    pub fn nets(&self) -> impl Iterator<Item = NetRef<'_>> + '_ {
        (0..self.net_count()).map(|i| self.net(NetId::new(i)))
    }

    /// One cell, with its name. The name is a slice of the interned
    /// name table, so building the view reads the name's bytes: hot
    /// loops that need no name read the columns instead
    /// ([`cell_master`](Self::cell_master),
    /// [`cell_inputs`](Self::cell_inputs),
    /// [`cell_output`](Self::cell_output)).
    pub fn cell(&self, id: CellId) -> CellRef<'_> {
        let i = id.index();
        CellRef {
            name: self.cell_names.get(i),
            master: self.cell_master[i],
            inputs: self.cell_inputs(id),
            output: self.cell_output[i],
        }
    }

    /// One net, with its name. Like [`cell`](Self::cell), the view
    /// reads the name's bytes: hot loops that need no name read the
    /// columns instead ([`net_driver`](Self::net_driver),
    /// [`net_sinks`](Self::net_sinks)).
    pub fn net(&self, id: NetId) -> NetRef<'_> {
        let i = id.index();
        NetRef {
            name: self.net_names.get(i),
            driver: self.net_driver[i],
            sinks: self.net_sinks(id),
            is_output: self.net_is_output[i],
            wire_length_um: self.net_wire_length[i],
            route_class: self.net_route_class[i],
        }
    }

    /// A cell's input nets (the CSR slice), without the name lookup.
    #[inline]
    pub fn cell_inputs(&self, id: CellId) -> &[NetId] {
        let i = id.index();
        let start = self.cell_input_offsets[i] as usize;
        let end = self.cell_input_offsets[i + 1] as usize;
        &self.cell_input_nets[start..end]
    }

    /// A cell's library master, without the name lookup.
    #[inline]
    pub fn cell_master(&self, id: CellId) -> LibCellId {
        self.cell_master[id.index()]
    }

    /// The net a cell drives, without the name lookup.
    #[inline]
    pub fn cell_output(&self, id: CellId) -> NetId {
        self.cell_output[id.index()]
    }

    /// A net's driving cell (`None` for a primary input), without the
    /// name lookup.
    #[inline]
    pub fn net_driver(&self, id: NetId) -> Option<CellId> {
        self.net_driver[id.index()]
    }

    /// A net's sink pins, without the name lookup.
    #[inline]
    pub fn net_sinks(&self, id: NetId) -> &[PinRef] {
        self.sinks_at(self.net_sink_span(id))
    }

    /// Where a net's sink list sits in the shared sink pool, as
    /// `(start, len)`: a copy a batched reader can stage before it reads
    /// the list with [`sinks_at`](Self::sinks_at). An edit may move the
    /// list.
    #[inline]
    pub fn net_sink_span(&self, id: NetId) -> (u32, u32) {
        let s = self.net_sinks[id.index()];
        (s.start, s.len)
    }

    /// The sink pins at a span [`net_sink_span`](Self::net_sink_span)
    /// returned, with no edit in between.
    #[inline]
    pub fn sinks_at(&self, (start, len): (u32, u32)) -> &[PinRef] {
        &self.sink_pool[start as usize..(start + len) as usize]
    }

    /// Whether a net is a primary output, without the name lookup.
    #[inline]
    pub fn net_is_output(&self, id: NetId) -> bool {
        self.net_is_output[id.index()]
    }

    /// A net's estimated routed wirelength in µm, without the name
    /// lookup.
    #[inline]
    pub fn net_wire_length(&self, id: NetId) -> f64 {
        self.net_wire_length[id.index()]
    }

    /// A net's routing-rule class (see [`NetRef::route_class`]), without
    /// the name lookup.
    #[inline]
    pub fn net_route_class(&self, id: NetId) -> u8 {
        self.net_route_class[id.index()]
    }

    /// The global index of cell `id`'s pin 0 in the flat input-pin
    /// numbering (`pin_base(id) + pin` addresses one input pin). Dense
    /// structures in `tc-sta` index by this instead of hashing
    /// `(CellId, pin)` keys.
    #[inline]
    pub fn pin_base(&self, id: CellId) -> usize {
        self.cell_input_offsets[id.index()] as usize
    }

    /// Total input-pin count across all cells (the length of the flat
    /// pin numbering).
    #[inline]
    pub fn total_input_pins(&self) -> usize {
        self.cell_input_nets.len()
    }

    /// Primary input nets.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets.
    pub fn primary_outputs(&self) -> impl Iterator<Item = NetId> + '_ {
        self.net_is_output
            .iter()
            .enumerate()
            .filter(|(_, &o)| o)
            .map(|(i, _)| NetId::new(i))
    }

    /// Looks up a cell by instance name.
    pub fn cell_named(&self, name: &str) -> Option<CellId> {
        self.cell_names.lookup(name).map(CellId::new)
    }

    /// An index of the nets by name, built in O(nets) over the netlist's
    /// own name table. Net names, unlike instance names, need not be
    /// unique, so the netlist keeps no such index itself.
    pub fn net_name_index(&self) -> NetNameIndex<'_> {
        NetNameIndex {
            names: &self.net_names,
            index: NameIndex::over(&self.net_names),
        }
    }

    /// Ids of all flop instances.
    pub fn flops<'a>(&'a self, lib: &'a Library) -> impl Iterator<Item = CellId> + 'a {
        self.cell_master
            .iter()
            .enumerate()
            .filter(move |(_, &m)| lib.cell(m).kind == CellKind::Flop)
            .map(|(i, _)| CellId::new(i))
    }

    // --- sink-span pool operations -----------------------------------

    /// Relocates `net`'s span to the end of the pool with at least
    /// `min_cap` capacity (doubling policy).
    fn sink_grow(&mut self, net: NetId, min_cap: u32) {
        let mut s = self.net_sinks[net.index()];
        let new_cap = (s.cap * 2).max(min_cap).max(2);
        let new_start = self.sink_pool.len() as u32;
        self.sink_pool.reserve(new_cap as usize);
        for k in 0..s.len {
            let v = self.sink_pool[(s.start + k) as usize];
            self.sink_pool.push(v);
        }
        for _ in s.len..new_cap {
            self.sink_pool.push(PLACEHOLDER_SINK);
        }
        s.start = new_start;
        s.cap = new_cap;
        self.net_sinks[net.index()] = s;
    }

    fn sink_push(&mut self, net: NetId, pr: PinRef) {
        if self.net_sinks[net.index()].len == self.net_sinks[net.index()].cap {
            self.sink_grow(net, 2);
        }
        let s = &mut self.net_sinks[net.index()];
        self.sink_pool[(s.start + s.len) as usize] = pr;
        s.len += 1;
    }

    /// Keeps only sinks matching `pred`, preserving order.
    fn sink_retain(&mut self, net: NetId, mut pred: impl FnMut(&PinRef) -> bool) {
        let s = self.net_sinks[net.index()];
        let (start, len) = (s.start as usize, s.len as usize);
        let mut kept = 0usize;
        for k in 0..len {
            let v = self.sink_pool[start + k];
            if pred(&v) {
                self.sink_pool[start + kept] = v;
                kept += 1;
            }
        }
        self.net_sinks[net.index()].len = kept as u32;
    }

    /// Inserts a sink at `index`, shifting later sinks right.
    fn sink_insert(&mut self, net: NetId, index: usize, pr: PinRef) {
        if self.net_sinks[net.index()].len == self.net_sinks[net.index()].cap {
            self.sink_grow(net, 2);
        }
        let s = self.net_sinks[net.index()];
        let (start, len) = (s.start as usize, s.len as usize);
        assert!(index <= len, "sink insert index out of range");
        let mut k = len;
        while k > index {
            self.sink_pool[start + k] = self.sink_pool[start + k - 1];
            k -= 1;
        }
        self.sink_pool[start + index] = pr;
        self.net_sinks[net.index()].len = len as u32 + 1;
    }

    /// Rebuilds the sink pool tight (capacity == length, no abandoned
    /// slots). The generators call this once after construction: bulk
    /// building doubles spans many times, and the reclaimed slack is
    /// pure peak-heap win. ECOs after a compact simply start a fresh
    /// doubling ladder at the pool tail.
    pub fn compact(&mut self) {
        let mut pool =
            Vec::with_capacity(self.net_sinks.iter().map(|s| s.len as usize).sum::<usize>());
        for s in &mut self.net_sinks {
            let new_start = pool.len() as u32;
            pool.extend_from_slice(&self.sink_pool[s.start as usize..(s.start + s.len) as usize]);
            s.start = new_start;
            s.cap = s.len;
        }
        self.sink_pool = pool;
    }

    // --- journaled ECO mutators --------------------------------------

    /// Annotates a net's estimated wirelength (journaled: closure fixes
    /// re-annotate split nets, and the incremental timer must see it).
    pub fn set_wire_length(&mut self, net: NetId, um: f64) {
        let old_um = self.net_wire_length[net.index()];
        self.net_wire_length[net.index()] = um;
        self.journal.push(NetlistEdit::SetWireLength {
            net,
            old_um,
            new_um: um,
        });
    }

    /// **ECO: routing rule.** Sets a net's route class (NDR application).
    pub fn set_route_class(&mut self, net: NetId, class: u8) {
        let old_class = self.net_route_class[net.index()];
        self.net_route_class[net.index()] = class;
        self.journal.push(NetlistEdit::SetRouteClass {
            net,
            old_class,
            new_class: class,
        });
    }

    /// **ECO: master swap.** Rebinds a cell to a different master with the
    /// same pin interface (Vt-swap or resize).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the new master's pin count
    /// differs.
    pub fn swap_master(
        &mut self,
        lib: &Library,
        cell: CellId,
        new_master: LibCellId,
    ) -> Result<()> {
        let want = self.cell_inputs(cell).len();
        let got = lib.cell(new_master).input_pins().len();
        if want != got {
            return Err(Error::invalid_input(format!(
                "swap on {}: pin count {got} != {want}",
                self.cell_names.get(cell.index())
            )));
        }
        let old_master = self.cell_master[cell.index()];
        self.cell_master[cell.index()] = new_master;
        self.journal.push(NetlistEdit::SwapMaster {
            cell,
            old_master,
            new_master,
        });
        Ok(())
    }

    /// **ECO: buffer insertion.** Splits `net`, inserting a buffer that
    /// drives the given subset of its sinks (the classic long-net /
    /// weak-driver fix of Fig 1). Returns the new buffer's cell id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if any requested sink is not on the
    /// net, or the buffer master is not single-input.
    pub fn insert_buffer(
        &mut self,
        lib: &Library,
        net: NetId,
        moved_sinks: &[PinRef],
        buf_master: LibCellId,
    ) -> Result<CellId> {
        if lib.cell(buf_master).input_pins().len() != 1 {
            return Err(Error::invalid_input("buffer master must be single-input"));
        }
        for s in moved_sinks {
            if !self.net_sinks(net).contains(s) {
                return Err(Error::invalid_input(format!(
                    "sink {:?} not on net {}",
                    s,
                    self.net_names.get(net.index())
                )));
            }
        }
        let buf_name = format!("eco_buf_{}", self.cell_count());
        let (buf_id, buf_out) = self.add_cell(buf_name, lib, buf_master, &[net])?;
        // Record each moved sink's original position so undo can restore
        // the exact sink order (per-sink wire delays align with it).
        let moved_with_index: Vec<(PinRef, usize)> = self
            .net_sinks(net)
            .iter()
            .enumerate()
            .filter(|(_, s)| moved_sinks.contains(s))
            .map(|(i, &s)| (s, i))
            .collect();
        // Detach the moved sinks from the original net and re-home them.
        self.sink_retain(net, |s| !moved_sinks.contains(s));
        for &s in moved_sinks {
            self.set_cell_input(s, buf_out);
            self.sink_push(buf_out, s);
        }
        self.journal.push(NetlistEdit::InsertBuffer {
            buffer: buf_id,
            buffer_out: buf_out,
            src_net: net,
            moved_sinks: moved_with_index,
        });
        Ok(buf_id)
    }

    fn set_cell_input(&mut self, sink: PinRef, net: NetId) {
        let base = self.cell_input_offsets[sink.cell.index()] as usize;
        self.cell_input_nets[base + sink.pin] = net;
    }

    /// **ECO: rewire.** Moves one input pin of a cell onto a different
    /// net, maintaining both nets' sink lists.
    pub fn rewire_input(&mut self, sink: PinRef, new_net: NetId) {
        let old = self.cell_inputs(sink.cell)[sink.pin];
        let old_index = self
            .net_sinks(old)
            .iter()
            .position(|s| *s == sink)
            .expect("sink must be on its recorded net");
        self.sink_retain(old, |s| *s != sink);
        self.set_cell_input(sink, new_net);
        self.sink_push(new_net, sink);
        self.journal.push(NetlistEdit::RewireInput {
            sink,
            old_net: old,
            new_net,
            old_index,
        });
    }

    /// Every journaled edit since the netlist was created. Empty for a
    /// design fresh out of [`crate::parse_verilog`], which builds what
    /// it reads; *not* empty for one fresh out of [`crate::gen`], whose
    /// generators close flop feedback with `rewire_input` and annotate
    /// lengths with `set_wire_length`. Take [`Netlist::journal_len`] as
    /// "time zero" instead of assuming 0 (see [`NetlistEdit`]).
    pub fn journal(&self) -> &[NetlistEdit] {
        &self.journal
    }

    /// The current journal length — the checkpoint token for
    /// [`Netlist::undo_to`] and the incremental timer's cursor.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Rolls the netlist back to a checkpoint taken with
    /// [`Netlist::journal_len`], applying the inverse of every journaled
    /// edit since, newest first, and truncating the journal. Cost is
    /// O(edits undone), not O(design).
    ///
    /// Identifiers remain stable: undoing a buffer insertion removes the
    /// *last* cell and net, so every id allocated before the checkpoint
    /// still names the same object.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `checkpoint` is beyond the
    /// journal, and [`Error::Internal`] if un-journaled structural
    /// mutations (direct `add_cell` calls) interleaved with the edits
    /// being undone.
    pub fn undo_to(&mut self, checkpoint: usize) -> Result<()> {
        if checkpoint > self.journal.len() {
            return Err(Error::invalid_input(format!(
                "undo checkpoint {checkpoint} beyond journal length {}",
                self.journal.len()
            )));
        }
        while self.journal.len() > checkpoint {
            let edit = self.journal.pop().expect("length checked");
            match edit {
                NetlistEdit::SwapMaster {
                    cell, old_master, ..
                } => {
                    self.cell_master[cell.index()] = old_master;
                }
                NetlistEdit::SetWireLength { net, old_um, .. } => {
                    self.net_wire_length[net.index()] = old_um;
                }
                NetlistEdit::SetRouteClass { net, old_class, .. } => {
                    self.net_route_class[net.index()] = old_class;
                }
                NetlistEdit::RewireInput {
                    sink,
                    old_net,
                    new_net,
                    old_index,
                } => {
                    self.sink_retain(new_net, |s| *s != sink);
                    self.set_cell_input(sink, old_net);
                    self.sink_insert(old_net, old_index, sink);
                }
                NetlistEdit::InsertBuffer {
                    buffer,
                    buffer_out,
                    src_net,
                    moved_sinks,
                } => {
                    if buffer.index() + 1 != self.cell_count()
                        || buffer_out.index() + 1 != self.net_count()
                    {
                        return Err(Error::internal(
                            "undo of buffer insertion: cells/nets were added \
                             outside the journal since the edit",
                        ));
                    }
                    // Detach the buffer from the split net, restore the
                    // moved sinks at their original positions (ascending
                    // order keeps later indices valid), and drop the
                    // appended cell + net.
                    let tap = PinRef {
                        cell: buffer,
                        pin: 0,
                    };
                    self.sink_retain(src_net, |s| *s != tap);
                    for &(s, i) in &moved_sinks {
                        self.set_cell_input(s, src_net);
                        self.sink_insert(src_net, i, s);
                    }
                    self.cell_names.pop_last();
                    self.cell_master.pop();
                    self.cell_output.pop();
                    let base = self.cell_input_offsets[self.cell_count()] as usize;
                    self.cell_input_nets.truncate(base);
                    self.cell_input_offsets.pop();
                    self.net_names.pop_last();
                    self.net_driver.pop();
                    self.net_is_output.pop();
                    self.net_wire_length.pop();
                    self.net_route_class.pop();
                    self.net_sinks.pop();
                }
            }
        }
        Ok(())
    }

    /// Total placement-site area of the design.
    pub fn total_area(&self, lib: &Library) -> f64 {
        self.cell_master
            .iter()
            .map(|&m| lib.cell(m).area_sites)
            .sum()
    }

    /// Total leakage power in µW at the library's corner.
    pub fn total_leakage_uw(&self, lib: &Library) -> f64 {
        self.cell_master
            .iter()
            .map(|&m| lib.cell(m).leakage_uw)
            .sum()
    }

    /// Checks the structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Internal`] describing the first violation found.
    pub fn validate(&self, lib: &Library) -> Result<()> {
        for i in 0..self.net_count() {
            let id = NetId::new(i);
            let is_pi = self.inputs.contains(&id);
            if self.net_driver[i].is_none() && !is_pi {
                return Err(Error::internal(format!(
                    "net {} undriven",
                    self.net_names.get(i)
                )));
            }
            if self.net_driver[i].is_some() && is_pi {
                return Err(Error::internal(format!(
                    "net {} both driven and a primary input",
                    self.net_names.get(i)
                )));
            }
            for s in self.net_sinks(id) {
                if self.cell_inputs(s.cell)[s.pin] != id {
                    return Err(Error::internal(format!(
                        "net {}: sink {:?} does not point back",
                        self.net_names.get(i),
                        s
                    )));
                }
            }
        }
        for i in 0..self.cell_count() {
            let id = CellId::new(i);
            if self.cell_inputs(id).len() != lib.cell(self.cell_master[i]).input_pins().len() {
                return Err(Error::internal(format!(
                    "cell {} pin mismatch",
                    self.cell_names.get(i)
                )));
            }
            let out = self.cell_output[i];
            if self.net_driver[out.index()] != Some(id) {
                return Err(Error::internal(format!(
                    "cell {} output net driver mismatch",
                    self.cell_names.get(i)
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_device::VtClass;
    use tc_liberty::{LibConfig, PvtCorner};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    fn tiny(lib: &Library) -> Netlist {
        // a, b → NAND2 → INV → out
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let nand = lib.variant("NAND2", VtClass::Svt, 1.0).unwrap();
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        let (_, n1) = nl.add_cell("u1", lib, nand, &[a, b]).unwrap();
        let (_, n2) = nl.add_cell("u2", lib, inv, &[n1]).unwrap();
        nl.mark_output(n2);
        nl
    }

    #[test]
    fn build_and_validate() {
        let lib = lib();
        let nl = tiny(&lib);
        assert_eq!(nl.cell_count(), 2);
        assert_eq!(nl.net_count(), 4);
        nl.validate(&lib).unwrap();
        assert_eq!(nl.primary_outputs().count(), 1);
        assert!(nl.cell_named("u1").is_some());
    }

    #[test]
    fn rejects_pin_mismatch_and_duplicates() {
        let lib = lib();
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let nand = lib.variant("NAND2", VtClass::Svt, 1.0).unwrap();
        assert!(nl.add_cell("u1", &lib, nand, &[a]).is_err());
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        nl.add_cell("u1", &lib, inv, &[a]).unwrap();
        assert!(nl.add_cell("u1", &lib, inv, &[a]).is_err());
    }

    #[test]
    fn swap_master_eco() {
        let lib = lib();
        let mut nl = tiny(&lib);
        let u1 = nl.cell_named("u1").unwrap();
        let lvt = lib.variant("NAND2", VtClass::Lvt, 1.0).unwrap();
        nl.swap_master(&lib, u1, lvt).unwrap();
        assert_eq!(nl.cell(u1).master, lvt);
        nl.validate(&lib).unwrap();
        // Swapping to a mismatched-arity master fails.
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        assert!(nl.swap_master(&lib, u1, inv).is_err());
    }

    #[test]
    fn buffer_insertion_eco() {
        let lib = lib();
        let mut nl = tiny(&lib);
        let u2 = nl.cell_named("u2").unwrap();
        let n1 = nl.cell(nl.cell_named("u1").unwrap()).output;
        let sink = PinRef { cell: u2, pin: 0 };
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        let buf_id = nl.insert_buffer(&lib, n1, &[sink], buf).unwrap();
        nl.validate(&lib).unwrap();
        // Original net now drives only the buffer.
        assert_eq!(nl.net(n1).sinks.len(), 1);
        assert_eq!(nl.net(n1).sinks[0].cell, buf_id);
        // u2 is fed by the buffer's output.
        assert_eq!(nl.cell(u2).inputs[0], nl.cell(buf_id).output);
    }

    #[test]
    fn area_and_leakage_aggregate() {
        let lib = lib();
        let nl = tiny(&lib);
        assert!(nl.total_area(&lib) > 0.0);
        assert!(nl.total_leakage_uw(&lib) > 0.0);
    }

    #[test]
    fn compact_preserves_structure() {
        let lib = lib();
        let mut nl = tiny(&lib);
        let before: Vec<Vec<PinRef>> = nl.nets().map(|n| n.sinks.to_vec()).collect();
        nl.compact();
        let after: Vec<Vec<PinRef>> = nl.nets().map(|n| n.sinks.to_vec()).collect();
        assert_eq!(before, after);
        nl.validate(&lib).unwrap();
        // Pool is tight: capacity equals total sink count.
        assert_eq!(
            nl.sink_pool.len(),
            nl.nets().map(|n| n.sinks.len()).sum::<usize>()
        );
        // ECOs still work after a compact.
        let u2 = nl.cell_named("u2").unwrap();
        let n1 = nl.cell(nl.cell_named("u1").unwrap()).output;
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        nl.insert_buffer(&lib, n1, &[PinRef { cell: u2, pin: 0 }], buf)
            .unwrap();
        nl.validate(&lib).unwrap();
    }

    /// Structural snapshot for undo round-trip checks: everything an
    /// undo must restore bit-identically, gathered through the views.
    type NetRow = (String, Option<CellId>, Vec<PinRef>, bool, f64, u8);

    #[derive(Debug, PartialEq)]
    struct Snapshot {
        cells: Vec<(String, LibCellId, Vec<NetId>, NetId)>,
        nets: Vec<NetRow>,
        journal_len: usize,
    }

    fn snapshot(nl: &Netlist) -> Snapshot {
        Snapshot {
            cells: nl
                .cells()
                .map(|c| (c.name.to_string(), c.master, c.inputs.to_vec(), c.output))
                .collect(),
            nets: nl
                .nets()
                .map(|n| {
                    (
                        n.name.to_string(),
                        n.driver,
                        n.sinks.to_vec(),
                        n.is_output,
                        n.wire_length_um,
                        n.route_class,
                    )
                })
                .collect(),
            journal_len: nl.journal_len(),
        }
    }

    #[test]
    fn journal_records_eco_edits() {
        let lib = lib();
        let mut nl = tiny(&lib);
        assert_eq!(nl.journal_len(), 0, "construction is not journaled");
        let u1 = nl.cell_named("u1").unwrap();
        let n1 = nl.cell(u1).output;
        let lvt = lib.variant("NAND2", VtClass::Lvt, 1.0).unwrap();
        nl.swap_master(&lib, u1, lvt).unwrap();
        nl.set_wire_length(n1, 33.0);
        nl.set_route_class(n1, 2);
        assert_eq!(nl.journal_len(), 3);
        assert!(matches!(
            nl.journal()[0],
            NetlistEdit::SwapMaster { cell, .. } if cell == u1
        ));
        assert!(!nl.journal()[1].is_structural());
        // Failed edits are not journaled.
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        assert!(nl.swap_master(&lib, u1, inv).is_err());
        assert_eq!(nl.journal_len(), 3);
    }

    #[test]
    fn undo_restores_value_edits() {
        let lib = lib();
        let mut nl = tiny(&lib);
        let u1 = nl.cell_named("u1").unwrap();
        let n1 = nl.cell(u1).output;
        let before = snapshot(&nl);
        let lvt = lib.variant("NAND2", VtClass::Lvt, 1.0).unwrap();
        nl.swap_master(&lib, u1, lvt).unwrap();
        nl.set_wire_length(n1, 33.0);
        nl.set_route_class(n1, 2);
        nl.undo_to(before.journal_len).unwrap();
        assert_eq!(snapshot(&nl), before);
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn undo_restores_buffer_insertion() {
        let lib = lib();
        let mut nl = tiny(&lib);
        let u2 = nl.cell_named("u2").unwrap();
        let n1 = nl.cell(nl.cell_named("u1").unwrap()).output;
        let before = snapshot(&nl);
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        nl.insert_buffer(&lib, n1, &[PinRef { cell: u2, pin: 0 }], buf)
            .unwrap();
        assert_eq!(nl.journal_len(), 1);
        assert!(nl.journal()[0].is_structural());
        nl.undo_to(before.journal_len).unwrap();
        assert_eq!(snapshot(&nl), before);
        assert!(nl.cell_named("u2").is_some());
        nl.validate(&lib).unwrap();
        // The buffer's name is free again.
        let redo = nl.insert_buffer(&lib, n1, &[PinRef { cell: u2, pin: 0 }], buf);
        assert!(redo.is_ok());
    }

    #[test]
    fn undo_restores_rewire_and_sink_order() {
        let lib = lib();
        // a → INV u1; a → INV u2; b → NAND(u1.out, u2.out) — then rewire
        // u2's input from a to b and undo.
        let mut nl = Netlist::new("rewire");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        let nand = lib.variant("NAND2", VtClass::Svt, 1.0).unwrap();
        let (u1, o1) = nl.add_cell("u1", &lib, inv, &[a]).unwrap();
        let (u2, o2) = nl.add_cell("u2", &lib, inv, &[a]).unwrap();
        let (_, o3) = nl.add_cell("u3", &lib, nand, &[o1, o2]).unwrap();
        nl.mark_output(o3);
        let _ = u1;
        let before = snapshot(&nl);
        nl.rewire_input(PinRef { cell: u2, pin: 0 }, b);
        assert_eq!(nl.cell(u2).inputs[0], b);
        nl.undo_to(before.journal_len).unwrap();
        assert_eq!(snapshot(&nl), before);
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn undo_interleaved_sequence_lifo() {
        let lib = lib();
        let mut nl = tiny(&lib);
        let u1 = nl.cell_named("u1").unwrap();
        let u2 = nl.cell_named("u2").unwrap();
        let n1 = nl.cell(u1).output;
        let before = snapshot(&nl);
        let lvt = lib.variant("NAND2", VtClass::Lvt, 1.0).unwrap();
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        nl.swap_master(&lib, u1, lvt).unwrap();
        nl.insert_buffer(&lib, n1, &[PinRef { cell: u2, pin: 0 }], buf)
            .unwrap();
        nl.set_wire_length(n1, 12.5);
        let mid = nl.journal_len();
        let mid_snap = snapshot(&nl);
        nl.insert_buffer(
            &lib,
            n1,
            &[nl.net(n1).sinks[0]],
            lib.variant("BUF", VtClass::Svt, 1.0).unwrap(),
        )
        .unwrap();
        nl.set_route_class(n1, 3);
        // Partial undo back to the mid checkpoint…
        nl.undo_to(mid).unwrap();
        assert_eq!(snapshot(&nl), mid_snap);
        // …then all the way back to time zero.
        nl.undo_to(before.journal_len).unwrap();
        assert_eq!(snapshot(&nl), before);
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn undo_rejects_bad_checkpoint() {
        let lib = lib();
        let mut nl = tiny(&lib);
        assert!(nl.undo_to(5).is_err());
        assert!(nl.undo_to(0).is_ok());
    }

    #[test]
    fn name_index_survives_growth_and_removal() {
        let lib = lib();
        let mut nl = Netlist::new("names");
        let a = nl.add_input("a");
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        // Enough cells to force several index growths.
        let mut prev = a;
        for i in 0..200 {
            let (_, out) = nl
                .add_cell(format!("cell_{i}"), &lib, inv, &[prev])
                .unwrap();
            prev = out;
        }
        for i in 0..200 {
            let id = nl.cell_named(&format!("cell_{i}")).unwrap();
            assert_eq!(id.index(), i);
        }
        assert!(nl.cell_named("cell_200").is_none());
        // Buffer insert + undo exercises remove_last through a chain.
        let before = nl.journal_len();
        let n0 = nl.cell(CellId::new(0)).output;
        let sink = nl.net(n0).sinks[0];
        let buf = lib.variant("BUF", VtClass::Svt, 2.0).unwrap();
        nl.insert_buffer(&lib, n0, &[sink], buf).unwrap();
        assert!(nl.cell_named("eco_buf_200").is_some());
        nl.undo_to(before).unwrap();
        assert!(nl.cell_named("eco_buf_200").is_none());
        for i in 0..200 {
            assert!(nl.cell_named(&format!("cell_{i}")).is_some());
        }
    }
}
