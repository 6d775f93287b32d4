//! Profile construction: event timeline → per-span aggregates, lanes,
//! and the critical chain.

use std::collections::BTreeMap;
use std::sync::Arc;

use tc_obs::trace::{TraceEvent, TraceEventKind};
use tc_obs::{JsonValue, TraceSnapshot};

/// The gauge name the span layer samples at span edges when memory
/// telemetry is armed; consecutive samples bracket a span occurrence
/// and their difference is that occurrence's net allocation delta.
const HEAP_GAUGE: &str = "mem.live_bytes";

/// Per-span-name aggregate over every completed occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanProfile {
    /// Leaf span name as recorded in the trace (not the full path).
    pub name: String,
    /// Completed occurrences (forced closes at trace end included).
    pub count: u64,
    /// Sum of occurrence durations. Recursion double-counts by design:
    /// inclusive time per *name* can exceed wall when a span nests
    /// under itself.
    pub total_ns: u64,
    /// Exclusive time: total minus time spent in child spans.
    pub self_ns: u64,
    /// Time attributed to child spans (`total_ns - self_ns`).
    pub child_ns: u64,
    /// Shortest single occurrence.
    pub min_ns: u64,
    /// Longest single occurrence.
    pub max_ns: u64,
    /// Median occurrence duration.
    pub p50_ns: u64,
    /// 90th-percentile occurrence duration.
    pub p90_ns: u64,
    /// 99th-percentile occurrence duration.
    pub p99_ns: u64,
    /// Net heap delta summed over occurrences, from the `mem.live_bytes`
    /// gauge samples at span edges; `0` when memory telemetry was off.
    pub net_bytes: i64,
}

/// One recorded thread's busy/idle split over the profile window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lane {
    /// Flight-recorder thread id.
    pub tid: u64,
    /// Thread name (`main`, `tc-par-0`, …) or `thread-{tid}`.
    pub name: String,
    /// Time covered by root spans on this thread.
    pub busy_ns: u64,
    /// `wall_ns - busy_ns`.
    pub idle_ns: u64,
}

/// One link of the critical chain: a span-tree node and its own
/// (per-path, exclusive) self time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// Leaf span name of this tree node.
    pub name: String,
    /// Exclusive time of this node *along this path* — at most the
    /// aggregate [`SpanProfile::self_ns`] of the same name.
    pub self_ns: u64,
}

/// A span profile: the trace timeline reduced to gateable aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Free-form workload label (harness + profile rung).
    pub workload: String,
    /// Last minus first event timestamp across all threads.
    pub wall_ns: u64,
    /// Busy time of the busiest lane — the share of wall the profile
    /// can attribute to named spans on the driving thread.
    pub attributed_ns: u64,
    /// Ring-overflow drops; non-zero means self-time is truncated and
    /// the profile must not gate anything.
    pub dropped_events: u64,
    /// `End` events with no matching open frame (overflow or a span
    /// open across a [`tc_obs::reset`] epoch).
    pub unmatched_ends: u64,
    /// Frames still open at the last timestamp, closed there.
    pub open_spans: u64,
    /// Per-name aggregates, sorted by descending self time (ties by
    /// name).
    pub spans: Vec<SpanProfile>,
    /// Per-thread utilization, sorted by tid.
    pub lanes: Vec<Lane>,
    /// Heaviest root-to-leaf path through the span tree.
    pub critical_chain: Vec<ChainLink>,
    /// Sum of the chain links' self times.
    pub critical_chain_ns: u64,
}

/// One open frame during replay.
struct Frame {
    name: Arc<str>,
    start_ns: u64,
    child_ns: u64,
    node: usize,
    open_heap: Option<u64>,
}

/// Span-tree node, identity `(parent, name)`, arena-indexed. Node 0 is
/// the unnamed root every lane's outermost spans hang under. Children
/// are always created after their parent, so a reverse index scan sees
/// every child before its parent.
#[derive(Default)]
struct PathNode {
    name: Arc<str>,
    parent: usize,
    self_ns: u64,
    children: Vec<usize>,
}

#[derive(Default)]
struct Agg {
    self_ns: u64,
    net_bytes: i64,
    durations: Vec<u64>,
}

/// A closed span awaiting its trailing heap sample: `(name, heap at open)`.
type HeapOpen = (Arc<str>, u64);

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One pass of a trace's events through per-lane frame stacks, the only
/// code that turns Begin/End events into frames: it builds the span tree
/// (each path's exclusive time summed across lanes), the per-name
/// aggregates and each lane's busy time. An `End` with no open frame of
/// its name is counted and dropped, one below open intermediates closes
/// them too, and frames still open at the last timestamp close there.
#[derive(Default)]
struct Replay {
    wall_ns: u64,
    nodes: Vec<PathNode>,
    aggs: BTreeMap<Arc<str>, Agg>,
    busy: BTreeMap<u64, u64>,
    unmatched_ends: u64,
    open_spans: u64,
}

impl Replay {
    fn new(snap: &TraceSnapshot) -> Replay {
        let first_ts = snap.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let last_ts = snap.events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
        let mut r = Replay {
            wall_ns: last_ts - first_ts,
            nodes: vec![PathNode::default()],
            ..Replay::default()
        };
        let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
        // Cleared by any non-gauge event on the same thread: the trailing
        // sample, if present, is adjacent in the ring.
        let mut pending_heap: BTreeMap<u64, HeapOpen> = BTreeMap::new();
        for e in &snap.events {
            let stack = stacks.entry(e.tid).or_default();
            r.busy.entry(e.tid).or_insert(0);
            match e.kind {
                TraceEventKind::Begin => {
                    pending_heap.remove(&e.tid);
                    let node = r.node_for(stack.last().map_or(0, |f| f.node), &e.name);
                    stack.push(Frame {
                        name: e.name.clone(),
                        start_ns: e.ts_ns,
                        child_ns: 0,
                        node,
                        open_heap: None,
                    });
                }
                TraceEventKind::End => {
                    pending_heap.remove(&e.tid);
                    let Some(at) = stack.iter().rposition(|f| f.name == e.name) else {
                        r.unmatched_ends += 1;
                        continue;
                    };
                    // Intermediates close with the innermost match, which
                    // closes last and alone waits for a heap sample.
                    let mut heap = None;
                    while stack.len() > at {
                        let frame = stack.pop().expect("a frame above the match");
                        heap = r.close(e.tid, frame, e.ts_ns, stack);
                    }
                    if let Some(h) = heap {
                        pending_heap.insert(e.tid, h);
                    }
                }
                TraceEventKind::Gauge if e.name.as_ref() == HEAP_GAUGE => {
                    if let Some((name, open)) = pending_heap.remove(&e.tid) {
                        let delta = e.delta as i64 - open as i64;
                        r.aggs.entry(name).or_default().net_bytes += delta;
                    } else if let Some(top) = stack.last_mut() {
                        if top.open_heap.is_none() {
                            top.open_heap = Some(e.delta);
                        }
                    }
                }
                TraceEventKind::Counter | TraceEventKind::Gauge => {
                    pending_heap.remove(&e.tid);
                }
            }
        }
        for (tid, mut stack) in stacks {
            r.open_spans += stack.len() as u64;
            while let Some(frame) = stack.pop() {
                r.close(tid, frame, last_ts, &mut stack);
            }
        }
        r
    }

    /// The tree node for `name` under `parent`, created on first use.
    fn node_for(&mut self, parent: usize, name: &Arc<str>) -> usize {
        let children = &self.nodes[parent].children;
        if let Some(&idx) = children.iter().find(|&&c| self.nodes[c].name == *name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(PathNode {
            name: name.clone(),
            parent,
            ..PathNode::default()
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Closes `frame` (already popped off `stack`) at `end`; returns its
    /// name and open-time heap sample when it has one.
    fn close(&mut self, tid: u64, frame: Frame, end: u64, stack: &mut [Frame]) -> Option<HeapOpen> {
        let total = end.saturating_sub(frame.start_ns);
        let exclusive = total.saturating_sub(frame.child_ns);
        self.nodes[frame.node].self_ns += exclusive;
        let agg = self.aggs.entry(frame.name.clone()).or_default();
        agg.self_ns += exclusive;
        agg.durations.push(total);
        match stack.last_mut() {
            Some(parent) => parent.child_ns += total,
            None => *self.busy.entry(tid).or_insert(0) += total,
        }
        frame.open_heap.map(|h| (frame.name, h))
    }
}

/// Renders a trace as folded stacks — `a;b;c <µs>` per line, sorted —
/// the input format of Brendan Gregg's `flamegraph.pl` and compatible
/// viewers. Each line is one span-tree path of the profile replay with
/// its *exclusive* microseconds (own time minus children's) summed over
/// every lane; counter and gauge events are ignored, and imbalance is
/// tolerated as [`Profile::from_trace`] tolerates it.
pub fn fold(snap: &TraceSnapshot) -> String {
    folded(&Replay::new(snap).nodes)
}

/// The [`Profile`] and the [`fold`]ed stacks of one trace, from one
/// replay: what a harness writes as `PROF_<name>.json` beside
/// `<name>.folded`.
pub fn profile_and_fold(snap: &TraceSnapshot) -> (Profile, String) {
    let r = Replay::new(snap);
    let stacks = folded(&r.nodes);
    (Profile::from_replay(r, snap), stacks)
}

/// The folded-stack lines of a replayed span tree.
fn folded(nodes: &[PathNode]) -> String {
    // Parents precede children in the arena, so each path extends its
    // parent's. Distinct paths can join to the same text (a name may
    // hold `;`); those lines sum.
    let mut paths = vec![String::new()];
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for node in &nodes[1..] {
        let path = match node.parent {
            0 => node.name.to_string(),
            p => format!("{};{}", paths[p], node.name),
        };
        *folded.entry(path.clone()).or_insert(0) += node.self_ns;
        paths.push(path);
    }
    folded
        .iter()
        .map(|(path, ns)| format!("{path} {}\n", ns / 1_000))
        .collect()
}

impl Profile {
    /// Reduces a collected [`TraceSnapshot`] to a profile. Unmatched
    /// `End`s are counted and dropped, and still-open frames are closed
    /// at the last timestamp (see [`Profile::unmatched_ends`] and
    /// [`Profile::open_spans`]).
    pub fn from_trace(snap: &TraceSnapshot) -> Profile {
        Profile::from_replay(Replay::new(snap), snap)
    }

    /// The profile of `snap`'s replay `r`.
    fn from_replay(r: Replay, snap: &TraceSnapshot) -> Profile {
        let (wall_ns, nodes, busy) = (r.wall_ns, &r.nodes, &r.busy);
        // Every name was closed at least once: `durations` is never empty.
        let mut spans: Vec<SpanProfile> = r
            .aggs
            .into_iter()
            .map(|(name, mut a)| {
                a.durations.sort_unstable();
                let total_ns = a.durations.iter().sum();
                SpanProfile {
                    name: name.to_string(),
                    count: a.durations.len() as u64,
                    total_ns,
                    self_ns: a.self_ns,
                    child_ns: total_ns - a.self_ns,
                    min_ns: a.durations[0],
                    max_ns: a.durations[a.durations.len() - 1],
                    p50_ns: percentile(&a.durations, 0.50),
                    p90_ns: percentile(&a.durations, 0.90),
                    p99_ns: percentile(&a.durations, 0.99),
                    net_bytes: a.net_bytes,
                }
            })
            .collect();
        spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));

        let mut lane_names: BTreeMap<u64, String> = snap.thread_names.iter().cloned().collect();
        for tid in busy.keys() {
            lane_names
                .entry(*tid)
                .or_insert_with(|| format!("thread-{tid}"));
        }
        let lanes: Vec<Lane> = lane_names
            .into_iter()
            .map(|(tid, name)| {
                let busy_ns = busy.get(&tid).copied().unwrap_or(0).min(wall_ns);
                Lane {
                    tid,
                    name,
                    busy_ns,
                    idle_ns: wall_ns - busy_ns,
                }
            })
            .collect();
        let attributed_ns = lanes.iter().map(|l| l.busy_ns).max().unwrap_or(0);

        // Subtree self-time sums, children before parents.
        let mut subtree = vec![0u64; nodes.len()];
        for i in (1..nodes.len()).rev() {
            subtree[i] += nodes[i].self_ns;
            subtree[nodes[i].parent] += subtree[i];
        }
        let heaviest = |candidates: &[usize]| -> Option<usize> {
            candidates.iter().copied().max_by(|&a, &b| {
                subtree[a]
                    .cmp(&subtree[b])
                    .then_with(|| nodes[b].name.cmp(&nodes[a].name))
            })
        };
        let mut critical_chain = Vec::new();
        let mut cursor = heaviest(&nodes[0].children).filter(|&r| subtree[r] > 0);
        while let Some(idx) = cursor {
            critical_chain.push(ChainLink {
                name: nodes[idx].name.to_string(),
                self_ns: nodes[idx].self_ns,
            });
            cursor = heaviest(&nodes[idx].children).filter(|&c| subtree[c] > 0);
        }
        let critical_chain_ns = critical_chain.iter().map(|l| l.self_ns).sum();

        Profile {
            workload: String::new(),
            wall_ns,
            attributed_ns,
            dropped_events: snap.dropped,
            unmatched_ends: r.unmatched_ends,
            open_spans: r.open_spans,
            spans,
            lanes,
            critical_chain,
            critical_chain_ns,
        }
    }

    /// Profiles the *live* flight recorder: snapshots every thread's
    /// ring (read-only) and reduces it.
    pub fn from_rings() -> Profile {
        Profile::from_trace(&tc_obs::trace_snapshot())
    }

    /// Parses a Chrome `trace_event` sidecar (the format
    /// [`TraceSnapshot::to_chrome_trace`] writes) and reduces it.
    ///
    /// # Errors
    ///
    /// Positioned messages (`trace event N: …`) for malformed events,
    /// document-level messages for a missing/foreign envelope.
    pub fn from_chrome_trace(text: &str) -> Result<Profile, String> {
        Ok(Profile::from_trace(&chrome_to_snapshot(text)?))
    }

    /// Sets the workload label (builder style).
    #[must_use]
    pub fn workload(mut self, label: impl Into<String>) -> Profile {
        self.workload = label.into();
        self
    }

    /// Realized parallelism: Σ lane busy ⁄ wall. `1.0` for an idle or
    /// empty profile.
    pub fn parallelism(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        let busy: u64 = self.lanes.iter().map(|l| l.busy_ns).sum();
        busy as f64 / self.wall_ns as f64
    }

    /// Share of wall attributed to named spans on the busiest lane,
    /// in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.attributed_ns as f64 / self.wall_ns as f64
    }

    /// Aggregate for one span name, if present.
    pub fn span(&self, name: &str) -> Option<&SpanProfile> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Parses a Chrome `trace_event` JSON document back into a
/// [`TraceSnapshot`] — the inverse of
/// [`TraceSnapshot::to_chrome_trace`]. `M`/`thread_name` metadata
/// repopulates `thread_names`, `otherData.dropped_events` repopulates
/// `dropped`, and counter events recover their per-event `delta` from
/// `args` (falling back to `value` for gauges). This is the workspace's
/// only Chrome-trace reader, so it is also the validator: a timestamp
/// that runs backwards on its thread is an error, not something to sort
/// away into a plausible profile.
///
/// # Errors
///
/// Positioned `trace event N: …` messages for malformed events and for
/// per-thread timestamp regressions.
pub fn chrome_to_snapshot(text: &str) -> Result<TraceSnapshot, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("trace parse error: {e}"))?;
    let JsonValue::Obj(top) = doc else {
        return Err("trace document is not an object".to_string());
    };
    let get = |pairs: &[(String, JsonValue)], key: &str| -> Option<JsonValue> {
        pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let Some(JsonValue::Arr(raw_events)) = get(&top, "traceEvents") else {
        return Err("trace document has no traceEvents array".to_string());
    };
    let mut dropped = 0u64;
    if let Some(JsonValue::Obj(other)) = get(&top, "otherData") {
        if let Some(JsonValue::Num(d)) = get(&other, "dropped_events") {
            if d.is_finite() && d >= 0.0 {
                dropped = d as u64;
            }
        }
    }
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut thread_names: Vec<(u64, String)> = Vec::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, ev) in raw_events.iter().enumerate() {
        let JsonValue::Obj(fields) = ev else {
            return Err(format!("trace event {i}: not an object"));
        };
        let Some(JsonValue::Str(ph)) = get(fields, "ph") else {
            return Err(format!("trace event {i}: missing ph"));
        };
        let Some(JsonValue::Str(name)) = get(fields, "name") else {
            return Err(format!("trace event {i}: missing name"));
        };
        let tid = match get(fields, "tid") {
            Some(JsonValue::Num(t)) if t.is_finite() && t >= 0.0 => t as u64,
            _ => return Err(format!("trace event {i}: missing or negative tid")),
        };
        if ph == "M" {
            if name == "thread_name" {
                if let Some(JsonValue::Obj(args)) = get(fields, "args") {
                    if let Some(JsonValue::Str(tname)) = get(&args, "name") {
                        thread_names.push((tid, tname));
                    }
                }
            }
            continue;
        }
        let ts_us = match get(fields, "ts") {
            Some(JsonValue::Num(t)) if t.is_finite() && t >= 0.0 => t,
            _ => return Err(format!("trace event {i}: missing or negative ts")),
        };
        let ts_ns = (ts_us * 1e3).round() as u64;
        if let Some(prev) = last_ts.insert(tid, ts_ns) {
            if ts_ns < prev {
                return Err(format!(
                    "trace event {i}: timestamp {ts_ns}ns regresses below {prev}ns on tid {tid}"
                ));
            }
        }
        let (kind, delta) = match ph.as_str() {
            "B" => (TraceEventKind::Begin, 0),
            "E" => (TraceEventKind::End, 0),
            "C" => {
                let Some(JsonValue::Obj(args)) = get(fields, "args") else {
                    return Err(format!("trace event {i}: counter without args"));
                };
                // `to_chrome_trace` writes counters with a `delta` and
                // gauges with only an absolute `value`.
                match get(&args, "delta") {
                    Some(JsonValue::Num(d)) if d.is_finite() && d >= 0.0 => {
                        (TraceEventKind::Counter, d as u64)
                    }
                    Some(_) => {
                        return Err(format!("trace event {i}: non-numeric counter delta"));
                    }
                    None => match get(&args, "value") {
                        Some(JsonValue::Num(v)) if v.is_finite() && v >= 0.0 => {
                            (TraceEventKind::Gauge, v as u64)
                        }
                        _ => {
                            return Err(format!("trace event {i}: counter without value"));
                        }
                    },
                }
            }
            other => return Err(format!("trace event {i}: unknown ph \"{other}\"")),
        };
        events.push(TraceEvent {
            kind,
            name: Arc::from(name.as_str()),
            tid,
            ts_ns,
            delta,
        });
    }
    // Stable: groups the lanes, keeps each lane's (monotone) file order.
    events.sort_by_key(|e| e.tid);
    thread_names.sort_by_key(|(tid, _)| *tid);
    thread_names.dedup_by_key(|(tid, _)| *tid);
    Ok(TraceSnapshot {
        events,
        dropped,
        thread_names,
    })
}
