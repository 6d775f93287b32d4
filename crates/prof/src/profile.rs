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

/// Span-tree node, identity `(parent, name)`, arena-indexed. Children
/// are always created after their parent, so a reverse index scan sees
/// every child before its parent.
struct PathNode {
    name: Arc<str>,
    parent: Option<usize>,
    self_ns: u64,
    children: Vec<usize>,
}

#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    min_ns: u64,
    max_ns: u64,
    net_bytes: i64,
    durations: Vec<u64>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl Profile {
    /// Reduces a collected [`TraceSnapshot`] to a profile. Imbalance is
    /// tolerated the same way [`TraceSnapshot::to_folded`] tolerates
    /// it: unmatched `End`s are counted and dropped, and still-open
    /// frames are closed at the last timestamp.
    pub fn from_trace(snap: &TraceSnapshot) -> Profile {
        let first_ts = snap.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let last_ts = snap.events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
        let wall_ns = last_ts - first_ts;

        let mut nodes: Vec<PathNode> = Vec::new();
        let mut roots: BTreeMap<Arc<str>, usize> = BTreeMap::new();
        let mut aggs: BTreeMap<Arc<str>, Agg> = BTreeMap::new();
        let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
        let mut busy: BTreeMap<u64, u64> = BTreeMap::new();
        // A just-closed span waiting for its trailing heap sample:
        // `(name, heap at open)`. Cleared by any non-gauge event on the
        // same thread — the sample, if present, is adjacent in the ring.
        let mut pending_heap: BTreeMap<u64, (Arc<str>, u64)> = BTreeMap::new();
        let mut unmatched_ends = 0u64;
        let mut open_spans = 0u64;

        fn node_for(
            nodes: &mut Vec<PathNode>,
            roots: &mut BTreeMap<Arc<str>, usize>,
            parent: Option<usize>,
            name: &Arc<str>,
        ) -> usize {
            let found = match parent {
                Some(p) => nodes[p]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| nodes[c].name == *name),
                None => roots.get(name).copied(),
            };
            if let Some(idx) = found {
                return idx;
            }
            let idx = nodes.len();
            nodes.push(PathNode {
                name: name.clone(),
                parent,
                self_ns: 0,
                children: Vec::new(),
            });
            match parent {
                Some(p) => nodes[p].children.push(idx),
                None => {
                    roots.insert(name.clone(), idx);
                }
            }
            idx
        }

        fn close(
            frame: Frame,
            end_ns: u64,
            stack: &mut [Frame],
            nodes: &mut [PathNode],
            aggs: &mut BTreeMap<Arc<str>, Agg>,
            busy_ns: &mut u64,
        ) -> Option<(Arc<str>, u64)> {
            let total = end_ns.saturating_sub(frame.start_ns);
            let exclusive = total.saturating_sub(frame.child_ns);
            nodes[frame.node].self_ns += exclusive;
            let agg = aggs.entry(frame.name.clone()).or_default();
            if agg.count == 0 {
                agg.min_ns = total;
            } else {
                agg.min_ns = agg.min_ns.min(total);
            }
            agg.count += 1;
            agg.total_ns += total;
            agg.self_ns += exclusive;
            agg.max_ns = agg.max_ns.max(total);
            agg.durations.push(total);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += total;
            } else {
                *busy_ns += total;
            }
            frame.open_heap.map(|h| (frame.name, h))
        }

        for e in &snap.events {
            let stack = stacks.entry(e.tid).or_default();
            let tid_busy = busy.entry(e.tid).or_insert(0);
            match e.kind {
                TraceEventKind::Begin => {
                    pending_heap.remove(&e.tid);
                    let parent = stack.last().map(|f| f.node);
                    let node = node_for(&mut nodes, &mut roots, parent, &e.name);
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
                    if stack.iter().any(|f| f.name == e.name) {
                        // Close intermediates down to (and including)
                        // the match, like `to_folded`.
                        loop {
                            let matched = stack.last().is_some_and(|f| f.name == e.name);
                            let frame = stack.pop().expect("match guarantees a frame");
                            let heap =
                                close(frame, e.ts_ns, stack, &mut nodes, &mut aggs, tid_busy);
                            if matched {
                                if let Some(h) = heap {
                                    pending_heap.insert(e.tid, h);
                                }
                                break;
                            }
                        }
                    } else {
                        unmatched_ends += 1;
                    }
                }
                TraceEventKind::Gauge if e.name.as_ref() == HEAP_GAUGE => {
                    if let Some((name, open)) = pending_heap.remove(&e.tid) {
                        let delta = e.delta as i64 - open as i64;
                        aggs.entry(name).or_default().net_bytes += delta;
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
            let tid_busy = busy.entry(tid).or_insert(0);
            open_spans += stack.len() as u64;
            while let Some(frame) = stack.pop() {
                close(frame, last_ts, &mut stack, &mut nodes, &mut aggs, tid_busy);
            }
        }

        let mut spans: Vec<SpanProfile> = aggs
            .into_iter()
            .map(|(name, mut a)| {
                a.durations.sort_unstable();
                SpanProfile {
                    name: name.to_string(),
                    count: a.count,
                    total_ns: a.total_ns,
                    self_ns: a.self_ns,
                    child_ns: a.total_ns - a.self_ns,
                    min_ns: a.min_ns,
                    max_ns: a.max_ns,
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
        for i in (0..nodes.len()).rev() {
            subtree[i] += nodes[i].self_ns;
            if let Some(p) = nodes[i].parent {
                subtree[p] += subtree[i];
            }
        }
        let heaviest = |candidates: &[usize]| -> Option<usize> {
            candidates.iter().copied().max_by(|&a, &b| {
                subtree[a]
                    .cmp(&subtree[b])
                    .then_with(|| nodes[b].name.cmp(&nodes[a].name))
            })
        };
        let mut critical_chain = Vec::new();
        let root_ids: Vec<usize> = roots.values().copied().collect();
        let mut cursor = heaviest(&root_ids).filter(|&r| subtree[r] > 0);
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
            unmatched_ends,
            open_spans,
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

/// Re-folds a Chrome trace sidecar to folded-stack text (the
/// `flamegraph.pl` input format), via [`chrome_to_snapshot`] and
/// [`TraceSnapshot::to_folded`].
///
/// # Errors
///
/// Same surface as [`chrome_to_snapshot`].
pub fn fold_chrome_trace(text: &str) -> Result<String, String> {
    Ok(chrome_to_snapshot(text)?.to_folded())
}
