// `deny` rather than `forbid`: the counting global allocator
// ([`alloc`]) is the crate's one sanctioned unsafe surface.
#![deny(unsafe_code)]
#![warn(missing_docs)]

//! # tc-obs — zero-dependency tracing and metrics
//!
//! The measurement substrate for the timing-closure workspace: Kahng's
//! Fig 1 loop is schedule-bound ("five three-day repair and signoff
//! analysis iterations"), and making our reproduction "fast as the
//! hardware allows" starts with knowing where each iteration's
//! wall-clock and ECO budget actually go. This crate provides:
//!
//! * **Spans** — hierarchical wall-clock timing via RAII guards
//!   ([`span()`]). Nesting is tracked per thread and aggregated by path
//!   (`closure.iteration/sta.gba`), so memory stays bounded.
//! * **Counters and histograms** — [`counter`] / [`histogram`] handles
//!   backed by atomics in a global registry: Newton iterations per
//!   transient step, arcs evaluated per STA propagation, edits per fix
//!   pass, corners per signoff run. A [`snapshot`] lists only the
//!   counters and histograms touched since the last [`reset`].
//! * **Exporters** — a flame-style text report and JSON
//!   ([`Snapshot::render_text`], [`Snapshot::to_json`]), plus the tiny
//!   [`json`] builder (and parser, [`JsonValue::parse`]) the figure
//!   harnesses and `tcdiff` use for their sidecar files.
//! * **The flight recorder** ([`trace`]) — opt-in per-event tracing on
//!   bounded per-thread rings ([`enable_trace`]): every span open/close
//!   and counter add becomes a timestamped [`TraceEvent`], exportable
//!   as Chrome `trace_event` JSON ([`TraceSnapshot::to_chrome_trace`],
//!   loads in `chrome://tracing` / Perfetto). The recorder only records
//!   and encodes; tc-prof reduces the events to span profiles and
//!   folded flamegraph stacks.
//! * **Run artifacts** ([`RunArtifact`]) — one schema-versioned JSON
//!   document per harness/closure run (workload, knobs, metrics,
//!   per-iteration records, wall clock, heap/RSS) that the `tcdiff`
//!   binary diffs: results exactly, wall clock and heap as deltas.
//! * **Memory telemetry** ([`alloc`]) — a counting `#[global_allocator]`
//!   wrapper ([`enable_memory`]) tracking allocations/frees, live bytes
//!   and a monotonic peak, with per-span heap attribution (net bytes and
//!   peak growth recorded on span exit, next to duration) and kernel
//!   `VmHWM`/`VmRSS` sampling ([`vm_hwm_bytes`]) behind a portable
//!   fallback. Capacity — the second killer in the paper's §1.3 — gets
//!   the same treatment as wall clock.
//! * **The CLI skeleton** ([`cli`]) — the flag cursor and the 0/1/2 exit
//!   contract `tcdiff`, `tc_prof`, `tc_lint` and `tc_fuzz` share.
//!
//! Everything is std-only (`Instant`, `Mutex`, atomics) so offline
//! builds keep working, and the whole layer is **off by default**:
//! until [`enable`] is called a span is a no-op guard and a counter add
//! is one relaxed atomic load plus an untaken branch. The flight
//! recorder adds a second gate: even with the base layer on, trace
//! emission costs one more relaxed load until [`enable_trace`] turns
//! it on.
//!
//! # Span / counter taxonomy
//!
//! | Name | Kind | Meaning |
//! |---|---|---|
//! | `closure.run` | span | one full [`ClosureFlow::run`] |
//! | `closure.iteration` | span | one repair + analysis iteration |
//! | `closure.fix.*` | span | one fix pass (`VtSwap`, `Sizing`, …) |
//! | `closure.sta` | span | a verify/summary STA inside the loop |
//! | `closure.edits` | counter | accepted ECO edits |
//! | `closure.preflight` | span | the pre-STA lint gate inside `ClosureFlow::run` |
//! | `lint.run` | span | one full lint registry sweep (`tc_lint::run_lint`) |
//! | `lint.rule.*` | span | one rule pass (a root span when run on pool worker threads) |
//! | `lint.findings` / `lint.errors` / `lint.warnings` | counter | findings per sweep, split by severity |
//! | `sta.gba` | span | one graph propagation (at most one per [`Sta`]) |
//! | `sta.pba` | span | one PBA re-derating pass over it |
//! | `sta.worst_paths` | span | one worst-path extraction (an `Sta` or the timer) |
//! | `sta.required` | span | one backward pass of late required times over a propagation |
//! | `sta.arcs_evaluated` | counter | timing arcs evaluated in GBA |
//! | `sta.nets_propagated` | counter | nets levelized + propagated |
//! | `sta.pba.paths` / `sta.pba.stages` | counter | PBA path/stage volume |
//! | `sta.paths.extracted` / `sta.paths.stages` | counter | extracted path/stage volume |
//! | `sta.endpoint_checks` | counter | endpoint rows computed: every endpoint per propagation, the dirty ones per re-time |
//! | `sta.incremental` | span | one [`Timer::update`] dirty-cone pass |
//! | `sta.dirty_cone_size` | histogram | cells re-evaluated per update |
//! | `sta.arcs_recomputed` | counter | arcs inside dirty cones |
//! | `sta.arcs_reused` | counter | cached arcs an update skipped |
//! | `sta.rows_copied` | counter | endpoint-row copies made because a report still held the rows |
//! | `sta.structural_rounds` | counter | re-times that repaired the graph's structure |
//! | `sta.level_moves` | histogram | existing cells whose level changed, one sample per structural round |
//! | `signoff.sta` | span | the `fig01_closure_loop` figure's from-scratch signoff STA cross-check |
//! | `signoff.corners` | span | one multi-corner signoff run |
//! | `signoff.corners/corner.*` | span | one corner's STA |
//! | `mcmm.empty_reports` | counter | corners merged with zero endpoints |
//! | `mcmm.nonfinite_slacks` | counter | endpoint checks skipped (NaN slack) |
//! | `par.tasks` | counter | work items executed on `tc-par` pools |
//! | `par.steal_idle_ms` | counter | summed worker idle ms per pool scope |
//! | `sim.transient` | span | one transient circuit simulation |
//! | `sim.newton.steps` | counter | solved backward-Euler steps (flushed once per transient) |
//! | `sim.quiet_steps` | counter | steps not solved because their inputs repeat the last solved step's (flushed once per transient) |
//! | `sim.newton.iters` | counter | Newton iterations across steps (flushed once per transient) |
//! | `sim.newton.iters_per_step` | histogram | convergence profile, one sample per step (flushed once per transient) |
//! | `par.task` | trace scope | one pool work item (timeline only, no span path) |
//! | `obs.trace.dropped` | counter | trace events lost to full rings |
//! | `mem.allocs` / `mem.frees` | counter | allocator events since the last [`mark_memory`] (since [`enable_memory`] before any mark) |
//! | `mem.live_bytes` | counter | tracked live heap bytes grown past the mark, at snapshot time |
//! | `mem.peak_heap_bytes` | counter | peak of tracked live bytes since the mark, above the live bytes at the mark |
//! | `mem.vm_hwm_bytes` | counter | kernel peak RSS, process-wide (Linux; absent elsewhere) |
//!
//! The `mem.*` counters appear in snapshots only while memory counting
//! is enabled; they are gauges sampled at snapshot time and counted from
//! the last [`mark_memory`] ([`memory_since_mark`]), which [`reset`]
//! does not move. Before the first mark they are the process-cumulative
//! totals.
//!
//! [`ClosureFlow::run`]: ../tc_closure/flow/struct.ClosureFlow.html
//! [`Sta`]: ../tc_sta/struct.Sta.html
//! [`Timer::update`]: ../tc_sta/timer/struct.Timer.html
//!
//! # Examples
//!
//! ```
//! tc_obs::enable();
//! {
//!     let _outer = tc_obs::span("outer");
//!     let _inner = tc_obs::span("inner");
//!     tc_obs::counter("events").add(3);
//! }
//! let snap = tc_obs::snapshot();
//! assert_eq!(snap.counter("events"), 3);
//! assert!(snap.span("outer/inner").is_some());
//! println!("{}", snap.render_text());
//! ```

pub mod alloc;
pub mod artifact;
pub mod cli;
pub mod export;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use alloc::{
    disable_memory, enable_memory, heap_mark, mark_memory, memory_enabled, memory_since_mark,
    memory_stats, vm_hwm_bytes, vm_rss_bytes, CountingAlloc, HeapDelta, HeapMark, MemStats,
};
pub use artifact::{RunArtifact, RUN_ARTIFACT_KIND, RUN_ARTIFACT_SCHEMA_VERSION};
pub use export::{fmt_bytes, HistogramSnapshot, Snapshot, SpanSnapshot};
pub use json::JsonValue;
pub use metrics::{Counter, Histogram};
pub use registry::{counter, disable, enable, histogram, is_enabled, reset, snapshot};
pub use span::{current_span_path, span, span_parent, SpanGuard, SpanParentGuard};
pub use trace::{
    clear_trace, disable_trace, enable_trace, trace_enabled, trace_scope, trace_snapshot,
    TraceBuffer, TraceEvent, TraceEventKind, TraceScope, TraceSnapshot, DEFAULT_TRACE_CAPACITY,
};

#[cfg(test)]
mod tests {
    //! Every test uses names unique to itself: the registry is global
    //! and `cargo test` runs threads concurrently. None of them may
    //! call `disable()` or `reset()` — those flip state the sibling
    //! tests are recording under, so they live in their own test
    //! binaries (`tests/disabled.rs`, `tests/reset.rs`).

    use super::*;

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        enable();
        for _ in 0..3 {
            let _a = span("t_nest.outer");
            for _ in 0..2 {
                let _b = span("t_nest.inner");
            }
        }
        let snap = snapshot();
        let outer = snap.span("t_nest.outer").expect("outer recorded");
        let inner = snap
            .span("t_nest.outer/t_nest.inner")
            .expect("inner nested under outer");
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 6);
        assert_eq!(inner.depth(), 1);
        assert_eq!(inner.name(), "t_nest.inner");
        assert_eq!(inner.parent(), Some("t_nest.outer"));
        assert!(outer.min_ns <= outer.max_ns);
        // Only the nested path exists; the bare inner name does not.
        assert!(snap.span("t_nest.inner").is_none());
        assert!(snap.spans_named("t_nest.inner").count() == 1);
    }

    #[test]
    fn sibling_spans_share_a_parent_but_not_a_path() {
        enable();
        {
            let _p = span("t_sib.parent");
            let _a = span("t_sib.a");
            drop(_a);
            let _b = span("t_sib.b");
        }
        let snap = snapshot();
        assert!(snap.span("t_sib.parent/t_sib.a").is_some());
        assert!(snap.span("t_sib.parent/t_sib.b").is_some());
        assert!(snap.span("t_sib.parent/t_sib.a/t_sib.b").is_none());
    }

    #[test]
    fn counters_aggregate_and_delta() {
        enable();
        let c = counter("t_delta.count");
        c.add(5);
        let before = snapshot();
        c.add(7);
        counter("t_delta.other").incr();
        let after = snapshot();
        assert_eq!(
            after.counter("t_delta.count"),
            before.counter("t_delta.count") + 7
        );
        let deltas = after.counter_deltas(&before);
        assert!(deltas.contains(&("t_delta.count".to_string(), 7)));
        assert!(deltas.contains(&("t_delta.other".to_string(), 1)));
    }

    #[test]
    fn histogram_buckets_cover_all_samples() {
        enable();
        let h = histogram("t_hist.h");
        for v in [0.0, 0.5, 1.0, 3.0, 10.0, 100.0, 1e6] {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "t_hist.h")
            .expect("histogram exported");
        assert_eq!(hs.count, 7);
        let bucketed: u64 = hs.buckets.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(bucketed, 7, "every sample lands in a bucket");
        assert_eq!(hs.min, 0.0);
        assert_eq!(hs.max, 1e6);
        assert!((hs.mean() - hs.sum / 7.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_record_n_equals_n_records() {
        enable();
        let (one, many) = (histogram("t_hist_n.one"), histogram("t_hist_n.many"));
        for (v, n) in [(3.0, 4), (0.0, 2), (17.0, 1), (5.0, 0)] {
            for _ in 0..n {
                one.record(v);
            }
            many.record_n(v, n);
        }
        let snap = snapshot();
        let get = |name: &str| {
            let h = snap.histograms.iter().find(|h| h.name == name).unwrap();
            (h.count, h.sum, h.min, h.max, h.buckets.clone())
        };
        assert_eq!(get("t_hist_n.one"), get("t_hist_n.many"));
    }

    #[test]
    fn json_escaping_round_trips_control_chars() {
        assert_eq!(json::escape("plain"), "plain");
        assert_eq!(json::escape("a\"b"), "a\\\"b");
        assert_eq!(json::escape("back\\slash"), "back\\\\slash");
        assert_eq!(json::escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
        // Unicode above control range passes through unescaped.
        assert_eq!(json::escape("σ±µ"), "σ±µ");
    }

    #[test]
    fn json_parse_bounds_nesting_depth() {
        let ok = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        assert!(JsonValue::parse(&ok).is_ok(), "MAX_DEPTH levels parse");
        let too_deep = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH + 1),
            "]".repeat(json::MAX_DEPTH + 1)
        );
        let err = JsonValue::parse(&too_deep).expect_err("over-nested input rejected");
        assert!(
            err.contains("nesting deeper than") && err.contains("128") && err.contains("byte"),
            "error carries the limit and the offset: {err}"
        );
        // Objects hit the same guard.
        let deep_obj = "{\"k\":".repeat(json::MAX_DEPTH + 1);
        let err = JsonValue::parse(&deep_obj).expect_err("over-nested object rejected");
        assert!(err.contains("nesting deeper than"), "object guard: {err}");
    }

    #[test]
    fn json_value_renders_compact_documents() {
        let v = JsonValue::obj([
            ("name", JsonValue::str("wns \"worst\"")),
            ("n", JsonValue::from(42u64)),
            ("x", JsonValue::from(1.5)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("ok", JsonValue::from(true)),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Null, JsonValue::from(-3i64)]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"wns \"worst\"","n":42,"x":1.5,"nan":null,"ok":true,"arr":[null,-3]}"#
        );
    }

    #[test]
    fn exporters_emit_text_and_json() {
        enable();
        {
            let _s = span("t_export.phase");
            counter("t_export.count").add(2);
            histogram("t_export.hist").record(4.0);
        }
        let snap = snapshot();
        let text = snap.render_text();
        assert!(text.contains("t_export.phase"));
        assert!(text.contains("t_export.count"));
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""path":"t_export.phase""#));
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        enable();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let c = counter("t_conc.count");
                    let h = histogram("t_conc.hist");
                    for i in 0..1_000 {
                        let _s = span("t_conc.span");
                        c.incr();
                        if i % 100 == 0 {
                            h.record(t as f64);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("t_conc.count"), 8_000);
        let s = snap.span("t_conc.span").expect("span recorded");
        assert_eq!(s.count, 8_000);
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "t_conc.hist")
            .expect("histogram");
        assert_eq!(hs.count, 80);
    }
}
