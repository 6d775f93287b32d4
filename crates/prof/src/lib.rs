//! tc-prof: trace analytics over the flight recorder.
//!
//! The recorder ([`tc_obs::trace`]) answers "what happened when"; this
//! crate answers "where did the wall clock go, and did it move since
//! the last commit". It consumes either the live per-thread rings
//! ([`Profile::from_rings`]) or an exported Chrome trace sidecar
//! ([`Profile::from_chrome_trace`]) and reduces the event timeline to a
//! **span profile**:
//!
//! * per-span-name aggregates — count, total/self/child wall time,
//!   occurrence-duration p50/p90/p99, and net allocation deltas
//!   reconstructed from the `mem.live_bytes` gauge samples the span
//!   layer emits at span edges;
//! * per-thread **lane utilization** — busy/idle per recorded thread
//!   (`main`, `tc-par-0`, …), with realized parallelism Σbusy ⁄ wall;
//! * the **critical chain** — the root-to-leaf path through the span
//!   tree with the greatest self-time underneath it, the
//!   program-execution analogue of a timing graph's critical path.
//!
//! Profiles serialize to a schema-versioned `PROF_*.json` sidecar
//! ([`Profile::render_json`] / [`Profile::parse`], kind
//! [`PROF_KIND`]) that the benchmark harnesses emit next to their
//! `BENCH_*`/`RUN_*` documents. `tcdiff` — the workspace's one differ —
//! compares two of them span-by-span: span set and counts exactly, and
//! self time as a delta, so a hot-path move surfaces as a *named span
//! with a percentage*, not an unattributed wall-clock change.
//!
//! Self-time accounting mirrors [`TraceSnapshot::to_folded`]'s
//! tolerance for imbalance: an `End` with no open matching frame is
//! counted in [`Profile::unmatched_ends`] and dropped, and frames still
//! open at the last timestamp are closed there and counted in
//! [`Profile::open_spans`]. A non-zero [`Profile::dropped_events`]
//! (ring overflow) is a **hard finding** — truncated rings skew
//! self-time, so `tc_prof report` exits 1 on such a profile and
//! `tcdiff` fails any comparison that involves one.
//!
//! [`TraceSnapshot::to_folded`]: tc_obs::TraceSnapshot::to_folded

pub mod codec;
pub mod profile;

pub use profile::{ChainLink, Lane, Profile, SpanProfile};

/// Schema version stamped into every `PROF_*.json` document.
pub const PROF_SCHEMA_VERSION: u64 = 1;

/// The `kind` discriminator stamped into every `PROF_*.json` document.
pub const PROF_KIND: &str = "tc.profile";

/// Human-readable duration: picks s/ms/µs/ns by magnitude.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
