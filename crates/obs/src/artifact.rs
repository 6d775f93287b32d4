//! Run artifacts: one schema-versioned JSON document per harness or
//! closure run, written next to the figure sidecars so `tcdiff` can
//! compare any two runs: exact fields must agree, wall clock and heap
//! show as deltas.
//!
//! A [`RunArtifact`] captures everything needed to attribute a
//! performance delta after the fact: the workload id, the config knobs
//! that shaped the run (`TC_PAR_THREADS`, `max_iterations`,
//! `k_paths`, …), wall clock, per-iteration records, the full
//! metrics [`Snapshot`], and any harness-specific extras (fingerprints,
//! speedups). The schema is versioned ([`RUN_ARTIFACT_SCHEMA_VERSION`])
//! so `tcdiff` can refuse cross-version comparisons instead of
//! producing nonsense deltas.

use crate::alloc::{self, MemStats};
use crate::export::Snapshot;
use crate::json::JsonValue;

/// Version of the artifact JSON layout. Bump on any field rename or
/// semantic change; `tcdiff` refuses to compare mismatched versions.
///
/// * v1 — workload/knobs/wall/iterations/extras/metrics.
/// * v2 — adds the `memory` section (counting-allocator totals, peak
///   heap, kernel VmHWM/VmRSS) and per-span `net_bytes`/`peak_bytes`
///   in the metrics snapshot.
pub const RUN_ARTIFACT_SCHEMA_VERSION: u64 = 2;

/// The `kind` discriminator artifacts carry so tools can tell them from
/// figure sidecars.
pub const RUN_ARTIFACT_KIND: &str = "tc.run_artifact";

/// A schema-versioned record of one run. Build with the fluent setters,
/// then render with [`to_json_value`](Self::to_json_value) /
/// [`render`](Self::render).
#[derive(Clone, Debug)]
pub struct RunArtifact {
    workload: String,
    knobs: Vec<(String, String)>,
    wall_ms: f64,
    iterations: Vec<JsonValue>,
    extras: Vec<(String, JsonValue)>,
    metrics: Option<Snapshot>,
    memory: Option<MemStats>,
}

impl RunArtifact {
    /// A fresh artifact for `workload`, pre-populated with the
    /// environment knobs every run shares (`TC_PAR_THREADS`, host
    /// parallelism).
    pub fn new(workload: impl Into<String>) -> Self {
        let mut a = RunArtifact {
            workload: workload.into(),
            knobs: Vec::new(),
            wall_ms: 0.0,
            iterations: Vec::new(),
            extras: Vec::new(),
            metrics: None,
            memory: None,
        };
        let threads = std::env::var("TC_PAR_THREADS").unwrap_or_else(|_| "unset".to_string());
        a = a.knob("TC_PAR_THREADS", threads);
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        a.knob("host_threads", host.to_string())
    }

    /// The workload id this artifact was created for.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Records a config knob as a string. `tcdiff` shows knobs as
    /// informational rows and never gates on them: a worker count or
    /// host description may differ between two runs that must agree.
    #[must_use]
    pub fn knob(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.knobs.push((name.into(), value.to_string()));
        self
    }

    /// Records the run's total wall clock, milliseconds.
    #[must_use]
    pub fn wall_ms(mut self, ms: f64) -> Self {
        self.wall_ms = ms;
        self
    }

    /// Appends one per-iteration record (any JSON shape).
    #[must_use]
    pub fn iteration(mut self, record: JsonValue) -> Self {
        self.iterations.push(record);
        self
    }

    /// Attaches a harness-specific extra field (fingerprints, speedups,
    /// workload dimensions).
    #[must_use]
    pub fn extra(mut self, name: impl Into<String>, value: JsonValue) -> Self {
        self.extras.push((name.into(), value));
        self
    }

    /// Embeds the metrics snapshot (typically `tc_obs::snapshot()`
    /// taken right after the run).
    #[must_use]
    pub fn metrics(mut self, snapshot: Snapshot) -> Self {
        self.metrics = Some(snapshot);
        self
    }

    /// Embeds a memory section from explicit allocator stats.
    #[must_use]
    pub fn memory(mut self, stats: MemStats) -> Self {
        self.memory = Some(stats);
        self
    }

    /// Embeds a memory section sampled right now, if memory counting is
    /// on ([`crate::enable_memory`]); a no-op otherwise, so callers can
    /// chain it unconditionally.
    #[must_use]
    pub fn capture_memory(self) -> Self {
        if alloc::memory_enabled() {
            self.memory(alloc::memory_stats())
        } else {
            self
        }
    }

    /// The artifact as one JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        let knobs = self
            .knobs
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::str(v)))
            .collect();
        let mut fields = vec![
            (
                "schema_version".to_string(),
                JsonValue::from(RUN_ARTIFACT_SCHEMA_VERSION),
            ),
            ("kind".to_string(), JsonValue::str(RUN_ARTIFACT_KIND)),
            ("workload".to_string(), JsonValue::str(&self.workload)),
            ("knobs".to_string(), JsonValue::Obj(knobs)),
            ("wall_ms".to_string(), JsonValue::from(self.wall_ms)),
            (
                "iterations".to_string(),
                JsonValue::Arr(self.iterations.clone()),
            ),
        ];
        for (k, v) in &self.extras {
            fields.push((k.clone(), v.clone()));
        }
        if let Some(m) = &self.memory {
            // All leaves carry memory-class suffixes (`_allocs`,
            // `_frees`, `_bytes`) so tcdiff shows them as deltas —
            // allocator behaviour is never bit-stable across hosts.
            let mut mem = vec![
                ("total_allocs".to_string(), JsonValue::from(m.allocs)),
                ("total_frees".to_string(), JsonValue::from(m.frees)),
                (
                    "allocated_bytes".to_string(),
                    JsonValue::from(m.allocated_bytes),
                ),
                ("freed_bytes".to_string(), JsonValue::from(m.freed_bytes)),
                ("live_bytes".to_string(), JsonValue::from(m.live_bytes)),
                ("peak_heap_bytes".to_string(), JsonValue::from(m.peak_bytes)),
            ];
            mem.push((
                "vm_hwm_bytes".to_string(),
                alloc::vm_hwm_bytes().map_or(JsonValue::Null, JsonValue::from),
            ));
            mem.push((
                "vm_rss_bytes".to_string(),
                alloc::vm_rss_bytes().map_or(JsonValue::Null, JsonValue::from),
            ));
            fields.push(("memory".to_string(), JsonValue::Obj(mem)));
        }
        if let Some(snap) = &self.metrics {
            fields.push(("metrics".to_string(), snap.to_json_value()));
        }
        JsonValue::Obj(fields)
    }

    /// Compact JSON text of [`to_json_value`](Self::to_json_value).
    pub fn render(&self) -> String {
        self.to_json_value().render()
    }
}
