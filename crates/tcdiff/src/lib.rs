#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tcdiff — the regression gate for every sidecar a harness leaves
//!
//! The workspace's harnesses commit `BENCH_*.json` and `PROF_*.json`
//! sidecars and emit [`tc_obs::RunArtifact`] documents, but a sidecar
//! nobody diffs is write-only telemetry: a perf or determinism
//! regression ships silently. [`diff`] is the one function that
//! compares two such documents for a gate. It works field by field,
//! with these field classes:
//!
//! * **Exact fields** — everything that must be bit-stable across
//!   machines and worker counts: fingerprints, WNS/TNS and other
//!   picosecond results, workload dimensions, edit counts, booleans,
//!   strings. Any difference is a regression.
//! * **Timing fields** — wall-clock measurements (`*_ms`, `*_us`,
//!   `*_ns`, `wall*`, `speedup*`, `elapsed*`, `idle*`): compared under
//!   a relative tolerance (`--tol`), informational unless
//!   `--timing-strict` — shared CI runners' wall clock proves nothing.
//! * **Memory fields** — allocator telemetry (`*_bytes`, `*_allocs`,
//!   `*_frees`): tolerance-gated like timing but under their own,
//!   wider knob (`--mem-tol`), because allocator behaviour — arena
//!   growth policy, thread count, even libc version — moves the counts
//!   between perfectly healthy runs. They are **never** compared
//!   bit-exactly.
//!
//! Every tolerance is **relative to the baseline value**:
//! `|candidate − baseline| / |baseline|`, so `--tol 3.0` admits up to
//! 4x the baseline.
//!
//! The unit suffix carries the distinction: `ms`/`us`/`ns` name *wall
//! clock* (host-dependent), while `ps` names *simulated time* — a
//! deterministic engine result that must match exactly.
//!
//! Fields that describe the machine rather than the run
//! (`host_threads`, the `knobs.*` block) are informational: shown in
//! the table, never gating.
//!
//! **Span profiles.** When both documents are `PROF_*.json`
//! ([`tc_prof::PROF_KIND`]) the comparison is by span *name* — spans
//! are sorted by self time, so positions mean nothing — under the span
//! rule: a span appearing or disappearing, a changed `count`, or
//! `dropped_events > 0` on either side is a regression; `self_ns`
//! growth beyond `--tol` on a span holding at least [`MIN_SHARE`] of
//! wall in either document is a timing row (gating under
//! `--timing-strict`); improvements, wall and heap drift are
//! informational. Lanes, percentiles and the critical chain are not
//! compared: they legitimately differ between worker counts.
//!
//! [`check_trace`] validates a Chrome `trace_event` export through
//! [`tc_prof`]'s reader: well-formed, per-thread monotonic timestamps,
//! balanced B/E events, no ring overflow, a minimum thread count.

use tc_obs::JsonValue;
use tc_prof::Profile;

/// How a flattened field participates in the comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldClass {
    /// Must match bitwise (numbers compared exactly).
    Exact,
    /// Wall-clock measurement: tolerance-gated (or informational).
    Timing,
    /// Heap telemetry: tolerance-gated under [`DiffOptions::mem_tol`]
    /// (or informational) — never bit-exact.
    Memory,
    /// Machine description: never gates.
    Info,
}

/// One field's comparison outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowStatus {
    /// Values agree (exact fields) or are within tolerance (timing).
    Match,
    /// Timing field moved beyond tolerance but timing is informational.
    Drift,
    /// Exact mismatch, out-of-tolerance timing, or structural
    /// difference — the gate fails.
    Regression,
    /// Informational field; never gates.
    Info,
}

/// One row of the delta table.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Flattened field path, e.g. `grid[2].wall_ms`.
    pub path: String,
    /// Field class the path was assigned.
    pub class: FieldClass,
    /// Baseline value (rendered), or `—` if absent.
    pub baseline: String,
    /// Candidate value (rendered), or `—` if absent.
    pub candidate: String,
    /// Relative delta in percent for numeric pairs.
    pub delta_pct: Option<f64>,
    /// Outcome.
    pub status: RowStatus,
}

/// Options controlling [`diff`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Tolerance for timing fields, as a fraction of the baseline value.
    pub tol: f64,
    /// Tolerance for memory fields, as a fraction of the baseline value.
    /// Wider than `tol` by default: allocator counts are stable within
    /// a host but not across libc versions or thread schedules.
    pub mem_tol: f64,
    /// Gate out-of-tolerance timing *and memory* fields. Off by
    /// default: on a shared CI runner they are drift, not regressions.
    pub timing_strict: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tol: 0.25,
            mem_tol: 0.5,
            timing_strict: false,
        }
    }
}

/// Share of wall a span's self time must hold, in either profile,
/// before its timing is compared at all — scheduling jitter on
/// microsecond spans must never fail a build.
pub const MIN_SHARE: f64 = 0.02;

/// The full comparison result.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared field, in path order.
    pub rows: Vec<DiffRow>,
    /// Number of gating failures.
    pub regressions: usize,
    /// Number of informational timing drifts.
    pub drifts: usize,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions == 0
    }

    /// Renders the per-metric delta table (only non-matching rows plus
    /// a summary unless `verbose`).
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        let shown: Vec<&DiffRow> = self
            .rows
            .iter()
            .filter(|r| verbose || r.status != RowStatus::Match)
            .collect();
        if !shown.is_empty() {
            let wp = shown.iter().map(|r| r.path.len()).max().unwrap_or(4).max(5);
            let wa = shown
                .iter()
                .map(|r| r.baseline.len())
                .max()
                .unwrap_or(8)
                .max(8);
            let wb = shown
                .iter()
                .map(|r| r.candidate.len())
                .max()
                .unwrap_or(9)
                .max(9);
            out.push_str(&format!(
                "{:<wp$}  {:<6}  {:>wa$}  {:>wb$}  {:>8}  status\n",
                "field", "class", "baseline", "candidate", "delta"
            ));
            for r in shown {
                let class = match r.class {
                    FieldClass::Exact => "exact",
                    FieldClass::Timing => "timing",
                    FieldClass::Memory => "memory",
                    FieldClass::Info => "info",
                };
                let delta = r
                    .delta_pct
                    .map_or_else(|| "—".to_string(), |d| format!("{d:+.1}%"));
                let status = match r.status {
                    RowStatus::Match => "ok",
                    RowStatus::Drift => "DRIFT (informational)",
                    RowStatus::Regression => "REGRESSION",
                    RowStatus::Info => "info",
                };
                out.push_str(&format!(
                    "{:<wp$}  {:<6}  {:>wa$}  {:>wb$}  {:>8}  {}\n",
                    r.path, class, r.baseline, r.candidate, delta, status
                ));
            }
        }
        out.push_str(&format!(
            "{} field(s) compared: {} regression(s), {} timing drift(s)\n",
            self.rows.len(),
            self.regressions,
            self.drifts
        ));
        out
    }
}

/// A scalar leaf of a flattened JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Flat {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Flat {
    fn render(&self) -> String {
        match self {
            Flat::Num(x) => {
                if *x == x.trunc() && x.abs() < 9.0e15 {
                    format!("{}", *x as i64)
                } else {
                    format!("{x:.6}")
                }
            }
            Flat::Str(s) => s.clone(),
            Flat::Bool(b) => b.to_string(),
            Flat::Null => "null".to_string(),
        }
    }
}

/// Flattens a JSON tree into `(path, leaf)` pairs:
/// `{"a":{"b":[1]}}` → `[("a.b[0]", Num(1))]`.
pub fn flatten(v: &JsonValue) -> Vec<(String, Flat)> {
    let mut out = Vec::new();
    flatten_into(v, String::new(), &mut out);
    out
}

fn flatten_into(v: &JsonValue, path: String, out: &mut Vec<(String, Flat)>) {
    match v {
        JsonValue::Null => out.push((path, Flat::Null)),
        JsonValue::Bool(b) => out.push((path, Flat::Bool(*b))),
        JsonValue::Num(x) => out.push((path, Flat::Num(*x))),
        JsonValue::Str(s) => out.push((path, Flat::Str(s.clone()))),
        JsonValue::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_into(item, format!("{path}[{i}]"), out);
            }
            if items.is_empty() {
                out.push((format!("{path}[]"), Flat::Null));
            }
        }
        JsonValue::Obj(pairs) => {
            for (k, item) in pairs {
                // An empty key would splice its children into the parent
                // level, and a key containing path syntax (`.`, `[`, `]`,
                // quotes) could collide with a genuinely nested path —
                // both let distinct documents flatten identically. Render
                // such keys as quoted segments instead.
                let seg = if k.is_empty() || k.contains(['.', '[', ']', '"', '\\']) {
                    format!("{k:?}")
                } else {
                    k.clone()
                };
                let child = if path.is_empty() {
                    seg
                } else {
                    format!("{path}.{seg}")
                };
                flatten_into(item, child, out);
            }
        }
    }
}

/// Wall-clock unit/word tokens that mark a field as timing.
const TIMING_TOKENS: [&str; 7] = ["ms", "us", "ns", "wall", "speedup", "elapsed", "idle"];

/// Allocator-telemetry tokens that mark a field as memory. Checked
/// before the timing vocabulary so `peak_heap_bytes` and friends never
/// fall through to exact comparison.
const MEMORY_TOKENS: [&str; 3] = ["bytes", "allocs", "frees"];

/// Classifies a flattened path. The *leaf* segment decides: its
/// `_`-separated tokens are matched against the memory vocabulary
/// first, then the wall-clock vocabulary. `host_threads` and everything
/// under `knobs.` is machine description (informational).
pub fn classify(path: &str) -> FieldClass {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    // A quoted segment (`counters."mem.allocs"`) ends in its quote.
    let leaf = leaf.split('[').next().unwrap_or(leaf).trim_end_matches('"');
    if leaf == "host_threads" || path.starts_with("knobs.") || path.contains(".knobs.") {
        return FieldClass::Info;
    }
    if leaf
        .split('_')
        .any(|tok| MEMORY_TOKENS.contains(&tok.to_ascii_lowercase().as_str()))
    {
        return FieldClass::Memory;
    }
    if leaf
        .split('_')
        .any(|tok| TIMING_TOKENS.contains(&tok.to_ascii_lowercase().as_str()))
    {
        return FieldClass::Timing;
    }
    FieldClass::Exact
}

/// Schema guard: if both documents declare `schema_version`, the
/// versions must match — comparing across schema revisions produces
/// nonsense deltas.
///
/// # Errors
///
/// Returns the two versions on mismatch.
pub fn check_schema(a: &JsonValue, b: &JsonValue) -> Result<(), (f64, f64)> {
    let version = |v: &JsonValue| match v {
        JsonValue::Obj(pairs) => pairs.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("schema_version", JsonValue::Num(x)) => Some(*x),
            _ => None,
        }),
        _ => None,
    };
    match (version(a), version(b)) {
        (Some(va), Some(vb)) if va != vb => Err((va, vb)),
        _ => Ok(()),
    }
}

/// Compares two parsed documents for a gate. `a` is the baseline, `b`
/// the candidate. Two `PROF_*.json` documents are compared under the
/// span rule (see the crate docs), anything else field by field.
///
/// # Errors
///
/// Documents that cannot be compared at all: differing
/// `schema_version`s, or a `PROF_*.json` that fails
/// [`Profile::from_json`]'s validation.
pub fn diff(a: &JsonValue, b: &JsonValue, opts: &DiffOptions) -> Result<DiffReport, String> {
    if let Err((va, vb)) = check_schema(a, b) {
        return Err(format!(
            "schema_version mismatch: baseline {va} vs candidate {vb}"
        ));
    }
    let is_profile = |v: &JsonValue| {
        matches!(v, JsonValue::Obj(pairs) if pairs.iter().any(
            |(k, v)| k == "kind" && matches!(v, JsonValue::Str(s) if s == tc_prof::PROF_KIND)))
    };
    let mut report = DiffReport::default();
    if is_profile(a) && is_profile(b) {
        let base = Profile::from_json(a).map_err(|e| format!("baseline: {e}"))?;
        let cand = Profile::from_json(b).map_err(|e| format!("candidate: {e}"))?;
        diff_profiles(&base, &cand, opts, &mut report);
    } else {
        diff_fields(a, b, opts, &mut report);
    }
    Ok(report)
}

/// Drift of `b` from the baseline `a` as a signed fraction of `|a|` —
/// the one definition every tolerance and every delta column uses.
/// Infinite when only the baseline is zero.
fn drift(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

impl DiffOptions {
    /// What an out-of-tolerance field amounts to.
    fn beyond_tolerance(&self) -> RowStatus {
        if self.timing_strict {
            RowStatus::Regression
        } else {
            RowStatus::Drift
        }
    }
}

/// Appends one row (an absent side renders as `—`) and tallies it.
fn push(
    report: &mut DiffReport,
    path: &str,
    class: FieldClass,
    a: Option<Flat>,
    b: Option<Flat>,
    status: RowStatus,
) {
    let render = |v: &Option<Flat>| v.as_ref().map_or_else(|| "—".to_string(), Flat::render);
    match status {
        RowStatus::Regression => report.regressions += 1,
        RowStatus::Drift => report.drifts += 1,
        RowStatus::Match | RowStatus::Info => {}
    }
    report.rows.push(DiffRow {
        path: path.to_string(),
        class,
        baseline: render(&a),
        candidate: render(&b),
        delta_pct: match (a, b) {
            (Some(Flat::Num(a)), Some(Flat::Num(b))) => {
                Some(100.0 * drift(a, b)).filter(|d| d.is_finite())
            }
            _ => None,
        },
        status,
    });
}

fn diff_fields(a: &JsonValue, b: &JsonValue, opts: &DiffOptions, report: &mut DiffReport) {
    let fa = flatten(a);
    let fb = flatten(b);
    let index_b: std::collections::BTreeMap<&str, &Flat> =
        fb.iter().map(|(p, v)| (p.as_str(), v)).collect();
    // A field on one side only is a structural difference.
    let one_sided = |class| match class {
        FieldClass::Info => RowStatus::Info,
        _ => RowStatus::Regression,
    };
    let mut seen = std::collections::BTreeSet::new();
    for (path, va) in &fa {
        seen.insert(path.as_str());
        let class = classify(path);
        let vb = index_b.get(path.as_str()).copied();
        let status = vb.map_or_else(|| one_sided(class), |vb| compare(class, va, vb, opts));
        push(report, path, class, Some(va.clone()), vb.cloned(), status);
    }
    for (path, vb) in &fb {
        if !seen.contains(path.as_str()) {
            let class = classify(path);
            push(
                report,
                path,
                class,
                None,
                Some(vb.clone()),
                one_sided(class),
            );
        }
    }
}

fn compare(class: FieldClass, va: &Flat, vb: &Flat, opts: &DiffOptions) -> RowStatus {
    let matches = match (class, va, vb) {
        (FieldClass::Info, ..) => return RowStatus::Info,
        // Exact numbers compare by bit pattern of the parsed f64 (so
        // -0.0 vs 0.0 and NaN-as-null stay visible).
        (FieldClass::Exact, Flat::Num(a), Flat::Num(b)) => a.to_bits() == b.to_bits(),
        (FieldClass::Memory, Flat::Num(a), Flat::Num(b)) => drift(*a, *b).abs() <= opts.mem_tol,
        (FieldClass::Timing, Flat::Num(a), Flat::Num(b)) => drift(*a, *b).abs() <= opts.tol,
        (_, a, b) => a == b,
    };
    if matches {
        RowStatus::Match
    } else if class == FieldClass::Exact {
        RowStatus::Regression
    } else {
        opts.beyond_tolerance()
    }
}

/// The span rule: two profiles compared by span name.
fn diff_profiles(base: &Profile, cand: &Profile, opts: &DiffOptions, report: &mut DiffReport) {
    use FieldClass::{Exact, Memory, Timing};
    use RowStatus::{Info, Match, Regression};
    let num = |x: u64| Some(Flat::Num(x as f64));
    let text = |s: &str| Some(Flat::Str(s.to_string()));
    let share = |self_ns: u64, wall_ns: u64| self_ns as f64 / (wall_ns as f64).max(1.0);

    // Ring overflow truncates self time: such a profile gates nothing.
    let (da, db) = (base.dropped_events, cand.dropped_events);
    let status = if da > 0 || db > 0 { Regression } else { Match };
    push(report, "dropped_events", Exact, num(da), num(db), status);
    let (la, lb) = (&base.workload, &cand.workload);
    let status = if la == lb { Match } else { Info };
    push(
        report,
        "workload",
        FieldClass::Info,
        text(la),
        text(lb),
        status,
    );
    let (wa, wb) = (base.wall_ns, cand.wall_ns);
    push(report, "wall_ns", Timing, num(wa), num(wb), Info);

    for b in &base.spans {
        let at = |field: &str| format!("spans[{}]{field}", b.name);
        let Some(c) = cand.span(&b.name) else {
            push(report, &at(""), Exact, text("present"), None, Regression);
            continue;
        };
        let status = if b.count == c.count {
            Match
        } else {
            Regression
        };
        push(
            report,
            &at(".count"),
            Exact,
            num(b.count),
            num(c.count),
            status,
        );

        let weight = share(b.self_ns, wa).max(share(c.self_ns, wb));
        let growth = drift(b.self_ns as f64, c.self_ns as f64);
        let status = if weight < MIN_SHARE || growth.abs() <= opts.tol {
            Match
        } else if growth < 0.0 {
            Info // an improvement never gates
        } else {
            opts.beyond_tolerance()
        };
        let (sa, sb) = (num(b.self_ns), num(c.self_ns));
        push(report, &at(".self_ns"), Timing, sa, sb, status);

        let (ha, hb) = (b.net_bytes as f64, c.net_bytes as f64);
        let moved = (hb - ha).abs() > (1u64 << 20) as f64 && drift(ha, hb).abs() > opts.mem_tol;
        let status = if moved { Info } else { Match };
        let (ha, hb) = (Some(Flat::Num(ha)), Some(Flat::Num(hb)));
        push(report, &at(".net_bytes"), Memory, ha, hb, status);
    }
    for c in cand.spans.iter().filter(|c| base.span(&c.name).is_none()) {
        let path = format!("spans[{}]", c.name);
        push(report, &path, Exact, None, text("present"), Regression);
    }
}

/// Validates a Chrome `trace_event` JSON document through the
/// workspace's one trace reader, [`Profile::from_chrome_trace`]:
/// well-formed events, per-thread monotonic timestamps, balanced B/E
/// events, and at least `min_threads` recorded threads. Ring-overflow
/// traces (`dropped_events > 0`) are a **hard finding**: drops orphan
/// events and silently truncate any profile derived from the trace, so
/// a gating check must fail them, not forgive the imbalance they cause.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_trace(text: &str, min_threads: usize) -> Result<Profile, String> {
    let p = Profile::from_chrome_trace(text)?;
    if p.dropped_events > 0 {
        Err(format!(
            "trace document records {} dropped event(s) — ring overflow truncates span \
             accounting; re-record with a larger enable_trace capacity",
            p.dropped_events
        ))
    } else if p.unmatched_ends > 0 || p.open_spans > 0 {
        Err(format!(
            "trace document is unbalanced: {} E event(s) match no B, {} B event(s) never end",
            p.unmatched_ends, p.open_spans
        ))
    } else if p.lanes.len() < min_threads {
        Err(format!(
            "trace document has {} thread(s), expected >= {min_threads}",
            p.lanes.len()
        ))
    } else {
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> JsonValue {
        JsonValue::parse(s).expect("test doc parses")
    }

    fn diff(a: &JsonValue, b: &JsonValue, opts: &DiffOptions) -> DiffReport {
        super::diff(a, b, opts).expect("comparable documents")
    }

    #[test]
    fn ambiguous_keys_flatten_to_distinct_paths() {
        // An empty key must not splice its children into the parent
        // level: `profile` and `{"":{"profile":…}}` are different fields.
        let doc = parse(r#"{"profile":"tiny","":{"profile":"y"},"a.b":1,"a":{"b":2}}"#);
        let flat = flatten(&doc);
        let mut paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        paths.sort_unstable();
        let n = paths.len();
        paths.dedup();
        assert_eq!(
            paths.len(),
            n,
            "flatten produced colliding paths: {paths:?}"
        );
        // Self-diff of any accepted document is clean.
        let report = diff(&doc, &doc, &DiffOptions::default());
        assert!(
            report.ok(),
            "self-diff not clean:\n{}",
            report.render(false)
        );
    }

    #[test]
    fn classification_separates_wall_clock_from_results() {
        assert_eq!(classify("total_full_ms"), FieldClass::Timing);
        assert_eq!(classify("grid[2].wall_ms"), FieldClass::Timing);
        assert_eq!(classify("grid[2].speedup_vs_1"), FieldClass::Timing);
        assert_eq!(classify("per_fix_kind[0].mean_full_us"), FieldClass::Timing);
        assert_eq!(classify("metrics.spans[0].total_ns"), FieldClass::Timing);
        assert_eq!(classify("iterations[0].elapsed_ms"), FieldClass::Timing);
        // Picoseconds are simulated time — engine results, exact.
        assert_eq!(classify("period_ps"), FieldClass::Exact);
        assert_eq!(classify("iterations[0].wns_after_ps"), FieldClass::Exact);
        assert_eq!(classify("merged_fingerprint"), FieldClass::Exact);
        assert_eq!(classify("arcs_recomputed"), FieldClass::Exact);
        assert_eq!(classify("host_threads"), FieldClass::Info);
        assert_eq!(classify("knobs.TC_PAR_THREADS"), FieldClass::Info);
        // Allocator telemetry is its own class — never exact.
        assert_eq!(classify("memory.peak_heap_bytes"), FieldClass::Memory);
        assert_eq!(classify("memory.total_allocs"), FieldClass::Memory);
        assert_eq!(classify("memory.total_frees"), FieldClass::Memory);
        assert_eq!(classify("memory.vm_hwm_bytes"), FieldClass::Memory);
        assert_eq!(classify("metrics.spans[0].net_bytes"), FieldClass::Memory);
        assert_eq!(classify("profiles[1].build.peak_bytes"), FieldClass::Memory);
        // Snapshot counter names contain dots, so they flatten quoted.
        let counter = |name| format!("observability.counters.\"{name}\"");
        assert_eq!(classify(&counter("mem.vm_hwm_bytes")), FieldClass::Memory);
        assert_eq!(classify(&counter("mem.allocs")), FieldClass::Memory);
        assert_eq!(classify(&counter("sta.arcs_evaluated")), FieldClass::Exact);
    }

    #[test]
    fn memory_fields_gate_by_their_own_tolerance() {
        let a = parse(r#"{"memory":{"peak_heap_bytes":1000000,"total_allocs":500}}"#);
        let b = parse(r#"{"memory":{"peak_heap_bytes":1400000,"total_allocs":700}}"#);
        let strict = DiffOptions {
            tol: 0.25,
            mem_tol: 0.5,
            timing_strict: true,
        };
        // 40% growth sits inside mem_tol=0.5 even though tol=0.25
        // would fail it — memory uses its own knob.
        assert!(diff(&a, &b, &strict).ok());
        let c = parse(r#"{"memory":{"peak_heap_bytes":3000000,"total_allocs":500}}"#);
        let rep = diff(&a, &c, &strict);
        assert!(!rep.ok(), "3x peak fails the strict memory gate");
        let informational = DiffOptions {
            timing_strict: false,
            ..strict
        };
        let rep = diff(&a, &c, &informational);
        assert!(rep.ok(), "informational mode downgrades memory too");
        assert_eq!(rep.drifts, 1);
    }

    #[test]
    fn memory_fields_are_never_compared_exactly() {
        // A one-byte wiggle inside tolerance must pass even strict.
        let a = parse(r#"{"live_bytes":1048576}"#);
        let b = parse(r#"{"live_bytes":1048577}"#);
        let strict = DiffOptions {
            tol: 0.0,
            mem_tol: 0.01,
            timing_strict: true,
        };
        let rep = diff(&a, &b, &strict);
        assert!(rep.ok());
        assert_eq!(rep.rows[0].class, FieldClass::Memory);
    }

    #[test]
    fn self_compare_is_clean() {
        let doc = parse(r#"{"fingerprint":"abc","wall_ms":12.5,"cells":100}"#);
        let report = diff(&doc, &doc, &DiffOptions::default());
        assert!(report.ok());
        assert_eq!(report.regressions, 0);
        assert!(report.rows.iter().all(|r| r.status == RowStatus::Match));
    }

    #[test]
    fn fingerprint_perturbation_is_a_regression() {
        let a = parse(r#"{"merged_fingerprint":"9dd7ec5240","wall_ms":10.0}"#);
        let b = parse(r#"{"merged_fingerprint":"deadbeef00","wall_ms":10.0}"#);
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(!report.ok());
        assert_eq!(report.regressions, 1);
    }

    #[test]
    fn timing_moves_gate_by_tolerance_and_mode() {
        let a = parse(r#"{"wall_ms":100.0}"#);
        let b = parse(r#"{"wall_ms":200.0}"#);
        let strict = DiffOptions {
            timing_strict: true,
            ..DiffOptions::default()
        };
        assert!(!diff(&a, &b, &strict).ok(), "2x slower fails strict gate");
        let informational = DiffOptions {
            timing_strict: false,
            ..DiffOptions::default()
        };
        let rep = diff(&a, &b, &informational);
        assert!(rep.ok(), "informational mode never gates on timing");
        assert_eq!(rep.drifts, 1);
        let c = parse(r#"{"wall_ms":110.0}"#);
        assert!(diff(&a, &c, &strict).ok(), "10% is inside 25% tolerance");
    }

    #[test]
    fn missing_and_extra_fields_are_regressions() {
        let a = parse(r#"{"cells":100,"nets":200}"#);
        let b = parse(r#"{"cells":100,"extra":1}"#);
        let report = diff(&a, &b, &DiffOptions::default());
        assert_eq!(report.regressions, 2, "one missing + one extra");
    }

    #[test]
    fn schema_versions_must_match() {
        let a = parse(r#"{"schema_version":1,"x":1}"#);
        let b = parse(r#"{"schema_version":2,"x":1}"#);
        assert_eq!(check_schema(&a, &b), Err((1.0, 2.0)));
        assert!(super::diff(&a, &b, &DiffOptions::default()).is_err());
        assert_eq!(check_schema(&a, &a), Ok(()));
        // Documents without a version (BENCH sidecars) are accepted.
        let c = parse(r#"{"x":1}"#);
        assert_eq!(check_schema(&a, &c), Ok(()));
    }

    #[test]
    fn trace_check_validates_balance_and_monotonicity() {
        let good = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"b","ph":"B","ts":2.0,"pid":1,"tid":0},
            {"name":"b","ph":"E","ts":3.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":4.0,"pid":1,"tid":0},
            {"name":"t","ph":"B","ts":1.5,"pid":1,"tid":1},
            {"name":"c","ph":"C","ts":2.0,"pid":1,"tid":1,"args":{"value":3}},
            {"name":"t","ph":"E","ts":2.5,"pid":1,"tid":1}
        ],"otherData":{"dropped_events":0}}"#;
        let profile = check_trace(good, 2).expect("valid trace");
        assert_eq!(profile.lanes.len(), 2);
        assert_eq!(profile.span("b").map(|s| s.count), Some(1));
        assert!(check_trace(good, 3).is_err(), "thread floor");

        let unbalanced = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0}
        ]}"#;
        assert!(check_trace(unbalanced, 1).is_err());

        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":1.0,"pid":1,"tid":0}
        ]}"#;
        assert!(check_trace(backwards, 1).is_err());

        assert!(check_trace("not json", 1).is_err());
    }

    #[test]
    fn trace_check_hard_fails_on_dropped_events() {
        // Ring overflow truncates span accounting, so a non-zero drop
        // count is a finding in itself — even when the surviving events
        // happen to balance.
        let truncated = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":2.0,"pid":1,"tid":0}
        ],"otherData":{"dropped_events":3}}"#;
        let err = check_trace(truncated, 1).expect_err("drops are a hard finding");
        assert!(err.contains("3 dropped event(s)"), "{err}");
        assert!(err.contains("enable_trace"), "{err}");
    }

    #[test]
    fn trace_check_accepts_thread_name_metadata() {
        // M records carry ts 0 and sit before events whose lanes they
        // name; they must not trip monotonicity or balance.
        let with_meta = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"main"}},
            {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"tc-par-0"}},
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":2.0,"pid":1,"tid":0},
            {"name":"b","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":1}
        ],"otherData":{"dropped_events":0}}"#;
        let profile = check_trace(with_meta, 2).expect("metadata accepted");
        assert_eq!(profile.lanes[1].name, "tc-par-0", "metadata names the lane");

        let nameless_meta = r#"{"traceEvents":[
            {"ph":"M","ts":0,"pid":1,"tid":0}
        ]}"#;
        assert!(check_trace(nameless_meta, 0).is_err());
    }
}
