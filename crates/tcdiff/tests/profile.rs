//! The span rule: `PROF_*.json` documents through the one differ, at
//! the row level (`tcdiff::diff`) and at the exit-code level (the
//! binary, with the flags CI passes). Fixtures are profiles reduced
//! from hand-built timelines, so the expected verdicts are exact.

use std::process::Command;
use std::sync::Arc;

use tc_obs::trace::{TraceEvent, TraceEventKind};
use tc_obs::{JsonValue, TraceSnapshot};
use tc_prof::Profile;
use tcdiff::{diff, DiffOptions, DiffReport, RowStatus};

/// A one-thread profile of back-to-back spans `(name, duration_ns)`.
fn profile(spans: &[(&str, u64)], dropped: u64) -> JsonValue {
    let mut events = Vec::new();
    let mut now = 0;
    for &(name, dur) in spans {
        for (kind, ts_ns) in [
            (TraceEventKind::Begin, now),
            (TraceEventKind::End, now + dur),
        ] {
            events.push(TraceEvent {
                kind,
                name: Arc::from(name),
                tid: 0,
                ts_ns,
                delta: 0,
            });
        }
        now += dur;
    }
    let snap = TraceSnapshot {
        events,
        dropped,
        thread_names: vec![(0, "main".to_string())],
    };
    let text = Profile::from_trace(&snap)
        .workload("span-rule fixture")
        .render_json();
    JsonValue::parse(&text).expect("profile renders valid JSON")
}

fn compare(a: &JsonValue, b: &JsonValue) -> DiffReport {
    let strict = DiffOptions {
        timing_strict: true,
        ..DiffOptions::default()
    };
    diff(a, b, &strict).expect("valid profiles")
}

fn regressed(report: &DiffReport) -> Vec<&str> {
    report
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Regression)
        .map(|r| r.path.as_str())
        .collect()
}

#[test]
fn self_diff_is_clean_and_structure_is_exact() {
    let base = profile(&[("sta.gba", 900), ("report", 100)], 0);
    let same = compare(&base, &base);
    assert!(same.ok(), "{}", same.render(true));

    // Paths are keyed by span name, not by position in the
    // self-time-sorted array.
    assert!(same.rows.iter().any(|r| r.path == "spans[sta.gba].self_ns"));

    let renamed = profile(&[("sta.pba", 900), ("report", 100)], 0);
    assert_eq!(
        regressed(&compare(&base, &renamed)),
        ["spans[sta.gba]", "spans[sta.pba]"],
        "a renamed span is one disappearance plus one appearance"
    );

    let twice = profile(&[("sta.gba", 450), ("sta.gba", 450), ("report", 100)], 0);
    assert_eq!(
        regressed(&compare(&base, &twice)),
        ["spans[sta.gba].count"],
        "same total time, doubled count"
    );
}

#[test]
fn dropped_events_on_either_side_fail_the_gate() {
    let clean = profile(&[("sta.gba", 1_000)], 0);
    let truncated = profile(&[("sta.gba", 1_000)], 7);
    for (a, b) in [(&clean, &truncated), (&truncated, &clean)] {
        assert_eq!(regressed(&compare(a, b)), ["dropped_events"]);
    }
    assert!(!compare(&truncated, &truncated).ok(), "even against itself");
}

#[test]
fn self_time_gates_growth_only_and_only_on_spans_that_matter() {
    let base = profile(&[("hot", 99_000), ("cold", 100)], 0);
    let slowed = profile(&[("hot", 99_000 * 3), ("cold", 100)], 0);
    assert_eq!(
        regressed(&compare(&base, &slowed)),
        ["spans[hot].self_ns"],
        "+200% against the default 25%"
    );
    let lax = DiffOptions::default();
    let drift = diff(&base, &slowed, &lax).expect("valid profiles");
    assert!(drift.ok() && drift.drifts == 1, "informational by default");

    // An improvement of the same size is reported, never gated.
    let improved = compare(&slowed, &base);
    assert!(improved.ok(), "{}", improved.render(true));
    assert!(improved
        .rows
        .iter()
        .any(|r| r.path == "spans[hot].self_ns" && r.status == RowStatus::Info));

    // `cold` holds 0.1% of wall before and 0.5% after: under the 2%
    // share, so even 5x is scheduling jitter.
    let jitter = profile(&[("hot", 99_000), ("cold", 500)], 0);
    assert!(compare(&base, &jitter).ok());
}

#[test]
fn a_malformed_profile_is_an_error_not_a_verdict() {
    let good = profile(&[("hot", 1_000)], 0);
    let text = good.render().replace("\"wall_ns\":1000", "\"wall_ns\":10");
    let bad = JsonValue::parse(&text).expect("still JSON");
    let err = diff(&good, &bad, &DiffOptions::default()).expect_err("attributed > wall");
    assert!(err.contains("candidate: profile"), "{err}");
}

#[test]
fn ci_flags_gate_a_5x_span_and_forgive_a_3_5x_one() {
    let dir = std::env::temp_dir().join(format!("tcdiff_profile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let write = |name: &str, doc: &JsonValue| {
        let path = dir.join(name);
        std::fs::write(&path, doc.render()).expect("write fixture");
        path.to_string_lossy().into_owned()
    };
    let base = write("base.json", &profile(&[("hot", 99_000), ("cold", 100)], 0));
    let x5 = write(
        "x5.json",
        &profile(&[("hot", 99_000 * 5), ("cold", 100)], 0),
    );
    let x3_5 = write("x3_5.json", &profile(&[("hot", 346_500), ("cold", 100)], 0));
    let cold_x5 = write(
        "cold_x5.json",
        &profile(&[("hot", 99_000), ("cold", 500)], 0),
    );
    let code = |cand: &str| {
        Command::new(env!("CARGO_BIN_EXE_tcdiff"))
            .args(["--timing-strict", "--tol", "3.0", &base, cand])
            .output()
            .expect("spawn tcdiff")
            .status
            .code()
    };
    assert_eq!(code(&base), Some(0), "self-diff");
    assert_eq!(code(&x5), Some(1), "+400% of baseline is beyond --tol 3.0");
    assert_eq!(
        code(&x3_5),
        Some(0),
        "+250% of baseline is inside --tol 3.0"
    );
    assert_eq!(code(&cold_x5), Some(0), "5x on a span under 2% of wall");
    std::fs::remove_dir_all(dir).ok();
}
