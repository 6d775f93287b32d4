//! End-to-end exit-code contract for the `tcdiff` binary, exercised
//! against the committed `BENCH_figures.json` baseline and inline
//! fixtures: self-compare must be clean (exit 0), a perturbed
//! fingerprint must gate (exit 1), and broken input or an unknown flag
//! must be a usage error (exit 2).

use std::path::PathBuf;
use std::process::{Command, Output};

/// A corner-sweep table in the shape the BENCH sidecars take: exact
/// workload fields and a merged-report fingerprint beside a grid of
/// wall-clock fields that only drift.
const CORNER_SWEEP: &str = r#"{"table":"parallel_corners","workload":"soc_block 8-corner MCMM (Fig 1)","cells":6450,"nets":6547,"corners":8,"period_ps":3710.7778695310753,"host_threads":1,"reps":3,"bit_identical_across_worker_counts":true,"merged_fingerprint":"9dd7ec524030f9c4","grid":[{"workers":1,"wall_ms":58.435552,"speedup_vs_1":1},{"workers":2,"wall_ms":68.178923,"speedup_vs_1":0.8570911570427712},{"workers":4,"wall_ms":69.204361,"speedup_vs_1":0.8443911793362271},{"workers":8,"wall_ms":83.337033,"speedup_vs_1":0.7011954937248606}]}"#;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tcdiff"))
        .args(args)
        .output()
        .expect("spawn tcdiff")
}

fn tmp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tcdiff_test_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp fixture");
    path
}

#[test]
fn self_compare_of_committed_bench_passes() {
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_figures.json");
    let fixture = tmp_file("corner_sweep.json", CORNER_SWEEP);
    for p in [&committed, &fixture] {
        let p = p.to_str().unwrap();
        let out = run(&[p, p]);
        assert!(
            out.status.success(),
            "{p} vs itself should exit 0; stdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("PASS"), "stdout reports PASS: {stdout}");
    }
    std::fs::remove_file(fixture).ok();
}

#[test]
fn perturbed_fingerprint_fails_the_gate() {
    let baseline = tmp_file("corner_sweep_base.json", CORNER_SWEEP);
    let perturbed = CORNER_SWEEP.replace("9dd7ec524030f9c4", "0000000000000000");
    let candidate = tmp_file("perturbed.json", &perturbed);

    let out = run(&[baseline.to_str().unwrap(), candidate.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "fingerprint mismatch must exit 1; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "stdout reports FAIL: {stdout}");
    assert!(
        stdout.contains("merged_fingerprint"),
        "delta table names the offending field: {stdout}"
    );
    std::fs::remove_file(baseline).ok();
    std::fs::remove_file(candidate).ok();
}

#[test]
fn timing_drift_is_informational_at_any_size() {
    let a = tmp_file("timing_a.json", r#"{"fp":"same","wall_ms":100.0}"#);
    for (name, ms) in [("x3", "300.0"), ("x1000", "100000.0"), ("zero", "0.0")] {
        let b = tmp_file(
            &format!("timing_{name}.json"),
            &format!(r#"{{"fp":"same","wall_ms":{ms}}}"#),
        );
        let out = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name} timing drift exits 0: {stdout}"
        );
        assert!(
            stdout.contains("wall_ms") && stdout.contains("timing"),
            "delta table names the timing field and class: {stdout}"
        );
        std::fs::remove_file(b).ok();
    }
    std::fs::remove_file(a).ok();
}

#[test]
fn memory_drift_is_informational_and_named_in_the_table() {
    let a = tmp_file(
        "mem_a.json",
        r#"{"fp":"same","memory":{"peak_heap_bytes":1000000,"total_allocs":500}}"#,
    );
    let b = tmp_file(
        "mem_b.json",
        r#"{"fp":"same","memory":{"peak_heap_bytes":3000000,"total_allocs":650}}"#,
    );
    let out = run(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "3x peak heap exits 0: {stdout}");
    assert!(
        stdout.contains("memory") && stdout.contains("peak_heap_bytes"),
        "delta table names the memory field and class: {stdout}"
    );
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn pre_memory_schema_artifacts_are_refused() {
    // A v1 artifact (before the memory section) against a current v2
    // one must be refused outright — exit 2, not a field-level diff.
    let v1 = tmp_file(
        "run_v1.json",
        r#"{"schema_version":1,"kind":"tc.run_artifact","workload":"w","wall_ms":1.0}"#,
    );
    let v2 = tmp_file(
        "run_v2.json",
        r#"{"schema_version":2,"kind":"tc.run_artifact","workload":"w","wall_ms":1.0,
            "memory":{"peak_heap_bytes":1}}"#,
    );
    let out = run(&[v1.to_str().unwrap(), v2.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "schema bump refuses cleanly");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema_version mismatch"),
        "refusal names the cause: {stderr}"
    );
    std::fs::remove_file(v1).ok();
    std::fs::remove_file(v2).ok();
}

#[test]
fn bad_inputs_are_usage_errors() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "no args is a usage error");

    let out = run(&["/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(2), "missing files are I/O errors");

    let garbage = tmp_file("garbage.json", "not json at all");
    let p = garbage.to_str().unwrap();
    let out = run(&[p, p]);
    assert_eq!(out.status.code(), Some(2), "unparseable input exits 2");
    std::fs::remove_file(garbage).ok();

    let v1 = tmp_file("schema_v1.json", r#"{"schema_version":1,"x":1}"#);
    let v2 = tmp_file("schema_v2.json", r#"{"schema_version":2,"x":1}"#);
    let out = run(&[v1.to_str().unwrap(), v2.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "schema mismatch refuses to diff"
    );
    std::fs::remove_file(v1).ok();
    std::fs::remove_file(v2).ok();

    // tcdiff has one mode: tolerance and trace-check flags are unknown.
    let fixture = tmp_file("flags.json", CORNER_SWEEP);
    let p = fixture.to_str().unwrap();
    for flag in ["--tol", "--mem-tol", "--timing-strict", "--check-trace"] {
        let out = run(&[p, p, flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} is a usage error");
    }
    std::fs::remove_file(fixture).ok();
}
