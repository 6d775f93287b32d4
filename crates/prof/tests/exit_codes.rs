//! The `tc_prof` binary's exit-code contract, locked end to end:
//! 0 clean, 1 finding (dropped events), 2 usage or parse error. Fixtures are built from synthetic snapshots so the
//! expected verdicts are exact.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

use tc_obs::trace::{TraceEvent, TraceEventKind};
use tc_obs::TraceSnapshot;
use tc_prof::Profile;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tc_prof"))
        .args(args)
        .output()
        .expect("spawn tc_prof")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// One test's fixture directory, removed (with everything written to
/// it) when the test ends, pass or fail.
struct Fixtures(PathBuf);

impl Fixtures {
    fn new(test: &str) -> Self {
        let name = format!("tc_prof_exit_codes_{}_{test}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).expect("fixture dir");
        Fixtures(dir)
    }

    fn write(&self, name: &str, text: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, text).expect("write fixture");
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Fixtures {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn one_span_snapshot(end_ns: u64, dropped: u64) -> TraceSnapshot {
    let ev = |kind, ts_ns| TraceEvent {
        kind,
        name: Arc::from("sta"),
        tid: 0,
        ts_ns,
        delta: 0,
    };
    TraceSnapshot {
        events: vec![
            ev(TraceEventKind::Begin, 0),
            ev(TraceEventKind::End, end_ns),
        ],
        dropped,
        thread_names: vec![(0, "main".to_string())],
    }
}

fn prof_json(end_ns: u64, dropped: u64) -> String {
    Profile::from_trace(&one_span_snapshot(end_ns, dropped))
        .workload("exit-code fixture")
        .render_json()
}

#[test]
fn report_is_clean_on_a_good_profile_and_trace() {
    let fx = Fixtures::new("report_is_clean_on_a_good_profile_and_trace");
    let prof = fx.write("good.json", &prof_json(1_000, 0));
    let out = run(&["report", &prof]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(stdout(&out).contains("sta"));

    let trace = fx.write(
        "good.trace.json",
        &one_span_snapshot(1_000, 0).to_chrome_trace(),
    );
    let out = run(&["report", &trace, "--json"]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(stdout(&out).contains("tc.profile"));
}

#[test]
fn report_exits_one_on_dropped_events() {
    let fx = Fixtures::new("report_exits_one_on_dropped_events");
    let trace = fx.write(
        "dropped.trace.json",
        &one_span_snapshot(1_000, 9).to_chrome_trace(),
    );
    let out = run(&["report", &trace]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("dropped"));
}

#[test]
fn fold_reproduces_folded_stacks_from_a_trace() {
    let fx = Fixtures::new("fold_reproduces_folded_stacks_from_a_trace");
    let trace = fx.write(
        "fold.trace.json",
        &one_span_snapshot(1_000, 0).to_chrome_trace(),
    );
    let out = run(&["fold", &trace]);
    assert_eq!(code(&out), 0, "{out:?}");
    // One microsecond of exclusive time on the one stack.
    assert_eq!(stdout(&out), "sta 1\n");
}

#[test]
fn usage_parse_and_io_errors_exit_two() {
    let fx = Fixtures::new("usage_parse_and_io_errors_exit_two");
    assert_eq!(code(&run(&[])), 2);
    assert_eq!(code(&run(&["frobnicate"])), 2);
    assert_eq!(code(&run(&["report"])), 2);
    assert_eq!(code(&run(&["report", "/nonexistent/PROF.json"])), 2);
    assert_eq!(code(&run(&["fold"])), 2);
    let garbage = fx.write("garbage.json", "this is not json");
    assert_eq!(code(&run(&["report", &garbage])), 2);
    let bad = fx.write("bad.json", r#"{"kind":"tc.profile","schema_version":1}"#);
    assert_eq!(code(&run(&["report", &bad])), 2);
    // --help is informational (exit 0), bare invocation is misuse.
    assert_eq!(code(&run(&["--help"])), 0);
}
