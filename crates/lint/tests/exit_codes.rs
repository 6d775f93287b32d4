//! The `tc_lint` binary's exit-code contract, locked end to end against
//! the committed corpus: a clean design exits 0 (its intentionally
//! stale waiver is reported but does not gate), a seeded defect exits
//! 1, and a missing input exits 2.

use std::process::Command;

fn code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_tc_lint"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
        .args(args)
        .output()
        .expect("spawn tc_lint")
        .status
        .code()
}

#[test]
fn clean_defect_and_missing_input_exit_zero_one_two() {
    let clean = [
        "--verilog",
        "clean/small.v",
        "--spef",
        "clean/small.spef",
        "--journal",
        "clean/small.tcj",
        "--waivers",
        "clean/small.tcw",
    ];
    assert_eq!(code(&clean), Some(0), "clean corpus lints clean");
    assert_eq!(code(&["--verilog", "defect/cycle.v"]), Some(1));
    assert_eq!(code(&["--verilog", "no/such/file.v"]), Some(2));
    assert_eq!(code(&["--verilog", "clean/small.v", "--bogus"]), Some(2));
}
