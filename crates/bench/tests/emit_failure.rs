//! A harness that cannot write its sidecars has failed: it must exit
//! nonzero and say which file, not print a warning, exit 0 and leave
//! the gate step to rediscover the problem as a missing file.

use std::process::Command;

#[test]
fn unwritable_tc_bench_out_fails_the_harness() {
    // A regular file where the directory should be is unwritable even
    // for root (which is what CI containers run as).
    let blocker = std::env::temp_dir().join(format!("tc_bench_blocker_{}", std::process::id()));
    std::fs::write(&blocker, "not a directory").expect("write blocker file");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("tbl_gba_pba")
        .env("TC_BENCH_OUT", blocker.join("out"))
        .output()
        .expect("spawn figures");
    std::fs::remove_file(&blocker).ok();
    assert!(
        !out.status.success(),
        "harness exited 0 without writing its sidecars"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("tc_bench_blocker"),
        "names the path: {stderr}"
    );
}
