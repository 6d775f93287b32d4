//! A figure's heap totals and metric names are its own: the `memory`
//! section of its run artifact and the `mem.*` counters of its metrics
//! count from the mark [`tc_bench::run_figure`] takes, not from the first
//! figure of the process, and its metrics list only the counters and
//! histograms it touched. Runs in its own test binary because tc-obs is
//! process-global.

use tc_bench::figures::{fig04_mis_sis, tbl_gba_pba, Study};
use tc_bench::run_figure;
use tc_obs::JsonValue;

/// `memory.total_allocs` and the metrics' `mem.allocs` of one run, and
/// the names of its metrics' counters and histograms.
fn report(study: Study) -> ((u64, u64), Vec<String>) {
    let doc = JsonValue::parse(&run_figure(study).artifact.render()).expect("artifact parses");
    let field = |obj: &JsonValue, key: &str| match obj {
        JsonValue::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("no `{key}` in {}", obj.render())),
        other => panic!("not an object: {}", other.render()),
    };
    let count = |v: JsonValue| match v {
        JsonValue::Num(n) => n as u64,
        other => panic!("not a count: {}", other.render()),
    };
    let section = count(field(&field(&doc, "memory"), "total_allocs"));
    let metrics = field(&doc, "metrics");
    let counters = field(&metrics, "counters");
    let mut names: Vec<String> = match &counters {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {}", other.render()),
    };
    match field(&metrics, "histograms") {
        JsonValue::Arr(hists) => names.extend(hists.iter().map(|h| match field(h, "name") {
            JsonValue::Str(name) => name,
            other => panic!("not a name: {}", other.render()),
        })),
        other => panic!("not an array: {}", other.render()),
    }
    ((section, count(field(&counters, "mem.allocs"))), names)
}

#[test]
fn a_figure_reports_the_same_allocations_alone_and_after_another() {
    // The process's first figure: only its own names are registered.
    let (_, first) = report(tbl_gba_pba);
    // The first run of a study in a process also registers every tc-obs
    // counter and histogram name it touches (a key and a cell per name,
    // once per process; later runs reuse them). Warm the other study's
    // names so the two measured runs below see the same registry.
    run_figure(fig04_mis_sis);

    let (alone, _) = report(tbl_gba_pba);
    run_figure(fig04_mis_sis);
    let (after_another, names) = report(tbl_gba_pba);
    assert!(alone.0 > 0, "the study allocates");
    assert_eq!(
        after_another, alone,
        "tbl_gba_pba after fig04_mis_sis vs alone: (memory.total_allocs, mem.allocs)"
    );
    assert_eq!(
        names, first,
        "tbl_gba_pba's metric names after fig04_mis_sis vs as the first figure"
    );
}
