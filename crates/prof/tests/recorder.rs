//! Live flight-recorder integration: profiles built from the real
//! global rings. Recorder state is global, so this is its own test
//! binary and every test serializes on a lock (the same discipline as
//! `tc-obs`'s trace tests).

use std::sync::Mutex;

use tc_prof::profile::fold;
use tc_prof::Profile;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn spin(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

#[test]
fn span_open_across_a_reset_epoch_becomes_an_unmatched_end() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::enable();
    tc_obs::clear_trace();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);

    let stale = tc_obs::span("prof.epoch_straddler");
    tc_obs::reset(); // drains the rings: the Begin above is gone
    {
        let _s = tc_obs::span("prof.fresh");
        spin(1_000);
    }
    drop(stale); // End lands in the fresh epoch with no matching Begin

    let p = Profile::from_rings();
    assert!(
        p.unmatched_ends >= 1,
        "the straddler's End must be counted, not crash: {p:?}"
    );
    assert!(p.span("prof.epoch_straddler").is_none());
    assert_eq!(p.span("prof.fresh").map(|s| s.count), Some(1));

    tc_obs::disable_trace();
    tc_obs::clear_trace();
}

#[test]
fn ring_overflow_marks_the_profile_truncated() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::enable();
    tc_obs::clear_trace();
    tc_obs::enable_trace(8); // tiny ring: most events must drop

    for _ in 0..500 {
        let _s = tc_obs::span("prof.overflow");
        spin(10);
    }

    let p = Profile::from_rings();
    assert!(p.dropped_events > 0, "drops must surface in the profile");
    assert!(p.render_text(10).contains("WARNING"));

    tc_obs::disable_trace();
    tc_obs::clear_trace();
}

#[test]
fn worker_count_changes_lanes_but_not_span_structure() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::enable();

    let run = |workers: usize| {
        tc_obs::clear_trace();
        tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
        let pool = tc_par::Pool::new(workers);
        let items: Vec<u64> = (0..16).collect();
        let _sweep = tc_obs::span("prof.sweep");
        let sums = pool.scope_map(&items, |_, &i| {
            let _s = tc_obs::span("prof.task");
            spin(5_000 + i)
        });
        assert_eq!(sums.len(), 16);
        drop(_sweep);
        let p = Profile::from_rings();
        tc_obs::disable_trace();
        tc_obs::clear_trace();
        p
    };

    // The user-visible span structure is worker-count-invariant even
    // across tc_par's inline fast path (1 worker runs on the caller, so
    // only the pool's own `par.task` scope comes and goes).
    let p1 = run(1);
    let p4 = run(4);
    for p in [&p1, &p4] {
        assert_eq!(p.dropped_events, 0);
        assert_eq!(p.span("prof.task").map(|s| s.count), Some(16));
        assert_eq!(p.span("prof.sweep").map(|s| s.count), Some(1));
    }
    assert!(
        p4.lanes.len() >= p1.lanes.len(),
        "more workers, at least as many lanes: {} vs {}",
        p4.lanes.len(),
        p1.lanes.len()
    );

    // Between two pooled widths the whole profile — every span name
    // and count, tc_par internals included — is structurally identical,
    // which is what tcdiff's span rule compares exactly.
    let p2 = run(2);
    let names = |p: &Profile| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = p.spans.iter().map(|s| (s.name.clone(), s.count)).collect();
        v.sort();
        v
    };
    assert_eq!(names(&p2), names(&p4));
}

#[test]
fn folded_stacks_carry_the_nesting_of_concurrent_threads() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::clear_trace();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..25 {
                    let _outer = tc_obs::span("prof.outer");
                    let _inner = tc_obs::span("prof.inner");
                    tc_obs::counter("prof.work").add(2);
                }
            });
        }
    });

    // One line per path, summed over the four lanes; counters add none.
    let folded = fold(&tc_obs::trace_snapshot());
    let paths: Vec<&str> = folded
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(p, _)| p)
        .collect();
    assert_eq!(paths, ["prof.outer", "prof.outer;prof.inner"], "{folded}");

    tc_obs::disable_trace();
    tc_obs::clear_trace();
}
