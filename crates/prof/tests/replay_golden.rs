//! The span-tree replay, pinned on seeded random event streams: the
//! folded-stack rendering and the PROF document of every stream hash to
//! values recorded when folded stacks still had a replay of their own in
//! tc-obs, so one replay must keep answering exactly what two did.
//!
//! The streams cover what real rings produce and then some: three lanes,
//! `End`s with no open frame, frames still open at the last timestamp,
//! equal timestamps, counter and gauge events (heap gauges included) and
//! span names that are empty or contain the folded separator `;`.

use std::sync::Arc;

use tc_obs::trace::{TraceEvent, TraceEventKind};
use tc_obs::TraceSnapshot;
use tc_prof::profile::{fold, profile_and_fold};
use tc_prof::Profile;

/// SplitMix64: a fixed, dependency-free stream of test choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NAMES: [&str; 7] = ["sta.gba", "a", "b", "", "x;y", "a;b", "closure.fix.Sizing"];
const GAUGES: [&str; 2] = ["mem.live_bytes", "other.gauge"];

/// One seeded stream: up to three lanes, each a timestamp-ordered run of
/// begins, ends (matched or not), counters and gauges.
fn stream(seed: u64) -> TraceSnapshot {
    let mut rng = Rng(seed);
    let mut events = Vec::new();
    let mut thread_names = Vec::new();
    for tid in 0..=rng.below(3) {
        if rng.below(4) != 0 {
            thread_names.push((tid, format!("lane-{tid}")));
        }
        let mut ts = rng.below(10_000);
        let mut open: Vec<&str> = Vec::new();
        for _ in 0..rng.below(40) {
            // Equal timestamps happen: the recorder's clock is coarse.
            ts += rng.below(4) * rng.below(3_000);
            let pick = |rng: &mut Rng| NAMES[rng.below(NAMES.len() as u64) as usize];
            let (kind, name, delta) = match rng.below(20) {
                0..=7 => {
                    let name = pick(&mut rng);
                    open.push(name);
                    (TraceEventKind::Begin, name, 0)
                }
                8..=12 if !open.is_empty() => {
                    // Close the innermost frame or one further out, so
                    // intermediates close with it.
                    let at = open.len() - 1 - rng.below(open.len().min(2) as u64) as usize;
                    let name = open[at];
                    open.truncate(at);
                    (TraceEventKind::End, name, 0)
                }
                8..=13 => (TraceEventKind::End, pick(&mut rng), 0),
                14..=15 => (TraceEventKind::Counter, "ticks", rng.below(50)),
                _ => {
                    let gauge = GAUGES[rng.below(GAUGES.len() as u64) as usize];
                    (TraceEventKind::Gauge, gauge, rng.below(1 << 20))
                }
            };
            events.push(TraceEvent {
                kind,
                name: Arc::from(name),
                tid,
                ts_ns: ts,
                delta,
            });
        }
    }
    TraceSnapshot {
        events,
        dropped: if rng.below(8) == 0 { rng.below(5) } else { 0 },
        thread_names,
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const STREAMS: u64 = 2_000;

#[test]
fn fold_and_profile_match_the_recorded_goldens() {
    let mut folded = String::new();
    let mut prof = String::new();
    for seed in 0..STREAMS {
        let snap = stream(seed);
        let label = format!("golden {seed}");
        let stacks = fold(&snap);
        let doc = Profile::from_trace(&snap).workload(&label).render_json();
        // The harnesses' one-replay entry renders both the same bytes.
        let (one, one_stacks) = profile_and_fold(&snap);
        assert_eq!(one_stacks, stacks, "stream {seed}: folded stacks");
        assert_eq!(
            one.workload(&label).render_json(),
            doc,
            "stream {seed}: PROF"
        );
        folded.push_str(&stacks);
        folded.push('\n');
        prof.push_str(&doc);
        prof.push('\n');
    }
    assert_eq!(
        fnv1a(folded.as_bytes()),
        FOLDED_FNV1A,
        "folded stacks moved"
    );
    assert_eq!(fnv1a(prof.as_bytes()), PROF_FNV1A, "PROF documents moved");
}

const FOLDED_FNV1A: u64 = 0x807b_469e_b5fc_d89a;
const PROF_FNV1A: u64 = 0xa1dc_80ec_419c_34fd;
