//! `eco_storm_200k` — the same tc-sta kernel as `signoff_mcmm_200k`,
//! used the other way round: one persistent `Timer` at 200k cells and a
//! long stream of seeded edits, each one checkpointed, applied,
//! re-timed over its dirty cone and reported; every third is rejected
//! and rolled back. Ends with one full `Sta::run` that must equal the
//! timer's WNS/TNS bit-for-bit.
//!
//! Edit *targets* come from the seed; edit *kinds* follow a fixed
//! 42-slot schedule (one buffering, then vt_swap / sizing / ndr /
//! reroute in rotation). `tbl_incremental_sta` draws kinds at random
//! and skips inapplicable draws, which makes the count of structural
//! edits — 30 ms each at this size, against ~25 µs for a parametric
//! one — vary by ±10% between seeds and the storm's wall with it.
//!
//! The structural edit is always one of the rejected ones. A *kept*
//! structural update leaves the whole previous graph in the timer's
//! undo log, which is never trimmed: ~4 MB each, 65 MB per block. A
//! storm that keeps them has no steady state — it touches fresh memory
//! all the way, and its block walls then follow the host's page-fault
//! latency (measured on the sizing host: 1.5–2.8 s for the same block,
//! against 1.21–1.27 s with this schedule).

use std::time::Instant;

use tc_core::ids::{CellId, NetId};
use tc_core::rng::Rng;
use tc_device::VtClass;
use tc_interconnect::BeolStack;
use tc_liberty::{CellKind, LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate_streamed, BenchProfile};
use tc_netlist::Netlist;
use tc_obs::JsonValue;
use tc_sta::{Constraints, Sta, Timer};

use crate::harness::{
    finish, first_report_is_out, layer, prep, traced, Checks, Config, Layers, PassTimes,
};
use crate::json::hex;
use crate::signoff_mcmm::PERIOD_PS;
use crate::stats::{median, percentile_supported, sorted};

/// Every edit whose index is a multiple of this is rejected.
const REJECT_EVERY: usize = 3;
/// Slots in the kind schedule; slot 0 is the structural edit. A
/// multiple of [`REJECT_EVERY`], so slot 0 always falls on a rejected
/// edit.
const SCHEDULE: usize = 42;
/// Edits per block; one block is this workload's "pass".
pub const BLOCK_EDITS: usize = 24 * SCHEDULE;
/// Blocks every run measures at least; the exact fields are taken after
/// exactly this many, however long the run goes on.
const MIN_BLOCKS: usize = 4;
/// Warm-up edits before the first measured block: one turn of the
/// schedule, so every kind has run once. Kept short because it is a
/// single reading inside `setup_s`.
const WARMUP_EDITS: usize = SCHEDULE;
// A block is a whole number of turns, so every block has the same mix,
// and enough of it is structural that the block's p99 falls well inside
// the structural edits rather than on their edge.
const _: () = assert!(
    SCHEDULE.is_multiple_of(REJECT_EVERY)
        && BLOCK_EDITS / SCHEDULE > BLOCK_EDITS / 100 + crate::stats::MIN_BEYOND
);
/// Target draws before a slot counts as failed (never seen to pass 50).
const MAX_DRAWS: usize = 10_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Buffering,
    VtSwap,
    Sizing,
    Ndr,
    Reroute,
}

fn scheduled_kind(edit: usize) -> Kind {
    match edit % SCHEDULE {
        0 => Kind::Buffering,
        slot => [Kind::Reroute, Kind::VtSwap, Kind::Sizing, Kind::Ndr][slot % 4],
    }
}

/// Applies one edit of `kind` (the five `tbl_incremental_sta` kinds) to
/// a seeded target; `false` if the drawn target cannot take it.
fn try_apply(kind: Kind, rng: &mut Rng, nl: &mut Netlist, lib: &Library) -> bool {
    match kind {
        Kind::VtSwap => {
            let cell = CellId::new(rng.below(nl.cell_count()));
            let master = nl.cell(cell).master;
            if lib.cell(master).kind == CellKind::Flop {
                return false;
            }
            let Some(faster) = lib.vt_faster(master) else {
                return false;
            };
            nl.swap_master(lib, cell, faster).expect("vt swap applies");
        }
        Kind::Sizing => {
            let cell = CellId::new(rng.below(nl.cell_count()));
            let Some(bigger) = lib.upsize(nl.cell(cell).master) else {
                return false;
            };
            nl.swap_master(lib, cell, bigger).expect("upsize applies");
        }
        Kind::Buffering => {
            let net = NetId::new(rng.below(nl.net_count()));
            let n = nl.net(net);
            if n.driver.is_none() || n.sinks.len() < 2 || n.wire_length_um < 60.0 {
                return false;
            }
            let buf = lib
                .variant("BUF", VtClass::Svt, 4.0)
                .expect("library has BUF_X4_SVT");
            let moved = n.sinks[..n.sinks.len() / 2].to_vec();
            let half = n.wire_length_um / 2.0;
            nl.insert_buffer(lib, net, &moved, buf)
                .expect("buffer inserts");
            nl.set_wire_length(net, half);
        }
        Kind::Ndr => {
            let net = NetId::new(rng.below(nl.net_count()));
            if nl.net(net).route_class != 0 {
                return false;
            }
            nl.set_route_class(net, 1 + rng.below(2) as u8);
        }
        Kind::Reroute => {
            let net = NetId::new(rng.below(nl.net_count()));
            let cur = nl.net(net).wire_length_um;
            nl.set_wire_length(net, (cur * rng.uniform_in(0.6, 1.4)).max(1.0));
        }
    }
    true
}

/// The storm's state: design, timer, edit stream and samples.
struct Storm<'a> {
    nl: Netlist,
    timer: Timer<'a>,
    lib: &'a Library,
    rng: Rng,
    edits: usize,
    /// Edit applied → report available, seconds, this block.
    retime_s: Vec<f64>,
    exhausted_slots: usize,
}

impl Storm<'_> {
    /// One edit: checkpoint, apply, re-time, report; every third edit is
    /// rejected (`undo_to` + `rollback_to`).
    fn edit(&mut self) {
        let kind = scheduled_kind(self.edits);
        let rejected = self.edits.is_multiple_of(REJECT_EVERY);
        let (journal_cp, timer_cp) = layer("bench.sta.checkpoint", || {
            (self.nl.journal_len(), self.timer.checkpoint())
        });
        let applied = layer("bench.netlist.edit_apply", || {
            (0..MAX_DRAWS).any(|_| try_apply(kind, &mut self.rng, &mut self.nl, self.lib))
        });
        self.exhausted_slots += usize::from(!applied);
        self.edits += 1;

        let t0 = Instant::now();
        {
            let _kind = tc_obs::span(if kind == Kind::Buffering {
                "bench.sta.update_structural"
            } else {
                "bench.sta.update_param"
            });
            layer("bench.sta.update", || {
                self.timer.update(&self.nl).expect("incremental update")
            });
        }
        let report = layer("bench.sta.report", || self.timer.report(&self.nl));
        self.retime_s.push(t0.elapsed().as_secs_f64());
        first_report_is_out();
        std::hint::black_box(report.wns());

        if rejected {
            layer("bench.netlist.undo", || {
                self.nl.undo_to(journal_cp).expect("netlist undo")
            });
            layer("bench.sta.rollback", || {
                self.timer.rollback_to(timer_cp).expect("timer rollback")
            });
        }
    }

    /// One block of [`BLOCK_EDITS`]; returns its wall and the median
    /// and p99 of its edit → report latencies, seconds.
    fn block(&mut self) -> (f64, f64, f64) {
        self.retime_s.clear();
        let t0 = Instant::now();
        for _ in 0..BLOCK_EDITS {
            self.edit();
        }
        let wall = t0.elapsed().as_secs_f64();
        let retime = sorted(std::mem::take(&mut self.retime_s));
        let p99 = percentile_supported(&retime, 0.99).expect("a block supports p99");
        (wall, median(&retime), p99)
    }
}

pub fn run(cfg: &Config) -> i32 {
    let mut checks = Checks::default();
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let cons = Constraints::single_clock(PERIOD_PS);

    let (prep_s, (nl, timer)) = prep(cfg, || {
        let nl = layer("bench.netlist.generate", || {
            generate_streamed(&lib, BenchProfile::scale_200k(), cfg.seed)
                .expect("generator is total")
        });
        let timer = layer("bench.sta.timer_new", || {
            Timer::new(&nl, &lib, &stack, cons.clone()).expect("timer builds")
        });
        (nl, timer)
    });
    let cells = nl.cell_count();
    let mut storm = Storm {
        nl,
        timer,
        lib: &lib,
        // The issue's default pairing: design seed 2015, ECO stream 7.
        rng: Rng::stream_from(cfg.seed, 7),
        edits: 0,
        retime_s: Vec::new(),
        exhausted_slots: 0,
    };

    let t0 = Instant::now();
    for _ in 0..WARMUP_EDITS {
        storm.edit();
    }
    let warmup_s = t0.elapsed().as_secs_f64();

    // Untraced and (in a traced run) traced blocks alternate; the edit
    // stream is one sequence either way, so the design after block
    // MIN_BLOCKS is the same in both kinds of run.
    let mut times = PassTimes {
        warmup_s,
        ..Default::default()
    };
    let mut at_min_blocks = None;
    let started = Instant::now();
    let mut blocks = 0;
    while blocks < MIN_BLOCKS || started.elapsed().as_secs_f64() < cfg.seconds {
        if cfg.traced && blocks % 2 == 1 {
            let (wall, ..) = traced(|| {
                let _root = tc_obs::span("bench.pass");
                storm.block()
            });
            times.traced_wall_s.push(wall);
        } else {
            let (wall, p50, p99) = storm.block();
            times.wall_s.push(wall);
            times.first_s.push(p50);
            times.tail_s.push(p99);
        }
        blocks += 1;
        if blocks == MIN_BLOCKS {
            at_min_blocks = Some(storm.timer.report(&storm.nl));
        }
    }

    let incremental = storm.timer.report(&storm.nl);
    let full = Sta::new(&storm.nl, &lib, &stack, &cons)
        .run()
        .expect("full STA runs");
    checks.check_eq(
        "incremental WNS equals full STA bit-for-bit",
        incremental.wns().value().to_bits(),
        full.wns().value().to_bits(),
    );
    checks.check_eq(
        "incremental TNS equals full STA bit-for-bit",
        incremental.tns().value().to_bits(),
        full.tns().value().to_bits(),
    );
    checks.check_eq(
        "schedule slots with no applicable target",
        storm.exhausted_slots,
        0,
    );

    let fixed = at_min_blocks.expect("MIN_BLOCKS blocks ran");
    let exact = JsonValue::obj([
        ("cells", JsonValue::from(cells)),
        (
            "edits",
            JsonValue::from(WARMUP_EDITS + MIN_BLOCKS * BLOCK_EDITS),
        ),
        ("endpoints", JsonValue::from(fixed.endpoints.len())),
        ("wns_ps", hex(fixed.wns().value().to_bits())),
        ("tns_ps", hex(fixed.tns().value().to_bits())),
    ]);
    checks.check_expected(cfg, &exact);

    let layers = cfg
        .traced
        .then(|| Layers::reduce(cfg, &mut checks, &times, cells));

    finish(cfg, checks, prep_s, times, layers, exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_schedule_turn_has_one_structural_edit_and_an_even_rest() {
        let turn: Vec<Kind> = (0..SCHEDULE).map(scheduled_kind).collect();
        let count = |k: Kind| turn.iter().filter(|&&x| x == k).count();
        assert_eq!(count(Kind::Buffering), 1);
        assert_eq!(count(Kind::VtSwap), 11);
        for k in [Kind::Reroute, Kind::Sizing, Kind::Ndr] {
            assert_eq!(count(k), 10);
        }
        // Every structural edit lands on a rejected index.
        for edit in (0..10 * SCHEDULE).filter(|&e| scheduled_kind(e) == Kind::Buffering) {
            assert!(edit.is_multiple_of(REJECT_EVERY));
        }
    }
}
