//! `signoff_mcmm_200k` — read-only full propagation: the eight
//! `tbl_parallel_corners` scenarios over one shared graph at 200k
//! cells, merged; then the typical corner's `Sta::run`, PBA on the
//! 1000 worst endpoints and their 1000 worst paths. No ingest, no
//! edits: `eval_cell` over every arc on a working set well past LLC.

use tc_interconnect::{BeolCorner, BeolStack};
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate_streamed, BenchProfile};
use tc_netlist::Netlist;
use tc_obs::JsonValue;
use tc_par::Pool;
use tc_signoff::corners::run_corner_set_on;
use tc_sta::mcmm::{run_scenarios_shared_on, MergedReport, Scenario};
use tc_sta::{merge_reports, pba_worst_endpoints, worst_paths, Constraints, Sta, TimingGraph};

use crate::harness::{
    finish, first_report_is_out, layer, prep, run_passes, traced, Checks, Config, Layers,
};
use crate::json::hex;

/// Fixed clock period, ps — the `tbl_scale` ladder's: the same mode at
/// every seed, no probe STA.
pub const PERIOD_PS: f64 = 1_500.0;
/// Endpoints re-analysed by PBA and paths extracted per pass.
const K_WORST: usize = 1_000;
/// What `tests/invariants.rs` allows PBA to sit below GBA, ps (float
/// noise of the re-evaluation, not pessimism).
const PBA_TOLERANCE_PS: f64 = 0.5;
/// Passes of the 2-worker corner set behind the `par.*` rows.
const PAR_PASSES: usize = 3;

/// The eight `tbl_parallel_corners` scenarios.
fn scenarios() -> Vec<Scenario> {
    let cfg = LibConfig::default();
    [
        ("typ_typ", PvtCorner::typical(), BeolCorner::Typical),
        ("slow_cold_RCw", PvtCorner::slow_cold(), BeolCorner::RcWorst),
        ("slow_cold_Cw", PvtCorner::slow_cold(), BeolCorner::CWorst),
        ("slow_hot_RCw", PvtCorner::slow_hot(), BeolCorner::RcWorst),
        ("slow_hot_Cw", PvtCorner::slow_hot(), BeolCorner::CWorst),
        ("fast_cold_Cb", PvtCorner::fast_cold(), BeolCorner::CBest),
        ("fast_cold_RCb", PvtCorner::fast_cold(), BeolCorner::RcBest),
        ("typ_CcW", PvtCorner::typical(), BeolCorner::CcWorst),
    ]
    .into_iter()
    .map(|(name, pvt, beol)| Scenario {
        name: name.to_string(),
        lib: Library::generate(&cfg, &pvt),
        beol,
        constraints: Constraints::single_clock(PERIOD_PS),
    })
    .collect()
}

/// FNV-1a over every merged slack's bit pattern and attribution, in
/// order — the `tbl_parallel_corners` fingerprint. Two sweeps agree iff
/// these are equal.
fn fingerprint(merged: &MergedReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in &merged.endpoints {
        eat(&e.setup.0.value().to_bits().to_le_bytes());
        eat(e.setup.1.as_bytes());
        eat(&e.hold.0.value().to_bits().to_le_bytes());
        eat(e.hold.1.as_bytes());
    }
    h
}

/// Everything about one pass that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    merged: u64,
    endpoints: usize,
    wns: u64,
    tns: u64,
    pba_endpoints: usize,
    pba_not_below_gba: bool,
    paths: usize,
}

pub fn run(cfg: &Config) -> i32 {
    let mut checks = Checks::default();
    let stack = BeolStack::n20();
    let cons = Constraints::single_clock(PERIOD_PS);

    let (prep_s, (nl, scen)): (_, (Netlist, Vec<Scenario>)) = prep(cfg, || {
        let scen = layer("bench.liberty.generate_x8", scenarios);
        let nl = layer("bench.netlist.generate", || {
            generate_streamed(&scen[0].lib, BenchProfile::scale_200k(), cfg.seed)
                .expect("generator is total")
        });
        (nl, scen)
    });
    let typical = &scen[0].lib;
    let cells = nl.cell_count();

    let mut outcomes: Vec<Outcome> = Vec::new();
    // Allocator calls of the latest `Sta::run` (counted in traced runs).
    let mut sta_allocs = 0;
    let times = run_passes(cfg, 3, |t0| {
        let merged = layer("bench.signoff.corner_set", || {
            run_corner_set_on(Pool::new(1), &nl, &stack, &scen).expect("corner set runs")
        });
        let first_report_s = t0.elapsed().as_secs_f64();
        first_report_is_out();

        let sta = Sta::new(&nl, typical, &stack, &cons);
        let allocs_before = tc_obs::memory_stats().allocs;
        let report = layer("bench.sta.full", || sta.run().expect("full STA runs"));
        sta_allocs = tc_obs::memory_stats().allocs - allocs_before;
        let pba = layer("bench.sta.pba", || {
            pba_worst_endpoints(&sta, K_WORST).expect("PBA runs")
        });
        let paths = layer("bench.sta.worst_paths", || {
            worst_paths(&sta, K_WORST).expect("worst paths extract")
        });

        outcomes.push(Outcome {
            merged: fingerprint(&merged),
            endpoints: merged.endpoints.len(),
            wns: report.wns().value().to_bits(),
            tns: report.tns().value().to_bits(),
            pba_endpoints: pba.len(),
            pba_not_below_gba: pba
                .iter()
                .all(|p| p.pba_slack.value() >= p.gba_slack.value() - PBA_TOLERANCE_PS),
            paths: paths.len(),
        });
        first_report_s
    });

    let reference = outcomes[0].clone();
    checks.check(
        "every pass repeats the first exactly",
        outcomes.iter().all(|o| *o == reference),
    );
    checks.check("PBA slack >= GBA slack", reference.pba_not_below_gba);
    checks.check_eq("PBA endpoints", reference.pba_endpoints, K_WORST);
    checks.check_eq("worst paths", reference.paths, K_WORST);

    // 2 workers must merge to the same bits as 1 (timed in a traced run).
    let mut two_worker = |span: &'static str| {
        let merged = layer(span, || {
            run_corner_set_on(Pool::new(2), &nl, &stack, &scen).expect("corner set runs")
        });
        checks.check_eq(
            "2-worker merged fingerprint",
            fingerprint(&merged),
            reference.merged,
        );
    };
    if cfg.traced {
        traced(|| (0..PAR_PASSES).for_each(|_| two_worker("bench.par.corner_set_2w")));
    } else {
        two_worker("bench.par.corner_set_2w");
    }

    let exact = JsonValue::obj([
        ("cells", JsonValue::from(cells)),
        ("nets", JsonValue::from(nl.net_count())),
        ("endpoints", JsonValue::from(reference.endpoints)),
        ("merged_fingerprint", hex(reference.merged)),
        ("typical_wns_ps", hex(reference.wns)),
        ("typical_tns_ps", hex(reference.tns)),
    ]);
    checks.check_expected(cfg, &exact);

    let layers = cfg.traced.then(|| {
        let arcs = traced(|| {
            // `run_corner_set_on` merges inside; time the merge alone.
            let reports =
                run_scenarios_shared_on(Pool::new(1), &nl, &stack, &scen).expect("scenarios run");
            let merged = layer("bench.sta.merge_reports", || merge_reports(&reports));
            checks.check_eq(
                "stand-alone merge fingerprint",
                fingerprint(&merged),
                reference.merged,
            );
            layer("bench.sta.graph_build", || {
                TimingGraph::build(&nl, typical).expect("graph builds")
            })
            .arc_count()
        });

        let mut l = Layers::reduce(cfg, &mut checks, &times, cells);
        l.set(
            "sta.graph_build_ns_per_cell",
            l.ns_per("sta.graph_build_s", cells),
        );
        l.set("sta.full_ns_per_arc", l.ns_per("sta.full_s", arcs as usize));
        l.set(
            "sta.full_mcells_per_s",
            l.per(cells as f64 * 1e-6, "sta.full_s"),
        );
        l.set("sta.full_allocs_per_cell", sta_allocs as f64 / cells as f64);
        l.set(
            "signoff.corner_s",
            l.get("signoff.corner_set_s") / scen.len() as f64,
        );
        // One core cannot show a speed-up; the row stays 0 there.
        if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
            l.set(
                "par.speedup_2w",
                l.per(l.get("signoff.corner_set_s"), "par.corner_set_2w_s"),
            );
        }
        l
    });

    finish(cfg, checks, prep_s, times, layers, exact)
}
