//! **Parallel corner-sweep table** — the wall-clock side of the corner
//! super-explosion (§2.3). The views in a modern signoff are mutually
//! independent, so the sweep should scale with worker count — *without*
//! changing a single byte of the merged report.
//!
//! This harness runs an 8-corner MCMM sweep over the Fig 1 workload
//! (`soc_block`, constrained 500 ps beyond natural Fmax) at
//! {1, 2, 4, 8} pool workers, asserts the merged report is
//! bit-identical at every width, and records the wall clock per width.
//! Results land in the `parallel_corners` sidecars (see
//! [`tc_bench::emit`]): `BENCH_parallel_corners.json` is gated in CI,
//! and `PROF_parallel_corners.json` carries per-worker lane
//! utilization.
//!
//! Speedup is only meaningful when the host exposes real parallelism;
//! the sidecar records `host_threads` so a single-core CI runner's
//! numbers are not mistaken for a scaling result. The ≥3x-at-8-workers
//! assertion is therefore gated on `host_threads >= 8`.

use std::time::Instant;

use tc_bench::{emit, fmt, print_table, standard_env};
use tc_interconnect::beol::BeolCorner;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_obs::JsonValue;
use tc_par::Pool;
use tc_signoff::corners::run_corner_set_on;
use tc_sta::mcmm::{MergedReport, Scenario};
use tc_sta::{Constraints, Sta};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Timed repetitions per worker count; best-of is reported.
const REPS: usize = 3;

/// The exact bit pattern of everything the merged report says: slacks
/// and attributions, in order. Two sweeps agree iff these are equal.
fn fingerprint(merged: &MergedReport) -> Vec<(u64, String, u64, String)> {
    merged
        .endpoints
        .iter()
        .map(|e| {
            (
                e.setup.0.value().to_bits(),
                e.setup.1.clone(),
                e.hold.0.value().to_bits(),
                e.hold.1.clone(),
            )
        })
        .collect()
}

/// FNV-1a over the fingerprint — one stable number that CI can diff
/// across `TC_PAR_THREADS` values.
fn fingerprint_hash(fp: &[(u64, String, u64, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (setup, sname, hold, hname) in fp {
        eat(&setup.to_le_bytes());
        eat(sname.as_bytes());
        eat(&hold.to_le_bytes());
        eat(hname.as_bytes());
    }
    h
}

fn scenarios(period_ps: f64) -> Vec<Scenario> {
    let cfg = LibConfig::default();
    let mk = |name: &str, pvt: PvtCorner, beol: BeolCorner| Scenario {
        name: name.to_string(),
        lib: Library::generate(&cfg, &pvt),
        beol,
        constraints: Constraints::single_clock(period_ps),
    };
    vec![
        mk("typ_typ", PvtCorner::typical(), BeolCorner::Typical),
        mk("slow_cold_RCw", PvtCorner::slow_cold(), BeolCorner::RcWorst),
        mk("slow_cold_Cw", PvtCorner::slow_cold(), BeolCorner::CWorst),
        mk("slow_hot_RCw", PvtCorner::slow_hot(), BeolCorner::RcWorst),
        mk("slow_hot_Cw", PvtCorner::slow_hot(), BeolCorner::CWorst),
        mk("fast_cold_Cb", PvtCorner::fast_cold(), BeolCorner::CBest),
        mk("fast_cold_RCb", PvtCorner::fast_cold(), BeolCorner::RcBest),
        mk("typ_CcW", PvtCorner::typical(), BeolCorner::CcWorst),
    ]
}

fn main() -> std::io::Result<()> {
    let run_start = Instant::now();
    tc_obs::enable();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    let (lib, stack) = standard_env();
    let nl = tc_bench::bench_netlist(&lib, "soc_block", 2015);

    // The Fig 1 constraint: 500 ps beyond the as-generated capability.
    let probe = Constraints::single_clock(6_000.0);
    let r = Sta::new(&nl, &lib, &stack, &probe).run().expect("sta");
    let period = 6_000.0 - r.wns().value() - 500.0;
    let scenarios = scenarios(period);
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "design: {} cells, {} nets | {} corners at {:.0} ps | host threads: {}",
        nl.cell_count(),
        nl.net_count(),
        scenarios.len(),
        period,
        host_threads
    );

    let mut reference: Option<Vec<(u64, String, u64, String)>> = None;
    let mut wall_ms = Vec::new();
    for workers in WORKER_COUNTS {
        let mut best_ns = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let merged = run_corner_set_on(Pool::new(workers), &nl, &stack, &scenarios)
                .expect("corner sweep");
            best_ns = best_ns.min(t0.elapsed().as_nanos() as f64);
            let fp = fingerprint(&merged);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(*r, fp, "merged report diverged at {workers} workers"),
            }
        }
        wall_ms.push(best_ns / 1e6);
    }

    let rows: Vec<Vec<String>> = WORKER_COUNTS
        .iter()
        .zip(&wall_ms)
        .map(|(&w, &ms)| {
            vec![
                w.to_string(),
                fmt(ms, 1),
                fmt(wall_ms[0] / ms, 2),
                "yes".to_string(),
            ]
        })
        .collect();
    print_table(
        "parallel corner sweep: 8 corners, soc_block (Fig 1 workload)",
        &["workers", "wall ms", "speedup", "bit-identical"],
        &rows,
    );

    // The env-knob entry point (`TC_PAR_THREADS`) must agree with every
    // pinned pool width; its fingerprint hash goes into the sidecar so a
    // CI job can diff two runs at different env values.
    let reference = reference.expect("at least one sweep ran");
    let env_merged = run_corner_set_on(Pool::from_env(), &nl, &stack, &scenarios)
        .expect("corner sweep (env pool)");
    assert_eq!(
        fingerprint(&env_merged),
        reference,
        "TC_PAR_THREADS pool diverged from pinned pools"
    );
    let hash = fingerprint_hash(&reference);
    println!("\nmerged-report fingerprint: {hash:016x} (invariant across worker counts)");

    let speedup_at_8 = wall_ms[0] / wall_ms[wall_ms.len() - 1];
    if host_threads >= 8 {
        assert!(
            speedup_at_8 >= 3.0,
            "8-worker sweep must be >=3x faster on a >=8-thread host, got {speedup_at_8:.2}x"
        );
    } else {
        println!(
            "\nhost exposes {host_threads} thread(s): speedup ({speedup_at_8:.2}x at 8 workers) \
             reflects scheduling overhead, not scaling; only bit-identity is asserted here"
        );
    }

    let grid: Vec<JsonValue> = WORKER_COUNTS
        .iter()
        .zip(&wall_ms)
        .map(|(&w, &ms)| {
            JsonValue::obj([
                ("workers", JsonValue::from(w)),
                ("wall_ms", JsonValue::from(ms)),
                ("speedup_vs_1", JsonValue::from(wall_ms[0] / ms)),
            ])
        })
        .collect();
    let doc = JsonValue::obj([
        ("table", JsonValue::str("parallel_corners")),
        (
            "workload",
            JsonValue::str("soc_block 8-corner MCMM (Fig 1)"),
        ),
        ("cells", JsonValue::from(nl.cell_count())),
        ("nets", JsonValue::from(nl.net_count())),
        ("corners", JsonValue::from(scenarios.len())),
        ("period_ps", JsonValue::from(period)),
        ("host_threads", JsonValue::from(host_threads)),
        ("reps", JsonValue::from(REPS)),
        ("bit_identical_across_worker_counts", JsonValue::Bool(true)),
        ("merged_fingerprint", JsonValue::str(format!("{hash:016x}"))),
        ("grid", JsonValue::Arr(grid.clone())),
    ]);

    let mut artifact = tc_obs::RunArtifact::new("tbl_parallel_corners soc_block 8-corner MCMM")
        .knob("reps", REPS)
        .wall_ms(run_start.elapsed().as_secs_f64() * 1e3)
        .extra("merged_fingerprint", JsonValue::str(format!("{hash:016x}")))
        .extra("corners", JsonValue::from(scenarios.len()))
        .extra("period_ps", JsonValue::from(period))
        .metrics(tc_obs::snapshot());
    for row in grid {
        artifact = artifact.iteration(row);
    }
    emit("parallel_corners", &doc, &artifact)
}
