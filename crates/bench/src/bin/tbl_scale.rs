//! **Capacity-ladder scale harness** — the paper's §1.3 regime where
//! analysis cost, not algorithm quality, is what kills closure: "new
//! game" designs are millions of cells, and both runtime *and memory*
//! must scale or the signoff loop simply does not fit the machine.
//!
//! Streams seeded `scale_*` netlists (50k / 200k / 1M cells — the
//! generator's scratch is bounded, see `tc_netlist::gen::generate_streamed`)
//! and measures, per profile: netlist generation, persistent
//! [`Timer`] graph build, one full STA, and a 10-ECO incremental
//! re-time sequence whose final WNS/TNS is asserted bit-identical to a
//! from-scratch run. Every phase records wall clock **and** heap
//! (counting-allocator net/peak deltas plus kernel VmHWM/VmRSS).
//!
//! Profiles come from `TC_SCALE_PROFILES` (comma-separated, default
//! `50k,200k`). The million-cell rung is opt-in (`TC_SCALE_PROFILES=
//! 50k,200k,1m`) and deliberately not run in CI — it needs ~2 GB and
//! minutes of wall clock; CI gates the 50k rung only.
//!
//! Every rung leaves its own `scale_<profile>` sidecars (see
//! [`tc_bench::emit`]), so CI can gate a subset of the ladder against
//! its committed baselines: `BENCH_scale_50k.json` under `tcdiff
//! --mem-strict`, `PROF_scale_50k.json` under `tcdiff --timing-strict`.
//! The flight recorder is cleared between rungs, so each span profile
//! covers exactly one rung; the RUN artifact's metrics and memory
//! section are process-cumulative up to that rung.

use std::time::Instant;

use tc_bench::{emit, fmt, print_table, standard_env};
use tc_core::ids::NetId;
use tc_core::rng::Rng;
use tc_obs::JsonValue;
use tc_sta::{Constraints, Sta, Timer};

/// Incremental ECOs replayed per profile.
const ECOS: usize = 10;
/// Fixed clock period, ps: generous enough that the ladder times the
/// same mode at every size (no per-profile probe STA).
const PERIOD_PS: f64 = 1_500.0;

/// One phase's wall + heap measurement.
struct Phase {
    wall_ms: f64,
    net_bytes: i64,
    peak_growth_bytes: u64,
}

/// Runs `f` under a heap mark and a tc-obs span, returning the
/// measurement next to `f`'s output.
fn measured<R>(span: &str, f: impl FnOnce() -> R) -> (Phase, R) {
    let mark = tc_obs::heap_mark();
    let t0 = Instant::now();
    let out = {
        let _span = tc_obs::span(span);
        f()
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let d = mark.delta();
    (
        Phase {
            wall_ms,
            net_bytes: d.net_bytes,
            peak_growth_bytes: d.peak_bytes,
        },
        out,
    )
}

fn phase_json(p: &Phase) -> JsonValue {
    JsonValue::obj([
        ("wall_ms", JsonValue::from(p.wall_ms)),
        ("net_bytes", JsonValue::from(p.net_bytes)),
        ("peak_growth_bytes", JsonValue::from(p.peak_growth_bytes)),
    ])
}

fn profile_names() -> Vec<String> {
    let raw = std::env::var("TC_SCALE_PROFILES").unwrap_or_else(|_| "50k,200k".to_string());
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|tok| match tok.trim_start_matches("scale_") {
            "50k" => "scale_50k".to_string(),
            "200k" => "scale_200k".to_string(),
            "1m" => "scale_1m".to_string(),
            other => panic!("unknown scale profile `{other}` (want 50k, 200k or 1m)"),
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    tc_obs::enable();
    tc_obs::enable_memory();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    let (lib, stack) = standard_env();
    let cons = Constraints::single_clock(PERIOD_PS);

    let profiles = profile_names();
    println!("scale ladder: {}", profiles.join(", "));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for name in &profiles {
        // Each rung gets its own span profile: start from an empty ring
        // so PROF_scale_<profile> attributes exactly this rung's work.
        tc_obs::clear_trace();
        let rung_start = Instant::now();
        let (gen_phase, nl) = measured("scale.generate", || {
            tc_bench::bench_netlist(&lib, name, 2015)
        });
        let cells = nl.cell_count();
        let nets = nl.net_count();

        let (build_phase, timer) = measured("scale.build", || {
            Timer::new(&nl, &lib, &stack, cons.clone()).expect("timer build")
        });
        let mut timer = timer;

        let allocs_before_sta = tc_obs::memory_stats().allocs;
        let (sta_phase, full) = measured("scale.sta", || {
            Sta::new(&nl, &lib, &stack, &cons).run().expect("full sta")
        });
        let allocs_per_sta_run = tc_obs::memory_stats().allocs - allocs_before_sta;
        let wns_ps = full.wns().value();
        let tns_ps = full.tns().value();

        // Re-route-style ECOs: always applicable, cone-local, seeded.
        let mut nl = nl;
        let mut rng = Rng::seed_from(2015);
        let (eco_phase, ()) = measured("scale.eco", || {
            for _ in 0..ECOS {
                let net = NetId::new(rng.below(nl.net_count()));
                let cur = nl.net(net).wire_length_um;
                nl.set_wire_length(net, (cur * rng.uniform_in(0.6, 1.4)).max(1.0));
                timer.update(&nl).expect("incremental update");
            }
        });
        let incr_report = timer.report(&nl);
        let verify = {
            let _span = tc_obs::span("scale.verify");
            Sta::new(&nl, &lib, &stack, &cons)
                .run()
                .expect("verify sta")
        };
        assert_eq!(
            incr_report.wns(),
            verify.wns(),
            "{name}: incremental WNS diverged from full STA after {ECOS} ECOs"
        );
        assert_eq!(
            incr_report.tns(),
            verify.tns(),
            "{name}: incremental TNS diverged from full STA after {ECOS} ECOs"
        );

        let mem = tc_obs::memory_stats();
        let vm_hwm = tc_obs::vm_hwm_bytes();
        let vm_rss = tc_obs::vm_rss_bytes();
        rows.push(vec![
            name.clone(),
            cells.to_string(),
            fmt(gen_phase.wall_ms, 0),
            fmt(build_phase.wall_ms, 0),
            fmt(sta_phase.wall_ms, 0),
            fmt(eco_phase.wall_ms / ECOS as f64, 1),
            tc_obs::fmt_bytes(mem.peak_bytes as i64),
            vm_hwm.map_or_else(|| "n/a".to_string(), |b| tc_obs::fmt_bytes(b as i64)),
        ]);

        let doc = JsonValue::obj([
            ("profile", JsonValue::str(name.as_str())),
            ("cells", JsonValue::from(cells)),
            ("nets", JsonValue::from(nets)),
            ("period_ps", JsonValue::from(PERIOD_PS)),
            ("wns_ps", JsonValue::from(wns_ps)),
            ("tns_ps", JsonValue::from(tns_ps)),
            ("ecos", JsonValue::from(ECOS)),
            ("wns_bit_identical", JsonValue::Bool(true)),
            ("generate", phase_json(&gen_phase)),
            ("build", phase_json(&build_phase)),
            ("sta", phase_json(&sta_phase)),
            ("eco", phase_json(&eco_phase)),
            // Process-cumulative at this rung (the ladder runs small →
            // large, so each rung's peak covers its predecessors).
            ("peak_heap_bytes", JsonValue::from(mem.peak_bytes)),
            // Footprint efficiency of the flat data plane: cumulative
            // peak heap normalized by this rung's cell count.
            (
                "bytes_per_cell",
                JsonValue::from(mem.peak_bytes as f64 / cells as f64),
            ),
            // Allocator calls one full GBA propagation performed — the
            // pooled-span/scratch-arena regression canary.
            ("allocs_per_sta_run", JsonValue::from(allocs_per_sta_run)),
            (
                "vm_hwm_bytes",
                vm_hwm.map_or(JsonValue::Null, JsonValue::from),
            ),
            (
                "vm_rss_bytes",
                vm_rss.map_or(JsonValue::Null, JsonValue::from),
            ),
        ]);
        let table = JsonValue::obj([
            ("table", JsonValue::str("scale")),
            ("profiles", JsonValue::Arr(vec![doc])),
        ]);
        let artifact = tc_obs::RunArtifact::new(format!("tbl_scale {name} rung ({cells} cells)"))
            .knob("ecos", ECOS)
            .wall_ms(rung_start.elapsed().as_secs_f64() * 1e3)
            .metrics(tc_obs::snapshot())
            .capture_memory();
        emit(name, &table, &artifact)?;
        // `nl`/`timer` drop here: each rung starts from the previous
        // rung's live floor, not its transient peak.
    }

    print_table(
        "capacity ladder: wall and peak heap vs design size",
        &[
            "profile",
            "cells",
            "gen ms",
            "build ms",
            "sta ms",
            "eco ms",
            "peak heap",
            "VmHWM",
        ],
        &rows,
    );
    println!("\nall rungs: incremental WNS/TNS bit-identical to full STA after {ECOS} ECOs each");
    Ok(())
}
