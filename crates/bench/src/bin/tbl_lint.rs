//! **Lint-over-scale-ladder harness** — admission control must stay
//! O(graph): tc-lint is the gate every design passes *before* any STA,
//! so its cost has to track the netlist, not dominate it (the paper's
//! §1.3 scale regime, ROADMAP item 3's resident-engine admission path).
//!
//! Streams seeded `scale_*` netlists, synthesizes full per-net
//! parasitics, and runs the whole rule registry (graph, constraint,
//! SPEF cross-check) through the tc-par pool. Generated designs are
//! tied off first (dangling driven nets become primary outputs, the
//! same normalization the defect suite uses), so the ladder also
//! asserts **zero false positives** at every rung. Each phase records
//! wall clock and heap (counting-allocator net/peak deltas plus
//! allocator-call counts — the O(graph) scratch canary).
//!
//! Profiles come from `TC_LINT_PROFILES` (comma-separated, default
//! `50k,200k`). Outputs are the `lint` sidecars (see
//! [`tc_bench::emit`]): per-profile wall/heap documents in
//! `BENCH_lint.json` (not CI-gated; EXPERIMENTS.md records
//! representative numbers), the `lint.*` span/counter taxonomy and the
//! memory section in `RUN_lint.json`, and per-worker lane utilization
//! for the pooled registry sweep in `PROF_lint.json`.

use std::time::Instant;

use tc_bench::{emit, fmt, print_table, standard_env};
use tc_core::ids::NetId;
use tc_interconnect::estimate::WireModel;
use tc_interconnect::spef::NetParasitics;
use tc_lint::{run_lint, LintContext};
use tc_netlist::Netlist;
use tc_obs::JsonValue;
use tc_sta::Constraints;

/// Fixed clock period, ps (value is irrelevant to lint; only the clock
/// *name* has to resolve).
const PERIOD_PS: f64 = 1_500.0;

/// One phase's wall + heap measurement.
struct Phase {
    wall_ms: f64,
    net_bytes: i64,
    peak_growth_bytes: u64,
}

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

/// Marks every dangling driven net as a primary output — generated
/// benchmarks leave fanout-free gates behind by construction, and a
/// clean-corpus rung must not count those as findings.
fn tie_off(nl: &mut Netlist) {
    let dangling: Vec<NetId> = nl
        .nets()
        .enumerate()
        .filter(|(_, n)| n.driver.is_some() && n.sinks.is_empty() && !n.is_output)
        .map(|(i, _)| NetId::new(i))
        .collect();
    for id in dangling {
        nl.mark_output(id);
    }
}

fn profile_names() -> Vec<String> {
    let raw = std::env::var("TC_LINT_PROFILES").unwrap_or_else(|_| "50k,200k".to_string());
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
    let run_start = Instant::now();
    tc_obs::enable();
    tc_obs::enable_memory();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    let (lib, _stack) = standard_env();
    let cons = Constraints::single_clock(PERIOD_PS);
    let pool = tc_par::Pool::from_env();

    let profiles = profile_names();
    println!(
        "lint ladder: {} ({} worker(s))",
        profiles.join(", "),
        pool.workers()
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut profile_docs: Vec<JsonValue> = Vec::new();
    for name in &profiles {
        let (gen_phase, nl) = measured("lint.bench.generate", || {
            let mut nl = tc_bench::bench_netlist(&lib, name, 2015);
            tie_off(&mut nl);
            nl
        });
        let cells = nl.cell_count();
        let nets = nl.net_count();

        // Full per-net annotation, so the SPEF cross-check pass walks
        // the same O(nets) surface it would on a signoff handoff.
        let (spef_phase, spef) = measured("lint.bench.annotate", || {
            nl.nets()
                .map(|n| {
                    let wm = WireModel::from_length(n.wire_length_um.max(1.0));
                    NetParasitics::extract(n.name.to_string(), &wm, &_stack)
                })
                .collect::<Vec<NetParasitics>>()
        });

        let allocs_before = tc_obs::memory_stats().allocs;
        let (lint_phase, findings) = measured("lint.bench.run", || {
            let mut ctx = LintContext::new(&nl, &lib);
            ctx.constraints = Some(&cons);
            ctx.spef = Some(&spef);
            run_lint(&pool, &ctx)
        });
        let allocs_per_lint = tc_obs::memory_stats().allocs - allocs_before;
        assert!(
            findings.is_empty(),
            "{name}: clean generated rung produced {} finding(s), first: {}",
            findings.len(),
            findings[0].render()
        );

        rows.push(vec![
            name.clone(),
            cells.to_string(),
            nets.to_string(),
            fmt(gen_phase.wall_ms, 0),
            fmt(spef_phase.wall_ms, 0),
            fmt(lint_phase.wall_ms, 1),
            tc_obs::fmt_bytes(lint_phase.peak_growth_bytes as i64),
            allocs_per_lint.to_string(),
        ]);

        profile_docs.push(JsonValue::obj([
            ("profile", JsonValue::str(name.as_str())),
            ("cells", JsonValue::from(cells)),
            ("nets", JsonValue::from(nets)),
            ("findings", JsonValue::from(findings.len())),
            ("generate", phase_json(&gen_phase)),
            ("annotate", phase_json(&spef_phase)),
            ("lint", phase_json(&lint_phase)),
            // Allocator calls for one full registry sweep: the bounded-
            // scratch canary — must scale with the graph, not blow up.
            ("allocs_per_lint", JsonValue::from(allocs_per_lint)),
            (
                "lint_us_per_cell",
                JsonValue::from(lint_phase.wall_ms * 1e3 / cells as f64),
            ),
        ]));
        // nl/spef drop here so the next rung starts from the live floor.
    }

    print_table(
        "lint ladder: full registry sweep vs design size",
        &[
            "profile",
            "cells",
            "nets",
            "gen ms",
            "annot ms",
            "lint ms",
            "lint peak",
            "allocs",
        ],
        &rows,
    );
    println!("\nall rungs lint clean: zero findings on tied-off generated designs");

    let doc = JsonValue::obj([
        ("table", JsonValue::str("lint")),
        ("profiles", JsonValue::Arr(profile_docs)),
    ]);

    let artifact = tc_obs::RunArtifact::new("tbl_lint ladder")
        .knob("profiles", profiles.join(","))
        .knob("workers", pool.workers())
        .wall_ms(run_start.elapsed().as_secs_f64() * 1e3)
        .metrics(tc_obs::snapshot())
        .capture_memory();
    emit("lint", &doc, &artifact)
}
