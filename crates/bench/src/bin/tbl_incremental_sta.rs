//! **Incremental STA speedup table** — the engine economics behind
//! Fig 1's closure loop. Every fix pass in the loop asks "did this ECO
//! help?"; answering with a from-scratch STA makes the loop O(design)
//! per probe, answering with the persistent [`Timer`]'s dirty-cone
//! update makes it O(cone).
//!
//! This harness replays a representative closure-loop ECO sequence
//! (Vt swaps, resizes, buffer insertions, NDR route-class promotions,
//! wirelength changes) on the Fig 1 workload (`soc_block`, constrained
//! 500 ps beyond natural Fmax) and times both answers per edit,
//! asserting they agree bit-for-bit on WNS/TNS at every step. Results
//! land in the `incremental_sta` sidecars (see [`tc_bench::emit`];
//! `BENCH_incremental_sta.json` is gated in CI against the committed
//! baseline).

use std::time::Instant;

use tc_bench::{emit, fmt, print_table, standard_env};
use tc_core::ids::{CellId, NetId};
use tc_core::rng::Rng;
use tc_liberty::CellKind;
use tc_netlist::Netlist;
use tc_obs::JsonValue;
use tc_sta::{Constraints, Sta, Timer};

/// One closure-loop-representative ECO, drawn from a seeded stream.
/// Returns the edit-kind label, or `None` if the draw was inapplicable
/// (e.g. no faster variant exists for the chosen cell).
fn apply_random_eco(
    rng: &mut Rng,
    nl: &mut Netlist,
    lib: &tc_liberty::Library,
) -> Option<&'static str> {
    match rng.below(5) {
        0 => {
            // Vt swap toward LVT on a random combinational cell.
            let cell = CellId::new(rng.below(nl.cell_count()));
            if lib.cell(nl.cell(cell).master).kind == CellKind::Flop {
                return None;
            }
            let faster = lib.vt_faster(nl.cell(cell).master)?;
            nl.swap_master(lib, cell, faster).expect("swap");
            Some("vt_swap")
        }
        1 => {
            // Drive-strength upsize.
            let cell = CellId::new(rng.below(nl.cell_count()));
            let bigger = lib.upsize(nl.cell(cell).master)?;
            nl.swap_master(lib, cell, bigger).expect("swap");
            Some("sizing")
        }
        2 => {
            // Buffer a long driven net, splitting off half its sinks.
            let net = NetId::new(rng.below(nl.net_count()));
            let n = nl.net(net);
            if n.driver.is_none() || n.sinks.len() < 2 || n.wire_length_um < 60.0 {
                return None;
            }
            let buf = lib.variant("BUF", tc_device::VtClass::Svt, 4.0)?;
            let moved: Vec<_> = n.sinks[..n.sinks.len() / 2].to_vec();
            let half = n.wire_length_um / 2.0;
            nl.insert_buffer(lib, net, &moved, buf).expect("buffer");
            nl.set_wire_length(net, half);
            Some("buffering")
        }
        3 => {
            // NDR promotion (wide/spaced route class).
            let net = NetId::new(rng.below(nl.net_count()));
            if nl.net(net).route_class != 0 {
                return None;
            }
            nl.set_route_class(net, 1 + rng.below(2) as u8);
            Some("ndr")
        }
        _ => {
            // Detour/re-route wirelength change.
            let net = NetId::new(rng.below(nl.net_count()));
            let cur = nl.net(net).wire_length_um;
            nl.set_wire_length(net, (cur * rng.uniform_in(0.6, 1.4)).max(1.0));
            Some("reroute")
        }
    }
}

struct KindStats {
    label: &'static str,
    count: usize,
    full_ns: f64,
    incr_ns: f64,
}

fn main() -> std::io::Result<()> {
    let run_start = Instant::now();
    tc_obs::enable();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    let (lib, stack) = standard_env();
    let mut nl = tc_bench::bench_netlist(&lib, "soc_block", 2015);

    // The Fig 1 constraint: 500 ps beyond the as-generated capability.
    let probe = Constraints::single_clock(6_000.0);
    let r = Sta::new(&nl, &lib, &stack, &probe).run().expect("sta");
    let period = 6_000.0 - r.wns().value() - 500.0;
    let cons = Constraints::single_clock(period);
    println!(
        "design: {} cells, {} nets | closure period: {:.0} ps",
        nl.cell_count(),
        nl.net_count(),
        period
    );

    let mut timer = Timer::new(&nl, &lib, &stack, cons.clone()).expect("timer");

    const EDITS: usize = 40;
    let mut rng = Rng::seed_from(2015);
    let mut kinds: Vec<KindStats> = ["vt_swap", "sizing", "buffering", "ndr", "reroute"]
        .iter()
        .map(|&label| KindStats {
            label,
            count: 0,
            full_ns: 0.0,
            incr_ns: 0.0,
        })
        .collect();
    let mut total_full_ns = 0.0;
    let mut total_incr_ns = 0.0;

    let mut applied = 0usize;
    while applied < EDITS {
        let Some(label) = apply_random_eco(&mut rng, &mut nl, &lib) else {
            continue;
        };
        applied += 1;

        // Incremental answer: consume the journal, re-time the cone.
        let t0 = Instant::now();
        timer.update(&nl).expect("update");
        let incr_report = timer.report(&nl);
        let incr_ns = t0.elapsed().as_nanos() as f64;

        // From-scratch answer on the identical netlist.
        let t0 = Instant::now();
        let full_report = Sta::new(&nl, &lib, &stack, &cons).run().expect("sta");
        let full_ns = t0.elapsed().as_nanos() as f64;

        assert_eq!(
            incr_report.wns(),
            full_report.wns(),
            "WNS diverged after {label} edit {applied}"
        );
        assert_eq!(
            incr_report.tns(),
            full_report.tns(),
            "TNS diverged after {label} edit {applied}"
        );

        let k = kinds.iter_mut().find(|k| k.label == label).expect("kind");
        k.count += 1;
        k.full_ns += full_ns;
        k.incr_ns += incr_ns;
        total_full_ns += full_ns;
        total_incr_ns += incr_ns;
    }

    let rows: Vec<Vec<String>> = kinds
        .iter()
        .filter(|k| k.count > 0)
        .map(|k| {
            vec![
                k.label.to_string(),
                k.count.to_string(),
                fmt(k.full_ns / k.count as f64 / 1_000.0, 1),
                fmt(k.incr_ns / k.count as f64 / 1_000.0, 1),
                fmt(k.full_ns / k.incr_ns, 1),
            ]
        })
        .collect();
    print_table(
        "incremental vs full STA per closure-loop ECO",
        &["fix kind", "edits", "full µs", "incr µs", "speedup"],
        &rows,
    );

    let speedup = total_full_ns / total_incr_ns;
    let snap = tc_obs::snapshot();
    let recomputed = snap.counter("sta.arcs_recomputed");
    let reused = snap.counter("sta.arcs_reused");
    println!(
        "\ntotal: full {:.2} ms vs incremental {:.2} ms -> {:.1}x speedup over {EDITS} ECOs",
        total_full_ns / 1e6,
        total_incr_ns / 1e6,
        speedup
    );
    println!(
        "arcs recomputed: {recomputed} | arcs reused: {reused} ({:.1}% of the graph untouched)",
        100.0 * reused as f64 / (recomputed + reused).max(1) as f64
    );
    assert!(
        speedup >= 5.0,
        "incremental STA must be >=5x faster on the Fig 1 workload, got {speedup:.1}x"
    );

    let kind_rows: Vec<JsonValue> = kinds
        .iter()
        .filter(|k| k.count > 0)
        .map(|k| {
            JsonValue::obj([
                ("fix", JsonValue::str(k.label)),
                ("edits", JsonValue::from(k.count)),
                (
                    "mean_full_us",
                    JsonValue::from(k.full_ns / k.count as f64 / 1_000.0),
                ),
                (
                    "mean_incremental_us",
                    JsonValue::from(k.incr_ns / k.count as f64 / 1_000.0),
                ),
                ("speedup", JsonValue::from(k.full_ns / k.incr_ns)),
            ])
        })
        .collect();
    let doc = JsonValue::obj([
        ("table", JsonValue::str("incremental_sta")),
        ("workload", JsonValue::str("soc_block closure loop (Fig 1)")),
        ("cells", JsonValue::from(nl.cell_count())),
        ("nets", JsonValue::from(nl.net_count())),
        ("period_ps", JsonValue::from(period)),
        ("ecos", JsonValue::from(EDITS)),
        ("total_full_ms", JsonValue::from(total_full_ns / 1e6)),
        ("total_incremental_ms", JsonValue::from(total_incr_ns / 1e6)),
        ("speedup", JsonValue::from(speedup)),
        ("wns_bit_identical", JsonValue::Bool(true)),
        ("arcs_recomputed", JsonValue::from(recomputed)),
        ("arcs_reused", JsonValue::from(reused)),
        ("per_fix_kind", JsonValue::Arr(kind_rows.clone())),
    ]);

    let mut artifact = tc_obs::RunArtifact::new("tbl_incremental_sta soc_block ECO replay")
        .knob("ecos", EDITS)
        .wall_ms(run_start.elapsed().as_secs_f64() * 1e3)
        .extra("speedup", JsonValue::from(speedup))
        .extra("arcs_recomputed", JsonValue::from(recomputed))
        .extra("arcs_reused", JsonValue::from(reused))
        .extra("period_ps", JsonValue::from(period))
        .metrics(tc_obs::snapshot());
    for row in kind_rows {
        artifact = artifact.iteration(row);
    }
    emit("incremental_sta", &doc, &artifact)
}
