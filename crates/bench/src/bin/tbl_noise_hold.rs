//! §1 / §1.3 — the "last set of several hundred manual noise and DRC
//! fixes": glitch-noise violations per BEOL corner on a wire-stressed
//! c5315, then glitch-noise closure at the Cc-worst corner with spacing
//! NDRs and driver upsizes. Hold padding, the other fix category that
//! lands after setup closure, runs in `examples/tapeout_march.rs`.

use tc_bench::{fmt, print_table, standard_env};
use tc_closure::fixes::noise_fix_pass;
use tc_core::ids::NetId;
use tc_interconnect::beol::BeolCorner;
use tc_sta::{noise_check, NoiseConfig};

fn main() {
    let (lib, stack) = standard_env();
    let mut nl = tc_bench::bench_netlist(&lib, "c5315", 2015);
    // Stress the routing: stretch a tenth of the nets.
    let mut rng = tc_core::rng::Rng::seed_from(77);
    for i in 0..nl.net_count() {
        if rng.chance(0.10) {
            nl.set_wire_length(NetId::new(i), rng.uniform_in(200.0, 600.0));
        }
    }
    let cfg = NoiseConfig::default();

    let mut rows = Vec::new();
    for corner in [BeolCorner::Typical, BeolCorner::CcWorst] {
        let v = noise_check(&nl, &lib, &stack, corner, &cfg);
        let worst = v.first().map(|x| x.glitch_frac).unwrap_or(0.0);
        rows.push(vec![
            corner.to_string(),
            v.len().to_string(),
            fmt(100.0 * worst, 1) + "% of VDD",
        ]);
    }
    print_table(
        "Glitch-noise violations before fixing (30% margin)",
        &["corner", "violations", "worst glitch"],
        &rows,
    );

    let before = noise_check(&nl, &lib, &stack, BeolCorner::CcWorst, &cfg).len();
    let out = noise_fix_pass(&mut nl, &lib, &stack, &cfg, 1_000).expect("noise fix");
    let after = noise_check(&nl, &lib, &stack, BeolCorner::CcWorst, &cfg).len();
    println!(
        "\nnoise fixing: {before} violations → {after} after {} ECOs (spacing NDRs + driver upsizes)",
        out.edits
    );
    println!("(the paper counts \"several hundred manual noise and DRC fixes\" per tapeout)");
}
