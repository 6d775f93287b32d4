//! The tapeout march: the paper's §1 description of final closure —
//! months of implementation compressed into the full fix sequence on one
//! block. Setup closure (Fig 1's loop), then the "last set of manual
//! fixes": glitch-noise ECOs, hold padding, minimum-implant-area
//! cleanup, and finally leakage recovery before the masks go out.
//!
//! ```sh
//! cargo run --release --example tapeout_march
//! ```

use tc_core::ids::NetId;
use timing_closure::closure::fixes::{hold_fix_pass, noise_fix_pass};
use timing_closure::closure::flow::{ClosureConfig, ClosureFlow};
use timing_closure::closure::power::recover_leakage;
use timing_closure::interconnect::beol::{BeolCorner, BeolStack};
use timing_closure::liberty::{LibConfig, Library, PvtCorner};
use timing_closure::netlist::gen::{generate, BenchProfile};
use timing_closure::placement::minia::{fix_violations, violation_count, MinIaRule};
use timing_closure::placement::rows::Placement;
use timing_closure::sta::report::{hold_violations, hold_wns};
use timing_closure::sta::{noise_check, Constraints, NoiseConfig, Sta, Timer};

fn main() -> Result<(), tc_core::Error> {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let stack = BeolStack::n20();
    let mut nl = generate(&lib, BenchProfile::c5315(), 2015)?;
    println!(
        "block `{}`: {} cells | area {:.0} sites | leakage {:.1} µW",
        nl.name,
        nl.cell_count(),
        nl.total_area(&lib),
        nl.total_leakage_uw(&lib)
    );

    // ---- 1. Setup closure (Fig 1) ----
    let probe = Constraints::single_clock(5_000.0);
    let wns = Sta::new(&nl, &lib, &stack, &probe).run()?.wns().value();
    let cons = Constraints::single_clock(5_000.0 - wns - 120.0);
    println!(
        "\n[1] setup closure at {:.0} ps (120 ps overconstrained)…",
        5_000.0 - wns - 120.0
    );
    let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
    let out = flow.run(&mut nl, cons)?;
    let cons = out.constraints;
    for it in &out.iterations {
        println!(
            "    iter {}: WNS {:.1} → {:.1} ps",
            it.iteration,
            it.wns_before.value(),
            it.wns_after.value()
        );
    }
    println!("    closed: {} in {:.0} days", out.closed, out.days);

    // ---- 2. Noise closure ----
    let noise_cfg = NoiseConfig::default();
    let before = noise_check(&nl, &lib, &stack, BeolCorner::CcWorst, &noise_cfg).len();
    let fixed = noise_fix_pass(&mut nl, &lib, &stack, &noise_cfg, 2_000)?;
    let after = noise_check(&nl, &lib, &stack, BeolCorner::CcWorst, &noise_cfg).len();
    println!(
        "\n[2] noise closure @ Ccw: {before} glitch violations → {after} ({} ECOs)",
        fixed.edits
    );

    // ---- 3. Hold padding ----
    // One timer from here to signoff: later steps re-time on it instead
    // of running STA again.
    let mut timer = Timer::new(&nl, &lib, &stack, cons)?;
    let violations = hold_violations(timer.endpoints());
    println!(
        "\n[3] hold: WNS {:.1} ps, {violations} violations",
        hold_wns(timer.endpoints()).value(),
    );
    if violations > 0 {
        let pads = hold_fix_pass(&mut timer, &mut nl, 200)?;
        println!(
            "    padded {} endpoints → hold WNS {:.1} ps",
            pads.edits,
            hold_wns(timer.endpoints()).value()
        );
    } else {
        println!("    clean — no pads needed");
    }

    // ---- 4. MinIA cleanup (the Vt-swaps of step 1 made islands) ----
    let mut pl = Placement::row_fill(&nl, &lib, 400, 7);
    let rule = MinIaRule::n20();
    let minia_before = violation_count(&pl, &nl, &lib, &rule);
    let report = fix_violations(&mut pl, &mut nl, &lib, &rule, |_, _| true);
    println!(
        "\n[4] MinIA: {minia_before} implant violations → {} ({} swaps, {} moves)",
        report.after, report.vt_swaps, report.moves
    );

    // ---- 5. Leakage recovery (re-times the MinIA swaps first) ----
    let rec = recover_leakage(&mut timer, &mut nl, 40, |_| true)?;
    println!(
        "\n[5] leakage recovery: {:.1} µW → {:.1} µW ({:.1}% saved, {} downswaps)",
        rec.leakage_before_uw,
        rec.leakage_after_uw,
        100.0 * rec.saving(),
        rec.swaps
    );

    // ---- Final signoff ----
    let final_report = timer.report(&nl);
    let ndr_nets = (0..nl.net_count())
        .filter(|&i| nl.net(NetId::new(i)).route_class > 0)
        .count();
    println!("\n=== signoff ===");
    println!("    {}", final_report.summary());
    println!(
        "    area {:.0} sites | leakage {:.1} µW | {} nets on NDRs | tapeout: {}",
        nl.total_area(&lib),
        nl.total_leakage_uw(&lib),
        ndr_nets,
        if final_report.is_clean() {
            "GO"
        } else {
            "NO-GO"
        }
    );
    nl.validate(&lib)?;
    Ok(())
}
