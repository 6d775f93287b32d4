//! MCMM corner signoff: run a design through a realistic corner set,
//! merge per-endpoint worst slacks, and prune never-dominant corners —
//! the §2.3 "corner super-explosion" workflow.
//!
//! ```sh
//! cargo run --release --example corner_signoff
//! ```

use timing_closure::interconnect::beol::{BeolCorner, BeolStack};
use timing_closure::liberty::{LibConfig, Library, PvtCorner};
use timing_closure::netlist::gen::{generate, BenchProfile};
use timing_closure::par::Pool;
use timing_closure::signoff::corners::{prune_by_dominance, run_corner_set_on, CornerSpace};
use timing_closure::sta::mcmm::Scenario;
use timing_closure::sta::Constraints;

fn main() -> Result<(), tc_core::Error> {
    // The abstract corner space a 16 nm SoC faces…
    let space = CornerSpace::n16_soc();
    println!(
        "full 16 nm corner space: {} analysis views (vs {} at 65 nm)",
        space.count(),
        CornerSpace::n65_classic().count()
    );

    // …and a concrete eight-scenario subset actually run here.
    let cfg = LibConfig::default();
    let lib_typ = Library::generate(&cfg, &PvtCorner::typical());
    let nl = generate(&lib_typ, BenchProfile::c5315(), 11)?;
    let stack = BeolStack::n20();

    // Period chosen from a probe at the worst expected corner (signing
    // off a typical-corner Fmax would violate everywhere slow).
    let lib_slow = Library::generate(&cfg, &PvtCorner::slow_hot());
    let probe = Constraints::single_clock(8_000.0);
    let base = timing_closure::sta::Sta::new(&nl, &lib_slow, &stack, &probe)
        .with_beol_corner(BeolCorner::RcWorst)
        .run()?;
    let period = 8_000.0 - base.wns().value() + 120.0;
    println!(
        "design {} cells | signoff period {period:.0} ps",
        nl.cell_count()
    );

    let mk = |name: &str, pvt: PvtCorner, beol: BeolCorner| Scenario {
        name: name.to_string(),
        lib: Library::generate(&cfg, &pvt),
        beol,
        constraints: Constraints::single_clock(period),
    };
    let scenarios = vec![
        mk("ssg_cold_RCw", PvtCorner::slow_cold(), BeolCorner::RcWorst),
        mk("ssg_cold_Cw", PvtCorner::slow_cold(), BeolCorner::CWorst),
        mk("ssg_hot_RCw", PvtCorner::slow_hot(), BeolCorner::RcWorst),
        mk("ssg_hot_Cw", PvtCorner::slow_hot(), BeolCorner::CWorst),
        mk("tt_typ", PvtCorner::typical(), BeolCorner::Typical),
        mk("ffg_cold_Cb", PvtCorner::fast_cold(), BeolCorner::CBest),
        mk("ffg_cold_Ccw", PvtCorner::fast_cold(), BeolCorner::CcWorst),
        mk("ffg_cold_RCb", PvtCorner::fast_cold(), BeolCorner::RcBest),
    ];

    let merged = run_corner_set_on(Pool::from_env(), &nl, &stack, &scenarios)?;
    println!(
        "\nmerged signoff: WNS {:.1} ps | hold WNS {:.1} ps | violating endpoints {}",
        merged.wns().value(),
        merged.hold_wns().value(),
        merged.violations()
    );

    println!("\ncorner dominance (endpoints for which each corner is worst-setup):");
    let mut dom: Vec<_> = merged.dominance().into_iter().collect();
    dom.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (name, n) in &dom {
        println!("  {name:<16} {n}");
    }

    let kept = prune_by_dominance(&merged, 5);
    println!(
        "\nafter dominance pruning (≥5 endpoints): keep {} of {} scenarios: {:?}",
        kept.len(),
        scenarios.len(),
        kept
    );
    println!("→ the pruned corners can be dropped from nightly signoff runs");
    Ok(())
}
