//! §2.3 — the corner super-explosion: analysis-view counts for a 65 nm
//! design vs a 16 nm SoC, the per-multi-patterned-layer BEOL doubling,
//! and dominance-based pruning on a real MCMM run.

use tc_bench::{print_table, standard_env};
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_par::Pool;
use tc_signoff::corners::{prune_by_dominance, run_corner_set_on, CornerSpace};
use tc_sta::mcmm::Scenario;
use tc_sta::Constraints;

fn main() {
    let old = CornerSpace::n65_classic();
    let new = CornerSpace::n16_soc();
    let rows = vec![
        vec![
            "65 nm classic".to_string(),
            old.modes.len().to_string(),
            old.pvt.len().to_string(),
            old.beol.len().to_string(),
            old.voltage_domains.to_string(),
            old.count().to_string(),
        ],
        vec![
            "16 nm SoC".to_string(),
            new.modes.len().to_string(),
            new.pvt.len().to_string(),
            new.beol.len().to_string(),
            new.voltage_domains.to_string(),
            new.count().to_string(),
        ],
    ];
    print_table(
        "Corner super-explosion: analysis views to close",
        &["era", "modes", "PVT", "BEOL", "domains", "total views"],
        &rows,
    );
    let stack = BeolStack::n20();
    println!(
        "\nBEOL corners with per-multi-patterned-layer doubling: {} flat views",
        stack.flat_corner_count()
    );

    // Dominance pruning on a live MCMM run.
    let (lib_typ, stack) = standard_env();
    let nl = tc_bench::bench_netlist(&lib_typ, "tiny", 2015);
    let cfg = LibConfig::default();
    let mk = |name: &str, pvt: PvtCorner, beol: BeolCorner| Scenario {
        name: name.to_string(),
        lib: Library::generate(&cfg, &pvt),
        beol,
        constraints: Constraints::single_clock(900.0),
    };
    let scenarios = vec![
        mk("slow_cold_RCw", PvtCorner::slow_cold(), BeolCorner::RcWorst),
        mk("slow_cold_Cw", PvtCorner::slow_cold(), BeolCorner::CWorst),
        mk("slow_hot_RCw", PvtCorner::slow_hot(), BeolCorner::RcWorst),
        mk("typ_typ", PvtCorner::typical(), BeolCorner::Typical),
        mk("fast_cold_Cb", PvtCorner::fast_cold(), BeolCorner::CBest),
    ];
    let merged = run_corner_set_on(Pool::from_env(), &nl, &stack, &scenarios).expect("mcmm");
    let kept = prune_by_dominance(&merged, 3);
    println!(
        "\nMCMM dominance over {} endpoints:",
        merged.endpoints.len()
    );
    let mut dominance: Vec<(String, usize)> = merged.dominance().into_iter().collect();
    dominance.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (name, n) in dominance {
        println!("  {name}: worst-setup corner for {n} endpoints");
    }
    println!("retained after pruning (≥3 endpoints dominated): {kept:?}");
}
