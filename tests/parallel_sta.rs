//! Determinism contract of `tc-par`: every parallelized engine — the
//! MCMM scenario sweep and the Monte Carlo samplers — must produce
//! results that are **bit-identical** at every worker count. The worker
//! count may change wall-clock, never bytes. These tests sweep seeded
//! workloads across {1, 2, 4, 8} workers and compare full `f64` bit
//! patterns against the sequential reference.

use timing_closure::core::ids::NetId;
use timing_closure::interconnect::beol::{BeolCorner, BeolStack};
use timing_closure::liberty::{LibConfig, Library, PvtCorner};
use timing_closure::netlist::gen::{generate, BenchProfile};
use timing_closure::par::Pool;
use timing_closure::sta::mcmm::{run_scenarios_shared_on, Scenario};
use timing_closure::sta::Constraints;
use timing_closure::variation::mc::{beol_monte_carlo_wns_on, PathModel};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn scenarios(cfg: &LibConfig) -> Vec<Scenario> {
    [
        ("typ", PvtCorner::typical(), BeolCorner::Typical),
        ("slow_rcw", PvtCorner::slow_cold(), BeolCorner::RcWorst),
        ("slow_hot", PvtCorner::slow_hot(), BeolCorner::CWorst),
        ("fast_cb", PvtCorner::fast_cold(), BeolCorner::CBest),
    ]
    .into_iter()
    .map(|(name, pvt, beol)| Scenario {
        name: name.to_string(),
        lib: Library::generate(cfg, &pvt),
        beol,
        constraints: Constraints::single_clock(900.0),
    })
    .collect()
}

/// Collapses a report list into the exact bit pattern of every slack —
/// two runs are equal iff their fingerprints are.
fn fingerprint(reports: &[(String, timing_closure::sta::TimingReport)]) -> Vec<(String, Vec<u64>)> {
    reports
        .iter()
        .map(|(name, r)| {
            let bits = r
                .endpoints
                .iter()
                .flat_map(|e| {
                    [
                        e.setup_slack.value().to_bits(),
                        e.hold_slack.value().to_bits(),
                        e.arrival.value().to_bits(),
                        e.data_slew.to_bits(),
                    ]
                })
                .collect();
            (name.clone(), bits)
        })
        .collect()
}

#[test]
fn scenario_sweep_is_bit_identical_at_any_worker_count() {
    let cfg = LibConfig::default();
    let lib = Library::generate(&cfg, &PvtCorner::typical());
    let stack = BeolStack::n20();
    let scenarios = scenarios(&cfg);
    let designs = [
        (BenchProfile::tiny(), 3),
        (BenchProfile::tiny(), 17),
        (BenchProfile::c5315(), 11),
    ];
    for (profile, seed) in designs {
        let nl = generate(&lib, profile, seed).unwrap();
        let reference = fingerprint(
            &run_scenarios_shared_on(Pool::sequential(), &nl, &stack, &scenarios).unwrap(),
        );
        assert!(!reference.is_empty());
        for workers in WORKER_COUNTS {
            let got = fingerprint(
                &run_scenarios_shared_on(Pool::new(workers), &nl, &stack, &scenarios).unwrap(),
            );
            assert_eq!(got, reference, "sweep diverged at {workers} workers");
        }
    }
}

#[test]
fn path_monte_carlo_is_bit_identical_at_any_worker_count() {
    let path = PathModel::uniform(12, 20.0, 0.06, 3.0);
    // Cover a non-multiple of the internal chunk size and a tiny run.
    for (n, seed) in [(10_000, 42), (300, 7), (1, 9)] {
        let reference = path.monte_carlo_on(Pool::sequential(), n, seed);
        let ref_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
        for workers in WORKER_COUNTS {
            let got = path.monte_carlo_on(Pool::new(workers), n, seed);
            let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, ref_bits, "MC diverged at {workers} workers (n={n})");
        }
    }
}

#[test]
fn beol_monte_carlo_is_bit_identical_at_any_worker_count() {
    let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
    let mut nl = generate(&lib, BenchProfile::tiny(), 4).unwrap();
    for i in 0..nl.net_count() {
        nl.set_wire_length(NetId::new(i), 120.0);
    }
    let stack = BeolStack::n20();
    let cons = Constraints::single_clock(1_200.0);
    let reference =
        beol_monte_carlo_wns_on(Pool::sequential(), &nl, &lib, &stack, &cons, 12, 7).unwrap();
    let ref_bits: Vec<u64> = reference.iter().map(|p| p.value().to_bits()).collect();
    for workers in WORKER_COUNTS {
        let got =
            beol_monte_carlo_wns_on(Pool::new(workers), &nl, &lib, &stack, &cons, 12, 7).unwrap();
        let bits: Vec<u64> = got.iter().map(|p| p.value().to_bits()).collect();
        assert_eq!(bits, ref_bits, "BEOL MC diverged at {workers} workers");
    }
}
