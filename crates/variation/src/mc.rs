//! Monte Carlo engines: path-level local variation and netlist-level
//! BEOL variation.

use std::sync::Arc;

use tc_core::error::Result;
use tc_core::rng::Rng;
use tc_core::stats::{tail_sigmas, TailSigmas};
use tc_core::units::Ps;
use tc_interconnect::beol::BeolStack;
use tc_liberty::Library;
use tc_netlist::Netlist;
use tc_sta::{Constraints, Sta, TimingGraph};

/// Samples per RNG stream in chunked Monte Carlo. Fixed (not derived
/// from the worker count) so the drawn sequence is a pure function of
/// `(n, seed)`.
const MC_CHUNK: usize = 256;

/// Local-variation model of one path stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageModel {
    /// Nominal stage delay, ps.
    pub nominal: f64,
    /// Relative 1σ of local variation.
    pub sigma_rel: f64,
    /// Skew-normal shape parameter; positive skews late (the transistor
    /// current's nonlinear response to Vt variation lengthens the slow
    /// tail — Fig 7's physics).
    pub skew_alpha: f64,
}

/// A path as a sequence of independently varying stages.
#[derive(Clone, Debug, PartialEq)]
pub struct PathModel {
    /// The stages, launch to capture.
    pub stages: Vec<StageModel>,
}

impl PathModel {
    /// A path of `n` identical stages.
    pub fn uniform(n: usize, nominal: f64, sigma_rel: f64, skew_alpha: f64) -> Self {
        PathModel {
            stages: vec![
                StageModel {
                    nominal,
                    sigma_rel,
                    skew_alpha,
                };
                n
            ],
        }
    }

    /// Nominal (zero-variation) path delay.
    pub fn nominal(&self) -> f64 {
        self.stages.iter().map(|s| s.nominal).sum()
    }

    /// Draws one path-delay sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.stages
            .iter()
            .map(|s| {
                // Azzalini skew-normal, re-centered so its mean is 0 —
                // keeps the sample mean at the nominal delay.
                let delta = s.skew_alpha / (1.0 + s.skew_alpha * s.skew_alpha).sqrt();
                let mean_shift = delta * (2.0 / std::f64::consts::PI).sqrt();
                let z = rng.skew_normal(s.skew_alpha) - mean_shift;
                s.nominal * (1.0 + s.sigma_rel * z)
            })
            .sum()
    }

    /// Runs `n` samples with the given seed.
    ///
    /// Samples are drawn in fixed-size chunks, each from its own
    /// `(seed, chunk_index)` RNG stream, so the result is a pure
    /// function of `(n, seed)` — bit-identical at any worker count
    /// (including 1). The seeded stream therefore differs from the
    /// historical single-`Rng` sequence, a one-time break recorded in
    /// `EXPERIMENTS.md`.
    pub fn monte_carlo(&self, n: usize, seed: u64) -> Vec<f64> {
        self.monte_carlo_on(tc_par::Pool::from_env(), n, seed)
    }

    /// [`monte_carlo`](Self::monte_carlo) on an explicit worker pool
    /// (tests pin the worker count this way instead of mutating
    /// `TC_PAR_THREADS`).
    pub fn monte_carlo_on(&self, pool: tc_par::Pool, n: usize, seed: u64) -> Vec<f64> {
        let chunks: Vec<usize> = (0..n.div_ceil(MC_CHUNK)).collect();
        pool.scope_map(&chunks, |_, &chunk| {
            let mut rng = Rng::stream_from(seed, chunk as u64);
            let len = MC_CHUNK.min(n - chunk * MC_CHUNK);
            (0..len)
                .map(|_| self.sample(&mut rng))
                .collect::<Vec<f64>>()
        })
        .concat()
    }

    /// Convenience: MC then split-tail sigma extraction (the LVF
    /// characterization step).
    pub fn tail_sigmas(&self, n: usize, seed: u64) -> TailSigmas {
        tail_sigmas(&self.monte_carlo(n, seed))
    }
}

/// Per-endpoint worst-slack samples from a netlist-level BEOL Monte
/// Carlo: each trial draws one per-layer variation sample and re-runs
/// STA, as one task of `pool`. Returns the WNS of each trial.
///
/// Each trial draws its BEOL sample from its own `(seed, trial)` RNG
/// stream, so the trial sequence is a pure function of `(trials, seed)`
/// and the sweep parallelizes without reordering results. The trials
/// vary the wires, not the connectivity, so they share one timing graph.
///
/// # Errors
///
/// Propagates STA failures (a combinational loop before any trial,
/// otherwise the first failing trial in trial order).
pub fn beol_monte_carlo_wns_on(
    pool: tc_par::Pool,
    nl: &Netlist,
    lib: &Library,
    stack: &BeolStack,
    cons: &Constraints,
    trials: usize,
    seed: u64,
) -> Result<Vec<Ps>> {
    let graph = Arc::new(TimingGraph::build(nl, lib)?);
    let trial_ids: Vec<u64> = (0..trials as u64).collect();
    pool.scope_map(&trial_ids, |_, &trial| {
        let mut rng = Rng::stream_from(seed, trial);
        let sample = stack.sample(&mut rng);
        let report = Sta::new(nl, lib, stack, cons)
            .with_graph(Arc::clone(&graph))
            .with_beol_sample(&sample)
            .run()?;
        Ok(report.wns())
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::stats::Summary;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    #[test]
    fn mc_mean_matches_nominal() {
        let p = PathModel::uniform(10, 20.0, 0.05, 3.0);
        let xs = p.monte_carlo(40_000, 1);
        let s = Summary::of(&xs);
        assert!(
            (s.mean - p.nominal()).abs() < 0.5,
            "mean {} vs nominal {}",
            s.mean,
            p.nominal()
        );
    }

    #[test]
    fn deep_paths_average_out_relative_variation() {
        // σ/µ of an n-stage path shrinks like 1/√n — the statistical
        // averaging AOCV models via stage count.
        let short = PathModel::uniform(2, 20.0, 0.05, 0.0);
        let long = PathModel::uniform(32, 20.0, 0.05, 0.0);
        let s_short = Summary::of(&short.monte_carlo(30_000, 2));
        let s_long = Summary::of(&long.monte_carlo(30_000, 2));
        let rel_short = s_short.sigma / s_short.mean;
        let rel_long = s_long.sigma / s_long.mean;
        assert!(
            rel_long < rel_short / 3.0,
            "32 stages should cut σ/µ by ~4×: {rel_short} → {rel_long}"
        );
    }

    #[test]
    fn skew_produces_setup_long_tail() {
        let p = PathModel::uniform(12, 20.0, 0.06, 4.0);
        let t = p.tail_sigmas(60_000, 3);
        assert!(
            t.late > 1.1 * t.early,
            "late σ {} must exceed early σ {}",
            t.late,
            t.early
        );
        // Without skew the tails are symmetric.
        let sym = PathModel::uniform(12, 20.0, 0.06, 0.0);
        let ts = sym.tail_sigmas(60_000, 3);
        assert!((ts.late / ts.early - 1.0).abs() < 0.1);
    }

    #[test]
    fn beol_mc_produces_spread() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let mut nl = generate(&lib, BenchProfile::tiny(), 4).unwrap();
        for i in 0..nl.net_count() {
            nl.set_wire_length(tc_core::ids::NetId::new(i), 120.0);
        }
        let stack = BeolStack::n20();
        let cons = Constraints::single_clock(1_200.0);
        let wns =
            beol_monte_carlo_wns_on(tc_par::Pool::from_env(), &nl, &lib, &stack, &cons, 20, 7)
                .unwrap();
        let vals: Vec<f64> = wns.iter().map(|p| p.value()).collect();
        let s = Summary::of(&vals);
        assert!(
            s.sigma > 0.1,
            "BEOL variation must move WNS, σ = {}",
            s.sigma
        );
    }
}
