//! Tightened BEOL Corners (TBC) — the paper's **Fig 8** and §3.2
//! (Chan, Dobre, Kahng, ICCD 2014).
//!
//! Homogeneous "conventional BEOL corners" (CBCs) push *every* layer to
//! its extreme simultaneously, but per-layer variations are independent,
//! so the statistical 3σ delay of a real path is usually far inside the
//! corner's prediction. The pessimism metric
//!
//! ```text
//! α_j = 3σ_j / Δd_j(Y_CBC),    Δd_j(Y) = d_j(Y) − d_j(Y_typ)
//! ```
//!
//! quantifies this per path: small α ⇒ the corner is very pessimistic;
//! α > 1 ⇒ the corner *under*-covers (and another corner must dominate).
//! Paths with small Δd at both Cw and RCw can be signed off at tightened
//! corners instead.

use tc_core::rng::Rng;
use tc_core::stats::quantile;
use tc_interconnect::beol::{BeolCorner, BeolStack};

/// A path reduced to its BEOL sensitivity: fixed gate delay, a
/// *driver-loading* term (gate delay attributable to charging wire
/// capacitance — scales with C only), and a wire-RC term per layer
/// (scales with R·C).
///
/// The two wire terms are why Cw and RCw dominate different paths
/// (Fig 8(a)): gate-dominated paths with short, capacitive wires are
/// stressed hardest by C-worst (through the driver), while
/// resistance-dominated long-wire paths are stressed by RC-worst.
#[derive(Clone, Debug, PartialEq)]
pub struct PathBeolProfile {
    /// Gate (FEOL) delay, unaffected by BEOL corners, ps.
    pub gate_ps: f64,
    /// Driver delay from charging each layer's wire capacitance, ps at
    /// the typical corner (scales with the layer's C factor only).
    pub cap_load_ps_by_layer: Vec<f64>,
    /// Distributed wire-RC delay on each layer, ps at typical (scales
    /// with the layer's R·C factors).
    pub wire_ps_by_layer: Vec<f64>,
}

impl PathBeolProfile {
    fn c_mix(cg: f64, cc: f64, f: tc_interconnect::beol::CornerFactors) -> f64 {
        (cg * f.cg + cc * f.cc) / (cg + cc)
    }

    /// Path delay at a homogeneous corner.
    pub fn delay_at(&self, stack: &BeolStack, corner: BeolCorner) -> f64 {
        let mut total = self.gate_ps;
        for l in 0..stack.layer_count() {
            let layer = stack.layer(l);
            let f = corner.factors(layer.multi_patterned);
            let c_mix = Self::c_mix(layer.cg_per_um, layer.cc_per_um, f);
            total += self.cap_load_ps_by_layer.get(l).copied().unwrap_or(0.0) * c_mix;
            total += self.wire_ps_by_layer.get(l).copied().unwrap_or(0.0) * f.r * c_mix;
        }
        total
    }

    /// One Monte Carlo path delay with independent per-layer factors.
    pub fn sample_delay(&self, stack: &BeolStack, rng: &mut Rng) -> f64 {
        let s = stack.sample(rng);
        let mut total = self.gate_ps;
        for l in 0..stack.layer_count() {
            total += self.cap_load_ps_by_layer.get(l).copied().unwrap_or(0.0) * s.c[l];
            total += self.wire_ps_by_layer.get(l).copied().unwrap_or(0.0) * s.r[l] * s.c[l];
        }
        total
    }

    /// Fraction of the typical-corner delay spent in wire RC.
    pub fn wire_fraction(&self) -> f64 {
        let wire: f64 = self.wire_ps_by_layer.iter().sum();
        let load: f64 = self.cap_load_ps_by_layer.iter().sum();
        wire / (wire + load + self.gate_ps)
    }
}

/// α and Δd of one path at one corner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlphaPoint {
    /// Pessimism metric α = 3σ / Δd.
    pub alpha: f64,
    /// Corner delay increment over typical, normalized: Δd / d_typ.
    pub delta_rel: f64,
}

/// Computes a path's α at a corner, with MC ground truth for the 3σ.
pub fn alpha_for_path(
    path: &PathBeolProfile,
    stack: &BeolStack,
    corner: BeolCorner,
    samples: usize,
    seed: u64,
) -> AlphaPoint {
    let d_typ = path.delay_at(stack, BeolCorner::Typical);
    let d_corner = path.delay_at(stack, corner);
    let mut rng = Rng::seed_from(seed);
    let mc: Vec<f64> = (0..samples)
        .map(|_| path.sample_delay(stack, &mut rng))
        .collect();
    let three_sigma = quantile(&mc, 0.99865) - quantile(&mc, 0.5);
    let delta = d_corner - d_typ;
    AlphaPoint {
        alpha: if delta.abs() < 1e-9 {
            f64::INFINITY
        } else {
            three_sigma / delta
        },
        delta_rel: delta / d_typ,
    }
}

/// The Fig 8 study: a path population analyzed at Cw and RCw.
#[derive(Clone, Debug)]
pub struct TbcStudy {
    /// Per-path α/Δd at the C-worst corner.
    pub at_cw: Vec<AlphaPoint>,
    /// Per-path α/Δd at the RC-worst corner.
    pub at_rcw: Vec<AlphaPoint>,
    /// The analyzed paths.
    pub paths: Vec<PathBeolProfile>,
}

impl TbcStudy {
    /// Generates a seeded path population spanning gate- and
    /// wire-dominated mixes on random layer subsets, then computes α at
    /// both corners.
    pub fn generate(stack: &BeolStack, n_paths: usize, mc_samples: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let mut paths = Vec::with_capacity(n_paths);
        for _ in 0..n_paths {
            let gate = rng.uniform_in(120.0, 500.0);
            // Total BEOL-sensitive delay, split between driver-loading
            // (C-sensitive) and distributed wire RC (RC-sensitive). Gate-
            // dominated paths have mostly loading; wire-dominated paths
            // mostly RC — the two populations of Fig 8(a).
            let beol_fraction = rng.uniform_in(0.10, 0.55);
            let beol_total = gate * beol_fraction / (1.0 - beol_fraction);
            let rc_share = rng.uniform_in(0.1, 0.9);
            let mut rc_by_layer = vec![0.0; stack.layer_count()];
            let mut load_by_layer = vec![0.0; stack.layer_count()];
            let n_layers = 1 + rng.below(4);
            for _ in 0..n_layers {
                let l = rng.below(stack.layer_count());
                rc_by_layer[l] += beol_total * rc_share / n_layers as f64;
                load_by_layer[l] += beol_total * (1.0 - rc_share) / n_layers as f64;
            }
            paths.push(PathBeolProfile {
                gate_ps: gate,
                cap_load_ps_by_layer: load_by_layer,
                wire_ps_by_layer: rc_by_layer,
            });
        }
        let at_cw: Vec<AlphaPoint> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                alpha_for_path(p, stack, BeolCorner::CWorst, mc_samples, seed ^ (i as u64))
            })
            .collect();
        let at_rcw: Vec<AlphaPoint> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                alpha_for_path(p, stack, BeolCorner::RcWorst, mc_samples, seed ^ (i as u64))
            })
            .collect();
        TbcStudy {
            at_cw,
            at_rcw,
            paths,
        }
    }

    /// Indices of paths eligible for tightened-corner signoff: Δd below
    /// both thresholds (the blue-shaded region of Fig 8(b)).
    pub fn tbc_eligible(&self, a_cw: f64, a_rcw: f64) -> Vec<usize> {
        (0..self.paths.len())
            .filter(|&i| self.at_cw[i].delta_rel < a_cw && self.at_rcw[i].delta_rel < a_rcw)
            .collect()
    }

    /// Paths whose α exceeds 1 at Cw (the corner *under*-covers them):
    /// they must be covered by RCw instead — the both-corners-required
    /// observation of Fig 8(a).
    pub fn cw_undercovered(&self) -> Vec<usize> {
        (0..self.paths.len())
            .filter(|&i| self.at_cw[i].alpha > 1.0)
            .collect()
    }

    /// Median over paths of `min(α_Cw, α_RCw)` — how well the *dominating*
    /// corner covers each path. Values below 1 mean the two-corner
    /// signoff is pessimistic for the typical path; values modestly above
    /// 1 for some paths are why *both* corners must be run (Fig 8(a)).
    pub fn median_min_alpha(&self) -> f64 {
        let mins: Vec<f64> = self
            .at_cw
            .iter()
            .zip(&self.at_rcw)
            .map(|(c, r)| c.alpha.min(r.alpha))
            .filter(|a| a.is_finite())
            .collect();
        quantile(&mins, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> BeolStack {
        BeolStack::n20()
    }

    #[test]
    fn corner_delay_exceeds_typical() {
        let s = stack();
        let p = PathBeolProfile {
            gate_ps: 200.0,
            cap_load_ps_by_layer: vec![0.0, 20.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            wire_ps_by_layer: vec![0.0, 40.0, 0.0, 30.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        assert!(p.delay_at(&s, BeolCorner::CWorst) > p.delay_at(&s, BeolCorner::Typical));
        assert!(p.delay_at(&s, BeolCorner::RcWorst) > p.delay_at(&s, BeolCorner::Typical));
    }

    #[test]
    fn homogeneous_corners_are_pessimistic_for_multilayer_paths() {
        // A path spread over many independent layers has small 3σ
        // relative to the all-layers-worst corner increment: α < 1.
        let s = stack();
        let p = PathBeolProfile {
            gate_ps: 100.0,
            cap_load_ps_by_layer: vec![5.0; 9],
            wire_ps_by_layer: vec![20.0; 9],
        };
        let a = alpha_for_path(&p, &s, BeolCorner::RcWorst, 4_000, 5);
        assert!(
            a.alpha < 1.0,
            "independent layers ⇒ corner pessimistic, α = {}",
            a.alpha
        );
    }

    #[test]
    fn study_reproduces_fig8_structure() {
        let s = stack();
        let study = TbcStudy::generate(&s, 60, 2_000, 11);
        // Some paths have α > 1 at Cw (RCw must cover them)…
        let under = study.cw_undercovered();
        assert!(!under.is_empty(), "some paths exceed Cw coverage");
        // …and those paths are covered (α < 1) at RCw.
        let covered = under
            .iter()
            .filter(|&&i| study.at_rcw[i].alpha <= 1.0)
            .count();
        assert!(
            covered * 10 >= under.len() * 7,
            "{covered}/{} Cw-undercovered paths covered by RCw",
            under.len()
        );
        // The dominating corner covers the typical path with pessimism to
        // spare: median min-α below 1.
        assert!(
            study.median_min_alpha() < 1.0,
            "median min-α {}",
            study.median_min_alpha()
        );
    }

    #[test]
    fn tbc_thresholds_select_low_delta_paths() {
        let s = stack();
        let study = TbcStudy::generate(&s, 60, 1_000, 12);
        let eligible = study.tbc_eligible(0.04, 0.05);
        assert!(!eligible.is_empty());
        for &i in &eligible {
            assert!(study.at_cw[i].delta_rel < 0.04);
            assert!(study.at_rcw[i].delta_rel < 0.05);
        }
        // Tightening thresholds shrinks eligibility monotonically.
        let tighter = study.tbc_eligible(0.02, 0.025);
        assert!(tighter.len() <= eligible.len());
    }

    #[test]
    fn wire_fraction_reported() {
        let p = PathBeolProfile {
            gate_ps: 80.0,
            cap_load_ps_by_layer: vec![0.0; 9],
            wire_ps_by_layer: vec![10.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        assert!((p.wire_fraction() - 0.2).abs() < 1e-12);
    }
}
