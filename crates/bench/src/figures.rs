//! The paper's figures and tables, one function each. A function runs
//! its study at a fixed grid and seed, records what it prints, and
//! states the paper's qualitative point for it as claims read from its
//! own rows. [`FIGURES`] lists them for the `figures` binary and for
//! `tests/figures.rs`.

use std::time::Instant;

use tc_aging::avs::AvsSystem;
use tc_aging::signoff::{aging_signoff_sweep, fig9_corners, PowerProfile};
use tc_clock::cts::ClockTree;
use tc_clock::jitter::{CheckKind, JitterModel};
use tc_clock::useful_skew::optimize_useful_skew;
use tc_closure::fixes::{noise_fix_pass, FixKind};
use tc_closure::flow::{ClosureConfig, ClosureFlow};
use tc_core::ids::NetId;
use tc_core::rng::Rng;
use tc_core::stats::{quantile, tail_sigmas, Histogram, Summary};
use tc_core::units::{Celsius, Ff, Ps, Volt};
use tc_device::mosfet::temperature_reversal_point;
use tc_device::{MosDevice, MosKind, Technology, VtClass};
use tc_interconnect::beol::{BeolCorner, BeolStack};
use tc_interconnect::estimate::WireModel;
use tc_interconnect::sadp::{BimodalCd, CutMaskEffects, PatterningSolution, SadpProcess};
use tc_liberty::{AocvTable, DerateModel, InterdepModel, LibConfig, Library, PocvSigma, PvtCorner};
use tc_obs::{JsonValue, RunArtifact, Snapshot};
use tc_par::Pool;
use tc_placement::minia::{fix_violations, inject_vt_islands, violation_count, MinIaRule};
use tc_placement::rows::Placement;
use tc_signoff::corners::{prune_by_dominance, run_corner_set_on, CornerSpace};
use tc_signoff::era::{active_at_node, care_abouts, old_vs_new};
use tc_signoff::ir::{compare_flat_vs_dynamic, GridModel, IrGrid};
use tc_signoff::margin_recovery::{recover_margin, FlopBoundary};
use tc_signoff::margins::{SignoffStrategy, YieldModel};
use tc_sim::cells::inverter_chain_delay;
use tc_sim::ff_char::{c2q_vs_hold, c2q_vs_setup, characterize_ff, setup_hold_contour, FfBench};
use tc_sim::mis::{run_mis_study, InputDir, MisStudy};
use tc_sta::etm::{interface_slack, Etm};
use tc_sta::mcmm::Scenario;
use tc_sta::pba::{pba_worst_endpoints, PbaEndpoint};
use tc_sta::{noise_check, Constraints, Endpoint, NoiseConfig, Sta};
use tc_variation::mc::PathModel;
use tc_variation::models::model_accuracy;
use tc_variation::tbc::TbcStudy;

use crate::{bench_netlist, num, pct, standard_env, Cell, Figure};

/// A figure's study: runs it and returns what it shows.
pub type Study = fn() -> Figure;

/// Every figure by name, in print order.
pub const FIGURES: &[(&str, Study)] = &[
    ("fig01_closure_loop", fig01_closure_loop),
    ("fig02_old_vs_new", fig02_old_vs_new),
    ("fig03_care_abouts", fig03_care_abouts),
    ("fig04_mis_sis", fig04_mis_sis),
    ("fig05_sadp_sigma", fig05_sadp_sigma),
    ("fig06a_minia", fig06a_minia),
    ("fig06b_temp_inversion", fig06b_temp_inversion),
    ("fig07_path_distribution", fig07_path_distribution),
    ("fig08_tbc_alpha", fig08_tbc_alpha),
    ("fig09_aging_avs", fig09_aging_avs),
    ("fig10_ff_interdependence", fig10_ff_interdependence),
    ("tbl_clock_margins", tbl_clock_margins),
    ("tbl_corner_explosion", tbl_corner_explosion),
    ("tbl_etm_hierarchy", tbl_etm_hierarchy),
    ("tbl_fix_ordering", tbl_fix_ordering),
    ("tbl_gate_wire_balance", tbl_gate_wire_balance),
    ("tbl_gba_pba", tbl_gba_pba),
    ("tbl_ir_dynamic", tbl_ir_dynamic),
    ("tbl_margin_recovery", tbl_margin_recovery),
    ("tbl_model_accuracy", tbl_model_accuracy),
    ("tbl_noise_hold", tbl_noise_hold),
    ("tbl_yield_slack", tbl_yield_slack),
];

/// Whether `xs` strictly decreases.
fn falls(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] < w[0])
}

/// Whether `xs` strictly increases.
fn rises(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[1] > w[0])
}

/// **Fig 1** — the top-level closure loop (MacDonald, ref \[30\]): STA →
/// failure breakdown → ordered fixes, timing improving each three-day
/// iteration. Under the runner's tc-obs it also reports the span tree
/// and leaves the loop's counters in its run artifact.
pub fn fig01_closure_loop() -> Figure {
    let mut fig = Figure::new("fig01_closure_loop");
    let (lib, stack) = standard_env();
    let mut nl = bench_netlist(&lib, "soc_block", 2015);

    // Constrain the block 500 ps beyond its as-generated capability —
    // enough that no single fix pass can close it, so the iterative
    // character of Fig 1 is visible.
    let probe = Constraints::single_clock(6_000.0);
    let r = Sta::new(&nl, &lib, &stack, &probe).run().expect("sta");
    let period = 6_000.0 - r.wns().value() - 500.0;
    fig.note(format!(
        "design: {} cells | probe WNS at 6 ns: {:.1} ps | closure period: {period:.0} ps",
        nl.cell_count(),
        r.wns().value(),
    ));
    let cons = Constraints::single_clock(period);
    let before = Sta::new(&nl, &lib, &stack, &cons).run().expect("sta");
    fig.note(format!("entering closure: {}", before.summary()));
    fig.note(format!(
        "failure breakdown: {:?}",
        before.failure_breakdown()
    ));

    // The probe runs above are prologue, not the loop being measured.
    tc_obs::reset();
    let config = ClosureConfig {
        budget_per_pass: 15,
        k_paths: 8,
        ..Default::default()
    };
    let mut flow = ClosureFlow::new(&lib, &stack, config);
    let out = flow.run(&mut nl, cons).expect("closure flow");
    let rows = out.iterations.iter().map(|it| {
        let fixes: Vec<String> = it
            .fixes
            .iter()
            .map(|(k, n)| format!("{}:{n}", k.label()))
            .collect();
        vec![
            it.iteration.into(),
            num(it.wns_before.value(), 1),
            num(it.wns_after.value(), 1),
            num(it.tns_after.value(), 1),
            it.violations_after.into(),
            Cell::Ms(it.elapsed_ms),
            fixes.join(" ").into(),
        ]
    });
    let headers = "iter | WNS in | WNS out | TNS out | viol | ms | fixes";
    fig.table("Fig 1: closure iterations", headers, rows.collect());
    let iterations = out.iterations.len();
    fig.note(format!(
        "\nclosed: {} | schedule: {:.0} days ({iterations} iterations of 3 days)",
        out.closed, out.days
    ));
    fig.note(format!("final: {}", out.final_report.summary()));

    // Signoff cross-check: a from-scratch full STA must agree with the
    // incremental timer bit for bit, on every endpoint row.
    let signoff = {
        let _span = tc_obs::span("signoff.sta");
        Sta::new(&nl, &lib, &stack, &out.constraints)
            .run()
            .expect("signoff sta")
    };
    let holds = signoff.endpoints == out.final_report.endpoints;
    let d = format!("{} endpoint rows", signoff.endpoints.len());
    fig.claim("signoff_sta_matches_the_timer", holds, d);
    let improving = out.iterations.iter().all(|it| it.wns_after > it.wns_before);
    let holds = out.closed && iterations <= 5 && improving;
    let d = format!(
        "closed {} in {iterations}; every WNS out > in: {improving}",
        out.closed
    );
    fig.claim("closes_within_five_iterations_improving_each", holds, d);

    let snapshot = tc_obs::snapshot();
    fig.measured(format!("\n{}", snapshot.render_text()));
    fig.artifact = flow
        .run_artifact("fig01_closure_loop soc_block", &out)
        .extra("final_cells", JsonValue::from(nl.cell_count()))
        .metrics(snapshot);
    fig
}

/// **Fig 2** — the "old vs new" feature matrix of timing closure
/// (analysis, modeling and signoff criteria, 65 nm era vs 16/14 nm era).
pub fn fig02_old_vs_new() -> Figure {
    let mut fig = Figure::new("fig02_old_vs_new");
    let matrix = old_vs_new();
    let rows = matrix
        .iter()
        .map(|r| vec![r.aspect.into(), r.old.into(), r.new.into()]);
    let headers = "aspect | old (≈65 nm) | new (≈16/14 nm)";
    fig.table("Fig 2: timing closure, OLD vs NEW", headers, rows.collect());
    let same = matrix.iter().filter(|r| r.old == r.new).count();
    let d = format!("{same} of {} aspects unchanged", matrix.len());
    fig.claim("every_aspect_changed", same == 0, d);
    fig
}

/// **Fig 3** — timing-closure care-abouts by node: each node inherits
/// every older concern and adds its own.
pub fn fig03_care_abouts() -> Figure {
    let mut fig = Figure::new("fig03_care_abouts");
    let rows = care_abouts().into_iter().map(|c| {
        vec![
            c.name.into(),
            format!("{} nm", c.first_node_nm).into(),
            c.note.into(),
        ]
    });
    let title = "Fig 3: care-abouts by onset node";
    fig.table(title, "concern | onset | note", rows.collect());
    let nodes = [90u32, 65, 40, 28, 20, 16, 10];
    let counts: Vec<usize> = nodes.iter().map(|&n| active_at_node(n).len()).collect();
    let rows = nodes
        .iter()
        .zip(&counts)
        .map(|(n, &k)| vec![format!("{n} nm").into(), k.into()]);
    let title = "Active care-about count per node (the accumulating burden)";
    fig.table(title, "node | active concerns", rows.collect());
    let holds = counts.windows(2).all(|w| w[1] >= w[0]) && counts[6] >= 5 * counts[0];
    let d = format!("active concerns at 90 … 10 nm: {counts:?}");
    fig.claim("burden_accumulates_fivefold", holds, d);
    fig
}

/// **Fig 4** — MIS vs SIS arc delays of a NAND2 + FO3 at nominal and 80%
/// VDD: falling inputs (parallel PMOS) drop MIS to ~50% of SIS, rising
/// inputs (series NMOS) make it >~10% slower.
pub fn fig04_mis_sis() -> Figure {
    let mut fig = Figure::new("fig04_mis_sis");
    let tech = Technology::planar_28nm();
    let nominal = 0.9;
    let (mut rows, mut ratios) = (Vec::new(), Vec::new());
    for &vdd_frac in &[1.0, 0.8] {
        let vdd = Volt::new(nominal * vdd_frac);
        let study = MisStudy::paper_default(vdd);
        for dir in [InputDir::Falling, InputDir::Rising] {
            let r = run_mis_study(&tech, &study, dir).expect("mis study");
            ratios.push(r.ratio());
            rows.push(vec![
                format!("{:.2} V", vdd.value()).into(),
                format!("{dir:?}").into(),
                num(r.sis_delay.value(), 2),
                num(r.mis_delay.value(), 2),
                pct(100.0 * r.ratio(), 1),
                num(r.worst_offset, 0),
            ]);
        }
    }
    let headers = "VDD | input dir | SIS (ps) | MIS (ps) | MIS/SIS | offset (ps)";
    fig.table("Fig 4: NAND2 + FO3, MIS vs SIS arc delay", headers, rows);

    // The full offset sweep at nominal VDD, falling inputs (the plotted
    // curve of Fig 4(b)).
    let study = MisStudy::paper_default(Volt::new(nominal));
    let r = run_mis_study(&tech, &study, InputDir::Falling).expect("mis study");
    let sweep = study.offsets.iter().zip(&r.sweep);
    let rows = sweep.map(|(o, d)| vec![num(*o, 0), num(d.value(), 2)]);
    let title = "Fig 4(b): arc delay vs IN1 arrival offset (falling, 0.90 V)";
    fig.table(title, "offset (ps) | arc delay (ps)", rows.collect());
    // Rows alternate falling, rising at 0.90 V, then at 0.72 V.
    let holds = ratios[0] < 0.75 && ratios[2] < 0.75 && ratios[1] > 1.10 && ratios[3] > 1.10;
    let d = format!("MIS/SIS falling, rising at 0.90 V, then 0.72 V: {ratios:.3?}");
    fig.claim(
        "mis_falling_under_75pct_rising_over_110pct_of_sis",
        holds,
        d,
    );
    fig
}

/// **Fig 5** — SADP (SID) CD variability of the four patterning
/// solutions, cut-mask capacitance adders, and bimodal LELE CD.
pub fn fig05_sadp_sigma() -> Figure {
    let mut fig = Figure::new("fig05_sadp_sigma");
    let p = SadpProcess::n10();
    fig.note(format!(
        "process sigmas (nm): mandrel {} | spacer {} | block {} | mandrel-block overlay {}",
        p.sigma_mandrel, p.sigma_spacer, p.sigma_block, p.sigma_mandrel_block
    ));
    let solutions = PatterningSolution::ALL.iter();
    let variances: Vec<f64> = solutions.clone().map(|s| s.cd_variance(&p)).collect();
    let rows = solutions.map(|s| {
        vec![
            format!("{s:?}").into(),
            num(s.cd_variance(&p), 3),
            num(s.cd_sigma(&p), 3),
        ]
    });
    let title = "Fig 5(c): CD variance per SID patterning solution";
    fig.table(title, "solution | σ² (nm²) | σ (nm)", rows.collect());

    // Fig 5(b): capacitance adders from cut-mask restrictions.
    let fx = CutMaskEffects::n10();
    let mut rng = Rng::seed_from(505);
    let samples: Vec<f64> = (0..20_000)
        .map(|_| fx.extra_cap_ff(60.0, 0.12, &mut rng))
        .collect();
    let s = Summary::of(&samples);
    fig.note(format!(
        "\nFig 5(b): extra cap on a 60 µm M2 net from line-end extensions + fill:\n  mean {:.4} fF | min {:.4} fF (extensions only) | max {:.4} fF (with adjacent fill)",
        s.mean, s.min, s.max
    ));

    // Bimodal LELE CD distribution (refs [9]/[14]).
    let b = BimodalCd {
        offset_nm: 1.2,
        sigma_nm: 0.5,
    };
    let mut rng = Rng::seed_from(506);
    let mixed: Vec<f64> = (0..40_000)
        .map(|i| b.sample((i % 2) as u8, &mut rng))
        .collect();
    let sm = Summary::of(&mixed);
    fig.note(format!(
        "\nLELE bimodal CD: per-mask σ {:.2} nm, mask offset ±{:.2} nm → mixed σ {:.3} nm (analytic {:.3})",
        b.sigma_nm,
        b.offset_nm,
        sm.sigma,
        b.mixed_variance().sqrt()
    ));
    // `ALL` is mandrel-mandrel, spacer-spacer, mandrel-block,
    // spacer-block: each step adds a noisier edge.
    let d = format!("σ² in that order: {variances:.3?} nm²");
    fig.claim("block_mask_edges_noisiest", rises(&variances), d);
    fig
}

/// **Fig 6(a)** — minimum implant area (MinIA) violations left by Vt-swap
/// fixes, and the fixing heuristics of ref \[24\].
pub fn fig06a_minia() -> Figure {
    let mut fig = Figure::new("fig06a_minia");
    let (lib, _stack) = standard_env();
    let rule = MinIaRule::n20();
    let width = rule.min_width_sites;
    fig.note(format!(
        "rule: implant islands must be ≥ {width} sites wide"
    ));
    let (mut rows, mut left) = (Vec::new(), Vec::new());
    for &inject in &[10usize, 40, 120, 300] {
        let mut nl = bench_netlist(&lib, "c5315", 2015);
        let injected = inject_vt_islands(&mut nl, &lib, inject, 9);
        let mut pl = Placement::row_fill(&nl, &lib, 200, 1);
        let before = violation_count(&pl, &nl, &lib, &rule);
        let report = fix_violations(&mut pl, &mut nl, &lib, &rule, |_, _| true);
        left.push((before, report.after));
        rows.push(vec![
            injected.into(),
            before.into(),
            report.after.into(),
            pct(100.0 * report.fix_rate(), 1),
            report.vt_swaps.into(),
            report.moves.into(),
        ]);
    }
    let headers = "Vt islands injected | violations | remaining | fix rate | vt swaps | moves";
    fig.table(
        "Fig 6(a): MinIA violations and fix rates (c5315 stand-in)",
        headers,
        rows,
    );
    fig.note("\n(ref [24] reports up to 100% violation removal vs commercial P&R)");
    let holds = left.iter().all(|&(before, after)| before > 0 && after == 0);
    let d = format!("(violations, remaining) per injection level: {left:?}");
    fig.claim("fixer_removes_every_violation", holds, d);
    fig
}

/// **Fig 6(b)** — temperature inversion: inverter delay vs VDD at −30 °C
/// and 125 °C, slower cold below the reversal point `Vtr`, hot above.
pub fn fig06b_temp_inversion() -> Figure {
    let mut fig = Figure::new("fig06b_temp_inversion");
    let tech = Technology::planar_28nm();
    let (cold, hot) = (Celsius::new(-30.0), Celsius::new(125.0));
    let (mut rows, mut slower) = (Vec::new(), Vec::new());
    for &v in &[0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.90, 1.00, 1.10] {
        let vdd = Volt::new(v);
        let d_cold = inverter_chain_delay(&tech, VtClass::Svt, vdd, cold).expect("sim");
        let d_hot = inverter_chain_delay(&tech, VtClass::Svt, vdd, hot).expect("sim");
        slower.push(if d_cold > d_hot { "cold" } else { "hot" });
        let corner = slower[slower.len() - 1].into();
        rows.push(vec![
            num(v, 2),
            num(d_cold.value(), 2),
            num(d_hot.value(), 2),
            corner,
        ]);
    }
    let headers = "VDD (V) | delay @ -30C (ps) | delay @ 125C (ps) | slower corner";
    fig.table(
        "Fig 6(b): inverter delay vs VDD (transistor-level simulation)",
        headers,
        rows,
    );
    let dev = MosDevice::new(MosKind::Nmos, VtClass::Svt, 1.0);
    let (lo, hi) = (Volt::new(0.45), Volt::new(1.2));
    let vtr = temperature_reversal_point(&tech, &dev, cold, hot, lo, hi).map(|v| v.value());
    if let Some(vtr) = vtr {
        fig.note(format!("\ndevice-model reversal point Vtr ≈ {vtr:.3} V"));
        fig.note("→ signoff voltages near Vtr require BOTH hot and cold corners (§2.3)");
    }
    // One flip, from slower-cold to slower-hot, with Vtr inside the
    // modern signoff voltage range.
    let flips = slower.windows(2).filter(|w| w[0] != w[1]).count();
    let in_range = vtr.is_some_and(|v| (0.55..0.95).contains(&v));
    let holds = slower[0] == "cold" && flips == 1 && in_range;
    let d = format!("Vtr {vtr:.3?} V; slower corner across the sweep: {slower:?}");
    fig.claim("temperature_reverses_once_inside_0v55_to_0v95", holds, d);
    fig
}

/// **Fig 7** — the "setup long tail" of the Monte Carlo path-delay
/// distribution behind LVF's split late/early sigmas (ref \[27\]).
pub fn fig07_path_distribution() -> Figure {
    let mut fig = Figure::new("fig07_path_distribution");
    // A 12-stage path with skewed local variation (low-voltage regime).
    let path = PathModel::uniform(12, 20.0, 0.06, 4.0);
    let samples = path.monte_carlo(100_000, 2015);
    let s = Summary::of(&samples);
    let t = tail_sigmas(&samples);
    fig.note("path: 12 stages × 20 ps nominal | 100k Monte Carlo samples");
    fig.note(format!(
        "mean {:.2} ps | sigma {:.2} ps | skewness {:.3} (positive = late tail)",
        s.mean, s.sigma, s.skewness
    ));
    let rows = vec![
        vec!["median (zero-sigma delay)".into(), num(t.median, 2)],
        vec!["late (setup) sigma".into(), num(t.late, 2)],
        vec!["early (hold) sigma".into(), num(t.early, 2)],
        vec!["late/early ratio".into(), num(t.late / t.early, 3)],
    ];
    fig.table(
        "Fig 7: split late/early sigmas (the LVF representation)",
        "quantity | ps",
        rows,
    );
    let mut h = Histogram::new(s.mean - 4.5 * s.sigma, s.mean + 6.5 * s.sigma, 26);
    samples.iter().for_each(|&x| h.add(x));
    fig.note("\npath-delay histogram (note the long right tail):");
    fig.note(h.render(60).trim_end());
    let holds = t.late > 1.1 * t.early && s.skewness > 0.0;
    let d = format!(
        "late σ {:.3}, early σ {:.3} ps, skewness {:.3}",
        t.late, t.early, s.skewness
    );
    fig.claim("late_sigma_exceeds_early_by_10pct", holds, d);
    fig
}

/// **Fig 8** — tightened BEOL corners (ref \[2\]): α = 3σ/Δd per path at
/// Cw and RCw, corner dominance, and TBC eligibility by threshold.
pub fn fig08_tbc_alpha() -> Figure {
    let mut fig = Figure::new("fig08_tbc_alpha");
    let stack = BeolStack::n20();
    let study = TbcStudy::generate(&stack, 200, 3_000, 2015);

    // Fig 8(a): the α scatter, summarized by wire-fraction bands.
    let mut rows = Vec::new();
    for (lo, hi) in [(0.0, 0.15), (0.15, 0.30), (0.30, 0.45), (0.45, 1.0)] {
        let idx: Vec<usize> = (0..study.paths.len())
            .filter(|&i| (lo..hi).contains(&study.paths[i].wire_fraction()))
            .collect();
        if idx.is_empty() {
            continue;
        }
        let mean =
            |v: &dyn Fn(usize) -> f64| idx.iter().map(|&i| v(i)).sum::<f64>() / idx.len() as f64;
        rows.push(vec![
            format!("{lo:.2}-{hi:.2}").into(),
            idx.len().into(),
            num(mean(&|i| study.at_cw[i].alpha.min(5.0)), 2),
            num(mean(&|i| study.at_rcw[i].alpha.min(5.0)), 2),
            pct(mean(&|i| 100.0 * study.at_cw[i].delta_rel), 2),
            pct(mean(&|i| 100.0 * study.at_rcw[i].delta_rel), 2),
        ]);
    }
    let title = "Fig 8(a): mean α and Δd by wire fraction (200 paths, per-layer MC)";
    fig.table(
        title,
        "wire frac | paths | α @ Cw | α @ RCw | Δd/d @ Cw | Δd/d @ RCw",
        rows,
    );

    let under = study.cw_undercovered();
    let covered = under
        .iter()
        .filter(|&&i| study.at_rcw[i].alpha <= 1.0)
        .count();
    fig.note(format!(
        "\npaths with α > 1 at Cw (Cw under-covers): {} of {}; of those, {covered} are covered by RCw",
        under.len(),
        study.paths.len(),
    ));
    fig.note("→ both corners must be signed off (the paper's Fig 8(a) point)");
    let median = study.median_min_alpha();
    fig.note(format!(
        "median min(α_Cw, α_RCw) = {median:.2} (pessimism of the dominating corner)"
    ));

    // Fig 8(b): TBC eligibility vs thresholds.
    let (mut rows, mut eligible) = (Vec::new(), Vec::new());
    for &(a_cw, a_rcw) in &[(0.02, 0.025), (0.04, 0.05), (0.06, 0.08), (0.10, 0.12)] {
        let n = study.tbc_eligible(a_cw, a_rcw).len();
        eligible.push(n);
        rows.push(vec![
            format!("{:.0}% / {:.0}%", 100.0 * a_cw, 100.0 * a_rcw).into(),
            n.into(),
            pct(100.0 * n as f64 / study.paths.len() as f64, 1),
        ]);
    }
    let title = "Fig 8(b): paths eligible for tightened-corner signoff";
    fig.table(title, "thresholds Acw/Arcw | eligible paths | share", rows);
    // The dominating corner is still pessimistic for the median path,
    // yet Cw alone under-covers paths that RCw must cover (≥60% of them).
    let holds = median < 1.0 && !under.is_empty() && covered * 10 >= under.len() * 6;
    let d = format!(
        "median α {median:.3}; {covered} of {} covered by RCw",
        under.len()
    );
    fig.claim("both_corners_needed_and_both_pessimistic", holds, d);
    let holds = eligible.windows(2).all(|w| w[1] >= w[0]);
    fig.claim(
        "eligibility_grows_with_thresholds",
        holds,
        format!("{eligible:?}"),
    );
    fig
}

/// **Fig 9** — lifetime power vs area across BTI aging-signoff corners
/// with AVS (ref \[1\]) on four designs, each with its own dynamic share.
pub fn fig09_aging_avs() -> Figure {
    let mut fig = Figure::new("fig09_aging_avs");
    let (lib, _stack) = standard_env();
    let sys = AvsSystem::nominal_28nm();
    let corners = fig9_corners();
    fig.note(format!(
        "aging corners (assumed stress years): {corners:?} | product lifetime: 10 years"
    ));

    // Leakage is evaluated at the hot operating corner where it matters
    // (and where BTI stress happens); activity differs per workload,
    // which is what differentiates the four Fig 9 plots.
    let hot = PvtCorner {
        temperature: Celsius::new(105.0),
        ..PvtCorner::typical()
    };
    let hot_lib = Library::generate(&LibConfig::default(), &hot);
    let (mut under, mut over, mut area_rises) = (Vec::new(), Vec::new(), true);
    for (profile, activity) in [
        ("c5315", 0.12),
        ("c7552", 0.08),
        ("aes", 0.035),
        ("mpeg2", 0.02),
    ] {
        let nl = bench_netlist(&lib, profile, 2015);
        let freq_ghz = 1.0;
        // fJ/switch × switches/ns = µW.
        let energy = nl.cells().map(|c| lib.cell(c.master).switch_energy(4.0));
        let dyn_uw: f64 = energy.map(|e| e * activity * freq_ghz).sum();
        let leak_uw = nl.total_leakage_uw(&hot_lib);
        let share = dyn_uw / (dyn_uw + leak_uw);
        let power = PowerProfile {
            dynamic_share: share,
        };
        let o = aging_signoff_sweep(&sys, power, &corners, 10.0);
        let rows = o.iter().enumerate().map(|(i, o)| {
            vec![
                (i + 1).into(),
                num(o.assumed_years, 1),
                num(o.area_pct, 1),
                num(o.power_pct, 1),
                num(o.final_voltage.value(), 3),
                o.always_met.to_string().into(),
            ]
        });
        let (cells, share_pct) = (nl.cell_count(), 100.0 * share);
        let title = format!("Fig 9 [{profile}]: {cells} cells, dynamic share {share_pct:.0}%");
        let headers = "corner | assumed yrs | area % | power % | EOL V | met";
        fig.table(title, headers, rows.collect());
        // The first corner underestimates aging, the last overestimates
        // it; the truth is the product lifetime.
        let truth = o.iter().find(|o| o.assumed_years == 10.0).expect("truth");
        let (first, last) = (&o[0], &o[o.len() - 1]);
        under.push((first.power_pct, truth.power_pct));
        over.push((last.power_pct, truth.power_pct));
        area_rises &= o.windows(2).all(|w| w[1].area_pct >= w[0].area_pct)
            && first.area_pct < truth.area_pct
            && last.area_pct > truth.area_pct;
    }
    fig.note(
        "\n(shape to match the paper: underestimating aging → power ↑; overestimating → area ↑)",
    );
    // The dynamic-dominated designs (c5315, c7552) pay for
    // underestimating aging in power; the leakage-heavy mpeg2 pays for
    // overestimating it.
    let holds = under[..2].iter().all(|(p, truth)| p > truth) && over[3].0 > over[3].1;
    let d = format!("power % vs truth at corner 1: {under:.1?}; at corner 7: {over:.1?}");
    fig.claim("misjudged_aging_costs_power_by_design", holds, d);
    let d = "area % never falls from corner 1 to 7, below truth at 1, above it at 7";
    fig.claim("area_rises_with_the_corner_on_every_design", area_rises, d);
    fig
}

/// **Fig 10** — interdependent DFF timing by transistor-level bisection:
/// c2q vs setup, c2q vs hold, and the setup–hold contour at 10% pushout.
pub fn fig10_ff_interdependence() -> Figure {
    let mut fig = Figure::new("fig10_ff_interdependence");
    let bench = FfBench::paper_default();
    let tech = Technology::planar_28nm();
    let triple = characterize_ff(&bench, &tech, 1.10).expect("characterization");
    let (s0, h0) = (triple.setup.value(), triple.hold.value());
    fig.note(format!(
        "conventional characterization (10% pushout): setup {s0:.1} ps | hold {h0:.1} ps | c2q {:.1} ps",
        triple.c2q_nominal.value()
    ));

    // Hug the characterized walls: the interesting pushout region of a
    // fast master–slave flop is only a few ps wide.
    let margins = [60.0, 20.0, 8.0, 4.0, 2.0, 1.0, 0.0, -1.0, -2.0, -4.0];
    let setups: Vec<f64> = margins.iter().map(|m| s0 + m).collect();
    let holds: Vec<f64> = margins.iter().map(|m| h0 + m).collect();
    let mut pushouts = Vec::new();
    for (title, headers, pts) in [
        (
            "Fig 10(i): c2q vs setup time",
            "setup (ps) | c2q (ps)",
            c2q_vs_setup(&bench, &tech, &setups),
        ),
        (
            "Fig 10(ii): c2q vs hold time",
            "hold (ps) | c2q (ps)",
            c2q_vs_hold(&bench, &tech, &holds),
        ),
    ] {
        let pts = pts.expect("sweep");
        let rows = pts.iter().map(|p| {
            let c2q = p.c2q.map_or_else(|| "FAIL".into(), |d| num(d.value(), 2));
            vec![num(p.constraint.value(), 1), c2q]
        });
        fig.table(title, headers, rows.collect());
        let c2q = |i: usize| pts[i].c2q.map(|d| d.value());
        pushouts.push([c2q(0), c2q(6), c2q(9)]);
    }

    let setups = [16.0, 8.0, 4.0, 2.0, 1.0, 0.0, -1.0].map(|m| s0 + m);
    let contour = setup_hold_contour(&bench, &tech, 1.10, &setups).expect("contour");
    let rows = contour
        .iter()
        .map(|(s, h)| vec![num(s.value(), 1), num(h.value(), 1)]);
    let title = "Fig 10(iii): setup vs min hold at 10% pushout (the tradeoff contour)";
    fig.table(title, "setup (ps) | min hold (ps)", rows.collect());
    fig.note(
        "\n(conventional signoff freezes one point of these surfaces; ref [23] recovers the rest)",
    );
    // At +60 ps c2q sits on its plateau, at the wall it has pushed out
    // by over 5%, and 4 ps past the wall the flop fails.
    let holds = pushouts.iter().all(|c| match *c {
        [Some(flat), Some(wall), None] => wall > 1.05 * flat,
        _ => false,
    });
    let d = format!("c2q at +60, 0, −4 ps (setup; hold): {pushouts:.2?}");
    fig.claim("c2q_pushes_out_at_the_walls", holds, d);
    let min_hold: Vec<f64> = contour.iter().map(|(_, h)| h.value()).collect();
    let d = format!("min hold as setup shrinks: {min_hold:.1?} ps");
    fig.claim("setup_trades_against_hold", rises(&min_hold), d);
    fig
}

/// Clock margins: the flat jitter "rug" vs its decomposition (§3.4), CTS
/// skew across PVT corners (§1.2), and useful skew as a closure lever.
pub fn tbl_clock_margins() -> Figure {
    let mut fig = Figure::new("tbl_clock_margins");
    // 1. Jitter decomposition.
    let j = JitterModel::typical();
    let (flat, checks) = (j.flat_margin().value(), [CheckKind::Setup, CheckKind::Hold]);
    let decomposed = checks.map(|c| j.decomposed_margin(c).value());
    let recovered = checks.map(|c| j.recovered(c).value());
    let rows = vec![
        vec!["flat rug (linear sum)".into(), num(flat, 1), num(flat, 1)],
        vec![
            "decomposed (RSS + c2c PLL)".into(),
            num(decomposed[0], 1),
            num(decomposed[1], 1),
        ],
        vec![
            "recovered".into(),
            num(recovered[0], 1),
            num(recovered[1], 1),
        ],
    ];
    let title = "Jitter margin: the single rug vs detangled components (ps)";
    fig.table(title, "margining | setup | hold", rows);

    // 2. CTS skew across corners.
    let (lib, stack) = standard_env();
    let nl = bench_netlist(&lib, "soc_block", 7);
    let pl = Placement::row_fill(&nl, &lib, 256, 7);
    let tree = ClockTree::synthesize(&nl, &lib, &pl, 8);
    fig.note(format!(
        "\nCTS over {} flops: {} levels, common latency {:.1} ps, skew {:.1} ps",
        tree.leaf.len(),
        tree.levels,
        tree.common.value(),
        tree.skew().value()
    ));
    let skews = [
        ("TT 0.90V 25C", PvtCorner::typical()),
        ("SSG 0.81V -30C", PvtCorner::slow_cold()),
        ("SSG 0.81V 125C", PvtCorner::slow_hot()),
        ("FFG 0.99V -30C", PvtCorner::fast_cold()),
    ]
    .map(|(label, corner)| (label, tree.skew_at_corner(&lib, &corner).value()));
    let rows = skews.iter().map(|&(l, s)| vec![l.into(), num(s, 2)]);
    let title = "Skew of the same tree re-evaluated per corner (§1.2 MCMM-CTS)";
    fig.table(title, "corner | skew (ps)", rows.collect());

    // 3. Useful skew on a violating configuration.
    let probe = Constraints::single_clock(6_000.0);
    let wns = Sta::new(&nl, &lib, &stack, &probe)
        .run()
        .expect("sta")
        .wns()
        .value();
    let cons = Constraints::single_clock(6_000.0 - wns - 25.0);
    let res = optimize_useful_skew(&nl, &lib, &stack, &cons, 12, Ps::new(8.0)).expect("skew");
    let (before, after) = (res.wns_before.value(), res.wns_after.value());
    fig.note(format!(
        "\nuseful skew at 25 ps overconstraint: WNS {before:.1} → {after:.1} ps with {} leaf moves",
        res.moves.len()
    ));
    let d = format!("setup, hold recovered: {recovered:.1?} ps");
    fig.claim(
        "decomposed_jitter_recovers_margin",
        recovered.iter().all(|&r| r > 0.0),
        d,
    );
    // Slow corners widen the skew over typical, the fast corner narrows it.
    let s = skews.map(|(_, s)| s);
    let holds = s[1] > s[0] && s[2] > s[0] && s[3] < s[0] && before < 0.0 && after >= 0.0;
    let d = format!("skew TT, SS cold, SS hot, FF {s:.2?} ps; WNS {before:.2} → {after:.2}");
    fig.claim("skew_tracks_the_corner_and_useful_skew_closes", holds, d);
    fig
}

/// §2.3 — the corner super-explosion, 65 nm vs 16 nm, and dominance
/// pruning on a live MCMM run.
pub fn tbl_corner_explosion() -> Figure {
    let mut fig = Figure::new("tbl_corner_explosion");
    let (old, new) = (CornerSpace::n65_classic(), CornerSpace::n16_soc());
    let rows = [("65 nm classic", &old), ("16 nm SoC", &new)].map(|(era, s)| {
        let dims = [
            s.modes.len(),
            s.pvt.len(),
            s.beol.len(),
            s.voltage_domains,
            s.count(),
        ];
        [vec![era.into()], dims.map(Cell::from).to_vec()].concat()
    });
    let title = "Corner super-explosion: analysis views to close";
    fig.table(
        title,
        "era | modes | PVT | BEOL | domains | total views",
        rows.to_vec(),
    );
    let (lib_typ, stack) = standard_env();
    fig.note(format!(
        "\nBEOL corners with per-multi-patterned-layer doubling: {} flat views",
        stack.flat_corner_count()
    ));

    // Dominance pruning on a live MCMM run.
    let nl = bench_netlist(&lib_typ, "tiny", 2015);
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
    let mut lines = vec![format!(
        "\nMCMM dominance over {} endpoints:",
        merged.endpoints.len()
    )];
    let mut dominance: Vec<(String, usize)> = merged.dominance().into_iter().collect();
    dominance.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (name, n) in dominance {
        lines.push(format!("  {name}: worst-setup corner for {n} endpoints"));
    }
    fig.note(lines.join("\n"));
    fig.note(format!(
        "retained after pruning (≥3 endpoints dominated): {kept:?}"
    ));
    let ratio = new.count() as f64 / old.count() as f64;
    let holds = ratio > 10.0 && !kept.is_empty() && kept.len() < scenarios.len();
    let d = format!(
        "{ratio:.1}× the views; pruning keeps {} of 5 corners",
        kept.len()
    );
    fig.claim("views_explode_over_10x_and_dominance_prunes", holds, d);
    fig
}

/// §4 Comment 3 — ETM-based hierarchy: interface budgeting between two
/// blocks and the pessimism of a single-number boundary.
pub fn tbl_etm_hierarchy() -> Figure {
    let mut fig = Figure::new("tbl_etm_hierarchy");
    let (lib, stack) = standard_env();
    let nl_a = bench_netlist(&lib, "tiny", 101);
    let nl_b = bench_netlist(&lib, "tiny", 102);
    let cons = Constraints::single_clock(3_000.0);
    let sta_a = Sta::new(&nl_a, &lib, &stack, &cons);
    let sta_b = Sta::new(&nl_b, &lib, &stack, &cons);
    let etm_a = Etm::extract(&sta_a, "block_a").expect("etm a");
    let etm_b = Etm::extract(&sta_b, "block_b").expect("etm b");
    fig.note(format!(
        "block_a: {} inputs, {} outputs | worst c2out {:.1} ps",
        etm_a.inputs.len(),
        etm_a.outputs.len(),
        etm_a.worst_output_delay().unwrap().value()
    ));
    fig.note(format!(
        "block_b: worst input requirement {:.1} ps before the edge",
        etm_b.worst_input_requirement().unwrap().value()
    ));

    // Top-level interface budget across a sweep of wire lengths.
    let a_out = nl_a.primary_outputs().next().unwrap();
    let b_in = nl_b.primary_inputs()[1];
    let wires = [10.0, 50.0, 100.0, 200.0, 400.0];
    let slack = |w| {
        interface_slack(&etm_a, a_out, Ps::new(w), &etm_b, b_in)
            .unwrap()
            .value()
    };
    let slacks = wires.map(slack);
    let rows = wires
        .iter()
        .zip(&slacks)
        .map(|(&w, &s)| vec![num(w, 0), num(s, 1)]);
    let title = "Top-level interface slack vs wire delay (ETM budgeting)";
    fig.table(title, "wire (ps) | interface slack (ps)", rows.collect());

    // Pessimism: the ETM publishes one worst requirement per input; the
    // flat view knows per-endpoint slack. Compare the spread.
    let flat = sta_b.run().expect("sta");
    let flop_slacks: Vec<f64> = flat
        .endpoints
        .iter()
        .filter(|e| matches!(e.endpoint, Endpoint::FlopD(_)))
        .map(|e| e.setup_slack.value())
        .collect();
    let worst = flop_slacks.iter().cloned().fold(f64::INFINITY, f64::min);
    let median = quantile(&flop_slacks, 0.5);
    fig.note(format!(
        "\nblock_b flat endpoint slacks: worst {worst:.1} ps, median {median:.1} ps\n→ the ETM charges every top-level path the worst ({:.1} ps of hidden margin on the median path) — the cost of hierarchy.",
        median - worst
    ));
    let holds = falls(&slacks) && median > worst;
    let d = format!(
        "slack per wire delay {slacks:.1?} ps; {:.1} ps hidden",
        median - worst
    );
    fig.claim(
        "slack_falls_with_wire_and_the_boundary_hides_margin",
        holds,
        d,
    );
    fig
}

/// Ablation of Fig 1's fix ordering (Vt-swap → sizing → buffering → NDR
/// → useful skew) against reversed and single-fix flows, three seeds.
pub fn tbl_fix_ordering() -> Figure {
    let mut fig = Figure::new("tbl_fix_ordering");
    let (lib, stack) = standard_env();
    let mut reversed = FixKind::RECOMMENDED.to_vec();
    reversed.reverse();
    let orderings: Vec<(&str, Vec<FixKind>)> = vec![
        ("recommended", FixKind::RECOMMENDED.to_vec()),
        ("reversed", reversed),
        ("vt_swap_only", vec![FixKind::VtSwap]),
        ("sizing_only", vec![FixKind::Sizing]),
        ("skew_only", vec![FixKind::UsefulSkew]),
    ];
    // Per ordering: seeds closed and mean leakage delta, µW.
    let (mut rows, mut closed_leak) = (Vec::new(), Vec::new());
    for (name, ordering) in orderings {
        let (mut total_gain, mut total_leak_delta, mut closed) = (0.0, 0.0, 0);
        let seeds = [31u64, 32, 33];
        for &seed in &seeds {
            let base = bench_netlist(&lib, "tiny", seed);
            let probe = Constraints::single_clock(5_000.0);
            let wns = Sta::new(&base, &lib, &stack, &probe)
                .run()
                .expect("sta")
                .wns()
                .value();
            let cons = Constraints::single_clock(5_000.0 - wns - 45.0);
            let leak_before = base.total_leakage_uw(&lib);
            let mut nl = base.clone();
            let ordering = ordering.clone();
            let cfg = ClosureConfig {
                max_iterations: 2,
                ordering,
                ..Default::default()
            };
            let mut flow = ClosureFlow::new(&lib, &stack, cfg);
            let out = flow.run(&mut nl, cons).expect("closure");
            total_gain += out.final_report.wns().value() + 45.0; // from −45
            total_leak_delta += nl.total_leakage_uw(&lib) - leak_before;
            closed += usize::from(out.closed);
        }
        let n = seeds.len() as f64;
        closed_leak.push((closed, total_leak_delta / n));
        let (gain, leak, closed) = (total_gain / n, total_leak_delta / n, format!("{closed}/3"));
        rows.push(vec![name.into(), num(gain, 1), closed.into(), num(leak, 2)]);
    }
    let title = "Fix-ordering ablation (3 seeds, 45 ps overconstraint, equal budget)";
    fig.table(
        title,
        "ordering | mean WNS gain (ps) | closed | mean Δleakage (µW)",
        rows,
    );
    fig.note("\n→ the recommended (Vt-swap-first) order closes at zero footprint/routing");
    fig.note("  churn, paying in leakage; sizing-led orders pay in area and input-cap");
    fig.note("  churn instead; skew alone cannot close large violations. Fig 1 orders");
    fig.note("  fixes by *ECO disruption*, not raw WNS leverage — and §2.4's MinIA rules");
    fig.note("  are what later broke the 'Vt-swap is free' premise.");
    // Rows: recommended, reversed, vt_swap_only, sizing_only, skew_only.
    let [rec, rev, _, sizing, skew] = closed_leak[..] else {
        unreachable!("five orderings")
    };
    let holds = rec.0 == 3 && skew.0 == 0;
    let d = format!(
        "seeds closed: recommended {}/3, skew_only {}/3",
        rec.0, skew.0
    );
    fig.claim(
        "recommended_closes_every_seed_and_skew_alone_none",
        holds,
        d,
    );
    let holds = [rev, sizing, skew].iter().all(|o| rec.1 > o.1);
    let leak = [rec, rev, sizing, skew].map(|o| o.1);
    let d = format!("mean Δleakage µW, recommended, reversed, sizing_only, skew_only: {leak:.2?}");
    fig.claim("vt_swap_first_pays_in_leakage", holds, d);
    fig
}

/// §2.3 — gate-wire balance: gate delay falls with VDD while wire delay
/// stays flat (paper: ~−50% vs ~−2%, 0.7 → 1.2 V), so BEOL-corner
/// dominance flips between Cw and RCw.
pub fn tbl_gate_wire_balance() -> Figure {
    let mut fig = Figure::new("tbl_gate_wire_balance");
    let tech = Technology::finfet_16nm();
    let stack = BeolStack::n20();
    let temp = Celsius::new(25.0);
    let dev = MosDevice::new(MosKind::Nmos, VtClass::Svt, 1.0);

    // A 100 µm M3-class wire, per the paper's example.
    let wire = WireModel {
        length_um: 100.0,
        layer: 2,
        ndr: Default::default(),
    };
    let w_t = wire.timing(&stack, BeolCorner::Typical, None, &[Ff::new(2.0)]);
    let wire_delay = w_t.sink_delays[0].value();
    // Stage delay ∝ R_eff · C_load.
    let volts = [0.7, 0.8, 0.9, 1.0, 1.1, 1.2];
    let gates = volts.map(|v| dev.eff_resistance(&tech, Volt::new(v), temp).value() * 6.0);
    let shares = gates.map(|g| g / (g + wire_delay));
    // Wire RC is voltage-independent (the ~2% the paper cites is
    // driver-resistance share; pure wire delay is flat).
    let rows = (0..volts.len()).map(|i| {
        let (v, g) = (volts[i], gates[i]);
        let dg = pct(100.0 * (g / gates[0] - 1.0), 1);
        let w = num(wire_delay, 2);
        vec![
            num(v, 1),
            num(g, 2),
            dg,
            w,
            "0.0%".into(),
            num(shares[i], 2),
        ]
    });
    let title = "Gate vs wire delay across supply voltage (100 µm M3 wire)";
    let headers = "VDD (V) | gate (ps) | Δgate vs 0.7V | wire (ps) | Δwire | gate share";
    fig.table(title, headers, rows.collect());
    fig.note("\n→ low V: paths gate-dominated (Cw BEOL corner dominates);");
    fig.note("  high V: wire share grows (RCw dominates). Corner pruning is hard (§2.3).");
    let holds = gates[5] < 0.70 * gates[0] && falls(&shares);
    let d = format!(
        "gate delay {:.3} → {:.3} ps; gate share {shares:.3?}",
        gates[0], gates[5]
    );
    fig.claim("gate_delay_drops_30pct_and_its_share_falls", holds, d);
    fig
}

/// §1.3 — PBA recovers the pessimism of GBA's AOCV depth bound, at the
/// cost of per-path re-evaluation: c5315 (seed 2015) clocked 50 ps past
/// its nominal WNS under AOCV derates, PBA over the 50 worst endpoints.
pub fn tbl_gba_pba() -> Figure {
    let mut fig = Figure::new("tbl_gba_pba");
    let run_start = Instant::now();
    let (lib, stack) = standard_env();
    let nl = bench_netlist(&lib, "c5315", 2015);
    // Constrain near the design's nominal capability so GBA-vs-PBA
    // decides real violations, not an absurdly overconstrained mode.
    let probe = Constraints::single_clock(5_000.0).with_derate(DerateModel::None);
    let wns = Sta::new(&nl, &lib, &stack, &probe)
        .run()
        .expect("probe")
        .wns()
        .value();
    let cons = Constraints::single_clock(5_000.0 - wns + 50.0)
        .with_derate(DerateModel::Aocv(AocvTable::from_stage_sigma(0.06)));
    let sta = Sta::new(&nl, &lib, &stack, &cons);
    let before = tc_obs::snapshot();
    let gba = sta.run().expect("gba");
    let endpoints = pba_worst_endpoints(&sta, 50).expect("pba");

    let analyzed = endpoints.len();
    let rows = endpoints.iter().map(|r| {
        vec![
            format!("{:?}", r.endpoint).into(),
            num(r.gba_slack.value(), 1),
            num(r.pba_slack.value(), 1),
            num(r.recovered().value(), 1),
            r.stages.into(),
        ]
    });
    let title = format!("GBA vs PBA slack on the {analyzed} worst endpoints (AOCV derates)");
    fig.table(
        title,
        "endpoint | GBA slack | PBA slack | recovered | stages",
        rows.collect(),
    );
    let violating =
        |f: fn(&PbaEndpoint) -> Ps| endpoints.iter().filter(|r| f(r).value() < 0.0).count();
    let (viol_gba, viol_pba) = (violating(|r| r.gba_slack), violating(|r| r.pba_slack));
    let total_rec: f64 = endpoints.iter().map(|r| r.recovered().value()).sum();
    let stages: usize = endpoints.iter().map(|r| r.stages).sum();
    fig.table(
        "study totals",
        "GBA violations | PBA violations | recovered | PBA paths | PBA stages",
        vec![vec![
            viol_gba.into(),
            viol_pba.into(),
            Cell::Num(total_rec, 1, " ps"),
            analyzed.into(),
            stages.into(),
        ]],
    );
    fig.note(format!("\nGBA: {}", gba.summary()));

    // Span-based runtime attribution of the measured pair, the probe
    // left out: `sta.gba` covers the one graph propagation (`run` fills
    // the analysis' cache, PBA reads it), `sta.pba` only the path
    // extraction + re-derating on top.
    let snapshot = tc_obs::snapshot();
    let grew = |name| {
        let ns = |s: &Snapshot| s.span(name).map_or(0, |s| s.total_ns);
        ns(&snapshot).saturating_sub(ns(&before)) as f64 / 1e6
    };
    let arcs = "sta.arcs_evaluated";
    let arcs = snapshot.counter(arcs).saturating_sub(before.counter(arcs));
    fig.measured(format!(
        "runtime (tc-obs spans): GBA propagation {:.1} ms ({arcs} arcs) vs PBA overlay {:.1} ms \
         — the §1.3 turnaround cost",
        grew("sta.gba"),
        grew("sta.pba"),
    ));
    let tighter = endpoints
        .iter()
        .filter(|r| r.pba_slack < r.gba_slack)
        .count();
    let holds = tighter == 0 && viol_pba < viol_gba;
    let d =
        format!("{tighter} of {analyzed} tighter under PBA; violations {viol_gba} → {viol_pba}");
    fig.claim("pba_never_more_pessimistic_and_clears_violations", holds, d);
    fig.artifact = RunArtifact::new("tbl_gba_pba GBA-vs-PBA pessimism recovery")
        .knob("profile", "c5315")
        .knob("pba_endpoints", analyzed)
        .knob("aocv_stage_sigma", 0.06)
        .wall_ms(run_start.elapsed().as_secs_f64() * 1e3)
        .extra("gba_violations", JsonValue::from(viol_gba))
        .extra("pba_violations", JsonValue::from(viol_pba))
        .extra("total_recovered_ps", JsonValue::from(total_rec))
        .metrics(snapshot)
        .capture_memory();
    fig
}

/// §1.3 / Comment 1 — dynamic IR in timing: the flat IR-margin "rug" vs
/// the per-region `-dynamic` analysis, on a placed benchmark.
pub fn tbl_ir_dynamic() -> Figure {
    let mut fig = Figure::new("tbl_ir_dynamic");
    let (lib, _stack) = standard_env();
    let (mut rows, mut penalties) = (Vec::new(), Vec::new());
    for profile in ["c5315", "c7552", "aes"] {
        let nl = bench_netlist(&lib, profile, 2015);
        let pl = Placement::row_fill(&nl, &lib, 400, 2);
        let cmp = compare_flat_vs_dynamic(&nl, &lib, &pl, &GridModel::default());
        penalties.push((cmp.flat_penalty_pct, cmp.dynamic_penalty_pct));
        rows.push(vec![
            profile.into(),
            num(1_000.0 * cmp.worst_droop, 1),
            num(1_000.0 * cmp.mean_droop, 1),
            pct(cmp.flat_penalty_pct, 2),
            pct(cmp.dynamic_penalty_pct, 2),
            Cell::Num(cmp.recovered_pct(), 2, " pts"),
        ]);
    }
    let headers =
        "design | worst droop (mV) | mean droop (mV) | flat penalty | dynamic penalty | recovered";
    fig.table("Flat IR margin vs -dynamic analysis", headers, rows);

    // Activity sensitivity on one design.
    let nl = bench_netlist(&lib, "c5315", 2015);
    let pl = Placement::row_fill(&nl, &lib, 400, 2);
    let (mut rows, mut worst) = (Vec::new(), Vec::new());
    for activity in [0.05, 0.15, 0.30, 0.50] {
        let model = GridModel {
            activity,
            ..Default::default()
        };
        let grid = IrGrid::build(&nl, &lib, &pl, &model);
        worst.push(1_000.0 * grid.worst());
        rows.push(vec![
            num(activity, 2),
            num(1_000.0 * grid.worst(), 1),
            num(1_000.0 * grid.mean(), 1),
        ]);
    }
    let headers = "activity | worst droop (mV) | mean droop (mV)";
    fig.table("Droop vs switching activity (c5315)", headers, rows);
    fig.note("\n→ the flat margin must be sized for the worst tile at the worst mode;");
    fig.note("  -dynamic charges each path its own neighbourhood (the §1.3 detangling).");
    let holds = penalties.iter().all(|(flat, dynamic)| dynamic < flat) && rises(&worst);
    let d = format!("(flat, dynamic) penalty %: {penalties:.2?}; worst droop {worst:.1?} mV");
    fig.claim(
        "dynamic_charges_less_than_the_flat_rug_and_droop_grows",
        holds,
        d,
    );
    fig
}

/// §3.4 / ref \[23\] — margin recovery over the setup–hold–c2q surface
/// of 200 flop boundaries (paper: up to ~130 ps at 65 nm).
pub fn tbl_margin_recovery() -> Figure {
    let mut fig = Figure::new("tbl_margin_recovery");
    let mut rng = Rng::seed_from(2015);
    // A population of boundaries: incoming slacks with a violating tail,
    // outgoing slacks mostly comfortable (the unbalance recovery needs).
    let boundaries: Vec<FlopBoundary> = (0..200)
        .map(|i| {
            let slack_in = rng.normal(40.0, 60.0) - 30.0;
            let slack_out = rng.normal(120.0, 80.0).max(-40.0);
            let mut interdep = InterdepModel::typical_65nm();
            interdep.tau_s = rng.uniform_in(10.0, 30.0);
            FlopBoundary {
                name: format!("ff{i}"),
                slack_in: Ps::new(slack_in),
                slack_out: Ps::new(slack_out),
                interdep,
                char_pushout: 1.10,
            }
        })
        .collect();
    let result = recover_margin(&boundaries);
    let gain = result.gain().value();
    fig.note(format!(
        "boundaries: {} | WNS before: {:.1} ps | WNS after: {:.1} ps | gain: {gain:.1} ps",
        boundaries.len(),
        result.wns_before.value(),
        result.wns_after.value(),
    ));

    // Top recoveries.
    let moved = |i: usize| (result.boundaries[i].after - result.boundaries[i].before).value();
    let mut idx: Vec<usize> = (0..result.boundaries.len()).collect();
    idx.sort_by(|&a, &b| moved(b).total_cmp(&moved(a)));
    let rows = idx.iter().take(10).map(|&i| {
        let b = &result.boundaries[i];
        vec![
            boundaries[i].name.as_str().into(),
            num(b.before.value(), 1),
            num(b.after.value(), 1),
            num(b.setup_credit.value(), 1),
            num(b.c2q_cost.value(), 1),
        ]
    });
    let headers = "flop | min slack before | after | setup credit | c2q cost";
    fig.table("Top boundary recoveries", headers, rows.collect());
    let improved = idx.iter().filter(|&&i| moved(i) > 0.0).count();
    let worsened = idx.iter().filter(|&&i| moved(i) < 0.0).count();
    fig.note(format!(
        "\nboundaries improved: {improved}/{}",
        boundaries.len()
    ));
    fig.note("(paper scale: up to ~130 ps worst-slack gain at 65 nm)");
    let holds = gain > 0.0 && gain <= 130.0 && worsened == 0;
    let d = format!("WNS gain {gain:.1} ps; {improved} boundaries improved, {worsened} worsened");
    fig.claim(
        "recovery_gains_up_to_paper_scale_and_no_boundary_loses",
        holds,
        d,
    );
    fig
}

/// §3.1 — flat OCV, AOCV, POCV and LVF predictions of the ±3σ path delay
/// vs Monte Carlo truth; LVF tracks MC best, on both sides.
pub fn tbl_model_accuracy() -> Figure {
    let mut fig = Figure::new("tbl_model_accuracy");
    let aocv = AocvTable::from_stage_sigma(0.05);
    let pocv = PocvSigma::standard();
    let (mut rows, mut errors) = (Vec::new(), Vec::new());
    for (label, stages, sigma, skew) in [
        ("short, symmetric", 4usize, 0.05, 0.0),
        ("short, skewed", 4, 0.06, 4.0),
        ("medium, skewed", 12, 0.06, 4.0),
        ("deep, skewed", 24, 0.05, 3.0),
        ("deep, symmetric", 32, 0.05, 0.0),
    ] {
        let path = PathModel::uniform(stages, 20.0, sigma, skew);
        let row = model_accuracy(&path, &aocv, &pocv, 60_000, 2015);
        let (e_flat, e_aocv, e_pocv, e_lvf) = row.errors_pct();
        errors.push((e_flat, e_lvf));
        let errs = [e_flat, e_aocv, e_pocv, e_lvf].map(|e| pct(e, 2));
        rows.push(
            [
                vec![label.into(), stages.into(), num(row.mc_late, 1)],
                errs.to_vec(),
            ]
            .concat(),
        );
    }
    let title = "Late (+3σ) path-delay prediction error vs Monte Carlo truth";
    fig.table(
        title,
        "path | stages | MC +3σ (ps) | flat OCV | AOCV | POCV | LVF",
        rows,
    );

    // The early side: only LVF's split sigmas capture the asymmetry.
    let path = PathModel::uniform(12, 20.0, 0.06, 4.0);
    let row = model_accuracy(&path, &aocv, &pocv, 60_000, 2016);
    let e_early = 100.0 * (row.lvf_early - row.mc_early) / row.mc_early;
    fig.note(format!(
        "\nearly (−3σ) on the skewed 12-stage path: MC {:.1} ps | LVF-early {:.1} ps ({e_early:+.2}%)",
        row.mc_early, row.lvf_early,
    ));
    fig.note(format!(
        "late-tail excess over early deficit: {:.1} ps vs {:.1} ps (Fig 7's asymmetry)",
        row.mc_late - row.nominal,
        row.nominal - row.mc_early
    ));
    // LVF within 2% of Monte Carlo on every path and on the early side,
    // and closer than flat OCV on every path.
    let lvf_close = errors
        .iter()
        .all(|(flat, lvf)| lvf.abs() < 2.0 && lvf.abs() < flat.abs());
    let d = format!("(flat OCV, LVF) late error %: {errors:.2?}; LVF early {e_early:+.2}%");
    fig.claim(
        "lvf_within_2pct_of_mc_and_beats_flat_ocv",
        lvf_close && e_early.abs() < 2.0,
        d,
    );
    fig
}

/// §1 / §1.3 — the "several hundred manual noise fixes": glitch-noise
/// violations per BEOL corner on a wire-stressed c5315, then closure at
/// Cc-worst. Hold padding runs in `examples/tapeout_march.rs`.
pub fn tbl_noise_hold() -> Figure {
    let mut fig = Figure::new("tbl_noise_hold");
    let (lib, stack) = standard_env();
    let mut nl = bench_netlist(&lib, "c5315", 2015);
    // Stress the routing: stretch a tenth of the nets.
    let mut rng = Rng::seed_from(77);
    for i in 0..nl.net_count() {
        if rng.chance(0.10) {
            nl.set_wire_length(NetId::new(i), rng.uniform_in(200.0, 600.0));
        }
    }
    let cfg = NoiseConfig::default();
    let (mut rows, mut counts) = (Vec::new(), Vec::new());
    for corner in [BeolCorner::Typical, BeolCorner::CcWorst] {
        let v = noise_check(&nl, &lib, &stack, corner, &cfg);
        let worst = Cell::Num(
            100.0 * v.first().map_or(0.0, |x| x.glitch_frac),
            1,
            "% of VDD",
        );
        counts.push(v.len());
        rows.push(vec![corner.to_string().into(), v.len().into(), worst]);
    }
    let title = "Glitch-noise violations before fixing (30% margin)";
    fig.table(title, "corner | violations | worst glitch", rows);
    let before = noise_check(&nl, &lib, &stack, BeolCorner::CcWorst, &cfg).len();
    let out = noise_fix_pass(&mut nl, &lib, &stack, &cfg, 1_000).expect("noise fix");
    let after = noise_check(&nl, &lib, &stack, BeolCorner::CcWorst, &cfg).len();
    fig.note(format!(
        "\nnoise fixing: {before} violations → {after} after {} ECOs (spacing NDRs + driver upsizes)",
        out.edits
    ));
    fig.note("(the paper counts \"several hundred manual noise and DRC fixes\" per tapeout)");
    let holds = counts[1] > counts[0] && before.saturating_sub(after) >= 200;
    let d = format!(
        "violations typ {}, Ccw {}; fixed {before} → {after}",
        counts[0], counts[1]
    );
    fig.claim(
        "coupling_corner_is_worst_and_fixing_removes_hundreds",
        holds,
        d,
    );
    fig
}

/// Footnote 7 — "new game, old goalposts": STA gates on slack, but the
/// product ships with parametric yield; both across a period sweep.
pub fn tbl_yield_slack() -> Figure {
    let mut fig = Figure::new("tbl_yield_slack");
    let (lib, stack) = standard_env();
    let nl = bench_netlist(&lib, "c5315", 2015);

    // Period sweep: watch WNS cross zero while yield degrades smoothly.
    let probe = Constraints::single_clock(5_000.0);
    let base = Sta::new(&nl, &lib, &stack, &probe).run().expect("sta");
    let crit = 5_000.0 - base.wns().value();
    let ymodel = YieldModel { sigma_ps: 25.0 };
    let (mut rows, mut yields, mut at_zero) = (Vec::new(), Vec::new(), (0, 0.0));
    for margin in [120.0, 80.0, 40.0, 20.0, 0.0, -20.0, -40.0] {
        let cons = Constraints::single_clock(crit + margin);
        let r = Sta::new(&nl, &lib, &stack, &cons).run().expect("sta");
        let (viol, y) = (r.setup_violations(), 100.0 * ymodel.chip_yield(&r));
        yields.push(y);
        if margin == 0.0 {
            at_zero = (viol, y);
        }
        rows.push(vec![
            num(crit + margin, 0),
            num(r.wns().value(), 1),
            viol.into(),
            pct(y, 2),
        ]);
    }
    let title = "Slack goalpost vs yield goalpost (σ = 25 ps per endpoint)";
    fig.table(
        title,
        "period (ps) | WNS (ps) | violations | parametric yield",
        rows,
    );
    fig.note("\n→ WNS = 0 is a cliff for the slack goalpost but a ~50% coin-flip per");
    fig.note("  critical endpoint for yield; 'sigmas are unstable' (footnote 7).");

    // The AVS signoff-strategy comparison of §1.3.
    let gain = SignoffStrategy::avs_gain_pct(Ps::new(1_000.0), 1.25, Ps::new(50.0), 20.0);
    fig.note(format!(
        "\nsignoff-at-typical + AVS vs worst-case signoff: +{gain:.1}% path budget\n(25% corner inflation, 50 ps flat margin, 20% AVS headroom)"
    ));
    // Yield falls at every step while the slack goalpost still passes
    // at WNS 0 with under 50% yield; AVS signoff buys path budget.
    let holds = falls(&yields) && at_zero.0 == 0 && at_zero.1 < 50.0 && gain > 0.0;
    let d = format!("yield % per step: {yields:.2?}; at WNS 0: {at_zero:.2?}; AVS +{gain:.1}%");
    fig.claim("yield_not_slack_is_the_goalpost", holds, d);
    fig
}
