//! The closure iteration driver — Fig 1's five-iteration loop.

use tc_core::error::Result;
use tc_core::units::Ps;
use tc_interconnect::BeolStack;
use tc_liberty::Library;
use tc_netlist::Netlist;
use tc_sta::report::{setup_violations, tns, wns};
use tc_sta::{Constraints, Timer, TimingReport};

use crate::fixes::{
    apply_buffering, plan_buffering, plan_ndr, plan_sizing, plan_vt_swaps, FixKind, FixOutcome,
};

/// Loop configuration.
#[derive(Clone, Debug)]
pub struct ClosureConfig {
    /// Iteration cap — the schedule: "three weeks for the final pass
    /// permits five three-day repair and signoff analysis iterations".
    pub max_iterations: usize,
    /// Worst paths examined per fix pass.
    pub k_paths: usize,
    /// ECO budget per fix pass per iteration.
    pub budget_per_pass: usize,
    /// Fix ordering (ablate against [`FixKind::RECOMMENDED`]).
    pub ordering: Vec<FixKind>,
}

/// Useful-skew step when that fix runs.
const SKEW_STEP: Ps = Ps::new(10.0);
/// Days charged per iteration in the schedule model — the paper's
/// "five three-day repair and signoff analysis iterations".
const DAYS_PER_ITERATION: f64 = 3.0;

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig {
            max_iterations: 5,
            k_paths: 25,
            budget_per_pass: 60,
            ordering: FixKind::RECOMMENDED.to_vec(),
        }
    }
}

/// One iteration's record.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Iteration number, 1-based.
    pub iteration: usize,
    /// WNS entering the iteration.
    pub wns_before: Ps,
    /// WNS after the iteration's fixes.
    pub wns_after: Ps,
    /// TNS after.
    pub tns_after: Ps,
    /// Setup violations after.
    pub violations_after: usize,
    /// `(fix, edits)` applied this iteration.
    pub fixes: Vec<(FixKind, usize)>,
    /// Wall-clock time of the iteration, ms.
    pub elapsed_ms: f64,
    /// Engine counter deltas over the iteration (e.g. how many
    /// `sta.arcs_evaluated` this iteration cost), sorted by name. Empty
    /// when `tc_obs` is disabled.
    pub counter_deltas: Vec<(String, u64)>,
    /// Span wall-time growth over the iteration, `(path, ns)` sorted by
    /// path (e.g. where inside `closure.iteration` the time went —
    /// which fix pass, how much re-timing). Empty when `tc_obs` is
    /// disabled.
    pub span_ns_deltas: Vec<(String, u64)>,
}

impl IterationRecord {
    /// A named counter's delta over this iteration (0 if absent).
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counter_deltas
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// The full run's outcome.
#[derive(Clone, Debug)]
pub struct ClosureOutcome {
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Final report: the run's timer rows at the end, handed over
    /// without a copy (the loop itself only ever borrows them).
    pub final_report: TimingReport,
    /// The (possibly skew-adjusted) constraints after closure.
    pub constraints: Constraints,
    /// Whether the design closed (setup and hold clean).
    pub closed: bool,
    /// Schedule consumed, days.
    pub days: f64,
    /// Warning-severity findings from the pre-flight lint gate (error
    /// findings abort the run instead of appearing here).
    pub lint_findings: Vec<tc_lint::Diagnostic>,
}

/// The closure flow engine.
pub struct ClosureFlow<'a> {
    lib: &'a Library,
    stack: &'a BeolStack,
    config: ClosureConfig,
}

impl<'a> ClosureFlow<'a> {
    /// Creates a flow over a library/stack environment.
    pub fn new(lib: &'a Library, stack: &'a BeolStack, config: ClosureConfig) -> Self {
        ClosureFlow { lib, stack, config }
    }

    /// Runs the loop, editing `nl` (and the clock tree inside the
    /// returned constraints) in place. One persistent [`Timer`] lives
    /// across all iterations; each fix pass is one [`tc_sta::Trial`]:
    /// applied through the journaled ECO mutators, re-timed over its
    /// dirty cone, and — if it regressed WNS — dropped, which rolls back
    /// the netlist and the timer in O(cone).
    ///
    /// # Errors
    ///
    /// Propagates STA failures; the pass that failed is rolled back
    /// first. Returns [`tc_core::error::Error::InvalidInput`] before any
    /// timing runs if the pre-flight lint gate finds error-severity
    /// defects.
    pub fn run(&mut self, nl: &mut Netlist, cons: Constraints) -> Result<ClosureOutcome> {
        let lint_findings = self.preflight(nl, &cons)?;
        let _run_span = tc_obs::span("closure.run");
        let edits_counter = tc_obs::counter("closure.edits");
        let mut timer = {
            let _sta = tc_obs::span("closure.sta");
            Timer::new(nl, self.lib, self.stack, cons)?
        };
        let mut iterations = Vec::new();
        for it in 1..=self.config.max_iterations {
            let iter_start = std::time::Instant::now();
            let counters_before = tc_obs::is_enabled().then(tc_obs::snapshot);
            let iter_span = tc_obs::span("closure.iteration");
            // No fix kind repairs hold: iterate only while there is setup
            // work (`closed` below still demands both).
            if setup_violations(timer.endpoints()) == 0 {
                break;
            }
            let wns_before = wns(timer.endpoints());
            let mut fixes = Vec::new();
            let mut wns_running = wns_before;
            for &kind in &self.config.ordering {
                // One trial per pass: apply it, re-time the dirty cone,
                // keep it only if WNS did not regress (the ping-pong guard
                // of §2.3). Dropping the trial — a rejection or an `Err` —
                // rolls back netlist and timer together.
                let mut trial = timer.trial(nl)?;
                let outcome = {
                    let _fix = tc_obs::span(&format!("closure.fix.{}", kind.label()));
                    let (nl, timer) = trial.parts();
                    self.plan_and_apply(kind, nl, timer)?
                };
                if outcome.edits == 0 {
                    fixes.push((kind, 0));
                    continue;
                }
                let check = {
                    let _sta = tc_obs::span("closure.sta");
                    trial.update()?;
                    wns(trial.timer().endpoints())
                };
                if check >= wns_running {
                    wns_running = check;
                    edits_counter.add(outcome.edits as u64);
                    fixes.push((kind, outcome.edits));
                    trial.commit();
                } else {
                    fixes.push((kind, 0));
                }
            }
            let wns_after = wns(timer.endpoints());
            let tns_after = tns(timer.endpoints());
            let violations_after = setup_violations(timer.endpoints());
            drop(iter_span);
            let (counter_deltas, span_ns_deltas) =
                counters_before.map_or_else(Default::default, |before| {
                    let now = tc_obs::snapshot();
                    (now.counter_deltas(&before), now.span_ns_deltas(&before))
                });
            iterations.push(IterationRecord {
                iteration: it,
                wns_before,
                wns_after,
                tns_after,
                violations_after,
                fixes,
                elapsed_ms: iter_start.elapsed().as_secs_f64() * 1e3,
                counter_deltas,
                span_ns_deltas,
            });
            // Ping-pong guard: a fully unproductive iteration means the
            // remaining violations need different medicine — stop rather
            // than thrash (§2.3's "without ping-pong effects").
            if wns_after <= wns_before + Ps::new(1e-9)
                && iterations.len() >= 2
                && fixes_were_empty(&iterations[iterations.len() - 1])
            {
                break;
            }
        }
        let final_report = timer.report(nl);
        let closed = final_report.is_clean();
        let days = iterations.len() as f64 * DAYS_PER_ITERATION;
        Ok(ClosureOutcome {
            iterations,
            final_report,
            constraints: timer.constraints().clone(),
            closed,
            days,
            lint_findings,
        })
    }

    /// The pre-flight lint gate: runs the graph-side `tc-lint` passes
    /// (cycles, dangling nets, constraint coverage) and rejects the run
    /// on any error-severity finding, returning the warnings. A design
    /// with unregistered feedback or unclocked registers would either
    /// fail levelization anyway or silently time garbage.
    fn preflight(&self, nl: &Netlist, cons: &Constraints) -> Result<Vec<tc_lint::Diagnostic>> {
        let _span = tc_obs::span("closure.preflight");
        let mut ctx = tc_lint::LintContext::new(nl, self.lib);
        ctx.constraints = Some(cons);
        let findings = tc_lint::run_lint(&tc_par::Pool::from_env(), &ctx);
        let (errors, warnings): (Vec<_>, Vec<_>) = findings
            .into_iter()
            .partition(|d| d.severity == tc_lint::Severity::Error);
        if let Some(first) = errors.first() {
            return Err(tc_core::error::Error::invalid_input(format!(
                "preflight lint: {} error(s), first: {}",
                errors.len(),
                first.render()
            )));
        }
        Ok(warnings)
    }

    /// Plans a fix from the timer's cached results and applies it through
    /// the journaled ECO mutators (useful skew: through the timer's own
    /// clock edit) — no STA run of its own.
    fn plan_and_apply(
        &self,
        kind: FixKind,
        nl: &mut Netlist,
        timer: &mut Timer<'_>,
    ) -> Result<FixOutcome> {
        let (k, b) = (self.config.k_paths, self.config.budget_per_pass);
        match kind {
            FixKind::VtSwap | FixKind::Sizing => {
                let paths = timer.worst_paths(nl, k)?;
                let plan = if kind == FixKind::VtSwap {
                    plan_vt_swaps(nl, self.lib, &paths, b, |_| true)
                } else {
                    plan_sizing(nl, self.lib, &paths, b)
                };
                for &(cell, master) in &plan {
                    nl.swap_master(self.lib, cell, master)?;
                }
                Ok(FixOutcome { edits: plan.len() })
            }
            FixKind::Buffering => {
                let paths = timer.worst_paths(nl, k)?;
                let plan = plan_buffering(nl, &paths, b / 6);
                apply_buffering(nl, self.lib, &plan).map(|edits| FixOutcome { edits })
            }
            FixKind::Ndr => {
                let paths = timer.worst_paths(nl, k)?;
                let plan = plan_ndr(nl, &paths, b / 3);
                let edits = plan.len();
                for net in plan {
                    nl.set_route_class(net, 2);
                }
                Ok(FixOutcome { edits })
            }
            FixKind::UsefulSkew => {
                // Timer edits, not netlist edits: each trial re-times its
                // own cone; kept moves stay on the timer's undo log.
                let moves = tc_clock::skew_on_timer(timer, nl, b / 10, SKEW_STEP)?;
                Ok(FixOutcome { edits: moves.len() })
            }
        }
    }

    /// Packages a finished run as a schema-versioned [`tc_obs::RunArtifact`]:
    /// the config knobs that shaped the loop, one JSON record per
    /// iteration (WNS/TNS trajectory, fix edits, wall clock, engine
    /// counter deltas), the closure verdict, and — when `tc_obs` is
    /// enabled — the full metrics snapshot plus, with memory counting
    /// armed, the heap telemetry section. Harnesses write this next to
    /// their figure sidecars so `tcdiff` can gate any two runs.
    pub fn run_artifact(&self, workload: &str, out: &ClosureOutcome) -> tc_obs::RunArtifact {
        use tc_obs::JsonValue;
        let wall_ms: f64 = out.iterations.iter().map(|r| r.elapsed_ms).sum();
        let mut artifact = tc_obs::RunArtifact::new(workload)
            .knob("max_iterations", self.config.max_iterations)
            .knob("k_paths", self.config.k_paths)
            .knob("budget_per_pass", self.config.budget_per_pass)
            .wall_ms(wall_ms)
            .extra("closed", JsonValue::from(out.closed))
            .extra("days", JsonValue::from(out.days))
            .extra(
                "final_wns_ps",
                JsonValue::from(out.final_report.wns().value()),
            )
            .extra(
                "final_tns_ps",
                JsonValue::from(out.final_report.tns().value()),
            )
            .extra("lint", lint_section(&out.lint_findings));
        for rec in &out.iterations {
            let fixes = rec
                .fixes
                .iter()
                .map(|(kind, edits)| {
                    JsonValue::Obj(vec![
                        ("fix".to_string(), JsonValue::str(kind.label())),
                        ("edits".to_string(), JsonValue::from(*edits)),
                    ])
                })
                .collect();
            let counters = rec
                .counter_deltas
                .iter()
                .map(|(name, v)| (name.clone(), JsonValue::from(*v)))
                .collect();
            let span_ns = rec
                .span_ns_deltas
                .iter()
                .map(|(path, v)| (path.clone(), JsonValue::from(*v)))
                .collect();
            artifact = artifact.iteration(JsonValue::Obj(vec![
                ("iteration".to_string(), JsonValue::from(rec.iteration)),
                (
                    "wns_before_ps".to_string(),
                    JsonValue::from(rec.wns_before.value()),
                ),
                (
                    "wns_after_ps".to_string(),
                    JsonValue::from(rec.wns_after.value()),
                ),
                (
                    "tns_after_ps".to_string(),
                    JsonValue::from(rec.tns_after.value()),
                ),
                (
                    "violations_after".to_string(),
                    JsonValue::from(rec.violations_after),
                ),
                ("fixes".to_string(), JsonValue::Arr(fixes)),
                ("elapsed_ms".to_string(), JsonValue::from(rec.elapsed_ms)),
                ("counter_deltas".to_string(), JsonValue::Obj(counters)),
                ("span_ns".to_string(), JsonValue::Obj(span_ns)),
            ]));
        }
        if tc_obs::is_enabled() {
            artifact = artifact.metrics(tc_obs::snapshot());
        }
        // No-op unless the counting allocator is armed, so artifacts
        // from uninstrumented runs stay byte-stable.
        artifact.capture_memory()
    }
}

fn fixes_were_empty(rec: &IterationRecord) -> bool {
    rec.fixes.iter().all(|&(_, n)| n == 0)
}

/// The artifact's `lint` section: finding counts plus the first few
/// findings verbatim (capped so a noisy design cannot bloat the
/// artifact — the full list lives in [`ClosureOutcome::lint_findings`]).
fn lint_section(findings: &[tc_lint::Diagnostic]) -> tc_obs::JsonValue {
    use tc_obs::JsonValue;
    const EMBED_CAP: usize = 20;
    JsonValue::obj([
        ("warnings", JsonValue::from(findings.len())),
        (
            "findings",
            JsonValue::Arr(
                findings
                    .iter()
                    .take(EMBED_CAP)
                    .map(tc_lint::Diagnostic::to_json)
                    .collect(),
            ),
        ),
        (
            "truncated",
            JsonValue::from(findings.len().saturating_sub(EMBED_CAP)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};
    use tc_sta::Sta;

    fn env(margin: f64) -> (Library, BeolStack, Netlist, Constraints) {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = generate(&lib, BenchProfile::tiny(), 33).unwrap();
        let stack = BeolStack::n20();
        let probe = Constraints::single_clock(5_000.0);
        let r = Sta::new(&nl, &lib, &stack, &probe).run().unwrap();
        let period = 5_000.0 - r.wns().value() + margin;
        (lib, stack, nl, Constraints::single_clock(period))
    }

    #[test]
    fn loop_improves_timing_iteration_over_iteration() {
        // Constrain 50 ps beyond current capability.
        let (lib, stack, mut nl, cons) = env(-50.0);
        let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
        let out = flow.run(&mut nl, cons).unwrap();
        assert!(!out.iterations.is_empty());
        let first = &out.iterations[0];
        assert!(
            first.wns_after > first.wns_before,
            "iteration 1 must improve WNS: {} → {}",
            first.wns_before,
            first.wns_after
        );
        // WNS is monotone over iterations (each records its own start).
        for w in out.iterations.windows(2) {
            assert!(w[1].wns_before >= w[0].wns_after - Ps::new(1e-6));
        }
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn mild_violation_closes_within_schedule() {
        let (lib, stack, mut nl, cons) = env(-25.0);
        let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
        let out = flow.run(&mut nl, cons).unwrap();
        assert!(
            out.closed,
            "25 ps violation should close: final {}",
            out.final_report.summary()
        );
        assert!(out.days <= 15.0, "within the 5-iteration schedule");
    }

    #[test]
    fn clean_design_takes_zero_iterations() {
        let (lib, stack, mut nl, cons) = env(100.0);
        let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
        let out = flow.run(&mut nl, cons).unwrap();
        assert!(out.closed);
        assert!(out.iterations.is_empty());
        assert_eq!(out.days, 0.0);
    }

    #[test]
    fn hold_only_design_takes_zero_iterations_and_stays_open() {
        // ff0 → ff1 directly, capture clock 60 ps late: a hold violation
        // and nothing else. No fix kind repairs hold, so the loop has no
        // work to do and must not charge schedule for trying.
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let stack = BeolStack::n20();
        let mut nl = Netlist::new("holdcase");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let dff = lib.variant("DFF", tc_device::VtClass::Svt, 1.0).unwrap();
        let (_, q) = nl.add_cell("ff0", &lib, dff, &[d, clk]).unwrap();
        let (ff1, q1) = nl.add_cell("ff1", &lib, dff, &[q, clk]).unwrap();
        nl.mark_output(q1);
        let mut cons = Constraints::single_clock(2_000.0);
        cons.clock_tree.skew_by(ff1, Ps::new(60.0));

        let out = ClosureFlow::new(&lib, &stack, ClosureConfig::default())
            .run(&mut nl, cons)
            .unwrap();
        let r = &out.final_report;
        assert_eq!((r.setup_violations(), r.hold_violations()), (0, 1));
        assert!(out.iterations.is_empty());
        assert_eq!(out.days, 0.0);
        assert!(!out.closed);
    }

    #[test]
    fn skew_moves_kept_by_the_loop_match_a_from_scratch_run() {
        // Useful skew alone: every kept move is a timer edit re-timed
        // over its own cone, and the returned constraints carry it.
        let (lib, stack, mut nl, cons) = env(-40.0);
        let cfg = ClosureConfig {
            max_iterations: 2,
            ordering: vec![FixKind::UsefulSkew],
            ..Default::default()
        };
        let journal_len = nl.journal_len();
        let out = ClosureFlow::new(&lib, &stack, cfg)
            .run(&mut nl, cons)
            .unwrap();
        assert_eq!(nl.journal_len(), journal_len, "no netlist edit");
        let kept: usize = out.iterations.iter().map(|r| r.fixes[0].1).sum();
        assert!(kept > 0, "the loop must keep at least one skew move");
        let skewed: Ps = out.constraints.clock_tree.leaf.values().copied().sum();
        assert_eq!(skewed, Ps::new(10.0 * kept as f64), "one step per move");
        let fresh = Sta::new(&nl, &lib, &stack, &out.constraints).run().unwrap();
        assert_eq!(fresh.endpoints, out.final_report.endpoints);
    }

    #[test]
    fn outcome_matches_a_from_scratch_run_on_the_edited_netlist() {
        // The loop only ever re-times dirty cones; its final report must
        // still be what a fresh analysis of the edited design computes.
        let (lib, stack, mut nl, cons) = env(-40.0);
        let cfg = ClosureConfig {
            max_iterations: 2,
            ..Default::default()
        };
        let out = ClosureFlow::new(&lib, &stack, cfg)
            .run(&mut nl, cons)
            .unwrap();
        assert!(out.iterations.iter().any(|r| !fixes_were_empty(r)));
        let fresh = Sta::new(&nl, &lib, &stack, &out.constraints).run().unwrap();
        assert_eq!(fresh.endpoints, out.final_report.endpoints);
    }

    #[test]
    fn rejected_fixes_roll_back_netlist_and_timer_exactly() {
        use tc_sta::Timer;
        // Evaluate-and-reject every fix kind against a *clean* design:
        // each pass plans nothing or the rejection path must restore the
        // exact pre-fix netlist + timer state (journal length, graph, net
        // states, wire timings, endpoint rows).
        let (lib, stack, mut nl, cons) = env(-40.0);
        let cfg = ClosureConfig::default();
        let flow = ClosureFlow::new(&lib, &stack, cfg.clone());
        let mut timer = Timer::new(&nl, &lib, &stack, cons).unwrap();

        for &kind in &FixKind::RECOMMENDED {
            let nl_cp = nl.journal_len();
            let cells_before = nl.cell_count();
            let before = timer.state().clone();

            let mut trial = timer.trial(&mut nl).unwrap();
            let (trial_nl, trial_timer) = trial.parts();
            let out = flow.plan_and_apply(kind, trial_nl, trial_timer).unwrap();
            trial.update().unwrap();
            // Unconditionally reject, regardless of what the fix did.
            drop(trial);

            assert_eq!(nl.journal_len(), nl_cp, "{kind:?}: journal restored");
            assert_eq!(nl.cell_count(), cells_before, "{kind:?}: cells restored");
            assert_eq!(timer.cursor(), nl.journal_len(), "{kind:?}: cursor synced");
            assert!(timer.state() == &before, "{kind:?}: timing state restored");
            // The fix kinds must actually exercise the rollback path at
            // least for the edit-producing passes.
            if out.edits > 0 {
                nl.validate(&lib).unwrap();
            }
        }
    }

    #[test]
    fn preflight_gate_rejects_unclocked_design_before_any_sta() {
        let (lib, stack, mut nl, mut cons) = env(-25.0);
        cons.clocks.clear();
        let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
        let err = flow.run(&mut nl, cons).unwrap_err().to_string();
        assert!(err.contains("preflight lint"), "{err}");
        assert!(err.contains("TCL0201"), "{err}");
    }

    #[test]
    fn preflight_warnings_ride_into_outcome_and_artifact() {
        let (lib, stack, mut nl, cons) = env(100.0);
        // Generated designs carry dangling gate outputs → TCL0104
        // warnings, which must not gate but must be reported.
        let mut flow = ClosureFlow::new(&lib, &stack, ClosureConfig::default());
        let out = flow.run(&mut nl, cons).unwrap();
        assert!(out.closed);
        assert!(!out.lint_findings.is_empty());
        assert!(out
            .lint_findings
            .iter()
            .all(|d| d.severity == tc_lint::Severity::Warning));
        let text = flow.run_artifact("flow_test lint", &out).render();
        assert!(text.contains("\"lint\""), "{text}");
        assert!(text.contains("TCL0104"), "{text}");
    }

    #[test]
    fn run_artifact_captures_knobs_trajectory_and_verdict() {
        let (lib, stack, mut nl, cons) = env(-40.0);
        let cfg = ClosureConfig {
            max_iterations: 2,
            ..Default::default()
        };
        let mut flow = ClosureFlow::new(&lib, &stack, cfg);
        let out = flow.run(&mut nl, cons).unwrap();
        let artifact = flow.run_artifact("flow_test tiny", &out);
        let text = artifact.render();
        let doc = tc_obs::JsonValue::parse(&text).expect("artifact renders valid JSON");
        let tc_obs::JsonValue::Obj(fields) = &doc else {
            panic!("artifact is not an object");
        };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        assert_eq!(
            get("schema_version"),
            Some(&tc_obs::JsonValue::from(
                tc_obs::RUN_ARTIFACT_SCHEMA_VERSION
            ))
        );
        assert_eq!(
            get("kind"),
            Some(&tc_obs::JsonValue::str(tc_obs::RUN_ARTIFACT_KIND))
        );
        let Some(tc_obs::JsonValue::Obj(knobs)) = get("knobs") else {
            panic!("artifact has no knobs object");
        };
        for knob in ["max_iterations", "k_paths", "TC_PAR_THREADS"] {
            assert!(knobs.iter().any(|(k, _)| k == knob), "missing knob {knob}");
        }
        let Some(tc_obs::JsonValue::Arr(iters)) = get("iterations") else {
            panic!("artifact has no iterations array");
        };
        assert_eq!(iters.len(), out.iterations.len());
        assert_eq!(
            get("closed"),
            Some(&tc_obs::JsonValue::from(out.closed)),
            "closure verdict is recorded"
        );
        assert_eq!(
            get("final_wns_ps"),
            Some(&tc_obs::JsonValue::from(out.final_report.wns().value()))
        );
    }

    #[test]
    fn recommended_order_beats_or_matches_reversed_on_cheap_fixes() {
        // Ablation: same budget, recommended vs reversed ordering. The
        // recommended order applies cheap high-leverage fixes first, so
        // after one iteration its WNS should be at least as good.
        let (lib, stack, nl, cons) = env(-40.0);
        let run = |ordering: Vec<FixKind>| {
            let mut nl2 = nl.clone();
            let cfg = ClosureConfig {
                max_iterations: 1,
                ordering,
                ..Default::default()
            };
            let mut flow = ClosureFlow::new(&lib, &stack, cfg);
            flow.run(&mut nl2, cons.clone()).unwrap().final_report.wns()
        };
        let rec = run(FixKind::RECOMMENDED.to_vec());
        let mut reversed = FixKind::RECOMMENDED.to_vec();
        reversed.reverse();
        let rev = run(reversed);
        assert!(
            rec >= rev - Ps::new(5.0),
            "recommended {rec} vs reversed {rev}"
        );
    }
}
