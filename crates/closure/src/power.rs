//! Post-closure leakage recovery.
//!
//! Once timing is met, cells with slack to spare are walked back *down*
//! the Vt ladder (LVT → SVT → HVT), cutting leakage exponentially at
//! zero footprint cost. This is the mirror image of the Vt-swap timing
//! fix — and the step MinIA rules interfere with at 20 nm (§2.4), which
//! is why the pass takes a placement veto.

use tc_core::error::Result;
use tc_core::ids::CellId;
use tc_core::units::Ps;
use tc_interconnect::BeolStack;
use tc_liberty::Library;
use tc_netlist::Netlist;
use tc_sta::{Constraints, Sta};

/// Result of a leakage-recovery pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LeakageRecovery {
    /// Cells moved to a slower Vt.
    pub swaps: usize,
    /// Leakage before, µW.
    pub leakage_before_uw: f64,
    /// Leakage after, µW.
    pub leakage_after_uw: f64,
    /// WNS after (must remain non-negative).
    pub wns_after: Ps,
}

impl LeakageRecovery {
    /// Fractional leakage saving.
    pub fn saving(&self) -> f64 {
        if self.leakage_before_uw <= 0.0 {
            0.0
        } else {
            1.0 - self.leakage_after_uw / self.leakage_before_uw
        }
    }
}

/// Walks non-critical cells down the Vt ladder in batches, keeping each
/// batch only if timing stays clean. `placement_veto` returns `false`
/// for swaps the placement (MinIA) cannot absorb.
///
/// # Errors
///
/// Propagates STA failures.
pub fn recover_leakage(
    nl: &mut Netlist,
    lib: &Library,
    stack: &BeolStack,
    cons: &Constraints,
    batch: usize,
    mut placement_veto: impl FnMut(CellId) -> bool,
) -> Result<LeakageRecovery> {
    let leakage_before_uw = nl.total_leakage_uw(lib);
    let base = Sta::new(nl, lib, stack, cons).run()?;
    if !base.is_clean() {
        return Ok(LeakageRecovery {
            swaps: 0,
            leakage_before_uw,
            leakage_after_uw: leakage_before_uw,
            wns_after: base.wns(),
        });
    }

    // Candidates: leakiest first (biggest payoff per swap).
    let mut candidates: Vec<CellId> = (0..nl.cell_count()).map(CellId::new).collect();
    candidates.sort_by(|&a, &b| {
        let la = lib.cell(nl.cell(a).master).leakage_uw;
        let lb = lib.cell(nl.cell(b).master).leakage_uw;
        lb.total_cmp(&la)
    });

    let mut swaps = 0;
    let mut wns_after = base.wns();
    let mut idx = 0;
    let mut cur_batch = batch.max(1);
    while idx < candidates.len() {
        // Try a batch.
        let nl_cp = nl.journal_len();
        let mut applied = 0;
        let start_idx = idx;
        while applied < cur_batch && idx < candidates.len() {
            let c = candidates[idx];
            idx += 1;
            if !placement_veto(c) {
                continue;
            }
            if let Some(slower) = lib.vt_slower(nl.cell(c).master) {
                nl.swap_master(lib, c, slower)?;
                applied += 1;
            }
        }
        if applied == 0 {
            break;
        }
        let report = Sta::new(nl, lib, stack, cons).run()?;
        if report.is_clean() {
            swaps += applied;
            wns_after = report.wns();
        } else {
            // Roll the batch back. A failed large batch often hides many
            // individually-safe swaps: halve the batch and retry the same
            // candidates; only stop once single swaps fail.
            nl.undo_to(nl_cp)?;
            if cur_batch == 1 {
                break;
            }
            cur_batch /= 2;
            idx = start_idx;
        }
    }

    // Rejected batches were undone, so the last clean report stands.
    Ok(LeakageRecovery {
        swaps,
        leakage_before_uw,
        leakage_after_uw: nl.total_leakage_uw(lib),
        wns_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_liberty::{LibConfig, PvtCorner};
    use tc_netlist::gen::{generate, BenchProfile};

    fn env() -> (Library, BeolStack, Netlist) {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nl = generate(&lib, BenchProfile::tiny(), 44).unwrap();
        (lib, BeolStack::n20(), nl)
    }

    #[test]
    fn recovery_cuts_leakage_without_breaking_timing() {
        let (lib, stack, mut nl) = env();
        let cons = Constraints::single_clock(3_000.0); // generous
        let rec = recover_leakage(&mut nl, &lib, &stack, &cons, 20, |_| true).unwrap();
        assert!(rec.swaps > 0, "relaxed design must allow downswaps");
        assert!(
            rec.saving() > 0.2,
            "HVT swap should cut leakage hard: {:.1}%",
            100.0 * rec.saving()
        );
        assert!(rec.wns_after >= Ps::ZERO, "timing must stay clean");
        nl.validate(&lib).unwrap();
    }

    #[test]
    fn tight_timing_limits_recovery() {
        let (lib, stack, mut nl) = env();
        // Find a just-passing period.
        let probe = Constraints::single_clock(5_000.0);
        let r = Sta::new(&nl, &lib, &stack, &probe).run().unwrap();
        let tight = Constraints::single_clock(5_000.0 - r.wns().value() + 5.0);
        let rec_tight = recover_leakage(&mut nl, &lib, &stack, &tight, 20, |_| true).unwrap();
        let mut nl2 = generate(&lib, BenchProfile::tiny(), 44).unwrap();
        let relaxed = Constraints::single_clock(3_000.0);
        let rec_relaxed = recover_leakage(&mut nl2, &lib, &stack, &relaxed, 20, |_| true).unwrap();
        assert!(
            rec_relaxed.saving() > rec_tight.saving(),
            "slack buys leakage: {:.2} vs {:.2}",
            rec_relaxed.saving(),
            rec_tight.saving()
        );
        assert!(rec_tight.wns_after >= Ps::ZERO);
    }

    #[test]
    fn rejected_batch_leaves_no_journal_entries() {
        let (lib, stack, mut nl) = env();
        let probe = Constraints::single_clock(5_000.0);
        let r = Sta::new(&nl, &lib, &stack, &probe).run().unwrap();
        // Met by 1 ps: a 20-cell batch breaks timing and is rejected.
        let tight = Constraints::single_clock(5_000.0 - r.wns().value() + 1.0);
        let journal_len = nl.journal_len();
        let rec = recover_leakage(&mut nl, &lib, &stack, &tight, 20, |_| true).unwrap();
        assert!(rec.wns_after >= Ps::ZERO);
        // Every rejected batch (20, 10, .. 1) was undone, not re-swapped:
        // the journal grew by exactly the kept swaps.
        assert_eq!(nl.journal_len(), journal_len + rec.swaps);
        assert!(rec.swaps < 20, "the first batch must have been rejected");
    }

    #[test]
    fn violating_design_is_left_alone() {
        let (lib, stack, mut nl) = env();
        let cons = Constraints::single_clock(100.0); // hopeless
        let rec = recover_leakage(&mut nl, &lib, &stack, &cons, 20, |_| true).unwrap();
        assert_eq!(rec.swaps, 0);
        assert_eq!(rec.leakage_before_uw, rec.leakage_after_uw);
    }

    #[test]
    fn veto_gates_swaps() {
        let (lib, stack, mut nl) = env();
        let cons = Constraints::single_clock(3_000.0);
        let rec = recover_leakage(&mut nl, &lib, &stack, &cons, 20, |_| false).unwrap();
        assert_eq!(rec.swaps, 0);
    }
}
