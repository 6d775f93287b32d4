//! Levelization: logic levels of the combinational graph with flops as
//! sequential boundaries.
//!
//! STA visits cells in `(level, cell id)` order, so every cell is
//! evaluated after its drivers; generators use depth statistics for
//! their profiles. Flop outputs (Q) are treated as *start points* and flop
//! inputs (D) as *end points*, so registered feedback does not create
//! combinational cycles.

use tc_core::error::{Error, Result};
use tc_core::ids::CellId;
use tc_liberty::{CellKind, Library};

use crate::graph::Netlist;

/// The result of levelizing a netlist.
#[derive(Clone, Debug)]
pub struct Levelization {
    /// Logic level of each cell, indexed by cell id: 0 for a flop, and
    /// for a combinational cell one more than the highest level among its
    /// combinational drivers (1 when it has none). Every combinational
    /// driver of a combinational cell sits at a strictly lower level.
    pub level: Vec<u32>,
}

impl Levelization {
    /// Maximum combinational depth in the design.
    pub fn max_depth(&self) -> usize {
        self.level.iter().copied().max().unwrap_or(0) as usize
    }
}

/// Levelizes a netlist.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] if the combinational graph contains a
/// cycle (unregistered feedback). The message names the cells on each
/// offending cycle — extracted with the same SCC walk the tc-lint cycle
/// rule uses — so the failure is actionable instead of a bare count.
pub fn levelize(nl: &Netlist, lib: &Library) -> Result<Levelization> {
    let n = nl.cell_count();
    let mut indeg = vec![0usize; n];
    let mut is_flop = vec![false; n];
    for i in 0..n {
        let c = CellId::new(i);
        if lib_is_flop(nl, lib, c) {
            is_flop[i] = true;
            continue; // flops have no combinational fan-in dependency
        }
        for &input in nl.cell_inputs(c) {
            if let Some(drv) = nl.net_driver(input) {
                if !lib_is_flop(nl, lib, drv) {
                    indeg[i] += 1;
                }
            }
        }
    }

    // Kahn's algorithm over the combinational cells. Flops are level-0
    // start points and are placed up front: flop-driven pins were never
    // counted in `indeg`. A cell is ready once all its drivers are
    // placed, so its level is final when it is pushed, in any pop order.
    let mut level = vec![0u32; n];
    let mut placed = is_flop.iter().filter(|&&f| f).count();
    let mut ready: Vec<CellId> = Vec::new();
    for i in 0..n {
        if indeg[i] == 0 && !is_flop[i] {
            ready.push(CellId::new(i));
            // A gate whose fan-in is all PIs/flops sits one level in.
            level[i] = 1;
        }
    }
    while let Some(c) = ready.pop() {
        placed += 1;
        for sink in nl.net_sinks(nl.cell_output(c)) {
            let s = sink.cell;
            if is_flop[s.index()] {
                continue;
            }
            level[s.index()] = level[s.index()].max(level[c.index()] + 1);
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    if placed != n {
        // Only pay for SCC extraction on the failure path: the clean
        // path stays a single Kahn sweep.
        let sccs = crate::scc::combinational_sccs(nl, lib);
        let mut msg = format!(
            "combinational loop: {} of {} cells unplaced in topological order",
            n - placed,
            n
        );
        for comp in sccs.iter().take(3) {
            msg.push_str("; cycle through ");
            msg.push_str(&crate::scc::describe_scc(nl, comp));
        }
        if sccs.len() > 3 {
            msg.push_str(&format!("; and {} more cycle(s)", sccs.len() - 3));
        }
        return Err(Error::invalid_input(msg));
    }
    Ok(Levelization { level })
}

fn lib_is_flop(nl: &Netlist, lib: &Library, cell: CellId) -> bool {
    lib.cell(nl.cell_master(cell)).kind == CellKind::Flop
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_device::VtClass;
    use tc_liberty::{LibConfig, Library, PvtCorner};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    #[test]
    fn chain_depths_count_up() {
        let lib = lib();
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        let mut net = a;
        let mut cells = Vec::new();
        for i in 0..5 {
            let (c, out) = nl.add_cell(format!("i{i}"), &lib, inv, &[net]).unwrap();
            cells.push(c);
            net = out;
        }
        let lv = levelize(&nl, &lib).unwrap();
        assert_eq!(lv.max_depth(), 5);
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(lv.level[c.index()] as usize, i + 1);
        }
    }

    #[test]
    fn flops_break_cycles() {
        // Registered feedback: flop.Q → INV → flop.D must levelize fine.
        let lib = lib();
        let mut nl = Netlist::new("loop");
        let clk = nl.add_input("clk");
        let dff = lib.variant("DFF", VtClass::Svt, 1.0).unwrap();
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        // Build flop with a placeholder D, then rewire through the INV.
        let d_tmp = nl.add_input("d_tmp");
        let (_ff, q) = nl.add_cell("ff", &lib, dff, &[d_tmp, clk]).unwrap();
        let (_g, _gout) = nl.add_cell("g", &lib, inv, &[q]).unwrap();
        let lv = levelize(&nl, &lib).unwrap();
        assert_eq!(lv.level.len(), 2);
        // The flop is level 0; the inverter is level 1.
        let (ff, g) = (nl.cell_named("ff").unwrap(), nl.cell_named("g").unwrap());
        assert_eq!(lv.level[ff.index()], 0);
        assert_eq!(lv.level[g.index()], 1);
    }

    #[test]
    fn every_comb_driver_sits_at_a_strictly_lower_level() {
        // The invariant level-ordered timing builds on: a combinational
        // cell's level strictly exceeds that of every cell driving one of
        // its inputs (flops are level 0, combinational cells ≥ 1).
        let lib = lib();
        let nl = crate::gen::generate(&lib, crate::gen::BenchProfile::tiny(), 7).unwrap();
        let lv = levelize(&nl, &lib).unwrap();
        for (i, cell) in nl.cells().enumerate() {
            if lib.cell(cell.master).kind == CellKind::Flop {
                assert_eq!(lv.level[i], 0);
                continue;
            }
            for &input in cell.inputs {
                if let Some(drv) = nl.net(input).driver {
                    assert!(
                        lv.level[drv.index()] < lv.level[i],
                        "driver {} not below sink {}",
                        drv.index(),
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn detects_combinational_loop() {
        use crate::graph::PinRef;
        let lib = lib();
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let tmp = nl.add_input("tmp");
        let nand = lib.variant("NAND2", VtClass::Svt, 1.0).unwrap();
        let (u1, n1) = nl.add_cell("u1", &lib, nand, &[a, tmp]).unwrap();
        let (_u2, n2) = nl.add_cell("u2", &lib, nand, &[n1, n1]).unwrap();
        // Close the loop: u1 input 1 ← u2 output.
        nl.rewire_input(PinRef { cell: u1, pin: 1 }, n2);
        nl.validate(&lib).unwrap();
        let err = levelize(&nl, &lib).unwrap_err().to_string();
        // The failure is actionable: it names the cells on the cycle.
        assert!(err.contains("u1") && err.contains("u2"), "{err}");
    }
}
