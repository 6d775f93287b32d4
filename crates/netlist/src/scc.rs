//! Strongly-connected components of the combinational graph.
//!
//! Levelization can only report *that* unregistered feedback exists; the
//! cells actually forming the loop are what a designer (or the tc-lint
//! cycle rule) needs to fix it. This module extracts every non-trivial
//! SCC of the flop-bounded combinational graph with an iterative Tarjan
//! walk — O(cells + sinks) time, O(cells) scratch, no recursion, so it
//! is safe on the million-cell scale rungs.

use tc_core::ids::CellId;
use tc_liberty::{CellKind, Library};

use crate::graph::Netlist;

/// Sentinel for "not yet visited" in the Tarjan index column.
const UNVISITED: usize = usize::MAX;

/// Returns every non-trivial strongly-connected component of the
/// combinational graph: components with two or more cells, plus single
/// cells that drive one of their own inputs. Flops are sequential
/// boundaries — a path through a flop does not close a loop.
///
/// Each component is sorted by cell id and the components are ordered by
/// their smallest member, so output is deterministic for a given
/// netlist. An empty result means the graph levelizes.
pub fn combinational_sccs(nl: &Netlist, lib: &Library) -> Vec<Vec<CellId>> {
    let n = nl.cell_count();
    let is_flop: Vec<bool> = (0..n)
        .map(|i| lib.cell(nl.cell_master(CellId::new(i))).kind == CellKind::Flop)
        .collect();
    let sinks_of = |v: usize| nl.net_sinks(nl.cell_output(CellId::new(v)));

    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    // Explicit DFS frames (cell, next sink position) instead of
    // recursion: a 200k-deep combinational chain must not overflow the
    // thread stack just to be diagnosed.
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<CellId>> = Vec::new();

    for root in 0..n {
        if is_flop[root] || index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, child)) = frames.last() {
            if child == 0 && index[v] == UNVISITED {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let sinks = sinks_of(v);
            let mut ci = child;
            let mut descended = false;
            while ci < sinks.len() {
                let w = sinks[ci].cell.index();
                ci += 1;
                if is_flop[w] {
                    continue;
                }
                if index[w] == UNVISITED {
                    frames.last_mut().expect("frame exists").1 = ci;
                    frames.push((w, 0));
                    descended = true;
                    break;
                }
                if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if descended {
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp: Vec<CellId> = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack non-empty at root");
                    on_stack[w] = false;
                    comp.push(CellId::new(w));
                    if w == v {
                        break;
                    }
                }
                let self_loop = comp.len() == 1 && sinks.iter().any(|s| s.cell.index() == v);
                if comp.len() > 1 || self_loop {
                    comp.sort_by_key(|c| c.index());
                    sccs.push(comp);
                }
            }
        }
    }
    sccs.sort_by_key(|c| c[0].index());
    sccs
}

/// Renders one component as a bounded, human-readable cell list:
/// `3 cells: u1, u2, u3` (capped at eight names, with a `+k more`
/// suffix), so a pathological million-cell SCC cannot balloon an error
/// message.
pub fn describe_scc(nl: &Netlist, comp: &[CellId]) -> String {
    const MAX_NAMES: usize = 8;
    let names: Vec<&str> = comp
        .iter()
        .take(MAX_NAMES)
        .map(|&c| nl.cell(c).name)
        .collect();
    let mut out = format!(
        "{} cell{}: {}",
        comp.len(),
        if comp.len() == 1 { "" } else { "s" },
        names.join(", ")
    );
    if comp.len() > MAX_NAMES {
        out.push_str(&format!(" (+{} more)", comp.len() - MAX_NAMES));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PinRef;
    use tc_device::VtClass;
    use tc_liberty::{LibConfig, PvtCorner};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    #[test]
    fn clean_designs_have_no_sccs() {
        let lib = lib();
        let nl = crate::gen::generate(&lib, crate::gen::BenchProfile::tiny(), 11).unwrap();
        assert!(combinational_sccs(&nl, &lib).is_empty());
    }

    #[test]
    fn two_cell_loop_is_found_and_named() {
        let lib = lib();
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let tmp = nl.add_input("tmp");
        let nand = lib.variant("NAND2", VtClass::Svt, 1.0).unwrap();
        let (u1, n1) = nl.add_cell("u1", &lib, nand, &[a, tmp]).unwrap();
        let (u2, n2) = nl.add_cell("u2", &lib, nand, &[n1, n1]).unwrap();
        nl.rewire_input(PinRef { cell: u1, pin: 1 }, n2);
        let sccs = combinational_sccs(&nl, &lib);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], vec![u1, u2]);
        let text = describe_scc(&nl, &sccs[0]);
        assert!(text.contains("u1") && text.contains("u2"), "{text}");
    }

    #[test]
    fn self_loop_is_a_component_of_one() {
        let lib = lib();
        let mut nl = Netlist::new("self");
        let a = nl.add_input("a");
        let nand = lib.variant("NAND2", VtClass::Svt, 1.0).unwrap();
        let (u, out) = nl.add_cell("u", &lib, nand, &[a, a]).unwrap();
        nl.rewire_input(PinRef { cell: u, pin: 1 }, out);
        let sccs = combinational_sccs(&nl, &lib);
        assert_eq!(sccs, vec![vec![u]]);
    }

    #[test]
    fn registered_feedback_is_not_a_cycle() {
        let lib = lib();
        let mut nl = Netlist::new("reg");
        let clk = nl.add_input("clk");
        let d_tmp = nl.add_input("d_tmp");
        let dff = lib.variant("DFF", VtClass::Svt, 1.0).unwrap();
        let inv = lib.variant("INV", VtClass::Svt, 1.0).unwrap();
        let (ff, q) = nl.add_cell("ff", &lib, dff, &[d_tmp, clk]).unwrap();
        let (_g, gout) = nl.add_cell("g", &lib, inv, &[q]).unwrap();
        nl.rewire_input(PinRef { cell: ff, pin: 0 }, gout);
        assert!(combinational_sccs(&nl, &lib).is_empty());
    }
}
