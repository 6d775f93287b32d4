//! RC trees: Elmore and D2M delay metrics, O'Brien–Savarino pi reduction.
//!
//! The paper's §3.1 traces delay calculation "back to simple lumped-C
//! models, Elmore's bound on delay in RC trees, the O'Brien–Savarino pi
//! model" — the three structures implemented here, used by `tc-sta` to
//! turn an extracted net into (driver load, per-sink wire delay).

use tc_core::error::{Error, Result};
use tc_core::units::{Ff, Kohm, Ps};

/// An RC tree rooted at the driver output.
///
/// Node 0 is the root; every other node has a parent, a resistance to its
/// parent, and a grounded capacitance.
#[derive(Clone, Debug, PartialEq)]
pub struct RcTree {
    parent: Vec<usize>,
    r_up: Vec<Kohm>,
    cap: Vec<Ff>,
}

impl RcTree {
    /// Creates a tree with just the root (node 0) holding `c_root`.
    pub fn new(c_root: Ff) -> Self {
        RcTree {
            parent: vec![0],
            r_up: vec![Kohm::ZERO],
            cap: vec![c_root],
        }
    }

    /// Adds a node hanging off `parent` through `r`, holding `c`;
    /// returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist yet.
    pub fn add_node(&mut self, parent: usize, r: Kohm, c: Ff) -> usize {
        assert!(parent < self.parent.len(), "parent {parent} out of range");
        self.parent.push(parent);
        self.r_up.push(r);
        self.cap.push(c);
        self.parent.len() - 1
    }

    /// Adds extra capacitance at a node (pin cap, fill cap, …).
    pub fn add_cap(&mut self, node: usize, c: Ff) {
        self.cap[node] += c;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Total tree capacitance.
    pub fn total_cap(&self) -> Ff {
        self.cap.iter().copied().sum()
    }

    fn path_to_root(&self, mut node: usize) -> Vec<usize> {
        let mut path = vec![node];
        while node != 0 {
            node = self.parent[node];
            path.push(node);
        }
        path
    }

    /// `r_to[i]`: the resistance from the root to node `i`.
    fn r_to(&self) -> Vec<f64> {
        let mut r_to = vec![0.0; self.len()];
        for i in 1..self.len() {
            r_to[i] = r_to[self.parent[i]] + self.r_up[i].value();
        }
        r_to
    }

    /// Elmore delay from the root to `sink`:
    /// `Σ_k C_k · R(path(root→sink) ∩ path(root→k))`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `sink` is out of range.
    pub fn elmore(&self, sink: usize) -> Result<Ps> {
        if sink >= self.len() {
            return Err(Error::invalid_input(format!("sink {sink} out of range")));
        }
        let r_to = self.r_to();
        // Shared resistance = r_to[lowest common ancestor]; compute by
        // marking the sink's root path.
        let mut on_sink_path = vec![false; self.len()];
        for &n in &self.path_to_root(sink) {
            on_sink_path[n] = true;
        }
        let mut total = 0.0;
        for k in 0..self.len() {
            // Walk up from k to the first node on the sink path: that is
            // the LCA; shared R = r_to[lca].
            let mut n = k;
            while !on_sink_path[n] {
                n = self.parent[n];
            }
            total += self.cap[k].value() * r_to[n];
        }
        Ok(Ps::new(total))
    }

    /// First two moments `(m1, m2)` of the impulse response at `sink`
    /// (m1 = Elmore).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `sink` is out of range.
    pub fn moments(&self, sink: usize) -> Result<(f64, f64)> {
        let m1 = self.elmore(sink)?.value();
        // m2 via the standard recursive moment computation: m2_k uses the
        // m1-weighted capacitances.
        let r_to = self.r_to();
        let mut elmore_all: Vec<f64> = vec![0.0; self.len()];
        for (k, e) in elmore_all.iter_mut().enumerate() {
            *e = self.elmore(k)?.value();
        }
        let mut on_sink_path = vec![false; self.len()];
        for &n in &self.path_to_root(sink) {
            on_sink_path[n] = true;
        }
        let mut m2 = 0.0;
        for (k, &elm) in elmore_all.iter().enumerate() {
            let mut n = k;
            while !on_sink_path[n] {
                n = self.parent[n];
            }
            m2 += self.cap[k].value() * r_to[n] * elm;
        }
        Ok((m1, m2))
    }

    /// D2M delay metric: `ln2 · m1² / √m2` — tighter than Elmore for
    /// resistive nets while never exceeding it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if `sink` is out of range.
    pub fn d2m(&self, sink: usize) -> Result<Ps> {
        let (m1, m2) = self.moments(sink)?;
        if m2 <= 0.0 {
            return Ok(Ps::ZERO);
        }
        Ok(Ps::new(std::f64::consts::LN_2 * m1 * m1 / m2.sqrt()))
    }

    /// O'Brien–Savarino pi-model reduction seen from the root:
    /// `(c_near, r, c_far)` chosen to match the first three input
    /// admittance moments.
    pub fn pi_model(&self) -> (Ff, Kohm, Ff) {
        // Admittance moments at the root: y1 = ΣC, y2 = −Σ C_k·R_k,
        // y3 = Σ_k C_k · Σ_j C_j R_shared(k,j) R_… — use the standard
        // downstream-cap recursion instead.
        let n = self.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 1..n {
            children[self.parent[i]].push(i);
        }
        // Post-order accumulation of (y1, y2, y3) at each node, where the
        // node's own R-up then transforms them.
        fn acc(tree: &RcTree, children: &[Vec<usize>], node: usize) -> (f64, f64, f64) {
            let mut y1 = tree.cap[node].value();
            let mut y2 = 0.0;
            let mut y3 = 0.0;
            for &ch in &children[node] {
                let (c1, c2, c3) = acc(tree, children, ch);
                let r = tree.r_up[ch].value();
                // Moment transform through a series R.
                y1 += c1;
                y2 += c2 - r * c1 * c1;
                y3 += c3 - 2.0 * r * c1 * c2 + r * r * c1 * c1 * c1;
            }
            (y1, y2, y3)
        }
        let (y1, y2, y3) = acc(self, &children, 0);
        if y2.abs() < 1e-15 {
            return (Ff::new(y1), Kohm::ZERO, Ff::ZERO);
        }
        let c_far = -(y2 * y2 / y3.max(1e-15));
        let c_far = if c_far.is_finite() && c_far > 0.0 && c_far < y1 {
            c_far
        } else {
            0.5 * y1
        };
        let r = -y2 / (c_far * c_far).max(1e-15);
        let c_near = (y1 - c_far).max(0.0);
        (Ff::new(c_near), Kohm::new(r.max(0.0)), Ff::new(c_far))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-segment line: root → a (1 kΩ, 2 fF) → b (1 kΩ, 2 fF).
    fn line() -> RcTree {
        let mut t = RcTree::new(Ff::new(1.0));
        let a = t.add_node(0, Kohm::new(1.0), Ff::new(2.0));
        let _b = t.add_node(a, Kohm::new(1.0), Ff::new(2.0));
        t
    }

    #[test]
    fn elmore_of_line_matches_hand_calc() {
        let t = line();
        // Sink b: R1·(C_a + C_b) + R2·C_b = 1·4 + 1·2 = 6 ps.
        assert!((t.elmore(2).unwrap().value() - 6.0).abs() < 1e-12);
        // Sink a: R1·(C_a + C_b) = 4 ps.
        assert!((t.elmore(1).unwrap().value() - 4.0).abs() < 1e-12);
        // Root: zero.
        assert_eq!(t.elmore(0).unwrap(), Ps::ZERO);
    }

    #[test]
    fn elmore_of_branch() {
        // root → a; a → b and a → c (a "Y").
        let mut t = RcTree::new(Ff::ZERO);
        let a = t.add_node(0, Kohm::new(2.0), Ff::new(1.0));
        let b = t.add_node(a, Kohm::new(1.0), Ff::new(3.0));
        let c = t.add_node(a, Kohm::new(4.0), Ff::new(1.0));
        // To b: R_a·(C_a+C_b+C_c) + R_b·C_b = 2·5 + 1·3 = 13.
        assert!((t.elmore(b).unwrap().value() - 13.0).abs() < 1e-12);
        // To c: 2·5 + 4·1 = 14.
        assert!((t.elmore(c).unwrap().value() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn d2m_is_tighter_than_elmore() {
        let t = line();
        let e = t.elmore(2).unwrap();
        let d = t.d2m(2).unwrap();
        assert!(d <= e, "D2M {d} must not exceed Elmore {e}");
        assert!(d.value() > 0.3 * e.value(), "but not absurdly small");
    }

    #[test]
    fn pi_model_conserves_capacitance() {
        let t = line();
        let (c_near, r, c_far) = t.pi_model();
        assert!((c_near.value() + c_far.value() - t.total_cap().value()).abs() < 1e-9);
        assert!(r.value() > 0.0);
    }

    #[test]
    fn out_of_range_sink_errors() {
        let t = line();
        assert!(t.elmore(99).is_err());
        assert!(t.d2m(99).is_err());
    }

    #[test]
    fn added_cap_increases_delay() {
        let mut t = line();
        let base = t.elmore(2).unwrap();
        t.add_cap(2, Ff::new(5.0));
        assert!(t.elmore(2).unwrap() > base);
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized invariants driven by the in-tree deterministic RNG.

    use super::*;
    use tc_core::rng::Rng;

    /// Brute-force Elmore: for each sink, sum over all caps of the shared
    /// path resistance, computed by explicit path-set intersection.
    fn elmore_brute(tree: &RcTree, sink: usize) -> f64 {
        let n = tree.len();
        let path_of = |mut node: usize| -> Vec<usize> {
            let mut p = vec![node];
            while node != 0 {
                node = tree.parent[node];
                p.push(node);
            }
            p
        };
        let sink_path = path_of(sink);
        let mut total = 0.0;
        for k in 0..n {
            let k_path = path_of(k);
            // Shared resistance: edges on both root-paths.
            let mut shared_r = 0.0;
            for &node in &k_path {
                if node != 0 && sink_path.contains(&node) {
                    shared_r += tree.r_up[node].value();
                }
            }
            total += tree.cap[k].value() * shared_r;
        }
        total
    }

    fn random_tree(seed: u64, n: usize) -> RcTree {
        let mut rng = Rng::seed_from(seed);
        let mut t = RcTree::new(Ff::new(rng.uniform_in(0.1, 3.0)));
        for i in 1..n {
            let parent = rng.below(i);
            t.add_node(
                parent,
                Kohm::new(rng.uniform_in(0.05, 4.0)),
                Ff::new(rng.uniform_in(0.1, 6.0)),
            );
        }
        t
    }

    #[test]
    fn elmore_matches_brute_force() {
        for seed in 0..64 {
            let n = 2 + (seed as usize % 12);
            let t = random_tree(seed, n);
            for sink in 0..t.len() {
                let fast = t.elmore(sink).unwrap().value();
                let brute = elmore_brute(&t, sink);
                assert!(
                    (fast - brute).abs() < 1e-9 * (1.0 + brute.abs()),
                    "sink {sink}: {fast} vs {brute}"
                );
            }
        }
    }

    #[test]
    fn d2m_bounded_by_elmore_on_random_trees() {
        for seed in 100..164 {
            let n = 2 + (seed as usize % 12);
            let t = random_tree(seed, n);
            for sink in 1..t.len() {
                let e = t.elmore(sink).unwrap().value();
                let d = t.d2m(sink).unwrap().value();
                assert!(d <= e + 1e-9, "sink {sink}: d2m {d} > elmore {e}");
                assert!(d >= 0.0);
            }
        }
    }

    #[test]
    fn pi_model_conserves_total_cap() {
        for seed in 200..264 {
            let n = 2 + (seed as usize % 12);
            let t = random_tree(seed, n);
            let (c_near, r, c_far) = t.pi_model();
            assert!((c_near.value() + c_far.value() - t.total_cap().value()).abs() < 1e-6);
            assert!(r.value() >= 0.0);
        }
    }
}
