//! Seeded synthetic netlist generators.
//!
//! The paper's Fig 9 evaluates on ISCAS-85 c5315/c7552 plus AES and MPEG2
//! cores; those netlists (and the commercial synthesis flow producing
//! them) are not redistributable, so we generate random-logic designs
//! with matching *profiles* — gate count, register count, logic depth and
//! fan-in distribution — which is what the figure's power/area tradeoff
//! shapes actually depend on.

use tc_core::error::Result;
use tc_core::ids::{CellId, NetId};
use tc_core::rng::Rng;
use tc_device::VtClass;
use tc_liberty::Library;

use crate::graph::Netlist;

/// Size/shape profile of a synthetic benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchProfile {
    /// Design name.
    pub name: &'static str,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of flops.
    pub flops: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Recency-bias window for input selection; smaller ⇒ deeper logic.
    pub window: usize,
}

impl BenchProfile {
    /// ISCAS-85 c5315 stand-in (~2.3 k gates, combinational with a
    /// registered boundary added).
    pub fn c5315() -> Self {
        BenchProfile {
            name: "c5315",
            gates: 2_300,
            flops: 180,
            inputs: 178,
            outputs: 123,
            window: 220,
        }
    }

    /// ISCAS-85 c7552 stand-in (~3.5 k gates).
    pub fn c7552() -> Self {
        BenchProfile {
            name: "c7552",
            gates: 3_500,
            flops: 210,
            inputs: 207,
            outputs: 108,
            window: 300,
        }
    }

    /// AES core stand-in (~12 k gates, shallow & wide).
    pub fn aes() -> Self {
        BenchProfile {
            name: "aes",
            gates: 12_000,
            flops: 530,
            inputs: 260,
            outputs: 129,
            window: 1_500,
        }
    }

    /// MPEG2 encoder stand-in (~15 k gates, deeper datapath).
    pub fn mpeg2() -> Self {
        BenchProfile {
            name: "mpeg2",
            gates: 15_000,
            flops: 900,
            inputs: 190,
            outputs: 170,
            window: 900,
        }
    }

    /// A small profile for fast unit tests.
    pub fn tiny() -> Self {
        BenchProfile {
            name: "tiny",
            gates: 120,
            flops: 16,
            inputs: 8,
            outputs: 8,
            window: 24,
        }
    }

    /// A mid-size SoC-block profile for closure-flow experiments (Fig 1).
    pub fn soc_block() -> Self {
        BenchProfile {
            name: "soc_block",
            gates: 6_000,
            flops: 450,
            inputs: 96,
            outputs: 96,
            window: 420,
        }
    }

    /// 50k-cell scale profile (47k gates + 3k flops). The smallest of
    /// the capacity ladder.
    pub fn scale_50k() -> Self {
        BenchProfile {
            name: "scale_50k",
            gates: 47_000,
            flops: 3_000,
            inputs: 512,
            outputs: 512,
            window: 1_500,
        }
    }

    /// 200k-cell scale profile (188k gates + 12k flops).
    pub fn scale_200k() -> Self {
        BenchProfile {
            name: "scale_200k",
            gates: 188_000,
            flops: 12_000,
            inputs: 512,
            outputs: 512,
            window: 3_000,
        }
    }

    /// Million-cell scale profile (940k gates + 60k flops) — the
    /// paper's §1.3 capacity regime. Nothing runs it yet: it is the
    /// size a 1M-cell benchmark workload would generate.
    pub fn scale_1m() -> Self {
        BenchProfile {
            name: "scale_1m",
            gates: 940_000,
            flops: 60_000,
            inputs: 1_024,
            outputs: 1_024,
            window: 6_000,
        }
    }
}

/// Weighted gate-template mix of the generator.
const TEMPLATE_MIX: [(&str, u32); 6] = [
    ("INV", 18),
    ("BUF", 8),
    ("NAND2", 30),
    ("NOR2", 20),
    ("AOI21", 16),
    ("XOR2", 8),
];

fn pick_template(rng: &mut Rng) -> &'static str {
    let total: u32 = TEMPLATE_MIX.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.below(total as usize) as u32;
    for &(name, w) in &TEMPLATE_MIX {
        if roll < w {
            return name;
        }
        roll -= w;
    }
    "NAND2"
}

/// Picks a driver signal with recency bias: recent signals are preferred,
/// which strings gates into paths of controlled depth.
fn pick_signal(rng: &mut Rng, pool: &[NetId], window: usize) -> NetId {
    let w = window.min(pool.len());
    let from_recent = rng.chance(0.75) && w > 0;
    if from_recent {
        pool[pool.len() - 1 - rng.below(w)]
    } else {
        *rng.choose(pool)
    }
}

/// Generates a seeded random-logic netlist matching the given profile.
/// The same `(profile, seed)` pair always yields the identical netlist.
///
/// # Errors
///
/// Propagates netlist construction errors (which indicate a bug in the
/// generator rather than bad input).
pub fn generate(lib: &Library, profile: BenchProfile, seed: u64) -> Result<Netlist> {
    let mut rng = Rng::seed_from(seed ^ 0x6e_6574_6c69_7374);
    let mut nl = Netlist::new(profile.name);

    let clk = nl.add_input("clk");
    let mut pool: Vec<NetId> = Vec::new();
    for i in 0..profile.inputs {
        pool.push(nl.add_input(format!("pi{i}")));
    }

    // Registers first: their Q outputs seed the signal pool. D inputs are
    // temporarily tied to a PI and rewired once the logic exists.
    let dff = lib
        .variant("DFF", VtClass::Svt, 1.0)
        .expect("library has DFF_X1_SVT");
    let mut flops = Vec::with_capacity(profile.flops);
    for i in 0..profile.flops {
        let d_placeholder = pool[rng.below(pool.len())];
        let (ff, q) = nl.add_cell(format!("ff{i}"), lib, dff, &[d_placeholder, clk])?;
        flops.push(ff);
        pool.push(q);
    }

    // Combinational cloud.
    let drives = [1.0, 1.0, 2.0, 2.0, 4.0];
    for i in 0..profile.gates {
        let tmpl = pick_template(&mut rng);
        let drive = drives[rng.below(drives.len())];
        let master = lib
            .variant(tmpl, VtClass::Svt, drive)
            .expect("library has all generator templates");
        let n_in = lib.cell(master).input_pins().len();
        let inputs: Vec<NetId> = (0..n_in)
            .map(|_| pick_signal(&mut rng, &pool, profile.window))
            .collect();
        let (_, out) = nl.add_cell(format!("g{i}"), lib, master, &inputs)?;
        pool.push(out);
    }

    // Rewire each flop's D to a signal from the most recent logic so
    // register-to-register paths traverse the cloud.
    let recent = profile.window.min(pool.len());
    for &ff in &flops {
        let d_net = pool[pool.len() - 1 - rng.below(recent)];
        nl.rewire_input(crate::graph::PinRef { cell: ff, pin: 0 }, d_net);
    }

    // Primary outputs from the deepest signals.
    for k in 0..profile.outputs.min(pool.len()) {
        let net = pool[pool.len() - 1 - k];
        nl.mark_output(net);
    }

    // Plausible wirelengths: mostly short, occasionally long (the long
    // tail is what NDR/buffering fixes exist for).
    for i in 0..nl.net_count() {
        let um = if rng.chance(0.06) {
            rng.uniform_in(150.0, 900.0)
        } else {
            rng.uniform_in(2.0, 80.0)
        };
        nl.set_wire_length(NetId::new(i), um);
    }

    // Bulk construction left doubling slack in the sink pool; rebuild
    // it tight before handing the netlist out.
    nl.compact();
    Ok(nl)
}

/// Fixed size of the old-signal reservoir in [`generate_streamed`].
const STREAM_RESERVOIR: usize = 1_024;

/// Bounded scratch for the streamed generator: a ring of the most
/// recent `window` signals (the recency-biased pick and the output/
/// rewire sources) plus a fixed reservoir sampled uniformly from every
/// signal ever pushed (the "anywhere in the pool" pick). Memory is
/// O(window + reservoir) no matter how many cells the profile asks for
/// — this is what lets `scale_1m` generate without a million-entry
/// scratch `Vec` on top of the netlist itself.
struct SignalWindow {
    ring: Vec<NetId>,
    head: usize,
    reservoir: Vec<NetId>,
    seen: usize,
}

impl SignalWindow {
    fn new(window: usize) -> Self {
        SignalWindow {
            ring: Vec::with_capacity(window.max(1)),
            head: 0,
            reservoir: Vec::with_capacity(STREAM_RESERVOIR),
            seen: 0,
        }
    }

    fn push(&mut self, net: NetId, rng: &mut Rng) {
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(net);
        } else {
            self.ring[self.head] = net;
            self.head = (self.head + 1) % self.ring.len();
        }
        // Algorithm R: after n pushes each signal sits in the
        // reservoir with probability min(1, R/n).
        self.seen += 1;
        if self.reservoir.len() < STREAM_RESERVOIR {
            self.reservoir.push(net);
        } else {
            let j = rng.below(self.seen);
            if j < STREAM_RESERVOIR {
                self.reservoir[j] = net;
            }
        }
    }

    /// The signal pushed `back` steps ago (0 = most recent).
    fn recent(&self, back: usize) -> NetId {
        debug_assert!(back < self.ring.len());
        let idx = (self.head + self.ring.len() - 1 - back) % self.ring.len();
        self.ring[idx]
    }

    /// Mirrors `pick_signal`: recency-biased 75% of the time, uniform
    /// over the (sampled) history otherwise.
    fn pick(&self, rng: &mut Rng) -> NetId {
        if rng.chance(0.75) {
            self.recent(rng.below(self.ring.len()))
        } else {
            *rng.choose(&self.reservoir)
        }
    }
}

/// Streamed variant of [`generate`] for the `scale_*` profiles: same
/// shape family (recency-windowed random logic with a registered
/// boundary), but generator scratch is bounded at O(window) instead of
/// O(cells) — only the netlist being built grows with the profile.
///
/// Not output-compatible with [`generate`] (it consumes the seed
/// stream differently); committed fingerprints for the classic
/// profiles are untouched. The same `(profile, seed)` pair always
/// yields the identical netlist.
///
/// # Errors
///
/// Propagates netlist construction errors (generator bugs, not bad
/// input).
pub fn generate_streamed(lib: &Library, profile: BenchProfile, seed: u64) -> Result<Netlist> {
    let mut rng = Rng::seed_from(seed ^ 0x73_6361_6c65_6431);
    let mut nl = Netlist::new(profile.name);

    let clk = nl.add_input("clk");
    let mut window = SignalWindow::new(profile.window);
    for i in 0..profile.inputs {
        let pi = nl.add_input(format!("pi{i}"));
        window.push(pi, &mut rng);
    }

    // Registers first (cells 0..flops, a contiguous id range — the
    // rewire pass below iterates it instead of holding a Vec). D pins
    // are temporarily tied to a recent signal and rewired once the
    // cloud exists.
    let dff = lib
        .variant("DFF", VtClass::Svt, 1.0)
        .expect("library has DFF_X1_SVT");
    for i in 0..profile.flops {
        let d_placeholder = window.pick(&mut rng);
        let (ff, q) = nl.add_cell(format!("ff{i}"), lib, dff, &[d_placeholder, clk])?;
        debug_assert_eq!(ff.index(), i, "flop ids are contiguous from 0");
        window.push(q, &mut rng);
    }

    // Combinational cloud. Gate fan-in is at most 3 across the
    // template mix, so inputs live in a fixed stack array.
    let drives = [1.0, 1.0, 2.0, 2.0, 4.0];
    for i in 0..profile.gates {
        let tmpl = pick_template(&mut rng);
        let drive = drives[rng.below(drives.len())];
        let master = lib
            .variant(tmpl, VtClass::Svt, drive)
            .expect("library has all generator templates");
        let n_in = lib.cell(master).input_pins().len();
        let mut inputs = [NetId::new(0); 4];
        debug_assert!(n_in <= inputs.len());
        for slot in inputs.iter_mut().take(n_in) {
            *slot = window.pick(&mut rng);
        }
        let (_, out) = nl.add_cell(format!("g{i}"), lib, master, &inputs[..n_in])?;
        window.push(out, &mut rng);
    }

    // Rewire flop D pins into the recent end of the cloud so reg-to-reg
    // paths traverse it.
    let recent = profile.window.min(window.ring.len());
    for i in 0..profile.flops {
        let d_net = window.recent(rng.below(recent));
        nl.rewire_input(
            crate::graph::PinRef {
                cell: CellId::new(i),
                pin: 0,
            },
            d_net,
        );
    }

    // Primary outputs from the deepest signals.
    for k in 0..profile.outputs.min(window.ring.len()) {
        nl.mark_output(window.recent(k));
    }

    // Same wirelength model as the classic generator.
    for i in 0..nl.net_count() {
        let um = if rng.chance(0.06) {
            rng.uniform_in(150.0, 900.0)
        } else {
            rng.uniform_in(2.0, 80.0)
        };
        nl.set_wire_length(NetId::new(i), um);
    }

    nl.compact();
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::levelize;
    use tc_liberty::{LibConfig, PvtCorner};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    #[test]
    fn generator_is_deterministic() {
        let lib = lib();
        let a = generate(&lib, BenchProfile::tiny(), 7).unwrap();
        let b = generate(&lib, BenchProfile::tiny(), 7).unwrap();
        assert_eq!(a.cell_count(), b.cell_count());
        for (ca, cb) in a.cells().zip(b.cells()) {
            assert_eq!(ca.master, cb.master);
            assert_eq!(ca.inputs, cb.inputs);
        }
        let c = generate(&lib, BenchProfile::tiny(), 8).unwrap();
        let differs = a
            .cells()
            .zip(c.cells())
            .any(|(x, y)| x.master != y.master || x.inputs != y.inputs);
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn generated_netlists_are_valid_and_acyclic() {
        let lib = lib();
        for seed in [1, 2, 3] {
            let nl = generate(&lib, BenchProfile::tiny(), seed).unwrap();
            nl.validate(&lib).unwrap();
            let lv = levelize(&nl, &lib).unwrap();
            assert!(lv.max_depth() >= 3, "depth {}", lv.max_depth());
        }
    }

    #[test]
    fn profile_counts_respected() {
        let lib = lib();
        let p = BenchProfile::tiny();
        let nl = generate(&lib, p.clone(), 42).unwrap();
        assert_eq!(nl.cell_count(), p.gates + p.flops);
        assert_eq!(nl.flops(&lib).count(), p.flops);
        // clk + PIs
        assert_eq!(nl.primary_inputs().len(), p.inputs + 1);
        assert_eq!(nl.primary_outputs().count(), p.outputs);
    }

    #[test]
    fn c5315_profile_scales() {
        let lib = lib();
        let nl = generate(&lib, BenchProfile::c5315(), 42).unwrap();
        assert!(nl.cell_count() > 2_000);
        nl.validate(&lib).unwrap();
        let lv = levelize(&nl, &lib).unwrap();
        assert!(
            (8..120).contains(&lv.max_depth()),
            "plausible depth, got {}",
            lv.max_depth()
        );
    }

    #[test]
    fn streamed_generator_is_deterministic() {
        let lib = lib();
        let a = generate_streamed(&lib, BenchProfile::tiny(), 7).unwrap();
        let b = generate_streamed(&lib, BenchProfile::tiny(), 7).unwrap();
        assert_eq!(a.cell_count(), b.cell_count());
        for (ca, cb) in a.cells().zip(b.cells()) {
            assert_eq!(ca.master, cb.master);
            assert_eq!(ca.inputs, cb.inputs);
        }
        for (na, nb) in a.nets().zip(b.nets()) {
            assert_eq!(na.wire_length_um, nb.wire_length_um);
        }
        let c = generate_streamed(&lib, BenchProfile::tiny(), 8).unwrap();
        let differs = a
            .cells()
            .zip(c.cells())
            .any(|(x, y)| x.master != y.master || x.inputs != y.inputs);
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn streamed_netlists_are_valid_acyclic_and_sized() {
        let lib = lib();
        for seed in [1, 2] {
            let p = BenchProfile::tiny();
            let nl = generate_streamed(&lib, p.clone(), seed).unwrap();
            nl.validate(&lib).unwrap();
            assert_eq!(nl.cell_count(), p.gates + p.flops);
            assert_eq!(nl.flops(&lib).count(), p.flops);
            assert_eq!(nl.primary_inputs().len(), p.inputs + 1);
            assert_eq!(nl.primary_outputs().count(), p.outputs);
            let lv = levelize(&nl, &lib).unwrap();
            assert!(lv.max_depth() >= 3, "depth {}", lv.max_depth());
        }
    }

    #[test]
    fn streamed_scale_profile_builds_a_valid_50k_design() {
        let lib = lib();
        let p = BenchProfile::scale_50k();
        let nl = generate_streamed(&lib, p.clone(), 42).unwrap();
        assert_eq!(nl.cell_count(), 50_000);
        nl.validate(&lib).unwrap();
        let lv = levelize(&nl, &lib).unwrap();
        assert!(
            (10..400).contains(&lv.max_depth()),
            "plausible depth at scale, got {}",
            lv.max_depth()
        );
    }

    #[test]
    fn signal_window_ring_keeps_the_most_recent_signals() {
        let mut rng = Rng::seed_from(99);
        let mut w = SignalWindow::new(4);
        for i in 0..10 {
            w.push(NetId::new(i), &mut rng);
        }
        assert_eq!(w.ring.len(), 4, "ring is bounded at the window size");
        assert_eq!(w.recent(0), NetId::new(9));
        assert_eq!(w.recent(3), NetId::new(6));
        assert!(w.reservoir.len() <= STREAM_RESERVOIR);
        assert_eq!(w.seen, 10);
    }

    #[test]
    fn wirelengths_have_a_long_tail() {
        let lib = lib();
        let nl = generate(&lib, BenchProfile::c5315(), 42).unwrap();
        let long = nl.nets().filter(|n| n.wire_length_um > 150.0).count();
        let short = nl.nets().filter(|n| n.wire_length_um <= 80.0).count();
        assert!(long > 0 && short > 10 * long);
    }
}
