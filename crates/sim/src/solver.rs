//! Backward-Euler transient solver with damped Newton iteration.
//!
//! The solver targets the small transistor-level circuits built in
//! [`crate::cells`] (a few dozen nodes), so it uses a dense Jacobian with
//! Gaussian elimination. Jacobian entries are stamped per element:
//! analytic for R and C, terminal-local finite differences for MOSFETs.
//!
//! DC initialization is done by *pseudo-transient continuation*: the
//! circuit is simulated with all sources frozen at their `t = 0` values
//! for a settling window before recording starts. This is robust against
//! the weakly-driven internal nodes of latch feedback loops.
//!
//! # Cost per Newton iteration
//!
//! With ≤ ~10 free nodes the O(n³) solve is small next to the device
//! model, so the loop is arranged around model evaluations:
//!
//! * **Fold per transient.** Building the system folds every MOSFET for
//!   the run's temperature once ([`tc_device::MosDevice::fold`]), so the
//!   mobility `powf`, the threshold and `n·vT` are not recomputed per
//!   call.
//! * **Finite-difference stamping.** A MOSFET's Jacobian row is its base
//!   current plus one forward step of `H` = 10 µV on each of drain, gate
//!   and source. When the device is unswapped and the drain step keeps
//!   it so (NMOS with `vd ≥ vs`, PMOS with `vs ≥ vd + H`), that step
//!   moves only `vds`: it reuses the base evaluation's gate half
//!   ([`tc_device::FoldedMos::gate`]) and runs only the drain half's
//!   `tanh`. Every other step is a full evaluation. Each stamped value is
//!   the same float ops in the same order as four full calls.
//! * **One workspace per transient.** Residual, Jacobian, its factored
//!   copy and the update are allocated once and reused by every step.
//! * **Counters flushed once per call.** `sim.newton.steps`,
//!   `sim.newton.iters`, `sim.quiet_steps` and the
//!   `sim.newton.iters_per_step` histogram are tallied locally and flushed
//!   when the transient returns, `Err` included.
//!
//! # Steps a run can skip, exactly
//!
//! The one integration loop (`integrate`) skips work two ways, and every
//! value a caller reads stays bit-identical:
//!
//! * **Quiet steps**, in the settle and the window alike. A step is not
//!   solved when the last solved step returned its own `v_prev` bit for
//!   bit (the whole node vector, pinned sources included) at this step's
//!   `dt`, and every source's value at this step's time equals, bit for
//!   bit, the value `v` already pins. `v` stays as it is and the sample
//!   is still recorded. Why that is exact:
//!   - `System::step` is a pure function of its starting guess (`v` with
//!     the sources applied at `t_new`), `v_prev` and `dt`. `t_new`
//!     enters only through `apply_sources`, and every `Workspace` buffer
//!     is overwritten before it is read.
//!   - Every step starts from `v == v_prev`. A solved step that returns
//!     `v_prev` bit for bit leaves its pinned values in `v_prev`, so its
//!     own starting guess was `v_prev` too.
//!   - The next step at the same `dt`, with every source already at its
//!     pinned value, then starts from the same guess with the same
//!     `v_prev` and `dt`: its inputs repeat the last solved step's, so
//!     its output does too, which is `v` again. By induction the same
//!     holds for every quiet step after it.
//!
//!   Crossing detection is unaffected: a quiet step leaves `v == v_prev`,
//!   and [`Edge`] never fires on a pair of equal samples. A flat settle
//!   is solved up to its fixed point and skipped from there; in the
//!   window, the stretches where every source is flat and the circuit
//!   has come to rest cost one source check a step.
//! * **Early stop** (`Testbench::run`), the way HSPICE's
//!   `.option autostop` ends a run once its `.measure` statements are
//!   decided. The caller names the first crossings its measurement reads;
//!   once all have fired, each step that crosses one of them runs the
//!   measurement on the recorded prefix, and a `Some` ends the run.
//!   Integration is causal, so the prefix is the full run's first
//!   samples, and a first-crossing scan that finds its crossing in a
//!   prefix finds the same one in the whole window.
//!
//! [`transient`] passes no crossings and keeps its full window.
//! `char_cell::measure_arc`, the MIS arcs and `cells::inverter_chain_delay`
//! stop early; `ff_char::c2q_at` stays on [`transient`], because it also
//! reads `q.last()` at the end of the window, which no prefix decides.
//! Its window is mostly quiet steps: the flop rests before D moves,
//! between D settling and the clock edge, and after capture.

use tc_core::error::{Error, Result};
use tc_core::units::{Celsius, Volt};
use tc_device::{FoldedMos, MosKind, Technology};

use crate::circuit::{Circuit, Element, NodeId};
use crate::measure::{Edge, Waveform};

/// Transient-analysis options.
#[derive(Clone, Debug)]
pub struct TranOptions {
    /// Simulation end time in ps (recording starts at 0).
    pub t_stop: f64,
    /// Fixed timestep in ps.
    pub dt: f64,
    /// Pseudo-transient settling window before `t = 0`, in ps.
    pub settle: f64,
    /// Die temperature.
    pub temp: Celsius,
    /// Minimum grounded capacitance added to every non-source node (fF),
    /// keeping the backward-Euler system well-posed.
    pub cmin: f64,
}

impl Default for TranOptions {
    fn default() -> Self {
        TranOptions {
            t_stop: 1000.0,
            dt: 0.5,
            settle: 400.0,
            temp: Celsius::new(25.0),
            cmin: 0.01,
        }
    }
}

impl TranOptions {
    /// Options with the given stop time and defaults elsewhere.
    pub fn until(t_stop: f64) -> Self {
        TranOptions {
            t_stop,
            ..TranOptions::default()
        }
    }
}

/// Result of a transient run: sampled node voltages over time.
#[derive(Clone, Debug)]
pub struct TranResult {
    times: Vec<f64>,
    /// `volts[node][sample]`.
    volts: Vec<Vec<f64>>,
}

impl TranResult {
    /// Sample times in ps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Extracts one node's waveform.
    pub fn waveform(&self, node: NodeId) -> Waveform {
        Waveform::new(self.times.clone(), self.volts[node.index()].clone())
    }

    /// Final voltage of a node.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        *self.volts[node.index()].last().expect("non-empty result")
    }

    fn record(&mut self, t: f64, v: &[f64]) {
        self.times.push(t);
        for (w, &x) in self.volts.iter_mut().zip(v) {
            w.push(x);
        }
    }

    /// The first `len` samples.
    #[cfg(test)]
    pub(crate) fn prefix(&self, len: usize) -> TranResult {
        TranResult {
            times: self.times[..len].to_vec(),
            volts: self.volts.iter().map(|w| w[..len].to_vec()).collect(),
        }
    }
}

/// A threshold crossing a measurement reads: the node, the threshold in
/// volts and the direction, as [`Waveform::crossing`] scans for it.
pub(crate) type Crossing = (NodeId, f64, Edge);

/// A testbench whose measurement reads only first crossings: the circuit,
/// its options, the crossings the measurement reads and the measurement,
/// `None` while the samples it is given do not decide it.
pub(crate) struct Testbench<M> {
    pub(crate) circuit: Circuit,
    pub(crate) opts: TranOptions,
    pub(crate) reads: Vec<Crossing>,
    pub(crate) measure: M,
}

impl<T, M: Fn(&TranResult) -> Option<T>> Testbench<M> {
    /// Simulates until the measurement is decided: its value (`None` if
    /// the window ends first) and the samples recorded.
    pub(crate) fn run(&self, tech: &Technology) -> Result<(Option<T>, TranResult)> {
        transient_until(&self.circuit, tech, &self.opts, &self.reads, &self.measure)
    }
}

/// Conductance added from every free node to ground (mA/V = mS) to keep
/// the Newton matrix non-singular when devices are deeply off.
const GMIN: f64 = 1e-7;
const NEWTON_TOL_V: f64 = 1e-7;
const NEWTON_TOL_I: f64 = 1e-8;
const MAX_NEWTON: usize = 60;
const DV_CLIP: f64 = 0.4;
/// Finite-difference step for MOSFET Jacobian columns, in volts.
const H: f64 = 1e-5;

/// A circuit element as the residual stamps it, in circuit order (the
/// order fixes the floating-point accumulation into `f` and the
/// Jacobian). Sources are pinned nodes, not branches.
enum Branch {
    Resistor {
        a: usize,
        b: usize,
        g: f64,
    },
    Capacitor {
        a: usize,
        b: usize,
        c: f64,
    },
    Mosfet {
        kind: MosKind,
        fet: FoldedMos,
        d: usize,
        g: usize,
        s: usize,
    },
}

struct System {
    branches: Vec<Branch>,
    sources: Vec<(NodeId, crate::circuit::Pwl)>,
    /// Free-node list and inverse map.
    free: Vec<usize>,
    free_index: Vec<Option<usize>>,
    cmin: f64,
}

/// Newton buffers for one transient, allocated once and reused by every
/// step: residual, Jacobian, its factored copy and the update.
struct Workspace {
    f: Vec<f64>,
    jac: Vec<f64>,
    a: Vec<f64>,
    delta: Vec<f64>,
}

impl Workspace {
    fn new(nf: usize) -> Self {
        Workspace {
            f: vec![0.0; nf],
            jac: vec![0.0; nf * nf],
            a: vec![0.0; nf * nf],
            delta: vec![0.0; nf],
        }
    }
}

impl System {
    /// Splits the circuit into pinned sources and stamped branches, and
    /// folds every MOSFET for `opts.temp` once.
    fn build(circuit: &Circuit, tech: &Technology, opts: &TranOptions) -> Result<Self> {
        let n = circuit.node_count();
        let mut pinned = vec![None; n];
        let mut sources = Vec::new();
        let mut branches = Vec::new();
        for el in circuit.elements() {
            match el {
                Element::Source { node, wave } => {
                    if pinned[node.index()].is_some() {
                        return Err(Error::invalid_input(format!(
                            "node {} pinned by two sources",
                            circuit.node_name(*node)
                        )));
                    }
                    pinned[node.index()] = Some(sources.len());
                    sources.push((*node, wave.clone()));
                }
                Element::Resistor { a, b, r } => branches.push(Branch::Resistor {
                    a: a.index(),
                    b: b.index(),
                    g: 1.0 / r.value(),
                }),
                Element::Capacitor { a, b, c } => branches.push(Branch::Capacitor {
                    a: a.index(),
                    b: b.index(),
                    c: c.value(),
                }),
                Element::Mosfet { dev, d, g, s } => branches.push(Branch::Mosfet {
                    kind: dev.kind,
                    fet: dev.fold(tech, opts.temp),
                    d: d.index(),
                    g: g.index(),
                    s: s.index(),
                }),
            }
        }
        // Ground is always pinned to zero via a constant source slot.
        if pinned[0].is_none() {
            pinned[0] = Some(sources.len());
            sources.push((NodeId::GROUND, crate::circuit::Pwl::constant(Volt::ZERO)));
        }
        let mut free = Vec::new();
        let mut free_index = vec![None; n];
        for i in 0..n {
            if pinned[i].is_none() {
                free_index[i] = Some(free.len());
                free.push(i);
            }
        }
        Ok(System {
            branches,
            sources,
            free,
            free_index,
            cmin: opts.cmin,
        })
    }

    fn apply_sources(&self, t: f64, v: &mut [f64]) {
        for (node, wave) in &self.sources {
            v[node.index()] = wave.at(t);
        }
    }

    /// Whether every source's value at `t` is, bit for bit, the value
    /// `v` already pins.
    fn sources_hold(&self, t: f64, v: &[f64]) -> bool {
        self.sources
            .iter()
            .all(|(node, wave)| wave.at(t).to_bits() == v[node.index()].to_bits())
    }

    /// Accumulates the residual `f[i]` = net current *leaving* each free
    /// node, and the dense Jacobian `df/dv`.
    fn residual(&self, v: &[f64], v_prev: &[f64], dt: f64, f: &mut [f64], jac: &mut [f64]) {
        let nf = self.free.len();
        f.fill(0.0);
        jac.fill(0.0);

        let mut stamp = |row_node: usize, col_node: usize, g: f64| {
            if let (Some(r), Some(c)) = (self.free_index[row_node], self.free_index[col_node]) {
                jac[r * nf + c] += g;
            }
        };

        // gmin + cmin to ground on every free node.
        for (fi, &node) in self.free.iter().enumerate() {
            let g = GMIN + self.cmin / dt;
            f[fi] += GMIN * v[node] + self.cmin * (v[node] - v_prev[node]) / dt;
            stamp(node, node, g);
        }

        for br in &self.branches {
            match *br {
                Branch::Resistor { a, b, g } => {
                    let i = g * (v[a] - v[b]);
                    if let Some(fa) = self.free_index[a] {
                        f[fa] += i;
                    }
                    if let Some(fb) = self.free_index[b] {
                        f[fb] -= i;
                    }
                    stamp(a, a, g);
                    stamp(a, b, -g);
                    stamp(b, b, g);
                    stamp(b, a, -g);
                }
                Branch::Capacitor { a, b, c } => {
                    let g = c / dt;
                    let dv_now = v[a] - v[b];
                    let dv_old = v_prev[a] - v_prev[b];
                    let i = g * (dv_now - dv_old);
                    if let Some(fa) = self.free_index[a] {
                        f[fa] += i;
                    }
                    if let Some(fb) = self.free_index[b] {
                        f[fb] -= i;
                    }
                    stamp(a, a, g);
                    stamp(a, b, -g);
                    stamp(b, b, g);
                    stamp(b, a, -g);
                }
                Branch::Mosfet { kind, fet, d, g, s } => {
                    let [i_d, di_dd, di_dg, di_ds] = fet_stamp(kind, &fet, v[d], v[g], v[s]);
                    // i_d flows from the drain node into the device and out
                    // at the source: leaving(drain) = +i_d,
                    // leaving(source) = −i_d.
                    if let Some(fd) = self.free_index[d] {
                        f[fd] += i_d;
                    }
                    if let Some(fs) = self.free_index[s] {
                        f[fs] -= i_d;
                    }
                    // Row = drain (leaving drain = +i_d).
                    stamp(d, d, di_dd);
                    stamp(d, g, di_dg);
                    stamp(d, s, di_ds);
                    // Row = source (leaving source = −i_d).
                    stamp(s, d, -di_dd);
                    stamp(s, g, -di_dg);
                    stamp(s, s, -di_ds);
                }
            }
        }
    }

    /// One backward-Euler step with damped Newton; `v` holds the solution
    /// on exit. Returns the number of Newton iterations spent.
    fn step(
        &self,
        ws: &mut Workspace,
        t_new: f64,
        dt: f64,
        v_prev: &[f64],
        v: &mut [f64],
    ) -> Result<usize> {
        let nf = self.free.len();
        self.apply_sources(t_new, v);
        if nf == 0 {
            return Ok(0);
        }
        let Workspace { f, jac, a, delta } = ws;

        for iter in 0..MAX_NEWTON {
            self.residual(v, v_prev, dt, f, jac);
            let max_f = f.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            // Solve J·delta = f  (so v_new = v − delta).
            a.copy_from_slice(jac);
            delta.copy_from_slice(f);
            solve_dense(a, delta, nf)?;
            let mut max_dv = 0.0f64;
            for (fi, &node) in self.free.iter().enumerate() {
                let dv = delta[fi].clamp(-DV_CLIP, DV_CLIP);
                v[node] -= dv;
                max_dv = max_dv.max(dv.abs());
            }
            if max_dv < NEWTON_TOL_V && max_f < NEWTON_TOL_I {
                return Ok(iter + 1);
            }
        }
        Err(Error::convergence(format!(
            "newton did not converge at t = {t_new:.2} ps"
        )))
    }
}

/// MOSFET drain current with polarity resolution: returns the signed
/// current flowing *into* the drain terminal.
fn fet_current(kind: MosKind, fet: &FoldedMos, vd: f64, vg: f64, vs: f64) -> f64 {
    match kind {
        MosKind::Nmos => {
            if vd >= vs {
                fet.current(vg - vs, vd - vs)
            } else {
                // Source/drain swap: conduction is symmetric.
                -fet.current(vg - vd, vs - vd)
            }
        }
        MosKind::Pmos => {
            if vs >= vd {
                // Channel conducts source→drain: current *exits* the
                // device at the drain, so the into-drain current is
                // negative.
                -fet.current(vs - vg, vs - vd)
            } else {
                fet.current(vd - vg, vd - vs)
            }
        }
    }
}

/// A MOSFET's into-drain current and its finite-difference derivatives
/// with respect to the drain, gate and source voltages:
/// `[i_d, ∂i/∂vd, ∂i/∂vg, ∂i/∂vs]`.
///
/// When the device is unswapped and stays so at `vd + H` (NMOS with
/// `vd ≥ vs`, PMOS with `vs ≥ vd + H`), the drain step moves only `vds`,
/// so the base evaluation's gate half is reused and only the drain half
/// runs again. Every other step is a full [`fet_current`]. Each value is
/// the same float ops in the same order as four `fet_current` calls.
fn fet_stamp(kind: MosKind, fet: &FoldedMos, vd: f64, vg: f64, vs: f64) -> [f64; 4] {
    let (i_d, i_dd) = match kind {
        MosKind::Nmos if vd >= vs => {
            let drive = fet.gate(vg - vs);
            (drive.drain(vd - vs), drive.drain((vd + H) - vs))
        }
        MosKind::Pmos if vs >= vd + H => {
            let drive = fet.gate(vs - vg);
            (-drive.drain(vs - vd), -drive.drain(vs - (vd + H)))
        }
        _ => (
            fet_current(kind, fet, vd, vg, vs),
            fet_current(kind, fet, vd + H, vg, vs),
        ),
    };
    let di_dd = (i_dd - i_d) / H;
    let di_dg = (fet_current(kind, fet, vd, vg + H, vs) - i_d) / H;
    let di_ds = (fet_current(kind, fet, vd, vg, vs + H) - i_d) / H;
    [i_d, di_dd, di_dg, di_ds]
}

/// Solves a dense `n×n` system in place by Gaussian elimination with
/// partial pivoting. `a` is row-major; `b` holds the RHS on entry and the
/// solution on exit.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Result<()> {
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        let mut best = a[col * n + col].abs();
        for row in col + 1..n {
            let mag = a[row * n + col].abs();
            if mag > best {
                best = mag;
                piv = row;
            }
        }
        if best < 1e-18 {
            return Err(Error::internal("singular newton matrix"));
        }
        if piv != col {
            for k in 0..n {
                a.swap(col * n + k, piv * n + k);
            }
            b.swap(col, piv);
        }
        let diag = a[col * n + col];
        for row in col + 1..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col * n + k] * b[k];
        }
        b[col] = acc / a[col * n + col];
    }
    Ok(())
}

/// Runs a transient analysis of `circuit` under `tech` at the given
/// options, over the whole window.
///
/// # Errors
///
/// Returns [`Error::Convergence`] if the Newton iteration fails, or
/// [`Error::InvalidInput`] for malformed circuits (duplicate sources,
/// non-positive timestep).
pub fn transient(circuit: &Circuit, tech: &Technology, opts: &TranOptions) -> Result<TranResult> {
    let (_, res) = transient_until(circuit, tech, opts, &[], |_| None::<()>)?;
    Ok(res)
}

/// Runs a transient until `measure` is decided: once every crossing in
/// `reads` has fired, each step that crosses one of them runs `measure`
/// on the samples so far, and a `Some` ends the run (see the module
/// notes for why the value is the full window's). If the window ends
/// first, `measure` runs once on the whole result. Returns the value and
/// the samples recorded.
///
/// # Errors
///
/// As [`transient`].
fn transient_until<T>(
    circuit: &Circuit,
    tech: &Technology,
    opts: &TranOptions,
    reads: &[Crossing],
    measure: impl Fn(&TranResult) -> Option<T>,
) -> Result<(Option<T>, TranResult)> {
    if opts.dt <= 0.0 || opts.t_stop <= 0.0 {
        return Err(Error::invalid_input("dt and t_stop must be positive"));
    }
    let _span = tc_obs::span("sim.transient");
    let sys = System::build(circuit, tech, opts)?;
    let mut effort = Effort::default();
    let mut value = None;
    let mut decided = |res: &TranResult| {
        value = measure(res);
        value.is_some()
    };
    let n = circuit.node_count();
    let result = integrate(&sys, n, opts, reads, &mut decided, &mut effort);
    effort.flush();
    let res = result?;
    if value.is_none() {
        value = measure(&res);
    }
    Ok((value, res))
}

/// Settles the circuit, then steps it to `opts.t_stop` or until
/// `decided` holds on a step that crosses one of `reads` after all of
/// them have fired. Quiet steps (see the module notes) are not solved;
/// `effort` tallies both kinds.
fn integrate(
    sys: &System,
    n: usize,
    opts: &TranOptions,
    reads: &[Crossing],
    decided: &mut dyn FnMut(&TranResult) -> bool,
    effort: &mut Effort,
) -> Result<TranResult> {
    let mut ws = Workspace::new(sys.free.len());
    // The bits of the last solved step's `dt` if that step returned its
    // own `v_prev` bit for bit: the quiet-step rule's state.
    let mut quiet_dt = None;
    // Steps `v`, equal to `v_prev` on entry, to `t_next`.
    let mut advance = |t_next: f64, dt: f64, v_prev: &[f64], v: &mut [f64]| -> Result<()> {
        if quiet_dt == Some(dt.to_bits()) && sys.sources_hold(t_next, v) {
            effort.quiet += 1;
            return Ok(());
        }
        effort.solved[sys.step(&mut ws, t_next, dt, v_prev, v)?] += 1;
        let fixed = v
            .iter()
            .zip(v_prev)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        quiet_dt = fixed.then_some(dt.to_bits());
        Ok(())
    };
    let mut v = vec![0.0; n];
    sys.apply_sources(-opts.settle, &mut v);
    // Heuristic initial guess: free nodes at half the max source voltage.
    let vmax = sys
        .sources
        .iter()
        .map(|(_, w)| w.at(-opts.settle))
        .fold(0.0f64, f64::max);
    for &node in &sys.free {
        v[node] = 0.5 * vmax;
    }

    // Pseudo-transient settling with a coarse step, sources frozen at t≤0.
    let settle_dt = (opts.dt * 4.0).max(1.0);
    let mut v_prev = v.clone();
    let mut t = -opts.settle;
    while t < 0.0 {
        let t_next = (t + settle_dt).min(0.0);
        advance(t_next, t_next - t, &v_prev, &mut v)?;
        t = t_next;
        v_prev.copy_from_slice(&v);
    }

    let steps = (opts.t_stop / opts.dt).ceil() as usize;
    let mut res = TranResult {
        times: Vec::with_capacity(steps + 1),
        volts: vec![Vec::with_capacity(steps + 1); n],
    };
    res.record(0.0, &v);
    let mut fired = vec![false; reads.len()];
    let mut t = 0.0;
    for _ in 0..steps {
        let t_next = t + opts.dt;
        advance(t_next, opts.dt, &v_prev, &mut v)?;
        t = t_next;
        res.record(t, &v);
        let mut crossed = false;
        for (fired, &(node, thresh, edge)) in fired.iter_mut().zip(reads) {
            if edge.crosses(v_prev[node.index()], v[node.index()], thresh) {
                *fired = true;
                crossed = true;
            }
        }
        v_prev.copy_from_slice(&v);
        if crossed && fired.iter().all(|&f| f) && decided(&res) {
            break;
        }
    }
    Ok(res)
}

/// One transient's step effort, tallied locally and flushed once.
struct Effort {
    /// `solved[k]` counts the solved steps that took `k` Newton iterations.
    solved: [u64; MAX_NEWTON + 1],
    /// Steps the quiet-step rule skipped.
    quiet: u64,
}

impl Default for Effort {
    fn default() -> Self {
        Effort {
            solved: [0; MAX_NEWTON + 1],
            quiet: 0,
        }
    }
}

impl Effort {
    /// Flushes to tc-obs: three counter adds and one histogram lock per
    /// distinct iteration count, where per-step recording paid three of
    /// each per timestep.
    fn flush(&self) {
        let steps = self.solved.iter().sum();
        let iters = self
            .solved
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum();
        tc_obs::counter("sim.newton.steps").add(steps);
        tc_obs::counter("sim.newton.iters").add(iters);
        tc_obs::counter("sim.quiet_steps").add(self.quiet);
        let hist = tc_obs::histogram("sim.newton.iters_per_step");
        for (k, &n) in self.solved.iter().enumerate() {
            hist.record_n(k as f64, n);
        }
    }
}

#[cfg(test)]
mod quiet_step_exactness;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Pwl;
    use tc_core::units::{Ff, Kohm};
    use tc_device::{MosDevice, VtClass};

    #[test]
    fn dense_solver_solves_known_system() {
        // [2 1; 1 3] x = [5; 10] → x = [1; 3]
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        solve_dense(&mut a, &mut b, 2).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dense_solver_rejects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(solve_dense(&mut a, &mut b, 2).is_err());
    }

    #[test]
    fn rc_charging_matches_analytic_time_constant() {
        // 1 kΩ from a 1 V step source into 10 fF: tau = 10 ps.
        let tech = Technology::planar_28nm();
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let out = ckt.node("out");
        ckt.source(src, Pwl::ramp(0.0, 0.01, Volt::new(0.0), Volt::new(1.0)));
        ckt.resistor(src, out, Kohm::new(1.0));
        ckt.cap_to_ground(out, Ff::new(10.0));
        let opts = TranOptions {
            t_stop: 60.0,
            dt: 0.05,
            settle: 50.0,
            cmin: 0.0001,
            ..Default::default()
        };
        let res = transient(&ckt, &tech, &opts).unwrap();
        let w = res.waveform(out);
        // After one tau (10 ps): 63.2%; after 3 tau: 95%.
        let v_tau = w.at(10.0);
        assert!(
            (v_tau - 0.632).abs() < 0.02,
            "v(tau) = {v_tau}, want ~0.632"
        );
        assert!(w.at(30.0) > 0.94);
        assert!(res.final_voltage(out) > 0.99);
    }

    #[test]
    fn capacitive_divider_settles() {
        // Two caps in series from a stepped source: the middle node divides.
        let tech = Technology::planar_28nm();
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let mid = ckt.node("mid");
        ckt.source(src, Pwl::ramp(0.0, 1.0, Volt::ZERO, Volt::new(1.0)));
        ckt.capacitor(src, mid, Ff::new(3.0));
        ckt.cap_to_ground(mid, Ff::new(1.0));
        let opts = TranOptions {
            t_stop: 20.0,
            dt: 0.1,
            settle: 10.0,
            cmin: 1e-5,
            ..Default::default()
        };
        let res = transient(&ckt, &tech, &opts).unwrap();
        // Divider: 3/(3+1) = 0.75 right after the edge (gmin discharges it
        // only on far longer timescales).
        let v = res.waveform(mid).at(3.0);
        assert!((v - 0.75).abs() < 0.03, "divider voltage {v}");
    }

    /// The stamp before the drain-step reuse: four full polarity-resolved
    /// calls through the public `MosDevice::drain_current`.
    fn four_call_stamp(
        dev: &MosDevice,
        tech: &Technology,
        t: Celsius,
        vd: f64,
        vg: f64,
        vs: f64,
    ) -> [f64; 4] {
        let id = |vd: f64, vg: f64, vs: f64| {
            let i = |vgs: f64, vds: f64| dev.drain_current(tech, Volt::new(vgs), Volt::new(vds), t);
            match dev.kind {
                MosKind::Nmos if vd >= vs => i(vg - vs, vd - vs),
                MosKind::Nmos => -i(vg - vd, vs - vd),
                MosKind::Pmos if vs >= vd => -i(vs - vg, vs - vd),
                MosKind::Pmos => i(vd - vg, vd - vs),
            }
        };
        let i_d = id(vd, vg, vs);
        [
            i_d,
            (id(vd + H, vg, vs) - i_d) / H,
            (id(vd, vg + H, vs) - i_d) / H,
            (id(vd, vg, vs + H) - i_d) / H,
        ]
    }

    #[test]
    fn drain_step_reuse_matches_four_calls_bit_for_bit() {
        let tech = Technology::planar_28nm();
        // Drain offsets from the source: both swapped orientations, the
        // NMOS `vd == vs` edge, and the PMOS band `0 ≤ vs − vd < H` where
        // the drain step flips the terminal roles.
        let dvds = [-0.3, -2.0 * H, -H, -0.5 * H, 0.0, 0.5 * H, H, 0.3];
        // Gate voltages from deep subthreshold to strongly on (x > 40
        // needs ~1.5 V of overdrive) for both channel types.
        let vgs = [-1.7, -0.2, 0.1, 0.45, 0.9, 2.6];
        let (mut sub, mut on) = (0, 0);
        for kind in [MosKind::Nmos, MosKind::Pmos] {
            let dev = MosDevice::new(kind, VtClass::Svt, 1.3);
            for temp in [-40.0, 25.0, 125.0] {
                let t = Celsius::new(temp);
                let fet = dev.fold(&tech, t);
                for vs in [0.0, 0.45, 0.9] {
                    for dvd in dvds {
                        let vd = vs + dvd;
                        for vg in vgs {
                            let drive = match kind {
                                MosKind::Nmos => vg - vs.min(vd),
                                MosKind::Pmos => vs.max(vd) - vg,
                            };
                            if (drive.max(0.0) - fet.vt) / fet.n_vt > 40.0 {
                                on += 1;
                            } else {
                                sub += 1;
                            }
                            let got = fet_stamp(kind, &fet, vd, vg, vs).map(f64::to_bits);
                            let want =
                                four_call_stamp(&dev, &tech, t, vd, vg, vs).map(f64::to_bits);
                            assert_eq!(
                                got, want,
                                "{kind:?} at {temp} °C: vd {vd}, vg {vg}, vs {vs}"
                            );
                        }
                    }
                }
            }
        }
        assert!(sub > 0 && on > 0, "grid covers both overdrive branches");
    }

    #[test]
    fn rejects_bad_options_and_double_source() {
        let tech = Technology::planar_28nm();
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.source(a, Pwl::constant(Volt::new(1.0)));
        ckt.source(a, Pwl::constant(Volt::new(0.5)));
        assert!(transient(&ckt, &tech, &TranOptions::default()).is_err());

        let ckt2 = Circuit::new();
        let opts = TranOptions {
            dt: -1.0,
            ..Default::default()
        };
        assert!(transient(&ckt2, &tech, &opts).is_err());
    }
}
