//! Library cells: pins, timing arcs, power and area.

use tc_core::lut::Lut2;
use tc_core::units::{Ff, Ps};
use tc_device::VtClass;

use crate::flop::FlopTiming;
use crate::nldm::CellTemplate;
use crate::variation::{LvfTable, PocvSigma};

/// Broad functional class of a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// Combinational gate (including buffers/inverters).
    Comb,
    /// Edge-triggered flip-flop.
    Flop,
}

/// One input→output timing arc with its NLDM tables and optional LVF
/// sigma tables.
#[derive(Clone, Debug)]
pub struct TimingArc {
    /// Input pin name ("A", "B", … or "CK" for a flop's c2q arc).
    pub input: String,
    /// Arc delay table: rows = input slew (ps), cols = load (fF).
    pub delay: Lut2,
    /// Output slew table on the same axes.
    pub out_slew: Lut2,
    /// LVF sigma tables, if the library carries them.
    pub lvf: Option<LvfTable>,
}

impl TimingArc {
    /// Arc delay at an operating point.
    pub fn delay_at(&self, slew_ps: f64, load_ff: f64) -> Ps {
        Ps::new(self.delay.eval(slew_ps, load_ff))
    }
}

/// A library cell (a "master"): one drive/Vt variant of a template.
#[derive(Clone, Debug)]
pub struct LibCell {
    /// Full library name, e.g. `NAND2_X2_LVT`.
    pub name: String,
    /// The underlying topology template.
    pub template: &'static CellTemplate,
    /// Functional class.
    pub kind: CellKind,
    /// Threshold flavour.
    pub vt: VtClass,
    /// Drive strength multiplier (the `X` number).
    pub drive: f64,
    /// Capacitance presented by each input pin.
    pub input_cap: Ff,
    /// Footprint in placement sites.
    pub area_sites: f64,
    /// Static leakage power at the library corner, µW.
    pub leakage_uw: f64,
    /// Energy per output switch at the library corner, fJ per fF of load
    /// plus the internal term, as `(per_ff, internal)`.
    pub switch_energy_fj: (f64, f64),
    /// Timing arcs: one per input pin for combinational cells; the CK→Q
    /// arc for flops.
    pub arcs: Vec<TimingArc>,
    /// Sequential constraint data (flops only).
    pub flop: Option<FlopTiming>,
    /// POCV per-cell sigma.
    pub pocv: PocvSigma,
}

impl LibCell {
    /// The arc driven from the given input pin.
    pub fn arc_from(&self, pin: &str) -> Option<&TimingArc> {
        self.arcs.iter().find(|a| a.input == pin)
    }

    /// Worst (slowest) arc delay across all inputs at an operating point.
    pub fn worst_delay(&self, slew_ps: f64, load_ff: f64) -> Ps {
        self.arcs
            .iter()
            .map(|a| a.delay_at(slew_ps, load_ff))
            .fold(Ps::ZERO, Ps::max)
    }

    /// Input pin names for this cell ("A", "B", … / "D", "CK").
    pub fn input_pins(&self) -> &'static [&'static str] {
        static COMB_PINS: [&str; 4] = ["A", "B", "C", "D"];
        static FLOP_PINS: [&str; 2] = ["D", "CK"];
        match self.kind {
            CellKind::Flop => &FLOP_PINS,
            CellKind::Comb => &COMB_PINS[..self.template.inputs],
        }
    }

    /// The arc driven from input pin `pin` (an index into
    /// [`input_pins`](Self::input_pins)) of a combinational cell: its
    /// arcs are in pin order, which [`Library`](crate::Library) checks
    /// when it is generated. `None` for a flop, whose one arc starts at
    /// its clock, not at a data pin.
    pub fn arc_of_pin(&self, pin: usize) -> Option<&TimingArc> {
        match self.kind {
            CellKind::Comb => self.arcs.get(pin),
            CellKind::Flop => None,
        }
    }

    /// Dynamic energy of one output switch into `load_ff`, in fJ.
    pub fn switch_energy(&self, load_ff: f64) -> f64 {
        self.switch_energy_fj.0 * load_ff + self.switch_energy_fj.1
    }

    /// `true` if this cell is a buffer or inverter (usable for buffering
    /// fixes in the closure loop).
    pub fn is_buffer_like(&self) -> bool {
        matches!(self.template.name, "BUF" | "INV")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::PvtCorner;
    use crate::library::{LibConfig, Library};

    fn lib() -> Library {
        Library::generate(&LibConfig::default(), &PvtCorner::typical())
    }

    #[test]
    fn arc_lookup_by_pin() {
        let lib = lib();
        let nand = lib.cell_named("NAND2_X1_SVT").unwrap();
        assert!(nand.arc_from("A").is_some());
        assert!(nand.arc_from("B").is_some());
        assert!(nand.arc_from("Z").is_none());
        assert_eq!(nand.input_pins(), ["A", "B"]);
        assert_eq!(nand.arc_of_pin(1).unwrap().input, "B");
        assert!(nand.arc_of_pin(2).is_none());
    }

    #[test]
    fn flop_pins_and_arcs() {
        let lib = lib();
        let dff = lib.cell_named("DFF_X1_SVT").unwrap();
        assert_eq!(dff.kind, CellKind::Flop);
        assert_eq!(dff.input_pins(), ["D", "CK"]);
        assert!(dff.arc_of_pin(0).is_none(), "no arc starts at D");
        assert!(dff.arc_from("CK").is_some(), "flop carries a c2q arc");
        assert!(dff.flop.is_some());
    }

    #[test]
    fn worst_delay_covers_all_arcs() {
        let lib = lib();
        let aoi = lib.cell_named("AOI21_X1_SVT").unwrap();
        let w = aoi.worst_delay(20.0, 4.0);
        for a in &aoi.arcs {
            assert!(a.delay_at(20.0, 4.0) <= w);
        }
    }

    #[test]
    fn switch_energy_grows_with_load() {
        let lib = lib();
        let inv = lib.cell_named("INV_X1_SVT").unwrap();
        assert!(inv.switch_energy(10.0) > inv.switch_energy(1.0));
        assert!(inv.switch_energy(0.0) > 0.0, "internal energy nonzero");
    }

    #[test]
    fn buffer_detection() {
        let lib = lib();
        assert!(lib.cell_named("BUF_X2_SVT").unwrap().is_buffer_like());
        assert!(!lib.cell_named("NOR2_X1_SVT").unwrap().is_buffer_like());
    }
}
