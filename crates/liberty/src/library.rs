//! The [`Library`] container and the synthetic library generator.
//!
//! A [`Library`] is characterized *at one PVT corner* — multi-corner
//! analysis (MCMM, §2.3) holds one library per corner, which is exactly
//! why the paper's "corner super-explosion" translates into library-count
//! and signoff-runtime explosions (§4, Futures (4)(iv)).

use std::collections::HashMap;

use tc_core::error::{Error, Result};
use tc_core::ids::LibCellId;
use tc_core::lut::Lut2;
use tc_core::units::Ff;
use tc_device::{MosDevice, MosKind, Technology, VtClass};

use crate::cell::{CellKind, LibCell, TimingArc};
use crate::corner::PvtCorner;
use crate::flop::{FlopTiming, InterdepModel};
use crate::nldm::{drive_model, CellTemplate};
use crate::variation::{LvfTable, PocvSigma};

/// Library-generation configuration.
#[derive(Clone, Debug)]
pub struct LibConfig {
    /// Device technology.
    pub tech: Technology,
    /// Vt flavours to emit.
    pub vts: Vec<VtClass>,
    /// Drive strengths for combinational cells.
    pub comb_drives: Vec<f64>,
    /// Drive strengths for flops.
    pub flop_drives: Vec<f64>,
    /// Whether to attach LVF sigma tables.
    pub with_lvf: bool,
    /// Base relative local-variation sigma used for POCV/LVF.
    pub local_sigma: f64,
    /// Late/early sigma asymmetry (>1 = setup long tail, Fig 7).
    pub sigma_asymmetry: f64,
    /// Uniform BTI threshold shift baked into the characterization (V);
    /// `tc-aging` regenerates libraries with nonzero values.
    pub aging_delta_vt: f64,
}

impl Default for LibConfig {
    fn default() -> Self {
        LibConfig {
            tech: Technology::planar_28nm(),
            vts: VtClass::ALL.to_vec(),
            comb_drives: vec![1.0, 2.0, 4.0, 8.0],
            flop_drives: vec![1.0, 2.0],
            with_lvf: true,
            local_sigma: 0.045,
            sigma_asymmetry: 1.3,
            aging_delta_vt: 0.0,
        }
    }
}

/// A characterized cell library at one PVT corner.
#[derive(Clone, Debug)]
pub struct Library {
    /// The corner this library was characterized at.
    pub corner: PvtCorner,
    /// The device technology behind it.
    pub tech: Technology,
    cells: Vec<LibCell>,
    by_name: HashMap<String, LibCellId>,
}

impl Library {
    /// Generates a synthetic library at the given corner.
    ///
    /// Characterization is infallible for the built-in templates (every
    /// table is sampled on the static NLDM axes); this is
    /// [`try_generate`](Self::try_generate) with that invariant asserted
    /// once, here, instead of at dozens of interior call sites.
    pub fn generate(config: &LibConfig, corner: &PvtCorner) -> Library {
        Library::try_generate(config, corner).expect("static NLDM axes characterize cleanly")
    }

    /// Generates a synthetic library, surfacing characterization
    /// failures as errors instead of panics.
    ///
    /// Every cell it returns keeps the two layout invariants STA reads
    /// arcs by: a combinational cell's arc `i` starts at its input pin
    /// `i` ([`LibCell::arc_of_pin`]), and every table of an arc samples
    /// the delay table's axes, so one [`Lut2::locate`] serves them all.
    ///
    /// # Errors
    ///
    /// Propagates the first table-construction failure, naming the cell
    /// being characterized, and fails if a cell breaks either invariant.
    pub fn try_generate(config: &LibConfig, corner: &PvtCorner) -> Result<Library> {
        let mut cells = Vec::new();

        // Aging slows every cell by the idsat ratio fresh/aged at the
        // corner voltage (the AVS experiments re-generate libraries with
        // different assumed ΔVt).
        let aging_factor = if config.aging_delta_vt > 0.0 {
            let fresh = MosDevice::new(MosKind::Nmos, VtClass::Svt, 1.0);
            let aged = fresh.aged(config.aging_delta_vt);
            fresh.idsat(&config.tech, corner.voltage, corner.temperature)
                / aged.idsat(&config.tech, corner.voltage, corner.temperature)
        } else {
            1.0
        };

        for template in &CellTemplate::COMB {
            for &vt in &config.vts {
                for &drive in &config.comb_drives {
                    cells.push(build_comb_cell(
                        config,
                        corner,
                        template,
                        vt,
                        drive,
                        aging_factor,
                    )?);
                }
            }
        }
        for &vt in &config.vts {
            for &drive in &config.flop_drives {
                cells.push(build_flop_cell(config, corner, vt, drive, aging_factor)?);
            }
        }

        for cell in &cells {
            check_arc_layout(cell)?;
        }
        let by_name = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), LibCellId::new(i)))
            .collect();
        Ok(Library {
            corner: *corner,
            tech: config.tech.clone(),
            cells,
            by_name,
        })
    }

    /// All cells.
    pub fn cells(&self) -> &[LibCell] {
        &self.cells
    }

    /// Cell by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are only minted by this
    /// library).
    pub fn cell(&self, id: LibCellId) -> &LibCell {
        &self.cells[id.index()]
    }

    /// Cell id by exact name.
    pub fn id_of(&self, name: &str) -> Option<LibCellId> {
        self.by_name.get(name).copied()
    }

    /// Cell by exact name.
    pub fn cell_named(&self, name: &str) -> Option<&LibCell> {
        self.id_of(name).map(|id| self.cell(id))
    }

    /// The specific (template, vt, drive) variant, if it exists.
    pub fn variant(&self, template: &str, vt: VtClass, drive: f64) -> Option<LibCellId> {
        self.id_of(&cell_name(template, vt, drive))
    }

    /// All drive/Vt variants of a template.
    pub fn variants_of<'a>(&'a self, template: &'a str) -> impl Iterator<Item = LibCellId> + 'a {
        self.cells
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.template.name == template)
            .map(|(i, _)| LibCellId::new(i))
    }

    /// Same cell, one Vt step faster, if the library has it.
    pub fn vt_faster(&self, id: LibCellId) -> Option<LibCellId> {
        let c = self.cell(id);
        c.vt.faster()
            .and_then(|vt| self.variant(c.template.name, vt, c.drive))
    }

    /// Same cell, one Vt step slower (power recovery), if available.
    pub fn vt_slower(&self, id: LibCellId) -> Option<LibCellId> {
        let c = self.cell(id);
        c.vt.slower()
            .and_then(|vt| self.variant(c.template.name, vt, c.drive))
    }

    /// Same cell, next drive strength up, if available.
    pub fn upsize(&self, id: LibCellId) -> Option<LibCellId> {
        let c = self.cell(id);
        let mut drives: Vec<f64> = self
            .variants_of(c.template.name)
            .map(|i| self.cell(i).drive)
            .collect();
        drives.sort_by(|a, b| a.total_cmp(b));
        drives.dedup();
        let next = drives.into_iter().find(|&d| d > c.drive)?;
        self.variant(c.template.name, c.vt, next)
    }

    /// Same cell, next drive strength down, if available.
    pub fn downsize(&self, id: LibCellId) -> Option<LibCellId> {
        let c = self.cell(id);
        let mut drives: Vec<f64> = self
            .variants_of(c.template.name)
            .map(|i| self.cell(i).drive)
            .collect();
        drives.sort_by(|a, b| b.total_cmp(a));
        drives.dedup();
        let next = drives.into_iter().find(|&d| d < c.drive)?;
        self.variant(c.template.name, c.vt, next)
    }
}

/// The arc layout STA relies on (see [`Library::try_generate`]): arcs in
/// pin order for a combinational cell, one axis pair per arc.
fn check_arc_layout(cell: &LibCell) -> Result<()> {
    let broken = |what: String| Err(Error::internal(format!("{}: {what}", cell.name)));
    let arc_pins = cell.arcs.iter().map(|a| a.input.as_str());
    if cell.kind == CellKind::Comb && !arc_pins.eq(cell.input_pins().iter().copied()) {
        return broken(format!(
            "arcs are not one per pin of {:?}, in order",
            cell.input_pins()
        ));
    }
    for arc in &cell.arcs {
        let lvf = arc.lvf.iter().flat_map(|l| [&l.sigma_late, &l.sigma_early]);
        if !std::iter::once(&arc.out_slew)
            .chain(lvf)
            .all(|t| t.same_axes(&arc.delay))
        {
            return broken(format!("arc from {} mixes table axes", arc.input));
        }
    }
    Ok(())
}

/// Canonical cell name: `TEMPLATE_X<drive>_<VT>`.
pub fn cell_name(template: &str, vt: VtClass, drive: f64) -> String {
    format!(
        "{template}_X{}_{}",
        drive as u32,
        vt.suffix().to_uppercase()
    )
}

fn leakage_uw(
    config: &LibConfig,
    corner: &PvtCorner,
    template: &CellTemplate,
    vt: VtClass,
    drive: f64,
) -> f64 {
    // Half the devices leak at a time, crudely.
    let width = template.unit_width_um * drive * 0.5;
    let i_off = config.tech.ioff_per_um
        * width
        * vt.leakage_factor()
        * corner.process.leakage_factor()
        * (((corner.temperature.value() - 25.0) / 45.0).exp());
    // mA·V = mW → µW.
    i_off * corner.voltage.value() * 1000.0
}

fn switch_energy(corner: &PvtCorner, c_par: Ff) -> (f64, f64) {
    // E = ½·C·V²; fF·V² = fJ.
    let v2 = corner.voltage.value() * corner.voltage.value();
    (0.5 * v2, 0.5 * v2 * c_par.value())
}

fn build_comb_cell(
    config: &LibConfig,
    corner: &PvtCorner,
    template: &'static CellTemplate,
    vt: VtClass,
    drive: f64,
    aging_factor: f64,
) -> Result<LibCell> {
    let name = cell_name(template.name, vt, drive);
    let in_cell = |e: Error| Error::internal(format!("characterizing {name}: {e}"));
    let model = drive_model(&config.tech, template, vt, drive, corner);
    let base_delay = model
        .delay_table()
        .map_err(in_cell)?
        .map(|d| d * aging_factor);
    let base_slew = model
        .slew_table()
        .map_err(in_cell)?
        .map(|s| s * aging_factor);

    let mut arcs = Vec::with_capacity(template.inputs);
    for i in 0..template.inputs {
        // Later inputs of a stack are slightly slower (the `B` input of
        // a NAND2 drives the top of the series stack).
        let skew = 1.0 + 0.06 * i as f64;
        let delay = base_delay.map(|d| d * skew);
        let lvf = match config.with_lvf {
            true => Some(
                LvfTable::from_delay_surface(&delay, config.local_sigma, config.sigma_asymmetry)
                    .map_err(in_cell)?,
            ),
            false => None,
        };
        arcs.push(TimingArc {
            input: ["A", "B", "C", "D"][i].to_string(),
            delay,
            out_slew: base_slew.clone(),
            lvf,
        });
    }

    Ok(LibCell {
        name,
        template,
        kind: CellKind::Comb,
        vt,
        drive,
        input_cap: model.c_in,
        area_sites: template.area_sites * (1.0 + 0.35 * (drive - 1.0)),
        leakage_uw: leakage_uw(config, corner, template, vt, drive),
        switch_energy_fj: switch_energy(corner, model.c_par),
        arcs,
        flop: None,
        pocv: PocvSigma {
            late: config.local_sigma * config.sigma_asymmetry,
            early: config.local_sigma,
        },
    })
}

fn build_flop_cell(
    config: &LibConfig,
    corner: &PvtCorner,
    vt: VtClass,
    drive: f64,
    aging_factor: f64,
) -> Result<LibCell> {
    let template = &CellTemplate::DFF;
    let name = cell_name("DFF", vt, drive);
    let in_cell = |e: Error| Error::internal(format!("characterizing {name}: {e}"));
    let model = drive_model(&config.tech, template, vt, drive, corner);
    let c2q_delay = model
        .delay_table()
        .map_err(in_cell)?
        .map(|d| (d + 25.0) * aging_factor);
    let c2q_slew = model
        .slew_table()
        .map_err(in_cell)?
        .map(|s| s * aging_factor);
    let lvf = match config.with_lvf {
        true => Some(
            LvfTable::from_delay_surface(&c2q_delay, config.local_sigma, config.sigma_asymmetry)
                .map_err(in_cell)?,
        ),
        false => None,
    };

    // Constraint tables vs (data slew, clock slew); they scale with the
    // same corner factor as delay (slower silicon needs more setup).
    let k = corner.delay_factor(&config.tech, vt) * aging_factor;
    let axes: Vec<f64> = vec![5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0];
    let setup = Lut2::from_fn(axes.clone(), axes.clone(), |ds, cs| {
        (18.0 + 0.35 * ds + 0.10 * cs) * k
    })
    .map_err(|e| Error::internal(format!("characterizing {name}: setup grid: {e}")))?;
    let hold = Lut2::from_fn(axes.clone(), axes.clone(), |ds, cs| {
        (4.0 - 0.10 * ds + 0.22 * cs) * k
    })
    .map_err(|e| Error::internal(format!("characterizing {name}: hold grid: {e}")))?;

    let interdep = InterdepModel {
        c2q0: c2q_delay.eval(20.0, 4.0),
        tau_s: 12.0 * k,
        s0: 16.0 * k,
        tau_h: 10.0 * k,
        h0: 3.0 * k,
        ..InterdepModel::typical_65nm()
    };

    Ok(LibCell {
        name,
        template,
        kind: CellKind::Flop,
        vt,
        drive,
        input_cap: model.c_in,
        area_sites: template.area_sites * (1.0 + 0.35 * (drive - 1.0)),
        leakage_uw: leakage_uw(config, corner, template, vt, drive),
        switch_energy_fj: switch_energy(corner, model.c_par),
        arcs: vec![TimingArc {
            input: "CK".to_string(),
            delay: c2q_delay,
            out_slew: c2q_slew,
            lvf,
        }],
        flop: Some(FlopTiming {
            setup,
            hold,
            interdep,
        }),
        pocv: PocvSigma {
            late: config.local_sigma * config.sigma_asymmetry,
            early: config.local_sigma,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_full_variant_matrix() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        // 6 comb templates × 4 vts × 4 drives + DFF × 4 vts × 2 drives.
        assert_eq!(lib.cells().len(), 6 * 4 * 4 + 4 * 2);
        assert!(lib.cell_named("INV_X8_ULVT").is_some());
        assert!(lib.cell_named("DFF_X2_HVT").is_some());
        assert!(lib.cell_named("INV_X3_SVT").is_none());
    }

    #[test]
    fn try_generate_matches_generate() {
        let cfg = LibConfig::default();
        let corner = PvtCorner::typical();
        let fallible = Library::try_generate(&cfg, &corner).unwrap();
        let infallible = Library::generate(&cfg, &corner);
        assert_eq!(fallible.cells().len(), infallible.cells().len());
        for (a, b) in fallible.cells().iter().zip(infallible.cells()) {
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn arc_layout_check_refuses_reordered_arcs_and_mixed_axes() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nand = lib.cell_named("NAND2_X1_SVT").unwrap();
        assert!(check_arc_layout(nand).is_ok());
        let mut swapped = nand.clone();
        swapped.arcs.swap(0, 1);
        assert!(check_arc_layout(&swapped).is_err());
        let mut short = nand.clone();
        short.arcs.pop();
        assert!(check_arc_layout(&short).is_err());
        let mut mixed = nand.clone();
        mixed.arcs[1].out_slew =
            Lut2::from_fn(vec![1.0, 2.0], vec![1.0, 2.0], |s, l| s + l).unwrap();
        assert!(check_arc_layout(&mixed).is_err());
    }

    #[test]
    fn vt_swap_and_sizing_navigation() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let id = lib.variant("NAND2", VtClass::Svt, 2.0).unwrap();
        let faster = lib.vt_faster(id).unwrap();
        assert_eq!(lib.cell(faster).vt, VtClass::Lvt);
        let up = lib.upsize(id).unwrap();
        assert!((lib.cell(up).drive - 4.0).abs() < 1e-9);
        let down = lib.downsize(id).unwrap();
        assert!((lib.cell(down).drive - 1.0).abs() < 1e-9);
        // Ends of the ladders.
        let x8 = lib.variant("NAND2", VtClass::Svt, 8.0).unwrap();
        assert!(lib.upsize(x8).is_none());
        let ulvt = lib.variant("NAND2", VtClass::Ulvt, 2.0).unwrap();
        assert!(lib.vt_faster(ulvt).is_none());
    }

    #[test]
    fn faster_variants_really_are_faster() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let svt = lib.cell_named("INV_X2_SVT").unwrap();
        let lvt = lib.cell_named("INV_X2_LVT").unwrap();
        assert!(lvt.arcs[0].delay_at(20.0, 4.0) < svt.arcs[0].delay_at(20.0, 4.0));
        assert!(lvt.leakage_uw > svt.leakage_uw);
    }

    #[test]
    fn slow_corner_library_is_slower() {
        let cfg = LibConfig::default();
        let typ = Library::generate(&cfg, &PvtCorner::typical());
        let slow = Library::generate(&cfg, &PvtCorner::slow_cold());
        let d_t = typ.cell_named("NAND2_X1_SVT").unwrap().arcs[0].delay_at(20.0, 4.0);
        let d_s = slow.cell_named("NAND2_X1_SVT").unwrap().arcs[0].delay_at(20.0, 4.0);
        assert!(d_s > d_t * 1.2, "slow {d_s} vs typical {d_t}");
    }

    #[test]
    fn aged_library_is_slower() {
        let mut cfg = LibConfig::default();
        let fresh = Library::generate(&cfg, &PvtCorner::typical());
        cfg.aging_delta_vt = 0.04;
        let aged = Library::generate(&cfg, &PvtCorner::typical());
        let d_f = fresh.cell_named("INV_X1_SVT").unwrap().arcs[0].delay_at(20.0, 4.0);
        let d_a = aged.cell_named("INV_X1_SVT").unwrap().arcs[0].delay_at(20.0, 4.0);
        assert!(d_a > d_f * 1.02, "aged {d_a} vs fresh {d_f}");
        // Aged flop also needs more setup.
        let s_f = fresh
            .cell_named("DFF_X1_SVT")
            .unwrap()
            .flop
            .as_ref()
            .unwrap()
            .setup_at(20.0, 20.0);
        let s_a = aged
            .cell_named("DFF_X1_SVT")
            .unwrap()
            .flop
            .as_ref()
            .unwrap()
            .setup_at(20.0, 20.0);
        assert!(s_a > s_f);
    }

    #[test]
    fn second_nand_input_is_slower() {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let nand = lib.cell_named("NAND2_X1_SVT").unwrap();
        let a = nand.arc_from("A").unwrap().delay_at(20.0, 4.0);
        let b = nand.arc_from("B").unwrap().delay_at(20.0, 4.0);
        assert!(b > a);
    }

    #[test]
    fn lvf_tables_attached_when_requested() {
        let mut cfg = LibConfig::default();
        let lib = Library::generate(&cfg, &PvtCorner::typical());
        assert!(lib.cells()[0].arcs[0].lvf.is_some());
        cfg.with_lvf = false;
        let lib = Library::generate(&cfg, &PvtCorner::typical());
        assert!(lib.cells()[0].arcs[0].lvf.is_none());
    }
}
