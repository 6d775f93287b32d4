//! The arc layout STA reads libraries by: a combinational cell's arc `i`
//! starts at its input pin `i`, and every table of an arc samples the
//! delay table's axes, so one located point reads them all. Checked on
//! every corner's library, with LVF on and off and with aging.

use tc_liberty::{CellKind, LibConfig, Library, ProcessCorner, PvtCorner};

fn corners() -> Vec<PvtCorner> {
    let mut corners = vec![
        PvtCorner::typical(),
        PvtCorner::slow_cold(),
        PvtCorner::slow_hot(),
        PvtCorner::fast_cold(),
    ];
    corners.extend(ProcessCorner::ALL.iter().map(|&process| PvtCorner {
        process,
        ..PvtCorner::typical()
    }));
    corners
}

fn configs() -> Vec<(&'static str, LibConfig)> {
    let lvf = LibConfig::default();
    let no_lvf = LibConfig {
        with_lvf: false,
        ..LibConfig::default()
    };
    let aged = LibConfig {
        aging_delta_vt: 0.04,
        ..LibConfig::default()
    };
    vec![("lvf", lvf), ("no-lvf", no_lvf), ("aged", aged)]
}

#[test]
fn arcs_are_in_pin_order_and_share_one_axis_pair() {
    for corner in corners() {
        for (what, config) in configs() {
            let lib = Library::try_generate(&config, &corner).unwrap();
            let at = |cell: &str| format!("{} {what}: {cell}", corner.label());
            for cell in lib.cells() {
                match cell.kind {
                    CellKind::Comb => {
                        assert_eq!(
                            cell.arcs.len(),
                            cell.input_pins().len(),
                            "{}",
                            at(&cell.name)
                        );
                        for (i, pin) in cell.input_pins().iter().enumerate() {
                            let arc = cell.arc_of_pin(i).unwrap();
                            assert_eq!(arc.input, *pin, "{}", at(&cell.name));
                            assert!(std::ptr::eq(arc, cell.arc_from(pin).unwrap()));
                        }
                    }
                    CellKind::Flop => {
                        assert!(cell.arc_of_pin(0).is_none(), "{}", at(&cell.name));
                        assert!(cell.arc_from("CK").is_some(), "{}", at(&cell.name));
                    }
                }
                for arc in &cell.arcs {
                    let (rows, cols) = (arc.delay.row_axis(), arc.delay.col_axis());
                    let mut tables = vec![&arc.out_slew];
                    if let Some(lvf) = &arc.lvf {
                        tables.extend([&lvf.sigma_late, &lvf.sigma_early]);
                    }
                    assert_eq!(arc.lvf.is_some(), config.with_lvf, "{}", at(&cell.name));
                    for t in tables {
                        assert_eq!(t.row_axis(), rows, "{}", at(&cell.name));
                        assert_eq!(t.col_axis(), cols, "{}", at(&cell.name));
                    }
                }
            }
        }
    }
}
