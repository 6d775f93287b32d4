//! Byte-stability goldens for the SoA netlist refactor.
//!
//! The flat data plane (CSR input columns, pooled sink lists, interned
//! names) must be an *invisible* change: the same generator seed, ECO
//! script and journal replay must emit byte-for-byte the Verilog the
//! pre-refactor AoS netlist emitted. The constants below (lengths and
//! FNV-1a hashes) and `golden/c5315_seed2015.v` were captured from the
//! last pre-refactor build; any drift here means the storage change
//! leaked into observable behavior.

use tc_core::ids::{CellId, NetId};
use tc_core::rng::Rng;
use tc_core::text::fnv1a;
use tc_liberty::{CellKind, LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, generate_streamed, BenchProfile};
use tc_netlist::{parse_verilog, parse_verilog_from, write_verilog, Netlist};

const C5315_LEN: usize = 205_685;
const C5315_HASH: u64 = 0xbb28_7a68_3c1a_7303;
const C5315_ECO_LEN: usize = 205_782;
const C5315_ECO_HASH: u64 = 0x64ae_c0b0_da19_3ac2;
const SCALE50K_LEN: usize = 4_364_444;
const SCALE50K_HASH: u64 = 0x8398_f602_99a0_2d5a;

fn lib() -> Library {
    Library::generate(&LibConfig::default(), &PvtCorner::typical())
}

/// Panics with the first differing line instead of dumping megabytes.
fn assert_same_text(a: &str, b: &str, what: &str) {
    if a == b {
        return;
    }
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "{what}: first divergence at line {i}");
    }
    panic!("{what}: lengths differ ({} vs {})", a.len(), b.len());
}

/// The deterministic mixed ECO script the golden constants were captured
/// with: wirelength scaling, NDR promotion, Vt swaps on combinational
/// cells, and buffer insertions on long multi-sink nets.
fn apply_eco_script(nl: &mut Netlist, lib: &Library, edits: usize) {
    let mut rng = Rng::seed_from(2015);
    let mut applied = 0usize;
    while applied < edits {
        match rng.below(4) {
            0 => {
                let net = NetId::new(rng.below(nl.net_count()));
                let cur = nl.net(net).wire_length_um;
                nl.set_wire_length(net, (cur * rng.uniform_in(0.6, 1.4)).max(1.0));
                applied += 1;
            }
            1 => {
                let net = NetId::new(rng.below(nl.net_count()));
                nl.set_route_class(net, 1 + rng.below(2) as u8);
                applied += 1;
            }
            2 => {
                let cell = CellId::new(rng.below(nl.cell_count()));
                if lib.cell(nl.cell(cell).master).kind == CellKind::Flop {
                    continue;
                }
                let Some(faster) = lib.vt_faster(nl.cell(cell).master) else {
                    continue;
                };
                nl.swap_master(lib, cell, faster).expect("swap");
                applied += 1;
            }
            _ => {
                let net = NetId::new(rng.below(nl.net_count()));
                let n = nl.net(net);
                if n.driver.is_none() || n.sinks.len() < 2 || n.wire_length_um < 60.0 {
                    continue;
                }
                let Some(buf) = lib.variant("BUF", tc_device::VtClass::Svt, 4.0) else {
                    continue;
                };
                let moved: Vec<_> = n.sinks[..n.sinks.len() / 2].to_vec();
                let half = n.wire_length_um / 2.0;
                nl.insert_buffer(lib, net, &moved, buf).expect("buffer");
                nl.set_wire_length(net, half);
                applied += 1;
            }
        }
    }
}

#[test]
fn c5315_generation_matches_pre_refactor_golden() {
    let lib = lib();
    let nl = generate(&lib, BenchProfile::c5315(), 2015).unwrap();
    let v = write_verilog(&nl, &lib);
    let golden = include_str!("golden/c5315_seed2015.v");
    assert_same_text(&v, golden, "c5315 seed-2015 Verilog vs committed golden");
    assert_eq!(v.len(), C5315_LEN);
    assert_eq!(fnv1a(v.as_bytes()), C5315_HASH);
}

#[test]
fn c5315_eco_script_and_journal_undo_are_byte_stable() {
    let lib = lib();
    let mut nl = generate(&lib, BenchProfile::c5315(), 2015).unwrap();
    let v0 = write_verilog(&nl, &lib);

    // Generation itself journals its construction edits, so the undo
    // target is the post-generation cursor, not zero.
    let t0 = nl.journal_len();
    apply_eco_script(&mut nl, &lib, 12);
    let v_eco = write_verilog(&nl, &lib);
    assert_eq!(v_eco.len(), C5315_ECO_LEN);
    assert_eq!(fnv1a(v_eco.as_bytes()), C5315_ECO_HASH);

    nl.undo_to(t0).unwrap();
    let v_undone = write_verilog(&nl, &lib);
    assert_same_text(&v_undone, &v0, "journal undo round-trip");
}

#[test]
fn c5315_verilog_parse_roundtrip_is_byte_stable() {
    let lib = lib();
    let golden = include_str!("golden/c5315_seed2015.v");
    // Tiny buffer capacity forces statements to span refills, exercising
    // the streaming accumulation path.
    let reader = std::io::BufReader::with_capacity(23, golden.as_bytes());
    let parsed = parse_verilog_from(reader, &lib).unwrap();
    let v = write_verilog(&parsed, &lib);
    assert_same_text(&v, golden, "parse→write round-trip");
}

/// Cell by cell (master, input net ids) and net by net (driver, sinks).
/// `sinks_in_order` also compares each net's sink *order*, which the
/// Verilog text does not carry: the reader always produces cell-then-pin
/// order, the generators (which wire flop D pins last) do not.
fn assert_same_structure(a: &Netlist, b: &Netlist, sinks_in_order: bool) {
    assert_eq!(a.cell_count(), b.cell_count());
    assert_eq!(a.net_count(), b.net_count());
    assert_eq!(a.primary_inputs(), b.primary_inputs());
    for (x, y) in a.cells().zip(b.cells()) {
        assert_eq!((x.name, x.master), (y.name, y.master));
        assert_eq!((x.inputs, x.output), (y.inputs, y.output), "{}", y.name);
    }
    for (x, y) in a.nets().zip(b.nets()) {
        assert_eq!(
            (x.name, x.driver, x.is_output),
            (y.name, y.driver, y.is_output)
        );
        let (mut xs, mut ys) = (x.sinks.to_vec(), y.sinks.to_vec());
        if !sinks_in_order {
            xs.sort_by_key(|s| (s.cell, s.pin));
            ys.sort_by_key(|s| (s.cell, s.pin));
        }
        assert_eq!(xs, ys, "sinks of {}", y.name);
    }
}

#[test]
fn c5315_parse_rebuilds_the_netlist_it_reads_without_edits() {
    let lib = lib();
    let generated = generate(&lib, BenchProfile::c5315(), 2015).unwrap();
    let parsed = parse_verilog(&write_verilog(&generated, &lib), &lib).unwrap();
    parsed.validate(&lib).unwrap();
    assert_eq!(parsed.journal_len(), 0, "construction is not an ECO");
    assert_same_structure(&parsed, &generated, false);
    // From a parsed design on, the round trip is the identity.
    let again = parse_verilog(&write_verilog(&parsed, &lib), &lib).unwrap();
    assert_eq!(again.journal_len(), 0);
    assert_same_structure(&again, &parsed, true);
}

#[test]
fn scale_50k_streamed_generation_matches_pre_refactor_hash() {
    let lib = lib();
    let nl = generate_streamed(&lib, BenchProfile::scale_50k(), 2015).unwrap();
    let v = write_verilog(&nl, &lib);
    assert_eq!(v.len(), SCALE50K_LEN);
    assert_eq!(fnv1a(v.as_bytes()), SCALE50K_HASH);
}
