#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-bench — the paper's figures, printed, emitted and gated
//!
//! Each figure and table of the paper is one function in [`figures`]
//! that returns a [`Figure`]: its tables and notes, the claims that
//! state the paper's qualitative point for it, and its run artifact.
//! The `figures` binary prints them and leaves their sidecars through
//! [`emit`] (BENCH document, RUN artifact, and, with the flight recorder
//! armed, trace + folded stacks + PROF span profile);
//! `tests/figures.rs` asserts every claim and diffs each document
//! against the committed `BENCH_figures.json`, the one exactness
//! baseline of every figure. A document is built from the figure's
//! return values alone; what tc-obs saw is printed as measured lines
//! and kept in the run artifact, never in the document.

use std::path::{Path, PathBuf};

pub mod figures;

use tc_interconnect::BeolStack;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, BenchProfile};
use tc_netlist::Netlist;
use tc_obs::{JsonValue, RunArtifact};

/// One table cell: what it prints and what the document records.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A number printed with the given decimals and unit suffix; the
    /// document records the full-precision value, gated exactly.
    Num(f64, usize, &'static str),
    /// Text, recorded as printed.
    Text(String),
    /// Wall clock in milliseconds, printed without decimals and recorded
    /// as an `elapsed_ms` field: a timing delta `tcdiff` never gates.
    Ms(f64),
}

/// A number cell printed with `prec` decimals.
pub fn num(v: f64, prec: usize) -> Cell {
    Cell::Num(v, prec, "")
}

/// A percentage cell: `v` printed with `prec` decimals and a `%`.
pub fn pct(v: f64, prec: usize) -> Cell {
    Cell::Num(v, prec, "%")
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Num(n as f64, 0, "")
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Num(v, prec, suffix) => write!(f, "{v:.prec$}{suffix}"),
            Cell::Text(s) => f.write_str(s),
            Cell::Ms(ms) => write!(f, "{ms:.0}"),
        }
    }
}

impl Cell {
    fn to_json(&self) -> JsonValue {
        match self {
            Cell::Num(v, ..) => JsonValue::from(*v),
            Cell::Text(s) => JsonValue::str(s.as_str()),
            Cell::Ms(ms) => JsonValue::obj([("elapsed_ms", JsonValue::from(*ms))]),
        }
    }
}

/// One printed block of a figure.
#[derive(Debug)]
enum Item {
    Table(String, Vec<&'static str>, Vec<Vec<Cell>>),
    /// Text (it may hold newlines), part of the document.
    Note(String),
    /// Wall-clock or tc-obs readings: printed, but kept out of the
    /// document, so the exact gate never reads process state.
    Measured(String),
}

/// Fixed-width table text: a blank line, the title, header row, rule,
/// then the rows.
fn render_table(title: &str, headers: &[&str], rows: &[Vec<Cell>]) -> String {
    let text: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Cell::to_string).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &text {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        padded.join(" | ") + "\n"
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = format!("\n== {title} ==\n") + &line(headers.to_vec());
    out += &(rule.join("-+-") + "\n");
    for row in &text {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// The paper's qualitative statement for a figure, read from that
/// figure's own rows.
#[derive(Debug)]
pub struct Claim {
    /// Short snake_case name.
    pub name: &'static str,
    /// Whether the figure shows it.
    pub holds: bool,
    /// The numbers the verdict was read from.
    pub detail: String,
}

/// One figure or table of the paper: what it prints, the claims it
/// carries, and the run artifact [`emit`] writes beside it.
#[derive(Debug)]
pub struct Figure {
    name: &'static str,
    items: Vec<Item>,
    /// The figure's claims.
    pub claims: Vec<Claim>,
    /// The `RUN_<name>.json` artifact.
    pub artifact: RunArtifact,
}

impl Figure {
    /// An empty figure whose artifact is named after it.
    pub fn new(name: &'static str) -> Self {
        Figure {
            name,
            items: Vec::new(),
            claims: Vec::new(),
            artifact: RunArtifact::new(name),
        }
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.items.push(Item::Note(text.into()));
    }

    /// Appends a line of wall-clock or tc-obs readings.
    pub fn measured(&mut self, text: impl Into<String>) {
        self.items.push(Item::Measured(text.into()));
    }

    /// Appends a table; `headers` separates the column headers with
    /// `" | "`, as the table prints them.
    ///
    /// # Panics
    ///
    /// Panics, naming the figure and table, on a row whose width differs
    /// from the headers': a cell past the last header would otherwise be
    /// dropped from the print.
    pub fn table(&mut self, title: impl Into<String>, headers: &'static str, rows: Vec<Vec<Cell>>) {
        let title = title.into();
        let headers: Vec<&'static str> = headers.split(" | ").collect();
        if let Some(i) = rows.iter().position(|r| r.len() != headers.len()) {
            let (name, cells, width) = (self.name, rows[i].len(), headers.len());
            panic!("figure {name}, table {title:?}: row {i} has {cells} cells for {width} headers");
        }
        self.items.push(Item::Table(title, headers, rows));
    }

    /// Records a claim.
    pub fn claim(&mut self, name: &'static str, holds: bool, detail: impl Into<String>) {
        let detail = detail.into();
        self.claims.push(Claim {
            name,
            holds,
            detail,
        });
    }

    /// Whether every claim holds.
    pub fn holds(&self) -> bool {
        self.claims.iter().all(|c| c.holds)
    }

    /// The printed text: tables and notes in order, then the claims.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Table(title, headers, rows) => out += &render_table(title, headers, rows),
                Item::Note(s) | Item::Measured(s) => out += &format!("{s}\n"),
            }
        }
        out += "\nclaims:\n";
        for c in &self.claims {
            let verdict = if c.holds { "holds" } else { "FAILS" };
            out += &format!("  {verdict}  {}: {}\n", c.name, c.detail);
        }
        out
    }

    /// The `BENCH_<name>.json` document: tables, notes and claims.
    ///
    /// It is built from the figure's own return values alone and never
    /// reads process state: with tc-obs, memory counting and the flight
    /// recorder on or off, the same figure renders the same bytes.
    /// [`Figure::measured`] lines are what is printed but left out.
    pub fn doc(&self) -> JsonValue {
        let arr = JsonValue::Arr;
        let (mut tables, mut notes) = (Vec::new(), Vec::new());
        for item in &self.items {
            match item {
                Item::Table(title, headers, rows) => tables.push(JsonValue::obj([
                    ("title", JsonValue::str(title.as_str())),
                    (
                        "headers",
                        arr(headers.iter().map(|h| JsonValue::str(*h)).collect()),
                    ),
                    (
                        "rows",
                        arr(rows
                            .iter()
                            .map(|r| arr(r.iter().map(Cell::to_json).collect()))
                            .collect()),
                    ),
                ])),
                Item::Note(s) => notes.push(JsonValue::str(s.as_str())),
                Item::Measured(_) => {}
            }
        }
        let claims = self.claims.iter().map(|c| {
            JsonValue::obj([
                ("claim", JsonValue::str(c.name)),
                ("holds", JsonValue::from(c.holds)),
                ("detail", JsonValue::str(c.detail.as_str())),
            ])
        });
        JsonValue::obj([
            ("figure", JsonValue::str(self.name)),
            ("tables", arr(tables)),
            ("notes", arr(notes)),
            ("claims", arr(claims.collect())),
        ])
    }
}

/// The standard experiment environment: a typical-corner library and the
/// 20 nm BEOL stack.
pub fn standard_env() -> (Library, BeolStack) {
    (
        Library::generate(&LibConfig::default(), &PvtCorner::typical()),
        BeolStack::n20(),
    )
}

/// A seeded benchmark netlist by profile name, from the classic
/// generator (whose output committed fingerprints depend on).
///
/// # Panics
///
/// Panics on an unknown profile name (harness misuse).
pub fn bench_netlist(lib: &Library, profile: &str, seed: u64) -> Netlist {
    let p = match profile {
        "tiny" => BenchProfile::tiny(),
        "soc_block" => BenchProfile::soc_block(),
        "c5315" => BenchProfile::c5315(),
        "c7552" => BenchProfile::c7552(),
        "aes" => BenchProfile::aes(),
        "mpeg2" => BenchProfile::mpeg2(),
        other => panic!("unknown profile {other}"),
    };
    generate(lib, p, seed).expect("generator is total")
}

/// Runs one figure's study the way the `figures` binary does: under
/// tc-obs, memory counting and the flight recorder, from a reset registry
/// and a fresh memory mark ([`tc_obs::mark_memory`]), so its sidecars
/// hold only its own spans and its own allocations, whatever ran before
/// it in the process. Its document depends on none of them.
pub fn run_figure(study: figures::Study) -> Figure {
    tc_obs::enable();
    tc_obs::enable_memory();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);
    tc_obs::reset();
    tc_obs::mark_memory();
    study()
}

/// The directory generated sidecars land in: `$TC_BENCH_OUT`, default
/// `artifacts/`. Harness output never scatters at the repo root —
/// committed baselines are *copied* to their gated locations, the
/// artifacts directory itself is gitignored.
pub fn out_dir() -> PathBuf {
    std::env::var_os("TC_BENCH_OUT").map_or_else(|| PathBuf::from("artifacts"), PathBuf::from)
}

/// Leaves everything a harness measured in [`out_dir`], under one
/// name: `BENCH_<name>.json` (the `table` the harness printed, for
/// `tcdiff` against a committed baseline), `RUN_<name>.json` (the run
/// artifact) and — when the flight recorder holds events —
/// `<name>.trace.json` (Chrome `trace_event`; load in `chrome://tracing`
/// or Perfetto), `<name>.folded` (folded stacks for `flamegraph.pl`)
/// and `PROF_<name>.json` (the span profile, labelled with the
/// artifact's workload). Prints each path.
///
/// # Errors
///
/// Filesystem errors, naming the file. A harness returns them from
/// `main`: a sidecar that was not written is a failed run, not a
/// warning for the gate step to rediscover as a missing file.
pub fn emit(name: &str, table: &JsonValue, artifact: &RunArtifact) -> std::io::Result<()> {
    let mut files = vec![
        (format!("BENCH_{name}.json"), table.render()),
        (format!("RUN_{name}.json"), artifact.render()),
    ];
    let snap = tc_obs::trace_snapshot();
    if !snap.events.is_empty() {
        let (profile, folded) = tc_prof::profile::profile_and_fold(&snap);
        let profile = profile.workload(artifact.workload());
        if profile.dropped_events > 0 {
            eprintln!(
                "warning: PROF_{name}: {} trace event(s) dropped to ring overflow — profile is \
                 truncated and will not pass a tcdiff gate",
                profile.dropped_events
            );
        }
        files.push((format!("{name}.trace.json"), snap.to_chrome_trace()));
        files.push((format!("{name}.folded"), folded));
        files.push((format!("PROF_{name}.json"), profile.render_json()));
    }
    files
        .iter()
        .try_for_each(|(file, text)| write_sidecar(file, text))
}

/// Writes one sidecar, `file` in [`out_dir`], and prints its path.
///
/// # Errors
///
/// Filesystem errors, naming the file.
pub fn write_sidecar(file: &str, text: &str) -> std::io::Result<()> {
    let dir = out_dir();
    let at = |path: &Path, e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(&dir).map_err(|e| at(&dir, e))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| at(&path, e))?;
    println!("sidecar: {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_and_netlists_materialize() {
        let (lib, stack) = standard_env();
        assert!(stack.layer_count() == 9);
        let nl = bench_netlist(&lib, "tiny", 1);
        assert!(nl.cell_count() > 100);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(1.23456, 2).to_string(), "1.23");
        assert_eq!(pct(50.66, 1).to_string(), "50.7%");
    }

    #[test]
    fn ragged_rows_are_rejected() {
        // A cell past the last header is rejected, not dropped.
        let panic = std::panic::catch_unwind(|| {
            let mut fig = Figure::new("probe");
            let ragged = vec![vec![1.into(), 2.into()], vec![1.into(), 2.into(), 3.into()]];
            fig.table("t", "a | b", ragged);
        })
        .expect_err("a ragged row must panic");
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert_eq!(
            msg,
            "figure probe, table \"t\": row 1 has 3 cells for 2 headers"
        );
    }

    #[test]
    fn emit_lands_in_tc_bench_out() {
        let dir = std::env::temp_dir().join(format!("tc_bench_emit_{}", std::process::id()));
        let table = JsonValue::obj([("ok", JsonValue::from(true))]);
        std::env::set_var("TC_BENCH_OUT", &dir);
        emit("probe", &table, &RunArtifact::new("emit probe")).expect("writable directory");
        std::env::remove_var("TC_BENCH_OUT");
        let bench = std::fs::read_to_string(dir.join("BENCH_probe.json")).unwrap();
        assert_eq!(bench, "{\"ok\":true}");
        let run = std::fs::read_to_string(dir.join("RUN_probe.json")).unwrap();
        assert!(run.contains("emit probe"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
